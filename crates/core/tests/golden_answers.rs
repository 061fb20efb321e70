//! Golden answers: seeded requests on a 10³-partition mega venue whose
//! answers are pinned by a committed fixture.
//!
//! The scan engine and the index path share the shortest-path code, so
//! comparing them cannot catch a change that alters both. This test pins the
//! engine against its own recorded output instead: for every request and
//! every pinned variant (KoE, KoE*, KoE\D, ToE and ToE with strict
//! terminal expansion) it hashes the response's `deterministic_json`
//! together with the search-effort counters (`stamps_expanded`,
//! `stamps_generated`, `complete_routes`, `dijkstra_calls`) and compares
//! the hash with `golden/answers.txt`. KoE\D is here because, without
//! Rule 1, the stamps it generates depend on the doors closest to ∆, where
//! a shortest-path search bounded by ∆ stops. A mismatch prints the freshly
//! computed fixture.

use ikrq_core::{
    ExecOptions, IkrqEngine, IkrqQuery, IkrqService, SearchRequest, SearchResponse, VariantConfig,
};
use indoor_data::{mega_venue, MegaVenueConfig, QueryGenerator, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FIXTURE: &str = include_str!("golden/answers.txt");

/// Query instances drawn from the venue; each is asked of every variant.
const INSTANCES: usize = 25;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hashed text of one answer: the deterministic response plus the
/// search-effort counters.
fn answer_text(response: &SearchResponse) -> String {
    let metrics = response
        .metrics
        .as_ref()
        .expect("full metrics are requested");
    format!(
        "{}|expanded={}|generated={}|complete={}|dijkstra={}",
        response.deterministic_json(),
        metrics.stamps_expanded,
        metrics.stamps_generated,
        metrics.complete_routes,
        metrics.dijkstra_calls
    )
}

/// One fixture line per answer: `<instance> <variant> <hash>`.
fn golden_lines() -> Vec<String> {
    let venue = mega_venue(&MegaVenueConfig::sized(1_000, 11)).expect("valid config");
    let service = IkrqService::new();
    service
        .register_engine(
            "golden",
            Arc::new(IkrqEngine::new(
                venue.space.clone(),
                venue.directory.clone(),
            )),
        )
        .expect("fresh service accepts the venue");
    let workload = WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t: 150.0,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(0x901d);
    let instances = QueryGenerator::new(&venue).generate_batch(&workload, INSTANCES, &mut rng);
    assert_eq!(
        instances.len(),
        INSTANCES,
        "the venue yields every instance"
    );
    let variants = [
        ("koe", VariantConfig::koe()),
        ("koe*", VariantConfig::koe_star()),
        ("koe-no-distance", VariantConfig::koe_no_distance()),
        ("toe", VariantConfig::toe()),
        (
            "toe-strict",
            VariantConfig::toe().with_strict_terminal_expansion(),
        ),
    ];
    let mut lines = Vec::new();
    for (i, instance) in instances.iter().enumerate() {
        let query = IkrqQuery::new(
            instance.start,
            instance.terminal,
            instance.delta,
            QueryKeywords::new(instance.keywords.iter().cloned()).expect("keywords"),
            instance.k,
        )
        .with_alpha(instance.alpha)
        .with_tau(instance.tau);
        for (name, variant) in variants {
            let request = SearchRequest {
                venue: "golden".to_string(),
                query: query.clone(),
                options: ExecOptions::with_variant(variant),
            };
            let response = service.search(&request).expect("search succeeds");
            let hash = fnv1a(answer_text(&response).as_bytes());
            lines.push(format!("{i} {name} {hash:016x}"));
        }
    }
    lines
}

#[test]
fn engine_reproduces_the_golden_answers() {
    let computed = golden_lines();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    if computed != expected {
        eprintln!("computed fixture:\n{}", computed.join("\n"));
    }
    assert_eq!(computed.len(), expected.len(), "answer count changed");
    for (got, want) in computed.iter().zip(&expected) {
        assert_eq!(got, want, "golden answer changed");
    }
}
