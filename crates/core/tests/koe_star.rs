//! KoE* against KoE on generated mega venues (40–10³ partitions).
//!
//! KoE* (§V-A3) expands along the shortest door path that ignores the
//! route's doors, and recomputes only when that path breaks regularity.
//! Both variants must therefore return the same top-k scores, and every
//! KoE* route must be regular and within ∆. Summed over the cases, the
//! regularity fallback must actually run, so the recomputation path is
//! covered as well.

use ikrq_core::{ExecOptions, IkrqEngine, IkrqQuery, VariantConfig};
use indoor_data::{mega_venue, MegaVenueConfig, QueryGenerator, WorkloadConfig};
use indoor_keywords::QueryKeywords;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// `precomputed_path_recomputations` summed over every KoE* answer.
static RECOMPUTATIONS: AtomicU64 = AtomicU64::new(0);

/// The golden fixture's workload parameters.
const WORKLOAD: WorkloadConfig = WorkloadConfig {
    qw_len: 3,
    beta: 0.5,
    s2t: 150.0,
    eta: 2.0,
    k: 3,
    alpha: 0.5,
    tau: 0.3,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    fn koe_star_case(
        partitions in 40usize..1_000,
        seed in 0u64..1_000,
        query_seed in 0u64..1_000_000,
    ) {
        let venue = mega_venue(&MegaVenueConfig::sized(partitions, seed)).expect("valid config");
        let engine = IkrqEngine::new(venue.space.clone(), venue.directory.clone());
        let mut rng = StdRng::seed_from_u64(query_seed);
        for instance in QueryGenerator::new(&venue).generate_batch(&WORKLOAD, 3, &mut rng) {
            let query = IkrqQuery::new(
                instance.start,
                instance.terminal,
                instance.delta,
                QueryKeywords::new(instance.keywords.iter().cloned()).expect("keywords"),
                instance.k,
            )
            .with_alpha(instance.alpha)
            .with_tau(instance.tau);
            let run = |variant| {
                engine
                    .execute(&query, &ExecOptions::with_variant(variant))
                    .expect("search succeeds")
            };
            let (koe, koe_star) = (run(VariantConfig::koe()), run(VariantConfig::koe_star()));
            let scores = |routes: &[ikrq_core::ResultRoute]| -> Vec<f64> {
                routes.iter().map(|r| r.score).collect()
            };
            prop_assert_eq!(scores(koe.results.routes()), scores(koe_star.results.routes()));
            for result in koe_star.results.routes() {
                prop_assert!(result.route.is_regular());
                prop_assert!(result.route.is_complete());
                prop_assert!(result.distance <= query.delta);
            }
            RECOMPUTATIONS.fetch_add(
                koe_star.metrics.precomputed_path_recomputations,
                Ordering::Relaxed,
            );
        }
    }
}

#[test]
fn koe_star_answers_like_koe_and_exercises_its_fallback() {
    koe_star_case();
    assert!(
        RECOMPUTATIONS.load(Ordering::Relaxed) > 0,
        "no KoE* path broke regularity, so the fallback went untested"
    );
}
