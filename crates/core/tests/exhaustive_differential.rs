//! Exhaustive differential: on random small synthetic venues (≤ 20
//! partitions) the [`ExhaustiveBaseline`], which enumerates every regular
//! route within ∆, is the ground truth for KoE, strict ToE and relaxed ToE.
//!
//! ∆ is drawn close to the direct start-to-terminal distance, a third of
//! the time within a relative 10⁻⁹ of it, so the searches work at the edge
//! of the distance constraint, where a shortest-path search bounded by ∆
//! decides which doors it settles. (∆ exactly equal to the direct distance
//! would make the answer depend on the order in which each search sums the
//! legs of the direct route.)
//!
//! Asserted: no search ever beats the ground truth. Every returned route is
//! complete, regular and within ∆, and the score at every rank is at most
//! the exhaustive score at that rank. Reported, not asserted: how often each
//! search falls short of the exhaustive top-k. On this venue family all
//! three do, for reasons that predate the ∆-bounded search (see the
//! engine-versus-exhaustive gap in ROADMAP.md); relaxed ToE also stops
//! expanding at the terminal partition (Algorithm 5).

use ikrq_core::{ExecOptions, ExhaustiveBaseline, IkrqEngine, IkrqQuery, VariantConfig};
use indoor_data::{MallConfig, SyntheticVenueConfig, Venue};
use indoor_keywords::QueryKeywords;
use indoor_space::{PartitionId, PartitionKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const VENUES: u64 = 24;
const QUERIES_PER_VENUE: usize = 6;

/// One floor, one hallway segment per arm and one room per arm side:
/// 8 rooms, 5 hallway cells and 4 staircases.
fn tiny_venue(seed: u64) -> Venue {
    let config = SyntheticVenueConfig {
        mall: MallConfig {
            floors: 1,
            floor_width: 200.0,
            floor_height: 200.0,
            corridor_width: 10.0,
            segments_per_arm: 1,
            rooms_per_arm_side: 1,
            room_depth: 40.0,
            staircase_length: 10.0,
            two_door_rooms_per_arm_side: 1,
            ..MallConfig::default()
        },
        ..SyntheticVenueConfig::small(seed)
    };
    Venue::synthetic(&config).expect("valid config")
}

fn top_k_scores(outcome: &ikrq_core::SearchOutcome) -> Vec<f64> {
    outcome.results.routes().iter().map(|r| r.score).collect()
}

fn same_scores(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

#[test]
fn searches_never_beat_the_exhaustive_top_k_near_the_delta_edge() {
    let variants = [
        ("KoE", VariantConfig::koe()),
        (
            "strict ToE",
            VariantConfig::toe().with_strict_terminal_expansion(),
        ),
        ("relaxed ToE", VariantConfig::toe()),
    ];
    let mut short = [0usize; 3];
    let mut compared = 0usize;
    for seed in 0..VENUES {
        let venue = tiny_venue(seed);
        let space = &venue.space;
        assert!(
            space.num_partitions() <= 20,
            "{} partitions",
            space.num_partitions()
        );
        let engine = IkrqEngine::new(space.clone(), venue.directory.clone());
        let endpoints: Vec<PartitionId> = space
            .partitions()
            .iter()
            .filter(|p| p.kind != PartitionKind::Staircase)
            .map(|p| p.id)
            .collect();
        // Query words: the rooms' i-words and their t-words.
        let mut words: Vec<String> = Vec::new();
        for &room in &venue.rooms {
            if let Some(iword) = venue.directory.partition_iword(room) {
                let ids = std::iter::once(iword).chain(venue.directory.twords_of(iword));
                words.extend(ids.filter_map(|w| venue.directory.resolve(w).map(str::to_string)));
            }
        }
        assert!(!words.is_empty(), "seed {seed}: the rooms carry keywords");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
        for q in 0..QUERIES_PER_VENUE {
            let point = |rng: &mut StdRng| {
                let &v = endpoints.choose(rng).expect("venue has partitions");
                venue.point_in_partition(v, (rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)))
            };
            let (start, terminal) = (point(&mut rng), point(&mut rng));
            let direct = space.point_to_point_distance(&start, &terminal);
            assert!(direct.is_finite(), "the tiny mall is connected");
            let slack = if q % 3 == 0 {
                1e-9
            } else {
                rng.gen_range(0.0..0.6)
            };
            let keywords: Vec<String> = (0..rng.gen_range(1..4))
                .map(|_| words.choose(&mut rng).expect("words").clone())
                .collect();
            let query = IkrqQuery::new(
                start,
                terminal,
                direct * (1.0 + slack),
                QueryKeywords::new(keywords).expect("keywords"),
                rng.gen_range(1..5),
            )
            .with_alpha(rng.gen_range(0.1..0.9))
            .with_tau(rng.gen_range(0.1..0.4));

            let exhaustive = ExhaustiveBaseline::default()
                .search(space, engine.directory(), &query)
                .expect("baseline runs");
            assert!(
                !exhaustive.metrics.budget_exhausted,
                "seed {seed} query {q}"
            );
            let expected = top_k_scores(&exhaustive);
            for (i, (name, variant)) in variants.iter().enumerate() {
                let outcome = engine
                    .execute(&query, &ExecOptions::with_variant(*variant))
                    .expect("search runs");
                for r in outcome.results.routes() {
                    assert!(
                        r.distance <= query.delta,
                        "seed {seed} query {q}: {name} beyond ∆"
                    );
                    assert!(r.route.is_complete() && r.route.is_regular(), "{name}");
                }
                let got = top_k_scores(&outcome);
                assert!(
                    got.len() <= expected.len()
                        && got.iter().zip(&expected).all(|(g, e)| *g <= e + 1e-9),
                    "seed {seed} query {q}: {name} top-k {got:?} beats exhaustive {expected:?}"
                );
                if !same_scores(&got, &expected) {
                    short[i] += 1;
                }
            }
            compared += 1;
        }
    }
    for ((name, _), short) in variants.iter().zip(short) {
        println!("{name} fell short of the exhaustive top-k on {short} of {compared} queries");
    }
}
