//! The ∆-bounded shortest-path search against the unbounded one.
//!
//! `from_door_within` stops at the first popped distance its `beyond` test
//! rejects. The search algorithms rely on two facts about it, both checked
//! here on generated venues (mega venues up to 10³ partitions and the small
//! synthetic mall) with random exclusion sets and random `(base, ∆)`:
//!
//! * every door whose unbounded distance `d` passes the caller's test
//!   (`!(base + d > ∆)`) gets the same distance and the same path;
//! * every other door reports a distance the test rejects too, so a caller
//!   that re-checks `base + d > ∆` discards it exactly as before.
//!
//! The same holds for `door_to_point_path_within`, judged on the total
//! connection length.

use indoor_data::{mega_venue, MegaVenueConfig, SyntheticVenueConfig, Venue};
use indoor_space::{DoorId, PartitionId};
use proptest::prelude::*;
use std::collections::HashSet;

fn venue(synthetic: bool, partitions: usize, seed: u64) -> Venue {
    if synthetic {
        Venue::synthetic(&SyntheticVenueConfig::small(seed)).expect("valid config")
    } else {
        mega_venue(&MegaVenueConfig::sized(partitions, seed)).expect("valid config")
    }
}

proptest! {
    #[test]
    fn bounded_search_agrees_with_the_unbounded_one_within_delta(
        synthetic in proptest::bool::ANY,
        partitions in 40usize..1_000,
        seed in 0u64..1_000,
        source in 0usize..1_000_000,
        excluded in proptest::collection::vec(0usize..1_000_000, 0..16),
        base in 0.0f64..200.0,
        fraction in 0.0f64..1.2,
        edge_door in proptest::option::of(0usize..1_000_000),
        target_partition in 0usize..1_000_000,
    ) {
        let venue = venue(synthetic, partitions, seed);
        let space = &venue.space;
        let n = space.num_doors();
        let source = DoorId((source % n) as u32);
        let excluded: HashSet<DoorId> =
            excluded.iter().map(|&d| DoorId((d % n) as u32)).collect();
        let sp = space.shortest_paths();
        let unbounded = sp.from_door(source, &excluded);

        // ∆ lands either exactly on some door's distance (the tie edge of
        // the bound) or at a random fraction of the farthest one.
        let farthest = unbounded
            .distances()
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max);
        let edge = edge_door
            .map(|d| unbounded.distance(DoorId((d % n) as u32)))
            .filter(|d| d.is_finite());
        let delta = base + edge.unwrap_or(fraction * farthest);
        let beyond = |d: f64| base + d > delta;
        let bounded = sp.from_door_within(source, &excluded, beyond);

        for i in 0..n {
            let door = DoorId(i as u32);
            let d = unbounded.distance(door);
            if beyond(d) {
                let got = bounded.distance(door);
                prop_assert!(!got.is_finite() || beyond(got),
                    "door {} beyond ∆ reported {} passing the test", i, got);
            } else {
                prop_assert_eq!(bounded.distance(door).to_bits(), d.to_bits(),
                    "door {} within ∆", i);
                prop_assert_eq!(bounded.path_to(door), unbounded.path_to(door));
            }
        }

        // The door-to-point connection, bounded on its door-to-door head.
        let host = PartitionId((target_partition % space.num_partitions()) as u32);
        let pt = venue.point_in_partition(host, (0.4, 0.6));
        let whole = sp.door_to_point_path(source, &pt, &excluded);
        let within = sp.door_to_point_path_within(source, &pt, &excluded, beyond);
        match &whole {
            Some((total, _, _)) if !beyond(*total) => prop_assert_eq!(&within, &whole),
            _ => prop_assert!(within.as_ref().is_none_or(|(total, _, _)| beyond(*total)),
                "a connection beyond ∆ came back within it"),
        }
    }
}
