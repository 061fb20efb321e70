//! Dijkstra shortest paths over the door graph.
//!
//! The IKRQ search needs several flavours of shortest-path computation:
//!
//! * plain door-to-door shortest distances (all-pairs matrix, query
//!   generation, KoE* precomputation),
//! * shortest *regular* routes that avoid a set of already-visited doors
//!   (the global regularity checks in Algorithm 5 line 12 and Algorithm 6
//!   line 13),
//! * shortest door-to-point connections (the final hop to the terminal
//!   point `pt`).
//!
//! All of them are built on a single Dijkstra implementation with an
//! exclusion set. The `_within` forms stop that search early, at the first
//! distance the caller's own distance-constraint test rejects; the search
//! algorithms use them to stop at ∆ instead of settling the whole graph.

use crate::door_graph::DoorGraphEdge;
use crate::ids::{DoorId, PartitionId};
use crate::point::IndoorPoint;
use crate::space::IndoorSpace;
use crate::UNREACHABLE;
use indoor_geom::OrderedF64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    source: DoorId,
    dist: Vec<f64>,
    /// Predecessor edge for each settled door: `(previous door, partition)`.
    prev: Vec<Option<(DoorId, PartitionId)>>,
}

impl DijkstraResult {
    /// Source door of the run.
    pub fn source(&self) -> DoorId {
        self.source
    }

    /// Shortest distance from the source to `d` ([`UNREACHABLE`] when
    /// unreachable or excluded).
    pub fn distance(&self, d: DoorId) -> f64 {
        self.dist.get(d.index()).copied().unwrap_or(UNREACHABLE)
    }

    /// Distances to all doors, as [`distance`](Self::distance) reports them.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Reconstructs the shortest path to `target` as
    /// `(doors, connecting partitions)`, where `doors` starts with the source
    /// and ends with `target`, and `partitions[i]` connects `doors[i]` to
    /// `doors[i + 1]`. Returns `None` when unreachable.
    pub fn path_to(&self, target: DoorId) -> Option<(Vec<DoorId>, Vec<PartitionId>)> {
        if !self.distance(target).is_finite() {
            return None;
        }
        let mut doors = vec![target];
        let mut partitions = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let (prev, via) = self.prev[cur.index()]?;
            doors.push(prev);
            partitions.push(via);
            cur = prev;
        }
        doors.reverse();
        partitions.reverse();
        Some((doors, partitions))
    }
}

/// A shortest-path engine borrowing the indoor space.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPaths<'a> {
    space: &'a IndoorSpace,
}

impl<'a> ShortestPaths<'a> {
    /// Creates the engine for a space.
    pub fn new(space: &'a IndoorSpace) -> Self {
        ShortestPaths { space }
    }

    /// Single-source Dijkstra from `source`, never expanding through doors in
    /// `excluded` (the source itself is allowed even if listed). The exclusion
    /// set is how the search algorithms enforce the global regularity
    /// principle: doors already used by a partial route may not be revisited.
    pub fn from_door(&self, source: DoorId, excluded: &HashSet<DoorId>) -> DijkstraResult {
        self.from_door_within(source, excluded, |_| false)
    }

    /// [`from_door`](Self::from_door) that stops at the first popped
    /// distance for which `beyond` holds. `beyond` must be monotone: once it
    /// holds for a distance it holds for every larger one.
    ///
    /// Every door whose shortest distance `d` has `!beyond(d)` then reports
    /// the same distance and path as the unbounded run: the heap pops in
    /// `(distance, DoorId)` order and a predecessor only moves on a strict
    /// improvement, so the run is the unbounded one up to the stop. Every
    /// other door reports [`UNREACHABLE`] or a tentative distance no smaller
    /// than the stopping one, which `beyond` rejects as well.
    pub fn from_door_within(
        &self,
        source: DoorId,
        excluded: &HashSet<DoorId>,
        beyond: impl Fn(f64) -> bool,
    ) -> DijkstraResult {
        let n = self.space.num_doors();
        let graph = self.space.door_graph();
        let mut dist = vec![UNREACHABLE; n];
        let mut prev: Vec<Option<(DoorId, PartitionId)>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(OrderedF64, DoorId)>> = BinaryHeap::new();
        if source.index() < n {
            dist[source.index()] = 0.0;
            heap.push(Reverse((OrderedF64::new(0.0), source)));
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            let d = d.get();
            if beyond(d) {
                break;
            }
            if d > dist[u.index()] {
                continue;
            }
            for &DoorGraphEdge { to, via, weight } in graph.edges_from(u) {
                if excluded.contains(&to) && to != source {
                    continue;
                }
                let nd = d + weight;
                if nd < dist[to.index()] {
                    dist[to.index()] = nd;
                    prev[to.index()] = Some((u, via));
                    heap.push(Reverse((OrderedF64::new(nd), to)));
                }
            }
        }
        DijkstraResult { source, dist, prev }
    }

    /// Shortest door-to-door distance avoiding `excluded` doors.
    pub fn door_to_door(&self, from: DoorId, to: DoorId, excluded: &HashSet<DoorId>) -> f64 {
        if from == to {
            return 0.0;
        }
        self.from_door(from, excluded).distance(to)
    }

    /// Shortest path from `from` to `to` avoiding `excluded` doors, returned
    /// as `(distance, doors, partitions)` with `doors[0] == from`.
    pub fn door_to_door_path(
        &self,
        from: DoorId,
        to: DoorId,
        excluded: &HashSet<DoorId>,
    ) -> Option<(f64, Vec<DoorId>, Vec<PartitionId>)> {
        if from == to {
            return Some((0.0, vec![from], Vec::new()));
        }
        let result = self.from_door(from, excluded);
        let d = result.distance(to);
        if !d.is_finite() {
            return None;
        }
        let (doors, partitions) = result.path_to(to)?;
        Some((d, doors, partitions))
    }

    /// Shortest connection from door `from` to the terminal point `pt`,
    /// avoiding `excluded` doors: the minimum over enterable doors `de` of
    /// `pt`'s host partition of `dist(from, de) + δd2pt(de, pt)`. Returns
    /// `(distance, doors, partitions)` where the partition sequence includes
    /// the final hop through `v(pt)`.
    pub fn door_to_point_path(
        &self,
        from: DoorId,
        pt: &IndoorPoint,
        excluded: &HashSet<DoorId>,
    ) -> Option<(f64, Vec<DoorId>, Vec<PartitionId>)> {
        self.door_to_point_path_within(from, pt, excluded, |_| false)
    }

    /// [`door_to_point_path`](Self::door_to_point_path) whose door search
    /// stops where `beyond` first holds for the door-to-door part (see
    /// [`from_door_within`](Self::from_door_within)). The answer equals the
    /// unbounded one whenever `beyond` fails for the unbounded answer's total
    /// distance, because the δd2pt tail is never negative; otherwise it is
    /// `None` or a connection at least as long as the unbounded one.
    pub fn door_to_point_path_within(
        &self,
        from: DoorId,
        pt: &IndoorPoint,
        excluded: &HashSet<DoorId>,
        beyond: impl Fn(f64) -> bool,
    ) -> Option<(f64, Vec<DoorId>, Vec<PartitionId>)> {
        let host = self.space.host_partition(pt).ok()?;
        let result = self.from_door_within(from, excluded, beyond);
        let mut best: Option<(f64, DoorId)> = None;
        for &de in self.space.p2d_enter(host) {
            if excluded.contains(&de) && de != from {
                continue;
            }
            let tail = self.space.d2pt_distance(de, pt);
            if !tail.is_finite() {
                continue;
            }
            let head = if de == from { 0.0 } else { result.distance(de) };
            if !head.is_finite() {
                continue;
            }
            let total = head + tail;
            if best.map(|(b, _)| total < b).unwrap_or(true) {
                best = Some((total, de));
            }
        }
        let (total, de) = best?;
        let (doors, mut partitions) = if de == from {
            (vec![from], Vec::new())
        } else {
            result.path_to(de)?
        };
        partitions.push(host);
        // The point itself is not a door; callers append it to the route. We
        // still return the door sequence ending at the entry door.
        debug_assert_eq!(doors.last(), Some(&de));
        Some((total, doors, partitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::door::DoorKind;
    use crate::ids::FloorId;
    use crate::partition::PartitionKind;
    use crate::space::IndoorSpaceBuilder;
    use indoor_geom::{approx_eq, Point, Rect};

    /// A 1x4 corridor of rooms: v0 -d0- v1 -d1- v2 -d2- v3, all bidirectional,
    /// rooms are 10x10, doors on shared walls at y=5.
    fn corridor4() -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..4)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..3 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_distances_along_corridor() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let r = sp.from_door(DoorId(0), &HashSet::new());
        assert!(approx_eq(r.distance(DoorId(0)), 0.0));
        assert!(approx_eq(r.distance(DoorId(1)), 10.0));
        assert!(approx_eq(r.distance(DoorId(2)), 20.0));
        assert_eq!(r.source(), DoorId(0));
        assert_eq!(r.distances().len(), 3);
    }

    #[test]
    fn path_reconstruction_includes_partitions() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let (d, doors, parts) = sp
            .door_to_door_path(DoorId(0), DoorId(2), &HashSet::new())
            .unwrap();
        assert!(approx_eq(d, 20.0));
        assert_eq!(doors, vec![DoorId(0), DoorId(1), DoorId(2)]);
        assert_eq!(parts, vec![PartitionId(1), PartitionId(2)]);
    }

    #[test]
    fn exclusion_blocks_paths() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let mut excluded = HashSet::new();
        excluded.insert(DoorId(1));
        assert!(!sp.door_to_door(DoorId(0), DoorId(2), &excluded).is_finite());
        // The excluded source is still usable as a source.
        excluded.insert(DoorId(0));
        assert!(approx_eq(
            sp.door_to_door(DoorId(0), DoorId(0), &excluded),
            0.0
        ));
    }

    #[test]
    fn door_to_point_path_enters_host_partition() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let pt = IndoorPoint::from_xy(35.0, 5.0, FloorId(0)); // inside v3
        let (d, doors, parts) = sp
            .door_to_point_path(DoorId(0), &pt, &HashSet::new())
            .unwrap();
        // 10 (d0->d1) + 10 (d1->d2) + 5 (d2 -> point)
        assert!(approx_eq(d, 25.0));
        assert_eq!(doors.last(), Some(&DoorId(2)));
        assert_eq!(parts.last(), Some(&PartitionId(3)));
    }

    #[test]
    fn door_to_point_respects_exclusions() {
        let s = corridor4();
        let sp = s.shortest_paths();
        let pt = IndoorPoint::from_xy(35.0, 5.0, FloorId(0));
        let mut excluded = HashSet::new();
        excluded.insert(DoorId(2));
        assert!(sp.door_to_point_path(DoorId(0), &pt, &excluded).is_none());
    }

    #[test]
    fn unreachable_pairs_report_infinity() {
        let s = corridor4();
        let sp = s.shortest_paths();
        assert!(!sp
            .from_door(DoorId(2), &HashSet::new())
            .distance(DoorId(42))
            .is_finite());
        assert!(sp
            .from_door(DoorId(2), &HashSet::new())
            .path_to(DoorId(42))
            .is_none());
    }

    #[test]
    fn point_in_start_partition_short_circuit() {
        let s = corridor4();
        let sp = s.shortest_paths();
        // Point in v1, starting from d0 which is on v1's boundary.
        let pt = IndoorPoint::from_xy(12.0, 5.0, FloorId(0));
        let (d, doors, parts) = sp
            .door_to_point_path(DoorId(0), &pt, &HashSet::new())
            .unwrap();
        assert!(approx_eq(d, 2.0));
        assert_eq!(doors, vec![DoorId(0)]);
        assert_eq!(parts, vec![PartitionId(1)]);
    }
}
