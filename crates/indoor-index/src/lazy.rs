//! Lazily materialised, capacity-bounded per-door distance rows for the
//! workload generator.
//!
//! Step 2 of the paper's query generation (§V-A1) picks a door whose
//! distance from the start approximates `δs2t`, reading a precomputed
//! door-to-door matrix. The eager `DoorMatrix::build` runs one single-source
//! Dijkstra per door up front and stores `O(doors²)` distances.
//! [`LazyDoorRows`] keeps the identical per-source computation — the same
//! `ShortestPaths::from_door` with an empty exclusion set — but runs it on
//! first touch of each row and caches the [`DijkstraResult`] in an LRU table
//! bounded by a row capacity. Distances are therefore value-identical to the
//! eager matrix (tested against it), while resident memory is
//! `O(min(touched, capacity) × doors)` instead of `O(doors²)`.
//!
//! The default capacity is sized from a fixed byte budget
//! ([`DEFAULT_ROW_BYTES_BUDGET`]) divided by the per-row footprint, clamped
//! to `[16, doors]` — small venues therefore never evict (the cache holds
//! every row), while a 10⁵-door mega venue is capped at a few hundred
//! resident rows.

use indoor_space::{DijkstraResult, DoorId, IndoorSpace, PartitionId, ShortestPaths, UNREACHABLE};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Byte budget the default row capacity is sized from (256 MiB).
pub const DEFAULT_ROW_BYTES_BUDGET: usize = 256 << 20;

/// Minimum row capacity regardless of venue size.
pub const MIN_ROWS_CAPACITY: usize = 16;

/// The LRU bookkeeping behind one mutex: the resident rows keyed by door id,
/// each stamped with its last-use tick, plus the inverse tick → door order
/// map the eviction loop pops from.
#[derive(Debug, Default)]
struct RowCache {
    map: HashMap<u32, (u64, Arc<DijkstraResult>)>,
    order: BTreeMap<u64, u32>,
    next_tick: u64,
}

impl RowCache {
    /// Returns the row and refreshes its recency, if resident.
    fn touch(&mut self, key: u32) -> Option<Arc<DijkstraResult>> {
        if !self.map.contains_key(&key) {
            return None;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = self.map.get_mut(&key).expect("checked resident above");
        let old = std::mem::replace(&mut entry.0, tick);
        let row = Arc::clone(&entry.1);
        self.order.remove(&old);
        self.order.insert(tick, key);
        Some(row)
    }

    /// Inserts a freshly computed row and evicts the least recently used
    /// rows until the cache fits `capacity`; returns the eviction count.
    fn insert(&mut self, key: u32, row: Arc<DijkstraResult>, capacity: usize) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.map.insert(key, (tick, row));
        self.order.insert(tick, key);
        let mut evicted = 0;
        while self.map.len() > capacity {
            let (&oldest, &victim) = self.order.iter().next().expect("map non-empty");
            self.order.remove(&oldest);
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// All-pairs door distances, materialised one source row at a time and
/// bounded by an LRU capacity. Shareable across generator threads; a
/// concurrent first touch of the same row may duplicate the Dijkstra, but
/// the first insert wins and later racers adopt it, so readers always
/// observe one consistent row.
#[derive(Debug)]
pub struct LazyDoorRows {
    space: Arc<IndoorSpace>,
    num_doors: usize,
    capacity: usize,
    cache: Mutex<RowCache>,
}

impl LazyDoorRows {
    /// Creates the (empty) row table for a venue with the default
    /// budget-derived capacity. Cost: one allocation.
    pub fn new(space: Arc<IndoorSpace>) -> Self {
        let n = space.num_doors();
        Self::with_capacity(space, Self::default_capacity(n))
    }

    /// Creates the row table with an explicit row capacity (clamped to ≥ 1).
    pub fn with_capacity(space: Arc<IndoorSpace>, capacity: usize) -> Self {
        let num_doors = space.num_doors();
        LazyDoorRows {
            space,
            num_doors,
            capacity: capacity.max(1),
            cache: Mutex::new(RowCache::default()),
        }
    }

    /// The default capacity for a venue with `num_doors` doors:
    /// `DEFAULT_ROW_BYTES_BUDGET / row_bytes`, clamped to
    /// `[MIN_ROWS_CAPACITY, num_doors]`. Venues whose full matrix fits the
    /// budget keep every row resident and never evict.
    fn default_capacity(num_doors: usize) -> usize {
        let row_bytes = num_doors
            * (std::mem::size_of::<f64>() + std::mem::size_of::<Option<(DoorId, PartitionId)>>());
        (DEFAULT_ROW_BYTES_BUDGET / row_bytes.max(1))
            .clamp(MIN_ROWS_CAPACITY, num_doors.max(MIN_ROWS_CAPACITY))
    }

    /// The Dijkstra row for a source door, materialising it on first touch
    /// (and possibly evicting the least recently used row). `None` only for
    /// an out-of-range door id.
    fn row(&self, from: DoorId) -> Option<Arc<DijkstraResult>> {
        if from.index() >= self.num_doors {
            return None;
        }
        let key = from.0;
        if let Some(row) = self.cache.lock().expect("row cache poisoned").touch(key) {
            return Some(row);
        }
        // Dijkstra runs outside the lock so concurrent misses on different
        // rows do not serialise; on relock, adopt a racing winner if any.
        let computed = Arc::new(ShortestPaths::new(&self.space).from_door(from, &HashSet::new()));
        let mut cache = self.cache.lock().expect("row cache poisoned");
        if let Some(existing) = cache.touch(key) {
            return Some(existing);
        }
        cache.insert(key, Arc::clone(&computed), self.capacity);
        Some(computed)
    }

    /// Shortest distance between two doors; [`UNREACHABLE`] when either id
    /// is out of range (same contract as `DoorMatrix::distance`).
    pub fn distance(&self, from: DoorId, to: DoorId) -> f64 {
        if to.index() >= self.num_doors {
            return UNREACHABLE;
        }
        match self.row(from) {
            Some(row) => row.distance(to),
            None => UNREACHABLE,
        }
    }

    /// Number of rows currently resident in the cache.
    pub fn materialized_rows(&self) -> usize {
        self.cache.lock().expect("row cache poisoned").map.len()
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use indoor_geom::{Point, Rect};
    use indoor_space::{DoorKind, DoorMatrix, FloorId, IndoorSpaceBuilder, PartitionKind};

    /// `n` rooms in a row, joined by `n - 1` two-way doors.
    fn corridor(n: usize) -> IndoorSpace {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..n)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..n - 1 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        b.build().unwrap()
    }

    /// Whether two distances agree, unreachable included.
    fn same(a: f64, b: f64) -> bool {
        a.is_finite() == b.is_finite() && (!a.is_finite() || a == b)
    }

    #[test]
    fn lazy_rows_agree_with_eager_matrix() {
        let space = corridor(7);
        let eager = DoorMatrix::build(&space);
        let lazy = LazyDoorRows::new(Arc::new(space.clone()));
        assert_eq!(lazy.materialized_rows(), 0, "nothing touched yet");
        let n = space.num_doors();
        for a in 0..n {
            for b in 0..n {
                let (da, db) = (DoorId(a as u32), DoorId(b as u32));
                let (de, dl) = (eager.distance(da, db), lazy.distance(da, db));
                assert!(
                    same(de, dl),
                    "distance mismatch {da:?}->{db:?}: {de} vs {dl}"
                );
            }
        }
        assert_eq!(lazy.materialized_rows(), n);
        assert_eq!(lazy.distance(DoorId(0), DoorId(99)), UNREACHABLE);
    }

    #[test]
    fn bounded_rows_never_exceed_capacity_and_stay_correct() {
        let space = corridor(9); // 8 doors
        let eager = DoorMatrix::build(&space);
        let lazy = LazyDoorRows::with_capacity(Arc::new(space.clone()), 3);
        let n = space.num_doors();
        for a in 0..n {
            for b in 0..n {
                let (da, db) = (DoorId(a as u32), DoorId(b as u32));
                assert!(same(eager.distance(da, db), lazy.distance(da, db)));
                assert!(
                    lazy.materialized_rows() <= 3,
                    "resident rows {} exceeded capacity",
                    lazy.materialized_rows()
                );
            }
        }
        // Every row was touched but only three stay: the rest were evicted,
        // and an evicted row recomputes to the same value on re-touch.
        assert_eq!(lazy.materialized_rows(), 3);
        assert!(same(
            lazy.distance(DoorId(0), DoorId(7)),
            eager.distance(DoorId(0), DoorId(7))
        ));
    }

    #[test]
    fn warm_with_small_capacity_leaves_capacity_rows() {
        let space = corridor(6); // 5 doors
        let lazy = LazyDoorRows::with_capacity(Arc::new(space), 2);
        for i in 0..5 {
            lazy.distance(DoorId(i), DoorId(0));
        }
        assert_eq!(lazy.materialized_rows(), 2);
    }

    /// Any real Dijkstra row works; the cache never inspects contents.
    fn dummy_row() -> Arc<DijkstraResult> {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let a = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::new(0.0, 0.0), 10.0, 10.0).unwrap(),
            None,
        );
        let c = b.add_partition(
            f,
            PartitionKind::Room,
            Rect::from_origin_size(Point::new(10.0, 0.0), 10.0, 10.0).unwrap(),
            None,
        );
        let d = b.add_door(Point::new(10.0, 5.0), f, DoorKind::Normal);
        b.connect_bidirectional(d, a, c);
        let space = b.build().unwrap();
        Arc::new(ShortestPaths::new(&space).from_door(DoorId(0), &HashSet::new()))
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = RowCache::default();
        assert_eq!(c.insert(0, dummy_row(), 2), 0);
        assert_eq!(c.insert(1, dummy_row(), 2), 0);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.touch(0).is_some());
        assert_eq!(c.insert(2, dummy_row(), 2), 1);
        assert!(c.touch(1).is_none(), "1 was evicted");
        assert!(c.touch(0).is_some());
        assert!(c.touch(2).is_some());
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut c = RowCache::default();
        for k in 0..5u32 {
            c.insert(k, dummy_row(), 1);
        }
        assert_eq!(c.map.len(), 1);
        assert!(c.touch(4).is_some());
    }
}
