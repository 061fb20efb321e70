//! The retired KoE* row-table handle.
//!
//! KoE* (§V-A3) used to read door-to-door shortest paths from a shared,
//! lazily materialised all-pairs table. It now runs one ∆-bounded search
//! per expanded stamp instead (see [`crate::koe`]), so nothing is
//! precomputed and this type holds no state.

use indoor_space::IndoorSpace;
use std::sync::Arc;

/// A stateless stand-in for the former KoE* row table.
///
/// It survives only because the serving benchmark (`perfbench/src/layers.rs`)
/// still constructs one and passes it to [`crate::framework::Search::new`],
/// and the benchmark's sources may change only together with the benchmark
/// itself. Remove it with that parameter in the next change to the
/// benchmark.
#[derive(Debug)]
pub struct PrecomputedPaths;

impl PrecomputedPaths {
    /// Returns the handle; the space is not read.
    pub fn new(_space: Arc<IndoorSpace>) -> Self {
        PrecomputedPaths
    }
}
