//! In-process probes of single layers, for the traced run. Each probe times
//! calls into a layer's public functions from outside and records them as
//! spans, so no span lives inside the program.

use crate::trace::{SpanId, Trace};
use ikrq_core::{
    framework::Search, IkrqEngine, IkrqService, PrecomputedPaths, SearchContext, SearchMetrics,
    SearchRequest,
};
use indoor_persist::{binary, IndexSection};
use indoor_space::ShortestPaths;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One traced cold load of the venue file, as the server performs it.
pub struct Load {
    /// The engine built from the file.
    pub engine: IkrqEngine,
    /// Whether both the columnar body and the index section were adopted.
    pub adopted: bool,
}

/// Loads the venue the way `ikrq serve` does, one span per layer call
/// under a `setup` span.
pub fn traced_load(trace: &mut Trace, path: &Path) -> Result<Load, String> {
    let (load, _) = trace.time("setup", None, 0, |trace, setup| {
        let (bytes, _) = trace.time("persist.read", setup, 0, |_, _| std::fs::read(path));
        let bytes = bytes.map_err(|e| format!("cannot read the venue file: {e}"))?;
        let (loaded, _) = trace.time("persist.model", setup, 0, |_, _| {
            binary::load_venue_model(&bytes)
        });
        let loaded = loaded.map_err(|e| format!("cannot load the venue model: {e}"))?;
        let columnar = loaded.stats.adopted_columnar && loaded.stats.degraded.is_none();
        let IndexSection::Present(prebuilt) = loaded.index else {
            return Err("the venue file carries no usable index section".to_string());
        };
        let directory = loaded.directory;
        let (index, _) = trace.time("persist.index_adopt", setup, 0, |_, _| {
            prebuilt.into_index(&directory)
        });
        let index = index.map_err(|e| format!("the persisted index does not bind: {e}"))?;
        let (engine, _) = trace.time("engine.new", setup, 0, |_, _| {
            IkrqEngine::with_prebuilt_index(loaded.space, directory, index)
        });
        Ok(Load {
            engine,
            adopted: columnar,
        })
    });
    load
}

/// What one in-process replay of a request measured.
pub struct Replay {
    /// Candidate partitions over all partitions.
    pub candidate_frac: f64,
    /// The search's own counters.
    pub metrics: SearchMetrics,
    /// `SearchContext::prepare_with_index` time, milliseconds.
    pub prepare_ms: f64,
    /// `Search::run` time, milliseconds.
    pub run_ms: f64,
}

/// Replays one request through the engine layers — context preparation,
/// then the search — as children of the request's span.
pub fn replay(
    trace: &mut Trace,
    engine: &IkrqEngine,
    precomputed: Option<&PrecomputedPaths>,
    request: &SearchRequest,
    parent: Option<SpanId>,
    request_id: u64,
) -> Result<Replay, String> {
    let started = Instant::now();
    let ctx = SearchContext::prepare_with_index(
        engine.space(),
        engine.directory(),
        engine.index(),
        &request.query,
    )
    .map_err(|e| format!("replay cannot prepare request: {e}"))?;
    let prepared = Instant::now();
    trace.record(
        "core.context.prepare",
        started,
        prepared,
        parent,
        request_id,
    );
    let candidates = ctx.prepared.key_partitions(engine.directory()).len();
    let config = request.options.effective_variant();
    let precomputed = precomputed.filter(|_| config.use_precomputed_paths);
    let search = Search::new(&ctx, config, precomputed);
    let run_started = Instant::now();
    let outcome = search.run();
    let ran = Instant::now();
    trace.record("core.search.run", run_started, ran, parent, request_id);
    Ok(Replay {
        candidate_frac: candidates as f64 / engine.space().num_partitions().max(1) as f64,
        metrics: outcome.metrics,
        prepare_ms: (prepared - started).as_secs_f64() * 1e3,
        run_ms: (ran - run_started).as_secs_f64() * 1e3,
    })
}

/// `IkrqService::search` time in milliseconds for a request, in-process.
pub fn service_search_ms(service: &IkrqService, request: &SearchRequest) -> Result<f64, String> {
    let started = Instant::now();
    service
        .search(request)
        .map_err(|e| format!("in-process service rejects the request: {e}"))?;
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// Shortest-path layer counters over a sample of source doors.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// `ShortestPaths::from_door` times, milliseconds.
    pub from_door_ms: Vec<f64>,
    /// Doors settled (finite distance) per call.
    pub settled: Vec<f64>,
    /// Settled doors within the query's ∆, summed over calls.
    pub useful: f64,
}

/// Runs `ShortestPaths::from_door` from the leave doors of the request's
/// start partition, recording each call under a `space.probe` span.
pub fn probe_space(
    trace: &mut Trace,
    engine: &IkrqEngine,
    request: &SearchRequest,
    probe: &mut Probe,
) -> Result<(), String> {
    let space = engine.space();
    let start = space
        .host_partition(&request.query.start)
        .map_err(|e| format!("probe start lies outside the venue: {e}"))?;
    let delta = request.query.delta;
    let excluded = HashSet::new();
    let paths = ShortestPaths::new(space);
    trace.time("space.probe", None, 0, |trace, parent| {
        for &door in space.p2d_leave(start) {
            let started = Instant::now();
            let result = paths.from_door(door, &excluded);
            let done = Instant::now();
            trace.record("space.from_door", started, done, parent, 0);
            let distances = result.distances();
            probe
                .from_door_ms
                .push((done - started).as_secs_f64() * 1e3);
            probe
                .settled
                .push(distances.iter().filter(|d| d.is_finite()).count() as f64);
            probe.useful += distances.iter().filter(|&&d| d <= delta).count() as f64;
        }
    });
    Ok(())
}

/// A KoE* row table of the replay engine's own, so replays of KoE*
/// requests exercise the same precomputed-path code as the server.
pub fn precomputed_paths(engine: &IkrqEngine) -> PrecomputedPaths {
    PrecomputedPaths::new(Arc::new(engine.space().clone()))
}
