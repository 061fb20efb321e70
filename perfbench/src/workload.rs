//! The four workloads and the seeded inputs they run on.
//!
//! Every input comes from the workload seed: the venue file is written by
//! the same `generate --kind mega --save-indexed` path the CLI exposes, and
//! the request stream is drawn by `indoor_data::QueryGenerator` with the
//! `scale` sweep's parameters. The server only ever sees the file and the
//! request bodies.

use ikrq_core::{ExecOptions, IkrqQuery, SearchRequest, VariantConfig};
use indoor_data::{QueryGenerator, QueryInstance, Venue, WorkloadConfig};
use indoor_keywords::{QueryKeywords, WordId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::Path;

/// The search algorithm a workload's requests ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// KoE: keyword-oriented expansion with on-the-fly shortest paths.
    Koe,
    /// Default (relaxed) ToE: topology-oriented expansion.
    Toe,
    /// KoE*: KoE over the lazily materialised door-row cache.
    KoeStar,
}

impl Algorithm {
    /// The engine variant behind the algorithm.
    pub fn variant(self) -> VariantConfig {
        match self {
            Algorithm::Koe => VariantConfig::koe(),
            Algorithm::Toe => VariantConfig::toe(),
            Algorithm::KoeStar => VariantConfig::koe_star(),
        }
    }
}

/// How a connection picks its next request from the generated pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// Every request distinct: the two connections walk the pool in
    /// interleaved order, so no request is ever sent twice.
    Distinct,
    /// Uniform draws from a small pool (all of which the cache holds).
    Uniform,
    /// Zipf-skewed draws (rank `r` weighted `1 / r^exponent`).
    Zipf {
        /// Skew exponent.
        exponent: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Target partition count of the generated mega venue.
    pub partitions: usize,
    /// Algorithm every request asks for.
    pub algorithm: Algorithm,
    /// How connections draw requests.
    pub stream: Stream,
    /// Query instances drawn from the generator.
    pub instances: usize,
    /// Distinct requests in the pool (see [`request_pool`]).
    pub pool: usize,
    /// Expansion budget every request carries, if any.
    pub budget: Option<u64>,
    /// Warm-up before the window, seconds. `reload-mix` warms up until its
    /// misses have filled the 4 096-entry response cache, so the window
    /// sees the steady state with evictions.
    pub warmup_s: u64,
    /// Connection 0 sends a reload after this many of its own searches.
    pub reload_every: Option<usize>,
    /// Distinct requests checked against the scan oracle; `None` checks
    /// every distinct request that was answered.
    pub check_sample: Option<usize>,
    /// Cache-miss requests replayed in-process by the traced run.
    pub replay_sample: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "koe-10k",
        partitions: 10_000,
        algorithm: Algorithm::Koe,
        stream: Stream::Distinct,
        instances: 480,
        pool: 60_000,
        budget: None,
        warmup_s: 2,
        reload_every: None,
        check_sample: None,
        replay_sample: 160,
    },
    Workload {
        name: "toe-100k",
        partitions: 100_000,
        algorithm: Algorithm::Toe,
        stream: Stream::Distinct,
        instances: 120,
        pool: 3_600,
        budget: Some(2_000),
        warmup_s: 2,
        reload_every: None,
        check_sample: Some(6),
        replay_sample: 40,
    },
    Workload {
        name: "hot-wire",
        partitions: 10_000,
        algorithm: Algorithm::Koe,
        stream: Stream::Uniform,
        instances: 64,
        pool: 64,
        budget: None,
        warmup_s: 2,
        reload_every: None,
        check_sample: None,
        replay_sample: 64,
    },
    Workload {
        name: "reload-mix",
        partitions: 10_000,
        algorithm: Algorithm::KoeStar,
        stream: Stream::Zipf { exponent: 0.8 },
        instances: 480,
        pool: 6_144,
        budget: None,
        warmup_s: 16,
        reload_every: Some(150),
        check_sample: None,
        replay_sample: 160,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `scale` sweep's query parameters: |QW| = 3, δs2t = 150, k = 3,
/// α = 0.5, τ = 0.3.
pub fn query_config() -> WorkloadConfig {
    WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t: 150.0,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    }
}

/// Arguments of the `ikrq generate` call that writes a workload's venue.
pub fn generate_args(partitions: usize, seed: u64, path: &Path) -> Vec<String> {
    vec![
        "generate".into(),
        "--kind".into(),
        "mega".into(),
        "--partitions".into(),
        partitions.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--save-indexed".into(),
        path.to_string_lossy().into_owned(),
    ]
}

/// Converts a generated instance into an engine query.
pub fn to_query(instance: &QueryInstance) -> IkrqQuery {
    IkrqQuery::new(
        instance.start,
        instance.terminal,
        instance.delta,
        QueryKeywords::new(instance.keywords.iter().cloned())
            .expect("generated instances always carry keywords"),
        instance.k,
    )
    .with_alpha(instance.alpha)
    .with_tau(instance.tau)
}

/// Instances generated per seeded chunk; chunks are the unit of work
/// spread over threads, so the output does not depend on the thread count.
const CHUNK: usize = 4;

/// Draws `count` query instances from the venue with the `scale` sweep's
/// parameters, on up to `threads` threads. Chunk `c` uses its own seeded
/// generator, so the instances depend only on the venue and the seed.
pub fn generate_instances(
    venue: &Venue,
    count: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<QueryInstance>, String> {
    let chunks = count.div_ceil(CHUNK);
    let threads = threads.clamp(1, chunks.max(1));
    let config = query_config();
    let mut slots: Vec<Option<Vec<QueryInstance>>> = vec![None; chunks];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let generator = QueryGenerator::new(venue);
                    (t..chunks)
                        .step_by(threads)
                        .map(|c| {
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ 0x5eed_9e9e ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                            );
                            let want = CHUNK.min(count - c * CHUNK);
                            let chunk: Vec<QueryInstance> = (0..want * 4)
                                .filter_map(|_| generator.generate(&config, &mut rng))
                                .take(want)
                                .collect();
                            (c, chunk)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (c, chunk) in handle.join().expect("query generator thread panicked") {
                slots[c] = Some(chunk);
            }
        }
    });
    let instances: Vec<QueryInstance> = slots.into_iter().flatten().flatten().collect();
    if instances.len() < count {
        return Err(format!(
            "the venue yielded {} of {count} query instances",
            instances.len()
        ));
    }
    Ok(instances)
}

/// Builds a pool of `size` distinct requests: request `k` takes the
/// endpoints and ∆ of instance `k mod n` and a fresh keyword list drawn the
/// way the generator draws one (step 4 of §V-A1: `round(β·|QW|)` i-words
/// and the rest t-words, uniformly from the venue vocabulary, shuffled).
/// The generator draws keywords independently of the endpoints, so each
/// request is distributed like a generated instance, while the costly
/// endpoint search runs only `n` times.
pub fn request_pool(
    venue: &Venue,
    instances: &[QueryInstance],
    size: usize,
    workload: &Workload,
    venue_id: &str,
    seed: u64,
) -> Result<Vec<SearchRequest>, String> {
    let directory = &venue.directory;
    let iwords: Vec<WordId> = directory.vocab().iwords().collect();
    let twords: Vec<WordId> = directory.vocab().twords().collect();
    let config = query_config();
    let num_iwords = ((config.beta * config.qw_len as f64).round() as usize).min(config.qw_len);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7977_6f72_6473);
    let mut options = ExecOptions::with_variant(workload.algorithm.variant());
    options.expansion_budget = workload.budget;
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    for _ in 0..size * 4 {
        if pool.len() == size {
            break;
        }
        let endpoints = &instances[pool.len() % instances.len()];
        let mut keywords = Vec::with_capacity(config.qw_len);
        for slot in 0..config.qw_len {
            let words = if slot < num_iwords || twords.is_empty() {
                &iwords
            } else {
                &twords
            };
            let &word = words
                .choose(&mut rng)
                .ok_or("the venue has no keywords to draw")?;
            keywords.push(
                directory
                    .resolve(word)
                    .ok_or("vocabulary ids resolve")?
                    .to_string(),
            );
        }
        keywords.shuffle(&mut rng);
        if !seen.insert((pool.len() % instances.len(), keywords.clone())) {
            continue;
        }
        let instance = QueryInstance {
            keywords,
            ..endpoints.clone()
        };
        pool.push(SearchRequest {
            venue: venue_id.to_string(),
            query: to_query(&instance),
            options,
        });
    }
    if pool.len() < size {
        return Err(format!(
            "drew only {} distinct requests of {size}",
            pool.len()
        ));
    }
    Ok(pool)
}

/// Cumulative weights of a Zipf distribution over `n` ranks, for
/// [`ZipfSampler`].
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over ranks `0..n` with rank `r` weighted `1 / (r+1)^s`.
    pub fn new(n: usize, exponent: f64) -> ZipfSampler {
        let mut total = 0.0;
        let cumulative = (1..=n.max(1))
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(exponent);
                total
            })
            .collect();
        ZipfSampler { cumulative }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let target = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// The deterministic sequence of pool indices one connection sends.
#[derive(Debug, Clone)]
pub struct RequestStream {
    stream: Stream,
    pool: usize,
    connection: usize,
    connections: usize,
    sent: usize,
    rng: StdRng,
    zipf: Option<ZipfSampler>,
}

impl RequestStream {
    /// The stream of `connection` (of `connections`) over a pool of `pool`
    /// requests.
    pub fn new(
        stream: Stream,
        pool: usize,
        connection: usize,
        connections: usize,
        seed: u64,
    ) -> RequestStream {
        let zipf = match stream {
            Stream::Zipf { exponent } => Some(ZipfSampler::new(pool, exponent)),
            _ => None,
        };
        RequestStream {
            stream,
            pool,
            connection,
            connections,
            sent: 0,
            rng: StdRng::seed_from_u64(seed ^ (0xc0_11ec7 + connection as u64)),
            zipf,
        }
    }

    /// Requests drawn so far.
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// The next pool index, or `None` once a distinct stream has used up
    /// its share of the pool.
    pub fn next_index(&mut self) -> Option<usize> {
        let index = match self.stream {
            Stream::Distinct => {
                let index = self.sent * self.connections + self.connection;
                if index >= self.pool {
                    return None;
                }
                index
            }
            Stream::Uniform => self.rng.gen_range(0..self.pool),
            Stream::Zipf { .. } => self
                .zipf
                .as_ref()
                .expect("zipf streams carry a sampler")
                .sample(&mut self.rng),
        };
        self.sent += 1;
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(stream: Stream, pool: usize, connection: usize, seed: u64) -> Vec<usize> {
        let mut s = RequestStream::new(stream, pool, connection, 2, seed);
        (0..500).filter_map(|_| s.next_index()).collect()
    }

    #[test]
    fn zipf_pool_sampler_is_deterministic_and_skewed() {
        let zipf = Stream::Zipf { exponent: 0.8 };
        assert_eq!(draws(zipf, 6144, 0, 7), draws(zipf, 6144, 0, 7));
        assert_ne!(draws(zipf, 6144, 0, 7), draws(zipf, 6144, 0, 8));
        assert_ne!(draws(zipf, 6144, 0, 7), draws(zipf, 6144, 1, 7));
        let sampler = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 4 * counts[50], "rank 0 dominates: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0 || counts[0] > 0));
    }

    #[test]
    fn distinct_streams_never_repeat_and_stop_at_the_pool() {
        let a = draws(Stream::Distinct, 9, 0, 1);
        let b = draws(Stream::Distinct, 9, 1, 1);
        assert_eq!(a, vec![0, 2, 4, 6, 8]);
        assert_eq!(b, vec![1, 3, 5, 7]);
    }

    /// The venue file's bytes and the request bodies the connections send,
    /// for a small venue.
    fn inputs(dir: &Path, file: &str, seed: u64, threads: usize) -> (Vec<u8>, Vec<String>) {
        let path = dir.join(file);
        ikrq_cli::run_args(generate_args(1_000, seed, &path)).expect("generation succeeds");
        let bytes = std::fs::read(&path).unwrap();
        let loaded = indoor_persist::binary::load_venue_model_file(&path).unwrap();
        let id = loaded.name.clone().unwrap();
        let venue = Venue {
            space: loaded.space,
            directory: loaded.directory,
            rooms: Vec::new(),
        };
        let w = workload("reload-mix").unwrap();
        let instances = generate_instances(&venue, 6, seed, threads).unwrap();
        let pool = request_pool(&venue, &instances, 40, w, &id, seed).unwrap();
        let bodies = (0..2)
            .flat_map(|c| {
                let mut stream = RequestStream::new(w.stream, pool.len(), c, 2, seed);
                (0..30)
                    .map(|_| serde_json::to_string(&pool[stream.next_index().unwrap()]).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        (bytes, bodies)
    }

    #[test]
    fn the_same_seed_gives_identical_inputs_and_another_seed_different_ones() {
        let dir = std::env::temp_dir().join(format!("perfbench-seeds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (venue_a, requests_a) = inputs(&dir, "a.bin", 5, 1);
        let (venue_b, requests_b) = inputs(&dir, "b.bin", 5, 2);
        let (venue_c, requests_c) = inputs(&dir, "c.bin", 6, 2);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(venue_a == venue_b, "same seed, different venue bytes");
        assert_eq!(
            requests_a, requests_b,
            "same seed, different request stream"
        );
        assert!(venue_a != venue_c, "another seed, same venue bytes");
        assert_ne!(requests_a, requests_c, "another seed, same request stream");
    }

    #[test]
    fn request_pools_are_distinct_and_carry_the_workload_options() {
        let dir = std::env::temp_dir().join(format!("perfbench-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.bin");
        ikrq_cli::run_args(generate_args(1_000, 9, &path)).unwrap();
        let loaded = indoor_persist::binary::load_venue_model_file(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let venue = Venue {
            space: loaded.space,
            directory: loaded.directory,
            rooms: Vec::new(),
        };
        let w = workload("toe-100k").unwrap();
        let instances = generate_instances(&venue, 4, 9, 2).unwrap();
        let pool = request_pool(&venue, &instances, 64, w, "v", 9).unwrap();
        let bodies: HashSet<String> = pool
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(bodies.len(), 64);
        assert!(pool.iter().all(|r| r.options.expansion_budget == w.budget
            && r.query.k == 3
            && r.query.num_keywords() == 3));
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(workload("nope").is_none());
    }
}
