//! Venue-size scaling sweep: builds mega venues, hosts each under both index
//! modes, and reports throughput, candidate-set fraction, index build time
//! and memory. See `ikrq_bench::scale` for what each column means.
//!
//! ```text
//! scale [--sizes 100,1000,10000] [--queries 20] [--seed 42] [--csv] [--persist]
//! ```
//!
//! `--persist` additionally enforces the serving criteria on every point
//! of at least 10⁴ partitions: adopting the persisted index must be at
//! least 5× faster than building it fresh, and adopting the model section
//! (decode + adopt) must be at least 5× faster than rebuilding the model
//! from the JSON document. Every run fails if the loaded engine's
//! responses are not byte-identical to the scan engine's.

use ikrq_bench::scale::{markdown_table, run_scale_sweep, ScaleSweepConfig};

fn main() {
    let mut config = ScaleSweepConfig::default();
    let mut csv = false;
    let mut persist = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--sizes needs a value"));
                config.sizes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad size {s:?}")))
                    })
                    .collect();
            }
            "--queries" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--queries needs a value"));
                config.queries_per_size = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad query count {value:?}")));
            }
            "--seed" => {
                let value = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                config.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")));
            }
            "--csv" => csv = true,
            "--persist" => persist = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if config.sizes.is_empty() || config.queries_per_size == 0 {
        usage("sizes and queries must be non-empty");
    }

    eprintln!(
        "scaling sweep: sizes {:?}, {} queries per size, seed {}",
        config.sizes, config.queries_per_size, config.seed
    );
    let points = run_scale_sweep(&config);
    if csv {
        println!(
            "partitions,doors,generate_ms,space_build_ms,index_build_ms,save_ms,load_ms,\
             index_load_ms,doc_decode_ms,model_adopt_ms,doc_rebuild_ms,\
             index_bytes,scan_qps,accelerated_qps,\
             candidate_fraction,scan_peak_bytes,accelerated_peak_bytes,\
             koe_star_rows,koe_star_total_rows,peak_rss_kib,identical,loaded_identical,\
             columnar_adopted"
        );
        for p in &points {
            println!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.2},{:.2},{:.6},{},{},{},{},{},{},{},{}",
                p.partitions,
                p.doors,
                p.generate_ms,
                p.space_build_ms,
                p.index_build_ms,
                p.save_ms,
                p.load_ms,
                p.index_load_ms,
                p.doc_decode_ms,
                p.model_adopt_ms,
                p.doc_rebuild_ms,
                p.index_bytes,
                p.scan_qps,
                p.accelerated_qps,
                p.candidate_fraction,
                p.scan_peak_memory,
                p.accelerated_peak_memory,
                p.koe_star_rows,
                p.koe_star_total_rows,
                p.peak_rss_kib,
                p.identical_responses,
                p.loaded_identical,
                p.columnar_adopted,
            );
        }
    } else {
        print!("{}", markdown_table(&points));
    }
    if points.iter().any(|p| !p.identical_responses) {
        eprintln!("ERROR: index and scan responses diverged");
        std::process::exit(1);
    }
    if points.iter().any(|p| !p.loaded_identical) {
        eprintln!("ERROR: binary-loaded and scan responses diverged");
        std::process::exit(1);
    }
    if persist {
        let mut failed = false;
        for p in points.iter().filter(|p| p.partitions >= 10_000) {
            let ratio = p.index_build_ms / p.index_load_ms.max(1e-9);
            eprintln!(
                "persist criterion at {} partitions: build {:.2} ms vs load {:.2} ms ({ratio:.1}x)",
                p.partitions, p.index_build_ms, p.index_load_ms
            );
            if p.index_build_ms < 5.0 * p.index_load_ms {
                eprintln!(
                    "ERROR: persisted-index load must be at least 5x faster than a fresh build"
                );
                failed = true;
            }
            let adopt_ms = p.doc_decode_ms + p.model_adopt_ms;
            let doc_ratio = p.doc_rebuild_ms / adopt_ms.max(1e-9);
            eprintln!(
                "document criterion at {} partitions: rebuild {:.2} ms vs adopt {:.2} ms ({doc_ratio:.1}x)",
                p.partitions, p.doc_rebuild_ms, adopt_ms
            );
            if !p.columnar_adopted {
                eprintln!("ERROR: a cold load did not adopt the model section");
                failed = true;
            }
            if p.doc_rebuild_ms < 5.0 * adopt_ms {
                eprintln!(
                    "ERROR: model-section adoption must be at least 5x faster than a document rebuild"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}\n");
    }
    eprintln!(
        "usage: scale [--sizes 100,1000,10000] [--queries 20] [--seed 42] [--csv] [--persist]\n\
         \n\
         Sweeps venue sizes, comparing the index-accelerated engine against\n\
         the linear-scan engine on identical mega-venue workloads. --persist\n\
         additionally enforces the >=5x persisted-index load speedup and the\n\
         >=5x model-section adoption speedup on points of at least 10^4\n\
         partitions."
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}
