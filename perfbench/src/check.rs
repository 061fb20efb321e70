//! The correctness oracle: every checked answer must match, byte for byte in
//! its deterministic part, what an in-process `IndexMode::Scan` engine (the
//! executable spec) answers for the same request on the same venue file.

use crate::drive::Answers;
use ikrq_core::{IkrqEngine, IkrqService, IndexMode, SearchRequest, SearchResponse};
use indoor_persist::binary;
use std::path::Path;
use std::sync::Arc;

/// Outcome of checking a set of answers.
#[derive(Debug, Default, Clone)]
pub struct CheckReport {
    /// Distinct requests compared against the oracle.
    pub requests_checked: usize,
    /// Distinct answer bodies compared.
    pub bodies_checked: usize,
    /// Operations whose answer was compared (a body counts once per
    /// operation that received it).
    pub ops_checked: u64,
    /// Operations that received a wrong answer.
    pub ops_wrong: u64,
    /// A description of the first mismatch, if any.
    pub first_mismatch: Option<String>,
}

/// Checks the answers of the requests in `indices` against a scan engine
/// built from `venue_path`, on `threads` threads.
pub fn check_answers(
    venue_path: &Path,
    venue_id: &str,
    requests: &[SearchRequest],
    answers: &Answers,
    indices: &[usize],
    threads: usize,
) -> Result<CheckReport, String> {
    let loaded = binary::load_venue_model_file(venue_path)
        .map_err(|e| format!("oracle cannot load the venue: {e}"))?;
    let engine = IkrqEngine::with_index_mode(loaded.space, loaded.directory, IndexMode::Scan);
    let service = IkrqService::new();
    service
        .register_engine(venue_id, Arc::new(engine))
        .map_err(|e| format!("oracle cannot host the venue: {e}"))?;
    let chunks: Vec<&[usize]> = indices
        .chunks(indices.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let partials: Vec<CheckReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let service = &service;
                scope.spawn(move || check_chunk(service, requests, answers, chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut report = CheckReport::default();
    for part in partials {
        report.requests_checked += part.requests_checked;
        report.bodies_checked += part.bodies_checked;
        report.ops_checked += part.ops_checked;
        report.ops_wrong += part.ops_wrong;
        if report.first_mismatch.is_none() {
            report.first_mismatch = part.first_mismatch;
        }
    }
    Ok(report)
}

fn check_chunk(
    service: &IkrqService,
    requests: &[SearchRequest],
    answers: &Answers,
    indices: &[usize],
) -> CheckReport {
    let mut report = CheckReport::default();
    for &index in indices {
        let Some(bodies) = answers.get(&index) else {
            continue;
        };
        report.requests_checked += 1;
        let expected = match service.search(&requests[index]) {
            Ok(response) => response.deterministic_json(),
            Err(e) => format!("oracle error: {e}"),
        };
        for (body, count) in bodies {
            report.bodies_checked += 1;
            report.ops_checked += count;
            let served = serde_json::from_str::<SearchResponse>(body)
                .map(|r| r.deterministic_json())
                .unwrap_or_else(|e| format!("undecodable answer: {e}"));
            if served != expected {
                report.ops_wrong += count;
                report.first_mismatch.get_or_insert_with(|| {
                    format!(
                        "request #{index}: served {served} but the scan engine answers {expected}"
                    )
                });
            }
        }
    }
    report
}
