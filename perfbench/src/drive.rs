//! The closed-loop load generator: each connection is a route-planning
//! client that sends its next request only after the previous answer
//! arrived, over one keep-alive connection.

use crate::workload::RequestStream;
use ikrq_server::KeepAliveClient;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One phase of the load: how long it runs and what it sends.
#[derive(Debug, Clone)]
pub struct Plan {
    /// How long the phase runs.
    pub duration: Duration,
    /// Whether this is the warm-up before the measured window.
    pub warmup: bool,
    /// Connection 0 reloads the venue after every this many of its searches.
    pub reload_every: Option<usize>,
    /// Body of `POST /v1/admin/reload`.
    pub reload_body: String,
    /// In a traced run, the window alternates untraced and traced slices
    /// of this length, so both see the same server state.
    pub trace_slice: Option<Duration>,
}

/// A route-planning client: one keep-alive connection and the request
/// stream it sends, kept across phases so the window starts on a warm
/// connection.
#[derive(Debug)]
pub struct Client {
    connection: KeepAliveClient,
    stream: RequestStream,
    reloaded_at: usize,
}

impl Client {
    /// A client of the server at `addr` sending `stream`.
    pub fn new(addr: SocketAddr, stream: RequestStream, timeout: Duration) -> Client {
        Client {
            connection: KeepAliveClient::new(addr).with_timeout(timeout),
            stream,
            reloaded_at: 0,
        }
    }
}

/// Which phase an operation ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the window.
    Warmup,
    /// In an untraced slice of the window.
    Window,
    /// In a traced slice of the window.
    Traced,
}

/// The kind of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `POST /v1/search` of the pool request with this index.
    Search(usize),
    /// `POST /v1/admin/reload`.
    Reload,
}

/// One operation as the client saw it.
#[derive(Debug, Clone)]
pub struct Op {
    /// What was sent.
    pub kind: OpKind,
    /// When the phase was decided (at send time).
    pub phase: Phase,
    /// When the client began the operation (before picking the request).
    pub begin: Instant,
    /// Send time.
    pub start: Instant,
    /// Time the full answer had arrived (or the exchange failed).
    pub end: Instant,
    /// HTTP status, `None` on an I/O error or timeout.
    pub status: Option<u16>,
    /// When the client had finished recording the answer.
    pub finish: Instant,
    /// Whether the answer carried `x-ikrq-cache: hit`.
    pub hit: bool,
}

impl Op {
    /// Whether the server answered 2xx.
    pub fn ok(&self) -> bool {
        self.status.is_some_and(|s| (200..300).contains(&s))
    }

    /// Round trip in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The distinct answer bodies seen for one request, each with how many
/// operations received it. Cache hits replay bytes, so most repeats fold
/// into an existing entry by a byte comparison.
pub type Answers = HashMap<usize, Vec<(String, u64)>>;

/// What one connection recorded.
#[derive(Debug, Default)]
pub struct ConnectionLog {
    /// Every search and reload, in order.
    pub ops: Vec<Op>,
    /// Answer bodies of successful searches, by pool index.
    pub answers: Answers,
    /// `/v1/stats` bodies taken just before each reload of a traced window.
    pub stats_before_reload: Vec<String>,
    /// Whether a distinct stream ran out of requests before the window
    /// ended.
    pub exhausted: bool,
}

/// Runs one phase over every client at once, starting at `start`.
pub fn drive(
    bodies: &[String],
    clients: &mut [Client],
    plan: &Plan,
    start: Instant,
) -> Vec<ConnectionLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                scope.spawn(move || run_connection(bodies, client, plan, start, index == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    })
}

fn run_connection(
    bodies: &[String],
    client: &mut Client,
    plan: &Plan,
    start: Instant,
    reloads: bool,
) -> ConnectionLog {
    let mut log = ConnectionLog::default();
    let end = start + plan.duration;
    loop {
        let begin = Instant::now();
        if begin >= end {
            break;
        }
        let phase = match plan.trace_slice {
            _ if plan.warmup => Phase::Warmup,
            Some(slice) if ((begin - start).as_nanos() / slice.as_nanos().max(1)) % 2 == 1 => {
                Phase::Traced
            }
            _ => Phase::Window,
        };
        let sent = client.stream.sent();
        let reload_due = reloads
            && sent > client.reloaded_at
            && plan
                .reload_every
                .is_some_and(|every| sent.is_multiple_of(every));
        if reload_due {
            client.reloaded_at = sent;
            if plan.trace_slice.is_some() {
                if let Ok(reply) = client.connection.request("GET", "/v1/stats", "") {
                    log.stats_before_reload.push(reply.body);
                }
            }
            let start = Instant::now();
            let reply = client
                .connection
                .request("POST", "/v1/admin/reload", &plan.reload_body);
            let end = Instant::now();
            log.ops.push(Op {
                kind: OpKind::Reload,
                phase,
                begin,
                start,
                end,
                status: reply.as_ref().ok().map(|r| r.status),
                finish: end,
                hit: false,
            });
            continue;
        }
        let Some(index) = client.stream.next_index() else {
            log.exhausted = true;
            break;
        };
        let start = Instant::now();
        let reply = client
            .connection
            .request("POST", "/v1/search", &bodies[index]);
        let end = Instant::now();
        let mut op = Op {
            kind: OpKind::Search(index),
            phase,
            begin,
            start,
            end,
            status: None,
            finish: end,
            hit: false,
        };
        if let Ok(reply) = reply {
            op.status = Some(reply.status);
            op.hit = reply.header("x-ikrq-cache") == Some("hit");
            if op.ok() {
                let seen = log.answers.entry(index).or_default();
                match seen.iter_mut().find(|(body, _)| *body == reply.body) {
                    Some((_, count)) => *count += 1,
                    None => seen.push((reply.body, 1)),
                }
            }
        }
        op.finish = Instant::now();
        log.ops.push(op);
    }
    log
}
