//! The measured phases: set-up, the closed local loop, and the open
//! wire loop with its rate ladder.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use staircase_server::protocol::code;
use staircase_server::{
    Client, ClientError, QueryOptions, QueryReply, Server, ServerConfig, ServerHandle,
};
use staircase_xpath::{Query, Session};

use crate::trace::{span, Tracer};
use crate::util::{ms_since, nproc, percentile, sorted, Fingerprint};
use crate::workloads::{Inputs, Source};

/// The latency limit the rate ladder holds `wire_p95_ms` to.
pub const WIRE_P95_LIMIT_MS: f64 = 100.0;
/// The fixed base rate, then the ladder.
pub const LADDER_QPS: [f64; 4] = [25.0, 100.0, 400.0, 1600.0];
/// A ladder step whose generator falls this far behind is abandoned.
const ABANDON_LAG_MS: f64 = 2000.0;

/// Loaded documents, warmed, each served by its own server.
pub struct Ready {
    pub sessions: Vec<Arc<Session>>,
    pub servers: Vec<ServerHandle>,
}

impl Ready {
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::local_addr).collect()
    }

    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown_and_join();
        }
    }
}

/// Input bytes in memory to ready: load, one warm-up pass over the
/// distinct queries, server start.
pub fn setup(inputs: &Inputs, tracer: Option<&Tracer>) -> Ready {
    let sessions: Vec<Arc<Session>> = inputs
        .sources
        .iter()
        .map(|src| {
            let session = match src {
                Source::Xml(xml) => span(tracer, "xpath.parse_xml", 0, || Session::parse_xml(xml)),
                Source::Encoded(bytes) => span(tracer, "xpath.from_encoded_bytes", 0, || {
                    Session::from_encoded_bytes(bytes)
                }),
            };
            Arc::new(
                session
                    .expect("generated input loads")
                    .with_threads(inputs.width),
            )
        })
        .collect();
    span(tracer, "xpath.warmup", 0, || {
        for q in &inputs.queries {
            let prepared = sessions[q.doc]
                .prepare(&q.text)
                .expect("benchmark query parses");
            black_box(prepared.run(inputs.engine).len());
        }
    });
    let servers = sessions
        .iter()
        .map(|s| {
            span(tracer, "server.start", 0, || {
                Server::start(Arc::clone(s), ServerConfig::default()).expect("server binds")
            })
        })
        .collect();
    Ready { sessions, servers }
}

/// Prepares every distinct query on its session.
pub fn prepare_all<'s>(inputs: &Inputs, sessions: &'s [Arc<Session>]) -> Vec<Query<'s>> {
    inputs
        .queries
        .iter()
        .map(|q| {
            sessions[q.doc]
                .prepare(&q.text)
                .expect("benchmark query parses")
        })
        .collect()
}

#[derive(Default)]
pub struct Closed {
    pub lat_ms: Vec<f64>,
    /// Latencies per distinct query.
    pub per_query: Vec<Vec<f64>>,
    pub attempted: u64,
    pub wrong: u64,
}

impl Closed {
    /// Adds another loop's samples to this one's.
    pub fn absorb(&mut self, other: Closed) {
        self.lat_ms.extend(other.lat_ms);
        self.per_query.resize(other.per_query.len(), Vec::new());
        for (mine, theirs) in self.per_query.iter_mut().zip(other.per_query) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.wrong += other.wrong;
    }

    /// Queries completed per second of the caller's busy time.
    pub fn queries_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / (self.lat_ms.iter().sum::<f64>() / 1e3)
    }
}

/// One caller, next query after the previous completes, for `seconds`.
/// Each result is checked against the reference outside its timing.
pub fn closed_loop(
    inputs: &Inputs,
    sessions: &[Arc<Session>],
    prepared: &[Query<'_>],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Closed {
    let mut out = Closed {
        per_query: vec![Vec::new(); inputs.queries.len()],
        ..Closed::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let qi = inputs.passes[i % inputs.passes.len()];
        let q = &inputs.queries[qi];
        let req = i as u64;
        let t0 = Instant::now();
        let result = if !inputs.served {
            span(tracer, "xpath.run", req, || prepared[qi].run(inputs.engine))
        } else {
            let fresh = span(tracer, "xpath.prepare", req, || {
                sessions[q.doc].prepare(&q.text)
            })
            .expect("benchmark query parses");
            span(tracer, "xpath.run", req, || fresh.run(inputs.engine))
        };
        let ms = ms_since(t0);
        out.attempted += 1;
        if Fingerprint::of(result.iter()) == q.reference {
            out.lat_ms.push(ms);
            out.per_query[qi].push(ms);
        } else {
            out.wrong += 1;
        }
        i += 1;
    }
    out
}

fn wire_options(inputs: &Inputs) -> QueryOptions {
    QueryOptions {
        engine: inputs.wire_engine.to_string(),
        render: false,
        count_only: !inputs.served,
        deadline_ms: None,
    }
}

/// A wire reply against the reference: ids when they were streamed,
/// else the count.
fn reply_matches(inputs: &Inputs, qi: usize, reply: &QueryReply) -> bool {
    let reference = inputs.queries[qi].reference;
    if inputs.served {
        Fingerprint::of(reply.ids.iter().copied()) == reference
    } else {
        reply.total as usize == reference.count
    }
}

/// Sends every distinct query once with its ids streamed, outside any
/// timing, and checks the ids: the timed loops of an unserved workload
/// ask for counts only, which catch a wrong count but not wrong nodes.
/// Returns `(attempted, wrong)`.
pub fn check_wire_ids(inputs: &Inputs, addrs: &[SocketAddr]) -> (u64, u64) {
    let mut clients: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a).expect("benchmark client connects"))
        .collect();
    let opts = QueryOptions {
        count_only: false,
        ..wire_options(inputs)
    };
    let mut wrong = 0;
    for q in &inputs.queries {
        match clients[q.doc].query(&q.text, &opts) {
            Ok(r) if Fingerprint::of(r.ids.iter().copied()) == q.reference => {}
            Ok(_) => wrong += 1,
            Err(e) => {
                eprintln!("wire request failed: {e}");
                wrong += 1;
            }
        }
    }
    (inputs.queries.len() as u64, wrong)
}

/// The served workload's closed loop: one wire client, next request
/// after the previous reply, for `seconds`.
pub fn closed_wire_loop(inputs: &Inputs, addrs: &[SocketAddr], seconds: f64) -> Closed {
    let mut clients: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a).expect("benchmark client connects"))
        .collect();
    let opts = wire_options(inputs);
    let mut out = Closed {
        per_query: vec![Vec::new(); inputs.queries.len()],
        ..Closed::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let qi = inputs.passes[i % inputs.passes.len()];
        let q = &inputs.queries[qi];
        let t0 = Instant::now();
        let reply = clients[q.doc].query(&q.text, &opts);
        let ms = ms_since(t0);
        out.attempted += 1;
        match reply {
            Ok(r) if reply_matches(inputs, qi, &r) => {
                out.lat_ms.push(ms);
                out.per_query[qi].push(ms);
            }
            Ok(_) => out.wrong += 1,
            Err(e) => {
                eprintln!("wire request failed: {e}");
                out.wrong += 1;
            }
        }
        i += 1;
    }
    out
}

/// What one open-loop drive observed.
#[derive(Default)]
pub struct Drive {
    pub rate: f64,
    /// `(query index, latency from the scheduled send)` per correctly
    /// answered request.
    pub answered: Vec<(usize, f64)>,
    /// `(schedule index, query index, ms sent late)` per request sent,
    /// in schedule order.
    pub sent: Vec<(usize, usize, f64)>,
    pub attempted: u64,
    pub wrong: u64,
    pub busy: u64,
    pub errors: u64,
    pub abandoned: bool,
    pub elapsed_s: f64,
}

impl Drive {
    pub fn failed(&self) -> u64 {
        self.wrong + self.busy + self.errors
    }

    pub fn p(&self, pct: f64) -> f64 {
        percentile(
            &sorted(self.answered.iter().map(|&(_, ms)| ms).collect()),
            pct,
        )
    }

    pub fn achieved_qps(&self) -> f64 {
        self.answered.len() as f64 / self.elapsed_s
    }

    /// Worst send lag over the last quarter of the schedule: a backlog
    /// that is still growing at the end shows here.
    pub fn tail_lag_ms(&self) -> f64 {
        let from = self.sent.len() * 3 / 4;
        self.sent[from..].iter().map(|s| s.2).fold(0.0, f64::max)
    }

    /// Holds the latency limit with no failures and no growing lag.
    pub fn meets_limit(&self) -> bool {
        !self.abandoned
            && self.failed() == 0
            && !self.answered.is_empty()
            && self.p(95.0) <= WIRE_P95_LIMIT_MS
            && self.tail_lag_ms() <= WIRE_P95_LIMIT_MS
    }
}

/// Open loop: requests due at `start + i/rate` for `seconds`, sent by
/// `nproc` connections (whichever is free takes the next due request),
/// each timed from when it was due.
pub fn open_loop(
    inputs: &Inputs,
    addrs: &[SocketAddr],
    rate: f64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Drive {
    let total = (rate * seconds).round().max(1.0) as usize;
    let next = AtomicUsize::new(0);
    let abandon = AtomicBool::new(false);
    let opts = wire_options(inputs);
    let started = Instant::now();
    let per_worker: Vec<Drive> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut clients: Vec<Client> = addrs
                        .iter()
                        .map(|a| Client::connect(a).expect("benchmark client connects"))
                        .collect();
                    let mut mine = Drive::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total || abandon.load(Ordering::Relaxed) {
                            break;
                        }
                        let due = started + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag = ms_since(due);
                        if lag > ABANDON_LAG_MS {
                            abandon.store(true, Ordering::Relaxed);
                        }
                        let qi = inputs.stream[i % inputs.stream.len()];
                        let q = &inputs.queries[qi];
                        mine.sent.push((i, qi, lag));
                        mine.attempted += 1;
                        let reply = span(tracer, "server.request", i as u64, || {
                            clients[q.doc].query(&q.text, &opts)
                        });
                        let ms = ms_since(due);
                        match reply {
                            Ok(r) => {
                                if reply_matches(inputs, qi, &r) {
                                    mine.answered.push((qi, ms));
                                } else {
                                    mine.wrong += 1;
                                }
                            }
                            Err(ClientError::Server { code: c, .. }) if c == code::BUSY => {
                                mine.busy += 1;
                            }
                            Err(e) => {
                                eprintln!("wire request failed: {e}");
                                mine.errors += 1;
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker"))
            .collect()
    });
    let mut drive = Drive {
        rate,
        elapsed_s: started.elapsed().as_secs_f64(),
        abandoned: abandon.load(Ordering::Relaxed),
        ..Drive::default()
    };
    for w in per_worker {
        drive.answered.extend(w.answered);
        drive.sent.extend(w.sent);
        drive.attempted += w.attempted;
        drive.wrong += w.wrong;
        drive.busy += w.busy;
        drive.errors += w.errors;
    }
    drive.sent.sort_unstable_by_key(|s| s.0);
    drive
}

/// Reads one counter from a server's `STATS` frame.
pub fn server_stat(addr: SocketAddr, key: &str) -> u64 {
    let stats = Client::connect(addr)
        .and_then(|mut c| c.server_stats().map_err(std::io::Error::other))
        .expect("STATS frame");
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}
