//! The dqos-d workload: seeded clients churn Setup/Stamp/Teardown/Query
//! requests through the in-process `Loopback` into one `Daemon` on the
//! paper's 128-host fabric, with no transport faults and no kills.
//!
//! The loop has the shape of `dqosd::chaos::run_soak`, re-driven here so
//! that every client, transport and daemon call can sit in its own span.
//! Time is virtual; the clients are a closed loop (each waits for its
//! reply, then thinks), kept below the daemon's virtual service capacity.

use crate::host::{digest, DigestStore};
use crate::probes;
use crate::spans::SpanLog;
use crate::stats::{median, quantile};
use crate::yardstick::{self, Yardstick};
use crate::{Sample, Timed};
use dqos_sim_core::{Bandwidth, SimDuration, SimRng, SimTime};
use dqos_topology::HostId;
use dqosd::wire::NO_BUDGET;
use dqosd::{
    Client, Daemon, DaemonConfig, Endpoint, ErrCode, Event, FaultSpec, Loopback, LoopbackConfig,
    Op, Outgoing, Reply, ReqClass, Request, Response, RetryPolicy,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Size of one churn session.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    pub clients: u64,
    pub ops_per_client: u32,
}

const THINK_MAX_NS: u64 = 40_000;
const BUDGET_GUARANTEED_NS: u64 = 500_000;
const BUDGET_BEST_NS: u64 = 300_000;
const GUARANTEED_FRACTION: f64 = 0.6;

/// The daemon under test: the paper's fabric, default watermarks and a
/// snapshot every 64 journal records.
pub fn daemon_config() -> DaemonConfig {
    DaemonConfig::default()
}

fn loopback_config(seed: u64) -> LoopbackConfig {
    LoopbackConfig {
        latency: SimDuration::from_us(5),
        reorder_window: SimDuration::ZERO,
        faults: FaultSpec::NONE,
        seed,
    }
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout: SimDuration::from_us(300),
        backoff_base: SimDuration::from_us(50),
        backoff_cap: SimDuration::from_ms(2),
        max_retries: 8,
    }
}

struct Actor {
    client: Client,
    rng: SimRng,
    owned: Vec<u64>,
    ops_left: u32,
    wake: Option<SimTime>,
    tearing: Option<u64>,
    stamping: Option<u64>,
}

impl Actor {
    fn finished(&self) -> bool {
        self.ops_left == 0 && self.client.is_idle()
    }

    /// React to a client event: forget flows that went away, think, and
    /// hand retransmissions to the transport.
    fn handle(&mut self, ev: Event, now: SimTime, lb: &mut Loopback, log: &mut SpanLog) {
        match ev {
            Event::None => return,
            Event::Send(frame) => {
                log.span("dqosd.transport.send", |_| {
                    lb.send(now, Endpoint::Server, frame)
                });
                return;
            }
            Event::GaveUp { .. } => {}
            Event::Done(resp) => match &resp.result {
                Ok(Reply::Setup { flow, .. }) => self.owned.push(*flow),
                Ok(Reply::Teardown) | Err(ErrCode::UnknownFlow) => {
                    if let Some(f) = self.tearing.or(self.stamping) {
                        self.owned.retain(|&x| x != f);
                    }
                }
                _ => {}
            },
        }
        self.tearing = None;
        self.stamping = None;
        self.wake = Some(now + SimDuration::from_ns(self.rng.range_u64(0, THINK_MAX_NS)));
    }

    /// The next request: half setups (60% guaranteed), a quarter stamps,
    /// 15% teardowns, 10% queries.
    fn next_op(&mut self, n_hosts: u32) -> (Op, u64) {
        let roll = self.rng.range_u64(0, 99);
        if roll < 50 || self.owned.is_empty() {
            let class = if self.rng.chance(GUARANTEED_FRACTION) {
                ReqClass::Guaranteed
            } else {
                ReqClass::BestEffort
            };
            let src = self.rng.range_u64(0, n_hosts as u64 - 1) as u32;
            let dst = (src + 1 + self.rng.range_u64(0, n_hosts as u64 - 2) as u32) % n_hosts;
            let bw_bytes_per_sec = 12_500_000 * (1 + self.rng.range_u64(0, 3));
            let budget = if class == ReqClass::Guaranteed {
                BUDGET_GUARANTEED_NS
            } else {
                BUDGET_BEST_NS
            };
            return (
                Op::Setup {
                    class,
                    src,
                    dst,
                    bw_bytes_per_sec,
                },
                budget,
            );
        }
        let flow = self.owned[self.rng.index(self.owned.len())];
        if roll < 75 {
            self.stamping = Some(flow);
            let len = 256 + self.rng.range_u64(0, 1244) as u32;
            let parts = 1 + self.rng.range_u64(0, 3) as u32;
            (Op::Stamp { flow, len, parts }, BUDGET_GUARANTEED_NS)
        } else if roll < 90 {
            self.tearing = Some(flow);
            (Op::Teardown { flow }, BUDGET_GUARANTEED_NS)
        } else {
            (Op::Query, NO_BUDGET)
        }
    }
}

/// What one session did.
#[derive(Debug, Clone, Default)]
pub struct Session {
    pub begun: u64,
    pub done: u64,
    /// Requests given up, answered with a retryable error, or answered
    /// with a frame that did not decode.
    pub failed: u64,
    pub retries: u64,
    /// Virtual time the session spanned.
    pub virtual_ns: u64,
    pub control_digest: u64,
}

/// Run one session against `daemon`.
pub fn session(spec: ChurnSpec, seed: u64, daemon: &mut Daemon, log: &mut SpanLog) -> Session {
    let mut master = SimRng::new(seed);
    let mut lb = Loopback::new(loopback_config(seed));
    let n_hosts = daemon.config().topology.n_hosts();
    let mut actors: Vec<Actor> = (0..spec.clients)
        .map(|i| {
            let mut rng = master.fork(i + 1);
            let first = SimTime::ZERO + SimDuration::from_ns(rng.range_u64(0, THINK_MAX_NS));
            Actor {
                client: Client::new(i + 1, retry_policy(), seed ^ (i + 1)),
                rng,
                owned: Vec::new(),
                ops_left: spec.ops_per_client,
                wake: Some(first),
                tearing: None,
                stamping: None,
            }
        })
        .collect();
    let mut out: Vec<Outgoing> = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        let mut next = lb
            .next_deliver()
            .into_iter()
            .chain(daemon.next_wake())
            .min();
        for a in actors.iter().filter(|a| !a.finished()) {
            next = next
                .into_iter()
                .chain(a.client.deadline())
                .chain(a.wake)
                .min();
        }
        let Some(t) = next else { break };
        now = t;

        while let Some((at, to, frame)) = log.span("dqosd.transport.pop_due", |_| lb.pop_due(now)) {
            match to {
                Endpoint::Server => log.span("dqosd.server.ingest", |_| daemon.ingest(at, &frame)),
                Endpoint::Client(id) => {
                    let a = &mut actors[(id - 1) as usize];
                    let ev = log.span("dqosd.client.on_frame", |_| a.client.on_frame(at, &frame));
                    a.handle(ev, at, &mut lb, log);
                }
            }
        }
        log.span("dqosd.server.poll", |_| daemon.poll(now, &mut out));
        for o in out.drain(..) {
            log.span("dqosd.transport.send", |_| {
                lb.send(o.at, Endpoint::Client(o.client), o.frame)
            });
        }
        for a in actors.iter_mut() {
            if a.client.deadline().is_some_and(|d| d <= now) {
                let ev = log.span("dqosd.client.on_timer", |_| a.client.on_timer(now));
                a.handle(ev, now, &mut lb, log);
            }
        }
        for a in actors.iter_mut() {
            if a.client.is_idle() && a.ops_left > 0 && a.wake.is_some_and(|w| w <= now) {
                a.wake = None;
                a.ops_left -= 1;
                let (op, budget) = a.next_op(n_hosts);
                let frame = log.span("dqosd.client.begin", |_| a.client.begin(now, op, budget));
                let frame = frame.expect("an idle client accepts a request");
                log.span("dqosd.transport.send", |_| {
                    lb.send(now, Endpoint::Server, frame)
                });
            }
        }
    }
    assert!(
        actors.iter().all(Actor::finished),
        "the churn drained with requests outstanding"
    );
    let stat = |f: fn(&Client) -> u64| actors.iter().map(|a| f(&a.client)).sum::<u64>();
    Session {
        begun: stat(|c| c.stats.begun),
        done: stat(|c| c.stats.done),
        failed: stat(|c| c.stats.gave_up + c.stats.retryable_errors + c.stats.ignored_frames),
        retries: stat(|c| c.stats.retries),
        virtual_ns: now.0,
        control_digest: daemon.control_digest(),
    }
}

fn digest_key(name: &str, spec: ChurnSpec, seed: u64) -> String {
    let cfg = format!("{spec:?}{:?}{:?}", daemon_config(), loopback_config(seed));
    format!("{name}/{seed}/{:016x}", digest(cfg.as_bytes()))
}

/// Whether a session failed as a whole: its control digest is not the
/// reference. Every request of such a session counts as failed.
pub fn session_failures(s: &Session, reference: u64) -> u64 {
    if s.control_digest != reference {
        s.begun
    } else {
        s.failed
    }
}

/// Sessions per timed sample (about 0.1 s of host time).
const SESSIONS_PER_SAMPLE: usize = 8;
const MIN_SAMPLES: usize = 5;
/// `Daemon::new` calls timed back to back per sample. A single call
/// takes microseconds and mostly measures how cold the caches are after
/// the previous session; a batch measures the construction itself.
const SETUP_BATCH: u32 = 64;

/// Samples of `SESSIONS_PER_SAMPLE` sessions, each on a fresh daemon,
/// until `seconds` have passed. Each sample also times one batch of
/// `Daemon::new` calls for `setup_s`.
pub fn timed(
    name: &str,
    spec: ChurnSpec,
    seed: u64,
    seconds: f64,
    store: &mut DigestStore,
) -> Timed {
    let key = digest_key(name, spec, seed);
    let mut log = SpanLog::new(false);
    let mut t = Timed::default();
    let mut yard = Yardstick::new(1);
    let mut before = yard.ns_per_event();
    let start = Instant::now();
    while t.samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            black_box(Daemon::new(daemon_config()));
        }
        let setup_s = t0.elapsed().as_secs_f64() / f64::from(SETUP_BATCH);
        let mut sample = Sample::default();
        for _ in 0..SESSIONS_PER_SAMPLE {
            let mut daemon = Daemon::new(daemon_config());
            let t1 = Instant::now();
            let s = session(spec, seed, &mut daemon, &mut log);
            sample.host_s += t1.elapsed().as_secs_f64();
            sample.requests += s.done as f64;
            sample.sim_ms += s.virtual_ns as f64 / 1e6;
            let reference = store.reference(&key, s.control_digest);
            t.attempted += s.begun;
            t.failed += session_failures(&s, reference);
            t.digest = s.control_digest;
        }
        let after = yard.ns_per_event();
        sample.slowdown = yardstick::slowdown(before, after);
        before = after;
        t.setup_s.push(setup_s);
        t.setup_slowdown.push(sample.slowdown);
        t.samples.push(sample);
    }
    t
}

/// Everything the traced run measures about dqos-d's layers.
#[derive(Debug, Clone, Default)]
pub struct ChurnLayers {
    pub served: u64,
    pub shed_overload: u64,
    pub shed_budget: u64,
    pub retries: u64,
    pub journal_records: u64,
    pub snapshots: u64,
    pub journal_bytes: u64,
    pub ingest_ns: f64,
    pub poll_ns_p50: f64,
    pub poll_ns_p99: f64,
    pub snapshot_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub transport_ns_per_frame: f64,
    pub topology_build_s: f64,
    pub admit_ns: f64,
    pub release_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

/// A request/response mix like the churn's, for the wire probe.
fn wire_mix(seed: u64) -> (Vec<Request>, Vec<Response>) {
    let mut rng = SimRng::new(seed);
    let mut reqs = Vec::new();
    let mut resps = Vec::new();
    for id in 0..256u64 {
        let flow = rng.range_u64(0, 1000);
        let (op, result) = match id % 4 {
            0 => (
                Op::Setup {
                    class: ReqClass::Guaranteed,
                    src: 1,
                    dst: 77,
                    bw_bytes_per_sec: 25_000_000,
                },
                Ok(Reply::Setup {
                    flow,
                    choice: 3,
                    reserved: true,
                }),
            ),
            1 => (
                Op::Stamp {
                    flow,
                    len: 1200,
                    parts: 2,
                },
                Ok(Reply::Stamp {
                    deadline_ns: rng.next_u64() >> 20,
                    eligible_ns: None,
                }),
            ),
            2 => (Op::Teardown { flow }, Ok(Reply::Teardown)),
            _ => (
                Op::Setup {
                    class: ReqClass::BestEffort,
                    src: 9,
                    dst: 2,
                    bw_bytes_per_sec: 1,
                },
                Err(ErrCode::NoCapacity),
            ),
        };
        reqs.push(Request {
            client: 1 + id % 8,
            id,
            budget_ns: BUDGET_GUARANTEED_NS,
            op,
        });
        resps.push(Response { id, result });
    }
    (reqs, resps)
}

/// The traced run of dqos-d: one session with a span on every call,
/// snapshot timing at the final flow count, and the wire, transport and
/// admission probes.
pub fn traced(
    name: &str,
    spec: ChurnSpec,
    seed: u64,
    probe_budget: Duration,
    store: &mut DigestStore,
    log: &mut SpanLog,
) -> ChurnLayers {
    let mut l = ChurnLayers::default();
    let cfg = daemon_config();
    let mut daemon = log.span("dqosd.daemon.new", |_| Daemon::new(cfg.clone()));
    let s = log.span("bench.churn_session", |log| {
        session(spec, seed, &mut daemon, log)
    });
    let reference = store.reference(&digest_key(name, spec, seed), s.control_digest);
    l.attempted = s.begun;
    l.failed = session_failures(&s, reference);
    l.digest = s.control_digest;
    l.retries = s.retries;
    let m = daemon.metrics();
    (l.served, l.shed_overload, l.shed_budget) = (m.served, m.shed_overload, m.shed_budget);
    (l.journal_records, l.snapshots) = (m.journal_records, m.snapshots);
    l.journal_bytes = daemon.store().journal.len() as u64;
    l.ingest_ns = median(&log.durations_ns("dqosd.server.ingest"));
    let polls = log.durations_ns("dqosd.server.poll");
    l.poll_ns_p50 = quantile(&polls, 0.5);
    l.poll_ns_p99 = quantile(&polls, 0.99);
    l.snapshot_ns = log.span("dqosd.daemon.take_snapshot", |_| {
        probes::median_secs(9, || daemon.take_snapshot()) * 1e9
    });

    let (reqs, resps) = wire_mix(seed);
    let frames: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
    let resp_frames: Vec<Vec<u8>> = resps.iter().map(Response::encode).collect();
    l.encode_ns = log.span("probe.dqosd.wire.encode", |_| {
        probes::per_unit(probe_budget, || {
            for (q, r) in reqs.iter().zip(&resps) {
                black_box(q.encode());
                black_box(r.encode());
            }
            2 * reqs.len() as u64
        })
    });
    l.decode_ns = log.span("probe.dqosd.wire.decode", |_| {
        probes::per_unit(probe_budget, || {
            for (q, r) in frames.iter().zip(&resp_frames) {
                black_box(Request::decode(q).expect("probe frame decodes"));
                black_box(Response::decode(r).expect("probe frame decodes"));
            }
            2 * frames.len() as u64
        })
    });
    l.transport_ns_per_frame = log.span("probe.dqosd.transport", |_| {
        let mut lb = Loopback::new(loopback_config(seed));
        let mut frame = frames[0].clone();
        let mut now = SimTime::ZERO;
        probes::per_unit(probe_budget, || {
            for _ in 0..1024 {
                lb.send(now, Endpoint::Server, std::mem::take(&mut frame));
                now = lb.next_deliver().expect("a frame is in flight");
                frame = lb.pop_due(now).expect("the frame is due").2;
            }
            1024
        })
    });

    let (net, build_s) = log.span("topology.build", |_| probes::topology_build(cfg.topology));
    l.topology_build_s = build_s;
    let mut rng = SimRng::new(seed);
    let n = net.n_hosts() as u64;
    let requests: Vec<_> = (0..s.begun / 2)
        .map(|_| {
            let src = rng.range_u64(0, n - 1);
            let dst = (src + 1 + rng.range_u64(0, n - 2)) % n;
            let bw = Bandwidth::bytes_per_sec(12_500_000 * (1 + rng.range_u64(0, 3)));
            (HostId(src as u32), HostId(dst as u32), bw)
        })
        .collect();
    let adm = log.span("probe.core.admission", |_| {
        probes::admission(&net, cfg.link_bw, &requests, probe_budget)
    });
    (l.admit_ns, l.release_ns) = (adm.ns_per_admit, adm.ns_per_release);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: ChurnSpec = ChurnSpec {
        clients: 3,
        ops_per_client: 40,
    };

    #[test]
    fn sessions_are_deterministic_and_fail_nothing() {
        let mut log = SpanLog::new(false);
        let a = session(SMALL, 5, &mut Daemon::new(daemon_config()), &mut log);
        let b = session(SMALL, 5, &mut Daemon::new(daemon_config()), &mut log);
        assert_eq!((a.begun, a.done, a.failed), (120, 120, 0));
        assert_eq!(a.control_digest, b.control_digest);
        assert_eq!(a.virtual_ns, b.virtual_ns);
    }

    #[test]
    fn a_digest_mismatch_fails_every_request_of_the_session() {
        let s = Session {
            begun: 50,
            failed: 2,
            control_digest: 9,
            ..Session::default()
        };
        assert_eq!(session_failures(&s, 9), 2);
        assert_eq!(session_failures(&s, 10), 50);
    }

    #[test]
    fn traced_session_spans_every_call() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-churn-{}", std::process::id()));
        let mut store = DigestStore::open(dir.join("digests.txt"));
        let mut log = SpanLog::new(true);
        let l = traced(
            "t",
            SMALL,
            5,
            Duration::from_millis(2),
            &mut store,
            &mut log,
        );
        assert_eq!((l.attempted, l.failed), (120, 0));
        assert!(l.served >= 120 && l.journal_records > 0);
        assert_eq!(log.durations_ns("dqosd.client.begin").len(), 120);
        assert!(l.ingest_ns > 0.0 && l.poll_ns_p99 >= l.poll_ns_p50);
        let _ = std::fs::remove_dir_all(dir);
    }
}
