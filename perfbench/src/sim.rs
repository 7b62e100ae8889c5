//! The simulator workloads: timed runs of `Network::run` and the traced
//! run that measures the simulator's layers.

use crate::host::{digest, DigestStore};
use crate::probes;
use crate::spans::SpanLog;
use crate::yardstick::{self, Yardstick};
use crate::{Sample, Timed};
use dqos_core::{Architecture, DeadlineMode};
use dqos_netsim::{
    config::VideoDeadlines, presets, FlowTable, Network, RunSummary, SimConfig, SimError,
};
use dqos_sim_core::{Bandwidth, SimDuration, SimRng};
use dqos_stats::Report;
use dqos_topology::{ClosParams, HostId, SwitchId};
use dqos_trace::{EventKind, TraceSettings};
use dqos_traffic::build_host_sources;
use std::time::{Duration, Instant};

/// One simulator workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub hosts: u16,
    pub arch: Architecture,
    /// Offered load as a share of link capacity (Table-1 mix).
    pub load: f64,
    /// Simulated traffic window, µs; the run then drains.
    pub window_us: u64,
    pub workers: usize,
}

impl SimSpec {
    /// The generated config: the paper's switch, buffer and traffic
    /// parameters on `hosts` endpoints, traffic from time zero for
    /// `window_us`, statistics over the same window.
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper(self.arch, self.load);
        if self.hosts != 128 {
            cfg.topology = ClosParams::scaled(self.hosts);
        }
        let mut cfg = presets::window_us(cfg, 0, self.window_us);
        cfg.seed = seed;
        cfg.workers = self.workers;
        cfg
    }

    fn window_ms(&self) -> f64 {
        self.window_us as f64 / 1e3
    }
}

/// The key a config's reference digest is stored under.
fn digest_key(name: &str, cfg: &SimConfig) -> String {
    format!(
        "{name}/{}/{:016x}",
        cfg.seed,
        digest(format!("{cfg:?}").as_bytes())
    )
}

/// 64-bit digest of a report's JSON, without the flight-recorder
/// section (the only part tracing adds).
pub fn report_digest(report: &Report) -> u64 {
    let mut r = report.clone();
    r.trace = None;
    digest(r.to_json().as_bytes())
}

/// Whether one simulator run failed: its summary check failed, it
/// delivered out of order, or its report digest is not the reference.
pub fn run_fails(
    check: &Result<(), SimError>,
    out_of_order: u64,
    digest: u64,
    reference: u64,
) -> bool {
    check.is_err() || out_of_order > 0 || digest != reference
}

/// Judge one run against the reference digest of its config (recording
/// it when this checkout has none yet).
fn judge(store: &mut DigestStore, key: &str, report: &Report, summary: &RunSummary) -> (u64, bool) {
    let d = report_digest(report);
    let reference = store.reference(key, d);
    (
        d,
        run_fails(&summary.check(), summary.out_of_order, d, reference),
    )
}

/// Fewest timed runs (and `Network::new` calls) a result rests on.
const MIN_RUNS: usize = 3;
const MIN_SETUPS: usize = 5;

/// Build and run the workload until `seconds` have passed. A workload
/// with several workers first runs serially once: every parallel report
/// must equal the serial one. A run that returns a `SimError` counts as
/// failed and adds no sample.
pub fn timed(
    name: &str,
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    store: &mut DigestStore,
) -> Timed {
    let cfg = spec.config(seed);
    let key = digest_key(name, &cfg);
    let mut t = Timed::default();
    if cfg.workers > 1 {
        t.attempted += 1;
        t.failed += match Network::new(SimConfig { workers: 1, ..cfg }).try_run() {
            Ok((report, summary)) => judge(store, &key, &report, &summary).1 as u64,
            Err(_) => 1,
        };
    }
    let mut yard = Yardstick::new(cfg.workers);
    let mut before = yard.ns_per_event();
    let start = Instant::now();
    let mut runs = 0;
    while runs < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        runs += 1;
        t.attempted += 1;
        let t0 = Instant::now();
        let net = Network::new(cfg);
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let result = net.try_run();
        let host_s = t1.elapsed().as_secs_f64();
        let after = yard.ns_per_event();
        let slowdown = yardstick::slowdown(before, after);
        before = after;
        t.setup_s.push(setup_s);
        t.setup_slowdown.push(slowdown);
        let Ok((report, summary)) = result else {
            t.failed += 1;
            continue;
        };
        t.samples.push(Sample {
            sim_ms: spec.window_ms(),
            requests: summary.offered_messages as f64,
            host_s,
            slowdown,
        });
        let (d, failed) = judge(store, &key, &report, &summary);
        t.digest = d;
        t.failed += failed as u64;
    }
    while t.setup_s.len() < MIN_SETUPS {
        let t0 = Instant::now();
        drop(Network::new(cfg));
        t.setup_s.push(t0.elapsed().as_secs_f64());
        let after = yard.ns_per_event();
        t.setup_slowdown.push(yardstick::slowdown(before, after));
        before = after;
    }
    t
}

/// Per-kind counts of the flight recorder, by metric name.
pub const TRACE_KINDS: [&str; 7] = [
    "trace.Stamped",
    "trace.Injected",
    "trace.HopEnqueue",
    "trace.HopArbitrate",
    "trace.HopXbarDone",
    "trace.HopTxStart",
    "trace.Delivered",
];

/// Everything the traced run measures about the simulator's layers.
#[derive(Debug, Clone, Default)]
pub struct SimLayers {
    pub events: u64,
    pub run_s: f64,
    pub report_json_s: f64,
    pub peak_in_flight: u64,
    pub injected: u64,
    pub delivered: u64,
    pub take_over_total: u64,
    pub order_errors: u64,
    /// `Stamper::stamp` calls: one per packet on the deadline
    /// architectures, none on Traditional (its stamping is skipped).
    pub stamp_calls: u64,
    pub trace_kinds: [u64; TRACE_KINDS.len()],
    pub arb_take_over: u64,
    pub arb_fifo: u64,
    pub trace_dropped: u64,
    pub traced_run_s: f64,
    /// Serial run time over this run's time (1 for serial workloads).
    pub speedup_vs_serial: f64,
    pub topology_build_s: f64,
    pub flows_new_s: f64,
    pub queue_ns_per_op: f64,
    pub ring_ns_per_record: f64,
    pub flat_two_queue_ns_per_op: f64,
    pub flat_fifo_ns_per_op: f64,
    pub switch_ns_per_packet: f64,
    pub nic_ns_per_packet: f64,
    pub stamp_ns_per_call: f64,
    pub admit_ns: f64,
    pub release_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

impl SimLayers {
    pub fn arbitrations(&self) -> u64 {
        self.trace_kinds[3]
    }

    pub fn ns_per_event(&self) -> f64 {
        self.run_s * 1e9 / self.events.max(1) as f64
    }

    /// Share of `Network::run` the layer probes do not account for:
    /// 1 − Σ(probe ns per call × the run's calls) ÷ run time. Calendar
    /// ops count once per event, switch work once per arbitration (one
    /// per packet per switch hop), NIC work once per injected packet,
    /// stamping once per stamp call. The packet arena, runtime dispatch
    /// and statistics collection are private to netsim, so their time
    /// stays in this share; the ring hand-off of parallel runs does too.
    pub fn unexplained_share(&self) -> f64 {
        let explained_ns = self.queue_ns_per_op * self.events as f64
            + self.switch_ns_per_packet * self.arbitrations() as f64
            + self.nic_ns_per_packet * self.injected as f64
            + self.stamp_ns_per_call * self.stamp_calls as f64;
        1.0 - explained_ns / (self.run_s * 1e9)
    }
}

/// The video streams `Network::new` admits for `cfg`, drawn exactly as
/// it draws them, plus the number of traffic sources.
fn video_streams(cfg: &SimConfig, n_hosts: u32) -> (Vec<Vec<HostId>>, usize) {
    let mut master = SimRng::new(cfg.seed);
    let mut sources = 0;
    let dsts = (0..n_hosts)
        .map(|h| {
            let mut rng = master.fork(h as u64);
            let built = build_host_sources(&cfg.mix, HostId(h), n_hosts, &mut rng);
            sources += built.len();
            built.iter().filter_map(|s| s.fixed_dst()).collect()
        })
        .collect();
    (dsts, sources)
}

fn video_mode(cfg: &SimConfig) -> DeadlineMode {
    match cfg.video_deadlines {
        VideoDeadlines::FrameSpread { target_ns } => DeadlineMode::FrameSpread {
            target: SimDuration::from_ns(target_ns),
        },
        VideoDeadlines::AverageBandwidth => DeadlineMode::AvgBandwidth(cfg.mix.video_stream_bw),
        VideoDeadlines::PeakBandwidth => {
            let peak =
                cfg.mix.video_frame_bounds.1 as f64 / cfg.mix.video_frame_period.as_secs_f64();
            DeadlineMode::AvgBandwidth(Bandwidth::bytes_per_sec(peak as u64))
        }
    }
}

/// The traced run of a simulator workload: setup probes, one run with
/// the flight recorder off, a serial run for parallel workloads, one run
/// with the recorder keeping every event, then the layer probes. Every
/// run's report must match the reference digest; a `SimError` aborts
/// the traced run (`Network::run`'s contract for fault-free configs).
pub fn traced(
    name: &str,
    spec: &SimSpec,
    seed: u64,
    probe_budget: Duration,
    store: &mut DigestStore,
    log: &mut SpanLog,
) -> SimLayers {
    let cfg = spec.config(seed);
    let key = digest_key(name, &cfg);
    let mut l = SimLayers::default();

    let (net, build_s) = log.span("topology.build", |_| probes::topology_build(cfg.topology));
    l.topology_build_s = build_s;
    let (video_dsts, n_sources) = video_streams(&cfg, net.n_hosts());
    l.flows_new_s = log.span("netsim.flows.new", |_| {
        probes::median_secs(3, || {
            std::hint::black_box(FlowTable::new(
                &net,
                cfg.arch,
                cfg.mix.link_bw,
                &video_dsts,
                cfg.mix.video_stream_bw,
                video_mode(&cfg),
                cfg.eligible_lead_ns.map(SimDuration::from_ns),
                cfg.be_weights,
            ));
        })
    });

    // The run with the recorder off gives the layer times' denominator.
    let network = log.span("netsim.network.new", |_| Network::new(cfg));
    let t = Instant::now();
    let (report, summary) = log.span("netsim.network.run", |_| network.run());
    l.run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = log.span("netsim.report.to_json", |_| report.to_json());
    l.report_json_s = t.elapsed().as_secs_f64();
    let check = log.span("netsim.summary.check", |_| summary.check());
    l.digest = digest(json.as_bytes());
    let reference = store.reference(&key, l.digest);
    l.attempted += 1;
    l.failed += run_fails(&check, summary.out_of_order, l.digest, reference) as u64;
    l.events = summary.events;
    l.peak_in_flight = summary.peak_in_flight;
    l.injected = summary.injected_packets;
    l.delivered = summary.delivered_packets;
    l.take_over_total = summary.take_over_total;
    l.order_errors = summary.order_errors;

    l.speedup_vs_serial = 1.0;
    if cfg.workers > 1 {
        let serial = SimConfig { workers: 1, ..cfg };
        let network = log.span("netsim.network.new", |_| Network::new(serial));
        let t = Instant::now();
        let (report, summary) = log.span("netsim.network.run", |_| network.run());
        l.speedup_vs_serial = t.elapsed().as_secs_f64() / l.run_s;
        l.attempted += 1;
        l.failed += judge(store, &key, &report, &summary).1 as u64;
    }

    // Flight recorder on, with room for every event.
    let traced_cfg = SimConfig {
        trace: TraceSettings::with_capacity(u32::MAX),
        ..cfg
    };
    let network = log.span("netsim.network.new", |_| Network::new(traced_cfg));
    let t = Instant::now();
    let (report, summary, trace) = log.span("netsim.network.run_traced", |_| network.run_traced());
    l.traced_run_s = t.elapsed().as_secs_f64();
    l.attempted += 1;
    l.failed += judge(store, &key, &report, &summary).1 as u64;
    l.trace_dropped = trace.dropped;
    for ev in &trace.events {
        let kind = match ev.kind {
            EventKind::Stamped { .. } => 0,
            EventKind::Injected => 1,
            EventKind::HopEnqueue { .. } => 2,
            EventKind::HopArbitrate {
                take_over, fifo, ..
            } => {
                l.arb_take_over += take_over as u64;
                l.arb_fifo += fifo as u64;
                3
            }
            EventKind::HopXbarDone => 4,
            EventKind::HopTxStart => 5,
            EventKind::Delivered => 6,
            _ => continue,
        };
        l.trace_kinds[kind] += 1;
    }
    drop(trace);
    l.stamp_calls = if cfg.arch.uses_deadlines() {
        l.trace_kinds[0]
    } else {
        0
    };

    // Layer probes, shaped like the run.
    let switch_ports: usize = (0..net.n_switches())
        .map(|s| net.switch_ports(SwitchId(s)) as usize)
        .sum();
    let population = n_sources + 2 * switch_ports + 2 * net.n_hosts() as usize;
    let gap_ns = spec.window_us * 1000 / l.events.max(1);
    let late = l.take_over_total as f64 / l.trace_kinds[2].max(1) as f64;
    l.queue_ns_per_op = log.span("probe.sim_core.queue", |_| {
        probes::event_queue(population, gap_ns, seed, probe_budget)
    });
    l.ring_ns_per_record = log.span("probe.sim_core.ring", |_| probes::spsc_ring(1 << 20));
    l.flat_two_queue_ns_per_op = log.span("probe.queues.flat_two_queue", |_| {
        probes::flat_two_queue(late, seed, probe_budget)
    });
    l.flat_fifo_ns_per_op = log.span("probe.queues.flat_fifo", |_| {
        probes::flat_fifo(seed, probe_budget)
    });
    l.switch_ns_per_packet = log.span("probe.switch", |_| {
        probes::switch(cfg.arch, seed, probe_budget)
    });
    l.nic_ns_per_packet = log.span("probe.endhost.nic", |_| {
        probes::nic(cfg.arch, seed, probe_budget)
    });
    l.stamp_ns_per_call = log.span("probe.core.stamp", |_| probes::stamp(seed, probe_budget));
    let requests: Vec<_> = video_dsts
        .iter()
        .enumerate()
        .flat_map(|(h, dsts)| {
            dsts.iter()
                .map(move |&d| (HostId(h as u32), d, cfg.mix.video_stream_bw))
        })
        .collect();
    let adm = log.span("probe.core.admission", |_| {
        probes::admission(&net, cfg.mix.link_bw, &requests, probe_budget)
    });
    l.admit_ns = adm.ns_per_admit;
    l.release_ns = adm.ns_per_release;
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_check_and_a_digest_mismatch_each_fail_the_run() {
        let ok = RunSummary {
            injected_packets: 10,
            delivered_packets: 10,
            ..RunSummary::default()
        };
        assert!(!run_fails(&ok.check(), ok.out_of_order, 7, 7));
        // Forced digest mismatch.
        assert!(run_fails(&ok.check(), ok.out_of_order, 7, 8));
        // Failing check: a packet went missing.
        let lost = RunSummary {
            injected_packets: 10,
            delivered_packets: 9,
            ..RunSummary::default()
        };
        assert!(lost.check().is_err());
        assert!(run_fails(&lost.check(), lost.out_of_order, 7, 7));
        // Out-of-order deliveries fail the run even where check excuses them.
        assert!(run_fails(&ok.check(), 1, 7, 7));
    }

    #[test]
    fn timed_runs_count_reference_mismatches_as_failures() {
        let spec = SimSpec {
            hosts: 16,
            arch: Architecture::Traditional2Vc,
            load: 0.3,
            window_us: 100,
            workers: 1,
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-sim-{}", std::process::id()));
        let mut store = DigestStore::open(dir.join("digests.txt"));
        let good = timed("t", &spec, 3, 0.0, &mut store);
        assert_eq!((good.attempted, good.failed), (MIN_RUNS as u64, 0));
        assert_eq!(
            (good.samples.len(), good.setup_s.len()),
            (MIN_RUNS, MIN_SETUPS)
        );
        // Corrupt the stored reference: every run now fails.
        let key = digest_key("t", &spec.config(3));
        let mut bad = DigestStore::open(dir.join("none.txt"));
        bad.reference(&key, good.digest ^ 1);
        let t = timed("t", &spec, 3, 0.0, &mut bad);
        assert_eq!((t.attempted, t.failed), (MIN_RUNS as u64, MIN_RUNS as u64));
        let _ = std::fs::remove_dir_all(dir);
    }
}
