//! The repository's benchmark: four workloads, end-to-end metrics from
//! timed runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. With `--trace 0` the run prints every
//! end-to-end metric; with `--trace 1` every per-layer metric. Human-
//! readable lines come first (host, commit, each metric with its unit,
//! sample count, median, quartiles and extremes); the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The full
//! result, with spans for a traced run, goes to `perfbench/out/`.

mod churn;
mod host;
mod probes;
mod sim;
mod spans;
mod stats;
mod yardstick;

use churn::{ChurnLayers, ChurnSpec};
use dqos_core::Architecture;
use dqos_stats::Json;
use host::{DigestStore, HostInfo, OUT_DIR};
use sim::{SimLayers, SimSpec};
use spans::SpanLog;
use stats::Summary;
use std::process::ExitCode;
use std::time::Duration;
use yardstick::Yardstick;

/// The seed a result uses unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 0xD05E;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Sim(SimSpec),
    Churn(ChurnSpec),
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: Kind,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper128-advanced-full",
        kind: Kind::Sim(SimSpec {
            hosts: 128,
            arch: Architecture::Advanced2Vc,
            load: 1.0,
            window_us: 1_000,
            workers: 1,
        }),
    },
    Workload {
        name: FABRIC16.0,
        kind: Kind::Sim(FABRIC16.1),
    },
    Workload {
        name: "fabric64-advanced-2w",
        kind: Kind::Sim(SimSpec {
            hosts: 64,
            arch: Architecture::Advanced2Vc,
            load: 0.5,
            window_us: 1_000,
            workers: 2,
        }),
    },
    Workload {
        name: "dqosd-churn",
        kind: Kind::Churn(ChurnSpec {
            clients: 8,
            ops_per_client: 250,
        }),
    },
];

/// The simulator workload whose traced layers a dqos-d run reports (it
/// has no simulator of its own), and the session whose traced dqos-d
/// layers a simulator run reports.
const FABRIC16: (&str, SimSpec) = (
    "fabric16-traditional-light",
    SimSpec {
        hosts: 16,
        arch: Architecture::Traditional2Vc,
        load: 0.3,
        window_us: 5_000,
        workers: 1,
    },
);
const PROBE_CHURN: ChurnSpec = ChurnSpec {
    clients: 4,
    ops_per_client: 100,
};

/// Time each layer probe loops for.
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The samples `value` summarises (empty for a single measurement).
    samples: Vec<f64>,
}

impl Metric {
    fn summary(&self) -> Option<Summary> {
        (!self.samples.is_empty()).then(|| Summary::of(&self.samples))
    }
}

fn sampled(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value: Summary::of(&samples).median,
        samples,
    }
}

fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Vec::new(),
    }
}

/// What one invocation produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Printed and recorded, not in the result line: the end-to-end
    /// metrics at the host's speed during the run, and that speed.
    raw: Vec<Metric>,
    digests: Vec<(&'static str, u64)>,
    spans: Option<SpanLog>,
}

/// One timed sample: the work it did and the host seconds it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Simulated ms of traffic (virtual ms for dqos-d).
    pub sim_ms: f64,
    /// Messages offered by the generators (requests completed for dqos-d).
    pub requests: f64,
    pub host_s: f64,
    /// The host's slowdown around the sample (`yardstick::slowdown`).
    pub slowdown: f64,
}

impl Sample {
    /// Throughput per host second, raw and at the yardstick's nominal
    /// host speed, for a workload of host `sensitivity`.
    fn per_s(&self, work: f64, sensitivity: f64) -> (f64, f64) {
        let raw = work / self.host_s;
        (
            raw,
            raw * yardstick::workload_slowdown(self.slowdown, sensitivity),
        )
    }
}

/// A workload's timed samples and how many operations they attempted
/// and failed.
#[derive(Debug, Default)]
pub struct Timed {
    pub samples: Vec<Sample>,
    /// Host seconds of each timed `Network::new` or `Daemon::new`, and
    /// the host's slowdown around it.
    pub setup_s: Vec<f64>,
    pub setup_slowdown: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Output digest of the last run.
    pub digest: u64,
}

/// The end-to-end metrics of a timed run.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, store: &mut DigestStore) -> Outcome {
    let (t, sensitivity) = match w.kind {
        Kind::Sim(spec) => (
            sim::timed(w.name, &spec, seed, seconds, store),
            yardstick::SIM_SENSITIVITY,
        ),
        Kind::Churn(spec) => (
            churn::timed(w.name, spec, seed, seconds, store),
            yardstick::DQOSD_SENSITIVITY,
        ),
    };
    let per = |work: fn(&Sample) -> f64| -> (Vec<f64>, Vec<f64>) {
        t.samples
            .iter()
            .map(|s| s.per_s(work(s), sensitivity))
            .unzip()
    };
    let (sim_raw, sim_norm) = per(|s| s.sim_ms);
    let (req_raw, req_norm) = per(|s| s.requests);
    let setup_norm = t
        .setup_s
        .iter()
        .zip(&t.setup_slowdown)
        .map(|(s, &k)| s / yardstick::workload_slowdown(k, sensitivity))
        .collect();
    let slowdown = t.samples.iter().map(|s| s.slowdown).collect();
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: vec![
            sampled("sim_ms_per_wall_s_norm", "ms/s", sim_norm),
            sampled("requests_per_s_norm", "1/s", req_norm),
            sampled("setup_s", "s", setup_norm),
            single("peak_rss_mb", "MiB", host::peak_rss_mb()),
        ],
        raw: vec![
            sampled("sim_ms_per_wall_s", "ms/s", sim_raw),
            sampled("requests_per_s", "1/s", req_raw),
            sampled("setup_s_raw", "s", t.setup_s),
            sampled("host_slowdown", "x", slowdown),
        ],
        digests: vec![(w.name, t.digest)],
        spans: None,
    }
}

/// Every per-layer metric. Counts come from the workload's own run (the
/// simulator's when `sim_own`, dqos-d's otherwise) and read 0 for layers
/// it does not run; per-call times and ratios are always measured, from
/// the default-shape probe where the workload does not run the layer.
fn per_layer(sim: &SimLayers, ch: &ChurnLayers, sim_own: bool) -> Vec<Metric> {
    let sc = |v: u64| if sim_own { v as f64 } else { 0.0 };
    let cc = |v: u64| if sim_own { 0.0 } else { v as f64 };
    let share = |num: u64, den: u64| {
        if sim_own {
            num as f64 / den.max(1) as f64
        } else {
            0.0
        }
    };
    let (admit_ns, release_ns, build_s) = if sim_own {
        (sim.admit_ns, sim.release_ns, sim.topology_build_s)
    } else {
        (ch.admit_ns, ch.release_ns, ch.topology_build_s)
    };
    let arbs = sim.arbitrations();
    let mut m = vec![
        single("sim_core.events", "count", sc(sim.events)),
        single("sim_core.ns_per_event", "ns", sim.ns_per_event()),
        single("sim_core.queue.ns_per_op", "ns", sim.queue_ns_per_op),
        single("sim_core.ring.ns_per_record", "ns", sim.ring_ns_per_record),
        single(
            "sim_core.exec.speedup_vs_serial",
            "x",
            sim.speedup_vs_serial,
        ),
        single(
            "queues.flat_two_queue.ns_per_op",
            "ns",
            sim.flat_two_queue_ns_per_op,
        ),
        single("queues.flat_fifo.ns_per_op", "ns", sim.flat_fifo_ns_per_op),
        single("queues.take_over_total", "count", sc(sim.take_over_total)),
        single("switch.arbitrations", "count", sc(arbs)),
        single(
            "switch.take_over_share",
            "share",
            share(sim.arb_take_over, arbs),
        ),
        single("switch.hol_share", "share", share(sim.arb_fifo, arbs)),
        single(
            "switch.order_errors_per_delivered",
            "share",
            share(sim.order_errors, sim.delivered),
        ),
        single("switch.ns_per_packet", "ns", sim.switch_ns_per_packet),
        single("endhost.injected_packets", "count", sc(sim.injected)),
        single("endhost.delivered_packets", "count", sc(sim.delivered)),
        single("endhost.nic.ns_per_packet", "ns", sim.nic_ns_per_packet),
        single("core.stamp.calls", "count", sc(sim.stamp_calls)),
        single("core.stamp.ns_per_call", "ns", sim.stamp_ns_per_call),
        single("core.admission.ns_per_admit", "ns", admit_ns),
        single("core.admission.ns_per_release", "ns", release_ns),
        single("topology.build_s", "s", build_s),
        single("netsim.flows.new_s", "s", sim.flows_new_s),
        single("netsim.run_s", "s", sim.run_s),
        single("netsim.report_json_s", "s", sim.report_json_s),
        single("netsim.peak_in_flight", "count", sc(sim.peak_in_flight)),
        single("netsim.unexplained_share", "share", sim.unexplained_share()),
    ];
    for (kind, &n) in sim::TRACE_KINDS.iter().zip(&sim.trace_kinds) {
        m.push(single(kind, "count", sc(n)));
    }
    m.extend([
        single("trace.dropped", "count", sc(sim.trace_dropped)),
        single("trace.overhead_ratio", "x", sim.traced_run_s / sim.run_s),
        single("dqosd.wire.encode_ns", "ns", ch.encode_ns),
        single("dqosd.wire.decode_ns", "ns", ch.decode_ns),
        single(
            "dqosd.transport.ns_per_frame",
            "ns",
            ch.transport_ns_per_frame,
        ),
        single("dqosd.server.ingest_ns", "ns", ch.ingest_ns),
        single("dqosd.server.poll_ns_p50", "ns", ch.poll_ns_p50),
        single("dqosd.server.poll_ns_p99", "ns", ch.poll_ns_p99),
        single("dqosd.snapshot_ns", "ns", ch.snapshot_ns),
        single("dqosd.journal.records", "count", cc(ch.journal_records)),
        single("dqosd.journal.snapshots", "count", cc(ch.snapshots)),
        single("dqosd.journal.bytes", "bytes", cc(ch.journal_bytes)),
        single("dqosd.served", "count", cc(ch.served)),
        single("dqosd.shed_overload", "count", cc(ch.shed_overload)),
        single("dqosd.shed_budget", "count", cc(ch.shed_budget)),
        single("dqosd.client.retries", "count", cc(ch.retries)),
    ]);
    m
}

/// The traced run: the workload's own layers plus the default-shape
/// probe of the layers it does not run.
fn traced(w: &Workload, seed: u64, store: &mut DigestStore) -> Outcome {
    let mut yard = Yardstick::new(1);
    let before = yard.ns_per_event();
    let mut log = SpanLog::new(true);
    let (sim_l, ch_l, sim_own) = log.span("bench.traced_run", |log| match w.kind {
        Kind::Sim(spec) => {
            let s = log.span("bench.workload", |log| {
                sim::traced(w.name, &spec, seed, PROBE_BUDGET, store, log)
            });
            let c = log.span("bench.default_probe", |log| {
                churn::traced("probe-churn", PROBE_CHURN, seed, PROBE_BUDGET, store, log)
            });
            (s, c, true)
        }
        Kind::Churn(spec) => {
            let c = log.span("bench.workload", |log| {
                churn::traced(w.name, spec, seed, PROBE_BUDGET, store, log)
            });
            let s = log.span("bench.default_probe", |log| {
                sim::traced(FABRIC16.0, &FABRIC16.1, seed, PROBE_BUDGET, store, log)
            });
            (s, c, false)
        }
    });
    let slowdown = yardstick::slowdown(before, yard.ns_per_event());
    let (sim_name, churn_name) = if sim_own {
        (w.name, "probe-churn")
    } else {
        (FABRIC16.0, w.name)
    };
    Outcome {
        attempted: sim_l.attempted + ch_l.attempted,
        failed: sim_l.failed + ch_l.failed,
        metrics: per_layer(&sim_l, &ch_l, sim_own),
        digests: vec![(sim_name, sim_l.digest), (churn_name, ch_l.digest)],
        raw: vec![single("host_slowdown", "x", slowdown)],
        spans: Some(log),
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("value", Json::Float(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ])
}

/// The last line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Int(o.attempted as i128)),
        ("failed", Json::Int(o.failed as i128)),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), metric_json(m)))
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

/// A metric with its spread and samples, for the record.
fn metric_record(m: &Metric) -> (String, Json) {
    let mut fields = vec![
        ("value", Json::Float(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ];
    if let Some(s) = m.summary() {
        fields.extend([
            ("n", Json::Int(s.n as i128)),
            ("median", Json::Float(s.median)),
            ("q1", Json::Float(s.q1)),
            ("q3", Json::Float(s.q3)),
            ("min", Json::Float(s.min)),
            ("max", Json::Float(s.max)),
            (
                "samples",
                Json::Arr(m.samples.iter().map(|&v| Json::Float(v)).collect()),
            ),
        ]);
    }
    (m.name.to_string(), Json::obj(fields))
}

/// The full record written to `perfbench/out/`.
fn record(o: &Outcome, w: &Workload, seed: u64, seconds: f64, trace: bool, h: &HostInfo) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(seed as i128)),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::Bool(trace)),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::Int(h.nproc as i128)),
                ("cpu_model", Json::Str(h.cpu_model.clone())),
                ("rustc", Json::Str(h.rustc.clone())),
            ]),
        ),
        ("commit", Json::Str(h.commit.clone())),
        ("attempted", Json::Int(o.attempted as i128)),
        ("failed", Json::Int(o.failed as i128)),
        (
            "failed_share",
            Json::Float(o.failed as f64 / o.attempted.max(1) as f64),
        ),
        (
            "digests",
            Json::Obj(
                o.digests
                    .iter()
                    .map(|(k, d)| (k.to_string(), Json::Str(format!("{d:016x}"))))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(o.metrics.iter().map(metric_record).collect()),
        ),
        ("raw", Json::Obj(o.raw.iter().map(metric_record).collect())),
    ];
    if let Some(log) = &o.spans {
        let span_list = log
            .spans()
            .iter()
            .zip(spans::self_times(log.spans()))
            .map(|(s, own)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Int(s.start_ns as i128)),
                    ("end_ns", Json::Int(s.end_ns as i128)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                    ),
                    ("self_ns", Json::Int(own as i128)),
                ])
            })
            .collect();
        let by_name = spans::totals_by_name(log.spans())
            .into_iter()
            .map(|(name, t)| {
                let v = Json::obj(vec![
                    ("count", Json::Int(t.count as i128)),
                    ("total_ns", Json::Int(t.total_ns as i128)),
                    ("self_ns", Json::Int(t.self_ns as i128)),
                ]);
                (name.to_string(), v)
            })
            .collect();
        fields.push(("span_totals", Json::Obj(by_name)));
        fields.push(("spans", Json::Arr(span_list)));
    }
    Json::obj(fields)
}

fn print_human(o: &Outcome, w: &Workload, seed: u64, h: &HostInfo) {
    println!("# workload {} seed {seed}", w.name);
    println!(
        "# host nproc={} cpu={:?} rustc={:?} commit={}",
        h.nproc, h.cpu_model, h.rustc, h.commit
    );
    for m in o.metrics.iter().chain(&o.raw) {
        match m.summary() {
            Some(s) => println!(
                "{:<36} {:>14.6} {:<6} n={} median={:.6} q1={:.6} q3={:.6} min={:.6} max={:.6} spread={:.4}",
                m.name,
                m.value,
                m.unit,
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.spread()
            ),
            None => println!("{:<36} {:>14.6} {:<6} n=1", m.name, m.value, m.unit),
        }
    }
    println!(
        "{:<36} {:>14.6} {:<6} failed={} attempted={}",
        "failed_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        "share",
        o.failed,
        o.attempted
    );
    for (name, d) in &o.digests {
        println!("# digest {name} {d:016x}");
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value:?}"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::probe();
    let mut store = DigestStore::in_out_dir();
    let outcome = if args.trace {
        traced(&args.workload, args.seed, &mut store)
    } else {
        end_to_end(&args.workload, args.seed, args.seconds, &mut store)
    };
    let rec = record(
        &outcome,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &host,
    );
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    );
    if let Err(e) = store
        .save()
        .and_then(|_| std::fs::write(&path, rec.to_string_pretty()))
    {
        eprintln!("perfbench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    print_human(&outcome, &args.workload, args.seed, &host);
    println!("# full record: {path}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench"))
            .expect("valid JSON")
    }

    fn names(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let layers = per_layer(&SimLayers::default(), &ChurnLayers::default(), true);
        let emitted: Vec<String> = layers.iter().map(|m| m.name.to_string()).collect();
        assert!(emitted.iter().all(|n| valid_name(n)), "{emitted:?}");
        let j = benchmark_json();
        assert_eq!(names(&j, "per_layer"), emitted);
        let e2e: Vec<String> = [
            "sim_ms_per_wall_s_norm",
            "requests_per_s_norm",
            "setup_s",
            "peak_rss_mb",
        ]
        .map(String::from)
        .to_vec();
        assert_eq!(names(&j, "end_to_end"), e2e);
        assert_eq!(
            names(&j, "workloads"),
            WORKLOADS.map(|w| w.name.to_string()).to_vec()
        );
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let o = Outcome {
            attempted: 4,
            failed: 1,
            metrics: vec![single("x", "s", 1.5)],
            raw: vec![],
            digests: vec![],
            spans: None,
        };
        let line = Json::parse(&result_line(&o)).expect("result line is JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let x = line
            .get("metrics")
            .and_then(|m| m.get("x"))
            .expect("metric x");
        assert_eq!(x.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(x.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn arguments_parse_with_a_recorded_default_seed() {
        let a = parse_args(&["--workload".into(), "dqosd-churn".into()]).expect("parses");
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        let argv: Vec<String> = [
            "--workload",
            "fabric64-advanced-2w",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("fabric64-advanced-2w", 7, 3.0, true)
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
    }
}
