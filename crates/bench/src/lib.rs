//! # dqos-bench
//!
//! Shared harness for the figure/table benches (the `benches/` targets of
//! this crate regenerate every table and figure of the paper's
//! evaluation; see DESIGN.md §4 for the index).
//!
//! ## Scaling knobs (environment variables)
//!
//! | Variable          | Default        | Meaning |
//! |-------------------|----------------|---------|
//! | `DQOS_PAPER=1`    | off            | full 128-host paper network (slow) |
//! | `DQOS_HOSTS`      | 16             | host count (multiple of 8) |
//! | `DQOS_MEASURE_MS` | 10             | measurement window per point |
//! | `DQOS_WARMUP_MS`  | 12             | warm-up (must exceed the 10 ms frame pipeline) |
//! | `DQOS_LOADS`      | .2,.4,.6,.8,1  | sweep points |
//! | `DQOS_SEED`       | 0xD05E         | master seed |
//! | `DQOS_NO_CACHE=1` | off            | disable the sweep-result cache |
//!
//! Figures 2, 3 and 4 all read the *same* simulations (the paper runs one
//! workload and reports three views of it), so sweep results are cached
//! under `target/dqos-cache/` keyed by a hash of the full config — the
//! second and third figure benches reuse the first one's runs.

#![forbid(unsafe_code)]

use dqos_core::Architecture;
use dqos_netsim::{run_one, RunSummary, SimConfig};
use dqos_stats::{Json, Report};
use dqos_topology::ClosParams;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

/// Sweep parameters read from the environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Host count.
    pub hosts: u16,
    /// Measurement window, ms.
    pub measure_ms: u64,
    /// Warm-up, ms.
    pub warmup_ms: u64,
    /// Load points.
    pub loads: Vec<f64>,
    /// Master seed.
    pub seed: u64,
    /// Cache sweep results on disk.
    pub cache: bool,
}

impl BenchEnv {
    /// Read the environment (see crate docs for the knobs).
    pub fn from_env() -> Self {
        let paper = std::env::var("DQOS_PAPER").map(|v| v == "1").unwrap_or(false);
        let get = |k: &str, d: u64| -> u64 {
            std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d)
        };
        let hosts = if paper {
            128
        } else {
            get("DQOS_HOSTS", 16) as u16
        };
        let loads = std::env::var("DQOS_LOADS")
            .ok()
            .map(|v| {
                v.split(',')
                    // tidy: allow(no-unwrap) -- bench harness CLI contract:
                    // a malformed DQOS_LOADS should abort the run loudly.
                    .map(|s| s.trim().parse::<f64>().expect("DQOS_LOADS entries are numbers"))
                    .collect()
            })
            .unwrap_or_else(|| vec![0.2, 0.4, 0.6, 0.8, 1.0]);
        BenchEnv {
            hosts,
            measure_ms: get("DQOS_MEASURE_MS", if paper { 50 } else { 10 }),
            warmup_ms: get("DQOS_WARMUP_MS", if paper { 15 } else { 12 }),
            loads,
            seed: get("DQOS_SEED", 0xD0_5E),
            cache: std::env::var("DQOS_NO_CACHE").map(|v| v != "1").unwrap_or(true),
        }
    }

    /// The simulation config for one (architecture, load) point.
    pub fn config(&self, arch: Architecture, load: f64) -> SimConfig {
        let mut c = SimConfig::paper(arch, load);
        c.topology = ClosParams::scaled(self.hosts);
        c.measure = dqos_sim_core::SimDuration::from_ms(self.measure_ms);
        c.warmup = dqos_sim_core::SimDuration::from_ms(self.warmup_ms);
        c.seed = self.seed;
        c
    }

    /// The highest load point (where the paper takes its CDFs).
    pub fn max_load(&self) -> f64 {
        self.loads.iter().cloned().fold(0.0, f64::max)
    }
}

/// The workspace `target/` directory. Bench binaries run with the
/// package directory as CWD, so a relative "target" would land under
/// `crates/bench/`; resolve against the manifest location instead.
fn target_dir() -> PathBuf {
    match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) => PathBuf::from(t),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"),
    }
}

fn cache_dir() -> PathBuf {
    target_dir().join("dqos-cache")
}

fn cache_key(cfg: &SimConfig) -> String {
    // `SimConfig` is plain data with a total `Debug` rendering, so the
    // debug string is a faithful serialisation for keying purposes.
    let text = format!("{cfg:?}");
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    // Include a schema version so stale caches die on model changes.
    3u32.hash(&mut h);
    format!("{:016x}", h.finish())
}

fn decode_pair(data: &str) -> Result<(Report, RunSummary), String> {
    let j = Json::parse(data)?;
    let report = j
        .get("report")
        .and_then(Report::from_json_value)
        .ok_or_else(|| "bad report".to_string())?;
    let summary =
        RunSummary::from_json_value(j.get("summary").ok_or_else(|| "missing summary".to_string())?)?;
    Ok((report, summary))
}

fn encode_pair(report: &Report, summary: &RunSummary) -> String {
    Json::obj(vec![
        ("report", report.to_json_value()),
        ("summary", summary.to_json_value()),
    ])
    .to_string_pretty()
}

/// Run one point, reading/writing the on-disk cache.
pub fn run_cached(env: &BenchEnv, cfg: SimConfig) -> (Report, RunSummary) {
    if !env.cache {
        return run_one(cfg);
    }
    let dir = cache_dir();
    let path = dir.join(format!("{}.json", cache_key(&cfg)));
    if let Ok(data) = std::fs::read_to_string(&path) {
        if let Ok(pair) = decode_pair(&data) {
            return pair;
        }
    }
    let pair = run_one(cfg);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(&path, encode_pair(&pair.0, &pair.1));
    pair
}

/// Run the full figure sweep: every architecture at every load.
/// Returns `(arch, load, report, summary)` tuples in deterministic order.
pub fn run_sweep(env: &BenchEnv) -> Vec<(Architecture, f64, Report, RunSummary)> {
    let mut out = Vec::new();
    for &arch in &Architecture::ALL {
        for &load in &env.loads {
            eprintln!("  running {} @ {:.0}% ...", arch.label(), load * 100.0);
            let (report, summary) = run_cached(env, env.config(arch, load));
            assert_eq!(summary.out_of_order, 0, "in-order guarantee violated");
            out.push((arch, load, report, summary));
        }
    }
    out
}

/// Print a `load × architecture` series table, and mirror it as a
/// gnuplot-ready `.dat` file under `target/figures/` (one column per
/// architecture).
///
/// `value` extracts the plotted quantity from a report.
pub fn print_series(
    title: &str,
    unit: &str,
    sweep: &[(Architecture, f64, Report, RunSummary)],
    loads: &[f64],
    mut value: impl FnMut(&Report) -> f64,
) {
    println!("\n## {title} [{unit}]");
    let mut dat = format!("# {title} [{unit}]\n# load%");
    for arch in Architecture::ALL {
        dat.push_str(&format!(" \"{}\"", arch.label()));
    }
    dat.push('\n');
    print!("{:>8}", "load%");
    for arch in Architecture::ALL {
        print!(" {:>18}", arch.label());
    }
    println!();
    for &load in loads {
        print!("{:>8.0}", load * 100.0);
        dat.push_str(&format!("{:.0}", load * 100.0));
        for arch in Architecture::ALL {
            let r = sweep
                .iter()
                .find(|(a, l, _, _)| *a == arch && *l == load)
                .map(|(_, _, r, _)| r)
                // tidy: allow(no-unwrap) -- the sweep was built from this
                // exact (arch, load) grid, so every cell is present.
                .expect("sweep covers the grid");
            let v = value(r);
            print!(" {:>18.2}", v);
            dat.push_str(&format!(" {v:.4}"));
        }
        println!();
        dat.push('\n');
    }
    write_figure_file(title, &dat);
}

/// Slugify a title and write the data file under `target/figures/`.
fn write_figure_file(title: &str, contents: &str) {
    let slug: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let dir = target_dir().join("figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{slug}.dat")), contents);
    }
}

/// Print a latency CDF per architecture at one load (the paper's CDF
/// panels), as `value fraction` columns; the full-resolution curves are
/// also written to `target/figures/` (gnuplot `index`-separated blocks,
/// one per architecture).
pub fn print_cdf(
    title: &str,
    sweep: &[(Architecture, f64, Report, RunSummary)],
    load: f64,
    unit_div: f64,
    unit: &str,
    points: usize,
    hist_of: impl Fn(&Report) -> &dqos_stats::LogHistogram,
) {
    println!("\n## {title} (CDF @ {:.0}% load, {unit})", load * 100.0);
    let mut dat = format!("# {title} (CDF @ {:.0}% load, {unit})\n", load * 100.0);
    for arch in Architecture::ALL {
        let r = sweep
            .iter()
            .find(|(a, l, _, _)| *a == arch && *l == load)
            .map(|(_, _, r, _)| r)
            // tidy: allow(no-unwrap) -- max load is taken from the same
            // list the sweep was built from, so the point exists.
            .expect("sweep covers the max-load point");
        let hist = hist_of(r);
        let cdf = hist.cdf();
        println!("# {}", arch.label());
        dat.push_str(&format!("# {}\n", arch.label()));
        // Thin the printed curve to ~`points` rows; the file keeps all.
        let step = (cdf.len() / points.max(1)).max(1);
        for (i, (v, f)) in cdf.iter().enumerate() {
            if i % step == 0 || i + 1 == cdf.len() {
                println!("{:>12.3} {:>9.6}", *v as f64 / unit_div, f);
            }
            dat.push_str(&format!("{:.4} {:.6}\n", *v as f64 / unit_div, f));
        }
        dat.push_str("\n\n"); // gnuplot block separator
    }
    write_figure_file(&format!("{title} cdf"), &dat);
}

/// Dependency-free timing harness for the micro-benches.
///
/// Each measurement runs the workload once to warm caches, then `runs`
/// timed repetitions; the *median* per-element time is reported (robust
/// to scheduler noise without criterion's machinery).
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// One measured workload.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Workload name (`group/case`).
        pub name: String,
        /// Elements processed per repetition.
        pub elements: u64,
        /// Median nanoseconds per element.
        pub ns_per_elem: f64,
        /// Median element rate per second.
        pub rate_per_sec: f64,
    }

    /// Time `f`, which processes `elements` items per call.
    pub fn measure<R>(
        name: &str,
        elements: u64,
        runs: usize,
        mut f: impl FnMut() -> R,
    ) -> Measurement {
        black_box(f()); // warm-up
        let mut samples: Vec<f64> = (0..runs.max(1))
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_nanos() as f64 / elements.max(1) as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let ns_per_elem = samples[samples.len() / 2];
        let m = Measurement {
            name: name.to_string(),
            elements,
            ns_per_elem,
            rate_per_sec: 1e9 / ns_per_elem,
        };
        println!(
            "{:<40} {:>10.1} ns/elem {:>14.0} elem/s",
            m.name, m.ns_per_elem, m.rate_per_sec
        );
        m
    }

    /// Write measurements (plus extra scalar entries) as a JSON object to
    /// `path`, one `name -> {ns_per_elem, rate_per_sec, elements}` entry
    /// per measurement.
    pub fn write_json(path: &std::path::Path, ms: &[Measurement], extra: &[(&str, f64)]) {
        use dqos_stats::Json;
        let extra: Vec<(&str, Json)> =
            extra.iter().map(|(k, v)| (*k, Json::Float(*v))).collect();
        write_json_values(path, ms, &extra);
    }

    /// [`write_json`] with arbitrary JSON scalars in the extra entries
    /// (e.g. the `speedup_valid_workers_{w}` booleans of the scaling
    /// bench).
    pub fn write_json_values(
        path: &std::path::Path,
        ms: &[Measurement],
        extra: &[(&str, dqos_stats::Json)],
    ) {
        use dqos_stats::Json;
        let mut fields: Vec<(&str, Json)> = ms
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Json::obj(vec![
                        ("ns_per_elem", Json::Float(m.ns_per_elem)),
                        ("rate_per_sec", Json::Float(m.rate_per_sec)),
                        ("elements", Json::Int(m.elements as i128)),
                    ]),
                )
            })
            .collect();
        for (k, v) in extra {
            fields.push((k, v.clone()));
        }
        let doc = Json::obj(fields).to_string_pretty();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }

    /// Like [`write_json`], but entries already present in `path` that
    /// this run did not re-measure survive verbatim. The file thereby
    /// accumulates history — e.g. the pre-optimisation `full_sim/...`
    /// rows stay on record next to the current `fullsim/...` rows —
    /// instead of being clobbered by every rerun.
    pub fn write_json_merged(path: &std::path::Path, ms: &[Measurement]) {
        use dqos_stats::Json;
        let mut fields: Vec<(String, Json)> = match std::fs::read_to_string(path)
            .ok()
            .and_then(|s| Json::parse(&s).ok())
        {
            Some(Json::Obj(pairs)) => pairs,
            _ => Vec::new(),
        };
        fn set(fields: &mut Vec<(String, Json)>, k: &str, v: Json) {
            if let Some(slot) = fields.iter_mut().find(|(key, _)| key == k) {
                slot.1 = v;
            } else {
                fields.push((k.to_string(), v));
            }
        }
        for m in ms {
            set(
                &mut fields,
                &m.name,
                Json::obj(vec![
                    ("ns_per_elem", Json::Float(m.ns_per_elem)),
                    ("rate_per_sec", Json::Float(m.rate_per_sec)),
                    ("elements", Json::Int(m.elements as i128)),
                ]),
            );
        }
        let doc = Json::Obj(fields).to_string_pretty();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

/// The repository root (bench binaries run with `crates/bench` as CWD).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Not setting variables in tests (process-global); just check the
        // default constructor path works when vars are absent.
        let env = BenchEnv::from_env();
        assert!(env.hosts >= 8);
        assert!(!env.loads.is_empty());
        assert!(env.max_load() <= 1.0);
    }

    #[test]
    fn config_reflects_env() {
        let env = BenchEnv {
            hosts: 24,
            measure_ms: 7,
            warmup_ms: 13,
            loads: vec![0.5],
            seed: 9,
            cache: false,
        };
        let cfg = env.config(Architecture::Ideal, 0.5);
        assert_eq!(cfg.topology.n_hosts(), 24);
        assert_eq!(cfg.measure, dqos_sim_core::SimDuration::from_ms(7));
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let env = BenchEnv {
            hosts: 16,
            measure_ms: 5,
            warmup_ms: 5,
            loads: vec![0.5],
            seed: 1,
            cache: false,
        };
        let a = cache_key(&env.config(Architecture::Ideal, 0.5));
        let b = cache_key(&env.config(Architecture::Simple2Vc, 0.5));
        let c = cache_key(&env.config(Architecture::Ideal, 0.6));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable for identical configs.
        assert_eq!(a, cache_key(&env.config(Architecture::Ideal, 0.5)));
    }
}
