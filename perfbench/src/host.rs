//! What a result needs besides its numbers: the host and commit it was
//! measured on, the process's peak memory, and the reference digests
//! that every run of one checkout must reproduce. Standard library only.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Where results, spans and reference digests go (inside the checkout).
pub const OUT_DIR: &str = "perfbench/out";

/// The host and source a result was measured on.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl HostInfo {
    pub fn probe() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
            commit: git_commit(Path::new("."))
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let text = fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit checked out at `root`, read from `.git` directly.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// 64-bit FNV-1a, the digest the benchmark prints for outputs.
pub fn digest(bytes: &[u8]) -> u64 {
    dqosd::journal::fnv1a(bytes)
}

/// Reference digests of one checkout, one line per
/// `<key> <digest-hex>`. The first run to produce an output for a key
/// records it; every later run of the same checkout must reproduce it.
#[derive(Debug)]
pub struct DigestStore {
    path: PathBuf,
    refs: BTreeMap<String, u64>,
}

impl DigestStore {
    pub fn open(path: PathBuf) -> DigestStore {
        let refs = fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(k, v)| {
                u64::from_str_radix(v.trim(), 16)
                    .ok()
                    .map(|d| (k.to_string(), d))
            })
            .collect();
        DigestStore { path, refs }
    }

    pub fn in_out_dir() -> DigestStore {
        DigestStore::open(Path::new(OUT_DIR).join("digests.txt"))
    }

    /// The reference for `key`, recording `fallback` as the reference
    /// when none exists yet.
    pub fn reference(&mut self, key: &str, fallback: u64) -> u64 {
        *self.refs.entry(key.to_string()).or_insert(fallback)
    }

    /// Write the references back.
    pub fn save(&self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let text: String = self
            .refs
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}\n"))
            .collect();
        fs::write(&self.path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_store_keeps_the_first_reference() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-digests-{}", std::process::id()));
        let path = dir.join("digests.txt");
        let mut s = DigestStore::open(path.clone());
        assert_eq!(s.reference("w/1", 0xAB), 0xAB);
        assert_eq!(s.reference("w/1", 0xCD), 0xAB);
        s.save().expect("write digests");
        let mut again = DigestStore::open(path);
        assert_eq!(again.reference("w/1", 0xEF), 0xAB);
        fs::remove_dir_all(dir).expect("clean up");
    }
}
