//! CLI for `dqos-tidy`: run the workspace lint pass and report.
//!
//! ```text
//! cargo run --release --offline -p dqos-tidy            # check the workspace
//! cargo run --release --offline -p dqos-tidy -- --list  # print the rule catalog
//! cargo run --release --offline -p dqos-tidy -- <root>  # check another tree
//! ```
//!
//! A clean run ends with a table of non-test and all source lines per
//! crate and in total (`#[cfg(test)]` items and `tests/` files are test
//! lines). Exit code 0 when clean, 1 when any finding is reported, 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut list = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => list = true,
            "--help" | "-h" => {
                println!("usage: dqos-tidy [--list] [workspace-root]");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("dqos-tidy: unknown flag {arg}");
                return ExitCode::from(2);
            }
            _ => root = Some(PathBuf::from(arg)),
        }
    }
    if list {
        for r in dqos_tidy::RULES {
            println!("{:16} {}", r.id, r.what);
        }
        return ExitCode::SUCCESS;
    }
    let root = root.unwrap_or_else(find_workspace_root);
    match dqos_tidy::check_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("dqos-tidy: clean ({})", root.display());
            print_line_counts(&root)
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("dqos-tidy: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dqos-tidy: {e}");
            ExitCode::from(2)
        }
    }
}

/// The clean summary's size table: non-test and all lines per crate,
/// then the workspace total.
fn print_line_counts(root: &std::path::Path) -> ExitCode {
    let counts = match dqos_tidy::line_counts(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dqos-tidy: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{:16} {:>9} {:>9}", "lines", "non-test", "all");
    for (name, non_test, all) in &counts {
        println!("{name:16} {non_test:>9} {all:>9}");
    }
    let non_test: usize = counts.iter().map(|c| c.1).sum();
    let all: usize = counts.iter().map(|c| c.2).sum();
    println!("{:16} {non_test:>9} {all:>9}", "total");
    ExitCode::SUCCESS
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`; fall back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
