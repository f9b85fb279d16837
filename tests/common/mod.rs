//! Helpers shared by the CLI contract tests: spawning the real `fastmm`
//! binary, reading the `serve`/`fleet` listening banner, and pulling
//! counters out of the one-line summaries the subcommands print.
//!
//! Each test binary compiles this module separately and uses only part
//! of it, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output};

pub fn fastmm_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
}

/// Run `fastmm args…` to completion and capture its output.
pub fn fastmm(args: &[&str]) -> Output {
    fastmm_cmd().args(args).output().expect("spawn fastmm")
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-process scratch path in the system temp directory.
pub fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fastmm_test_{}_{name}", std::process::id()))
}

/// A user mistake must die with exit code 2 and a one-line explanation
/// on stderr, never a panic backtrace.
#[track_caller]
pub fn assert_exit_2_clean(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
    let err = stderr(out);
    assert!(
        !err.contains("panicked"),
        "expected a clean error, got a panic:\n{err}"
    );
    assert!(!err.trim().is_empty(), "exit 2 must explain itself");
}

/// Read the first stdout line of a spawned `fastmm serve` or `fastmm
/// fleet` — `fastmm serve listening on ADDR` or `fastmm fleet listening
/// on ADDR (N shards)` — and return ADDR.
pub fn read_banner(child: &mut Child) -> String {
    let mut first = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read listening line");
    let addr = ["fastmm serve listening on ", "fastmm fleet listening on "]
        .iter()
        .find_map(|prefix| first.trim().strip_prefix(prefix))
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"));
    addr.split(" (").next().unwrap().to_string()
}

/// Pull `key=<n>` out of a drained `fastmm fleet` stdout line.
pub fn stdout_field(text: &str, key: &str) -> u64 {
    let tag = format!("{key}=");
    let at = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    text[at + tag.len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not numeric in {text}"))
}

/// Pull `"key":"<n>"` out of the server counters embedded in a loadgen
/// summary line.
pub fn summary_counter(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":\"");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + tag.len()..]
        .split('"')
        .next()
        .unwrap()
        .parse()
        .expect("counter parses")
}

/// Mask the loadgen summary's documented timing-dependent counters
/// (`hedged`, `ejected_observed`, `retry_budget_exhausted`) so the rest
/// of the JSON line can be compared byte for byte across same-seed runs.
pub fn mask_timing_counters(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["hedged", "ejected_observed", "retry_budget_exhausted"] {
        let tag = format!("\"{key}\":");
        let at = out
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {out}"));
        let start = at + tag.len();
        let end = start
            + out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("counter is followed by a delimiter");
        out.replace_range(start..end, "_");
    }
    out
}
