//! Binary-level contract for `fastmm fleet` + `fastmm loadgen --fleet`:
//! the chaos acceptance run of the routed fleet. A router over three
//! spawned shards takes 1040 requests from eight connections while one
//! shard is SIGKILLed mid-run; the run must lose zero replies, keep the
//! fleet conservation law balanced, drain to exit 0, leave router and
//! shard metrics whose merged span trees show the fleet hop, and
//! reproduce the same summary for the same seed.

mod common;

use common::{fastmm, fastmm_cmd, read_banner, scratch, stderr, stdout, summary_counter};
use std::process::{Child, Stdio};

/// Start `fastmm fleet`, parse the advertised router address off its
/// first stdout line, and hand back (child, addr).
fn spawn_fleet(extra: &[&str]) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--shards",
            "3",
            "--queue-depth",
            "32",
            "--workers",
            "2",
            "--seed",
            "7",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm fleet");
    let addr = read_banner(&mut child);
    (child, addr)
}

fn chaos_loadgen(addr: &str) -> std::process::Output {
    fastmm(&[
        "loadgen",
        "--fleet",
        "--addr",
        addr,
        "--conns",
        "8",
        "--requests",
        "130",
        "--seed",
        "7",
        "--kill-shard-after",
        "40",
        "--shutdown",
    ])
}

/// One kill-a-shard run against a fresh fleet started with `extra`
/// flags. Asserts zero loss, the kill, the drain and the conservation
/// law; returns the loadgen summary line.
fn kill_a_shard_run(extra: &[&str]) -> String {
    let (mut fleet, addr) = spawn_fleet(extra);
    let load = chaos_loadgen(&addr);
    let line = stdout(&load).trim().to_string();
    assert_eq!(
        load.status.code(),
        Some(0),
        "chaos loadgen failed\nstdout: {line}\nstderr: {}",
        stderr(&load)
    );

    // 8 conns x 130 requests, one shard SIGKILLed mid-run: every request
    // got a reply, the kill verb fired exactly once, nothing mismatched.
    assert!(line.contains("\"sent\":1040"), "{line}");
    assert!(line.contains("\"lost\":0"), "{line}");
    assert!(line.contains("\"mismatched\":0"), "{line}");
    assert!(line.contains("\"killed\":1"), "{line}");
    assert!(line.contains("\"ok\":1"), "{line}");

    // The fleet drains to exit 0 (its own balance asserts ran) and
    // reports both the router counters and the per-shard ack roll-up.
    let status = fleet.wait().expect("fleet exits");
    assert_eq!(status.code(), Some(0), "fleet must drain and exit 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut fleet.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    assert!(rest.contains("shards_killed=1"), "{rest}");
    assert!(rest.contains("fastmm fleet shards: acked=2/3"), "{rest}");

    // The shutdown ack embedded in the summary is the router's final
    // core counters: check the conservation law right off the wire.
    let counter = |key: &str| summary_counter(&line, key);
    let accepted = counter("accepted");
    let settled = counter("completed")
        + counter("errored")
        + counter("cancelled")
        + counter("deadline_exceeded");
    assert_eq!(accepted, settled, "fleet conservation law violated: {line}");
    line
}

#[test]
fn kill_a_shard_chaos_run_loses_nothing_and_reproduces() {
    // The default 10% retry budget, with router and shard metrics on.
    let router_metrics = scratch("router.jsonl");
    let shard_dir = scratch("shards");
    let _ = std::fs::remove_dir_all(&shard_dir);
    kill_a_shard_run(&[
        "--metrics",
        router_metrics.to_str().unwrap(),
        "--shard-metrics-dir",
        shard_dir.to_str().unwrap(),
    ]);

    // Router spans parent the shards' job spans across the process
    // boundary once the files are merged.
    let merged = scratch("merged.jsonl");
    let mut text = std::fs::read_to_string(&router_metrics).expect("router metrics");
    for entry in std::fs::read_dir(&shard_dir).expect("shard metrics dir") {
        text += &std::fs::read_to_string(entry.expect("dir entry").path()).expect("shard metrics");
    }
    std::fs::write(&merged, text).expect("write merged metrics");
    let traces = fastmm(&["report", "--traces", merged.to_str().unwrap(), "--top", "5"]);
    assert_eq!(traces.status.code(), Some(0), "report --traces failed");
    let traces = stdout(&traces);
    assert!(traces.contains("slowest traces (top 5 of"), "{traces}");
    assert!(
        traces.contains("route."),
        "no route.<kind> spans:\n{traces}"
    );
    assert!(traces.contains("job."), "no job.<kind> spans:\n{traces}");
    let _ = std::fs::remove_file(&router_metrics);
    let _ = std::fs::remove_file(&merged);
    let _ = std::fs::remove_dir_all(&shard_dir);

    // Same seed, fresh fleet: the summary line reproduces exactly. A
    // full budget never runs out here, so no re-dispatch is shed; under
    // the default budget whether one is depends on how many attempts
    // reach the killed shard before it is marked down.
    let full_budget = ["--retry-budget-pct", "100"];
    let first = kill_a_shard_run(&full_budget);
    assert!(first.contains("\"retry_budget_exhausted\":0"), "{first}");
    let second = kill_a_shard_run(&full_budget);
    assert_eq!(first, second, "chaos summary must be seed-reproducible");
}

#[test]
fn fleet_rejects_bad_flags_with_exit_2() {
    let out = fastmm(&["fleet", "--shards", "0"]);
    assert_eq!(out.status.code(), Some(2), "bad flag must exit 2");
    assert!(
        stderr(&out).contains("--shards must be at least 1"),
        "stderr must say what was wrong"
    );

    let out = fastmm(&[
        "loadgen",
        "--addr",
        "127.0.0.1:1",
        "--kill-shard-after",
        "5",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--kill-shard-after without --fleet must exit 2"
    );
}
