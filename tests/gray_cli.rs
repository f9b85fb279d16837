//! Binary-level contract for the gray-failure resilience layer: the
//! seeded chaos link layer, latency-outlier ejection with probation
//! readmission, and hedged requests under the fleet retry budget.
//!
//! The narrative, end to end in one process tree:
//!   1. a 3-shard fleet comes up with `--chaos-link` browning out shard
//!      0's reply link (a constant per-reply delay — the shard answers
//!      health probes perfectly, which is what makes the failure gray);
//!   2. a seeded loadgen run (840 requests) fires a `stall-shard` verb
//!      mid-run, freezing the victim's link entirely for a window;
//!   3. the run ends with `lost: 0`, the fleet conservation law AND the
//!      hedge conservation law balanced at drain, the browned-out shard
//!      ejected then re-admitted, and hedges actually winning;
//!   4. the same seed with hedging disabled yields a visibly worse
//!      client-observed p95 — hedging pays for its duplicate work;
//!   5. a same-seed rerun reproduces the loadgen summary byte for byte
//!      once the documented timing-dependent counters are masked.

mod common;

use common::{fastmm, fastmm_cmd, mask_timing_counters, read_banner, stderr, stdout, stdout_field};
use fastmm::serve::proto::{Kind, Request, Response, Status};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Stdio};

/// Spawn a gray fleet: shard 0's reply link delayed 250ms per reply.
/// `hedge` toggles hedging (auto-p95 delay vs off) — everything else,
/// including the chaos seed, stays fixed.
fn spawn_gray_fleet(hedge: bool) -> (Child, String) {
    let mut args = vec![
        "fleet",
        "--shards",
        "3",
        "--seed",
        "7",
        "--probe-interval-ms",
        "30",
        "--chaos-link",
        "seed=7,delay-ms=250@shard0",
        // Short enough that an optimized build's run outlasts it: the
        // browned-out shard is re-admitted, and it is routable long
        // enough for the unhedged run's tail to show the gray link.
        "--eject-probation-ms",
        "400",
        // A full budget keeps the p95 comparison below deterministic:
        // a tight budget denies a timing-dependent subset of hedges,
        // which swings the hedged run's p95 by whole link-delays.
        "--retry-budget-pct",
        "100",
    ];
    if !hedge {
        args.extend(["--hedge-ms", "0"]);
    }
    let mut child = fastmm_cmd()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm fleet");
    let addr = read_banner(&mut child);
    (child, addr)
}

/// 6 connections x 140 requests = 840 seeded requests, with one
/// `stall-shard` verb fired after 100 sends and a drain at the end.
fn gray_loadgen(addr: &str) -> std::process::Output {
    fastmm(&[
        "loadgen",
        "--fleet",
        "--addr",
        addr,
        "--conns",
        "6",
        "--requests",
        "140",
        "--seed",
        "7",
        "--stall-shard-after",
        "100",
        "--shutdown",
    ])
}

/// Pull `p95_us=<n>` out of the loadgen's stderr latency line.
fn stderr_p95(stderr: &str) -> u64 {
    stdout_field(
        stderr
            .lines()
            .find(|l| l.starts_with("loadgen latency:"))
            .unwrap_or_else(|| panic!("no latency line in {stderr}")),
        "p95_us",
    )
}

struct GrayRun {
    summary: String,
    p95_us: u64,
    fleet_stdout: String,
}

/// One full fleet + loadgen pass; asserts the invariants every run must
/// uphold (zero loss, both conservation laws) and returns the artifacts
/// the cross-run comparisons need.
fn one_gray_pass(hedge: bool) -> GrayRun {
    let (mut fleet, addr) = spawn_gray_fleet(hedge);
    let load = gray_loadgen(&addr);
    let summary = stdout(&load).trim().to_string();
    let load_stderr = stderr(&load);
    assert_eq!(
        load.status.code(),
        Some(0),
        "gray loadgen failed\nstdout: {summary}\nstderr: {load_stderr}"
    );
    assert!(summary.contains("\"sent\":840"), "{summary}");
    assert!(summary.contains("\"lost\":0"), "{summary}");
    assert!(summary.contains("\"mismatched\":0"), "{summary}");
    assert!(summary.contains("\"stalled\":1"), "{summary}");
    assert!(summary.contains("\"ok\":1"), "{summary}");

    // The fleet drains to exit 0 only if its own conservation check —
    // including the hedge law — passed.
    let status = fleet.wait().expect("fleet exits");
    assert_eq!(status.code(), Some(0), "fleet must drain and exit 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut fleet.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    assert_eq!(
        stdout_field(&rest, "accepted"),
        stdout_field(&rest, "completed")
            + stdout_field(&rest, "errored")
            + stdout_field(&rest, "cancelled")
            + stdout_field(&rest, "deadline_exceeded"),
        "fleet conservation law violated: {rest}"
    );
    assert_eq!(
        stdout_field(&rest, "hedges_launched"),
        stdout_field(&rest, "hedges_won")
            + stdout_field(&rest, "hedges_lost")
            + stdout_field(&rest, "hedges_cancelled"),
        "hedge conservation law violated: {rest}"
    );

    // The browned-out shard was ejected as a latency outlier and, once
    // its probation passed, re-admitted by a clean probe.
    assert!(
        stdout_field(&rest, "ejections") >= 1,
        "no ejection despite a 250ms gray link: {rest}"
    );
    assert!(
        stdout_field(&rest, "readmissions") >= 1,
        "ejected shard never re-admitted: {rest}"
    );

    GrayRun {
        summary,
        p95_us: stderr_p95(&load_stderr),
        fleet_stdout: rest,
    }
}

#[test]
fn gray_fleet_survives_stall_with_hedging_ejection_and_zero_loss() {
    let hedged = one_gray_pass(true);
    assert!(
        stdout_field(&hedged.fleet_stdout, "hedges_launched") >= 1,
        "auto-p95 hedging never fired: {}",
        hedged.fleet_stdout
    );
    assert!(
        stdout_field(&hedged.fleet_stdout, "hedges_won") >= 1,
        "no hedge ever won against a 250ms link delay: {}",
        hedged.fleet_stdout
    );
    assert!(hedged.summary.contains("\"hedged\":"), "{}", hedged.summary);

    // Same seed, hedging off: every request caught by the gray link
    // waits out the full delay, so the client-observed p95 must be
    // visibly worse than the hedged run's (~40-200ms vs ~0.5-1.5s on a
    // 2-vCPU host, optimized or debug; the strict `<` keeps the
    // assertion robust to machine speed).
    let unhedged = one_gray_pass(false);
    assert_eq!(
        stdout_field(&unhedged.fleet_stdout, "hedges_launched"),
        0,
        "--hedge-ms 0 must disable hedging: {}",
        unhedged.fleet_stdout
    );
    assert!(
        hedged.p95_us < unhedged.p95_us,
        "hedging must improve tail latency: hedged p95 {}us vs unhedged {}us",
        hedged.p95_us,
        unhedged.p95_us
    );

    // Same-seed rerun of the full stall-eject-hedge-readmit sequence:
    // byte-identical once the three documented timing-dependent
    // counters are masked — every status is a pure function of the
    // request spec, and no idempotency key ever settles twice.
    let rerun = one_gray_pass(true);
    assert_eq!(
        mask_timing_counters(&hedged.summary),
        mask_timing_counters(&rerun.summary),
        "same-seed gray rerun must reproduce the client-observed summary"
    );
}

#[test]
fn stall_shard_verb_requires_a_chaos_fleet() {
    // A fleet WITHOUT --chaos-link must refuse the stall-shard verb
    // over the wire with a one-line reason, not wedge or oblige.
    let mut child = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fleet");
    let addr = read_banner(&mut child);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = Request::new("s1", Kind::StallShard).to_line();
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send stall-shard");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    let resp = Response::parse(reply.trim_end()).expect("reply parses");
    assert_eq!(resp.status, Status::Error, "reply: {resp:?}");
    assert!(
        resp.reason.contains("--chaos-link"),
        "the refusal must point at the missing flag: {}",
        resp.reason
    );

    let mut stop = Request::new("stop", Kind::Shutdown).to_line();
    stop.push('\n');
    writer.write_all(stop.as_bytes()).expect("send shutdown");
    reader.read_line(&mut String::new()).expect("read ack");
    assert_eq!(child.wait().expect("fleet exits").code(), Some(0));
}

#[test]
fn gray_flags_fail_fast_with_exit_2_and_one_line_errors() {
    // Malformed --chaos-link grammar.
    let out = fastmm(&["fleet", "--shards", "2", "--chaos-link", "delay-ms=banana"]);
    assert_eq!(out.status.code(), Some(2), "bad chaos-link spec");
    assert!(
        stderr(&out).contains("--chaos-link"),
        "stderr must name the offending flag"
    );

    // --chaos-link stall-after without a site is ambiguous.
    let out = fastmm(&["fleet", "--shards", "2", "--chaos-link", "stall-after=40"]);
    assert_eq!(out.status.code(), Some(2), "siteless stall-after");

    // A retry budget over 100% of accepted is nonsense.
    let out = fastmm(&["fleet", "--shards", "2", "--retry-budget-pct", "101"]);
    assert_eq!(out.status.code(), Some(2), "retry budget over 100");
    assert!(
        stderr(&out).contains("--retry-budget-pct"),
        "stderr must name the offending flag"
    );

    // An ejection threshold at or below 1x the median would eject the
    // median itself.
    let out = fastmm(&["fleet", "--shards", "2", "--eject-k", "0.5"]);
    assert_eq!(out.status.code(), Some(2), "eject-k below 1");

    // --stall-shard-after is a fleet chaos flag.
    let out = fastmm(&[
        "loadgen",
        "--addr",
        "127.0.0.1:1",
        "--stall-shard-after",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(2), "needs --fleet");
    assert!(
        stderr(&out).contains("--fleet"),
        "stderr must point at the missing flag"
    );
}
