//! Binary-level contract for `fastmm serve` + `fastmm loadgen`: the two
//! subcommands must compose from the shell — ephemeral port printed on
//! stdout, seeded loadgen summary on one line, graceful shutdown with
//! balanced counters and exit code 0, flushed `serve_*` metrics and span
//! trees in the JSONL file, and the same summary for the same seed.

mod common;

use common::{fastmm, fastmm_cmd, read_banner, scratch, stdout};
use std::process::{Child, Stdio};

/// Start `fastmm serve`, parse the advertised ephemeral address off its
/// first stdout line, and hand back (child, addr).
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args(["serve", "--queue-depth", "32", "--workers", "4"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm serve");
    let addr = read_banner(&mut child);
    (child, addr)
}

/// The seeded 2x40 chaos run with a 48-job burst, ending in `--shutdown`.
fn burst_loadgen(addr: &str) -> std::process::Output {
    fastmm(&[
        "loadgen",
        "--addr",
        addr,
        "--conns",
        "2",
        "--requests",
        "40",
        "--seed",
        "7",
        "--burst",
        "48",
        "--shutdown",
    ])
}

#[test]
fn serve_and_loadgen_compose_from_the_shell() {
    let metrics = scratch("serve_metrics.jsonl");
    let _ = std::fs::remove_file(&metrics);
    let (mut server, addr) = spawn_server(&["--metrics", metrics.to_str().unwrap()]);

    let load = burst_loadgen(&addr);
    let summary = String::from_utf8_lossy(&load.stdout);
    assert_eq!(
        load.status.code(),
        Some(0),
        "loadgen failed\nstdout: {summary}\nstderr: {}",
        String::from_utf8_lossy(&load.stderr)
    );
    // One-line JSON summary with the no-lost-jobs invariant visible.
    let line = summary.trim();
    assert!(
        !line.contains('\n'),
        "summary must be a single line: {summary}"
    );
    assert!(line.contains("\"lost\":0"), "{line}");
    assert!(line.contains("\"ok\":1"), "{line}");
    // The paused burst against a depth-32 queue sheds exactly 48 - 32.
    assert!(line.contains("\"burst_shed\":16"), "{line}");

    // The --shutdown handshake must leave the server drained: exit 0 and
    // a balanced final-counters line on stdout.
    let status = server.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "server must drain and exit 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained line");
    assert!(rest.contains("fastmm serve drained: accepted="), "{rest}");

    // Counters survived the drain into the metrics file.
    let flushed = std::fs::read_to_string(&metrics).expect("metrics flushed");
    for key in [
        "serve_accepted",
        "serve_completed",
        "serve_shed",
        "serve_latency_us",
    ] {
        assert!(flushed.contains(key), "metrics missing {key}:\n{flushed}");
    }

    // Every job's span tree reconstructs from the same file.
    let traces = fastmm(&[
        "report",
        "--traces",
        metrics.to_str().unwrap(),
        "--top",
        "5",
    ]);
    assert_eq!(traces.status.code(), Some(0), "report --traces failed");
    let traces = stdout(&traces);
    assert!(traces.contains("slowest traces (top 5 of"), "{traces}");
    assert!(traces.contains("job."), "no job.<kind> spans:\n{traces}");
    let _ = std::fs::remove_file(&metrics);

    // Same seed, fresh server: the summary line reproduces exactly.
    let (mut server2, addr2) = spawn_server(&[]);
    let load2 = burst_loadgen(&addr2);
    assert_eq!(load2.status.code(), Some(0));
    assert_eq!(
        stdout(&load2).trim(),
        line,
        "serve loadgen summary must be seed-reproducible"
    );
    assert_eq!(server2.wait().expect("server2 exits").code(), Some(0));
}

#[test]
fn loadgen_exits_nonzero_when_the_server_vanishes() {
    // A server that is shut down out from under the client: whatever the
    // failure mode, loadgen must not report success.
    let (mut server, addr) = spawn_server(&[]);
    server.kill().expect("kill server");
    server.wait().expect("reap server");
    let load = fastmm(&[
        "loadgen",
        "--addr",
        &addr,
        "--conns",
        "1",
        "--requests",
        "5",
    ]);
    assert_ne!(load.status.code(), Some(0), "lost replies must fail loudly");
}
