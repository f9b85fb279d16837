//! CLI failure-path and fault-injection contract tests, run against the
//! real `fastmm` binary.
//!
//! The contract under test: every user mistake (bad flag, bad spec,
//! unreadable/unwritable path) dies with exit code 2 and a one-line
//! error on stderr — never a panic backtrace — and the fault-injection
//! commands report recovered products plus deterministic counters.

mod common;

use common::{assert_exit_2_clean, fastmm, scratch, stderr, stdout};

#[test]
fn unknown_flag_exits_2() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--polciy", "lru"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--polciy'"));
}

#[test]
fn unknown_command_exits_2() {
    let out = fastmm(&["frobnicate"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn dot_unwritable_out_exits_2_without_backtrace() {
    let out = fastmm(&["dot", "--n", "2", "--out", "/nonexistent-dir/h.dot"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot write"));
}

#[test]
fn metrics_unwritable_path_exits_2_before_running() {
    let out = fastmm(&[
        "io",
        "--n",
        "8",
        "--m",
        "64",
        "--metrics",
        "/nonexistent-dir/m.jsonl",
    ]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot open metrics path"));
    // Fail-fast: the command must not have run first.
    assert!(stdout(&out).is_empty(), "stdout: {}", stdout(&out));
}

#[test]
fn metrics_missing_value_exits_2() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--metrics"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--metrics expects a file path"));
}

#[test]
fn sweep_report_unreadable_file_exits_2() {
    let out = fastmm(&["sweep", "report", "--file", "/no/such/sweep.jsonl"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn sweep_diff_unreadable_file_exits_2() {
    let out = fastmm(&[
        "sweep",
        "diff",
        "--base",
        "/no/such/a.jsonl",
        "--cand",
        "/no/such/b.jsonl",
    ]);
    assert_exit_2_clean(&out);
}

#[test]
fn faults_bad_spec_exits_2() {
    let out = fastmm(&["faults", "--spec", "crash=2.0"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("probability outside [0,1]"));
}

#[test]
fn faults_bad_recovery_exits_2() {
    let out = fastmm(&["faults", "--recovery", "hope"]);
    assert_exit_2_clean(&out);
}

#[test]
fn faults_unknown_schedule_exits_2() {
    let out = fastmm(&["faults", "--schedule", "mesh"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown schedule"));
}

#[test]
fn io_faults_requires_flush_every() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--faults", "seed=3"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("flush-every"));
}

#[test]
fn faults_recovers_product_and_is_deterministic() {
    let args = [
        "faults",
        "--schedule",
        "cannon",
        "--n",
        "12",
        "--p",
        "3",
        "--spec",
        "seed=7,crash=0.1,drop=0.05,dup=0.02,retries=8",
        "--recovery",
        "checkpoint:2",
    ];
    let a = fastmm(&args);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    let text = stdout(&a);
    assert!(text.contains("matches fault-free run"), "{text}");
    assert!(text.contains("recovery words"), "{text}");
    // Identical invocation, identical counters — byte for byte.
    let b = fastmm(&args);
    assert_eq!(stdout(&b), text, "same seed must reproduce the same run");

    // Every schedule recovers the exact product under seeded faults.
    for schedule in ["cannon", "3d", "caps", "cannon-threaded"] {
        let out = fastmm(&[
            "faults",
            "--schedule",
            schedule,
            "--spec",
            "seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8",
        ]);
        assert_eq!(out.status.code(), Some(0), "{schedule}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("matches fault-free run"),
            "{schedule}: {}",
            stdout(&out)
        );
    }

    // So does checkpoint recovery from a forced crash late in the run.
    let out = fastmm(&[
        "faults",
        "--schedule",
        "cannon",
        "--n",
        "16",
        "--p",
        "4",
        "--spec",
        "seed=7,crash@5:3",
        "--recovery",
        "checkpoint:1",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("matches fault-free run"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn io_faults_reports_recovery_io() {
    let out = fastmm(&[
        "io",
        "--n",
        "16",
        "--m",
        "64",
        "--faults",
        "flush-every=512",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("matches fault-free run"), "{text}");
    assert!(text.contains("recovery I/O"), "{text}");
}

#[test]
fn non_numeric_flag_value_exits_2() {
    let out = fastmm(&["io", "--n", "eight", "--m", "64"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--n expects a number, got 'eight'"));
}

#[test]
fn flag_missing_its_numeric_value_exits_2() {
    // A trailing `--m` swallows no value, so the parser sees the boolean
    // placeholder — still a clean exit 2, not a panic.
    let out = fastmm(&["io", "--n", "8", "--m"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--m expects a number, got 'true'"));
}

#[test]
fn bounds_non_numeric_value_exits_2() {
    let out = fastmm(&["bounds", "--n", "x", "--p", "49"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--n expects a number, got 'x'"));
}

#[test]
fn loadgen_without_addr_exits_2_with_usage() {
    let out = fastmm(&["loadgen", "--conns", "2"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("--addr <host:port> is required"), "{err}");
    assert!(err.contains("usage: fastmm loadgen"), "{err}");
}

#[test]
fn loadgen_unknown_flag_exits_2() {
    let out = fastmm(&["loadgen", "--addr", "127.0.0.1:1", "--conn", "2"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--conn'"));
}

#[test]
fn serve_unknown_flag_exits_2() {
    let out = fastmm(&["serve", "--queue", "8"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--queue'"));
}

#[test]
fn serve_unbindable_addr_exits_2_with_usage() {
    let out = fastmm(&["serve", "--addr", "203.0.113.1:1"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("serve: cannot bind"), "{err}");
    assert!(err.contains("usage: fastmm serve"), "{err}");
}

#[test]
fn serve_non_numeric_queue_depth_exits_2() {
    let out = fastmm(&["serve", "--queue-depth", "deep"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--queue-depth expects a number"));
}

#[test]
fn sweep_injected_hang_times_out_and_sweep_continues() {
    let out_path = scratch("hang.jsonl");
    let _ = std::fs::remove_file(&out_path);
    let out = fastmm(&[
        "sweep",
        "run",
        "--spec",
        "smoke",
        "--out",
        out_path.to_str().unwrap(),
        "--max-cells",
        "2",
        "--jobs",
        "1",
        "--cell-timeout",
        "150",
        "--inject-hang",
        "0:10000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("1 timed out"), "{}", stdout(&out));

    // A crash mid-append tears the last line. Resume repairs the file and
    // re-runs the torn cell, the timed-out cell and the rest.
    let hang = out_path.to_str().unwrap();
    let text = std::fs::read(&out_path).expect("checkpoint written");
    std::fs::write(&out_path, &text[..text.len() - 7]).expect("tear last line");
    let resume = |path: &str| fastmm(&["sweep", "resume", "--spec", "smoke", "--out", path]);
    let out = resume(hang);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("0 remaining"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("torn trailing record"),
        "{}",
        stderr(&out)
    );

    // `sweep report` strictly re-parses every line of the repaired file.
    let text = std::fs::read_to_string(&out_path).expect("checkpoint readable");
    assert!(text.contains("\"schema\":\"fmm-sweep/v1\""), "{text}");
    let bench = scratch("sweep_bench.json");
    let out = fastmm(&[
        "sweep",
        "report",
        "--file",
        hang,
        "--bench",
        bench.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("bench summary written to"));

    // An interrupted clean run resumes by executing only the remainder.
    let clean_path = scratch("clean.jsonl");
    let clean = clean_path.to_str().unwrap();
    let _ = std::fs::remove_file(&clean_path);
    let out = fastmm(&[
        "sweep",
        "run",
        "--spec",
        "smoke",
        "--out",
        clean,
        "--max-cells",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let out = resume(clean);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("2 skipped, 0 remaining"),
        "{}",
        stdout(&out)
    );

    // Same seed: the repaired and the clean run agree cell for cell.
    let out = fastmm(&["sweep", "diff", "--base", hang, "--cand", clean]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("no regressions"), "{}", stdout(&out));

    for p in [&out_path, &bench, &clean_path] {
        let _ = std::fs::remove_file(p);
    }
}
