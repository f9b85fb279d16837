//! Binary-level contract for the self-healing fleet: supervised shard
//! respawn, the crash-loop breaker, and a router SIGKILL survived via
//! the write-ahead journal.
//!
//! The narrative, end to end in one process tree:
//!   1. a supervised, journaled fleet of three shards comes up;
//!   2. shard 1 is SIGKILLed twice — the supervisor respawns it at the
//!      same ring index both times (`restarts` climbs);
//!   3. a third rapid SIGKILL trips the crash-loop breaker — shard 1 is
//!      quarantined, not respawned (`breaker_open=1`);
//!   4. a loadgen run with seeded reconnects SIGKILLs the *router*
//!      mid-run via the `kill-router` verb; the test relaunches
//!      `fastmm fleet --resume <journal>` on the same address, clients
//!      reconnect and re-send, and the run ends with `lost: 0` and the
//!      conservation law balanced at the resumed router's drain;
//!   5. the whole sequence rerun under the same seed reproduces the
//!      client-observed loadgen summary byte for byte.

mod common;

use common::{fastmm, fastmm_cmd, read_banner, stderr, stdout, stdout_field, summary_counter};
use fastmm::serve::proto::{Kind, Request, Response, Status};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn spawn_fleet(journal: &str) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--shards",
            "3",
            "--seed",
            "7",
            "--supervise",
            "--probe-interval-ms",
            "30",
            "--breaker-k",
            "3",
            "--breaker-window-ms",
            "60000",
            "--journal",
            journal,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm fleet");
    let addr = read_banner(&mut child);
    (child, addr)
}

fn spawn_resume(journal: &str, addr: &str) -> Child {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--resume",
            journal,
            "--addr",
            addr,
            "--supervise",
            "--probe-interval-ms",
            "30",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm fleet --resume");
    let resumed_addr = read_banner(&mut child);
    assert_eq!(resumed_addr, addr, "resume must rebind the same address");
    child
}

struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn connect(addr: &str) -> Control {
        let writer = TcpStream::connect(addr).expect("connect control");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Control { writer, reader }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        assert!(
            self.reader.read_line(&mut reply).expect("recv") > 0,
            "router hung up on a control verb"
        );
        Response::parse(reply.trim_end()).expect("reply parses")
    }

    fn wait_for(
        &mut self,
        what: &str,
        pred: impl Fn(&std::collections::BTreeMap<String, String>) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut i = 0u32;
        loop {
            let resp = self.roundtrip(&Request::new(&format!("fs{i}"), Kind::FleetStats));
            assert_eq!(resp.status, Status::Ok, "fleet-stats: {resp:?}");
            if pred(&resp.result) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}; last stats: {:?}",
                resp.result
            );
            i += 1;
            thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Phase 1: two SIGKILLs of shard 1 are healed, the third is quarantined.
fn crash_loop_shard_one(addr: &str) {
    let mut control = Control::connect(addr);
    for round in 1..=2u32 {
        let killed = control.roundtrip(
            &Request::new(&format!("ks{round}"), Kind::KillShard).with_param("shard", "1"),
        );
        assert_eq!(killed.status, Status::Ok, "kill-shard: {killed:?}");
        control.wait_for("respawn", |m| {
            m.get("shard1_state").map(String::as_str) == Some("healthy")
                && m.get("restarts").map(String::as_str) == Some(&round.to_string() as &str)
        });
    }
    let killed = control.roundtrip(&Request::new("ks3", Kind::KillShard).with_param("shard", "1"));
    assert_eq!(killed.status, Status::Ok, "kill-shard: {killed:?}");
    control.wait_for("breaker", |m| {
        m.get("shard1_state").map(String::as_str) == Some("quarantined")
            && m.get("breaker_open").map(String::as_str) == Some("1")
    });
}

fn chaos_loadgen(addr: &str) -> std::process::Output {
    fastmm(&[
        "loadgen",
        "--fleet",
        "--addr",
        addr,
        "--conns",
        "6",
        "--requests",
        "80",
        "--seed",
        "7",
        "--reconnect",
        "12",
        "--kill-router-after",
        "120",
        "--shutdown",
    ])
}

/// One full kill-heal-quarantine-kill-resume pass; returns the
/// client-observed loadgen summary (the part of the JSON line before the
/// embedded server counters, which legitimately depend on *when* the
/// router died relative to each in-flight request).
fn one_chaos_pass(dir: &std::path::Path, tag: &str) -> String {
    let journal = dir.join(format!("journal-{tag}.jsonl"));
    let journal = journal.to_str().expect("utf8").to_string();
    let (mut fleet, addr) = spawn_fleet(&journal);
    crash_loop_shard_one(&addr);

    let load_addr = addr.clone();
    let load = thread::spawn(move || chaos_loadgen(&load_addr));

    // kill-router SIGKILLs the fleet process mid-run; wait() observes
    // the death (a signal, not an exit code), then the resume relaunch
    // rebinds the same address for the reconnecting loadgen workers.
    let died = fleet.wait().expect("wait on killed fleet");
    assert_eq!(died.code(), None, "the router must die by signal, not exit");
    let mut resumed = spawn_resume(&journal, &addr);

    let load = load.join().expect("loadgen thread");
    let summary = stdout(&load).trim().to_string();
    assert_eq!(
        load.status.code(),
        Some(0),
        "chaos loadgen failed\nstdout: {summary}\nstderr: {}",
        stderr(&load)
    );
    assert!(summary.contains("\"sent\":480"), "{summary}");
    assert!(summary.contains("\"lost\":0"), "{summary}");
    assert!(summary.contains("\"mismatched\":0"), "{summary}");
    assert!(summary.contains("\"router_killed\":1"), "{summary}");
    assert!(summary.contains("\"ok\":1"), "{summary}");

    // The resumed router drains to exit 0: its own conservation check
    // (router-level and per acked shard) ran and passed.
    let status = resumed.wait().expect("resumed fleet exits");
    assert_eq!(
        status.code(),
        Some(0),
        "resumed fleet must drain and exit 0"
    );
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut resumed.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    let field = |key: &str| stdout_field(&rest, key);
    assert_eq!(
        field("accepted"),
        field("completed") + field("errored") + field("cancelled") + field("deadline_exceeded"),
        "conservation law violated across the router SIGKILL: {rest}"
    );
    assert!(
        field("journal_replayed") > 0,
        "resume must have replayed journal records: {rest}"
    );

    // Conservation straight off the wire too: the shutdown ack embedded
    // in the summary carries the resumed router's final core counters.
    let counter = |key: &str| summary_counter(&summary, key);
    assert_eq!(
        counter("accepted"),
        counter("completed")
            + counter("errored")
            + counter("cancelled")
            + counter("deadline_exceeded"),
        "wire conservation law violated: {summary}"
    );

    summary
        .split(",\"server\"")
        .next()
        .expect("summary prefix")
        .to_string()
}

#[test]
fn crash_loop_and_router_kill_survive_with_zero_loss_and_reproduce() {
    let dir = std::env::temp_dir().join(format!("fmm-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    let first = one_chaos_pass(&dir, "a");
    // Every status in the mix is a pure function of the request spec, so
    // the client-observed summary reproduces even though the router was
    // SIGKILLed at a scheduler-dependent instant.
    let second = one_chaos_pass(&dir, "b");
    assert_eq!(
        first, second,
        "same-seed chaos rerun must reproduce the client-observed summary"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_rejects_inconsistent_chaos_flags_with_exit_2() {
    // --kill-router-after without --fleet.
    let out = fastmm(&[
        "loadgen",
        "--addr",
        "127.0.0.1:1",
        "--kill-router-after",
        "5",
        "--reconnect",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2), "needs --fleet");

    // --kill-router-after without a reconnect budget can only lose.
    let out = fastmm(&[
        "loadgen",
        "--fleet",
        "--addr",
        "127.0.0.1:1",
        "--kill-router-after",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(2), "needs --reconnect");
    assert!(
        stderr(&out).contains("--reconnect"),
        "stderr must point at the missing flag"
    );

    // --resume with --attach is contradictory.
    let out = fastmm(&[
        "fleet",
        "--resume",
        "/nonexistent/journal.jsonl",
        "--attach",
        "127.0.0.1:1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--resume + --attach must exit 2"
    );

    // --resume on a journal that doesn't exist fails loudly, not silently
    // starting an empty fleet.
    let out = fastmm(&["fleet", "--resume", "/nonexistent/journal.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "missing journal must exit 2");
}
