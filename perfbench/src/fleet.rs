//! `fleet-cheap` and `fleet-kernel`: load against the release `fastmm
//! fleet` (2 shards × 1 worker, `--journal`, `--supervise`).
//!
//! A run spawns several fleets in turn. Each is timed from spawn until
//! the router and every shard answer `health` (`setup_s`) and then
//! serves an equal share of closed-loop batches (`p50_ms` is the median
//! batch time): two connections, one thread each, keep a fixed number of
//! requests outstanding and send the next as replies free slots. A
//! saturated fleet keeps both cores busy, so the batch time follows the
//! fleet's CPU cost per request rather than how fast the host wakes an
//! idle virtual CPU, which moves sub-millisecond latencies by several
//! times on a shared host.
//!
//! The traced run adds the open-loop measurements: one connection driven
//! by two threads, the sender writing each request at its precomputed,
//! seeded schedule time and the receiver timestamping every reply, with
//! latency measured from the *scheduled* send time so a late sender
//! cannot hide queueing (`req_p50_ms`, `req_p99_ms`); a fixed ladder of
//! absolute rates that stops at the first step missing the SLO
//! (`slo_rps`, the interpolated rate at which p99 crosses it); and the
//! attribution phases. The program under test only ever sees the
//! request lines.
//!
//! Oracles: every request gets a `completed` reply whose result equals a
//! direct `JobSpec::run` of the same spec (`wall_us` aside), and the
//! fleet's drained counters satisfy both conservation laws.

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Recorder;
use crate::{sys, Ctx, Outcome};
use fmm_router::journal::{Journal, Record};
use fmm_router::ring::{spec_hash, Ring};
use fmm_serve::jobs::JobSpec;
use fmm_serve::proto::{Kind, Request, Response, Status};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `bounds` and `io` (n = 8, M = 64) jobs: execution is tiny, so the
    /// router, the protocol and the socket hops set latency.
    Cheap,
    /// `kernel` jobs, n ∈ {64, 128, 256}, classical or Strassen, a unique
    /// seed each: queue wait and execution set latency.
    Kernel,
}

/// The fixed load shape of a workload. Set once from the code this
/// benchmark was introduced against; never re-calibrated per run.
struct Shape {
    /// Requests per closed-loop batch (a whole number of job-class
    /// blocks, so every batch offers the same mix).
    batch: usize,
    /// Requests a batch keeps outstanding.
    window: usize,
    /// Offered rate of the traced run's open-loop phase, req/s.
    nominal_rps: f64,
    /// p99 latency objective for the ladder, ms.
    slo_ms: f64,
    /// Absolute offered rates, req/s, ascending.
    ladder: &'static [f64],
}

const CHEAP: Shape = Shape {
    batch: 4000,
    window: 128,
    nominal_rps: 3000.0,
    slo_ms: 50.0,
    ladder: &[
        2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 10000.0, 12000.0, 14000.0,
    ],
};

const KERNEL: Shape = Shape {
    batch: 120,
    window: 8,
    nominal_rps: 100.0,
    slo_ms: 100.0,
    ladder: &[
        50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 500.0, 600.0, 800.0,
    ],
};

const SHARDS: usize = 2;
/// Connections of a closed-loop batch, one thread each.
const CONNS: usize = 2;
/// Deep enough that the ladder's overloaded step queues instead of
/// shedding: overload shows as latency, and every request completes.
const QUEUE_DEPTH: usize = 4096;
/// Fleets per run. Each is timed to all-healthy (set-up) and serves an
/// equal share of the batches, so one unlucky fleet instance cannot move
/// the median.
const SETUPS: usize = 5;
/// Fleets started and drained again before each of those, timed for
/// set-up only, so `setup_s` is a median of `SETUPS × (1 + this)`.
const EXTRA_SETUPS: usize = 2;
/// Share of `--seconds` spent on the closed-loop batches.
const BATCH_SHARE: f64 = 0.9;
/// Batches the traced run repeats with spans recorded.
const TRACED_BATCHES: usize = 5;
/// Length of the traced run's open-loop phase, as a share of `--seconds`.
const OPEN_SHARE: f64 = 0.5;
/// Length of one ladder step, as a share of `--seconds`.
const STEP_SHARE: f64 = 0.1;
/// An open-loop phase is marked invalid when the generator's send
/// lateness p99 exceeds this share of the SLO: it did not offer the load
/// it claims.
const LATE_SHARE: f64 = 0.2;
/// Per-request deadline: generous, so only a wedged job can miss it.
const DEADLINE_MS: u64 = 30_000;
/// How long to wait for stragglers after the last scheduled send.
const DRAIN_WAIT: Duration = Duration::from_secs(30);

impl Mix {
    fn shape(self) -> &'static Shape {
        match self {
            Mix::Cheap => &CHEAP,
            Mix::Kernel => &KERNEL,
        }
    }
}

/// A splitmix64 stream: the request generator's only source of
/// randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let z = fmm_faults::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }

    /// The numbers `0..k` in a seeded order (Fisher–Yates).
    fn shuffled(&mut self, k: usize) -> Vec<usize> {
        let mut xs: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        xs
    }
}

/// Job classes of a mix: `bounds` or `io` for `Cheap`; (algorithm, n)
/// for `Kernel`.
const CHEAP_CLASSES: usize = 2;
const KERNEL_CLASSES: [(&str, u64); 6] = [
    ("classical", 64),
    ("classical", 128),
    ("classical", 256),
    ("strassen", 64),
    ("strassen", 128),
    ("strassen", 256),
];

/// `count` seeded requests for one phase, ids `<tag>-<i>`. The job
/// classes come in seeded blocks that hold each class once, so every
/// seed offers the same mix and only the order and parameters vary: the
/// median of a mixture sits between clusters, and class shares that
/// drift with the seed would move it.
fn requests(mix: Mix, rng: &mut Rng, tag: &str, count: usize) -> Vec<Request> {
    let classes = match mix {
        Mix::Cheap => CHEAP_CLASSES,
        Mix::Kernel => KERNEL_CLASSES.len(),
    };
    let mut order = Vec::with_capacity(count + classes);
    while order.len() < count {
        order.extend(rng.shuffled(classes));
    }
    order
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(i, class)| {
            let id = format!("{tag}-{i}");
            let req = match mix {
                Mix::Cheap if class == 0 => Request::new(&id, Kind::Bounds)
                    .with_param("n", &(1u64 << rng.pick(&[6, 8, 10, 12, 14])).to_string())
                    .with_param("m", &(1u64 << rng.pick(&[4, 6, 8, 10, 12])).to_string())
                    .with_param("p", &rng.pick(&[1, 7, 49]).to_string()),
                Mix::Cheap => Request::new(&id, Kind::Io)
                    .with_param("alg", rng.pick(&["strassen", "classical"]))
                    .with_param("n", "8")
                    .with_param("m", "64")
                    .with_param("seed", &(rng.next() % 1_000_000).to_string()),
                Mix::Kernel => Request::new(&id, Kind::Kernel)
                    .with_param("alg", KERNEL_CLASSES[class].0)
                    .with_param("n", &KERNEL_CLASSES[class].1.to_string())
                    .with_param("threads", "1")
                    .with_param("seed", &(rng.next() >> 12).to_string()),
            };
            req.with_deadline(DEADLINE_MS)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

/// A started `fastmm` process with its stdout going to a file. Dropping
/// it kills the process and any children it spawned (fleet shards) if it
/// is still running, so no error path leaves processes behind.
struct Proc {
    child: Child,
    addr: String,
    out_path: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            kill_tree(&mut self.child);
        }
    }
}

/// SIGKILL a process's children, then the process, and reap it.
fn kill_tree(child: &mut Child) {
    for pid in sys::children(child.id()) {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Start `fastmm <args>`, wait for its `listening on` banner.
fn spawn(ctx: &Ctx, args: &[String], log: &str, banner: &str) -> Result<Proc, String> {
    let out_path = format!("{}/{log}.out", ctx.out);
    let err_path = format!("{}/{log}.err", ctx.out);
    let file = |p: &str| std::fs::File::create(p).map_err(|e| format!("{p}: {e}"));
    let mut child = Command::new(&ctx.fastmm)
        .args(args)
        .env("FMM_OBS", "off")
        .stdin(Stdio::null())
        .stdout(file(&out_path)?)
        .stderr(file(&err_path)?)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ctx.fastmm))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(&out_path).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.starts_with(banner)) {
            let addr = line[banner.len()..]
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string();
            return Ok(Proc {
                child,
                addr,
                out_path,
            });
        }
        if Instant::now() > deadline || child.try_wait().ok().flatten().is_some() {
            kill_tree(&mut child);
            return Err(format!("{log}: no '{banner}' banner (see {err_path})"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// One request/reply exchange on a fresh connection.
fn roundtrip(addr: &str, req: &Request) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    writeln!(&stream, "{}", req.to_line()).map_err(|e| format!("send to {addr}: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("reply from {addr}: {e}"))?;
    Response::parse(line.trim()).map_err(|e| format!("reply from {addr}: {e}"))
}

/// Ask for a graceful drain and wait for the process to exit; returns
/// its exit success and everything it printed.
fn shutdown(mut p: Proc) -> (bool, String) {
    let _ = roundtrip(&p.addr, &Request::new("bench-shutdown", Kind::Shutdown));
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match p.child.try_wait() {
            Ok(Some(s)) => break Some(s),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                kill_tree(&mut p.child);
                break None;
            }
        }
    };
    let text = std::fs::read_to_string(&p.out_path).unwrap_or_default();
    (status.is_some_and(|s| s.success()), text)
}

fn fleet_args(ctx: &Ctx, journal: &str) -> Vec<String> {
    [
        "fleet",
        "--shards",
        &SHARDS.to_string(),
        "--workers",
        "1",
        "--queue-depth",
        &QUEUE_DEPTH.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--journal",
        journal,
        "--supervise",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Shard addresses from the journal header.
fn shard_addrs(journal: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(journal).map_err(|e| format!("{journal}: {e}"))?;
    let header = text.lines().next().unwrap_or("");
    let map = fmm_obs::json::parse_line(header).ok_or("journal header unreadable")?;
    let list = map
        .get("shards")
        .and_then(fmm_obs::json::Value::as_str)
        .ok_or("journal header lacks shards")?;
    Ok(list.split(',').map(str::to_string).collect())
}

/// Spawn a fleet and wait until the router and every shard answer
/// `health`. Returns the fleet, its shard addresses, and the set-up time.
fn start_fleet(ctx: &Ctx, k: usize) -> Result<(Proc, Vec<String>, String, f64), String> {
    let journal = format!("{}/journal-{}-{k}.jsonl", ctx.out, ctx.workload);
    let _ = std::fs::remove_file(&journal);
    let t = Instant::now();
    let fleet = spawn(
        ctx,
        &fleet_args(ctx, &journal),
        &format!("fleet-{}-{k}", ctx.workload),
        "fastmm fleet listening on ",
    )?;
    let health = Request::new("bench-health", Kind::Health);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = roundtrip(&fleet.addr, &health)?;
        if r.result.get("shards_live").map(String::as_str) == Some(&SHARDS.to_string()) {
            break;
        }
        if Instant::now() > deadline {
            return Err("fleet never reported every shard live".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let shards = shard_addrs(&journal)?;
    for addr in &shards {
        let r = roundtrip(addr, &health)?;
        if r.status != Status::Ok {
            return Err(format!("shard {addr} health: {:?}", r.status));
        }
    }
    Ok((fleet, shards, journal, t.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

/// What one phase observed, per request (index = position in the phase).
struct Drive {
    /// When each request was due: its scheduled time (open loop) or its
    /// actual send (closed loop).
    target: Vec<Instant>,
    sent: Vec<Instant>,
    /// Reply arrival and line; `None` when no reply came.
    replies: Vec<Option<(Instant, String)>>,
    /// When the last request was due.
    end: Instant,
}

impl Drive {
    /// First send to last reply, ms.
    fn span_ms(&self) -> f64 {
        let last = self.replies.iter().flatten().map(|(at, _)| *at).max();
        match (self.sent.first(), last) {
            (Some(first), Some(last)) => (last - *first).as_secs_f64() * 1e3,
            _ => f64::NAN,
        }
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .zip(&self.target)
            .filter_map(|(r, t)| r.as_ref().map(|(at, _)| (*at - *t).as_secs_f64() * 1e3))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.target)
            .map(|(s, t)| s.saturating_duration_since(*t).as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests still unanswered `grace` after the last scheduled send.
    fn backlog_after_end(&self, grace: Duration) -> usize {
        let at_end = self.end + grace;
        self.replies
            .iter()
            .filter(|r| r.as_ref().is_none_or(|(at, _)| *at > at_end))
            .count()
    }
}

/// Send `reqs` at `rate` req/s on one connection, open loop.
fn drive(addr: &str, reqs: &[Request], rate: f64) -> Result<Drive, String> {
    let lines: Vec<String> = reqs.iter().map(|r| r.to_line() + "\n").collect();
    let index: BTreeMap<String, usize> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.clone(), i))
        .collect();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let n = reqs.len();
    let start = Instant::now() + Duration::from_millis(5);
    let target: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let end = *target.last().unwrap_or(&start);
    let done_sending = Arc::new(AtomicBool::new(false));
    let receiver = {
        let done_sending = Arc::clone(&done_sending);
        std::thread::spawn(move || {
            let mut got: Vec<(Instant, String)> = Vec::with_capacity(n);
            let mut r = BufReader::new(reader);
            let mut line = String::new();
            while got.len() < n {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => got.push((Instant::now(), line.trim_end().to_string())),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if done_sending.load(Ordering::SeqCst) && Instant::now() > end + DRAIN_WAIT
                        {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            got
        })
    };
    let mut sent = Vec::with_capacity(n);
    let mut send_error = None;
    for (line, at) in lines.iter().zip(&target) {
        let now = Instant::now();
        if *at > now {
            std::thread::sleep(*at - now);
        }
        if let Err(e) = stream.write_all(line.as_bytes()) {
            send_error = Some(format!("send: {e}"));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            break;
        }
        sent.push(Instant::now());
    }
    done_sending.store(true, Ordering::SeqCst);
    let got = receiver.join().map_err(|_| "receiver thread panicked")?;
    if let Some(e) = send_error {
        return Err(e);
    }
    let mut replies: Vec<Option<(Instant, String)>> = vec![None; n];
    for (at, line) in got {
        let id = Response::parse(&line).map(|r| r.id).unwrap_or_default();
        if let Some(&i) = index.get(&id) {
            replies[i] = Some((at, line));
        }
    }
    Ok(Drive {
        target,
        sent,
        replies,
        end,
    })
}

/// Closed loop: keep `window` requests outstanding, split over
/// [`CONNS`] connections with one thread each that writes as many
/// requests as replies have freed slots and then reads. Latency runs from
/// the actual send.
fn drive_batch(addr: &str, reqs: &[Request], window: usize) -> Result<Drive, String> {
    let lines: Vec<String> = reqs.iter().map(|r| r.to_line() + "\n").collect();
    let start = Instant::now();
    // Connection `c` carries requests c, c + CONNS, c + 2·CONNS, …
    let per_conn: Vec<Result<ConnRun, String>> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..CONNS)
            .map(|c| {
                let mine: Vec<&str> = lines
                    .iter()
                    .skip(c)
                    .step_by(CONNS)
                    .map(String::as_str)
                    .collect();
                scope.spawn(move || closed_loop(addr, &mine, window.div_ceil(CONNS)))
            })
            .collect();
        runs.into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let mut sent = vec![start; reqs.len()];
    let mut replies: Vec<Option<(Instant, String)>> = vec![None; reqs.len()];
    let index: BTreeMap<&str, usize> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    for (c, run) in per_conn.into_iter().enumerate() {
        let run = run?;
        for (k, at) in run.sent.into_iter().enumerate() {
            sent[c + k * CONNS] = at;
        }
        for (at, line) in run.got {
            let id = Response::parse(&line).map(|r| r.id).unwrap_or_default();
            if let Some(&i) = index.get(id.as_str()) {
                replies[i] = Some((at, line));
            }
        }
    }
    let end = sent.iter().copied().max().unwrap_or(start);
    Ok(Drive {
        target: sent.clone(),
        sent,
        replies,
        end,
    })
}

/// What one closed-loop connection saw: each request's send time (in
/// order) and each reply with its arrival time.
struct ConnRun {
    sent: Vec<Instant>,
    got: Vec<(Instant, String)>,
}

fn closed_loop(addr: &str, lines: &[&str], window: usize) -> Result<ConnRun, String> {
    let n = lines.len();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(DRAIN_WAIT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut run = ConnRun {
        sent: Vec::with_capacity(n),
        got: Vec::with_capacity(n),
    };
    let mut line = String::new();
    while run.got.len() < n {
        let free = (window + run.got.len()).min(n) - run.sent.len();
        if free > 0 {
            let i = run.sent.len();
            stream
                .write_all(lines[i..i + free].concat().as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let now = Instant::now();
            run.sent.extend(std::iter::repeat_n(now, free));
        }
        // One blocking read, then whatever replies are already buffered.
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Ok(run),
                Ok(_) => run.got.push((Instant::now(), line.trim_end().to_string())),
            }
            if run.got.len() == n || !reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    Ok(run)
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// A direct `JobSpec::from_request` + `run` of one request: the result
/// and how long parse plus run took.
struct Direct {
    want: Result<BTreeMap<String, String>, String>,
    t: Instant,
    parsed: Instant,
    end: Instant,
}

fn direct(req: &Request) -> Direct {
    let t = Instant::now();
    let spec = JobSpec::from_request(req.kind, &req.params);
    let parsed = Instant::now();
    let want = spec.and_then(|s| s.run());
    Direct {
        want,
        t,
        parsed,
        end: Instant::now(),
    }
}

/// Direct runs of `reqs` on `threads` threads, in request order.
fn direct_all(reqs: &[Request], threads: usize) -> Vec<Direct> {
    let chunk = reqs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(direct).collect::<Vec<_>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("direct run panicked"))
            .collect()
    })
}

/// Check every reply against a direct `JobSpec::run` of its request;
/// returns the per-request execution times (parse + run), ms. With
/// tracing on, the direct runs go one at a time, each under a span;
/// otherwise they are spread over the machine's cores.
fn check(reqs: &[Request], d: &Drive, out: &mut Outcome, rec: &mut Recorder) -> Vec<f64> {
    let directs = if rec.enabled() {
        reqs.iter().map(direct).collect()
    } else {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        direct_all(reqs, cores)
    };
    let mut exec_ms = Vec::with_capacity(reqs.len());
    for ((req, reply), run) in reqs.iter().zip(&d.replies).zip(directs) {
        out.attempted += 1;
        let Some((_, line)) = reply else {
            out.fail(format!("{}: no reply", req.id));
            continue;
        };
        let resp = match Response::parse(line) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{}: unparsable reply: {e}", req.id));
                continue;
            }
        };
        if resp.status != Status::Completed {
            out.fail(format!(
                "{}: {} {}",
                req.id,
                resp.status.as_str(),
                resp.reason
            ));
            continue;
        }
        exec_ms.push((run.end - run.t).as_secs_f64() * 1e3);
        if rec.enabled() {
            let trace = rec.new_trace();
            let root = rec.span(trace, 0, "serve.exec", run.t, run.end, &[]);
            rec.span(trace, root, "jobs.from_request", run.t, run.parsed, &[]);
            rec.span(trace, root, "jobs.run", run.parsed, run.end, &[]);
        }
        // Transport fields the server and router add, and the job's own
        // wall time, are not part of the result.
        let strip = |m: &BTreeMap<String, String>| {
            let mut m = m.clone();
            for k in ["wall_us", "trace_id", "attempts", "shard", "hedged"] {
                m.remove(k);
            }
            m
        };
        match run.want {
            Ok(w) if strip(&w) == strip(&resp.result) => {}
            Ok(w) => out.fail(format!(
                "{}: result {:?} != direct run {:?}",
                req.id,
                strip(&resp.result),
                strip(&w)
            )),
            Err(e) => out.fail(format!("{}: direct run failed: {e}", req.id)),
        }
    }
    exec_ms
}

/// `key=value` pairs of the fleet's `<prefix>` summary line.
fn summary(text: &str, prefix: &str) -> BTreeMap<String, u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
                .collect()
        })
        .unwrap_or_default()
}

fn check_laws(ok_exit: bool, text: &str, accepted_want: u64, out: &mut Outcome) {
    let d = summary(text, "fastmm fleet drained: ");
    let h = summary(text, "fastmm fleet hedging: ");
    let g = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(u64::MAX);
    if !ok_exit {
        out.invalid("fleet did not drain and exit 0".into());
    }
    if d.is_empty() || h.is_empty() {
        out.invalid("fleet printed no drained/hedging summary".into());
        return;
    }
    let terminal = ["completed", "errored", "cancelled", "deadline_exceeded"]
        .iter()
        .map(|k| g(&d, k))
        .fold(0u64, u64::saturating_add);
    if g(&d, "accepted") != terminal {
        out.invalid(format!("settlement law broken: {d:?}"));
    }
    let outcomes = ["hedges_won", "hedges_lost", "hedges_cancelled"]
        .iter()
        .map(|k| g(&h, k))
        .fold(0u64, u64::saturating_add);
    if g(&h, "hedges_launched") != outcomes {
        out.invalid(format!("hedge law broken: {h:?}"));
    }
    if g(&d, "accepted") != accepted_want {
        out.invalid(format!(
            "fleet accepted {} of {accepted_want} requests",
            g(&d, "accepted")
        ));
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// One ladder step's verdict.
struct Step {
    rate: f64,
    p99_ms: f64,
    keeps_up: bool,
    /// How late the generator ran (p99); a step it could not drive on
    /// schedule did not offer its rate.
    late_p99_ms: f64,
}

impl Step {
    /// The step met the SLO: p99 within it, and no growing backlog.
    fn met(&self, slo_ms: f64) -> bool {
        self.keeps_up && self.p99_ms <= slo_ms
    }
}

/// Interpolate (linearly in p99) the rate at which p99 crosses the SLO,
/// between the last passing and the first failing step. A failing step
/// that kept its p99 but not its backlog counts as at least twice the SLO.
fn slo_rate(steps: &[Step], slo_ms: f64) -> f64 {
    let Some(fail) = steps.iter().position(|s| !s.met(slo_ms)) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let f = &steps[fail];
    let (r0, p0) = match fail {
        0 => (0.0, 0.0),
        _ => (steps[fail - 1].rate, steps[fail - 1].p99_ms),
    };
    let p1 = if f.keeps_up {
        f.p99_ms
    } else {
        f.p99_ms.max(2.0 * slo_ms)
    };
    r0 + (f.rate - r0) * ((slo_ms - p0) / (p1 - p0)).clamp(0.0, 1.0)
}

/// Peak resident set of a fleet: router plus shards, MiB.
fn fleet_rss_mib(router_pid: u32, shard_pids: &[u32]) -> f64 {
    std::iter::once(router_pid)
        .chain(shard_pids.iter().copied())
        .filter_map(sys::peak_rss_mib)
        .sum()
}

fn cpu_of(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| sys::cpu_ms(p)).sum()
}

pub fn run(ctx: &Ctx, rec: &mut Recorder, mix: Mix) -> Result<Outcome, String> {
    let shape = mix.shape();
    let mut out = Outcome::default();
    let mut rng = Rng(ctx.seed ^ if mix == Mix::Cheap { 0xC0FFEE } else { 0x6E7E1 });
    let per_fleet = ctx.budget().mul_f64(BATCH_SHARE / SETUPS as f64);
    // Everything the fleet phases run, the generator and the fleets it
    // starts, shares one CPU; the oracles afterwards get them all.
    let all_cpus = sys::allowed_cpus();
    let one_cpu = all_cpus
        .as_deref()
        .and_then(|list| list.rsplit([',', '-']).next())
        .map(str::to_string);
    let pinned = one_cpu.as_deref().is_some_and(sys::pin);
    eprintln!(
        "perfbench: fleet phases {}",
        match (&one_cpu, pinned) {
            (Some(cpu), true) => format!("pinned to CPU {cpu}"),
            _ => "not pinned (taskset unavailable)".into(),
        }
    );

    // Each fleet: set-up (spawn to all-healthy), then closed-loop batches
    // for its share of the budget. The last one stays up for the traced
    // phases.
    let mut setups = Vec::new();
    let mut batches: Vec<(Vec<Request>, Drive)> = Vec::new();
    let mut batch_ms = Vec::new();
    let mut kept = None;
    let mut cpu = (0.0, 0.0);
    let mut sent_total = 0u64;
    let mut rss = Vec::new();
    for k in 0..SETUPS {
        for e in 0..EXTRA_SETUPS {
            let (fleet, _, _, s) = start_fleet(ctx, SETUPS + k * EXTRA_SETUPS + e)?;
            setups.push(s);
            let (ok, text) = shutdown(fleet);
            check_laws(ok, &text, 0, &mut out);
        }
        let (fleet, shards, journal, s) = start_fleet(ctx, k)?;
        setups.push(s);
        let router_pid = fleet.child.id();
        let shard_pids = sys::children(router_pid);
        let cpu0 = (cpu_of(&[router_pid]), cpu_of(&shard_pids));
        let t = Instant::now();
        let mut ms = Vec::new();
        let mut sent = 0u64;
        while ms.is_empty() || t.elapsed() < per_fleet {
            let tag = format!("b{k}.{}", ms.len());
            let reqs = requests(mix, &mut rng, &tag, shape.batch);
            let d = drive_batch(&fleet.addr, &reqs, shape.window)?;
            ms.push(d.span_ms());
            sent += reqs.len() as u64;
            batches.push((reqs, d));
        }
        cpu.0 += cpu_of(&[router_pid]) - cpu0.0;
        cpu.1 += cpu_of(&shard_pids) - cpu0.1;
        eprintln!(
            "perfbench: fleet {k}: set-up {:.1} ms, {} batches, median {:.2} ms",
            s * 1e3,
            ms.len(),
            median(&ms).unwrap_or(f64::NAN)
        );
        batch_ms.extend(ms);
        sent_total += sent;
        rss.push(fleet_rss_mib(router_pid, &shard_pids));
        if k + 1 < SETUPS {
            let (ok, text) = shutdown(fleet);
            check_laws(ok, &text, sent, &mut out);
        } else {
            kept = Some((fleet, shards, journal, sent));
        }
    }
    let (fleet, shards, journal, mut accepted_want) = kept.expect("at least one fleet");
    let p50 = median(&batch_ms).unwrap_or(f64::NAN);

    // Traced only: batches again with spans recorded, the open-loop
    // phase at the nominal rate, and the capacity ladder.
    let mut open = None;
    let mut ladder = Vec::new();
    if ctx.traced {
        let mut traced_ms = Vec::new();
        for b in 0..TRACED_BATCHES {
            let reqs = requests(mix, &mut rng, &format!("tb.{b}"), shape.batch);
            let d = drive_batch(&fleet.addr, &reqs, shape.window)?;
            traced_ms.push(d.span_ms());
            record_requests(rec, "fleet.batch_request", &d);
            accepted_want += reqs.len() as u64;
            batches.push((reqs, d));
        }
        out.layers.insert(
            "trace.overhead_frac",
            median(&traced_ms).unwrap_or(f64::NAN) / p50 - 1.0,
        );

        let count = (shape.nominal_rps * ctx.seconds * OPEN_SHARE).ceil() as usize;
        let reqs = requests(mix, &mut rng, "nom", count);
        let d = drive(&fleet.addr, &reqs, shape.nominal_rps)?;
        accepted_want += count as u64;
        record_requests(rec, "fleet.request", &d);
        let late_p99 = percentile(&d.late_ms(), 99.0).unwrap_or(0.0);
        if !keeps_up(&d, shape.nominal_rps, shape.slo_ms) {
            out.caveat(format!(
                "completions still lagged sends one SLO after the open-loop phase ({} behind)",
                d.backlog_after_end(slo(shape.slo_ms))
            ));
        }
        if late_p99 > shape.slo_ms * LATE_SHARE {
            out.caveat(format!(
                "generator ran late: p99 {late_p99:.3} ms against a {} ms SLO",
                shape.slo_ms
            ));
        }
        out.layers.insert("gen.late_ms_p99", late_p99);

        let (steps, reqs_by_step) =
            run_ladder(&fleet.addr, mix, &mut rng, ctx.seconds * STEP_SHARE)?;
        accepted_want += reqs_by_step
            .iter()
            .map(|(r, _)| r.len() as u64)
            .sum::<u64>();
        if steps.iter().all(|s| s.met(shape.slo_ms)) {
            out.caveat(format!(
                "every ladder step met the SLO: capacity is above {} req/s",
                shape.ladder.last().unwrap_or(&0.0)
            ));
        }
        for s in steps.iter().filter(|s| s.met(shape.slo_ms)) {
            if s.late_p99_ms > shape.slo_ms * LATE_SHARE {
                out.caveat(format!(
                    "generator ran late at {} req/s: p99 {:.3} ms",
                    s.rate, s.late_p99_ms
                ));
            }
        }
        let slo_rps = slo_rate(&steps, shape.slo_ms);
        out.layers.insert("slo_rps", slo_rps);
        out.detail.push(("slo_rps", slo_rps, "req/s"));
        ladder = reqs_by_step;
        open = Some((reqs, d));
    }

    // Counters, then the drain.
    let fleet_stats = roundtrip(&fleet.addr, &Request::new("bench-fs", Kind::FleetStats))?.result;
    let mut shard_stats = Vec::new();
    for addr in &shards {
        shard_stats.push(roundtrip(addr, &Request::new("bench-st", Kind::Stats))?.result);
    }
    let (ok, text) = shutdown(fleet);
    check_laws(ok, &text, accepted_want, &mut out);
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    // Oracles over every reply, outside every timed region. (The open-loop
    // phase is checked by `attribute`, under spans.)
    if pinned {
        all_cpus.as_deref().map(sys::pin);
    }
    let mut exec_ms = Vec::new();
    for (reqs, d) in &batches {
        exec_ms.extend(check(reqs, d, &mut out, &mut Recorder::new(false)));
    }
    for (reqs, d) in &ladder {
        check(reqs, d, &mut out, &mut Recorder::new(false));
    }

    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e
        .insert("peak_rss_mb", median(&rss).unwrap_or(f64::NAN));
    out.e2e.insert("p50_ms", p50);
    out.detail.push(("requests", out.attempted as f64, "count"));
    out.detail.push(("batches", batch_ms.len() as f64, "count"));
    out.detail.push(("batch_ms", p50, "ms"));
    out.detail
        .push(("batch_rps", shape.batch as f64 / p50 * 1e3, "req/s"));
    let l = &mut out.layers;
    let kreq = sent_total as f64 / 1e3;
    l.insert("router.cpu_ms_per_kreq", cpu.0 / kreq);
    l.insert("serve.cpu_ms_per_kreq", cpu.1 / kreq);
    let num = |m: &BTreeMap<String, String>, k: &str| {
        m.get(k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0)
    };
    let accepted: Vec<f64> = shard_stats.iter().map(|m| num(m, "accepted")).collect();
    let mean = accepted.iter().sum::<f64>() / accepted.len().max(1) as f64;
    l.insert(
        "router.shard_skew",
        accepted.iter().copied().fold(0.0, f64::max) / mean,
    );
    l.insert(
        "serve.queue_depth_hwm",
        shard_stats
            .iter()
            .map(|m| num(m, "queue_depth_hwm"))
            .fold(0.0, f64::max),
    );
    l.insert(
        "serve.shed",
        shard_stats.iter().map(|m| num(m, "shed")).sum::<f64>() + num(&fleet_stats, "shed"),
    );
    l.insert("router.redispatched", num(&fleet_stats, "redispatched"));
    let launched = num(&fleet_stats, "hedges_launched");
    l.insert("router.hedges_launched", launched);
    l.insert(
        "router.hedge_waste_frac",
        if launched > 0.0 {
            (num(&fleet_stats, "hedges_lost") + num(&fleet_stats, "hedges_cancelled")) / launched
        } else {
            0.0
        },
    );
    l.insert(
        "router.journal_bytes_per_req",
        journal_bytes as f64 / accepted_want.max(1) as f64,
    );

    if let Some((reqs, d)) = &open {
        if pinned {
            one_cpu.as_deref().map(sys::pin);
        }
        attribute(ctx, rec, mix, reqs, d, &exec_ms, &mut out)?;
    }
    Ok(out)
}

fn slo(slo_ms: f64) -> Duration {
    Duration::from_secs_f64(slo_ms / 1e3)
}

/// Whether completions kept pace with sends: one SLO after the last
/// scheduled send, no more requests are outstanding than an SLO's worth
/// of arrivals. A fleet that falls behind carries a backlog that grows
/// with the phase's length and is still there; a stall shorter than the
/// SLO just before the end (host or generator) is not a growing backlog.
fn keeps_up(d: &Drive, rate: f64, slo_ms: f64) -> bool {
    d.backlog_after_end(slo(slo_ms)) as f64 <= rate * slo_ms / 1e3 + 1.0
}

/// Climb the ladder: each step `step_s` long at its absolute rate,
/// stopping at the first step that misses the SLO or falls behind.
#[allow(clippy::type_complexity)]
fn run_ladder(
    addr: &str,
    mix: Mix,
    rng: &mut Rng,
    step_s: f64,
) -> Result<(Vec<Step>, Vec<(Vec<Request>, Drive)>), String> {
    let shape = mix.shape();
    let mut steps = Vec::new();
    let mut phases = Vec::new();
    for (k, &rate) in shape.ladder.iter().enumerate() {
        let reqs = requests(mix, rng, &format!("l{k}"), (rate * step_s).ceil() as usize);
        let d = drive(addr, &reqs, rate)?;
        let lat = d.latencies_ms();
        let p99 = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
        let backlog = d.backlog_after_end(slo(shape.slo_ms));
        let keeps_up = keeps_up(&d, rate, shape.slo_ms);
        let late_p99_ms = percentile(&d.late_ms(), 99.0).unwrap_or(0.0);
        eprintln!(
            "perfbench: step {rate} req/s: p50 {:.3} ms p99 {p99:.3} ms backlog {backlog} \
             late p99 {late_p99_ms:.3} ms",
            median(&lat).unwrap_or(f64::NAN)
        );
        steps.push(Step {
            rate,
            p99_ms: p99,
            keeps_up,
            late_p99_ms,
        });
        phases.push((reqs, d));
        if !steps.last().is_some_and(|s| s.met(shape.slo_ms)) {
            break;
        }
    }
    Ok((steps, phases))
}

/// One trace per request: its span runs from the scheduled send to the
/// reply, with a child covering how late the sender actually wrote it.
fn record_requests(rec: &mut Recorder, name: &'static str, d: &Drive) {
    for ((t, s), r) in d.target.iter().zip(&d.sent).zip(&d.replies) {
        if let Some((at, _)) = r {
            let trace = rec.new_trace();
            let root = rec.span(trace, 0, name, *t, *at, &[]);
            rec.span(trace, root, "gen.late", *t, *s.max(t), &[]);
        }
    }
}

/// The attribution phases of the traced run: the same schedule sent
/// straight to one `fastmm serve --workers 2`, in-process job execution,
/// protocol parsing, ring routing and journal appends.
#[allow(clippy::too_many_arguments)]
fn attribute(
    ctx: &Ctx,
    rec: &mut Recorder,
    mix: Mix,
    reqs: &[Request],
    fleet_run: &Drive,
    exec_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = mix.shape();
    let lat = fleet_run.latencies_ms();
    let fleet_p50 = median(&lat).unwrap_or(f64::NAN);
    let fleet_p99 = tail_percentile(&lat, 99.0, 10);
    out.layers.insert("req_p50_ms", fleet_p50);
    if let Some(p) = fleet_p99 {
        out.layers.insert("req_p99_ms", p);
    }
    out.detail.push(("req_p50_ms", fleet_p50, "ms"));
    out.detail
        .push(("req_p99_ms", fleet_p99.unwrap_or(f64::NAN), "ms"));

    // Direct to one server: the fleet minus the router.
    let server = spawn(
        ctx,
        &[
            "serve".to_string(),
            "--workers".into(),
            "2".into(),
            "--queue-depth".into(),
            QUEUE_DEPTH.to_string(),
        ],
        &format!("serve-{}", ctx.workload),
        "fastmm serve listening on ",
    )?;
    let direct = drive(&server.addr, reqs, shape.nominal_rps)?;
    let (ok, _) = shutdown(server);
    if !ok {
        out.invalid("direct server did not drain and exit 0".into());
    }
    check(reqs, &direct, out, &mut Recorder::new(false));
    record_requests(rec, "serve.request", &direct);
    let dlat = direct.latencies_ms();
    let direct_p50 = median(&dlat).unwrap_or(f64::NAN);
    let direct_p99 = tail_percentile(&dlat, 99.0, 10);

    // In-process execution of the same specs, each call a span.
    let exec_traced = check(reqs, fleet_run, out, rec);
    let exec_p50 = median(&exec_traced).or(median(exec_ms)).unwrap_or(f64::NAN);

    // Protocol parsing and ring routing over the workload's own lines.
    let trace = rec.new_trace();
    let root = rec.reserve();
    let t0 = Instant::now();
    let mut parse_us = Vec::with_capacity(reqs.len());
    let mut route_us = Vec::with_capacity(reqs.len());
    let ring = Ring::build(SHARDS);
    let alive = vec![true; SHARDS];
    for (req, reply) in reqs.iter().zip(&fleet_run.replies) {
        let line = req.to_line();
        let Some((_, reply)) = reply else { continue };
        let t = Instant::now();
        let parsed = std::hint::black_box(Request::parse(&line));
        let t1 = Instant::now();
        std::hint::black_box(Response::parse(reply)).ok();
        let t2 = Instant::now();
        rec.span(trace, root, "proto.request_parse", t, t1, &[]);
        rec.span(trace, root, "proto.response_parse", t1, t2, &[]);
        parse_us.push((t2 - t).as_secs_f64() * 1e6);
        if let Ok(p) = parsed {
            let t = Instant::now();
            std::hint::black_box(ring.route(spec_hash(p.kind, &p.params), &alive));
            let t1 = Instant::now();
            rec.span(trace, root, "router.route", t, t1, &[]);
            route_us.push((t1 - t).as_secs_f64() * 1e6);
        }
    }

    let calls = [("requests", reqs.len() as u64)];
    rec.span_as(
        root,
        trace,
        0,
        "bench.proto_route",
        t0,
        Instant::now(),
        &calls,
    );

    // Journal appends and syncs into a scratch journal.
    let trace = rec.new_trace();
    let root = rec.reserve();
    let t0 = Instant::now();
    let path = format!("{}/journal-probe-{}.jsonl", ctx.out, ctx.workload);
    let journal = Journal::create(
        &path,
        ctx.seed,
        &["127.0.0.1:1".into(), "127.0.0.1:2".into()],
    )?;
    let mut append_us = Vec::with_capacity(reqs.len());
    let mut sync_ms = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let record = Record::Admit {
            key: (
                spec_hash(req.kind, &req.params),
                String::new(),
                format!("0:{}", req.id),
            ),
            trace_id: i as u64 + 1,
            shard: i % SHARDS,
            req_line: req.to_line(),
        };
        let t = Instant::now();
        journal.append(&record);
        let t1 = Instant::now();
        rec.span(trace, root, "router.journal_append", t, t1, &[]);
        append_us.push((t1 - t).as_secs_f64() * 1e6);
        if i % 64 == 63 {
            let t = Instant::now();
            journal.sync();
            let t1 = Instant::now();
            rec.span(trace, root, "router.journal_sync", t, t1, &[]);
            sync_ms.push((t1 - t).as_secs_f64() * 1e3);
        }
    }
    rec.span_as(root, trace, 0, "bench.journal", t0, Instant::now(), &calls);
    drop(journal);
    let _ = std::fs::remove_file(&path);

    let l = &mut out.layers;
    l.insert("serve.exec_ms_p50", exec_p50);
    l.insert("serve.direct_p50_ms", direct_p50);
    if let Some(p) = direct_p99 {
        l.insert("serve.direct_p99_ms", p);
    }
    l.insert("serve.wait_p50_ms", direct_p50 - exec_p50);
    l.insert("proto.parse_us", median(&parse_us).unwrap_or(f64::NAN));
    l.insert("router.route_us", median(&route_us).unwrap_or(f64::NAN));
    l.insert(
        "router.journal_append_us",
        median(&append_us).unwrap_or(f64::NAN),
    );
    l.insert(
        "router.journal_sync_ms",
        median(&sync_ms).unwrap_or(f64::NAN),
    );
    l.insert("router.hop_p50_ms", fleet_p50 - direct_p50);
    if let (Some(f), Some(d)) = (fleet_p99, direct_p99) {
        l.insert("router.hop_p99_ms", f - d);
    }
    out.detail
        .push(("exec_share_of_p50", exec_p50 / fleet_p50, "ratio"));
    out.detail.push(("serve.direct_p50_ms", direct_p50, "ms"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_is_the_standard_splitmix64_stream() {
        let mut rng = Rng(0);
        assert_eq!(rng.next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn every_block_of_requests_holds_each_job_class_once() {
        let mut rng = Rng(7);
        let reqs = requests(Mix::Kernel, &mut rng, "t", 600);
        for block in reqs.chunks(KERNEL_CLASSES.len()) {
            let mut seen: Vec<(String, String)> = block
                .iter()
                .map(|r| (r.params["alg"].clone(), r.params["n"].clone()))
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), KERNEL_CLASSES.len());
        }
        let cheap = requests(Mix::Cheap, &mut rng, "c", 1000);
        let bounds = cheap.iter().filter(|r| r.kind == Kind::Bounds).count();
        assert_eq!(bounds, 500);
    }
}
