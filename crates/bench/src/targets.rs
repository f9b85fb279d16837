//! The named benchmark target catalog and the warmup/timed-pass runner.
//!
//! Each target is a deterministic unit of hot-path work (fixed seeds, so
//! its `extras` counters are exact across runs while only wall time
//! varies). The runner times `passes` passes after `warmup` discarded
//! ones, takes exact nearest-rank percentiles over the sorted per-pass
//! nanoseconds, and assembles the [`BenchDoc`].

use crate::doc::{BenchDoc, TargetResult, TargetStats};
use crate::manifest;
use fmm_core::altbasis::{karstadt_schwartz, multiply_alt_counted, AlternativeBasis};
use fmm_core::{catalog, exec, Bilinear2x2};
use fmm_memsim::cache::{Cache, CacheStats, Policy};
use fmm_memsim::reference::{self, Op};
use fmm_memsim::trace::{opt_stats, Access};
use fmm_memsim::{par, seq};
use fmm_serve::loadgen::{self, LoadgenConfig};
use fmm_serve::server::{ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How many passes a run makes. Profiles are ordered: a target gated at
/// `min_profile = Standard` is skipped by `quick` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Profile {
    Quick,
    Standard,
    Full,
}

impl Profile {
    pub fn parse(s: &str) -> Option<Profile> {
        Some(match s {
            "quick" => Profile::Quick,
            "standard" => Profile::Standard,
            "full" => Profile::Full,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Standard => "standard",
            Profile::Full => "full",
        }
    }

    /// Discarded warm-up passes before timing starts.
    pub fn warmup(self) -> u64 {
        match self {
            Profile::Quick => 1,
            Profile::Standard => 2,
            Profile::Full => 3,
        }
    }

    /// Timed passes.
    pub fn passes(self) -> u64 {
        match self {
            Profile::Quick => 5,
            Profile::Standard => 15,
            Profile::Full => 30,
        }
    }
}

/// One named benchmark target.
pub struct Target {
    /// Stable name, e.g. `memsim/lru/n32_m1024` — the `diff` join key.
    pub name: &'static str,
    /// Coarse group: the name's first segment (`memsim`, `kernel`, …).
    pub group: &'static str,
    /// Relative p50 tolerance recorded into the document for `diff`.
    pub tol: f64,
    /// Smallest profile that includes this target.
    pub min_profile: Profile,
    /// One pass of work; returns the deterministic extras.
    run: fn() -> BTreeMap<String, String>,
}

fn extras(pairs: &[(&str, String)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn strassen() -> Bilinear2x2 {
    catalog::strassen()
}

/// One sequential cache-simulator pass (the memsim hot path PR 3
/// rewrote; these targets are the regression net for that 380× win).
fn memsim_pass(policy: &str, n: usize, m: usize) -> BTreeMap<String, String> {
    let algo = strassen();
    let tile = seq::natural_tile(m);
    let run = |mem: &mut seq::Mem, a: &seq::TMat, b: &seq::TMat| -> seq::TMat {
        seq::fast_recursive(mem, &algo, a, b, tile)
    };
    let stats = match policy {
        "opt" => seq::measure_opt_seeded(n, m, seq::DEFAULT_WORKLOAD_SEED, run),
        "fifo" => seq::measure_seeded(n, m, Policy::Fifo, seq::DEFAULT_WORKLOAD_SEED, run).1,
        _ => seq::measure_seeded(n, m, Policy::Lru, seq::DEFAULT_WORKLOAD_SEED, run).1,
    };
    io_extras(&stats)
}

fn io_extras(stats: &CacheStats) -> BTreeMap<String, String> {
    extras(&[
        ("io", stats.io().to_string()),
        ("loads", stats.loads.to_string()),
        ("stores", stats.stores.to_string()),
    ])
}

fn memsim_lru_n32() -> BTreeMap<String, String> {
    memsim_pass("lru", 32, 1024)
}
fn memsim_fifo_n32() -> BTreeMap<String, String> {
    memsim_pass("fifo", 32, 1024)
}
fn memsim_opt_n32() -> BTreeMap<String, String> {
    memsim_pass("opt", 32, 1024)
}
fn memsim_lru_n128() -> BTreeMap<String, String> {
    memsim_pass("lru", 128, 1024)
}

/// The seeded 200k-access hot/cold trace the raw cache targets replay:
/// ~70% of accesses fall in a 700-word working set just above the
/// 512-word capacity, the rest stream over a 5M-word cold range — the
/// shape instrumented executions produce. Built once per process.
fn hot_cold_trace() -> &'static [Access] {
    static TRACE: OnceLock<Vec<Access>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..200_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = if x % 10 < 7 {
                    (x >> 32) % 700
                } else {
                    (x >> 24) % 5_000_000
                };
                Access {
                    addr,
                    write: x.is_multiple_of(3),
                }
            })
            .collect()
    })
}

/// Raw slab-cache access throughput over the hot/cold trace, with no
/// instrumented execution in the way.
fn cache_pass(policy: Policy) -> BTreeMap<String, String> {
    let mut cache = Cache::new(512, policy);
    for a in hot_cold_trace() {
        if a.write {
            cache.write(a.addr);
        } else {
            cache.read(a.addr);
        }
    }
    cache.flush();
    io_extras(&cache.stats())
}

fn memsim_cache_lru() -> BTreeMap<String, String> {
    cache_pass(Policy::Lru)
}
fn memsim_cache_fifo() -> BTreeMap<String, String> {
    cache_pass(Policy::Fifo)
}

/// The streaming two-pass Belady OPT over the same trace.
fn memsim_belady() -> BTreeMap<String, String> {
    io_extras(&opt_stats(hot_cold_trace(), 512))
}

/// The O(capacity)-per-access reference model over the trace's first
/// 20k accesses: the denominator of the slab core's speed-up.
fn memsim_reference_lru() -> BTreeMap<String, String> {
    let ops: Vec<Op> = hot_cold_trace()[..20_000]
        .iter()
        .map(|&a| Op::Access(a))
        .collect();
    io_extras(&reference::replay_reference(&ops, 512, Policy::Lru).0)
}

/// Predicted I/O for a kernel grid cell, from the sequential cache
/// simulator at M = 1024 words with the same seeded workload shape —
/// the number EXPERIMENTS §X16 correlates measured wall time against.
/// A full simulated multiply is far more expensive than the real one,
/// so each cell is computed once per process; timed passes then pay
/// only for the actual kernel work.
fn model_io(alg: fmm_kernel::Alg, n: usize, leaf: usize) -> u64 {
    #[allow(clippy::type_complexity)]
    static CACHE: OnceLock<Mutex<BTreeMap<(&'static str, usize, usize), u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().expect("model_io cache");
    *map.entry((alg.as_str(), n, leaf)).or_insert_with(|| {
        let algo = strassen();
        let run = |mem: &mut seq::Mem, a: &seq::TMat, b: &seq::TMat| -> seq::TMat {
            match alg {
                fmm_kernel::Alg::Classical => seq::classical_blocked(mem, a, b, leaf),
                fmm_kernel::Alg::Strassen => seq::fast_recursive(mem, &algo, a, b, leaf),
            }
        };
        seq::measure_seeded(n, 1024, Policy::Lru, seq::DEFAULT_WORKLOAD_SEED, run)
            .1
            .io()
    })
}

/// One real multiply through `fmm-kernel` (f64, seeded small-integer
/// entries, so the checksum is exact and machine-stable). Extras carry
/// the checksum, the classical-equivalent flop count, and the simulator's
/// predicted I/O for the same (alg, n, cutoff) cell.
fn kernel_pass(
    alg: fmm_kernel::Alg,
    n: usize,
    cutoff: usize,
    threads: usize,
) -> BTreeMap<String, String> {
    let a = crate::bench_matrix_f64(n, 1);
    let b = crate::bench_matrix_f64(n, 2);
    let cfg = fmm_kernel::KernelCfg {
        alg,
        cutoff,
        threads,
    };
    let c = fmm_kernel::multiply(&cfg, &a, &b);
    let leaf = match alg {
        fmm_kernel::Alg::Classical => seq::natural_tile(1024),
        fmm_kernel::Alg::Strassen => cutoff,
    };
    extras(&[
        ("checksum", checksum(&c)),
        ("flops", fmm_kernel::classical_flops(n).to_string()),
        ("model_io", model_io(alg, n, leaf).to_string()),
    ])
}

fn kernel_classical_n128() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Classical, 128, 64, 1)
}
fn kernel_strassen_n128() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 128, 32, 1)
}
fn kernel_classical_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Classical, 512, 64, 1)
}
fn kernel_strassen_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 512, 64, 1)
}
fn kernel_strassen_mt_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 512, 64, 2)
}

/// The naive reference at the acceptance grid cell — the denominator of
/// the "Strassen-with-cutoff is ≥5× naive" claim BENCH_kernel.json
/// records.
fn kernel_naive_n512() -> BTreeMap<String, String> {
    let a = crate::bench_matrix_f64(512, 1);
    let b = crate::bench_matrix_f64(512, 2);
    let c = fmm_matrix::multiply::multiply_naive(&a, &b);
    extras(&[
        ("checksum", checksum(&c)),
        ("flops", fmm_kernel::classical_flops(512).to_string()),
    ])
}

/// Sum of a product's entries: exact, since the seeded inputs are small
/// integers.
fn checksum(c: &fmm_matrix::Matrix<f64>) -> String {
    let sum: f64 = c.as_slice().iter().sum();
    format!("{sum:.0}")
}

/// The generic `fmm-core` recursions at n = 128 over the same seeded
/// inputs as `kernel_pass`, so every `core/` checksum equals the
/// `kernel/` ones.
fn core_fast_pass(alg: &Bilinear2x2) -> BTreeMap<String, String> {
    let a = crate::bench_matrix_f64(128, 1);
    let b = crate::bench_matrix_f64(128, 2);
    extras(&[("checksum", checksum(&exec::multiply_fast(alg, &a, &b, 16)))])
}

fn core_strassen() -> BTreeMap<String, String> {
    core_fast_pass(&strassen())
}
fn core_winograd() -> BTreeMap<String, String> {
    core_fast_pass(&catalog::winograd())
}

/// Karstadt–Schwartz alternative basis, recursing down to 16×16 leaves.
/// The basis search itself runs once per process, outside the passes.
fn core_ks_altbasis() -> BTreeMap<String, String> {
    static KS: OnceLock<AlternativeBasis> = OnceLock::new();
    let ks = KS.get_or_init(karstadt_schwartz);
    let a = crate::bench_matrix_f64(128, 1);
    let b = crate::bench_matrix_f64(128, 2);
    let c = multiply_alt_counted(ks, &a, &b, 3).0;
    extras(&[("checksum", checksum(&c))])
}

/// The first few smoke-spec sweep cells, end to end (cell throughput).
fn sweep_smoke_cells() -> BTreeMap<String, String> {
    let spec = fmm_sweep::SweepSpec::builtin("smoke").expect("smoke spec exists");
    let cells = spec.expand();
    let take = cells.len().min(4);
    let mut io_total = 0u64;
    for cell in &cells[..take] {
        let m = fmm_sweep::run_cell(cell, fmm_sweep::cell_seed(42, cell))
            .expect("smoke cells are well-formed");
        io_total += m.io;
    }
    extras(&[
        ("cells", take.to_string()),
        ("io_total", io_total.to_string()),
    ])
}

fn par_cannon() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::cannon(&a, &b, 4);
    extras(&[("words", net.total_words.to_string())])
}

fn par_3d() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::replicated_3d(&a, &b, 2);
    extras(&[("words", net.total_words.to_string())])
}

fn par_caps() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::caps_strassen(&strassen(), &a, &b, 1);
    extras(&[("words", net.total_words.to_string())])
}

/// End-to-end serve latency: an in-process server, one closed-loop
/// connection, ten clean (no-chaos) requests, graceful shutdown. The
/// widest tolerance in the catalog — it includes thread spawn and TCP.
fn serve_loadgen_e2e() -> BTreeMap<String, String> {
    let server = ServerHandle::start(ServerConfig {
        queue_depth: 16,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start in-process server");
    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        conns: 1,
        requests: 10,
        seed: 7,
        poison_pct: 0,
        oversized_pct: 0,
        tiny_deadline_pct: 0,
        expensive_pct: 0,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen against own server");
    let queue_depth_hwm = server.queue_depth_hwm();
    let stats = server.wait();
    assert!(summary.ok() && stats.balanced(), "e2e pass lost jobs");
    extras(&[
        ("completed", summary.completed.to_string()),
        // One closed-loop connection: at most one job queued at a time,
        // so both load-shedding extras are deterministically exact.
        ("queue_depth_hwm", queue_depth_hwm.to_string()),
        ("shed", stats.shed.to_string()),
    ])
}

/// End-to-end fleet latency: a router over two in-process shards, one
/// closed-loop connection, ten clean requests, graceful fleet drain.
/// Times the router hop on top of `serve/loadgen_e2e`'s stack.
fn fleet_loadgen_e2e() -> BTreeMap<String, String> {
    let shard = |id: u64| {
        ServerHandle::start(ServerConfig {
            queue_depth: 16,
            workers: 2,
            shard_id: Some(id),
            ..ServerConfig::default()
        })
        .expect("start in-process shard")
    };
    let (shard_a, shard_b) = (shard(0), shard(1));
    let router = fmm_router::RouterHandle::start(
        fmm_router::RouterConfig {
            shard_addrs: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
            seed: 7,
            ..fmm_router::RouterConfig::default()
        },
        vec![None, None],
    )
    .expect("start in-process router");
    let cfg = LoadgenConfig {
        addr: router.addr().to_string(),
        conns: 1,
        requests: 10,
        seed: 7,
        poison_pct: 0,
        oversized_pct: 0,
        tiny_deadline_pct: 0,
        expensive_pct: 0,
        fleet: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen against own fleet");
    let snap = router.wait();
    let (a, b) = (shard_a.wait(), shard_b.wait());
    assert!(
        summary.ok() && snap.balanced() && a.balanced() && b.balanced(),
        "fleet e2e pass lost jobs"
    );
    extras(&[
        ("completed", summary.completed.to_string()),
        // No shard dies in this pass, so re-dispatch is exactly 0 and
        // the ring split of 10 fixed requests across 2 shards is exact.
        ("redispatched", snap.redispatched.to_string()),
        ("shard0_accepted", a.accepted.to_string()),
        ("shard1_accepted", b.accepted.to_string()),
    ])
}

/// Every named target, in render order. A target's group is its name's
/// first path segment.
#[rustfmt::skip] // one target per row
pub fn all_targets() -> Vec<Target> {
    use Profile::{Quick, Standard};
    let t = |name: &'static str, tol, min_profile, run| Target {
        name,
        group: name.split('/').next().unwrap_or(name),
        tol,
        min_profile,
        run,
    };
    vec![
        t("memsim/lru/n32_m1024", 0.35, Quick, memsim_lru_n32),
        t("memsim/fifo/n32_m1024", 0.35, Quick, memsim_fifo_n32),
        t("memsim/opt/n32_m1024", 0.35, Quick, memsim_opt_n32),
        t("memsim/lru/n128_m1024", 0.35, Standard, memsim_lru_n128),
        t("memsim/cache/lru_t200k_c512", 0.35, Quick, memsim_cache_lru),
        t("memsim/cache/fifo_t200k_c512", 0.35, Quick, memsim_cache_fifo),
        t("memsim/belady/t200k_c512", 0.35, Quick, memsim_belady),
        t("memsim/reference/lru_t20k_c512", 0.35, Quick, memsim_reference_lru),
        t("kernel/classical/n128_f64", 0.35, Quick, kernel_classical_n128),
        t("kernel/strassen/n128_c32_f64", 0.35, Quick, kernel_strassen_n128),
        t("kernel/naive/n512_f64", 0.35, Standard, kernel_naive_n512),
        t("kernel/classical/n512_f64", 0.35, Standard, kernel_classical_n512),
        t("kernel/strassen/n512_c64_f64", 0.35, Standard, kernel_strassen_n512),
        t("kernel/strassen_mt/n512_c64_t2_f64", 0.50, Standard, kernel_strassen_mt_n512),
        t("core/strassen/n128_c16", 0.35, Quick, core_strassen),
        t("core/winograd/n128_c16", 0.35, Quick, core_winograd),
        t("core/ks_altbasis/n128", 0.35, Quick, core_ks_altbasis),
        t("sweep/smoke_cells", 0.40, Quick, sweep_smoke_cells),
        t("par/cannon/n16_p4", 0.40, Quick, par_cannon),
        t("par/3d/n16_p2", 0.40, Quick, par_3d),
        t("par/caps/n16_l1", 0.40, Quick, par_caps),
        t("serve/loadgen_e2e", 0.60, Quick, serve_loadgen_e2e),
        t("fleet/loadgen_e2e", 0.60, Quick, fleet_loadgen_e2e),
    ]
}

/// How a `bench run` is shaped.
pub struct RunOptions {
    pub profile: Profile,
    /// Only run targets whose name contains this substring.
    pub filter: Option<String>,
    /// Sleep ~25 ms inside each timed pass of matching targets — an
    /// honest injected slowdown for demonstrating `bench diff` failures.
    pub inject_slow: Option<String>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            profile: Profile::Quick,
            filter: None,
            inject_slow: None,
        }
    }
}

/// Exact order statistics of the timed passes: nearest-rank p50/p95/p99
/// (the smallest sample with at least p% of the samples at or below it)
/// plus min and max.
fn pass_stats(warmup: u64, mut samples: Vec<u64>) -> TargetStats {
    samples.sort_unstable();
    let rank = |p: usize| {
        let r = (samples.len() * p).div_ceil(100).max(1);
        samples.get(r - 1).copied().unwrap_or(0)
    };
    TargetStats {
        warmup,
        passes: samples.len() as u64,
        p50_ns: rank(50),
        p95_ns: rank(95),
        p99_ns: rank(99),
        min_ns: samples.first().copied().unwrap_or(0),
        max_ns: samples.last().copied().unwrap_or(0),
    }
}

/// Run the catalog under `opts` and assemble the document.
pub fn run_targets(opts: &RunOptions) -> BenchDoc {
    let warmup = opts.profile.warmup();
    let passes = opts.profile.passes();
    let mut targets = Vec::new();
    for t in all_targets() {
        if t.min_profile > opts.profile {
            continue;
        }
        if let Some(f) = &opts.filter {
            if !t.name.contains(f.as_str()) {
                continue;
            }
        }
        let slow = opts
            .inject_slow
            .as_ref()
            .is_some_and(|s| t.name.contains(s.as_str()));
        for _ in 0..warmup {
            (t.run)();
        }
        let mut samples = Vec::new();
        let mut extras = BTreeMap::new();
        for _ in 0..passes {
            let start = Instant::now();
            extras = (t.run)();
            if slow {
                std::thread::sleep(Duration::from_millis(25));
            }
            samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        targets.push(TargetResult {
            name: t.name.to_string(),
            group: t.group.to_string(),
            tol: t.tol,
            stats: pass_stats(warmup, samples),
            extras,
        });
    }
    BenchDoc {
        profile: opts.profile.as_str().to_string(),
        manifest: manifest::collect(),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_and_parse() {
        assert!(Profile::Quick < Profile::Standard && Profile::Standard < Profile::Full);
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("nope"), None);
        assert!(Profile::Full.passes() > Profile::Quick.passes());
    }

    #[test]
    fn catalog_names_are_unique_and_grouped() {
        let targets = all_targets();
        let mut names: Vec<&str> = targets.iter().map(|t| t.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), targets.len(), "duplicate target names");
        for t in &targets {
            assert!(
                t.name.starts_with(t.group),
                "{} not under {}",
                t.name,
                t.group
            );
            assert!(t.tol > 0.0 && t.tol < 1.0);
        }
    }

    #[test]
    fn filtered_quick_run_produces_a_parsable_document() {
        let doc = run_targets(&RunOptions {
            filter: Some("par/cannon".into()),
            ..RunOptions::default()
        });
        assert_eq!(doc.targets.len(), 1);
        let t = &doc.targets[0];
        assert_eq!(t.stats.passes, 5);
        assert!(t.stats.min_ns > 0 && t.stats.min_ns <= t.stats.p50_ns);
        assert!(t.stats.p50_ns <= t.stats.p99_ns && t.stats.p99_ns <= t.stats.max_ns);
        assert!(t.extras["words"].parse::<u64>().unwrap() > 0);
        let round = crate::doc::BenchDoc::parse(&doc.to_jsonl()).unwrap();
        assert_eq!(round, doc);
    }

    #[test]
    fn kernel_quick_targets_have_exact_repeatable_extras() {
        // (filter, quick targets it selects, an extra every one carries)
        let cases = [
            ("kernel/", 2, "model_io"),
            ("memsim/cache/", 2, "io"),
            ("memsim/belady/", 1, "io"),
            ("memsim/reference/", 1, "io"),
            ("core/", 3, "checksum"),
        ];
        let mut docs = BTreeMap::new();
        for (filter, count, key) in cases {
            let run = || {
                run_targets(&RunOptions {
                    filter: Some(filter.into()),
                    ..RunOptions::default()
                })
            };
            let (first, second) = (run(), run());
            assert_eq!(first.targets.len(), count, "{filter} targets in quick");
            for (a, b) in first.targets.iter().zip(&second.targets) {
                assert_eq!(a.extras, b.extras, "{} extras drifted", a.name);
                assert!(a.extras[key].parse::<i64>().unwrap() > 0, "{}", a.name);
            }
            docs.extend(first.targets.into_iter().map(|t| (t.name, t.extras)));
        }
        let extra = |name: &str, key: &str| -> u64 { docs[name][key].parse().unwrap() };
        // At n=128 with M=1024 the simulator charges Strassen *more*
        // I/O than blocked classical: the recursion's temporaries all
        // spill, and the asymptotic n^{log2 7} advantage hasn't kicked
        // in yet at this order. §X16 reports the same inversion.
        assert!(
            extra("kernel/strassen/n128_c32_f64", "model_io")
                > extra("kernel/classical/n128_f64", "model_io"),
            "strassen's temporaries should out-spill blocked classical at n=128"
        );
        // Every n=128 path multiplies the same seeded inputs exactly.
        for name in [
            "core/strassen/n128_c16",
            "core/winograd/n128_c16",
            "core/ks_altbasis/n128",
        ] {
            assert_eq!(
                docs[name]["checksum"],
                docs["kernel/classical/n128_f64"]["checksum"]
            );
        }
        // Offline OPT floors both online policies on the same trace.
        let opt = extra("memsim/belady/t200k_c512", "io");
        assert!(opt <= extra("memsim/cache/lru_t200k_c512", "io"));
        assert!(opt <= extra("memsim/cache/fifo_t200k_c512", "io"));
    }

    #[test]
    fn pass_percentiles_are_exact_nearest_rank() {
        let ms = |v: [u64; 5]| v.map(|x| x * 1_000_000).to_vec();
        let low = pass_stats(1, ms([20, 17, 33, 19, 18]));
        let high = pass_stats(1, ms([33, 31, 17, 30, 32]));
        assert_eq!(low.p50_ns, 19_000_000);
        assert_eq!(high.p50_ns, 31_000_000);
        assert_eq!((low.min_ns, low.max_ns), (17_000_000, 33_000_000));
        assert_eq!((low.p95_ns, low.p99_ns), (33_000_000, 33_000_000));
        assert_eq!(low.passes, 5);
        let twenty: Vec<u64> = (1..=20).collect();
        let s = pass_stats(0, twenty);
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns), (10, 19, 20));
    }

    #[test]
    fn inject_slow_inflates_only_matching_targets() {
        let base = run_targets(&RunOptions {
            filter: Some("par/3d".into()),
            ..RunOptions::default()
        });
        let slowed = run_targets(&RunOptions {
            filter: Some("par/3d".into()),
            inject_slow: Some("par/3d".into()),
            ..RunOptions::default()
        });
        assert!(
            slowed.targets[0].stats.p50_ns >= base.targets[0].stats.p50_ns + 20_000_000,
            "injected pass must be ≥20ms slower: {} vs {}",
            slowed.targets[0].stats.p50_ns,
            base.targets[0].stats.p50_ns
        );
        // Determinism of extras: same seeds, same counters.
        assert_eq!(slowed.targets[0].extras, base.targets[0].extras);
    }
}
