//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--fastmm <path>] [--root <dir>] [--out <dir>]
//! perfbench compare <base.json> <cand.json>
//! ```
//!
//! One run builds its inputs from `--seed`, measures one workload for
//! about `--seconds`, checks every output against an oracle, and prints
//! one JSON object as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from an outside-in traced run)
//! with `--trace 1`. Any oracle miss makes the exit code nonzero. Each
//! run also writes a result set (metrics plus environment manifest) and,
//! when traced, its spans under `--out`.

mod fleet;
mod kernel;
mod manifest;
mod sim;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. Keep in step with `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("p50_ms", "ms")];

/// Per-layer metrics, reported by every workload's traced run (0 where
/// the workload does not exercise the layer). Keep in step with
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("sweep_s", "s"),
    ("kernel.classical.gflops", "GFLOP/s"),
    ("kernel.strassen.gflops", "GFLOP/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("slo_rps", "req/s"),
    ("memsim.seq.busy_s", "s"),
    ("memsim.seq.maccess_per_s", "Maccess/s"),
    ("memsim.par.busy_s", "s"),
    ("memsim.opt.busy_s", "s"),
    ("memsim.seq.accesses", "count"),
    ("memsim.seq.hit_frac", "ratio"),
    ("memsim.par.words", "count"),
    ("pebbling.busy_s", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.io_over_bound_min", "ratio"),
    ("kernel.classical.pack_s", "s"),
    ("kernel.classical.micro_s", "s"),
    ("kernel.classical.micro_tiles", "count"),
    ("kernel.classical.ops_per_byte", "flop/B"),
    ("kernel.classical.peak_frac", "ratio"),
    ("kernel.strassen.pack_s", "s"),
    ("kernel.strassen.leaf_s", "s"),
    ("kernel.strassen.add_s", "s"),
    ("kernel.strassen.leaf_products", "count"),
    ("machine.peak_gflops", "GFLOP/s"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.direct_p50_ms", "ms"),
    ("serve.direct_p99_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.cpu_ms_per_kreq", "ms"),
    ("serve.shed", "count"),
    ("proto.parse_us", "us"),
    ("router.route_us", "us"),
    ("router.journal_append_us", "us"),
    ("router.journal_sync_ms", "ms"),
    ("router.journal_bytes_per_req", "B"),
    ("router.hop_p50_ms", "ms"),
    ("router.hop_p99_ms", "ms"),
    ("router.cpu_ms_per_kreq", "ms"),
    ("router.shard_skew", "ratio"),
    ("router.redispatched", "count"),
    ("router.hedges_launched", "count"),
    ("router.hedge_waste_frac", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &["table1-sim", "kernel-dense", "fleet-cheap", "fleet-kernel"];

/// What one run settles on. `e2e` and `layers` are keyed by the names in
/// [`END_TO_END`] / [`PER_LAYER`]; `detail` holds the workload's own
/// named figures (printed, not part of the JSON contract).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle misses and run-level problems, one line each.
    pub problems: Vec<String>,
    /// Measurement caveats, one line each.
    pub caveats: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub detail: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// A run-level problem that is not an operation failure (a broken
    /// conservation law, a process that did not drain, a missing
    /// metric). It still fails the run.
    pub fn invalid(&mut self, why: String) {
        self.problems.push(format!("invalid run: {why}"));
    }

    /// A measurement the host kept from being taken as specified (the
    /// load generator ran late, a fleet fell behind an open-loop rate).
    /// Printed with the result; the outputs were still checked, so it
    /// does not fail the run.
    pub fn caveat(&mut self, why: String) {
        self.caveats.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub fastmm: String,
    pub root: String,
    pub out: String,
    pub peak_gflops: f64,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      [--fastmm <path>] [--root <dir>] [--out <dir>]\n\
         \x20      perfbench compare <base.json> <cand.json>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, cand] => manifest::compare(base, cand),
            _ => usage(),
        };
    }
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let (Some(key), Some(v)) = (k.strip_prefix("--"), it.next()) else {
            return usage();
        };
        flags.insert(key.to_string(), v.clone());
    }
    let parsed = (|| -> Option<Ctx> {
        Some(Ctx {
            workload: flags.get("workload")?.clone(),
            seed: flags.get("seed")?.parse().ok()?,
            seconds: flags.get("seconds")?.parse().ok()?,
            traced: match flags.get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            fastmm: flags
                .get("fastmm")
                .cloned()
                .unwrap_or_else(|| "target/release/fastmm".into()),
            root: flags.get("root").cloned().unwrap_or_else(|| ".".into()),
            out: flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| ".perfbench".into()),
            peak_gflops: 0.0,
        })
    })();
    let Some(mut ctx) = parsed else {
        return usage();
    };
    if !WORKLOADS.contains(&ctx.workload.as_str()) || ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return usage();
    }
    // The benchmark measures the program as shipped: telemetry off in
    // this process and in every process it starts.
    fmm_obs::set_level(fmm_obs::Level::Off);
    if let Err(e) = std::fs::create_dir_all(format!("{}/results", ctx.out)) {
        eprintln!("perfbench: cannot create '{}': {e}", ctx.out);
        return ExitCode::from(2);
    }
    let manifest = manifest::collect(&ctx.root);
    ctx.peak_gflops = manifest::peak_gflops();
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} peak={:.2} GFLOP/s",
        ctx.workload, ctx.seed, ctx.seconds, ctx.traced as u8, ctx.peak_gflops
    );
    let mut rec = trace::Recorder::new(ctx.traced);
    let result = match ctx.workload.as_str() {
        "table1-sim" => sim::run(&ctx, &mut rec),
        "kernel-dense" => kernel::run(&ctx, &mut rec),
        "fleet-cheap" => fleet::run(&ctx, &mut rec, fleet::Mix::Cheap),
        _ => fleet::run(&ctx, &mut rec, fleet::Mix::Kernel),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    out.layers.insert("machine.peak_gflops", ctx.peak_gflops);
    if out.attempted > 0 {
        out.layers
            .insert("failed_frac", out.failed as f64 / out.attempted as f64);
    }
    let (table, chosen): (&[(&str, &str)], BTreeMap<&str, f64>) = if ctx.traced {
        (PER_LAYER, out.layers.clone())
    } else {
        (END_TO_END, out.e2e.clone())
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in table {
        // Per-layer metrics of a layer this workload does not exercise
        // read 0; an end-to-end metric must always be measured.
        let value = match chosen.get(name) {
            None if ctx.traced => 0.0,
            Some(v) if v.is_finite() => *v,
            _ => {
                missing.push(*name);
                continue;
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    if !missing.is_empty() {
        out.invalid(format!("no finite value for {}", missing.join(", ")));
    }
    for (name, value, unit) in &out.detail {
        println!("{name:<24} {value:>14.6} {unit}");
    }
    for c in &out.caveats {
        println!("INVALID MEASUREMENT {c}");
        eprintln!("perfbench: invalid measurement: {c}");
    }
    for p in &out.problems {
        println!("FAIL {p}");
        eprintln!("perfbench: FAIL {p}");
    }
    if ctx.traced {
        let path = format!("{}/spans-{}-s{}.jsonl", ctx.out, ctx.workload, ctx.seed);
        match rec.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans in {path} (render: fastmm report --traces {path})",
                rec.len()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {path}: {e}"),
        }
    }
    let result_path = format!(
        "{}/results/{}-s{}-t{}.json",
        ctx.out, ctx.workload, ctx.seed, ctx.traced as u8
    );
    if let Err(e) = manifest::write_result_set(&result_path, &ctx, &manifest, table, &chosen) {
        eprintln!("perfbench: cannot write {result_path}: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite value as a JSON number, with every digit of Rust's shortest
/// round-trip form.
pub fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        // Every workload it names is one this binary runs (it runs
        // `fleet-cheap` too, which the benchmark does not gate on).
        let listed_workloads = text.matches("\"why\":").count();
        let named = WORKLOADS
            .iter()
            .filter(|w| text.contains(&format!("\"name\": \"{w}\"")))
            .count();
        assert_eq!(named, listed_workloads);
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.000123456789), "0.000123456789");
        assert_eq!(json_num(7.25), "7.25");
    }
}
