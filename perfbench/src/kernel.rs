//! `kernel-dense`: seeded f64 n = 1024 multiplies through
//! `fmm_kernel::multiply_with_report`, classical and Strassen (cutoff
//! 64), one thread, in rounds until the budget is spent: each round a
//! set-up (fresh inputs, one warm-up multiply per backend) and one timed
//! multiply per backend.
//!
//! Oracle: every product equals `multiply_naive` of the same inputs,
//! computed once outside the timed region. The inputs are small
//! integers, so f64 arithmetic is exact and equality is the right test.

use crate::stats::median;
use crate::trace::Recorder;
use crate::{Ctx, Outcome};
use fmm_kernel::{multiply_with_report, Alg, KernelCfg, Report, KC, NC};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::Matrix;
use std::time::Instant;

const N: usize = 1024;
const CUTOFF: usize = 64;
/// Multiplies of each backend in the traced pass.
const TRACED_REPS: usize = 3;
/// Leaf-order classical multiplies timed for the Strassen attribution.
const LEAF_PROBES: usize = 301;

fn cfg(alg: Alg) -> KernelCfg {
    KernelCfg {
        alg,
        cutoff: CUTOFF,
        threads: 1,
    }
}

fn inputs(seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    (
        fmm_bench::bench_matrix_f64(N, seed),
        fmm_bench::bench_matrix_f64(N, seed ^ 0x9E37_79B9_7F4A_7C15),
    )
}

/// 2n³: the classical flop count both backends are rated against.
fn flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Words the classical loop nest moves through its packed panels: B
/// once, A once per `NC` slab, C read and written once per `KC` slice.
fn packed_words(n: usize) -> f64 {
    let (nf, slabs, slices) = (n as f64, n.div_ceil(NC) as f64, n.div_ceil(KC) as f64);
    nf * nf * (1.0 + slabs + 2.0 * slices)
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut a, mut b) = inputs(ctx.seed);
    let t = Instant::now();
    let want = multiply_naive(&a, &b);
    eprintln!(
        "perfbench: oracle product in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let check = |c: &Matrix<f64>, alg: Alg, out: &mut Outcome| {
        out.attempted += 1;
        if c != &want {
            out.fail(format!(
                "{} product differs from multiply_naive",
                alg.as_str()
            ));
        }
    };

    // Rounds until the budget is spent: a set-up (fresh inputs and one
    // warm-up multiply per backend), then one timed multiply per backend.
    // The resident-set growth is taken over the timed multiplies only.
    let mut setups = Vec::new();
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut rss_mib = Some(0.0f64);
    let started = Instant::now();
    while setups.is_empty() || started.elapsed() < ctx.budget() {
        let t = Instant::now();
        (a, b) = inputs(ctx.seed);
        let warm =
            [Alg::Classical, Alg::Strassen].map(|alg| multiply_with_report(&cfg(alg), &a, &b).0);
        setups.push(t.elapsed().as_secs_f64());
        for (c, alg) in warm.iter().zip([Alg::Classical, Alg::Strassen]) {
            check(c, alg, &mut out);
        }
        drop(warm);
        let growth = crate::sys::RssGrowth::start();
        let mut ms = Vec::new();
        for (i, alg) in [Alg::Classical, Alg::Strassen].into_iter().enumerate() {
            let t = Instant::now();
            let (c, _) = multiply_with_report(&cfg(alg), &a, &b);
            let wall = t.elapsed().as_secs_f64();
            walls[i].push(wall);
            ms.push(format!("{:.0}", wall * 1e3));
            check(&c, alg, &mut out);
        }
        let grown = growth.as_ref().and_then(crate::sys::RssGrowth::peak_mib);
        rss_mib = rss_mib.zip(grown).map(|(r, g)| r.max(g));
        eprintln!(
            "perfbench: set-up {:.0} ms, classical {} ms, strassen {} ms",
            setups[setups.len() - 1] * 1e3,
            ms[0],
            ms[1]
        );
    }
    let classical_s = median(&walls[0]).unwrap_or(0.0);
    let strassen_s = median(&walls[1]).unwrap_or(0.0);
    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e.insert("peak_rss_mb", rss_mib.unwrap_or(f64::NAN));
    out.e2e.insert("p50_ms", (classical_s + strassen_s) * 1e3);
    let classical_gflops = flops(N) / classical_s / 1e9;
    let strassen_gflops = flops(N) / strassen_s / 1e9;
    out.detail
        .push(("multiplies", out.attempted as f64, "count"));
    out.detail
        .push(("classical_gflops", classical_gflops, "GFLOP/s"));
    out.detail
        .push(("strassen_gflops", strassen_gflops, "GFLOP/s"));
    out.layers
        .insert("kernel.classical.gflops", classical_gflops);
    out.layers.insert("kernel.strassen.gflops", strassen_gflops);
    if ctx.traced {
        traced(ctx, rec, &a, &b, &want, classical_s + strassen_s, &mut out);
    }
    Ok(out)
}

/// The traced pass: each multiply as its own trace (packing and tile
/// counts from the kernel's own report attached as fields), then the
/// leaf probe that prices one Strassen leaf.
fn traced(
    ctx: &Ctx,
    rec: &mut Recorder,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    want: &Matrix<f64>,
    untraced_pair_s: f64,
    out: &mut Outcome,
) {
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reports: [Vec<Report>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..TRACED_REPS {
        for (i, (alg, name)) in [
            (Alg::Classical, "kernel.classical"),
            (Alg::Strassen, "kernel.strassen"),
        ]
        .into_iter()
        .enumerate()
        {
            let t = Instant::now();
            let (c, report) = multiply_with_report(&cfg(alg), a, b);
            let end = Instant::now();
            let trace = rec.new_trace();
            rec.span(
                trace,
                0,
                name,
                t,
                end,
                &[
                    ("n", N as u64),
                    ("pack_ns", report.pack_ns),
                    ("micro_tiles", report.micro_tiles),
                    ("leaf_products", report.leaf_products),
                ],
            );
            walls[i].push((end - t).as_secs_f64());
            out.attempted += 1;
            if &c != want {
                out.fail(format!(
                    "traced {} product differs from multiply_naive",
                    alg.as_str()
                ));
            }
            reports[i].push(report);
        }
    }
    // Leaf probe: a classical multiply at the cutoff order, compute time
    // only (its own packing is excluded, as Strassen's packing is
    // reported separately).
    let (la, lb) = (
        fmm_bench::bench_matrix_f64(CUTOFF, ctx.seed),
        fmm_bench::bench_matrix_f64(CUTOFF, ctx.seed.wrapping_add(1)),
    );
    let probe_trace = rec.new_trace();
    let probe_root = rec.reserve();
    let probe_start = Instant::now();
    let mut leaf = Vec::with_capacity(LEAF_PROBES);
    for _ in 0..LEAF_PROBES {
        let t = Instant::now();
        let (_, report) = multiply_with_report(&cfg(Alg::Classical), &la, &lb);
        let end = Instant::now();
        rec.span(
            probe_trace,
            probe_root,
            "kernel.leaf_probe",
            t,
            end,
            &[("n", CUTOFF as u64), ("pack_ns", report.pack_ns)],
        );
        leaf.push((end - t).as_secs_f64() - report.pack_ns as f64 / 1e9);
    }
    let probes = [("probes", LEAF_PROBES as u64)];
    rec.span_as(
        probe_root,
        probe_trace,
        0,
        "kernel.leaf_probes",
        probe_start,
        Instant::now(),
        &probes,
    );
    let pack = |i: usize| {
        let v: Vec<f64> = reports[i].iter().map(|r| r.pack_ns as f64 / 1e9).collect();
        median(&v).unwrap_or(0.0)
    };
    let classical_s = median(&walls[0]).unwrap_or(0.0);
    let strassen_s = median(&walls[1]).unwrap_or(0.0);
    let leaf_products = reports[1][0].leaf_products as f64;
    let leaf_s = leaf_products * median(&leaf).unwrap_or(0.0);
    let l = &mut out.layers;
    l.insert("kernel.classical.pack_s", pack(0));
    l.insert("kernel.classical.micro_s", classical_s - pack(0));
    l.insert(
        "kernel.classical.micro_tiles",
        reports[0][0].micro_tiles as f64,
    );
    l.insert(
        "kernel.classical.ops_per_byte",
        flops(N) / (8.0 * packed_words(N)),
    );
    l.insert(
        "kernel.classical.peak_frac",
        flops(N) / classical_s / 1e9 / ctx.peak_gflops,
    );
    l.insert("kernel.strassen.pack_s", pack(1));
    l.insert("kernel.strassen.leaf_s", leaf_s);
    l.insert("kernel.strassen.add_s", strassen_s - leaf_s - pack(1));
    l.insert("kernel.strassen.leaf_products", leaf_products);
    l.insert(
        "trace.overhead_frac",
        (classical_s + strassen_s) / untraced_pair_s - 1.0,
    );
    out.detail.push((
        "classical_micro_share",
        (classical_s - pack(0)) / classical_s,
        "ratio",
    ));
    out.detail
        .push(("strassen_leaf_share", leaf_s / strassen_s, "ratio"));
}
