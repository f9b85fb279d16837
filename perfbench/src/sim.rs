//! `table1-sim`: the paper's own measurement. The built-in `table1`
//! cells with n ≤ 128, the `x1` replacement-policy ablation and the `x2`
//! recomputation study, through `fmm_sweep::execute` with one worker.
//!
//! Oracles: every table1 cell's `io` equals the committed
//! `sweep_table1.jsonl` (I/O does not depend on the data, so this holds
//! for any seed); every cell has measured I/O at or above its bound;
//! OPT never does more I/O than LRU on `x1`.

use crate::stats::median;
use crate::trace::Recorder;
use crate::{Ctx, Outcome};
use fmm_obs::json::{parse_line, Value};
use fmm_sweep::SweepSpec;
use fmm_sweep::{execute, Cell, CellRecord, PolicyKind, RunConfig, RunMode};
use std::collections::BTreeMap;
use std::time::Instant;

const MAX_N: usize = 128;
/// Spec expansions timed as each cell's record arrives; `setup_s` is the
/// median of all of them. Spread through the passes, they see the same
/// mix of machine states the passes do.
const SETUP_REPS: usize = 8;
/// Passes a run always makes, so its median is never read off one or
/// two passes.
const MIN_PASSES: usize = 3;

/// (alg, n, m, p, policy, mode) — a cell's identity across specs.
type CellId = (String, usize, usize, usize, String, String);

fn id_of(c: &Cell) -> CellId {
    (
        c.alg.as_str().into(),
        c.n,
        c.m,
        c.p,
        c.policy.as_str().into(),
        c.mode.as_str().into(),
    )
}

/// The cell set: table1 (n ≤ 128), then x1, then x2; and how many of
/// them are table1 cells.
fn expand() -> (Vec<Cell>, usize) {
    let mut cells: Vec<Cell> = SweepSpec::builtin("table1")
        .expect("built-in table1")
        .expand()
        .into_iter()
        .filter(|c| c.n <= MAX_N)
        .collect();
    let table1_count = cells.len();
    for name in ["x1", "x2"] {
        cells.extend(SweepSpec::builtin(name).expect("built-in spec").expand());
    }
    (cells, table1_count)
}

/// Expand the cell set [`SETUP_REPS`] times, timing each expansion.
fn time_set_up(setups: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(expand());
        setups.push(t.elapsed().as_secs_f64());
    }
}

/// Committed table1 I/O by cell identity.
fn load_oracle(root: &str) -> Result<BTreeMap<CellId, u64>, String> {
    let path = format!("{root}/sweep_table1.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut io = BTreeMap::new();
    for line in text.lines() {
        let Some(map) = parse_line(line) else {
            continue;
        };
        if map.get("type").and_then(Value::as_str) != Some("cell") {
            continue;
        }
        let s = |k: &str| map.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let u = |k: &str| map.get(k).and_then(Value::as_num).unwrap_or(-1.0) as usize;
        let key = (s("alg"), u("n"), u("m"), u("p"), s("policy"), s("mode"));
        io.insert(
            key,
            map.get("io").and_then(Value::as_num).unwrap_or(-1.0) as u64,
        );
    }
    Ok(io)
}

fn check(
    records: &[CellRecord],
    table1: &BTreeMap<CellId, u64>,
    table1_count: usize,
    out: &mut Outcome,
) {
    let mut lru_opt: BTreeMap<(String, usize), (Option<u64>, Option<u64>)> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        let key = rec.cell.key();
        let Some(m) = rec.measurement() else {
            out.fail(format!("cell {key}: {:?}", rec.status));
            continue;
        };
        let mut ok = true;
        if i < table1_count {
            match table1.get(&id_of(&rec.cell)) {
                Some(&want) if want == m.io => {}
                want => {
                    out.fail(format!("cell {key}: io {} != committed {want:?}", m.io));
                    ok = false;
                }
            }
        }
        if ok && m.ratio < 1.0 {
            out.fail(format!("cell {key}: measured/bound {} < 1", m.ratio));
            ok = false;
        }
        if ok && i >= table1_count && rec.cell.mode == RunMode::Cache && rec.cell.p == 1 {
            let slot = lru_opt
                .entry((rec.cell.alg.as_str().to_string(), rec.cell.m))
                .or_default();
            match rec.cell.policy {
                PolicyKind::Lru => slot.0 = Some(m.io),
                PolicyKind::Opt => slot.1 = Some(m.io),
                _ => {}
            }
        }
    }
    for ((alg, m), pair) in lru_opt {
        if let (Some(lru), Some(opt)) = pair {
            if opt > lru {
                out.fail(format!("x1 {alg} M={m}: OPT io {opt} > LRU io {lru}"));
            }
        }
    }
}

/// Which simulator layer a cell exercises.
fn layer(c: &Cell) -> &'static str {
    match (c.mode, c.p, c.policy) {
        (RunMode::PebbleSr | RunMode::PebbleRc, _, _) => "pebbling",
        (RunMode::Cache, p, _) if p > 1 => "memsim.par",
        (RunMode::Cache, _, PolicyKind::Opt) => "memsim.opt",
        _ => "memsim.seq",
    }
}

pub fn run(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Whole passes until the budget would be overrun (at least
    // `MIN_PASSES`). Set-up is spec expansion, a few µs, so it is timed a
    // few times in the sink, on this thread, while the worker thread runs
    // the next cell.
    let oracle = load_oracle(&ctx.root)?;
    let cfg = RunConfig {
        seed: ctx.seed,
        jobs: 1,
        ..RunConfig::default()
    };
    let mut setups = Vec::new();
    let (cells, table1_count) = expand();
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let mut outside_s = Vec::new();
    let mut rss_mib = Some(0.0f64);
    while pass_s.len() < MIN_PASSES
        || started.elapsed().as_secs_f64() + median(&pass_s).unwrap_or(0.0) <= ctx.seconds
    {
        let mut records = Vec::with_capacity(cells.len());
        let growth = crate::sys::RssGrowth::start();
        let t = Instant::now();
        let stats = execute(&cells, &cfg, |r| {
            records.push(r.clone());
            time_set_up(&mut setups);
        });
        let wall = t.elapsed().as_secs_f64();
        let grown = growth.as_ref().and_then(crate::sys::RssGrowth::peak_mib);
        rss_mib = rss_mib.zip(grown).map(|(r, g)| r.max(g));
        pass_s.push(wall);
        eprintln!("perfbench: pass {} in {wall:.3} s", pass_s.len());
        let in_cells = records.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3;
        outside_s.push(wall - in_cells);
        out.attempted += cells.len() as u64;
        if records.len() != cells.len() || stats.lost > 0 {
            out.fail(format!(
                "sweep returned {} of {} cells",
                records.len(),
                cells.len()
            ));
        }
        check(&records, &oracle, table1_count, &mut out);
    }
    let sweep_s = median(&pass_s).unwrap_or(0.0);
    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e.insert("peak_rss_mb", rss_mib.unwrap_or(f64::NAN));
    out.e2e.insert("p50_ms", sweep_s * 1e3);
    out.detail.push(("cells", cells.len() as f64, "count"));
    out.detail.push(("passes", pass_s.len() as f64, "count"));
    out.detail.push(("sweep_s", sweep_s, "s"));
    out.layers.insert("sweep_s", sweep_s);
    if ctx.traced {
        let untraced = (sweep_s, median(&outside_s).unwrap_or(0.0));
        let records = traced(rec, &cells, &cfg, untraced, &mut out);
        out.attempted += cells.len() as u64;
        check(&records, &oracle, table1_count, &mut out);
    }
    Ok(out)
}

/// The traced pass: every cell through its own `fmm_sweep::execute`
/// call (so it runs exactly as in the sweep, cancellation scope and
/// panic isolation included), each call a child span named after the
/// simulator layer the cell exercises.
fn traced(
    rec: &mut Recorder,
    cells: &[Cell],
    cfg: &RunConfig,
    (untraced_sweep_s, untraced_outside_s): (f64, f64),
    out: &mut Outcome,
) -> Vec<CellRecord> {
    let trace = rec.new_trace();
    let root = rec.reserve();
    let t0 = Instant::now();
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut accesses, mut hits, mut par_words) = (0u64, 0u64, 0u64);
    let mut min_ratio = f64::INFINITY;
    let mut records = Vec::with_capacity(cells.len());
    for c in cells {
        let name = layer(c);
        let mut result = None;
        let t = Instant::now();
        execute(std::slice::from_ref(c), cfg, |r| result = Some(r.clone()));
        let end = Instant::now();
        *busy.entry(name).or_default() += (end - t).as_secs_f64();
        let m = result.as_ref().and_then(CellRecord::measurement);
        let fields: Vec<(&'static str, u64)> = match m {
            Some(m) => vec![
                ("n", c.n as u64),
                ("m", c.m as u64),
                ("p", c.p as u64),
                ("io", m.io),
            ],
            None => vec![("n", c.n as u64), ("error", 1)],
        };
        rec.span(trace, root, name, t, end, &fields);
        if let Some(m) = m.cloned() {
            min_ratio = min_ratio.min(m.ratio);
            match name {
                "memsim.seq" => {
                    accesses += m.accesses;
                    hits += m.hits;
                }
                "memsim.par" => par_words += m.io,
                _ => {}
            }
        }
        records.extend(result);
    }
    let t1 = Instant::now();
    rec.span_as(
        root,
        trace,
        0,
        "sweep.traced_pass",
        t0,
        t1,
        &[("cells", cells.len() as u64)],
    );
    let traced_s = (t1 - t0).as_secs_f64();
    let b = |k: &str| busy.get(k).copied().unwrap_or(0.0);
    let l = &mut out.layers;
    l.insert("memsim.seq.busy_s", b("memsim.seq"));
    l.insert(
        "memsim.seq.maccess_per_s",
        accesses as f64 / b("memsim.seq") / 1e6,
    );
    l.insert("memsim.par.busy_s", b("memsim.par"));
    l.insert("memsim.opt.busy_s", b("memsim.opt"));
    l.insert("memsim.seq.accesses", accesses as f64);
    l.insert("memsim.seq.hit_frac", hits as f64 / accesses.max(1) as f64);
    l.insert("memsim.par.words", par_words as f64);
    l.insert("pebbling.busy_s", b("pebbling"));
    l.insert("sweep.overhead_s", untraced_outside_s);
    l.insert("sweep.io_over_bound_min", min_ratio);
    l.insert("trace.overhead_frac", traced_s / untraced_sweep_s - 1.0);
    let memsim = b("memsim.seq") + b("memsim.par") + b("memsim.opt");
    out.detail
        .push(("memsim_share_of_sweep", memsim / traced_s, "ratio"));
    records
}
