//! The environment a result set was measured in, the machine's measured
//! floating-point peak, and the refusal to compare result sets taken on
//! different machines or builds.

use fmm_obs::json::{escape, parse_line, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Manifest keys that must agree before two result sets are compared.
pub const MUST_MATCH: &[&str] = &[
    "cpu_model",
    "cpu_cores",
    "available_parallelism",
    "rustc",
    "opt_level",
];

/// `fmm_bench::manifest::collect()` plus the parallelism the process may
/// use. `root` is the checkout: git is kept from searching above it.
pub fn collect(root: &str) -> BTreeMap<String, String> {
    if let Some(parent) = std::path::Path::new(root)
        .canonicalize()
        .ok()
        .and_then(|p| p.parent().map(|q| q.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let mut m = fmm_bench::manifest::collect();
    m.insert(
        "available_parallelism".into(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    );
    m
}

/// Single-core double-precision peak in GFLOP/s, measured by a loop of
/// independent fused multiply-adds in the widest vector unit the CPU
/// reports (the machine exposes no hardware counters, so the peak is
/// measured rather than read). Best of five trials of a few ms each.
pub fn peak_gflops() -> f64 {
    (0..5).map(|_| fma_trial()).fold(0.0, f64::max)
}

fn fma_trial() -> f64 {
    const ITERS: u64 = 2_000_000;
    let t = std::time::Instant::now();
    let flops = fma_loop(ITERS);
    flops as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Run the FMA loop; returns the flops it performed.
fn fma_loop(iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was detected on this CPU just above.
            return unsafe { x86::fma512(iters) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both features were detected on this CPU just above.
            return unsafe { x86::fma256(iters) };
        }
    }
    scalar_loop(iters)
}

fn scalar_loop(iters: u64) -> u64 {
    let mut acc = [1.0f64; 8];
    let (m, a) = (std::hint::black_box(0.999_999), std::hint::black_box(1e-9));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + a;
        }
    }
    std::hint::black_box(acc);
    iters * 8 * 2
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Twelve independent accumulators hide the FMA latency.
    macro_rules! fma_body {
        ($set1:ident, $fmadd:ident, $iters:expr, $lanes:expr) => {{
            let m = $set1(std::hint::black_box(0.999_999));
            let a = $set1(std::hint::black_box(1e-9));
            let mut r = [$set1(1.0); 12];
            for _ in 0..$iters {
                for x in r.iter_mut() {
                    *x = $fmadd(*x, m, a);
                }
            }
            std::hint::black_box(&r);
            $iters * 12 * $lanes * 2
        }};
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma512(iters: u64) -> u64 {
        fma_body!(_mm512_set1_pd, _mm512_fmadd_pd, iters, 8)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma256(iters: u64) -> u64 {
        fma_body!(_mm256_set1_pd, _mm256_fmadd_pd, iters, 4)
    }
}

/// Write one result set: schema, workload, seed, mode, manifest, and the
/// reported metrics with units, as one flat JSON line.
pub fn write_result_set(
    path: &str,
    ctx: &crate::Ctx,
    manifest: &BTreeMap<String, String>,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> std::io::Result<()> {
    let obj = |pairs: Vec<(String, String)>| {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let mut man: Vec<(String, String)> = manifest.clone().into_iter().collect();
    man.push(("machine.peak_gflops".into(), format!("{}", ctx.peak_gflops)));
    let metrics = table
        .iter()
        .filter_map(|(n, _)| values.get(n).map(|v| (n.to_string(), format!("{v}"))))
        .collect();
    let units = table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let line = format!(
        "{{\"schema\":\"perfbench/v1\",\"workload\":\"{}\",\"seed\":\"{}\",\"trace\":\"{}\",\
         \"manifest\":{},\"metrics\":{},\"units\":{}}}\n",
        escape(&ctx.workload),
        ctx.seed,
        ctx.traced as u8,
        obj(man),
        obj(metrics),
        obj(units)
    );
    std::fs::write(path, line)
}

type ResultSet = (String, BTreeMap<String, String>, BTreeMap<String, String>);

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let map = parse_line(text.trim()).ok_or(format!("{path}: not a result set"))?;
    if map.get("schema").and_then(Value::as_str) != Some("perfbench/v1") {
        return Err(format!("{path}: schema is not perfbench/v1"));
    }
    let object = |k: &str| match map.get(k) {
        Some(Value::Object(o)) => Ok(o.clone()),
        _ => Err(format!("{path}: missing '{k}'")),
    };
    let workload = map
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    Ok((workload, object("manifest")?, object("metrics")?))
}

/// Why two manifests may not be compared, or `None` when they may.
pub fn mismatch(
    base: &BTreeMap<String, String>,
    cand: &BTreeMap<String, String>,
) -> Option<String> {
    let diffs: Vec<String> = MUST_MATCH
        .iter()
        .filter(|k| base.get(**k) != cand.get(**k))
        .map(|k| {
            format!(
                "{k}: '{}' vs '{}'",
                base.get(*k).map(String::as_str).unwrap_or("?"),
                cand.get(*k).map(String::as_str).unwrap_or("?")
            )
        })
        .collect();
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

/// `perfbench compare`: print candidate ÷ base per metric, or refuse
/// (exit 2) when the result sets come from different environments.
pub fn compare(base: &str, cand: &str) -> ExitCode {
    let (b, c) = match (load(base), load(cand)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    if b.0 != c.0 {
        eprintln!(
            "perfbench compare: refusing: workloads differ ('{}' vs '{}')",
            b.0, c.0
        );
        return ExitCode::from(2);
    }
    if let Some(why) = mismatch(&b.1, &c.1) {
        eprintln!("perfbench compare: refusing: environments differ: {why}");
        return ExitCode::from(2);
    }
    for (name, bv) in &b.2 {
        let (Ok(x), Some(Ok(y))) = (bv.parse::<f64>(), c.2.get(name).map(|v| v.parse::<f64>()))
        else {
            continue;
        };
        let ratio = if x != 0.0 { y / x } else { f64::NAN };
        println!("{name:<32} {x:>14.6} {y:>14.6} {ratio:>8.3}x");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn man(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn manifests_differing_in_machine_or_build_are_refused() {
        let base = man(&[
            ("cpu_model", "X"),
            ("cpu_cores", "2"),
            ("available_parallelism", "2"),
            ("rustc", "1.95"),
            ("opt_level", "3"),
            ("git_rev", "abc"),
        ]);
        let mut other_rev = base.clone();
        other_rev.insert("git_rev".into(), "def".into());
        assert_eq!(mismatch(&base, &other_rev), None, "revisions may differ");
        for key in MUST_MATCH {
            let mut c = base.clone();
            c.insert(key.to_string(), "other".into());
            let why = mismatch(&base, &c).expect("must refuse");
            assert!(why.contains(key), "{why}");
        }
    }

    #[test]
    fn peak_is_positive() {
        assert!(peak_gflops() > 0.0);
    }
}
