#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs the benchmark once per (workload, seed) from the repository root,
with `run_seconds` from BENCHMARK.json, and prints for every metric its
median, quartiles and spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
With `--trace 0` each spread is compared with its bound from
BENCHMARK.json. Raw results are appended to `.perfbench/spread.jsonl`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = open(os.path.join(ROOT, ".perfbench", "spread.jsonl"), "a")
    ok = True
    for w in args.workloads.split(","):
        values = {}
        walls = []
        for s in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                   "--seed", str(s), "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t = time.monotonic()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t)
            last = (run.stdout.strip().splitlines() or ["{}"])[-1]
            result = json.loads(last) if last.startswith("{") else {}
            log.write(json.dumps({"workload": w, "seed": s, "exit": run.returncode, "result": result}) + "\n")
            log.flush()
            if run.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {s}: exit {run.returncode}, result {last[:200]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w:13} run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) < 2 or med == 0:
                print(f"{w:13} {name:32} median {med:.6g} (n={len(vs)})")
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name) if args.trace == "0" else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
                if spread > bound:
                    ok = False
            print(f"{w:13} {name:32} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (n={len(vs)}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
