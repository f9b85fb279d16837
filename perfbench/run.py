#!/usr/bin/env python3
"""Build the benchmark and the `fastmm` binary it drives, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run artifacts (result sets, spans, fleet logs) go to
`.perfbench/`. Cargo's output goes to stderr, so the last stdout line is
the benchmark's JSON result. `python3 perfbench/run.py compare A B`
compares two result sets.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "fastmm"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:]]
    if sys.argv[1:2] != ["compare"]:
        cmd += ["--fastmm", os.path.join(release, "fastmm"),
                "--root", root, "--out", os.path.join(root, ".perfbench")]
    return subprocess.call(cmd, cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
