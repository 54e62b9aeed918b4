#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --repeat 10 [--seed N] ...

Run from the repository root.  The benchmark (perfbench/, a CMake package of
its own) is built in Release mode from ../src into .bench_build/perfbench;
work and cache directories go under .bench_build/work.  Nothing is read or
written outside the checkout.  --seconds defaults to run_seconds in
BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is non-zero when
the build fails or any output check fails.

--repeat N runs the workload in N fresh processes with seeds S, S+1, ...
(S from --seed) and prints, for every metric, its median, quartiles,
min/max and the quartile spread as a share of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "tmp"
BINARY = BUILD / "rr_perfbench"


def build():
    """Configure and build; compiler output goes to stderr."""
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", "4"]]
    return all(subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0
               for cmd in steps)


def default_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def command(args, seed, capture):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, TMPDIR=str(TMP))
    return subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def repeat(args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        proc = command(args, seed, capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(f"seed {seed}: exit {proc.returncode} "
              + json.dumps({k: v["value"] for k, v in
                            result.get("metrics", {}).items()}), flush=True)
        if proc.returncode != 0 or not result.get("correct"):
            return 1
        runs.append(result)
    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs, trace {args.trace}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (med, med, med))
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "min": min(values), "max": max(values),
                         "spread": spread}
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(values):12.6g} {max(values):12.6g} {spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "summary": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N processes with consecutive seeds and "
                             "summarize each metric")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = default_seconds()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.repeat > 0:
        return repeat(args)
    return command(args, args.seed, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
