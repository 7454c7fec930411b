#!/usr/bin/env python3
"""Runs each benchmark workload repeatedly and reports how steady it is.

For every workload and every run it prints the operations attempted and
failed by kind; for every end-to-end metric it prints the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound from BENCHMARK.json. With --trace it makes one traced run
per workload instead and prints the per-layer metrics.

    python3 pqebench/steady.py                      # 10 runs of each workload
    python3 pqebench/steady.py --runs 1             # every workload once
    python3 pqebench/steady.py --workloads serve-live --runs 5 --first-seed 100
    python3 pqebench/steady.py --trace

Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "pqebench/Cargo.toml"],
        cwd=ROOT, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("pqebench", "target"))
    return os.path.join(ROOT, target, "release", "pqebench")


def run_once(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
    out = proc.stdout.strip().splitlines()
    ops = json.loads(out[-2].split(" ", 1)[1])
    steal = next((l.rsplit("host ", 1)[1] for l in proc.stderr.splitlines() if "host steal" in l), "steal ?")
    return ops, json.loads(out[-1]), steal


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="one traced run per workload")
    args = ap.parse_args()
    binary = build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        if args.trace:
            ops, res, steal = run_once(binary, w, args.first_seed, args.seconds, True)
            print(f"== {w} (traced, seed {args.first_seed}, host {steal}) ops {ops}")
            for name, m in res["metrics"].items():
                print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
            continue
        values = {}
        print(f"== {w}")
        for i in range(args.runs):
            seed = args.first_seed + i
            ops, res, steal = run_once(binary, w, seed, args.seconds, False)
            kinds = " ".join(f"{k}={v}" for k, v in ops.items() if k != "attempted")
            print(f"  seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({kinds}); host {steal}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if args.runs < 2:
            for name, vs in values.items():
                print(f"  {name:16s} {vs[0]:12.4f}")
            continue
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            worst = max(worst, spread / bound)
            flag = "  ok" if spread < bound / 3 else ("  WIDE" if spread > bound else "  >1/3")
            print(f"  {name:16s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.3f}  bound {bound}{flag}")
    if not args.trace and args.runs >= 2:
        print(f"widest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    sys.exit(main())
