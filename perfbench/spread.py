#!/usr/bin/env python3
"""Run one workload of the benchmark under several seeds and print,
per metric, the median and the spread (interquartile range over the
median, quartiles as statistics.quantiles gives them) next to the
bound BENCHMARK.json fixes.

    python3 perfbench/spread.py WORKLOAD [--runs 10] [--first-seed 1] [--trace 0]

Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:32s} median {med:.6g}  spread {spread:.3f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()
