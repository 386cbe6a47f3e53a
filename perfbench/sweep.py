"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads poisson_rt_s02,dc_rt_s10 --seeds 1-10 \
        --seconds 36 --trace 0 --out sweep.json

Runs ``bench.py`` once per (seed, workload), seeds in the outer loop, and
prints per metric the median, the quartiles of ``statistics.quantiles(n=4)``,
the sample count and the spread, (q3 - q1) / median, next to the metric's
bound from BENCHMARK.json.  ``--out`` writes the summary and every value as
JSON, with the host it ran on; ``baseline.json`` holds three such summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

import bench


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    names = args.workloads.split(",")
    values: dict[str, dict[str, list]] = {n: {} for n in names}
    units: dict[str, str] = {}
    runs = {n: {"attempted": 0, "failed": 0, "incorrect": 0} for n in names}
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, os.path.join(bench.HERE, "bench.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
                runs[name]["incorrect"] += 1
                continue
            res = json.loads(lines[-1])
            runs[name]["attempted"] += res["attempted"]
            runs[name]["failed"] += res["failed"]
            runs[name]["incorrect"] += not res["correct"]
            for k, m in res["metrics"].items():
                values[name].setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            shown = {k: round(m["value"], 4) for k, m in res["metrics"].items()
                     if k in bench.END_TO_END}
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} {shown}", flush=True)
    summary = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__},
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        summary["workloads"][name] = {"runs": runs[name], "metrics": {}}
        print(f"# {name}: {runs[name]}")
        for k, vals in values[name].items():
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary["workloads"][name]["metrics"][k] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals), "spread": spread,
                "unit": units[k], "values": vals}
            bound = f"bound {bounds[k]:.2f}" if k in bounds else ""
            print(f"  {k:36s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"n {len(vals):2d} spread {spread:.4f} {bound}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
