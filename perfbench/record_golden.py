"""Rewrite golden.json from one untraced run per workload at each golden seed.

    python3 perfbench/record_golden.py

Only for a change that is meant to alter outputs: the digests and simulated
counts it records are what every later benchmark run is checked against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import bench


def main() -> int:
    golden: dict[str, dict] = {}
    os.makedirs(bench.WORK, exist_ok=True)
    try:
        for name, wl in bench.WORKLOADS.items():
            for seed in bench.GOLDEN_SEEDS:
                res = bench.run_child(wl, seed, f"{name}-{seed}", False, 600.0)
                if res["problems"]:
                    print(f"{name} seed {seed}: {res['problems']}", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = bench.outputs_of(res)
                print(f"{name} seed {seed}: {res['elapsed_s']:.1f} s")
    finally:
        shutil.rmtree(bench.WORK, ignore_errors=True)
    with open(bench.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
