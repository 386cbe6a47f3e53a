"""One CLI run in a fresh interpreter, timed by spans.

    python3 perfbench/child.py RESULT.json {timing|tracing} -- <spikert CLI args>

Imports ``spikert`` from ``src/`` of the checkout, installs the wrappers of
the chosen mode, calls ``spikert.cli.main`` under a root span and writes the
exit code, span aggregates and peak RSS to RESULT.json.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    result_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("timing", "tracing"):
        print("usage: child.py RESULT.json {timing|tracing} -- <cli args>", file=sys.stderr)
        return 2
    from spikert import cli

    rec = spans.Recorder()
    (spans.install_tracing if mode == "tracing" else spans.install_timing)(rec)
    error = None
    root = rec.open("cli.main")
    try:
        code = cli.main(cli_args)
    except Exception:  # reported to the benchmark as a failed run
        code = -1
        error = traceback.format_exc()
    finally:
        rec.close(root)
    result = {
        "exit_code": code,
        "error": error,
        "peak_rss_bytes": spans.maxrss_bytes(),
        "t0": rec.spans[root][1],  # perf_counter at the root span's start
        "spans": rec.aggregate(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
