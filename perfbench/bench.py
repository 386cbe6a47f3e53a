"""spikert benchmark: timed CLI runs with golden-output checks.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each iteration runs ``spikert.cli.main``
in a fresh interpreter (``perfbench/child.py``), one at a time, writing to a
fresh, empty output directory under ``.perfbench_work/``.  Iterations repeat
until ``--seconds`` is used up (at least ``MIN_ITERS``); the end-to-end
metrics are their medians.  Times are divided by the host's slowdown, which
is sampled on the child's own CPU while it runs (``hostspeed.py``).  With ``--trace 1`` one more iteration runs with a
span on every layer boundary and the per-layer metrics come from it.

Every iteration's outputs are hashed.  At the golden seeds (1, 2, 3) the
digests and simulated counts must equal ``golden.json``; at any seed all
iterations must agree with each other.  A non-zero exit, an exception or a
mismatch counts as a failed iteration.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
MODEL = "src/spikert/data/microcircuit.net"
MACHINE_12 = "src/spikert/data/machine_12board.mach"
REQUIRED = ("src/spikert/cli.py", MODEL, MACHINE_12)

MIN_ITERS = 2
DEADLINE_S = 165.0  # every run must end within 180 s
GOLDEN_SEEDS = (1, 2, 3)
SIM_FILES = ("trace_hardware.txt", "trace_oracle.txt", "profile.tsv", "profile_events.tsv")
SIM_COUNTS = ("flush_report.txt", "equivalence.txt")
MAP_FILES = ("routing_tables.txt", "placement.txt")
MAP_COUNTS = ("placement_summary.txt",)


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    duration_ms: float  # simulated time; 0 for a map-only run
    files: tuple[str, ...]
    count_files: tuple[str, ...]


# Each workload loads most of its work onto a different layer; see README.md.
WORKLOADS = {
    "poisson_rt_s02": Workload(
        ("--scale", "0.02", "--input", "poisson", "--duration-ms", "200",
         "--drift-bound-ppm", "20", "--slowdown", "1", "--mode", "both", "--profile", "full"),
        200.0, SIM_FILES, SIM_COUNTS),
    "dc_rt_s10": Workload(
        ("--scale", "0.1", "--input", "dc", "--duration-ms", "10",
         "--slowdown", "1", "--mode", "both", "--profile", "full"),
        10.0, SIM_FILES, SIM_COUNTS),
    "map_s04": Workload(
        ("--scale", "0.4", "--map-only", "--machine", MACHINE_12),
        0.0, MAP_FILES, MAP_COUNTS),
}

# name -> unit; the end-to-end metrics come from untraced iterations
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the per-layer metrics come from the traced iteration
PER_LAYER = {
    "network.build_s": "s",
    "network.synapses": "count",
    "mapping.place_s": "s",
    "mapping.place_attempts": "count",
    "mapping.destinations_s": "s",
    "mapping.routing_tables_s": "s",
    "mapping.routing_entries": "count",
    "mapping.delivery_map_s": "s",
    "mapping.packet_walks": "count",
    "matrices.encode_s": "s",
    "matrices.encode_calls": "count",
    "matrices.source_index_s": "s",
    "matrices.poisson_bank_s": "s",
    "matrices.poisson_bank_mb": "MB",
    "matrices.poisson_slice_s": "s",
    "matrices.poisson_slice_calls": "count",
    "runtime.setup_self_s": "s",
    "runtime.setup_bytes_per_synapse": "B/synapse",
    "runtime.window_s": "s",
    "runtime.window_calls": "count",
    "runtime.us_per_packet": "us",
    "runtime.packets_per_s": "1/s",
    "runtime.step_self_s": "s",
    "runtime.neuron_update_s": "s",
    "runtime.packets_received": "count",
    "runtime.packets_flushed": "count",
    "runtime.flush_frac": "ratio",
    "runtime.events_processed": "count",
    "runtime.events_flushed": "count",
    "runtime.late_packets": "count",
    "oracle.spikes": "count",
    "clocks.advance_s": "s",
    "clocks.advance_calls": "count",
    "clocks.rounds": "count",
    "oracle.self_s": "s",
    "oracle.neuron_update_s": "s",
    "runtime.profile_serialize_s": "s",
    "trace.serialize_s": "s",
    "trace.serialize_calls": "count",
    "analysis.firing_stats_s": "s",
    "cli.bytes_written": "B",
    "cli.output_s": "s",
    "hw_sim_ms_per_s": "ms/s",
    "oracle_sim_ms_per_s": "ms/s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.slowdown": "ratio",
    "trace.overhead_s": "s",
    "host.slowdown": "ratio",
    "host.wall_raw_s": "s",
    "host.setup_raw_s": "s",
}


def seed_args(seed: int) -> list[str]:
    """Workload seed n drives the network, Poisson and drift streams as
    n, n+1, n+2, so seed 1 gives the CLI defaults."""
    return ["--seed-network", str(seed), "--seed-poisson", str(seed + 1),
            "--seed-drift", str(seed + 2)]


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- one iteration -----------------------------------------------------------

def run_child(wl: Workload, seed: int, tag: str, traced: bool, timeout: float,
              keep: bool = False) -> dict:
    """Run the CLI once in a fresh interpreter; returns the child's result
    (or a failure record) plus the inspected outputs.  The output directory
    ``WORK/tag`` is removed afterwards unless ``keep``."""
    out_dir = os.path.join(WORK, tag)
    result_path = os.path.join(WORK, tag + ".json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, result_path, "tracing" if traced else "timing", "--",
           "--model", MODEL, "--out", out_dir, *wl.args, *seed_args(seed)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    err_path = os.path.join(WORK, tag + ".err")
    chunks: list[tuple[float, float]] = []
    timed_out = False
    t0 = time.perf_counter()
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            # The child shares this process's CPU; sample that CPU's speed
            # while the child runs (see hostspeed.py).
            while proc.poll() is None:
                if time.perf_counter() - t0 > max(timeout, 1.0):
                    timed_out = True
                    break
                time.sleep(hostspeed.PERIOD_S)
                chunks.append(hostspeed.chunk())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = f"timed out after {timeout:.0f} s" if timed_out else fh.read()
    os.remove(err_path)
    if not chunks:
        chunks.append(hostspeed.chunk())
    res = {"problems": [], "elapsed_s": elapsed, "chunks": chunks}
    try:
        with open(result_path, "r", encoding="utf-8") as fh:
            res.update(json.load(fh))
    except (OSError, ValueError):
        res["problems"].append(f"no result from child: {stderr.strip()[-400:]}")
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return res
    if res["exit_code"] != 0:
        res["problems"].append(f"exit code {res['exit_code']}: "
                               f"{(res['error'] or stderr).strip()[-400:]}")
    inspect_outputs(wl, out_dir, res)
    if not keep:
        shutil.rmtree(out_dir, ignore_errors=True)
    return res


def inspect_outputs(wl: Workload, out_dir: str, res: dict) -> None:
    """Digest the golden files, read the simulated counts and check the
    invariants that hold at every seed."""
    digests, counts, spike_lines = {}, {}, {}
    for fname in wl.files:
        path = os.path.join(out_dir, fname)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            res["problems"].append(f"missing output {fname}")
            continue
        digests[fname] = hashlib.sha256(data).hexdigest()
        if fname.startswith("trace_"):
            spike_lines[fname] = sum(1 for line in data.splitlines()
                                     if line and not line.startswith(b"#"))
    for fname in wl.count_files:
        try:
            with open(os.path.join(out_dir, fname), "r", encoding="utf-8") as fh:
                for line in fh:
                    key, _, value = line.strip().partition(" ")
                    counts[key] = value
        except OSError:
            res["problems"].append(f"missing output {fname}")
    for trace_file, key in (("trace_hardware.txt", "hardware_spikes"),
                            ("trace_oracle.txt", "oracle_spikes")):
        if trace_file in spike_lines and counts.get(key) != str(spike_lines[trace_file]):
            res["problems"].append(f"{trace_file} holds {spike_lines[trace_file]} spikes, "
                                   f"equivalence.txt says {counts.get(key)}")
    res["digests"] = digests
    res["counts"] = counts
    res["bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f))
                               for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0


def outputs_of(res: dict) -> dict:
    """What must repeat exactly: digests and simulated counts."""
    return {"files": res.get("digests") or {}, "counts": res.get("counts") or {}}


def check_agreement(runs: list[dict], expected: dict | None) -> None:
    """Compare every run with the golden record, or, without one, with the
    outputs most runs share.  A mismatch is recorded as a problem."""
    source = "golden record" if expected is not None else "other runs"
    if expected is None:
        sigs = [json.dumps(outputs_of(r), sort_keys=True) for r in runs if not r["problems"]]
        if not sigs:
            return
        expected = json.loads(collections.Counter(sigs).most_common(1)[0][0])
    for r in runs:
        got = outputs_of(r)
        if r["problems"] or got == expected:
            continue
        diff = sorted(k for part in ("files", "counts")
                      for k in set(expected[part]) | set(got[part])
                      if expected[part].get(k) != got[part].get(k))
        r["problems"].append(f"outputs differ from the {source}: {diff}")


# -- metrics ------------------------------------------------------------------

def untraced_values(wl: Workload, res: dict) -> dict:
    """The end-to-end split of one untraced run, from the entry and exit
    times of the top-level calls ``cli.run`` makes.  ``wall_s`` and
    ``setup_s`` are divided by the host slowdown sampled over their own
    windows; the rates and ``cli.output_s`` by that of the whole call."""
    spans, t0, chunks = res["spans"], res["t0"], res["chunks"]
    wall = spans["cli.main"]["incl_s"]
    setup_end = spans["mapping.routing_tables" if wl.duration_ms == 0 else
                      "runtime.setup"]["first_end_s"]
    f_wall = hostspeed.factor(chunks, t0, t0 + wall)
    f_setup = hostspeed.factor(chunks, t0, t0 + setup_end)
    hw = spans.get("runtime.run", {}).get("incl_s", 0.0) / f_wall
    orc = spans.get("oracle.simulate", {}).get("incl_s", 0.0) / f_wall
    return {
        "wall_s": wall / f_wall,
        "setup_s": setup_end / f_setup,
        "cli.output_s": (wall - setup_end) / f_wall - hw - orc,
        "peak_rss_mb": res["peak_rss_bytes"] / 1e6,
        "hw_sim_ms_per_s": wl.duration_ms / hw if hw else 0.0,
        "oracle_sim_ms_per_s": wl.duration_ms / orc if orc else 0.0,
        "host.slowdown": f_wall,
        "host.wall_raw_s": wall,
        "host.setup_raw_s": setup_end,
    }


def layer_values(res: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced run; ``untraced`` holds the medians
    of the untraced runs."""
    spans = res["spans"]

    def incl(n):
        return spans.get(n, {}).get("incl_s", 0.0)

    def self_s(n):
        return spans.get(n, {}).get("self_s", 0.0)

    def calls(n):
        return spans.get(n, {}).get("calls", 0)

    def values(n):
        return spans.get(n, {}).get("values", [])

    windows = values("runtime.window")
    received = sum(w[0] for w in windows)
    flushed = sum(w[1] for w in windows)
    ev_p = sum(w[2] for w in windows)
    ev_f = sum(w[3] for w in windows)
    synapses = sum(values("network.build"))
    wall = incl("cli.main")
    f_traced = hostspeed.factor(res["chunks"], res["t0"], res["t0"] + wall)
    return {
        "network.build_s": incl("network.build"),
        "network.synapses": synapses,
        "mapping.place_s": incl("mapping.place_radial") + self_s("mapping.place"),
        "mapping.place_attempts": calls("mapping.place_radial"),
        "mapping.destinations_s": incl("mapping.destinations"),
        "mapping.routing_tables_s": incl("mapping.routing_tables"),
        "mapping.routing_entries": sum(values("mapping.routing_tables")),
        "mapping.delivery_map_s": incl("mapping.delivery_map"),
        "mapping.packet_walks": calls("mapping.walk_packet"),
        "matrices.encode_s": incl("matrices.encode"),
        "matrices.encode_calls": calls("matrices.encode"),
        "matrices.source_index_s": incl("matrices.source_index"),
        "matrices.poisson_bank_s": incl("matrices.poisson_bank"),
        "matrices.poisson_bank_mb": max(values("matrices.poisson_bank"), default=0) / 1e6,
        "matrices.poisson_slice_s": incl("matrices.poisson_slice"),
        "matrices.poisson_slice_calls": calls("matrices.poisson_slice"),
        "runtime.setup_self_s": self_s("runtime.setup"),
        "runtime.setup_bytes_per_synapse":
            sum(values("runtime.setup")) / synapses if calls("runtime.setup") else 0.0,
        "runtime.window_s": incl("runtime.window"),
        "runtime.window_calls": calls("runtime.window"),
        "runtime.us_per_packet": incl("runtime.window") * 1e6 / received if received else 0.0,
        "runtime.packets_per_s": received / incl("runtime.run") if received else 0.0,
        "runtime.step_self_s": self_s("runtime.run"),
        "runtime.neuron_update_s": incl("runtime.neuron_update"),
        "runtime.packets_received": received,
        "runtime.packets_flushed": flushed,
        "runtime.flush_frac": ev_f / (ev_p + ev_f) if ev_p + ev_f else 0.0,
        "runtime.events_processed": ev_p,
        "runtime.events_flushed": ev_f,
        "runtime.late_packets": sum(w[4] for w in windows),
        "oracle.spikes": sum(values("oracle.simulate")),
        "clocks.advance_s": incl("clocks.advance"),
        "clocks.advance_calls": calls("clocks.advance"),
        "clocks.rounds": calls("clocks.round"),
        "oracle.self_s": self_s("oracle.simulate"),
        "oracle.neuron_update_s": incl("oracle.neuron_update"),
        "runtime.profile_serialize_s": incl("runtime.profile_serialize"),
        "trace.serialize_s": incl("trace.serialize"),
        "trace.serialize_calls": calls("trace.serialize"),
        "analysis.firing_stats_s": incl("analysis.firing_stats"),
        "cli.bytes_written": res["bytes_written"],
        "cli.output_s": untraced["cli.output_s"],
        "hw_sim_ms_per_s": untraced["hw_sim_ms_per_s"],
        "oracle_sim_ms_per_s": untraced["oracle_sim_ms_per_s"],
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(s["self_s"] for s in spans.values()),
        "trace.slowdown": f_traced,
        "trace.overhead_s": wall / f_traced - untraced["wall_s"],
        "host.slowdown": untraced["host.slowdown"],
        "host.wall_raw_s": untraced["host.wall_raw_s"],
        "host.setup_raw_s": untraced["host.setup_raw_s"],
    }


def check_traced(res: dict, layers: dict) -> None:
    """The traced run's own consistency: self times cover the wall time and
    the window counters agree with the CLI's flush report."""
    if abs(layers["trace.self_sum_s"] - layers["trace.wall_s"]) > 1e-6 * max(
            1.0, layers["trace.wall_s"]):
        res["problems"].append("span self times do not add up to the traced wall time")
    counts = res.get("counts", {})
    if "processed_packets" in counts:
        for key, value in (("processed_packets",
                            layers["runtime.packets_received"]
                            - layers["runtime.packets_flushed"]),
                           ("flushed_packets", layers["runtime.packets_flushed"]),
                           ("processed_events", layers["runtime.events_processed"]),
                           ("flushed_events", layers["runtime.events_flushed"])):
            if counts[key] != str(value):
                res["problems"].append(f"window counters give {key} {value}, "
                                       f"flush_report.txt says {counts[key]}")


# -- one benchmark run --------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the iterations of one benchmark run and return everything the
    report needs."""
    wl = WORKLOADS[name]
    golden = load_golden().get(name, {}).get(str(seed))
    start = time.perf_counter()
    runs: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        est = statistics.median(r["elapsed_s"] for r in runs) if runs else 0.0
        if runs and elapsed + est * (2.5 if trace else 1.0) > DEADLINE_S:
            break
        if len(runs) >= MIN_ITERS and elapsed + est / 2 > seconds:
            break
        runs.append(run_child(wl, seed, f"run{len(runs)}", False, DEADLINE_S - elapsed))
    traced = None
    if trace:
        traced = run_child(wl, seed, "traced", True,
                           DEADLINE_S - (time.perf_counter() - start))
    all_runs = runs + ([traced] if traced else [])
    check_agreement(all_runs, golden)

    samples = collections.defaultdict(list)
    for r in runs:
        if not r["problems"]:
            for k, v in untraced_values(wl, r).items():
                samples[k].append(v)
    layers = None
    if traced is not None and not traced["problems"] and samples:
        medians = {k: statistics.median(v) for k, v in samples.items()}
        layers = layer_values(traced, medians)
        check_traced(traced, layers)
    return {"runs": all_runs, "samples": dict(samples), "layers": layers,
            "failed": sum(1 for r in all_runs if r["problems"])}


def report(name: str, seed: int, m: dict, trace: bool) -> dict:
    """Print the human-readable table and return the result object."""
    attempted, failed = len(m["runs"]), m["failed"]
    for i, r in enumerate(m["runs"]):
        for p in r["problems"]:
            print(f"run {i} failed: {p}", file=sys.stderr)
    print(f"# workload {name} seed {seed}: {attempted} runs, {failed} failed, "
          f"fail_frac {failed / attempted:.4f}")
    print(f"# {'metric':36s} {'median':>14s} {'q1':>12s} {'q3':>12s}  n  unit")
    for k, v in m["samples"].items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        unit = END_TO_END.get(k, PER_LAYER.get(k))
        print(f"  {k:36s} {med:14.6g} {q1:12.6g} {q3:12.6g} {len(v):2d}  {unit}")
    if m["layers"] is not None:
        print("# traced run (n=1)")
        for k, v in m["layers"].items():
            print(f"  {k:36s} {v:14.6g}  {PER_LAYER[k]}")
        print(f"# spans of the traced run: {'name':30s} {'calls':>8s} {'incl_s':>10s} "
              f"{'self_s':>10s}")
        spans = sorted(m["runs"][-1]["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for k, s in spans:
            print(f"  {k:54s} {s['calls']:8d} {s['incl_s']:10.4f} {s['self_s']:10.4f}")
    if trace:
        table, values = PER_LAYER, m["layers"]
    else:
        table = END_TO_END
        values = {k: statistics.median(m["samples"][k]) for k in table} \
            if m["samples"] else None
    return {
        "correct": failed == 0 and values is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": (values or {}).get(k, 0), "unit": unit}
                    for k, unit in table.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"bench: not a spikert checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    hostspeed.pin_to_one_cpu()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not m["samples"]:
        print("bench: no run completed", file=sys.stderr)
        report(args.workload, args.seed, m, bool(args.trace))
        return 1
    result = report(args.workload, args.seed, m, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
