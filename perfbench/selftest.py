"""Tests of the benchmark itself (about 15 s; they run the simulator).

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection because every test
here runs ``spikert`` in child interpreters.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = bench.Workload(
    ("--scale", "0.02", "--input", "poisson", "--duration-ms", "20",
     "--drift-bound-ppm", "20", "--mode", "both", "--profile", "full"),
    20.0, bench.SIM_FILES, bench.SIM_COUNTS)


@pytest.fixture
def work():
    os.makedirs(bench.WORK, exist_ok=True)
    yield bench.WORK
    shutil.rmtree(bench.WORK, ignore_errors=True)


def test_metric_names_are_valid_and_declared():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == bench.END_TO_END
    assert declared_layer == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for name in [*bench.END_TO_END, *bench.PER_LAYER, *bench.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name


def test_golden_covers_every_workload():
    golden = bench.load_golden()
    for name, wl in bench.WORKLOADS.items():
        for seed in bench.GOLDEN_SEEDS:
            entry = golden[name][str(seed)]
            assert set(entry) == {"files", "counts"}
            assert set(entry["files"]) == set(wl.files)


def test_corrupted_output_is_a_failure(work):
    res = bench.run_child(SMALL, 1, "ok", False, 300.0, keep=True)
    assert res["problems"] == []
    out_dir = os.path.join(work, "ok")
    clean = {"problems": []}
    bench.inspect_outputs(SMALL, out_dir, clean)
    bench.check_agreement([clean], bench.outputs_of(res))
    assert clean["problems"] == []

    # one flipped byte: caught against the golden record
    path = os.path.join(out_dir, "profile.tsv")
    with open(path, "r+b") as fh:
        fh.seek(-3, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-3, os.SEEK_END)
        fh.write(b"0" if byte != b"0" else b"1")
    flipped = {"problems": []}
    bench.inspect_outputs(SMALL, out_dir, flipped)
    bench.check_agreement([flipped], bench.outputs_of(res))
    assert flipped["problems"] and "profile.tsv" in flipped["problems"][0]

    # without a golden record the run that disagrees with the others fails
    good = [{"problems": [], **bench.outputs_of(res)} for _ in range(2)]
    odd = dict(flipped, problems=[])
    bench.check_agreement(good + [odd], None)
    assert [bool(r["problems"]) for r in good + [odd]] == [False, False, True]

    # a dropped spike line breaks the trace/count invariant at any seed
    path = os.path.join(out_dir, "trace_hardware.txt")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    dropped = {"problems": []}
    bench.inspect_outputs(SMALL, out_dir, dropped)
    assert any("trace_hardware.txt" in p for p in dropped["problems"])


def test_traced_run_matches_untraced(work):
    plain = bench.run_child(SMALL, 4, "plain", False, 300.0)
    traced = bench.run_child(SMALL, 4, "traced", True, 300.0)
    assert plain["problems"] == [] and traced["problems"] == []
    assert bench.outputs_of(traced) == bench.outputs_of(plain)
    untraced = bench.untraced_values(SMALL, plain)
    layers = bench.layer_values(traced, untraced)
    bench.check_traced(traced, layers)
    assert traced["problems"] == []
    assert set(layers) == set(bench.PER_LAYER)
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["matrices.encode_calls"] == 2
    assert layers["trace.serialize_calls"] == 4
    assert layers["oracle.spikes"] == int(plain["counts"]["oracle_spikes"])


def test_no_flush_regime_gives_identical_traces(work):
    no_flush = bench.Workload(
        ("--scale", "0.02", "--input", "dc", "--duration-ms", "100", "--slowdown", "10",
         "--drift-bound-ppm", "20", "--mode", "both", "--profile", "full"),
        100.0, bench.SIM_FILES, bench.SIM_COUNTS)
    res = bench.run_child(no_flush, 1, "noflush", False, 300.0)
    assert res["problems"] == []
    assert res["counts"]["flushed_packets"] == "0"
    assert res["counts"]["identical_traces"] == "True"
    assert res["digests"]["trace_hardware.txt"] == res["digests"]["trace_oracle.txt"]


def test_incomplete_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/bench.py", "--workload", "map_s04",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
