"""The benchmark's traced run wraps spikert names by attribute and measures
their results; a rename or a changed return shape in spikert must fail here
rather than in the benchmark."""

import json
import os
import subprocess
import sys

import pytest

from conftest import SMALL_SPEC

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("install", ["install_timing", "install_tracing"])
def test_span_hooks_find_every_wrapped_name(install):
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import spans; "
            f"spans.{install}(spans.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"),
                           os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_traced_run_measures_every_span(tmp_path):
    """A traced CLI run through the benchmark's child: every span's measure
    function accepts what the wrapped call returns."""
    model = tmp_path / "small.net"
    model.write_text(SMALL_SPEC)
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
                           str(result), "tracing", "--", "--model", str(model),
                           "--out", str(tmp_path / "out"), "--duration-ms", "5",
                           "--mode", "both"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(result.read_text())
    assert res["error"] is None, res["error"]
    assert res["exit_code"] == 0


@pytest.mark.parametrize("args,span", [
    pytest.param(["--map-only"], "mapping.routing_tables", id="map_only"),
    pytest.param(["--duration-ms", "5", "--mode", "hardware"], "runtime.setup",
                 id="simulation"),
])
def test_timed_run_records_the_setup_span(tmp_path, args, span):
    """A timing-mode run through the benchmark's child records the span that
    ``bench.untraced_values`` ends ``setup_s`` at: the routing-table build of
    a map-only run, ``HardwareSimulation()`` of a simulation.  A call moved
    out of the module perfbench wraps would leave it unrecorded."""
    model = tmp_path / "small.net"
    model.write_text(SMALL_SPEC)
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
                           str(result), "timing", "--", "--model", str(model),
                           "--out", str(tmp_path / "out"), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(result.read_text())
    assert res["error"] is None, res["error"]
    assert res["exit_code"] == 0
    assert res["spans"][span]["calls"] == 1
