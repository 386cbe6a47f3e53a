import json
import os

import pytest

from conftest import SMALL_SPEC
from spikert import cli, runtime
from spikert.mapping import NEURONS_PER_CORE


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def machine_file(tmp_path, **overrides):
    keys = {"width": 8, "height": 6, "wrap_vertical": "false", **overrides}
    return write(tmp_path, "small.mach",
                 "[machine]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))


@pytest.fixture
def model(tmp_path):
    return write(tmp_path, "small.net", SMALL_SPEC)


def run_cli(tmp_path, model, *extra):
    return cli.main(["--model", model, "--out", str(tmp_path / "out"),
                     "--duration-ms", "5", *extra])


def test_run_writes_outputs_and_manifest(tmp_path, model):
    assert run_cli(tmp_path, model, "--slowdown", "10") == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "equivalence.txt").read_text().startswith("identical_traces True")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["defaults"]["ring_slots"] == runtime.RING_SLOTS
    assert manifest["defaults"]["neurons_per_core"] == NEURONS_PER_CORE == 64


def test_bad_spec_exits_with_spec_code(tmp_path):
    bad = write(tmp_path, "bad.net", SMALL_SPEC.replace("target = I", "target = X"))
    assert run_cli(tmp_path, bad) == cli.EXIT_SPEC


def bad_input_args(tmp_path, model, case):
    if case == "machine_value":
        return ["--machine", machine_file(tmp_path, width="wide")]
    if case == "costs_value":
        return ["--costs", write(tmp_path, "bad.cfg", "[costs]\nneuron_update_us = fast\n")]
    if case == "manifest_json":
        return ["--manifest", write(tmp_path, "manifest.json", "{not json")]
    if case == "manifest_key":
        config = {"model": model, "out": str(tmp_path / "out"), "neurons_per_core": 32}
        return ["--manifest", write(tmp_path, "manifest.json",
                                    json.dumps({"run_config": config}))]
    return case.split()


@pytest.mark.parametrize("case,message", [
    pytest.param("--drift-bound-ppm 150", "drift bound must be in [0, 100.0] ppm",
                 id="drift_above_bound"),
    pytest.param("--drift-bound-ppm -1", "drift bound must be in [0, 100.0] ppm",
                 id="drift_negative"),
    pytest.param("--duration-ms 0.04", "duration 0.04 ms is not a positive multiple of dt=0.1 ms",
                 id="duration_below_dt"),
    pytest.param("--duration-ms 0.25", "duration 0.25 ms is not a positive multiple of dt=0.1 ms",
                 id="duration_between_steps"),
    pytest.param("machine_value", "line 2: width: invalid literal for int()",
                 id="machine_value"),
    pytest.param("costs_value", "line 2: neuron_update_us: could not convert string to float",
                 id="costs_value"),
    pytest.param("manifest_json", "not valid JSON", id="manifest_json"),
    pytest.param("manifest_key", "unexpected keyword argument 'neurons_per_core'",
                 id="manifest_key"),
])
def test_bad_input_exits_with_spec_code(tmp_path, model, capsys, case, message):
    """Malformed options and input files end in a spec error that names the
    value, not in a traceback, and before any trace is written."""
    assert run_cli(tmp_path, model, *bad_input_args(tmp_path, model, case)) == cli.EXIT_SPEC
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "trace_hardware.txt")


def test_too_small_machine_exits_with_placement_code(tmp_path, model):
    mach = machine_file(tmp_path, width=1, height=1, usable_cores_per_chip=8)
    assert run_cli(tmp_path, model, "--machine", mach) == cli.EXIT_PLACEMENT


def test_routing_table_overflow_exits_with_routing_code(tmp_path, model):
    mach = machine_file(tmp_path, routing_entries_per_chip=1)
    assert run_cli(tmp_path, model, "--machine", mach) == cli.EXIT_ROUTING
    assert not os.path.exists(tmp_path / "out" / "trace_hardware.txt")


def test_map_only_run_replays_from_its_manifest(tmp_path, benchmark_path, machine_path):
    out, replay = tmp_path / "out", tmp_path / "replay"
    assert cli.main(["--model", benchmark_path, "--scale", "0.1", "--map-only",
                     "--machine", machine_path, "--out", str(out)]) == cli.EXIT_OK
    assert not os.path.exists(out / "trace_hardware.txt")
    assert cli.main(["--manifest", str(out / "manifest.json"),
                     "--out", str(replay)]) == cli.EXIT_OK
    for name in ("routing_tables.txt", "placement.txt", "placement_summary.txt"):
        assert (replay / name).read_bytes() == (out / name).read_bytes()
