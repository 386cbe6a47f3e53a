import json
import os

import pytest

from conftest import SMALL_SPEC
from spikert import cli, runtime


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


def test_bad_spec_exits_with_spec_code(tmp_path):
    bad = write(tmp_path, "bad.net", SMALL_SPEC.replace("target = I", "target = X"))
    assert run_cli(tmp_path, bad) == cli.EXIT_SPEC


def test_too_small_machine_exits_with_placement_code(tmp_path, model):
    mach = machine_file(tmp_path, width=1, height=1, usable_cores_per_chip=8)
    assert run_cli(tmp_path, model, "--machine", mach) == cli.EXIT_PLACEMENT


def test_routing_table_overflow_exits_with_routing_code(tmp_path, model):
    mach = machine_file(tmp_path, routing_entries_per_chip=1)
    assert run_cli(tmp_path, model, "--machine", mach) == cli.EXIT_ROUTING
    assert not os.path.exists(tmp_path / "out" / "trace_hardware.txt")
