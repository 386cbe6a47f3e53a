import dataclasses
import hashlib
import inspect
import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import SMALL_SPEC, line_by_line_profile, written
from spikert import analysis, cli, matrices, runtime, trace, weights
from spikert.mapping import NEURONS_PER_CORE
from spikert.network import build_network


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


# the files a run writes to its output directory
HARDWARE_OUTPUTS = {"resolved_model.net", "profile.tsv", "profile_events.tsv",
                    "trace_hardware.txt", "flush_report.txt", "sync.tsv", "placement.txt",
                    "routing_tables.txt", "placement_summary.txt", "machine.mach",
                    "stats_hardware.txt", "counts_hardware.tsv", "costs_resolved.cfg",
                    "manifest.json", "timings.json"}
BOTH_OUTPUTS = HARDWARE_OUTPUTS | {"trace_oracle.txt", "stats_oracle.txt", "counts_oracle.tsv",
                                   "equivalence.txt"}


def run_cli(tmp_path, model, *extra):
    return cli.main(["--model", model, "--out", str(tmp_path / "out"),
                     "--duration-ms", "5", *extra])


def test_run_writes_outputs_and_manifest(tmp_path, model):
    assert run_cli(tmp_path, model, "--slowdown", "10") == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "equivalence.txt").read_text().startswith("identical_traces True")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "ring_slots" not in manifest["defaults"]  # the rings are as deep as the delays need
    assert manifest["defaults"]["neurons_per_core"] == NEURONS_PER_CORE == 64


def test_loaded_trace_reproduces_its_file_and_stats(tmp_path, model):
    """A CLI run's trace read back with ``trace.load_trace`` serializes to
    the same bytes and gives the run's firing statistics document."""
    assert run_cli(tmp_path, model, "--mode", "hardware", "--duration-ms", "50",
                   "--discard-ms", "10") == cli.EXIT_OK
    out = tmp_path / "out"
    loaded = trace.load_trace(out / "trace_hardware.txt")
    assert len(loaded) > 0
    assert written(loaded.serialize) == (out / "trace_hardware.txt").read_text()
    assert analysis.stats_document(analysis.firing_stats(loaded)) == (
        out / "stats_hardware.txt").read_text()


def test_bad_spec_exits_with_spec_code(tmp_path):
    bad = write(tmp_path, "bad.net", SMALL_SPEC.replace("target = I", "target = X"))
    assert run_cli(tmp_path, bad) == cli.EXIT_SPEC


def bad_input_args(tmp_path, model, case):
    if case == "machine_value":
        return ["--machine", machine_file(tmp_path, width="wide")]
    if case in ("costs_value", "costs_nan"):
        value = "fast" if case == "costs_value" else "nan"
        return ["--costs", write(tmp_path, "bad.cfg", f"[costs]\nneuron_update_us = {value}\n")]
    if case == "manifest_json":
        return ["--manifest", write(tmp_path, "manifest.json", "{not json")]
    if case in ("manifest_key", "manifest_type", "manifest_nan"):
        config = {"model": model, "out": str(tmp_path / "out"),
                  **{"manifest_key": {"neurons_per_core": 32},
                     "manifest_type": {"duration_ms": "5"},
                     "manifest_nan": {"duration_ms": float("nan")}}[case]}
        return ["--manifest", write(tmp_path, "manifest.json",
                                    json.dumps({"run_config": config}))]
    if case.startswith("machine "):
        field, value = case.split(" ", 1)[1].split("=")
        return ["--machine", machine_file(tmp_path, **{field: value})]
    if case.startswith("costs "):
        return ["--costs", write(tmp_path, "bad.cfg", f"[costs]\n{case.split()[1]}\n")]
    if case.startswith("model "):  # the first line setting the key, rewritten
        key, value = case.split()[1].split("=")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", SMALL_SPEC, count=1, flags=re.M)
        return ["--model", write(tmp_path, "bad.net", text)]
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
    pytest.param("--seed-network -1", "seed_network must be >= 0, got -1",
                 id="seed_network_negative"),
    pytest.param("--seed-poisson -5", "seed_poisson must be >= 0, got -5",
                 id="seed_poisson_negative"),
    pytest.param("--seed-drift -2", "seed_drift must be >= 0, got -2", id="seed_drift_negative"),
    pytest.param("machine_value", "line 2: width: invalid literal for int()",
                 id="machine_value"),
    pytest.param("machine board_tile_width=0", "board_tile_width must be at least 1",
                 id="board_tile_width"),
    pytest.param("machine board_tile_height=-1", "board_tile_height must be at least 1",
                 id="board_tile_height"),
    pytest.param("machine cores_per_chip=64", "cores_per_chip must be at most 63",
                 id="cores_per_chip"),
    pytest.param("costs_value", "line 2: neuron_update_us: could not convert string to float",
                 id="costs_value"),
    pytest.param("manifest_json", "not valid JSON", id="manifest_json"),
    pytest.param("manifest_key", "unexpected keyword argument 'neurons_per_core'",
                 id="manifest_key"),
    pytest.param("manifest_type", "bad run_config: duration_ms must be float, got '5'",
                 id="manifest_type"),
    pytest.param("--duration-ms nan", "duration_ms must be a finite number, got nan",
                 id="duration_nan"),
    pytest.param("--duration-ms inf", "duration_ms must be a finite number, got inf",
                 id="duration_inf"),
    pytest.param("--slowdown nan", "slowdown must be a finite number, got nan", id="slowdown_nan"),
    pytest.param("--slowdown inf", "slowdown must be a finite number, got inf", id="slowdown_inf"),
    pytest.param("--discard-ms nan", "discard_ms must be a finite number, got nan",
                 id="discard_nan"),
    pytest.param("machine router_hop_latency_ns=nan",
                 "router_hop_latency_ns must be a positive finite number", id="hop_latency_nan"),
    pytest.param("machine board_link_latency_ns=inf",
                 "board_link_latency_ns must be a positive finite number", id="board_latency_inf"),
    pytest.param("costs_nan", "cost neuron_update_us must be a finite number", id="costs_nan"),
    pytest.param("manifest_nan", "duration_ms must be a finite number, got nan",
                 id="manifest_nan"),
    pytest.param("model tau_m_ms=0", "population E: time constants must be positive",
                 id="model_tau_m_zero"),
    pytest.param("model t_ref_ms=0.05",
                 "population E: t_ref=0.05 ms is not a multiple of dt=0.1 ms", id="model_t_ref"),
    pytest.param("model dt_ms=nan", "[simulation]: dt_ms must be a finite number, got nan",
                 id="model_dt_nan"),
    pytest.param("model weight_pa=inf",
                 "projection E->E: weight_pa must be a finite number, got inf",
                 id="model_weight_inf"),
    pytest.param("model poisson_rate_hz=inf",
                 "population E: poisson_rate_hz must be a finite number, got inf",
                 id="model_poisson_rate_inf"),
    pytest.param("model poisson_weight_pa=1e-310",
                 "population E: its Poisson weight of 1e-310 pA is too small for a "
                 "power-of-two scale", id="model_poisson_weight_subnormal"),
    pytest.param("model poisson_rate_hz=4e8",
                 "population E: poisson rate 400000000.0 Hz gives 40000 events per step of "
                 "0.1 ms, above the 16384", id="model_poisson_rate_past_int16"),
    pytest.param("costs contention_ref_writers=1", "cost contention_ref_writers must be >= 2",
                 id="contention_ref_writers_one"),
    pytest.param("costs contention_ref_writers=0", "cost contention_ref_writers must be >= 2",
                 id="contention_ref_writers_zero"),
    pytest.param("costs clock_hz=0", "cost clock_hz must be positive", id="clock_hz_zero"),
    pytest.param("costs clock_hz=-2e8", "cost clock_hz must be positive", id="clock_hz_negative"),
    pytest.param("machine dead_core=0 0 -6", "dead_core count -6 on chip (0, 0) must be >= 0",
                 id="dead_core_negative"),
    pytest.param("machine dead_core=99 99 3", "dead_core chip (99, 99) lies outside the 8x6 mesh",
                 id="dead_core_outside"),
    pytest.param("machine wrap_vertical=ture",
                 "line 4: wrap_vertical: expected one of true/false/yes/no/1/0, got 'ture'",
                 id="wrap_vertical_typo"),
    pytest.param("model v_init_sd_mv=-5", "[simulation]: v_init_sd_mv must be >= 0, got -5.0",
                 id="model_v_init_sd_negative"),
    pytest.param("model e_rest_mv=nan", "population E: e_rest_mv must be a finite number, got nan",
                 id="model_e_rest_nan"),
    pytest.param("model r_mohm=inf", "population E: r_mohm must be a finite number, got inf",
                 id="model_r_inf"),
    pytest.param("model delay_ms=nan",
                 "projection E->E: delay_ms must be a finite number, got nan",
                 id="model_delay_nan"),
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


def test_map_s04_equals_the_benchmark_golden(tmp_path, benchmark_path, machine_path):
    """The benchmark's map_s04 run (microcircuit 0.4, map-only on the
    12-board machine) at its seed 1: ``placement.txt`` and
    ``routing_tables.txt`` hash to ``perfbench/golden.json``'s SHA-256s and
    ``placement_summary.txt`` holds its counts.  The golden file is only
    read."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["map_s04"]["1"]
    out = tmp_path / "out"
    assert cli.main(["--model", benchmark_path, "--out", str(out), "--scale", "0.4",
                     "--map-only", "--machine", machine_path, "--seed-network", "1",
                     "--seed-poisson", "2", "--seed-drift", "3"]) == cli.EXIT_OK
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in golden["files"]} == golden["files"]
    assert set(golden["files"]) == {"placement.txt", "routing_tables.txt"}
    summary = (out / "placement_summary.txt").read_text().splitlines()
    assert dict(line.split(" ", 1) for line in summary) == golden["counts"]


@pytest.mark.parametrize("quantize", [pytest.param(True, id="quantized"),
                                      pytest.param(False, id="float_oracle")])
def test_simulation_run_replays_from_its_manifest(tmp_path, model, quantize):
    """A --mode both Poisson run with clock drift and a discard window
    replays from its manifest to every output byte but the manifest's and
    the timings'.  So does the run of the oracle's unquantized path, which
    only ``oracle_quantize: false`` in a manifest reaches: its oracle trace
    differs from the quantized run's."""
    out, replay = tmp_path / "out", tmp_path / "replay"
    assert run_cli(tmp_path, model, "--mode", "both", "--input", "poisson", "--duration-ms",
                   "50", "--drift-bound-ppm", "20", "--discard-ms", "10") == cli.EXIT_OK
    manifest = out / "manifest.json"
    if not quantize:
        doc = json.loads(manifest.read_text())
        doc["run_config"]["oracle_quantize"] = False
        manifest = tmp_path / "float_manifest.json"
        manifest.write_text(json.dumps(doc))
        quantized, out = out, tmp_path / "float"
        assert cli.main(["--manifest", str(manifest), "--out", str(out)]) == cli.EXIT_OK
        assert (out / "trace_oracle.txt").read_bytes() != \
            (quantized / "trace_oracle.txt").read_bytes()
    assert cli.main(["--manifest", str(manifest), "--out", str(replay)]) == cli.EXIT_OK
    assert json.loads((replay / "manifest.json").read_text())["run_config"][
        "oracle_quantize"] is quantize
    assert set(os.listdir(out)) == set(os.listdir(replay)) == BOTH_OUTPUTS
    for name in BOTH_OUTPUTS - {"manifest.json", "timings.json"}:
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


def record_calls(monkeypatch, owner, attr) -> list:
    """Wrap ``owner.attr``; the returned list gets each call's first
    argument and result."""
    func, calls = getattr(owner, attr), []

    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        calls.append((args[0], result))
        return result

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_both_modes_share_one_table_and_one_bank(tmp_path, model, monkeypatch):
    """A --mode both run encodes the synapses once and builds one Poisson
    bank, which both simulators read: the oracle reads the counts back from
    the bank's scratch file, which the run then closes."""
    encodes = record_calls(monkeypatch, matrices, "encode_projections")
    banks = record_calls(monkeypatch, matrices.PoissonBank, "__init__")
    assert run_cli(tmp_path, model, "--mode", "both") == cli.EXIT_OK
    assert (len(encodes), len(banks)) == (1, 1)
    assert banks[0][0].file.closed


def test_scratch_files_are_never_in_the_output_directory(tmp_path, model, monkeypatch):
    """A --mode both run's scratch files, the profile spill and the Poisson
    draws, have no name in the output directory: while the machine model
    runs, the directory lists only output files, so a run that a signal
    ends leaves no scratch file behind."""
    out, listed = tmp_path / "out", []
    run = runtime.HardwareSimulation.run

    def listing_run(sim, *args, **kwargs):
        listed.append(set(os.listdir(out)))
        return run(sim, *args, **kwargs)

    monkeypatch.setattr(runtime.HardwareSimulation, "run", listing_run)
    assert run_cli(tmp_path, model, "--mode", "both", "--duration-ms", "50") == cli.EXIT_OK
    assert set(os.listdir(out)) == BOTH_OUTPUTS
    assert len(listed) == 1 and listed[0] <= BOTH_OUTPUTS


@pytest.mark.parametrize("group_cells", [runtime.ProfileStore.GROUP_CELLS, 2 * 798])
def test_spilled_profile_equals_line_by_line_formatting(tmp_path, model, monkeypatch,
                                                        group_cells):
    """A --profile full run of three chunks of steps and part of a fourth,
    with a margin that flushes packets, writes profile.tsv and
    profile_events.tsv byte for byte as formatting the whole counters in
    memory line by line does, also when the counters are read back two
    synapse cores at a time.  The flush report's totals are the counters'
    sums, and the output directory holds only the run's outputs."""
    held = []
    spill = runtime.ProfileStore.spill

    def capture(profile):
        k = min(profile.received.shape[1], profile.n_steps - profile.t0)
        held.append((profile, {name: getattr(profile, name)[:, :k].copy()
                               for name in profile.COUNTERS}))
        spill(profile)

    monkeypatch.setattr(runtime.ProfileStore, "spill", capture)
    monkeypatch.setattr(runtime.ProfileStore, "GROUP_CELLS", group_cells)
    costs = write(tmp_path, "margin.cfg", "[costs]\nsecond_timer_margin_us = 95.0\n")
    assert run_cli(tmp_path, model, "--mode", "hardware", "--duration-ms", "79.8",
                   "--costs", costs) == cli.EXIT_OK
    profile = held[0][0]
    assert profile.n_steps == 798 == 3 * matrices.CHUNK_STEPS + 30
    assert [p for p, _ in held] == [profile] * 4
    counters = {name: np.concatenate([c[name] for _, c in held], axis=1)
                for name in runtime.ProfileStore.COUNTERS}
    out = tmp_path / "out"
    assert ((out / "profile.tsv").read_text(), (out / "profile_events.tsv").read_text()) == \
        line_by_line_profile(profile, counters)
    flushed = counters["flushed"]
    report = (out / "flush_report.txt").read_text()
    assert flushed.max() > 0
    assert f"flushed_packets {flushed.sum()}\n" in report
    assert f"max_flushed_in_timestep {flushed.max()}\n" in report
    assert set(os.listdir(out)) == HARDWARE_OUTPUTS


def test_run_without_a_profile_writes_the_same_flush_report(tmp_path, model):
    """With a margin that flushes packets, a --profile none hardware run
    writes no profile files but the flush report of the --profile full
    run, byte for byte."""
    costs = write(tmp_path, "margin.cfg", "[costs]\nsecond_timer_margin_us = 95.0\n")
    reports = {}
    for profile in ("full", "none"):
        out = tmp_path / profile
        assert cli.main(["--model", model, "--out", str(out), "--mode", "hardware",
                         "--duration-ms", "20", "--costs", costs,
                         "--profile", profile]) == cli.EXIT_OK
        reports[profile] = (out / "flush_report.txt").read_bytes()
    assert set(os.listdir(tmp_path / "none")) == HARDWARE_OUTPUTS - {"profile.tsv",
                                                                      "profile_events.tsv"}
    assert reports["none"] == reports["full"]
    assert b"\nflushed_packets 0\n" not in reports["full"]


def test_manifest_defaults_are_the_constants_they_report(tmp_path, model):
    """The manifest's defaults are the constants the run uses: the
    correlation defaults of ``firing_stats`` and the weight encoding's bit
    widths."""
    assert run_cli(tmp_path, model, "--map-only") == cli.EXIT_OK
    defaults = json.loads((tmp_path / "out" / "manifest.json").read_text())["defaults"]
    params = inspect.signature(analysis.firing_stats).parameters
    assert params["corr_bin_ms"].default == defaults["correlation_bin_ms"] == \
        analysis.CORR_BIN_MS
    assert params["corr_subsample"].default == defaults["correlation_subsample"] == \
        analysis.CORR_SUBSAMPLE
    assert analysis.FiringStats.estimator == defaults["correlation_estimator"] == \
        analysis.CORR_ESTIMATOR
    assert (defaults["weight_bits"], defaults["min_weight_significant_bits"]) == (
        weights.WEIGHT_BITS, weights.MIN_SIG_BITS)


def test_float_oracle_leaves_the_shared_table_alone(tmp_path, model, monkeypatch):
    """The oracle's unquantized path reads the float weights, which the
    table keeps alongside the fields the machine model reads, without
    writing into those; both traces keep the SHA-256s they had when each
    simulator encoded its own table."""
    encode = matrices.encode_projections
    encodes = record_calls(monkeypatch, matrices, "encode_projections")
    cli.run(cli.RunConfig(model=model, out=str(tmp_path / "out"), duration_ms=20.0,
                          oracle_quantize=False))
    ((net, table),) = encodes
    assert net.sink is None and table.weight_pa.dtype == np.float64
    again = encode(build_network(net.spec, net.seed))
    assert np.array_equal(table.cell, again.cell) and np.array_equal(table.words, again.words)
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("trace_hardware.txt", "trace_oracle.txt")}
    assert digests == {
        "trace_hardware.txt": "f8c8d3a6c796f86f3c4e5f45d6a0588e2bee06f4b3c31ea686e33826120de0a1",
        "trace_oracle.txt": "01f4d4128e22d504d618f1f3058bbc05e159e182b9deb47fb3fdedf97e169d09",
    }


@pytest.mark.parametrize("rewrite", [
    pytest.param(lambda text: text[:text.index("[projection]")], id="no_projection"),
    pytest.param(lambda text: re.sub(r"^probability = .*$", "probability = 0.0", text,
                                     flags=re.M), id="every_probability_zero"),
])
def test_network_without_synapses_runs_on_both_paths(tmp_path, benchmark_path, rewrite):
    """A microcircuit 0.02 model with no projection, or with every
    connection probability 0, has no synapse to route or store; both paths
    still run it, on background input alone, to identical traces."""
    with open(benchmark_path, encoding="utf-8") as fh:
        model = write(tmp_path, "unconnected.net", rewrite(fh.read()))
    out = tmp_path / "out"
    assert cli.main(["--model", model, "--out", str(out), "--scale", "0.02",
                     "--duration-ms", "10", "--mode", "both"]) == cli.EXIT_OK
    assert (out / "equivalence.txt").read_text().startswith("identical_traces True")
    spikes = [line for line in (out / "trace_oracle.txt").read_text().splitlines()
              if not line.startswith("#")]
    assert spikes


def test_hardware_run_memory_per_synapse(tmp_path, benchmark_path, microcircuit_dc_01):
    """Everything a ``--mode hardware`` run allocates, traced by tracemalloc
    (numpy reports its buffers to it), peaks within 13.7 B per synapse at
    microcircuit 0.1 with DC input: each projection is sampled straight
    into the synapse table, 6 B per synapse, the machine store indexes the
    table in place instead of copying it and has one row per packet the
    fan-out can send, and the rings, one ``(slots, 2, P)`` array, hold 64
    slots, the smallest power of two above the longest delay, not 256, of
    int32 cells, which the table's ``cell_bound`` shows wide enough.  The
    peak is set in the run's first step: what the set-up leaves (10.1 B per
    synapse: the table, the synaptic rows and the machine's state, the
    rings' 1.5 of it, 7,717 neurons padded to 8,192) plus 1.8 B per synapse
    for the step-0 window, 53,862 packets run a group of whole cores at a
    time, and its ring inserts.  It measured 11.9 B per synapse (numpy
    2.4, Python 3.11; 14.9 with a 9-byte synapse), and the bound leaves
    about 15% for other versions' allocations."""
    tracemalloc.start()
    try:
        cli.run(cli.RunConfig(model=benchmark_path, out=str(tmp_path / "out"), scale=0.1,
                              input="dc", mode="hardware", duration_ms=1.0, profile="none"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.7 * microcircuit_dc_01.synapse_count()


@pytest.mark.parametrize("costs,message", [
    pytest.param("neuron_update_us = 2.0",
                 "neuron core (0, 0)/2: update (136.23 us) overruns the 100.00 us timer period",
                 id="neuron"),
    pytest.param("poisson_update_and_transfer_us = 150",
                 "poisson core (0, 0)/3: update exceeds the timer period", id="poisson"),
    pytest.param("sdram_write_mean_us = 12\nsdram_write_max_us = 12",
                 "chip (0, 0): ring-buffer write (12.00 us) exceeds the pre-deadline margin",
                 id="ring_write"),
])
def test_fixed_work_past_its_deadline_exits_with_placement_code(tmp_path, model, capsys, costs,
                                                                message):
    """A core whose fixed work cannot fit its timer period (neuron and
    Poisson cores) or the pre-deadline margin (the ring-buffer write) stops
    the run before it starts, naming the first such core."""
    path = write(tmp_path, "slow.cfg", f"[costs]\n{costs}\n")
    assert run_cli(tmp_path, model, "--costs", path) == cli.EXIT_PLACEMENT
    assert capsys.readouterr().err == f"placement error: {message}\n"
    assert not os.path.exists(tmp_path / "out" / "trace_hardware.txt")


def test_firing_statistics_are_pinned(tmp_path, model):
    """The statistics files of a 100 ms run keep their SHA-256s; with no
    flush the two traces, and so their statistics, are the same."""
    assert run_cli(tmp_path, model, "--duration-ms", "100") == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "equivalence.txt").read_text().startswith("identical_traces True")
    for name in ("stats_hardware.txt", "stats_oracle.txt"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == (
            "b782e7a8174bc02a044beb51c44036cb3291fc0b9c3f995cfe336073da898799")


def test_beacon_rounds_are_pinned(tmp_path, benchmark_path, machine_path):
    """At slow-down 100 a beacon round falls every 200 steps: a 45 ms run
    on the 12-board machine records two rounds of nine chips, and its sync
    diagnostics and trace keep their SHA-256s."""
    out = tmp_path / "out"
    assert cli.main(["--model", benchmark_path, "--out", str(out), "--scale", "0.02",
                     "--input", "poisson", "--duration-ms", "45", "--slowdown", "100",
                     "--drift-bound-ppm", "20", "--machine", machine_path,
                     "--mode", "hardware", "--profile", "none"]) == cli.EXIT_OK
    assert len((out / "sync.tsv").read_text().splitlines()) == 1 + 18
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("sync.tsv", "trace_hardware.txt")}
    assert digests == {
        "sync.tsv": "c36e984ad289fa432fbd2818899073622175c3c223e7f76e0e3853bd30c087d7",
        "trace_hardware.txt": "359f0882849b0456c7caf055869779ebcc72aa34e19e8821197f9488eb97f1cd",
    }


@pytest.mark.parametrize("mode", ["hardware", "oracle", "both"])
def test_runs_past_max_steps_exit_with_spec_code(tmp_path, model, capsys, mode):
    """A run of more than 2**32 steps is refused before any set-up in every
    mode, where the oracle's per-step spike counts once asked for 36 TiB."""
    assert run_cli(tmp_path, model, "--mode", mode, "--duration-ms", "1e12") == cli.EXIT_SPEC
    err = capsys.readouterr().err
    assert err == ("spec error: duration 1000000000000.0 ms is 10000000000000 steps of "
                   "dt=0.1 ms; a run has at most 4294967296 (2**32)\n")
    assert not (tmp_path / "out" / "resolved_model.net").exists()


def test_counts_file_is_written_in_blocks():
    """``counts_{name}.tsv`` is written ``trace.LINES`` steps at a time: its
    bytes are those of one formatting of every step, across block
    boundaries, and its working set does not grow with the step count
    (one formatting took about 214 B per step)."""
    rng = np.random.default_rng(4)

    def counts(n_steps):
        return np.stack([np.arange(n_steps), *rng.integers(0, 10**6, (3, n_steps))], axis=1)

    c = counts(2 * trace.LINES + 5)
    assert written(cli._counts_writer(c.T)) == ("# timestep total excitatory inhibitory\n"
                                                + "%d %d %d %d\n" * len(c)
                                                % tuple(c.ravel().tolist()))
    peaks = []
    for n_steps in (100_000, 400_000):
        c = counts(n_steps)
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                cli._counts_writer(c.T)(fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] < 300 * trace.LINES
    assert peaks[1] < 1.1 * peaks[0]


def test_default_run_takes_the_run_config_defaults(tmp_path, model):
    """A run given only ``--model`` and ``--out`` runs with ``RunConfig``'s
    defaults: its manifest's run_config equals them, apart from the files
    it points at its own resolved copies."""
    out = str(tmp_path / "out")
    assert cli.main(["--model", model, "--out", out]) == cli.EXIT_OK
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        got = json.load(fh)["run_config"]
    want = dataclasses.asdict(cli.RunConfig(model=model, out=out))
    for copied in ("model", "machine", "costs"):
        assert got.pop(copied) == os.path.join(out, {"model": "resolved_model.net",
                                                     "machine": "machine.mach",
                                                     "costs": "costs_resolved.cfg"}[copied])
        want.pop(copied)
    assert got == want


def test_run_under_a_profile_hook_writes_the_same_outputs(tmp_path, model):
    """A run under a ``sys.setprofile`` hook, as under cProfile, writes the
    outputs of a run without one.  The synapse table views the written part
    of the sink's fields: resizing them in place, as the table once did,
    raised a ValueError under any such hook."""
    outputs, hook = {}, sys.getprofile()
    for hooked in (False, True):
        out = tmp_path / f"hooked_{hooked}"
        sys.setprofile((lambda *args: None) if hooked else hook)
        try:
            cli.run(cli.RunConfig(model=model, out=str(out), duration_ms=5.0))
        finally:
            sys.setprofile(hook)
        outputs[hooked] = {name: (out / name).read_bytes() for name in os.listdir(out)
                           if name not in ("manifest.json", "timings.json")}
    assert set(outputs[True]) == BOTH_OUTPUTS - {"manifest.json", "timings.json"}
    assert outputs[True] == outputs[False]


@pytest.mark.parametrize("scale,message", [
    pytest.param(None, "the model has 360 synaptic rows, more than the 256", id="rows"),
    pytest.param("0.02", "the model has 1,723 source orders, more than the 256",
                 id="source_orders"),
    pytest.param("0.1", "the model has 375 synapse cores, more than the 256", id="cores"),
])
def test_queue_fields_that_do_not_fit_exit_with_spec_code(tmp_path, model, benchmark_path,
                                                          monkeypatch, capsys, scale, message):
    """A model whose synapse cores, source orders or synaptic rows a field
    of the packet queue cannot number is refused at set-up with a spec
    error naming the count, where the numbers would otherwise wrap: here
    the fields are narrowed to uint8, so that small models pass them."""
    monkeypatch.setattr(runtime, "QUEUE_DTYPE", np.uint8)
    args = ["--scale", scale, "--model", benchmark_path, "--input", "dc"] if scale else []
    assert run_cli(tmp_path, model, *args) == cli.EXIT_SPEC
    assert capsys.readouterr().err == (f"spec error: {message} that the machine model's packet "
                                       "queue numbers in its uint8 fields\n")
    assert not os.path.exists(tmp_path / "out" / "trace_hardware.txt")
