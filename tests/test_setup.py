"""The run's set-up samples each projection straight into the synapse table
(``build_network`` into the fields of a ``network.SynapseSink``, which the
network holds until ``encode_projections`` makes the table from them): the
table has the narrow dtypes both simulators read, 6 B per synapse, a target
in the right population, its source's sign and a delay for every sampled
synapse in its cell, and the units of the network's float weights under the
accumulator scales."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import SMALL_SPEC, decoded
from spikert import cli, network, runtime, weights
from spikert.matrices import encode_projections
from spikert.network import (SpecError, build_network, load_network_spec, parse_network_spec,
                             scale_network)

# a second E -> E projection of tiny weights: the E -> E accumulator scale
# gets so fine that the regular projection's shifted units pass 31 bits
TINY_EE_BLOCK = """
[projection]
source = E
target = E
probability = 0.1
weight_pa = 0.0005
weight_sd_pa = 0.00005
delay_ms = 1.5
delay_sd_ms = 0.75
"""


def encoded(spec, seed, keep_weights=False):
    net = build_network(spec, seed, keep_weights=keep_weights)
    return net, encode_projections(net)


def assert_same_table(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "row_ptrs":
            assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def microcircuit(benchmark_path, scale, variant="dc"):
    return scale_network(load_network_spec(benchmark_path, variant), scale)


@pytest.fixture(params=["small", "microcircuit_005", "int64_units", "no_projection",
                        "every_probability_zero"])
def spec(request, benchmark_path):
    if request.param == "microcircuit_005":
        return microcircuit(benchmark_path, 0.05)
    if request.param == "no_projection":
        return parse_network_spec(SMALL_SPEC[:SMALL_SPEC.index("[projection]")], "dc")
    text = SMALL_SPEC + (TINY_EE_BLOCK if request.param == "int64_units" else "")
    if request.param == "every_probability_zero":
        text = re.sub(r"^probability = .*$", "probability = 0.0", text, flags=re.M)
    return parse_network_spec(text, "dc")


def test_streamed_setup_equals_the_encoded_network(spec, request):
    """The table is the network's synapses encoded, also with units past
    31 bits and with no synapse at all: one uint32 cell and one uint16 word
    per sampled synapse, the cell holding a global target in its
    projection's target population, its source's sign and a delay; each
    projection's units are its float weights' magnitudes rounded to 16-bit
    words of the finest scale its largest weight allows, shifted to its
    target's accumulator scale.  Encoding takes the sink from the network,
    which keeps each projection's row pointers."""
    net, table = encoded(spec, 42, keep_weights=True)
    assert net.sink is None
    assert [a.dtype for a in (table.cell, table.words, table.weight_pa)] == \
        [np.uint32, np.uint16, np.float64]
    assert table.layout.target_bits == (net.total_neurons - 1).bit_length()
    post, units, delays = decoded(table)
    wide = request.node.callspec.params["spec"] == "int64_units"
    assert (int(units.max(initial=0)) > np.iinfo(np.int32).max) == wide
    n = net.synapse_count()
    assert int(table.bounds[-1]) == n == sum(int(r[-1]) for r in table.row_ptrs)
    assert all(a.size == n for a in (table.cell, table.words, table.weight_pa))
    assert int(delays.min(initial=1)) >= 1
    assert table.slots == 1 << int(delays.max(initial=0)).bit_length()
    for p, proj in enumerate(net.projections):
        lo, hi = int(table.bounds[p]), int(table.bounds[p + 1])
        assert table.row_ptrs[p] is proj.row_ptr
        assert table.pre_base[p] == net.offsets[proj.source_pop]
        assert (post[lo:hi] >= net.offsets[proj.target_pop]).all()
        assert (post[lo:hi] < net.offsets[proj.target_pop + 1]).all()
        w = table.weight_pa[lo:hi]
        exp = weights.projection_scale_exp(float(np.abs(w).max(initial=0.0)))
        inh = net.populations[proj.source_pop].polarity == "inh"
        assert ((table.cell[lo:hi] >> table.layout.target_bits) & 1 == inh).all()
        shift = (table.scales.inh_exp if inh else table.scales.exc_exp)[proj.target_pop] - exp
        assert shift >= 0
        want = np.rint(np.abs(w) * 2.0 ** exp).astype(np.int64) << shift
        assert np.array_equal(units[lo:hi], want)


def test_streamed_setup_keeps_the_float_weights():
    """``keep_weights`` (the oracle's unquantized path) adds the float
    weights to the table, one float64 per synapse, and changes nothing
    else."""
    spec = parse_network_spec(SMALL_SPEC, "poisson")
    plain_net, plain = encoded(spec, 42)
    kept_net, kept = encoded(spec, 42, keep_weights=True)
    assert plain.weight_pa is None
    assert kept.weight_pa.dtype == np.float64 and kept.weight_pa.size == kept.cell.size > 0
    assert_same_table(dataclasses.replace(kept, weight_pa=None), plain)
    assert np.array_equal(kept_net.v_init_mv, plain_net.v_init_mv)


def test_table_costs_six_bytes_per_synapse(benchmark_path):
    """At microcircuit 0.1 a synapse costs its 4-byte cell and its 2-byte
    word, 6 B, where an int32 target, int32 units and a uint8 delay took 9;
    the float weights add 8 B more only when the network keeps them."""
    spec = microcircuit(benchmark_path, 0.1)
    for keep_weights in (False, True):
        net, table = encoded(spec, 1, keep_weights)
        synapses = net.synapse_count()
        assert synapses == 2_850_203
        assert table.cell.nbytes + table.words.nbytes == 6 * synapses
        assert (table.weight_pa is not None) == keep_weights
        if keep_weights:
            assert table.weight_pa.nbytes == 8 * synapses


def test_projections_past_their_bound_grow_the_fields(benchmark_path, monkeypatch):
    """A projection that passes its reserved bound grows the table's fields,
    the float weights among them, by copying, in the middle of a projection
    too, and the table is the same: here every bound is half the expected
    count."""
    spec = microcircuit(benchmark_path, 0.05)
    _, reference = encoded(spec, 3, keep_weights=True)
    monkeypatch.setattr(network, "synapse_bound", lambda n_pairs, p: int(n_pairs * p) // 2)
    reserved = network.SynapseSink(spec).capacity
    net = build_network(spec, 3, keep_weights=True)
    assert net.sink.capacity > reserved
    assert_same_table(encode_projections(net), reference)


HUGE_SPEC = """
[simulation]
dt_ms = 0.1

[neuron_defaults]
tau_m_ms = 10.0
tau_syn_ms = 0.5
e_rest_mv = -65.0
r_mohm = 40.0
v_theta_mv = -50.0
v_reset_mv = -65.0
t_ref_ms = 2.0

[population]
name = A
size = 50000
polarity = exc
dc_current_pa = 500

[population]
name = B
size = 50000
polarity = exc
dc_current_pa = 500

[projection]
source = A
target = B
probability = 1.0
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75
"""


def test_too_many_synapses_exit_with_spec_code_before_any_draw(tmp_path, capsys, monkeypatch):
    """A model of 2.5 billion synapses does not fit the table's int32
    indices: the run ends in a spec error naming the count before a single
    connection is drawn."""
    calls = []
    monkeypatch.setattr(network, "_sample_projection", lambda *args: calls.append(args))
    model = tmp_path / "huge.net"
    model.write_text(HUGE_SPEC)
    assert cli.main(["--model", str(model), "--out", str(tmp_path / "out"), "--input", "dc",
                     "--duration-ms", "1"]) == cli.EXIT_SPEC
    assert ("spec error: the network may hold up to 2,500,000,000 synapses, more than the "
            "2,147,483,647 synapses the table's int32 indices") in capsys.readouterr().err
    assert calls == []


def test_growing_past_the_table_limit_exits_with_spec_code(tmp_path, capsys, monkeypatch):
    """The same limit holds when the fields grow past their reserve."""
    monkeypatch.setattr(network, "synapse_bound", lambda n_pairs, p: 0)
    monkeypatch.setattr(network.SynapseSink, "MAX_SYNAPSES", 1000)
    model = tmp_path / "small.net"
    model.write_text(SMALL_SPEC)
    assert cli.main(["--model", str(model), "--out", str(tmp_path / "out"),
                     "--duration-ms", "1"]) == cli.EXIT_SPEC
    assert "more than the 1,000 synapses the table's int32 indices" in capsys.readouterr().err


def test_cell_layout_refuses_more_neurons_than_its_target_field():
    """A synapse's cell holds its target in (n - 1).bit_length() bits below
    its sign bit and 8-bit delay: 2**23 neurons fill the 32 bits, one more is a
    spec error, raised when the sink is made, before any draw."""
    assert [network.cell_layout(n).target_bits for n in (1, 7717, 1 << 23)] == [0, 13, 23]
    assert network.cell_layout(1 << 23).shift_bits == 0
    with pytest.raises(SpecError, match="8,388,609 neurons, more than the 8,388,608"):
        network.cell_layout((1 << 23) + 1)
    head = SMALL_SPEC[:SMALL_SPEC.index("[population]")]
    spec = parse_network_spec(head + "[population]\nname = A\nsize = 8388609\npolarity = exc\n"
                              "dc_current_pa = 500\n")
    with pytest.raises(SpecError, match="8,388,609 neurons"):
        network.SynapseSink(spec)


SPREAD_EE_BLOCK = """
[projection]
source = E
target = E
probability = 0.1
weight_pa = {weight_pa}
weight_sd_pa = 0
delay_ms = 1.5
delay_sd_ms = 0.75
"""


@pytest.mark.parametrize("weight_pa,why", [
    pytest.param("1e-11", None, id="1e-11"),
    pytest.param("1e-12", "one delivery of every excitatory synapse", id="1e-12"),
    pytest.param("1e-25", "shifted by 90 bits", id="1e-25"),
    pytest.param("1e-310", "1e-310 pA is too small for a power-of-two scale", id="1e-310")])
def test_weights_too_far_apart_exit_with_spec_code(tmp_path, capsys, weight_pa, why):
    """A second E -> E projection of tiny weights makes the E -> E
    accumulator scale finer the tinier they are.  At 1e-11 pA the units
    still fit int64 rings, and the oracle's trace is SMALL_SPEC's alone, byte
    for byte; at 1e-12 one delivery of every E -> E synapse onto a neuron
    passes 2**63 - 1, and at 1e-25 the regular projection's words shifted
    by 90 bits do: encoding ends the run in a spec error naming the
    projection, where the shifted units wrapped or fell to 0 unchecked.  At
    1e-310 pA (subnormal) no float64 scale reaches the weight, and sampling
    ends the run in a spec error naming the projection, where it ended in
    an OverflowError traceback."""
    traces = []
    for name, text in (("alone", SMALL_SPEC),
                       ("spread", SMALL_SPEC + SPREAD_EE_BLOCK.format(weight_pa=weight_pa))):
        model = tmp_path / f"{name}.net"
        model.write_text(text)
        code = cli.main(["--model", str(model), "--out", str(tmp_path / name), "--input", "dc",
                         "--mode", "oracle", "--duration-ms", "50"])
        err = capsys.readouterr().err
        if name == "spread" and why:
            assert code == cli.EXIT_SPEC
            assert "spec error: projection E->E: " in err and why in err
        else:
            assert code == cli.EXIT_OK
            traces.append((tmp_path / name / "trace_oracle.txt").read_bytes())
    if why is None:
        assert traces[1] == traces[0] and traces[0].count(b"\n") > 100


def test_setup_memory_per_synapse(tmp_path, benchmark_path, monkeypatch):
    """Everything a run allocates before ``HardwareSimulation`` starts
    (traced by tracemalloc) peaks within 12 B per synapse at microcircuit
    0.1 with DC input: the table's fields (6 B per synapse), the float
    weights of one projection at a time (the largest is 15% of the
    synapses) and the sampling blocks.  Holding every projection's targets,
    delays and float weights before encoding peaked at 16.5 B per synapse,
    and 9-byte fields at 13.1; the 6-byte cell and word measured 10.1
    (numpy 2.4, Python 3.11), and the bound leaves about a fifth for other
    versions' allocations."""
    class Stop(Exception):
        pass

    seen = []

    def stop(sim, net, table, **kwargs):
        seen.append((tracemalloc.get_traced_memory()[1], table.cell.size))
        raise Stop

    monkeypatch.setattr(runtime.HardwareSimulation, "__init__", stop)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            cli.run(cli.RunConfig(model=benchmark_path, out=str(tmp_path / "out"), scale=0.1,
                                  input="dc", mode="hardware", duration_ms=1.0,
                                  profile="none"))
    finally:
        tracemalloc.stop()
    ((peak, synapses),) = seen
    assert synapses == 2_850_203
    assert peak <= 12 * synapses


def test_every_run_writes_its_timings(tmp_path):
    """``timings.json`` gives every phase of the run in order, with its
    seconds and the peak RSS at its end."""
    model = tmp_path / "small.net"
    model.write_text(SMALL_SPEC)
    out = tmp_path / "out"
    assert cli.main(["--model", str(model), "--out", str(out), "--duration-ms", "5"]) == 0
    doc = json.loads((out / "timings.json").read_text())
    assert [p["phase"] for p in doc["phases"]] == [
        "spec", "sample_encode", "hardware_setup", "poisson_bank", "hardware_run", "oracle",
        "outputs"]
    assert all(p["seconds"] >= 0 for p in doc["phases"])
    assert doc["seconds"] == pytest.approx(sum(p["seconds"] for p in doc["phases"]), abs=1e-5)
    rss = [p["maxrss_mib"] for p in doc["phases"]]
    assert rss == sorted(rss) and rss[0] > 0
