import hashlib
import io
import re
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import SMALL_SPEC, decoded, ensemble_roles, row_senders, store_rows, written
from spikert import matrices, runtime, trace
from spikert.clocks import ClockConfig
from spikert.mapping import ROLE_NEURON, ROLE_POISSON, partition
from spikert.matrices import (CHUNK_STEPS, PoissonBank, encode_projections, ranges,
                              source_delivery_index)
from spikert.network import (SpecError, build_network, load_network_spec, parse_network_spec,
                             scale_network)
from spikert.oracle import oracle_simulate
from spikert.runtime import MAX_STEPS, HardwareSimulation, build_synaptic_store
from spikert.trace import SpikeRecord

DURATION_MS = 50.0
STEPS = 500

SECOND_EE_BLOCK = """
[projection]
source = E
target = E
probability = 0.1
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75
"""


def run_both(net, drift_ppm=0.0, quantize=True):
    """Hardware run at slowdown 10 (no flushes) and the oracle, from one
    synapse table and one Poisson bank; the oracle's unquantized path needs
    a network built with ``keep_weights``."""
    table = encode_projections(net)
    bank = PoissonBank(net, 2, STEPS, io.BytesIO())
    sim = HardwareSimulation(net, table, clock_cfg=ClockConfig(drift_bound_ppm=drift_ppm),
                             drift_seed=3, slowdown=10.0)
    res = sim.run(DURATION_MS, bank)
    return res, oracle_simulate(net, table, bank, DURATION_MS, quantize=quantize)


def assert_equivalent(res, ref):
    assert res.totals["flushed"] == 0
    assert res.totals["late_packets"] == 0
    assert len(ref) > 0
    assert res.trace == ref
    assert written(res.trace.serialize) == written(ref.serialize)


# With DC input the oracle's unquantized float path gives the same trace as well.
# With Poisson input it does not: Poisson weights are quantised to 11 bits.
@pytest.mark.parametrize("fixture,quantize", [
    pytest.param("small_network", True, id="small_network"),
    pytest.param("small_network_dc", True, id="small_network_dc"),
    pytest.param("small_network_dc", False, id="small_network_dc-float")])
def test_small_spec_hardware_equals_oracle(fixture, quantize, request):
    net = request.getfixturevalue(fixture)
    if not quantize:
        net = build_network(net.spec, net.seed, keep_weights=True)
    assert_equivalent(*run_both(net, quantize=quantize))


@pytest.mark.parametrize("drift_ppm,quantize", [pytest.param(0.0, True, id="0.0"),
                                               pytest.param(20.0, True, id="20.0"),
                                               pytest.param(0.0, False, id="0.0-float")])
def test_microcircuit_dc_hardware_equals_oracle(benchmark_path, drift_ppm, quantize):
    spec = scale_network(load_network_spec(benchmark_path, "dc"), 0.02)
    res, ref = run_both(build_network(spec, seed=1, keep_weights=not quantize), drift_ppm,
                        quantize)
    assert_equivalent(res, ref)
    assert len(ref) == 6842


def test_repeated_projection_keeps_every_synapse():
    """Two blocks for one (source, target) pair share synaptic rows, as rows
    of two columns; both blocks' synapses must reach the targets."""
    spec = parse_network_spec(SMALL_SPEC + SECOND_EE_BLOCK, "dc")
    net = build_network(spec, seed=42)
    sim = HardwareSimulation(net, encode_projections(net))
    assert sim.store.n.shape[1] == 2 and (sim.store.n > 0).all(axis=1).any()
    assert store_rows(sim)[0][-1] == net.synapse_count()
    assert_equivalent(*run_both(build_network(spec, seed=42)))


@pytest.mark.parametrize("delay_ms,delay_sd_ms,slots", [
    pytest.param(20.0, 10.0, 256, id="clamped-to-255-steps"),
    pytest.param(0.1, 0.0, 2, id="all-one-step")])
def test_ring_depth_follows_the_longest_delay(delay_ms, delay_sd_ms, slots):
    """Both simulators' rings take the smallest power of two above the
    longest delay, from 256 slots for delays clamped to 255 steps down to 2
    for one-step delays, and the traces still agree."""
    text = re.sub(r"delay_ms = .*\ndelay_sd_ms = .*",
                  f"delay_ms = {delay_ms}\ndelay_sd_ms = {delay_sd_ms}", SMALL_SPEC)
    spec = parse_network_spec(text, "dc")
    net = build_network(spec, seed=42)
    table = encode_projections(net)
    assert int(decoded(table)[2].max()) == slots - 1
    assert table.slots == slots
    assert HardwareSimulation(net, table).syn.ring_shape[0] == slots
    assert_equivalent(*run_both(build_network(spec, seed=42)))


def int64_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def row_digest(core, source, row_ptr, post, units, delays) -> str:
    """Digest of the non-empty synaptic rows, whatever their numbering: each
    as (synapse core, source neuron, words, targets, units, delays), sorted
    by (core, source)."""
    lens = np.diff(row_ptr)
    keep = np.flatnonzero(lens)
    keep = keep[np.lexsort((source[keep], core[keep]))]
    syn = ranges(row_ptr[keep], lens[keep])
    return int64_digest(core[keep], source[keep], lens[keep], post[syn], units[syn], delays[syn])


def test_narrow_table_and_store_at_microcircuit_scale(microcircuit_dc_01):
    """Encoding takes the network's sampled synapses into the table (its
    digest and a second encoding then refuse what is gone); the shared table and the
    machine store keep narrow dtypes, the store reads the table in place
    and stays within 2 B per synapse.  Every synaptic row holds exactly the
    oracle's synapses of its source neuron onto its core's ensemble, in
    projection then synapse order; the rows keep the digest of the master
    population table layout they replaced, and the oracle's spans expanded
    in source order keep theirs."""
    net = microcircuit_dc_01
    table = encode_projections(net)
    assert net.sink is None and table.weight_pa is None
    with pytest.raises(ValueError, match="take it before encoding"):
        net.digest()
    with pytest.raises(ValueError, match="encoded already"):
        encode_projections(net)
    assert [a.dtype for a in (table.cell, table.words)] == [np.uint32, np.uint16]
    table_post, table_units, table_delays = decoded(table)
    assert int(table_units.max()) == 113120  # 17 bits
    sim = HardwareSimulation(net, table)
    store = sim.store
    assert store.table is table
    assert [a.dtype for a in (store.lo, store.n, store.row_base)] == [np.int32, np.uint8, np.int64]
    assert store.lo.shape == store.n.shape == (store.lo.shape[0], 1)
    assert sum(a.nbytes for a in (store.lo, store.n, store.row_base)) <= 2 * net.synapse_count()

    # the oracle's synapses of each source neuron, each put in the row of
    # its neuron and target ensemble, then ordered by row (stably)
    spans = source_delivery_index(net, table)
    lens = spans.hi - spans.lo
    syn = ranges(spans.lo, lens)
    source = np.repeat(np.repeat(np.arange(net.total_neurons), np.diff(spans.span_ptr)), lens)
    key = source * len(sim.ensembles) + sim.ens_of[table_post[syn]]
    neuron, core = row_senders(sim)
    row_key = neuron * len(sim.ensembles) + core // 3
    assert np.unique(row_key).size == row_key.size
    by_key = np.argsort(row_key)
    at = by_key[np.searchsorted(row_key[by_key], key)]
    assert np.array_equal(row_key[at], key)
    order = np.argsort(at, kind="stable")
    row_ptr, post, units, delays = store_rows(sim)
    assert np.array_equal(np.repeat(np.arange(neuron.size), np.diff(row_ptr)), at[order])
    assert np.array_equal(post, table_post[syn[order]])
    assert np.array_equal(units, table_units[syn[order]])
    assert np.array_equal(delays, table_delays[syn[order]])
    assert row_digest(core, neuron, row_ptr, post, units, delays) == (
        "296c4869aea203f44bdeb89c7c2157d25f96cf7263e582ae71bc090be3bb802a")

    row_ptr = np.concatenate(([0], np.cumsum(lens)))[spans.span_ptr]
    assert np.array_equal(np.sort(syn), np.arange(table.cell.size))
    assert int64_digest(row_ptr, table_post[syn], table_units[syn], table_delays[syn]) == (
        "b0855ad4bfb9d6696a974bc47f53d09d1f7a21441b72cbbab70fc362bede7e4f")


def test_small_blocks_encode_and_sort_alike(monkeypatch):
    """Encoding and the store's spans work in blocks of whole source
    neurons; blocks far smaller than a projection, down to single neurons,
    give the same table and synaptic rows."""
    spec = parse_network_spec(SMALL_SPEC, "dc")
    views = []
    for block in (matrices.BLOCK, 7, 1):
        monkeypatch.setattr(matrices, "BLOCK", block)
        net = build_network(spec, seed=42)
        table = encode_projections(net)
        views.append(int64_digest(*decoded(table), *store_rows(HardwareSimulation(net, table))))
    assert views[1] == views[0] and views[2] == views[0]


def test_wide_weight_spread_takes_int64_units():
    """A projection of tiny weights makes the E -> E accumulator scale so
    fine that the regular projection's shifted units pass 31 bits: both
    simulators take int64 rings and the machine still equals the oracle."""
    tiny = SECOND_EE_BLOCK.replace("weight_pa = 87.8", "weight_pa = 0.0005").replace(
        "weight_sd_pa = 8.78", "weight_sd_pa = 0.00005")
    spec = parse_network_spec(SMALL_SPEC + tiny, "dc")
    net = build_network(spec, seed=42)
    table = encode_projections(net)
    assert int(decoded(table)[1].max()) > np.iinfo(np.int32).max
    assert matrices.ring_dtype(table) is np.int64
    assert HardwareSimulation(net, table).syn.ring_dtype is np.int64
    assert_equivalent(*run_both(build_network(spec, seed=42)))


def test_cell_bound_past_int32_takes_int64_rings(monkeypatch):
    """A projection of small weights makes the E -> E accumulator scale so
    fine that the units still fit int32 but one delivery of every E -> E
    synapse onto a neuron passes 2**31 - 1: the table's ``cell_bound``
    says so, both simulators deliver into int64 rings, and the machine
    still equals the oracle."""
    small = SECOND_EE_BLOCK.replace("weight_pa = 87.8", "weight_pa = 0.01").replace(
        "weight_sd_pa = 8.78", "weight_sd_pa = 0.001")
    spec = parse_network_spec(SMALL_SPEC + small, "dc")
    assert int(decoded(encode_projections(build_network(spec, seed=42)))[1].max()) <= \
        matrices.RING_INT32_MAX
    insert, seen = matrices.ring_insert, set()

    def record(ring, table, *args):
        caller = sys._getframe(1).f_globals["__name__"]
        seen.add((caller, ring.dtype.name, table.cell_bound > matrices.RING_INT32_MAX))
        insert(ring, table, *args)

    monkeypatch.setattr(matrices, "ring_insert", record)
    assert_equivalent(*run_both(build_network(spec, seed=42)))
    assert seen == {(caller, "int64", True)
                    for caller in ("spikert.runtime", "spikert.oracle")}


def test_rerun_is_deterministic(small_network):
    sim = HardwareSimulation(small_network, encode_projections(small_network),
                             clock_cfg=ClockConfig(drift_bound_ppm=20.0), drift_seed=3)
    bank = PoissonBank(small_network, 2, STEPS, io.BytesIO())
    first, second = (sim.run(DURATION_MS, bank, spill=io.BytesIO()) for _ in range(2))
    assert len(first.trace) > 0
    assert written(second.trace.serialize) == written(first.trace.serialize)
    assert written(second.profile.serialize) == written(first.profile.serialize)
    assert written(second.profile.serialize_events) == written(first.profile.serialize_events)


def test_bank_and_profile_memory_stay_flat_with_steps(small_network, tmp_path):
    """Neither the Poisson bank nor the profile counters grow with the
    number of steps.  Between runs of N and 4N steps, whole arrays would
    grow by 2 B per source and step (the bank) and 44 B per synapse core
    and step (the counters); the tracemalloc peaks of reading a bank
    through, and the profile's share of a hardware run's peak, grow by
    less than a tenth of that."""
    sim = HardwareSimulation(small_network, encode_projections(small_network), drift_seed=3)

    def peaks(n_steps):
        tracemalloc.start()
        with open(tmp_path / "draws", "w+b") as draws:
            bank = PoissonBank(small_network, 2, n_steps, draws)
            for t in range(n_steps):
                bank.units_at(t)
            bank_peak = tracemalloc.get_traced_memory()[1]
            run_peak = []
            for with_profile in (False, True):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with open(tmp_path / "spill", "w+b") as spill:
                    sim.run(n_steps * small_network.dt_ms, bank,
                            spill=spill if with_profile else None)
                run_peak.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
        return bank_peak, run_peak[1] - run_peak[0]

    n = 2 * CHUNK_STEPS
    (bank_n, profile_n), (bank_4n, profile_4n) = peaks(n), peaks(4 * n)
    sources, cores = small_network.total_neurons, 3 * len(sim.ensembles)
    assert bank_4n - bank_n < 0.1 * 2 * sources * 3 * n
    assert profile_4n - profile_n < 0.1 * 44 * cores * 3 * n


@pytest.mark.parametrize("bound", [-5.0, 150.0, float("nan")])
def test_out_of_range_drift_bound_fails_at_set_up(small_network, bound):
    """A drift bound outside [0, 100] ppm is a spec error that names it when
    the simulation is built, not a numpy error when it runs."""
    with pytest.raises(SpecError, match=r"drift bound must be in \[0, 100.0\] ppm"):
        HardwareSimulation(small_network, encode_projections(small_network),
                           clock_cfg=ClockConfig(drift_bound_ppm=bound))


def test_profile_counts_synapse_cores_only(benchmark_path):
    """At microcircuit scale 0.02 with Poisson input, 27 ensembles take 135
    cores; the per-step counters cover only the 81 synapse cores, and every
    neuron and Poisson core's rows of profile.tsv are zero counters and its
    fixed busy time."""
    net = build_network(scale_network(load_network_spec(benchmark_path, "poisson"), 0.02), seed=1)
    sim = HardwareSimulation(net, encode_projections(net))
    profile = sim.run(1.0, PoissonBank(net, 2, 10), spill=io.BytesIO()).profile
    assert len(sim.ensembles) == 27
    for col in (profile.received, profile.processed, profile.flushed, profile.zero_target,
                profile.kickstarts, profile.busy_us, profile.processed_events,
                profile.flushed_events):
        assert col.shape == (81, 10)
    rows: dict[str, list[str]] = {}
    for line in written(profile.serialize).splitlines()[1:]:
        rows.setdefault(line.split()[0], []).append(line)
    assert len(rows) == 135
    assert list(rows) == sorted(rows, key=lambda label: tuple(map(int, label.split(","))))
    cm, placement = sim.costs, sim.placement
    fixed = 0
    for e in range(len(sim.ensembles)):
        x, y = divmod(int(placement.chip[e]), placement.machine.height)
        # every ensemble on the chip has one neuron core writing its buffer
        n_neuron = np.count_nonzero(placement.chip == placement.chip[e])
        for i, role in enumerate(ensemble_roles(sim.ensembles, e)):
            if role == ROLE_NEURON:
                busy = (cm.neuron_input_read_us + sim.ensembles.count[e] * cm.neuron_update_us
                        + cm.sdram_write_us(n_neuron))
            elif role == ROLE_POISSON:
                busy = cm.poisson_update_and_transfer_us
            else:
                continue
            label = f"{x},{y},{placement.core[e] + i}"
            assert rows[label] == [f"{label} {t} 0 0 0 0 0 {busy:.4f}" for t in range(10)]
            fixed += 1
    assert fixed == 135 - 81


def test_synapses_no_packet_reaches_are_rejected(small_network):
    """A source ensemble whose packets reach no core leaves its synapses
    without a row; the error names the projection's populations."""
    table = encode_projections(small_network)
    sim = HardwareSimulation(small_network, table)
    i0 = int(np.flatnonzero(sim.ensembles.pop == 1)[0])
    lo, hi = sim.dest_ptr[i0], sim.dest_ptr[i0 + 1]
    assert hi > lo
    dest_ptr = np.where(np.arange(sim.dest_ptr.size) > i0, sim.dest_ptr - (hi - lo), sim.dest_ptr)
    with pytest.raises(RuntimeError, match="I->E: synapses on a core that no packet"):
        build_synaptic_store(table, sim.ensembles, dest_ptr,
                             np.delete(sim.dest_core, np.s_[lo:hi]))


def test_non_finite_input_names_the_neuron(small_network):
    """A non-finite input current stops the machine model with the neuron's
    population and population-local index."""
    sim = HardwareSimulation(small_network, encode_projections(small_network))
    i0 = int(small_network.offsets[1])
    sim.consts.exc_factor[i0 + 7] = np.nan
    with pytest.raises(ValueError, match="non-finite input for neuron I/7$"):
        sim.run(1.0, PoissonBank(small_network, 2, 10))


def test_float_oracle_with_poisson_input_is_pinned(small_network):
    """The unquantized path with Poisson input, where no trace equals it: its
    fixed-seed SHA-256 (363 spikes against the quantized path's 366).  It
    reads the float weights, which a network keeps only when built with
    ``keep_weights``."""
    with pytest.raises(ValueError, match="build the network with keep_weights=True"):
        oracle_simulate(small_network, encode_projections(small_network),
                        PoissonBank(small_network, 2, STEPS), DURATION_MS, quantize=False)
    net = build_network(small_network.spec, small_network.seed, keep_weights=True)
    tr = oracle_simulate(net, encode_projections(net), PoissonBank(net, 2, STEPS), DURATION_MS,
                         quantize=False)
    assert len(tr) == 363
    assert hashlib.sha256(written(tr.serialize).encode()).hexdigest() == (
        "1bd7dd87f2e9bc396c6322376099ec363b698c0fa21e0e9a18e6ad2c1fb25c11")


def test_add_at_adds_repeated_targets_in_index_order():
    """The premise of the float oracle's one ``np.add.at`` per step: with
    repeated targets, its float sums equal adding the values one at a
    time in index order, bit for bit, as the spike-by-spike loop did."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        targets = rng.integers(0, 20, 400)
        values = rng.normal(0.0, 100.0, 400) * 10.0 ** rng.integers(-6, 6, 400)
        at, loop = np.zeros(20), np.zeros(20)
        np.add.at(at, targets, values)
        for i, v in zip(targets.tolist(), values.tolist()):
            loop[i] += v
        assert at.tobytes() == loop.tobytes()


def test_spike_record_costs_four_bytes_per_spike():
    """The spike record keeps the neurons as int32 in pieces: 20,000 steps
    of about 15 spikes each, handed over as the simulators do (one int64
    array per step), cost about 4 B per spike and 4 B per step, where one
    array per step took more than 12."""
    rng = np.random.default_rng(1)
    n_steps = 20000
    fired = [np.flatnonzero(rng.random(1544) < 0.01) for _ in range(n_steps)]
    tracemalloc.start()
    record = SpikeRecord(n_steps)
    for t, g in enumerate(fired):
        record.add(t, g)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    spikes = sum(g.size for g in fired)
    assert spikes > 4 * SpikeRecord.PIECE
    assert held < 4 * (spikes + n_steps + SpikeRecord.PIECE) + 4096
    assert np.array_equal(record.neurons(), np.concatenate(fired))
    assert record.counts.tolist() == [g.size for g in fired]


def test_trace_costs_eight_bytes_per_spike(small_network):
    """The trace keeps each spike's step (uint32) and global neuron (int32):
    made from a record of 130,000 spikes, it holds at most 8.5 B per spike,
    and takes no more while it is made, where float times, populations and
    local ids took 16."""
    rng = np.random.default_rng(2)
    n_steps = 2000
    record = SpikeRecord(n_steps)
    fired = [np.flatnonzero(rng.random(small_network.total_neurons) < 0.5)
             for _ in range(n_steps)]
    for t, g in enumerate(fired):
        record.add(t, g)
    spikes = int(record.counts.sum())
    tracemalloc.start()
    try:
        tr = trace.from_step_records(small_network, record)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spikes >= 100_000
    assert held <= 8.5 * spikes and peak <= 8.5 * spikes
    assert tr.steps.dtype == np.uint32 and tr.neurons.dtype == np.int32
    assert np.array_equal(tr.steps, np.repeat(np.arange(n_steps), [g.size for g in fired]))
    assert np.array_equal(tr.neurons, np.concatenate(fired))


def test_oracle_runs_past_the_step_limit_are_refused(small_network):
    """The oracle's spike record refuses more than 2**32 steps as the
    machine's does, before it allocates a count per step."""
    with pytest.raises(SpecError, match=r"4294967297 steps: the machine model runs at most "
                                        r"4294967296 \(2\*\*32\) steps"):
        oracle_simulate(small_network, encode_projections(small_network),
                        PoissonBank(small_network, 2, 10), (MAX_STEPS + 1) * small_network.dt_ms)


def test_placement_past_the_largest_machine_is_a_spec_error():
    """25 populations of 32,768 neurons take 51,200 cores, 3,200 chips: more
    than the 3,072 chips of the largest machine ``auto_machine`` builds, so
    ``_place`` raises its SpecError."""
    head = SMALL_SPEC[:SMALL_SPEC.index("[population]")]
    pops = "".join(f"[population]\nname = P{i}\nsize = 32768\npolarity = exc\n"
                   "dc_current_pa = 500\n\n" for i in range(25))
    net = build_network(parse_network_spec(head + pops), 1, sample_synapses=False)
    with pytest.raises(SpecError, match="no machine configuration covers 3200 chips"):
        runtime._place(partition(net), None)


def test_runs_past_the_emit_step_key_are_refused(small_network):
    """The queue orders a packet's emit step in 32 bits: a run of more than
    2**32 steps is refused before it starts."""
    sim = HardwareSimulation(small_network, encode_projections(small_network))
    with pytest.raises(SpecError, match=r"4294967297 steps: the machine model runs at most "
                                        r"4294967296 \(2\*\*32\) steps"):
        sim.run((MAX_STEPS + 1) * small_network.dt_ms, PoissonBank(small_network, 2, 10))
