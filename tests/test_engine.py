"""The array timestep engine against fixed-seed digests and a packet-at-a-time
reference of one synapse core's window."""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from conftest import SMALL_SPEC, decoded, row_senders, store_rows, written
from spikert import matrices, runtime
from spikert.clocks import ClockConfig
from spikert.costs import CostModel
from spikert.matrices import PoissonBank, encode_projections, source_delivery_index
from spikert.network import (CellLayout, build_network, load_network_spec, parse_network_spec,
                             scale_network)
from spikert.oracle import oracle_simulate
from spikert.runtime import HardwareSimulation, ProfileStore

# SHA-256 of trace, profile.tsv and profile_events.tsv from the packet-at-a-time
# engine this one replaced, with its late and flushed packet counts
LATE_MARGIN_DIGESTS = {
    "small_network": (
        952, 64,
        "20e7c56bcbda01f3c771db7bfd1080f6ce4a3e3c585ca5c4f7e574551fa33d7a",
        "5fbe62199caf862064be31fe57b290edd4203ae1a2b315a7064142974413bba5",
        "624f75529658b3f61179e0a97e8bcc4a7c5e0d4006146d2644141c04a2d47cdc"),
    "small_network_dc": (
        935, 76,
        "7180ac18aa7c86358ce11156f28161d0b5c826b21387b9b94128cff674f211b6",
        "43f19e5b3da2e95284ebe51118bf5933274050bc5204c86f79f0f866c977102b",
        "d8c4fcde8f8615afcab1a8f838a2f9c295c80240986511c63cb3e0206de372cc"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fixture", sorted(LATE_MARGIN_DIGESTS))
def test_flush_and_carry_over_digests(fixture, request):
    """A 95 us pre-deadline margin leaves 5 us per period for packets, so
    packets arrive late, are carried to the next step and are flushed."""
    net = request.getfixturevalue(fixture)
    sim = HardwareSimulation(net, encode_projections(net),
                             costs=CostModel(second_timer_margin_us=95.0),
                             clock_cfg=ClockConfig(drift_bound_ppm=20.0), drift_seed=3)
    res = sim.run(50.0, PoissonBank(net, 2, 500), spill=io.BytesIO())
    late, flushed, trace_sha, profile_sha, events_sha = LATE_MARGIN_DIGESTS[fixture]
    assert res.totals["late_packets"] == late > 0
    assert res.totals["flushed"] == flushed > 0
    assert sha256(written(res.trace.serialize)) == trace_sha
    assert sha256(written(res.profile.serialize)) == profile_sha
    assert sha256(written(res.profile.serialize_events)) == events_sha


def test_a_lag_past_the_limit_widens_the_rings_mid_run(small_network, monkeypatch):
    """The machine's rings are int32, and a window that processes a packet
    emitted more than ``lag_limit`` steps before it widens them to int64
    for the rest of the run.  With the 95 us margin that carries packets
    over and the limit forced to 0, the rings widen at the first such
    window, after some steps; that run, the run that stays int32, and a run
    whose rings are int64 from the start give the same totals, trace and
    profile bytes."""
    sim = HardwareSimulation(small_network, encode_projections(small_network),
                             costs=CostModel(second_timer_margin_us=95.0),
                             clock_cfg=ClockConfig(drift_bound_ppm=20.0), drift_seed=3)
    assert sim.syn.ring_dtype == np.int32 and sim.syn.lag_limit > 1000
    window = runtime.SynapseCoreState.run_window
    dtypes = []

    def record(syn, *args):
        result = window(syn, *args)
        dtypes.append(syn.ring.dtype)
        return result

    monkeypatch.setattr(runtime.SynapseCoreState, "run_window", record)
    bank = PoissonBank(small_network, 2, 500, io.BytesIO())
    runs = []
    for ring_dtype, lag_limit in ((np.int64, sim.syn.lag_limit), (np.int32, sim.syn.lag_limit),
                                  (np.int32, 0)):
        monkeypatch.setattr(sim.syn, "ring_dtype", ring_dtype)
        monkeypatch.setattr(sim.syn, "lag_limit", lag_limit)
        dtypes.clear()
        res = sim.run(50.0, bank, spill=io.BytesIO())
        runs.append((res.totals, written(res.trace.serialize), written(res.profile.serialize),
                     written(res.profile.serialize_events), list(map(str, dtypes))))
    assert runs[0][0]["late_packets"] > 0
    assert set(runs[0][-1]) == {"int64"} and set(runs[1][-1]) == {"int32"}
    widened = runs[2][-1].index("int64")
    assert 0 < widened and set(runs[2][-1][widened:]) == {"int64"}
    assert all(run[:-1] == runs[0][:-1] for run in runs[1:])


def test_totals_are_the_windows_sums_with_or_without_a_profile(small_network):
    """A run that flushes returns the same totals with a spill file as
    without, where it keeps no profile; they equal the sums of the profile
    files' counters over cores and steps, and the largest flushed count in
    them."""
    sim = HardwareSimulation(small_network, encode_projections(small_network),
                             costs=CostModel(second_timer_margin_us=95.0), drift_seed=3)
    bank = PoissonBank(small_network, 2, 300, io.BytesIO())
    bare, kept = sim.run(30.0, bank), sim.run(30.0, bank, spill=io.BytesIO())
    assert bare.profile is None and bare.totals == kept.totals
    assert bare.trace == kept.trace
    rows = [line.split()[2:] for line in written(kept.profile.serialize).splitlines()[1:]]
    counts = np.array([row[:5] for row in rows], dtype=np.int64)
    events = np.array([line.split()[2:] for line in
                       written(kept.profile.serialize_events).splitlines()[1:]], dtype=np.int64)
    sums = dict(zip(ProfileStore.COUNTERS[:5], counts.sum(axis=0).tolist()),
                processed_events=int(events[:, 0].sum()), flushed_events=int(events[:, 1].sum()),
                max_flushed_in_timestep=int(counts[:, 2].max()))
    assert {name: kept.totals[name] for name in sums} == sums
    assert sums["flushed"] > 0 and kept.totals["late_packets"] > 0


def test_poisson_saturations_match_per_population_slices():
    """The one-gather Poisson buffer write clips and counts exactly the
    entries the per-population ``units_slice`` does."""
    spec = SMALL_SPEC.replace("poisson_rate_hz = 12800", "poisson_rate_hz = 900000")
    net = build_network(parse_network_spec(spec, "poisson"), seed=42)
    bank = PoissonBank(net, 2, 50)
    res = HardwareSimulation(net, encode_projections(net), drift_seed=3,
                             slowdown=10.0).run(5.0, bank)
    expected = sum(bank.units_slice(p, 0, mat.shape[0], t)[1]
                   for p, mat in bank.counts.items() for t in range(50))
    assert res.poisson_saturations == expected > 0


def reference_window(sim, c, packets, t, window_start, deadline):
    """Core c's window, one packet at a time in sorted tuple order.
    Returns its profile counters, late packets, carry and the packets left
    queued."""
    syn, cm = sim.syn, sim.costs
    rate, wcost, row_ptr = syn.rate[c], syn.wcost[c], store_rows(sim)[0]
    # three synapse cores per ensemble on the core's chip
    n_syn = 3 * np.count_nonzero(sim.placement.chip == sim.placement.chip[c // 3])

    def words(row):
        return int(row_ptr[row + 1] - row_ptr[row])

    busy = max(window_start, window_start - cm.second_timer_margin_us / rate + wcost / rate,
               syn.carry[c])
    processed = zero = kick = ev_p = late = 0
    busy_us = 0.0
    packets = sorted(packets)
    window = [p for p in packets if p[0] < deadline]
    for arr, _, _, _, _, emit, row in window:
        begin = arr if arr > busy else busy
        if begin >= deadline:
            break
        cost = cm.packet_processing_us(words(row), n_syn)
        if busy <= arr:
            kick += 1
            cost += cm.pipeline_kickstart_us
        busy = begin + cost / rate
        busy_us += cost
        processed += 1
        ev_p += words(row)
        zero += words(row) == 0
        late += emit != t
    flushed = len(window) - processed
    ev_f = sum(words(p[6]) for p in window[processed:])
    busy_us += wcost
    dma_b_end = deadline + wcost / rate
    carry = busy if busy > dma_b_end else dma_b_end
    counters = (processed + flushed, processed, flushed, zero, kick, busy_us, ev_p, ev_f)
    return counters, late, carry, packets[len(window):]


def queued_packets(sim):
    """The array queue as per-core lists of (arrival, sx, sy, score, key,
    emit, row): the source chip, core and key of the neuron whose synaptic
    row the packet carries, read off the placement and key allocation."""
    neuron, row_core = row_senders(sim)
    placement = sim.placement
    out: dict[int, list] = {}
    for a, (core, _, emit, row) in zip(sim.syn.q_arrival.tolist(), sim.syn.q_fields.T.tolist()):
        assert row_core[row] == core
        g = int(neuron[row])
        e = int(sim.ens_of[g])
        out.setdefault(core, []).append((a, *divmod(int(placement.chip[e]),
                                                    placement.machine.height),
                                         int(placement.core[e]),
                                         int(sim.keys[e]) | int(sim.nid_of[g]), emit, row))
    return out


def ring_additions(sim, table, spans, ring, c, packets, t):
    """Add into ``ring`` what core c's processed ``packets`` deliver, read
    from ``spans``, the oracle's index of each source neuron's synapses:
    those of the packet's source neuron onto core c's ensemble, each adding
    its units at (arrival slot, excitatory or inhibitory ring, target)."""
    neuron = row_senders(sim)[0]
    for *_, row in packets:
        g = neuron[row]
        for s in range(spans.span_ptr[g], spans.span_ptr[g + 1]):
            post, units, delays = decoded(table, np.arange(spans.lo[s], spans.hi[s]))
            on_core = sim.ens_of[post] == c // 3
            slot = (t + delays[on_core]) & (sim.syn.slots - 1)
            np.add.at(ring, (slot, c % 3 >> 1, post[on_core]), units[on_core])


def test_lockstep_window_matches_packet_at_a_time_reference(small_network):
    """Random packets, each carrying a random synaptic row to that row's
    core, over several steps with drifting rates: per-core counters, busy
    time, carry and the packets left queued equal the reference bit for
    bit, and after every step the ring buffers hold exactly what the
    processed packets' synapses deliver."""
    table = encode_projections(small_network)
    sim = HardwareSimulation(small_network, table, costs=CostModel(second_timer_margin_us=60.0))
    syn = sim.syn
    rng = np.random.default_rng(7)
    n_chips = len(sim.chips)
    syn.reset(1.0 + rng.uniform(-2e-5, 2e-5, syn.chip_row.size))
    neuron, row_core = row_senders(sim)
    profile = ProfileStore(*sim.profile_rows(), sim.fixed_busy_us, 4)
    spans = source_delivery_index(small_network, table)
    ring = np.zeros_like(syn.ring)
    flushed = late_left = 0
    for t in range(4):
        starts = 100.0 * t + rng.uniform(0.0, 1.0, n_chips)
        durations = np.full(n_chips, 100.0)
        deadline = starts[syn.chip_row] + durations[syn.chip_row] - 60.0 / syn.rate
        rows = rng.integers(0, neuron.size, 120)
        arrival = 100.0 * t + rng.uniform(0.0, 60.0, 120)
        arrival[0] = deadline[row_core[rows[0]]]  # arrives at the deadline: stays queued
        syn.push(arrival, np.stack([row_core[rows], sim.source_order[neuron[rows]],
                                    t - rng.integers(0, 2, 120), rows]))
        queued = queued_packets(sim)
        expected = {c: reference_window(sim, c, packets, t, starts[syn.chip_row[c]],
                                        deadline[c])
                    for c, packets in queued.items()}
        for c, packets in queued.items():
            window = sorted(p for p in packets if p[0] < deadline[c])
            ring_additions(sim, table, spans, ring, c, window[:expected[c][0][1]], t)
        totals = syn.run_window(t, starts, durations, profile)
        assert [type(x) for x in totals] == [int] * 5 + [float] + [int] * 4  # JSON-ready
        left = queued_packets(sim)
        for c, (counters, _, carry, queue) in expected.items():
            assert (profile.received[c, t], profile.processed[c, t], profile.flushed[c, t],
                    profile.zero_target[c, t], profile.kickstarts[c, t], profile.busy_us[c, t],
                    profile.processed_events[c, t], profile.flushed_events[c, t]) == counters
            assert syn.carry[c] == carry
            assert sorted(left.get(c, [])) == queue
        assert totals[:5] == tuple(sum(e[0][i] for e in expected.values()) for i in range(5))
        assert totals[8] == sum(e[1] for e in expected.values())
        assert totals[9] == max(e[0][2] for e in expected.values())
        assert np.array_equal(syn.ring, ring)
        flushed += totals[2]
        late_left += sum(map(len, left.values()))
    assert flushed > 0 and late_left > 0 and ring.any()


def test_arrival_ties_follow_the_machine_order(benchmark_path):
    """Packets that reach a core at the same time are taken in (sx, sy,
    score, key, emit step) order, which the engine gets from one rank per
    source ensemble.  At microcircuit scale a core hears from several
    ensembles; with every packet arriving at once and the deadline inside
    the queue, the order shows in the counters."""
    net = build_network(scale_network(load_network_spec(benchmark_path, "dc"), 0.02), seed=1)
    sim = HardwareSimulation(net, encode_projections(net),
                             costs=CostModel(second_timer_margin_us=60.0))
    syn = sim.syn
    c = int(np.bincount(sim.dest_core).argmax())
    neuron, row_core = row_senders(sim)
    rows = np.flatnonzero((row_core == c) & (sim.nid_of[neuron] < 4))
    assert np.unique(sim.ens_of[neuron[rows]]).size > 1
    packets = [(c, sim.source_order[neuron[r]], emit, r) for r in rows for emit in (0, 1)]
    order = np.random.default_rng(3).permutation(len(packets))
    syn.push(np.full(len(packets), 1.0), np.array(packets, dtype=np.int64)[order].T)
    n_chips = len(sim.chips)
    starts, durations = np.zeros(n_chips), np.full(n_chips, 100.0)
    expected, late, carry, left = reference_window(
        sim, c, queued_packets(sim)[c], 1, 0.0, 100.0 - 60.0 / syn.rate[c])
    profile = ProfileStore(*sim.profile_rows(), sim.fixed_busy_us, 2)
    totals = syn.run_window(1, starts, durations, profile)
    assert (profile.received[c, 1], profile.processed[c, 1], profile.flushed[c, 1],
            profile.zero_target[c, 1], profile.kickstarts[c, 1], profile.busy_us[c, 1],
            profile.processed_events[c, 1], profile.flushed_events[c, 1]) == expected
    assert (totals[8], syn.carry[c], left) == (late, carry, [])
    assert 0 < expected[1] < expected[0]


def one_core(net):
    """The machine model of ``net`` at crystal rate 1, one of its synapse
    cores c, a synaptic row r of c with synapses, the row's words and its
    source order.  Windows of periods that start at 0 us and last 100 us
    end at c's deadline, 100 us less the pre-deadline margin."""
    sim = HardwareSimulation(net, encode_projections(net))
    neuron, row_core = row_senders(sim)
    words = np.diff(store_rows(sim)[0])
    r = int(np.flatnonzero(words)[0])
    return sim, int(row_core[r]), r, int(words[r]), int(sim.source_order[neuron[r]])


def run_one_window(sim, t, packets):
    """Queue ``packets`` (arrival, core, source order, emit step, row) and
    run step t's window; returns the totals and the profile."""
    arrival, *fields = zip(*packets)
    sim.syn.push(np.array(arrival), np.array(fields, dtype=np.int64))
    n_chips = len(sim.chips)
    profile = ProfileStore(*sim.profile_rows(), sim.fixed_busy_us, t + 1)
    return sim.syn.run_window(t, np.zeros(n_chips), np.full(n_chips, 100.0), profile), profile


def test_packet_arriving_as_its_core_frees_counts_a_kickstart(small_network):
    """A packet that arrives exactly when its core becomes free, at the end
    of the last step's work or of the packet before it, kicks the pipeline;
    one that arrives while the core is busy does not."""
    sim, c, r, words, src = one_core(small_network)
    cm, syn = sim.costs, sim.syn
    cost = cm.packet_processing_us(words, syn.n_syn[c])
    kicked = cost + cm.pipeline_kickstart_us
    syn.carry[c] = 5.0
    first_end = 5.0 + kicked
    totals, profile = run_one_window(sim, 0, [(5.0, c, src, 0, r), (first_end, c, src, 0, r),
                                              (first_end + 1e-3, c, src, 0, r)])
    assert (profile.processed[c, 0], profile.kickstarts[c, 0]) == (3, 2)
    assert profile.busy_us[c, 0] == kicked + kicked + cost + syn.wcost[c]
    assert totals[:5] == (3, 3, 0, 0, 2)


def test_core_busy_until_its_deadline_flushes_its_window(small_network):
    """A core whose first in-window packet can begin only at the deadline
    flushes every in-window packet, adds nothing to the rings and keeps its
    busy time: only the ring-buffer write follows it."""
    sim, c, r, words, src = one_core(small_network)
    syn = sim.syn
    deadline = 100.0 - sim.costs.second_timer_margin_us
    syn.carry[c] = deadline
    totals, profile = run_one_window(sim, 0, [(10.0, c, src, 0, r), (20.0, c, src, 0, r)])
    assert (profile.received[c, 0], profile.processed[c, 0], profile.flushed[c, 0],
            profile.kickstarts[c, 0]) == (2, 0, 2, 0)
    assert (profile.processed_events[c, 0], profile.flushed_events[c, 0]) == (0, 2 * words)
    assert profile.busy_us[c, 0] == syn.wcost[c]
    assert syn.carry[c] == deadline + syn.wcost[c]
    assert not syn.ring.any() and totals[2] == 2 and not syn.q_arrival.size


def test_equal_arrivals_from_one_source_go_in_emit_step_order(small_network):
    """Two packets for one core with the same arrival and source order are
    taken in emit-step order, whatever their queue order: with the deadline
    between them, the earlier step's packet is processed (a late packet)
    and the current step's is flushed."""
    sim, c, r, words, src = one_core(small_network)
    cost = sim.costs.packet_processing_us(words, sim.syn.n_syn[c])
    arrival = 100.0 - sim.costs.second_timer_margin_us - cost / 2
    totals, profile = run_one_window(sim, 1, [(arrival, c, src, 1, r), (arrival, c, src, 0, r)])
    assert (profile.processed[c, 1], profile.flushed[c, 1]) == (1, 1)
    assert totals[8] == 1


def grouped_runs(net, costs, duration_ms, sizes, monkeypatch):
    """Machine and oracle runs of ``net`` from one table, one pair for each
    (window packets, ring synapses) group size in ``sizes``; each gives its
    totals, profile files, both traces, the digests of the machine's rings
    after every window and of the oracle's after every step, and the
    longest queue a window ran."""
    table = encode_projections(net)
    sim = HardwareSimulation(net, table, costs=costs, drift_seed=3)
    window, insert = runtime.SynapseCoreState.run_window, matrices.ring_insert
    rings, queued = [], []

    def digest_window(syn, t, *args):
        queued.append(syn.q_arrival.size)
        result = window(syn, t, *args)
        rings.append(("machine", t, hashlib.sha1(syn.ring).hexdigest()))
        return result

    def digest_insert(ring, table, t, *args):
        insert(ring, table, t, *args)
        if ring is not sim.syn.ring:  # the machine's rings are digested per window
            rings.append(("oracle", t, hashlib.sha1(ring).hexdigest()))

    monkeypatch.setattr(runtime.SynapseCoreState, "run_window", digest_window)
    monkeypatch.setattr(matrices, "ring_insert", digest_insert)
    runs = []
    for packets, synapses in sizes:
        monkeypatch.setattr(runtime, "WINDOW_PACKETS", packets)
        monkeypatch.setattr(matrices, "RING_SYNAPSES", synapses)
        rings.clear()
        queued.clear()
        bank = PoissonBank(net, 2, round(duration_ms / net.dt_ms), io.BytesIO())
        res = sim.run(duration_ms, bank, spill=io.BytesIO())
        ref = oracle_simulate(net, table, bank, duration_ms)
        runs.append((res.totals, written(res.profile.serialize),
                     written(res.profile.serialize_events), written(res.trace.serialize),
                     written(ref.serialize), list(rings), max(queued)))
    return runs


@pytest.mark.parametrize("case", ["small_spec_flushing", "microcircuit_005_dc"])
def test_window_and_ring_groups_change_nothing(case, benchmark_path, monkeypatch):
    """A window runs its sorted queue a group of whole cores at a time, and
    a ring insert its spans a group of synapses at a time.  Groups of one
    packet and one synapse, and of middle sizes, give the one-group run's
    totals (the float busy time too), profile bytes, machine and oracle
    traces, and rings at every step: on SMALL_SPEC with a margin that
    flushes, and on microcircuit 0.05 with DC input, whose onset volley
    (13,626 packets) flushes and spans many groups."""
    if case == "small_spec_flushing":
        net = build_network(parse_network_spec(SMALL_SPEC, "poisson"), seed=42)
        costs, duration_ms = CostModel(second_timer_margin_us=95.0), 20.0
    else:
        net = build_network(scale_network(load_network_spec(benchmark_path, "dc"), 0.05), seed=1)
        costs, duration_ms = None, 3.0
    middle = (4, 37) if case == "small_spec_flushing" else (1000, 4096)
    sizes = [(1 << 40, 1 << 40), (1, 1), middle,
             (runtime.WINDOW_PACKETS, matrices.RING_SYNAPSES)]
    runs = grouped_runs(net, costs, duration_ms, sizes, monkeypatch)
    totals, longest = runs[0][0], runs[0][-1]
    assert totals["flushed"] > 0 and totals["processed"] > 0
    assert longest > 5 * middle[0]
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_ring_insert_matches_a_per_synapse_reference(dtype, monkeypatch):
    """``ring_insert`` finds a synapse's ring cell from its packed cell
    plus the step's slot, one add and one mask.  On a hand-made table of
    n = 13 neurons, whose ring stride is padded to 16, with delays 1 to
    slots - 1, both signs and shifts 0-3, at steps that wrap the ring, and
    with spans cut into groups of a few synapses, one span larger than a
    group, it adds what a loop over the synapses adds, ``word << shift`` at
    ``[sign, (t + delay) % slots, target]`` of a ``(2, slots, n)`` ring,
    and leaves the padding zero."""
    n, lp, slots, m = 13, 4, 8, 400
    rng = np.random.default_rng(11)
    target, sign = rng.integers(0, n, m), rng.integers(0, 2, m)
    delay, shift = rng.integers(1, slots, m), rng.integers(0, 4, m)
    words = rng.integers(0, 1 << 16, m).astype(np.uint16)
    cell = (target | sign << lp | delay << (lp + 1) | shift << (lp + 9)).astype(np.uint32)
    assert set(delay.tolist()) == set(range(1, slots)) and set(shift.tolist()) == {0, 1, 2, 3}
    table = matrices.SynapseTable(cell, words, np.array([0, m]), [np.array([0, m])],
                                  np.array([0]), None, 0, CellLayout(lp), slots)
    lo = rng.integers(0, m - 60, 40).astype(np.int32)
    lens = rng.integers(0, 30, 40)
    lens[7] = 60
    monkeypatch.setattr(matrices, "RING_SYNAPSES", 25)
    ring = np.zeros((slots, 2, 1 << lp), dtype=dtype)
    ref = np.zeros((2, slots, n), dtype=np.int64)
    for t in (slots - 1, slots, 2 * slots + 3):
        matrices.ring_insert(ring, table, t, lo, lens)
        for i in matrices.ranges(lo, lens).tolist():
            ref[sign[i], (t + delay[i]) % slots, target[i]] += int(words[i]) << int(shift[i])
    assert ring.dtype == dtype and ref.any()
    assert np.array_equal(ring[:, :, :n].transpose(1, 0, 2), ref)
    assert not ring[:, :, n:].any()


def test_window_memory_is_bounded_by_its_groups(benchmark_path):
    """One window over a queue of eight groups' packets, every one of them
    processed, holds the whole queue's sort order and one group of whole
    cores at a time: its tracemalloc peak stays within 24 B per queued
    packet plus 300 B per packet of a group.  It measured 35 B per packet
    (numpy 2.4, Python 3.11); a window that ran its whole int64 queue at
    once peaked at 234."""
    net = build_network(scale_network(load_network_spec(benchmark_path, "dc"), 0.02), seed=1)
    sim = HardwareSimulation(net, encode_projections(net))
    syn = sim.syn
    neuron, row_core = row_senders(sim)
    n = 8 * runtime.WINDOW_PACKETS
    rng = np.random.default_rng(5)
    rows = rng.integers(0, neuron.size, n)
    syn.push(rng.uniform(0.0, 80.0, n), np.stack([row_core[rows], sim.source_order[neuron[rows]],
                                                  np.zeros(n, dtype=np.int64), rows]))
    assert np.bincount(row_core[rows]).max() < runtime.WINDOW_PACKETS  # no core fills a group
    n_chips = len(sim.chips)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        totals = syn.run_window(0, np.zeros(n_chips), np.full(n_chips, 1e5))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert totals[:3] == (n, n, 0)
    assert peak <= 24 * n + 300 * runtime.WINDOW_PACKETS
