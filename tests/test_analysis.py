"""Firing statistics against a fixed-seed oracle trace, and the energy
figures of the shipped measurements."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from conftest import DATA_DIR
from spikert import analysis, trace
from spikert.matrices import PoissonBank, encode_projections
from spikert.oracle import oracle_simulate


def test_subsampled_correlations_are_pinned(small_network):
    """A 20-neuron subsample of each population: the binned trains' Pearson
    coefficients keep their bytes."""
    tr = oracle_simulate(small_network, encode_projections(small_network),
                         PoissonBank(small_network, 2, 1000), 100.0)
    stats = analysis.firing_stats(tr, corr_subsample=20)
    assert [(p.correlations.size, p.corr_excluded) for p in stats.populations] == [(190, 0)] * 2
    assert hashlib.sha256(np.concatenate([p.correlations for p in stats.populations])
                          .tobytes()).hexdigest() == (
        "79a70a3228bfc87f4030b7572f84ad14668367ba5ac248ddc4e5cbc933c8f87d")


def in_trace_order(steps, neurons):
    """Steps (uint32) and global neurons (int32) in step then neuron order."""
    order = np.lexsort((neurons, steps))
    return np.asarray(steps)[order].astype(np.uint32), np.asarray(neurons)[order].astype(np.int32)


def test_per_timestep_counts_split_by_polarity():
    """Each step's spikes, counted one by one, by their population's polarity."""
    rng = np.random.default_rng(5)
    n = 500
    tr = trace.SpikeTrace(*in_trace_order(rng.integers(0, 40, n), rng.integers(0, 30, n)),
                          4.0, 0.1, 0.0, ("a", "b", "c"), (10, 10, 10), ("exc", "inh", "exc"))
    t, total, exc, inh = analysis.per_timestep_counts(tr)
    pops = tr.neurons // 10
    want_exc = [int(np.sum((tr.steps == s) & (pops != 1))) for s in range(40)]
    want_inh = [int(np.sum((tr.steps == s) & (pops == 1))) for s in range(40)]
    assert t.tolist() == list(range(40))
    assert exc.tolist() == want_exc and inh.tolist() == want_inh
    assert total.tolist() == [e + i for e, i in zip(want_exc, want_inh)]


def test_per_timestep_counts_hold_one_block_beside_their_result():
    """1.36M spikes over 100,000 steps are counted a block of spikes at a
    time: the tracemalloc peak is at most 1 MiB over the four returned
    arrays (3.05 MiB), where a key and a flag per spike took 10 MiB more,
    and the counts equal one ``np.bincount`` of all spikes."""
    rng = np.random.default_rng(6)
    n = 1_360_000
    tr = trace.SpikeTrace(*in_trace_order(rng.integers(0, 100_000, n), rng.integers(0, 3000, n)),
                          10_000.0, 0.1, 0.0, ("a", "b"), (2000, 1000), ("exc", "inh"))
    tracemalloc.start()
    try:
        counts = analysis.per_timestep_counts(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(c.nbytes for c in counts) <= 1 << 20
    t, total, exc, inh = counts
    assert t.tolist() == list(range(100_000))
    assert np.array_equal(total, np.bincount(tr.steps, minlength=100_000))
    assert np.array_equal(inh, np.bincount(tr.steps[tr.neurons >= 2000], minlength=100_000))
    assert np.array_equal(exc, total - inh)


def test_row_reductions_equal_each_rows_own():
    """The premise of the grouped CV ISI: on this numpy, the mean and
    standard deviation along the rows of a C-contiguous 2-D array equal
    each row's own, bit for bit, for rows of 2 to 300 elements, on both
    sides of the lengths at which its sums change method (8 and 128)."""
    rng = np.random.default_rng(3)
    for length in range(2, 301):
        a = rng.exponential(3.0, size=(4, length))
        assert a.mean(axis=1).tobytes() == np.array([row.mean() for row in a]).tobytes()
        assert a.std(axis=1).tobytes() == np.array([row.std() for row in a]).tobytes()


def per_neuron_cv(tr) -> list[np.ndarray]:
    """Each population's CV ISI, one neuron at a time in neuron order, over
    the spikes after the discard window."""
    times = tr.steps * tr.dt_ms
    pops = np.searchsorted(tr.offsets, tr.neurons, side="right") - 1
    keep = times >= tr.discard_ms
    out = []
    for p in range(len(tr.pop_names)):
        t, n = times[keep & (pops == p)], tr.neurons[keep & (pops == p)]
        cvs = []
        for i in np.unique(n).tolist():
            isi = np.diff(np.sort(t[n == i]))
            if isi.size >= 2:
                mean = isi.mean()
                cvs.append(isi.std() / mean if mean > 0 else 0.0)
        out.append(np.asarray(cvs, dtype=np.float64))
    return out


def synthetic_trace() -> trace.SpikeTrace:
    """Two populations whose neurons have 0, 1, 2, 9 and 200 ISIs after a
    5 ms discard window, some with spikes inside it, a silent neuron and
    one with three spikes at one time (mean ISI 0)."""
    rng = np.random.default_rng(11)
    spikes = []  # (step, population, neuron)
    isis = {0: [1, 2, 9, 200, 9, 0, 2], 1: [200, 9, 1, 9]}
    for p, counts in isis.items():
        for neuron, n_isi in enumerate(counts):
            steps = 50 + np.sort(rng.choice(9950, size=n_isi + 1, replace=False))
            spikes += [(s, p, neuron) for s in steps.tolist()]
            spikes += [(s, p, neuron) for s in rng.choice(50, size=neuron % 3).tolist()]
    spikes += [(700, 1, 5)] * 3
    steps, pops, neurons = map(np.array, zip(*spikes))
    return trace.SpikeTrace(*in_trace_order(steps, np.array([0, 8])[pops] + neurons),
                            1000.0, 0.1, 5.0, ("A", "B"), (8, 7), ("exc", "inh"))


@pytest.mark.parametrize("source", ["synthetic", "oracle"])
def test_grouped_cv_equals_per_neuron_loop(source, small_network):
    """The CV ISI of the neurons grouped by interval count equals the
    per-neuron loop bit for bit, with its neurons in the same order, on a
    trace with neurons of 0, 1, 2, 9 and 200 intervals and a discard window,
    and on an oracle trace; the silent neurons' binned trains are the flat
    ones."""
    if source == "synthetic":
        tr = synthetic_trace()
    else:
        tr = oracle_simulate(small_network, encode_projections(small_network),
                             PoissonBank(small_network, 2, 1000), 100.0, discard_ms=20.0)
    stats = analysis.firing_stats(tr, corr_subsample=8)
    for pop, cvs, size in zip(stats.populations, per_neuron_cv(tr), tr.pop_sizes):
        assert pop.cv_isi.tobytes() == cvs.tobytes()
        assert pop.cv_excluded == size - cvs.size
    if source == "synthetic":
        assert [p.cv_isi.size for p in stats.populations] == [5, 4]
        # every neuron is in the correlation subsample; the silent ones are flat
        assert [p.corr_excluded for p in stats.populations] == [1, 2]


def test_correlation_transients_per_neuron_and_bin():
    """The correlations of 200 subsampled neurons over 10 s of 2 ms bins
    (5,000 bins) peak at under 20 B per (neuron, bin) traced: the binned
    trains are int32, and flat ones are found without a float copy (int64
    trains and a float ``std`` took about 25 B)."""
    rng = np.random.default_rng(5)
    steps = rng.integers(0, 100_000, 20_000)
    tr = trace.SpikeTrace(*in_trace_order(steps, rng.integers(0, 200, steps.size)),
                          10_000.0, 0.1, 0.0, ("A",), (200,), ("exc",))
    analysis.firing_stats(tr)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        stats = analysis.firing_stats(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.populations[0].correlations.size == 200 * 199 // 2
    assert peak < 20 * 200 * 5_000


def test_energy_figures_of_the_shipped_measurements():
    """The shipped wall-socket measurements give the paper's figures: 0.634
    uJ per synaptic event and 593 W for the Poisson 10 s run, 0.601 uJ and
    549 W for the DC run, 411 W with the boards booted and idle for 12 h;
    each 10 s figure is its 12 h run's rescaled at constant power, to the
    meter's rounding."""
    rows = analysis.load_energy_figures(os.path.join(DATA_DIR, "energy_measurements.tsv"))
    assert len(rows) == 6
    by_run = {(r.configuration, r.wall_clock_s): r for r in rows}
    for name, uj, watts in (("microcircuit_poisson_realtime", 0.634, 593),
                            ("microcircuit_dc_realtime", 0.601, 549)):
        report = analysis.energy_report(by_run[name, 10.0])
        assert report["energy_per_event_uj"] == pytest.approx(uj, abs=5e-4)
        assert report["mean_power_w"] == pytest.approx(watts, abs=0.5)
        assert analysis.scale_energy_kwh(by_run[name, 43200.0], 10.0) == pytest.approx(
            by_run[name, 10.0].total_energy_kwh, rel=1e-3)
    idle = analysis.energy_report(by_run["boards_booted_idle", 43200.0])
    assert "energy_per_event_uj" not in idle
    assert idle["mean_power_w"] == pytest.approx(411, abs=0.5)
