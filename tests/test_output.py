"""The output writers against Python's own formatting: the profile files
from synthetic counters, spike traces built by hand, and the strings of
distinct values both share."""

import io

import numpy as np
import pytest

from conftest import line_by_line_profile, written
from spikert import runtime, trace

INT32_MAX = np.iinfo(np.int32).max
# busy times on an exact tie at the 4th decimal (0.03125 -> 0.0312,
# 0.15625 -> 0.1562), both zeros, and values next to a rounding edge
BUSY_EDGES = [0.03125, 0.15625, 0.0, -0.0, 2.5e-5, 1.00005, 0.30000000000000004,
              12345.67895, 1e-9, 99.99995]


def spilled_profile(labels, syn_core, fixed, counters, n_steps,
                    file=None) -> runtime.ProfileStore:
    """A ProfileStore that has spilled ``counters``, ``(synapse cores,
    steps)`` arrays by name, chunk by chunk as a run does, to ``file`` (a
    new ``io.BytesIO`` if None)."""
    profile = runtime.ProfileStore(labels, np.asarray(syn_core), np.asarray(fixed), n_steps,
                                   io.BytesIO() if file is None else file)
    width = profile.received.shape[1]
    for t0 in range(0, n_steps, width):
        k = min(width, n_steps - t0)
        for name in profile.COUNTERS:
            getattr(profile, name)[:, :k] = counters[name][:, t0:t0 + k]
        profile.spill()
    return profile


def synthetic_counters(kind: str, n_syn: int, n_steps: int) -> dict:
    rng = np.random.default_rng(7)
    shape = (n_syn, n_steps)
    if kind == "one_tuple":
        counters = {name: np.full(shape, 3, dtype=np.int32)
                    for name in runtime.ProfileStore.INTS}
        counters["busy_us"] = np.full(shape, 0.03125)
        return counters
    if kind == "int32_max":
        counters = {name: rng.choice([0, 1, INT32_MAX], size=shape).astype(np.int32)
                    for name in runtime.ProfileStore.INTS}
    else:
        counters = {name: rng.integers(0, 40, size=shape, dtype=np.int32)
                    for name in runtime.ProfileStore.INTS}
    counters["busy_us"] = np.where(rng.random(shape) < 0.5, rng.choice(BUSY_EDGES, size=shape),
                                   rng.random(shape) * 100)
    return counters


@pytest.mark.parametrize("kind, n_steps, group_cells, step_span", [
    ("random", 300, runtime.ProfileStore.GROUP_CELLS, runtime.ProfileStore.STEP_SPAN),
    ("one_tuple", 300, runtime.ProfileStore.GROUP_CELLS, runtime.ProfileStore.STEP_SPAN),
    ("int32_max", 300, 700, runtime.ProfileStore.STEP_SPAN),
    # more steps than a group holds: one core at a part of the steps
    ("random", 1000, 300, runtime.ProfileStore.STEP_SPAN),
    # more steps than a span of step strings, neither a whole number of chunks
    ("random", 1000, 300, 700),
    ("random", 1000, 100, 450),
])
def test_profile_equals_python_formatting(monkeypatch, kind, n_steps, group_cells, step_span):
    """Both profile files from synthetic counters, with the synapse cores
    out of core-table order among neuron cores, equal formatting each line
    with an f-string: also for counters at int32's maximum, which take the
    slow path for tuples whose packed key would not fit in 63 bits, for a
    single distinct tuple, for busy times on a rounding tie or of either
    sign of zero, and for runs longer than a group or a span of step
    strings."""
    monkeypatch.setattr(runtime.ProfileStore, "GROUP_CELLS", group_cells)
    monkeypatch.setattr(runtime.ProfileStore, "STEP_SPAN", step_span)
    whole_columns = []
    unique = np.unique

    def spy(*args, **kwargs):
        whole_columns.append(kwargs.get("axis") is not None)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    labels = ["n_0_0_1", "s_0_0_5", "s_0_0_6", "p_1_0_2", "s_1_0_7", "n_1_0_3"]
    syn_core = [-1, 2, 0, -1, 1, -1]
    fixed = [0.03125, 1.5, 2.5, 0.15625, 3.5, 12.00005]
    counters = synthetic_counters(kind, 3, n_steps)
    profile = spilled_profile(labels, syn_core, fixed, counters, n_steps)
    assert (written(profile.serialize), written(profile.serialize_events)) == \
        line_by_line_profile(profile, counters)
    assert any(whole_columns) == (kind == "int32_max")


class CountedReads(io.BytesIO):
    """An in-memory file that counts its ``readinto`` calls."""
    reads = 0

    def readinto(self, buffer):
        self.reads += 1
        return super().readinto(buffer)


@pytest.mark.parametrize("n_steps, group_cells, reads", [
    (300, 700, 2),  # two cores at every step, then the third
    (1000, 300, 12),  # one core at a part of 300 steps: four parts per core
])
def test_profile_reads_each_group_back_in_one_call(monkeypatch, n_steps, group_cells, reads):
    """Writing either profile file reads the spill file once per group of
    (core, step) cells: several cores at every step when the run fits a
    group, else one core at a part of its steps."""
    monkeypatch.setattr(runtime.ProfileStore, "GROUP_CELLS", group_cells)
    file = CountedReads()
    counters = synthetic_counters("random", 3, n_steps)
    profile = spilled_profile(["s_0", "n_1", "s_2", "s_3"], [1, -1, 0, 2], [1.5, 0.5, 2.5, 3.5],
                              counters, n_steps, file)
    for serialize in (profile.serialize, profile.serialize_events):
        file.reads = 0
        written(serialize)
        assert file.reads == reads


def test_truncated_spill_file_refuses_to_serialize():
    """A profile whose spill file ends before the run's last record raises
    EOFError rather than writing counters the file does not hold."""
    counters = synthetic_counters("random", 2, 300)
    profile = spilled_profile(["s_0", "s_1"], [0, 1], [1.5, 2.5], counters, 300)
    profile.file.truncate(2 * 300 * profile.RECORD.itemsize - 1)
    with pytest.raises(EOFError, match="the profile spill file ends before the run's steps"):
        written(profile.serialize)


@pytest.mark.parametrize("values, fmt", [
    (np.array([3, 1, 3, INT32_MAX, 0, 1], dtype=np.int32), "%s"),
    (np.array([0.1 + 0.2, 0.3, 0.03125, 0.0, -0.0, 1e5, 0.3]), "%.4f"),
    (np.array([[0, 5, 0, 5, 0], [INT32_MAX, 1, INT32_MAX, 1, 0]], dtype=np.int32), "%s %s"),
    (np.array([[-3, 2, -3], [7, 7, 7], [INT32_MAX, 0, INT32_MAX]], dtype=np.int32),
     "%s,%s,%s"),
    (np.full((4, 1), INT32_MAX, dtype=np.int32), "%s %s %s %s"),
    # bases 2**31, 2**31 and 8: packed keys would need 65 bits, and the
    # first two columns' would be equal modulo 2**64
    (np.array([[INT32_MAX, 2**30 - 1, 0, 5], [INT32_MAX, INT32_MAX, 0, 5], [7, 7, 0, 1]],
              dtype=np.int32), "%s %s %s"),
])
def test_distinct_strings_format_each_value(values, fmt):
    """The string of each value (each column of a 2-D array) is the one
    formatting it alone gives, and each distinct value (floats told apart
    by their bits) is formatted once."""
    strings, index = trace.distinct_strings(values, fmt)
    each = [tuple(v) for v in values.T.tolist()] if values.ndim == 2 else values.tolist()
    assert strings[index].tolist() == [fmt % v for v in each]
    assert len(strings) == len({v.hex() if isinstance(v, float) else v for v in each})


def hand_trace(times, pops, neurons) -> trace.SpikeTrace:
    return trace.SpikeTrace(np.asarray(times, dtype=np.float64), np.asarray(pops, dtype=np.int32),
                            np.asarray(neurons, dtype=np.int32), 1e5 + 0.1, 0.1, 0.0,
                            ("L23E", "L4I"), (1000, 7), ("exc", "inh"))


# in trace order: time, then population, then neuron
SPIKES = [(0.0, 0, 0), (0.0, 0, 999), (0.0, 1, 6), (0.1, 1, 0), (0.2, 0, 3),
          (0.30000000000000004, 0, 1), (0.30000000000000004, 1, 6), (0.5000499999999999, 0, 2),
          (0.6000000000000001, 0, 998), (2.5e-5 + 7.0, 0, 999), (12.34565, 1, 6),
          (1e5, 0, 999), (1e5, 1, 0), (1e5, 1, 6)]


def spike_lines(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True) if not line.startswith("#")]


@pytest.mark.parametrize("lines", [trace.LINES, 4])
def test_trace_equals_python_formatting(monkeypatch, lines):
    """A trace's spike lines equal ``%.4f %s %s`` of each spike, for times
    such as 0.30000000000000004 and 1e5 ms, neuron ids up to the population
    size minus 1, and blocks of LINES spikes that split a time; a trace
    already in order is written without a sort."""
    monkeypatch.setattr(trace, "LINES", lines)
    sorts = []
    sort = trace.SpikeTrace.sorted
    monkeypatch.setattr(trace.SpikeTrace, "sorted", lambda self: sorts.append(1) or sort(self))
    tr = hand_trace(*zip(*SPIKES))
    names = tr.pop_names
    assert spike_lines(written(tr.serialize)) == [f"{t:.4f} {names[p]} {n}\n"
                                                  for t, p, n in SPIKES]
    assert sorts == []


@pytest.mark.parametrize("order", [
    np.random.default_rng(3).permutation(len(SPIKES)).tolist(),
    [0, 2, 1] + list(range(3, len(SPIKES))),  # populations out of order at one time
    [1, 0] + list(range(2, len(SPIKES))),  # neurons out of order at one time
], ids=["shuffled", "populations", "neurons"])
def test_unordered_trace_serializes_in_sorted_order(order):
    """A trace whose spikes are out of order, also only among the spikes
    of one time, is sorted before it is written, so it writes the bytes of
    the same spikes in order."""
    unordered = hand_trace(*zip(*[SPIKES[i] for i in order]))
    assert written(unordered.serialize) == written(hand_trace(*zip(*SPIKES)).serialize)
    assert written(unordered.sorted().serialize) == written(unordered.serialize)
