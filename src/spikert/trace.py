"""Spike trace container and its text format.

A trace holds what a run records, 8 B per spike: each spike's step (uint32
``steps``; a run has at most ``MAX_STEPS`` steps) and its neuron's global
index (int32 ``neurons``), in step then neuron order.  Global order is
population then neuron order, so this is the order of the text format too.

The text format has one line per spike, ``time_ms population neuron_index``,
where ``time_ms`` is ``step * dt_ms``; header comments carry run metadata and
the population roster.  Both simulation paths write through the same code,
so equal spike sets produce byte-identical files.  A trace is written
straight to its file, ``LINES`` spikes at a time, never built as one string:
in each block every distinct step's time and every distinct neuron's
``population index`` text is formatted once, and a line is the join of the
two.  ``load_trace`` reads a file back into that order, whatever the order
of its lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .network import SpecError

LINES = 1 << 14  # spikes formatted per write
MAX_STEPS = 1 << 32  # steps are uint32, and the machine's queue orders emit steps in 32 bits


@dataclass
class SpikeTrace:
    steps: np.ndarray       # uint32, each spike's step
    neurons: np.ndarray     # int32 global neuron index, in step then neuron order
    duration_ms: float
    dt_ms: float
    discard_ms: float
    pop_names: tuple[str, ...]
    pop_sizes: tuple[int, ...]
    pop_polarity: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.steps.size)

    @property
    def offsets(self) -> np.ndarray:
        """Each population's first global neuron index, then the total."""
        return np.concatenate([[0], np.cumsum(self.pop_sizes, dtype=np.int64)])

    def __eq__(self, other) -> bool:
        """Equal traces serialize to the same bytes."""
        return isinstance(other, SpikeTrace) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def serialize(self, fh) -> None:
        """Write the trace's text to the text file ``fh``."""
        fh.write(f"# spike trace\n# duration_ms {self.duration_ms!r}\n# dt_ms {self.dt_ms!r}\n"
                 f"# discard_ms {self.discard_ms!r}\n" + "".join(
                     f"# population {name} {size} {pol}\n"
                     for name, size, pol in zip(self.pop_names, self.pop_sizes, self.pop_polarity)))
        offsets = self.offsets
        names = [name + " " for name in self.pop_names]
        for a in range(0, len(self), LINES):
            steps, step_of = np.unique(self.steps[a:a + LINES], return_inverse=True)
            ids, id_of = np.unique(self.neurons[a:a + LINES], return_inverse=True)
            pops = np.searchsorted(offsets, ids, side="right") - 1
            rows = np.empty((id_of.size, 2), dtype=object)
            rows[:, 0] = _formatted("%.4f ", (steps * self.dt_ms).tolist())[step_of]
            rows[:, 1] = np.array([names[p] + "%d\n" % i for p, i in zip(
                pops.tolist(), (ids - offsets[pops]).tolist())], dtype=object)[id_of]
            fh.write("".join(rows.ravel().tolist()))


def distinct_strings(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """The strings of an array's distinct values, each formatted once.

    ``values`` is 1-D, or a 2-D integer array whose columns are tuples.
    Returns an object array of ``fmt % v`` for each distinct value v (``fmt
    % tuple(column)`` for each distinct column) and the index of each
    value's (each column's) string.  Floats are told apart by their bits,
    and ``%`` formats equal floats alike, so every string is the one
    formatting that value would give.  Columns are packed into one int64
    key each, a mixed radix whose base is a row's range; when the key would
    not fit in 63 bits, columns are compared whole, which is much slower.
    """
    if values.ndim == 2:
        lo = values.min(axis=1).tolist()
        bases = [hi - low + 1 for hi, low in zip(values.max(axis=1).tolist(), lo)]
        if math.prod(bases) > 1 << 63:
            uniq, inverse = np.unique(values, axis=1, return_inverse=True)
            return _formatted(fmt, map(tuple, uniq.T.tolist())), inverse.reshape(-1)
        key = np.zeros(values.shape[1], dtype=np.int64)
        for row, low, base in zip(values, lo, bases):
            key *= base
            key += np.subtract(row, low, dtype=np.int64)
        uniq, inverse = np.unique(key, return_inverse=True)
        digits = np.empty((len(bases), uniq.size), dtype=np.int64)
        for j in range(len(bases) - 1, -1, -1):
            uniq, digits[j] = np.divmod(uniq, bases[j])
        digits += np.array(lo, dtype=np.int64)[:, None]
        return _formatted(fmt, map(tuple, digits.T.tolist())), inverse
    if values.dtype.kind == "f":
        uniq, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
        uniq = uniq.view(values.dtype)
    else:
        uniq, inverse = np.unique(values, return_inverse=True)
    return _formatted(fmt, uniq.tolist()), inverse


def _formatted(fmt: str, values) -> np.ndarray:
    """``fmt % v`` for each of ``values``, as an object array."""
    return np.array([fmt % v for v in values], dtype=object)


class SpikeRecord:
    """The spikes of a run of ``n_steps`` as it goes: the number that fired
    at each step (int32 ``counts``) and the global indices of the neurons
    that fired, step after step, as int32 in pieces of ``PIECE`` entries,
    so that the record costs about 4 B per spike and grows a piece at a
    time.  It refuses more than ``MAX_STEPS`` steps."""

    PIECE = 1 << 16

    def __init__(self, n_steps: int):
        if n_steps > MAX_STEPS:
            raise SpecError(f"{n_steps} steps: the machine model runs at most {MAX_STEPS} "
                            "(2**32) steps")
        self.counts = np.zeros(n_steps, dtype=np.int32)
        self._pieces = [np.empty(self.PIECE, dtype=np.int32)]
        self._used = 0  # entries filled in the last piece

    def add(self, t: int, fired: np.ndarray) -> None:
        """Record the neurons ``fired`` (ascending global indices) at step t."""
        self.counts[t] = fired.size
        while fired.size:
            piece = self._pieces[-1]
            k = min(fired.size, piece.size - self._used)
            piece[self._used:self._used + k] = fired[:k]
            fired = fired[k:]
            self._used += k
            if self._used == piece.size:
                self._pieces.append(np.empty(self.PIECE, dtype=np.int32))
                self._used = 0

    def neurons(self) -> np.ndarray:
        """Every recorded neuron index, in record order, as one int32 array."""
        return np.concatenate([*self._pieces[:-1], self._pieces[-1][:self._used]])


def from_step_records(network, record: SpikeRecord, discard_ms: float = 0.0) -> SpikeTrace:
    """The trace of a run of ``network`` from its spike record, which is in
    trace order as recorded: its steps ascend, and each step's neurons are
    ascending global indices."""
    n_steps = record.counts.size
    steps = np.repeat(np.arange(n_steps, dtype=np.uint32), record.counts)
    populations = network.populations
    return SpikeTrace(steps, record.neurons(), n_steps * network.dt_ms, network.dt_ms,
                      discard_ms, tuple(p.name for p in populations),
                      tuple(p.size for p in populations), tuple(p.polarity for p in populations))


def load_trace(path) -> SpikeTrace:
    """Read a trace file, its lines in any order.  Each time must be a step
    of ``dt_ms`` inside the duration, and each neuron index inside its
    population; the spikes are put in trace order."""
    meta = {"duration_ms": 0.0, "dt_ms": 0.1, "discard_ms": 0.0}
    roster: list[list[str]] = []
    spikes: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            parts = line[1:].split() if line.startswith("#") else None
            if parts is None and line:
                spikes.append(line.split())
            elif parts and len(parts) >= 2 and parts[0] in meta:
                meta[parts[0]] = float(parts[1])
            elif parts and parts[0] == "population":
                roster.append(parts[1:4])
    names = tuple(name for name, _, _ in roster)
    tr = SpikeTrace(np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.int32),
                    meta["duration_ms"], meta["dt_ms"], meta["discard_ms"], names,
                    tuple(int(size) for _, size, _ in roster), tuple(pol for _, _, pol in roster))
    times = np.array([float(t) for t, _, _ in spikes], dtype=np.float64)
    pop = np.array([names.index(p) for _, p, _ in spikes], dtype=np.int64)
    local = np.array([int(n) for _, _, n in spikes], dtype=np.int64)
    steps = np.rint(times / tr.dt_ms)
    if ((steps < 0) | (steps >= min(round(tr.duration_ms / tr.dt_ms), MAX_STEPS))
            | (np.abs(steps * tr.dt_ms - times) > 1e-4)
            | (local < 0) | (local >= np.diff(tr.offsets)[pop])).any():
        raise ValueError(f"{path}: a spike off the trace's steps or outside its population")
    g = tr.offsets[pop] + local
    order = np.lexsort((g, steps))
    tr.steps, tr.neurons = steps[order].astype(np.uint32), g[order].astype(np.int32)
    return tr
