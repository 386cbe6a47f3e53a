"""Spike trace container and its text format.

One line per spike, ``time_ms population neuron_index``, sorted by time then
population order then neuron; header comments carry run metadata and the
population roster.  Both simulation paths write through the same code, so
equal spike sets produce byte-identical files.  A trace is written straight
to its file, ``LINES`` spikes at a time, never built as one string: in each
block every distinct time and every distinct neuron id is formatted once
(``distinct_strings``, which the profile writer shares), and a line is the
join of its time, its pre-spaced population name and its neuron id.  A
trace already in that order, as ``from_step_records`` and ``load_trace``
make it, is written without a sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LINES = 1 << 14  # spikes formatted per write


@dataclass
class SpikeTrace:
    times_ms: np.ndarray    # float64
    pops: np.ndarray        # int32 population index
    neurons: np.ndarray     # int32 population-local neuron index
    duration_ms: float
    dt_ms: float
    discard_ms: float
    pop_names: tuple[str, ...]
    pop_sizes: tuple[int, ...]
    pop_polarity: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.times_ms.size)

    def _in_order(self) -> bool:
        """Whether the spikes are in trace order: by time, then population,
        then neuron."""
        t, p, n = self.times_ms, self.pops, self.neurons
        later_p = (p[1:] > p[:-1]) | ((p[1:] == p[:-1]) & (n[1:] >= n[:-1]))
        return bool(((t[1:] > t[:-1]) | ((t[1:] == t[:-1]) & later_p)).all())

    def sorted(self) -> "SpikeTrace":
        order = np.lexsort((self.neurons, self.pops, self.times_ms))
        return SpikeTrace(self.times_ms[order], self.pops[order], self.neurons[order],
                          self.duration_ms, self.dt_ms, self.discard_ms,
                          self.pop_names, self.pop_sizes, self.pop_polarity)

    def __eq__(self, other) -> bool:
        """Equal traces serialize to the same bytes."""
        return isinstance(other, SpikeTrace) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def serialize(self, fh) -> None:
        """Write the trace's text to the text file ``fh``."""
        t = self if self._in_order() else self.sorted()
        lines = [
            "# spike trace",
            f"# duration_ms {self.duration_ms!r}",
            f"# dt_ms {self.dt_ms!r}",
            f"# discard_ms {self.discard_ms!r}",
        ]
        for name, size, pol in zip(self.pop_names, self.pop_sizes, self.pop_polarity):
            lines.append(f"# population {name} {size} {pol}")
        fh.write("\n".join(lines) + "\n")
        names = np.array([name + " " for name in self.pop_names], dtype=object)
        for a in range(0, len(t), LINES):
            times, time_of = distinct_strings(t.times_ms[a:a + LINES], "%.4f ")
            ids, id_of = distinct_strings(t.neurons[a:a + LINES], "%s\n")
            rows = np.empty((time_of.size, 3), dtype=object)
            rows[:, 0] = times[time_of]
            rows[:, 1] = names[t.pops[a:a + LINES]]
            rows[:, 2] = ids[id_of]
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
    time."""

    PIECE = 1 << 16

    def __init__(self, n_steps: int):
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
    """The sorted trace of a run of ``network`` from its spike record.  Its
    steps are ascending and each step's neurons ascending global indices,
    and global order is population then neuron order, so the spikes come
    out sorted without a sort."""
    g = record.neurons()
    pops = np.searchsorted(network.offsets, g, side="right").astype(np.int32)
    pops -= 1
    g -= network.offsets[pops]  # population-local
    n_steps = record.counts.size
    times = np.repeat(np.arange(n_steps, dtype=np.int64) * network.dt_ms, record.counts)
    populations = network.populations
    return SpikeTrace(times, pops, g, n_steps * network.dt_ms, network.dt_ms, discard_ms,
                      tuple(p.name for p in populations), tuple(p.size for p in populations),
                      tuple(p.polarity for p in populations))


def load_trace(path) -> SpikeTrace:
    meta: dict = {}
    pop_names: list[str] = []
    pop_sizes: list[int] = []
    pop_polarity: list[str] = []
    times: list[float] = []
    pops: list[int] = []
    neurons: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] in ("duration_ms", "dt_ms", "discard_ms"):
                    meta[parts[0]] = float(parts[1])
                elif parts and parts[0] == "population":
                    pop_names.append(parts[1])
                    pop_sizes.append(int(parts[2]))
                    pop_polarity.append(parts[3])
                continue
            t_str, pop_name, idx_str = line.split()
            times.append(float(t_str))
            pops.append(pop_names.index(pop_name))
            neurons.append(int(idx_str))
    return SpikeTrace(np.asarray(times, dtype=np.float64), np.asarray(pops, dtype=np.int32),
                      np.asarray(neurons, dtype=np.int32), meta.get("duration_ms", 0.0),
                      meta.get("dt_ms", 0.1), meta.get("discard_ms", 0.0),
                      tuple(pop_names), tuple(pop_sizes), tuple(pop_polarity))
