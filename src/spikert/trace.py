"""Spike trace container and its text format.

One line per spike, ``time_ms population neuron_index``, sorted by time then
population order then neuron; header comments carry run metadata and the
population roster.  Both simulation paths write through the same code, so
equal spike sets produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def sorted(self) -> "SpikeTrace":
        order = np.lexsort((self.neurons, self.pops, self.times_ms))
        return SpikeTrace(self.times_ms[order], self.pops[order], self.neurons[order],
                          self.duration_ms, self.dt_ms, self.discard_ms,
                          self.pop_names, self.pop_sizes, self.pop_polarity)

    def serialize(self) -> str:
        t = self.sorted()
        lines = [
            "# spike trace",
            f"# duration_ms {self.duration_ms!r}",
            f"# dt_ms {self.dt_ms!r}",
            f"# discard_ms {self.discard_ms!r}",
        ]
        for name, size, pol in zip(self.pop_names, self.pop_sizes, self.pop_polarity):
            lines.append(f"# population {name} {size} {pol}")
        for time, pop, neuron in zip(t.times_ms, t.pops, t.neurons):
            lines.append(f"{time:.4f} {self.pop_names[pop]} {neuron}")
        return "\n".join(lines) + "\n"


def from_step_records(network, steps, fired, n_steps: int,
                      discard_ms: float = 0.0) -> SpikeTrace:
    """The sorted trace of a run of ``n_steps`` of ``network``: ``fired[i]``
    holds the global indices of the neurons that fired at step ``steps[i]``."""
    g = np.concatenate(fired or [np.zeros(0, dtype=np.int64)])
    steps = np.repeat(np.asarray(steps, dtype=np.int64), [x.size for x in fired])
    pops = np.searchsorted(network.offsets, g, side="right") - 1
    populations = network.populations
    return SpikeTrace(steps * network.dt_ms, pops.astype(np.int32),
                      (g - network.offsets[pops]).astype(np.int32),
                      n_steps * network.dt_ms, network.dt_ms, discard_ms,
                      tuple(p.name for p in populations), tuple(p.size for p in populations),
                      tuple(p.polarity for p in populations)).sorted()


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
