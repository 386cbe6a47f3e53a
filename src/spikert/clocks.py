"""Per-board clock drift, beacon drift correction, and phase alignment.

All cores on a board share one crystal; crystals differ by a few tens of
ppm, so timers on different boards drift apart.  A master chip (the mesh
origin) beacons every 2 s of its local time; every other chip compares the
received inter-beacon interval against its own elapsed cycles and derives a
per-timer-period correction in clock cycles.  Corrections are fractional,
so they accumulate across periods and are applied in whole cycles.

The timers of a run's chips are one set of arrays (``ChipClock``), one
entry per chip: a step advances all of them in one call, and a beacon
round sets all their corrections in one array expression.

Phase alignment models the start signal: each chip delays its first timer
event by (largest start-signal transit anywhere) - (own transit), so all
first edges coincide; the farthest chip starts immediately on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinetics import make_rng
from .machine import MachineSpec
from .network import SpecError

BEACON_INTERVAL_S = 2.0  # master beacon period, in its local time
WARMUP_ROUNDS = 3  # boot-time protocol rounds before the first timestep
MAX_ABS_DRIFT_PPM = 100.0  # the largest supported crystal drift bound


@dataclass(frozen=True)
class ClockConfig:
    drift_bound_ppm: float = 20.0
    protocol_enabled: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.drift_bound_ppm <= MAX_ABS_DRIFT_PPM:
            raise SpecError(f"drift bound must be in [0, {MAX_ABS_DRIFT_PPM}] ppm")


def sample_board_drifts(machine: MachineSpec, cfg: ClockConfig, seed: int) -> np.ndarray:
    """One drift (ppm) per board, from a bounded uniform distribution."""
    rng = make_rng(seed, "board-drift")
    return rng.uniform(-cfg.drift_bound_ppm, cfg.drift_bound_ppm, machine.boards())


class ChipClock:
    """Timers of a run's chips: drifting crystals plus accumulated
    corrections, as float64 arrays with one entry per chip."""

    __slots__ = ("rate", "base_cycles", "corr_cycles", "acc", "next_edge_us",
                 "cycles_per_us")

    def __init__(self, rate: np.ndarray, base_cycles: float, clock_hz: float, start_us: float):
        self.rate = rate
        self.base_cycles = base_cycles
        self.corr_cycles = np.zeros_like(rate)
        self.acc = np.zeros_like(rate)
        self.next_edge_us = np.full_like(rate, start_us)
        self.cycles_per_us = clock_hz * 1e-6

    def advance_period(self) -> tuple[np.ndarray, np.ndarray]:
        """Consume one timer period on every chip; returns (starts_us,
        durations_us) in global time.  Fractional corrections accumulate
        and apply in whole cycles to mimic an integer-cycle timer register."""
        starts = self.next_edge_us
        self.acc += self.corr_cycles
        applied = np.trunc(self.acc)
        self.acc -= applied
        durations = (self.base_cycles + applied) / (self.cycles_per_us * self.rate)
        self.next_edge_us = starts + durations
        return starts, durations


@dataclass
class SyncDiagnostics:
    rows: list[tuple[int, int, int, float, float]] = field(default_factory=list)
    # (chip_x, chip_y, round, correction_cycles, residual_skew_ns)

    def serialize(self) -> str:
        lines = ["# chip_x chip_y round correction_cycles residual_skew_ns"]
        for x, y, rnd, corr, skew in self.rows:
            lines.append(f"{x} {y} {rnd} {corr:.9g} {skew:.6g}")
        return "\n".join(lines) + "\n"


class MachineClocks:
    """Clock state for the chips a simulation actually uses, in the order
    of ``chips``.

    Drifts are sampled per board; corrections start in the converged state
    the boot-time warmup rounds would reach, and later rounds re-derive
    them (a no-op for static drifts) while recording diagnostics.
    """

    def __init__(self, machine: MachineSpec, cfg: ClockConfig, seed: int,
                 chips: list[tuple[int, int]], period_us: float, clock_hz: float):
        cfg.validate()
        self.chips = chips
        period_cycles = period_us * clock_hz * 1e-6
        self.interval_cycles = BEACON_INTERVAL_S * clock_hz
        self.n_periods = self.interval_cycles / period_cycles
        drift_ppm = sample_board_drifts(machine, cfg, seed)
        # every chip starts at own transit + programmed delay = the worst
        # start-signal transit anywhere, so all first edges coincide
        aligned_us = float(machine.transits_from_origin_ns().max()) * 1e-3
        boards = np.array([machine.board_index(chip) for chip in chips], dtype=np.int64)
        self.timers = ChipClock(1.0 + drift_ppm[boards] * 1e-6, period_cycles,
                                clock_hz, aligned_us)
        # the master chip (0, 0) sets the reference edge; without it, the
        # earliest edge among the chips does
        self.master_row = chips.index((0, 0)) if (0, 0) in chips else None
        self.master_rate = 1.0 + drift_ppm[machine.board_index((0, 0))] * 1e-6
        self.diagnostics = SyncDiagnostics()
        self.rounds_run = 0
        for _ in range(WARMUP_ROUNDS if cfg.protocol_enabled else 0):
            self.run_round(record=False)

    def run_round(self, record: bool = True) -> None:
        """Apply one beacon round; with static drifts this converges after
        the first round and later rounds confirm the correction.

        A chip counts interval_cycles * (rate / master_rate) of its own
        cycles between beacons; the excess over the nominal interval, spread
        over the timer periods in the interval, is its per-period correction.
        """
        self.rounds_run += 1
        timers = self.timers
        timers.corr_cycles = (self.interval_cycles * (timers.rate / self.master_rate - 1.0)
                              / self.n_periods)
        if record:
            edges = timers.next_edge_us
            ref_edge = edges[self.master_row] if self.master_row is not None else edges.min()
            self.diagnostics.rows += [
                (x, y, self.rounds_run, corr, skew_ns) for (x, y), corr, skew_ns in zip(
                    self.chips, timers.corr_cycles.tolist(), ((edges - ref_edge) * 1e3).tolist())]
