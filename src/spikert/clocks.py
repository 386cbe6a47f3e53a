"""Per-board clock drift, beacon drift correction, and phase alignment.

All cores on a board share one crystal; crystals differ by a few tens of
ppm, so timers on different boards drift apart.  A master chip (the mesh
origin) beacons every 2 s of its local time; every other chip compares the
received inter-beacon interval against its own elapsed cycles and derives a
per-timer-period correction in clock cycles.  Corrections are fractional,
so they accumulate across periods and are applied in whole cycles.

Phase alignment models the start signal: each chip delays its first timer
event by (largest start-signal transit anywhere) - (own transit), so all
first edges coincide; the farthest chip starts immediately on arrival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import make_rng
from .machine import MachineSpec


@dataclass(frozen=True)
class ClockConfig:
    drift_bound_ppm: float = 20.0
    beacon_interval_s: float = 2.0
    warmup_rounds: int = 3
    protocol_enabled: bool = True
    max_abs_drift_ppm: float = 100.0

    def validate(self) -> None:
        if self.drift_bound_ppm > self.max_abs_drift_ppm:
            raise ValueError("drift bound exceeds the supported ppm range")


def sample_board_drifts(machine: MachineSpec, cfg: ClockConfig, seed: int) -> np.ndarray:
    """One drift (ppm) per board, from a bounded uniform distribution."""
    cfg.validate()
    rng = make_rng(seed, "board-drift")
    return rng.uniform(-cfg.drift_bound_ppm, cfg.drift_bound_ppm, machine.boards())


def beacon_round(master_rate: float, slave_rates: dict, period_cycles: float,
                 beacon_interval_s: float, clock_hz: float) -> dict:
    """One protocol round: per-slave period correction in (fractional) cycles.

    A slave counts interval_cycles * (slave_rate / master_rate) of its own
    cycles between beacons; the excess over the nominal interval, spread over
    the timer periods in the interval, is the per-period correction.
    """
    interval_cycles = beacon_interval_s * clock_hz
    n_periods = interval_cycles / period_cycles
    corrections = {}
    for chip, rate in slave_rates.items():
        divergence = interval_cycles * (rate / master_rate - 1.0)
        corrections[chip] = divergence / n_periods
    return corrections


class ChipClock:
    """Timer of one chip: drifting crystal plus accumulated corrections."""

    __slots__ = ("rate", "base_cycles", "corr_cycles", "acc", "next_edge_us",
                 "cycles_per_us")

    def __init__(self, rate: float, base_cycles: float, clock_hz: float, start_us: float):
        self.rate = rate
        self.base_cycles = base_cycles
        self.corr_cycles = 0.0
        self.acc = 0.0
        self.next_edge_us = start_us
        self.cycles_per_us = clock_hz * 1e-6

    def advance_period(self) -> tuple[float, float]:
        """Consume one timer period; returns (start_us, duration_us) in
        global time.  Fractional corrections accumulate and apply in whole
        cycles to mimic an integer-cycle timer register."""
        start = self.next_edge_us
        self.acc += self.corr_cycles
        applied = math.trunc(self.acc)
        self.acc -= applied
        duration = (self.base_cycles + applied) / (self.cycles_per_us * self.rate)
        self.next_edge_us = start + duration
        return start, duration


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
    """Clock state for the chips a simulation actually uses.

    Drifts are sampled per board; corrections start in the converged state
    the boot-time warmup rounds would reach, and later rounds re-derive
    them (a no-op for static drifts) while recording diagnostics.
    """

    def __init__(self, machine: MachineSpec, cfg: ClockConfig, seed: int,
                 chips: list[tuple[int, int]], period_us: float, clock_hz: float):
        cfg.validate()
        self.machine = machine
        self.cfg = cfg
        self.clock_hz = clock_hz
        self.period_cycles = period_us * clock_hz * 1e-6
        self.board_drift_ppm = sample_board_drifts(machine, cfg, seed)
        # every chip starts at own transit + programmed delay = the worst
        # start-signal transit anywhere, so all first edges coincide
        aligned_us = max(machine.transit_ns((0, 0), (x, y))
                         for x in range(machine.width)
                         for y in range(machine.height)) * 1e-3
        self.clocks: dict[tuple[int, int], ChipClock] = {}
        for chip in chips:
            rate = 1.0 + self.board_drift_ppm[machine.board_index(chip)] * 1e-6
            self.clocks[chip] = ChipClock(rate, self.period_cycles, clock_hz, aligned_us)
        self.master_chip = (0, 0)
        self.master_rate = 1.0 + self.board_drift_ppm[machine.board_index(self.master_chip)] * 1e-6
        self.diagnostics = SyncDiagnostics()
        self.rounds_run = 0
        for _ in range(cfg.warmup_rounds if cfg.protocol_enabled else 0):
            self.run_round(record=False)

    def run_round(self, record: bool = True) -> None:
        """Apply one beacon round; with static drifts this converges after
        the first round and later rounds confirm the correction."""
        self.rounds_run += 1
        slave_rates = {chip: clk.rate for chip, clk in self.clocks.items()}
        corr = beacon_round(self.master_rate, slave_rates, self.period_cycles,
                            self.cfg.beacon_interval_s, self.clock_hz)
        master_edge = self.clocks.get(self.master_chip)
        ref_edge = master_edge.next_edge_us if master_edge else \
            min((c.next_edge_us for c in self.clocks.values()), default=0.0)
        for chip, clk in self.clocks.items():
            clk.corr_cycles = corr[chip]
            if record:
                skew_ns = (clk.next_edge_us - ref_edge) * 1e3
                self.diagnostics.rows.append(
                    (chip[0], chip[1], self.rounds_run, corr[chip], skew_ns))


# ---------------------------------------------------------------------------
# Standalone skew study (no neural workload)

@dataclass
class SkewReport:
    sample_times_s: np.ndarray
    skew_us: np.ndarray
    max_skew_us: float
    drift_ppm: np.ndarray  # per board


def simulate_skew(machine: MachineSpec, cfg: ClockConfig, seed: int, duration_s: float,
                  period_us: float = 100.0, clock_hz: float = 200e6,
                  samples: int = 241) -> SkewReport:
    """Max pairwise timer-edge skew over a run, computed analytically.

    Edge k of a chip lies at (k*P + trunc(k*c)) / (f*rate) after alignment,
    where c is the per-period correction; trunc-accumulation matches the
    integer-cycle timer model to within one clock cycle.
    """
    drifts = sample_board_drifts(machine, cfg, seed)
    rates = np.array([1.0 + drifts[machine.board_index((x, y))] * 1e-6
                      for x in range(machine.width) for y in range(machine.height)])
    master_rate = rates[0] if rates.size else 1.0
    period_cycles = period_us * clock_hz * 1e-6
    if cfg.protocol_enabled:
        corr = period_cycles * (rates / master_rate - 1.0)
    else:
        corr = np.zeros_like(rates)

    t_samples = np.linspace(0.0, duration_s, samples)
    ks = np.rint(t_samples * 1e6 / period_us).astype(np.int64)
    # edges [chips, samples]
    cycles = period_cycles * ks[None, :] + np.trunc(corr[:, None] * ks[None, :])
    edges_us = cycles / (clock_hz * 1e-6 * rates[:, None])
    skew = edges_us.max(axis=0) - edges_us.min(axis=0)
    return SkewReport(t_samples, skew, float(skew.max()), drifts)
