"""Board clock drift and the beacon correction, on the 12-board machine."""

import math

import numpy as np
import pytest

from conftest import transit_ns
from spikert.clocks import (BEACON_INTERVAL_S, WARMUP_ROUNDS, ClockConfig, MachineClocks,
                            sample_board_drifts)
from spikert.machine import load_machine_spec

PERIODS = 1000  # 0.1 s of 100 us timer periods


def edge_spread_us(machine_path, protocol: bool) -> float:
    """The largest difference between any two chips' timer edges over
    ``PERIODS`` periods at 20 ppm board drift."""
    machine = load_machine_spec(machine_path)
    chips = [(x, y) for x in range(machine.width) for y in range(machine.height)]
    clocks = MachineClocks(machine, ClockConfig(drift_bound_ppm=20.0, protocol_enabled=protocol),
                           3, chips, 100.0, 200e6)
    spread = 0.0
    for _ in range(PERIODS):
        edges = clocks.timers.advance_period()[0]
        spread = max(spread, edges.max() - edges.min())
    return spread


def test_beacon_correction_keeps_every_edge_within_two_cycles(machine_path):
    """With the protocol every chip's timer edge stays within two 200 MHz
    cycles (0.01 us) of every other chip's; whole-cycle corrections cost at
    most one cycle each."""
    assert edge_spread_us(machine_path, protocol=True) <= 2 / 200e6 * 1e6


def test_uncorrected_drift_spreads_the_edges(machine_path):
    """Without it 20 ppm crystals drift microseconds apart within 0.1 s."""
    assert edge_spread_us(machine_path, protocol=False) > 1.0


class ScalarTimer:
    """One chip's timer as a scalar recurrence, the reference for the
    array timers."""

    def __init__(self, rate, base_cycles, clock_hz, start_us):
        self.rate, self.base_cycles = rate, base_cycles
        self.corr_cycles = self.acc = 0.0
        self.next_edge_us = start_us
        self.cycles_per_us = clock_hz * 1e-6

    def advance_period(self):
        start = self.next_edge_us
        self.acc += self.corr_cycles
        applied = math.trunc(self.acc)
        self.acc -= applied
        duration = (self.base_cycles + applied) / (self.cycles_per_us * self.rate)
        self.next_edge_us = start + duration
        return start, duration


class ScalarClocks:
    """Per-chip timers and a per-chip beacon round, the reference for
    ``MachineClocks``."""

    def __init__(self, machine, cfg, seed, chips, period_us, clock_hz):
        drift = sample_board_drifts(machine, cfg, seed)
        aligned_us = max(transit_ns(machine, (0, 0), (x, y)) for x in range(machine.width)
                         for y in range(machine.height)) * 1e-3
        self.period_cycles = period_us * clock_hz * 1e-6
        self.clock_hz = clock_hz
        self.timers = {chip: ScalarTimer(1.0 + drift[machine.board_index(chip)] * 1e-6,
                                         self.period_cycles, clock_hz, aligned_us)
                       for chip in chips}
        self.master_rate = 1.0 + drift[machine.board_index((0, 0))] * 1e-6
        self.rows, self.rounds_run = [], 0
        for _ in range(WARMUP_ROUNDS if cfg.protocol_enabled else 0):
            self.run_round(record=False)

    def run_round(self, record=True):
        self.rounds_run += 1
        interval_cycles = BEACON_INTERVAL_S * self.clock_hz
        n_periods = interval_cycles / self.period_cycles
        master = self.timers.get((0, 0))
        ref_edge = master.next_edge_us if master else \
            min(timer.next_edge_us for timer in self.timers.values())
        for chip, timer in self.timers.items():
            timer.corr_cycles = interval_cycles * (timer.rate / self.master_rate - 1.0) / n_periods
            if record:
                self.rows.append((chip[0], chip[1], self.rounds_run, timer.corr_cycles,
                                  (timer.next_edge_us - ref_edge) * 1e3))


@pytest.mark.parametrize("protocol,with_master", [
    pytest.param(True, True, id="protocol"),
    pytest.param(False, True, id="no_protocol"),
    pytest.param(True, False, id="protocol-no_master"),
    pytest.param(False, False, id="no_protocol-no_master")])
def test_array_timers_follow_the_scalar_recurrence(machine_path, protocol, with_master):
    """Over 1,000 periods with a beacon round every 100, every chip's
    starts and durations and every diagnostics row equal the per-chip
    scalar recurrence bit for bit; without the master chip (0, 0) the
    earliest edge is the skew reference."""
    machine = load_machine_spec(machine_path)
    chips = [(x, y) for x in range(machine.width) for y in range(machine.height)
             if (x + y) % 5 == 0 and (with_master or (x, y) != (0, 0))]
    args = (machine, ClockConfig(drift_bound_ppm=50.0, protocol_enabled=protocol), 7, chips,
            100.0, 200e6)
    clocks, ref = MachineClocks(*args), ScalarClocks(*args)
    for period in range(PERIODS):
        starts, durations = clocks.timers.advance_period()
        expected = np.array([ref.timers[chip].advance_period() for chip in chips])
        assert np.array_equal(starts, expected[:, 0])
        assert np.array_equal(durations, expected[:, 1])
        if (period + 1) % 100 == 0:
            clocks.run_round()
            ref.run_round()
    assert clocks.diagnostics.rows == ref.rows
    assert len(ref.rows) == len(chips) * PERIODS // 100
