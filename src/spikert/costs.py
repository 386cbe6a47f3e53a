"""Measured per-operation processing costs driving the runtime model.

Defaults are the measured figures for the 200 MHz cores: 1.05 us per neuron
update after a 2.68 us input read, 3.55 us to turn a single-target spike
into ring-buffer input, 63.81 us for a 64-source background update plus
transfer, and 5 (mean) to 7.2 (max) us to write a 128-byte buffer slice
with up to nine cores contending per chip.  The pipeline kick-start
overhead, 0.18 us, is the spike-processing-window lower bound (3.73 us)
minus the single-spike cost; it is a derived calibration default.

Every figure can be overridden from a ``[costs]`` file so calibration
experiments need no code changes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .network import SpecError, section_entries, typed_value


@dataclass(frozen=True)
class CostModel:
    neuron_update_us: float = 1.05
    neuron_input_read_us: float = 2.68
    spike_single_target_us: float = 3.55
    extra_target_word_us: float = 0.2
    pipeline_kickstart_us: float = 0.18
    sdram_write_mean_us: float = 5.0
    sdram_write_max_us: float = 7.2
    # Row-fetch contention inflation (same linear shape as the write model).
    # Default zero: the single-spike figure was measured on a loaded chip, so
    # it already embodies typical fetch contention; raise for sensitivity runs.
    row_fetch_contention_mean_us: float = 0.0
    row_fetch_contention_max_us: float = 0.0
    poisson_update_and_transfer_us: float = 63.81
    second_timer_margin_us: float = 10.0
    timer_period_us: float = 100.0
    clock_hz: float = 200e6
    contention_ref_writers: int = 9

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise SpecError(f"cost {f.name} must be a finite number")
            if f.name.endswith("_us") and getattr(self, f.name) < 0:
                raise SpecError(f"cost {f.name} must be non-negative")
        for name in ("neuron_update_us", "spike_single_target_us", "timer_period_us",
                     "second_timer_margin_us", "poisson_update_and_transfer_us"):
            if getattr(self, name) <= 0:
                raise SpecError(f"cost {name} must be positive")
        if self.second_timer_margin_us >= self.timer_period_us:
            raise SpecError("second timer margin must fall inside the timer period")
        if self.clock_hz <= 0:
            raise SpecError(f"cost clock_hz must be positive, got {self.clock_hz}")
        if self.contention_ref_writers < 2:
            # the contention slope spreads max - mean over writers - 1
            raise SpecError(f"cost contention_ref_writers must be >= 2, got "
                            f"{self.contention_ref_writers}")

    def _contended(self, mean: float, max_: float, writers):
        slope = (max_ - mean) / (self.contention_ref_writers - 1)
        return mean + slope * np.maximum(0, writers - 1)

    def sdram_write_us(self, concurrent_writers):
        """Buffer write (one 128-byte slot slice), inflated linearly between
        the measured mean and the max at the reference writer count."""
        return self._contended(self.sdram_write_mean_us, self.sdram_write_max_us,
                               concurrent_writers)

    def row_fetch_overhead_us(self, concurrent_fetchers):
        return self._contended(self.row_fetch_contention_mean_us,
                               self.row_fetch_contention_max_us, concurrent_fetchers)

    def packet_processing_us(self, n_words, concurrent_fetchers=1):
        """Lookup + row fetch + per-word conversion for one spike packet, or
        elementwise for arrays of packets.

        Zero-target rows still pay the full single-target figure: the
        pipeline has done the lookup and fetch before finding nothing.
        """
        return self.packet_base_us(n_words) + self.row_fetch_overhead_us(concurrent_fetchers)

    def packet_base_us(self, n_words):
        """``packet_processing_us`` without the row-fetch contention."""
        return (self.spike_single_target_us
                + self.extra_target_word_us * np.maximum(0, n_words - 1))


_COST_FIELDS = {f.name: f.type for f in dataclasses.fields(CostModel)}


def parse_cost_overrides(text: str) -> dict:
    overrides: dict = {}
    for lineno, key, value in section_entries(text, "costs"):
        if key not in _COST_FIELDS:
            raise SpecError(f"line {lineno}: unknown cost '{key}'")
        overrides[key] = typed_value(int if key == "contention_ref_writers" else float, value,
                                     f"line {lineno}: {key}")
    return overrides


def load_cost_model(path=None) -> CostModel:
    overrides: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = parse_cost_overrides(fh.read())
    model = CostModel(**overrides)
    model.validate()
    return model
