"""Statistical verification, load curves, flush accounting and energy figures.

Firing statistics follow the usual comparison battery: per-neuron rates,
coefficient of variation of inter-spike intervals, and Pearson correlation
between binned spike trains of a seeded neuron subsample.  The CV ISI of
all neurons with the same spike count is computed in one array pass, bit
for bit as each neuron's own intervals give it; the subsample's trains are
binned as int32, so their transients cost about 17 B per (neuron, bin).
Histogram bin widths use the Freedman-Diaconis rule.  Energy reporting
converts measured energy-to-solution into energy per synaptic event and
rescales long-window measurements assuming constant power draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import LINES, SpikeTrace

KWH_TO_UJ = 3.6e12  # 1 kWh = 3.6e6 J = 3.6e12 uJ
CORR_BIN_MS = 2.0  # with the next two, ``firing_stats``' defaults, in the manifest too
CORR_SUBSAMPLE = 200
CORR_ESTIMATOR = "pearson-on-binned-counts"


def per_timestep_counts(trace: SpikeTrace):
    """Exact spike counts per timestep: (t_index, total, excitatory, inhibitory),
    counted a block of ``LINES`` spikes at a time into the steps it spans."""
    n_bins = int(round(trace.duration_ms / trace.dt_ms))
    is_inh = np.repeat([p != "exc" for p in trace.pop_polarity], trace.pop_sizes)
    total, inh = np.zeros(n_bins, dtype=np.int64), np.zeros(n_bins, dtype=np.int64)
    for a in range(0, len(trace), LINES):
        steps = trace.steps[a:a + LINES]
        s0, s1 = int(steps.min()), int(steps.max()) + 1
        steps = steps - np.uint32(s0)
        total[s0:s1] += np.bincount(steps, minlength=s1 - s0)
        inh[s0:s1] += np.bincount(steps[is_inh[trace.neurons[a:a + LINES]]], minlength=s1 - s0)
    return np.arange(n_bins), total, total - inh, inh


def freedman_diaconis_width(values: np.ndarray) -> float:
    """FD histogram bin width; falls back to a sane default for tiny/flat data."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 1.0
    q75, q25 = np.percentile(values, [75, 25])
    width = 2.0 * (q75 - q25) / values.size ** (1.0 / 3.0)
    if width <= 0:
        spread = values.max() - values.min()
        width = spread / max(1, int(math.sqrt(values.size))) if spread > 0 else 1.0
    return float(width)


def histogram_fd(values: np.ndarray):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1)
    width = freedman_diaconis_width(values)
    lo, hi = float(values.min()), float(values.max())
    n_bins = max(1, int(math.ceil((hi - lo) / width))) if hi > lo else 1
    return np.histogram(values, bins=n_bins, range=(lo, hi if hi > lo else lo + width))


@dataclass
class PopulationStats:
    name: str
    n_neurons: int
    rates_hz: np.ndarray          # one entry per neuron (zeros included)
    cv_isi: np.ndarray            # neurons with >= 2 ISIs
    cv_excluded: int              # neurons with fewer than 2 ISIs
    correlations: np.ndarray      # pairwise coefficients of the subsample
    corr_excluded: int            # subsampled neurons with flat binned trains


@dataclass
class FiringStats:
    populations: list[PopulationStats]
    window_ms: tuple[float, float]
    corr_bin_ms: float
    corr_subsample: int
    corr_seed: int
    estimator: str = CORR_ESTIMATOR


def firing_stats(trace: SpikeTrace, corr_bin_ms: float = CORR_BIN_MS,
                 corr_subsample: int = CORR_SUBSAMPLE, corr_seed: int = 1234) -> FiringStats:
    """Per-population rate, CV-ISI and pairwise-correlation distributions.

    Each population's spikes, found by its global neuron range, get float
    times (``step * dt_ms``), and those inside the discard window in the
    trace metadata are dropped.  Correlation uses Pearson coefficients on
    spike trains binned at ``corr_bin_ms`` (reported in the output metadata;
    the histogram displays use the Freedman-Diaconis rule) over a seeded
    fixed-size neuron subsample.
    """
    t0 = trace.discard_ms
    t1 = trace.duration_ms
    if t1 <= t0:
        raise ValueError("empty analysis window after the discard interval")
    window_s = (t1 - t0) * 1e-3
    offsets = trace.offsets

    n_corr_bins = max(1, int(math.ceil((t1 - t0) / corr_bin_ms)))
    out = []
    for p, (name, size) in enumerate(zip(trace.pop_names, trace.pop_sizes)):
        sel = (trace.neurons >= offsets[p]) & (trace.neurons < offsets[p + 1])
        t_p = trace.steps[sel] * trace.dt_ms  # copied one population at a time
        keep = t_p >= t0
        t_p, n_p = t_p[keep], trace.neurons[sel][keep] - np.int32(offsets[p])
        counts = np.bincount(n_p, minlength=size)
        rates = counts / window_s
        cvs = _cv_isi(t_p, n_p, counts)

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([corr_seed, p])))
        chosen = np.sort(rng.choice(size, size=min(corr_subsample, size), replace=False))
        mask = np.isin(n_p, chosen)
        bins = np.minimum(((t_p[mask] - t0) / corr_bin_ms).astype(np.int64), n_corr_bins - 1)
        cells = np.searchsorted(chosen, n_p[mask]) * n_corr_bins + bins
        binned = np.bincount(cells, minlength=chosen.size * n_corr_bins).astype(np.int32)
        binned = binned.reshape(chosen.size, n_corr_bins)
        active = binned.max(axis=1) > binned.min(axis=1)  # not flat
        corr_excluded = int(np.count_nonzero(~active))
        coeffs = np.zeros(0)
        if np.count_nonzero(active) >= 2:
            cm = np.corrcoef(binned[active])
            iu = np.triu_indices(cm.shape[0], k=1)
            coeffs = cm[iu]
        out.append(PopulationStats(name, size, rates, cvs, size - cvs.size,
                                   coeffs, corr_excluded))
    return FiringStats(out, (t0, t1), corr_bin_ms, corr_subsample, corr_seed)


def _cv_isi(times: np.ndarray, neurons: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The CV of the inter-spike intervals of each neuron with at least two,
    in neuron order, from the spikes ``times`` of ``neurons``, whose spike
    counts are ``counts``.

    The spikes are sorted by the spike count of their neuron, then neuron,
    then time, so the neurons with c spikes are a (neurons, c) block of the
    sorted times.  Each block's rows are reduced at once: numpy sums each
    row of a C-contiguous array as it sums that row alone, so a row's mean
    and standard deviation are bit for bit those of the neuron's own
    intervals.
    """
    per_spike = counts[neurons]
    order = np.lexsort((times, neurons, per_spike))
    t = times[order]
    cv = np.zeros(counts.size)
    a = int(np.count_nonzero(per_spike < 3))  # the spikes of neurons without a CV
    hist = np.bincount(counts)
    for c in (np.flatnonzero(hist[3:]) + 3).tolist():
        b = a + int(hist[c]) * c
        isi = np.diff(t[a:b].reshape(-1, c), axis=1)
        mean = isi.mean(axis=1)
        cv[neurons[order[a:b:c]]] = np.divide(isi.std(axis=1), mean, where=mean > 0,
                                              out=np.zeros_like(mean))
        a = b
    return cv[counts >= 3]


def stats_document(stats: FiringStats) -> str:
    lines = ["# firing statistics",
             f"# window_ms {stats.window_ms[0]:g} {stats.window_ms[1]:g}",
             f"# correlation_bin_ms {stats.corr_bin_ms:g}",
             f"# correlation_subsample {stats.corr_subsample} seed {stats.corr_seed}",
             f"# correlation_estimator {stats.estimator}",
             "# population n mean_rate_hz sd_rate_hz mean_cv_isi cv_excluded "
             "mean_corr n_pairs corr_excluded"]
    for p in stats.populations:
        mean_cv = p.cv_isi.mean() if p.cv_isi.size else float("nan")
        mean_corr = p.correlations.mean() if p.correlations.size else float("nan")
        lines.append(f"{p.name} {p.n_neurons} {p.rates_hz.mean():.6g} "
                     f"{p.rates_hz.std():.6g} {mean_cv:.6g} {p.cv_excluded} "
                     f"{mean_corr:.6g} {p.correlations.size} {p.corr_excluded}")
    for p in stats.populations:
        counts, edges = histogram_fd(p.rates_hz)
        lines.append(f"# rate_histogram {p.name} edges "
                     + " ".join(f"{e:.6g}" for e in edges))
        lines.append(f"# rate_histogram {p.name} counts "
                     + " ".join(str(c) for c in counts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Flush accounting

@dataclass
class FlushReport:
    processed_events: int
    flushed_events: int
    processed_packets: int
    flushed_packets: int
    max_flushed_in_timestep: int

    @property
    def loss_fraction(self) -> float:
        total = self.processed_events + self.flushed_events
        return self.flushed_events / total if total else 0.0


def flush_report(result) -> FlushReport:
    """The flush accounting of a hardware run, from its ``RunResult``'s
    totals, which every run has, whether or not it kept a profile; events
    are per-target synaptic contributions, packets are spike packets."""
    t = result.totals
    return FlushReport(t["processed_events"], t["flushed_events"], t["processed"],
                       t["flushed"], t["max_flushed_in_timestep"])


# ---------------------------------------------------------------------------
# Energy accounting

@dataclass(frozen=True)
class EnergyFigures:
    configuration: str
    wall_clock_s: float
    total_energy_kwh: float
    synaptic_events: float | None = None

    def validate(self) -> None:
        if self.wall_clock_s <= 0 or self.total_energy_kwh < 0:
            raise ValueError("energy figures must be non-negative with positive wall clock")


def energy_per_event_uj(total_energy_kwh: float, synaptic_events: float) -> float:
    if synaptic_events <= 0:
        raise ValueError("synaptic event count must be positive")
    return total_energy_kwh * KWH_TO_UJ / synaptic_events


def scale_energy_kwh(figures: EnergyFigures, to_wall_clock_s: float) -> float:
    """Rescale a measurement to another wall clock assuming constant power."""
    figures.validate()
    return figures.total_energy_kwh * to_wall_clock_s / figures.wall_clock_s


def energy_report(figures: EnergyFigures) -> dict:
    figures.validate()
    report = {
        "configuration": figures.configuration,
        "wall_clock_s": figures.wall_clock_s,
        "total_energy_kwh": figures.total_energy_kwh,
        "mean_power_w": figures.total_energy_kwh * 3.6e6 / figures.wall_clock_s,
    }
    if figures.synaptic_events:
        report["synaptic_events"] = figures.synaptic_events
        report["energy_per_event_uj"] = energy_per_event_uj(
            figures.total_energy_kwh, figures.synaptic_events)
    return report


def load_energy_figures(path) -> list[EnergyFigures]:
    """Rows of 'configuration wall_clock_s total_kwh synaptic_events|-'."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, wall, kwh, events = line.split()
            rows.append(EnergyFigures(name, float(wall), float(kwh),
                                      None if events == "-" else float(events)))
    return rows
