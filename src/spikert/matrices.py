"""Synaptic data generation shared by the machine model and the oracle.

Encoding happens once, here: per-projection fixed-point scales, 16-bit word
magnitudes, and the integer accumulator contributions both simulation paths
add up.  The oracle consumes a per-source-neuron view; the machine model
packs the same encoded projections into one CSR of synaptic rows addressed
by packet key (``runtime.SynapticStore``).  Both views carry the same
encoded integers, which is what makes their spike-for-spike agreement exact
rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights
from .kinetics import Propagator, make_rng
from .network import NetworkModel, PoissonInput


@dataclass
class EncodedProjection:
    proj_index: int
    source_pop: int
    target_pop: int
    scale_exp: int            # per-projection word scale
    pre_local: np.ndarray     # int64 per synapse
    post_local: np.ndarray
    w_q: np.ndarray           # int64, 16-bit magnitudes at scale_exp
    units: np.ndarray         # int64, magnitudes in target accumulator units
    delays: np.ndarray        # int64 timesteps


def accumulator_scales(network: NetworkModel) -> weights.AccumulatorScales:
    """Target-side accumulator exponents: the finest feeding projection wins."""
    n_pops = len(network.populations)
    exc = [weights.MIN_SIG_BITS] * n_pops
    inh = [weights.MIN_SIG_BITS] * n_pops
    have_exc = [False] * n_pops
    have_inh = [False] * n_pops
    for proj in network.projections or ():
        max_abs = float(np.abs(proj.weight_pa).max()) if proj.count else 0.0
        exp = weights.projection_scale_exp(max_abs)
        src_pol = network.populations[proj.source_pop].polarity
        tp = proj.target_pop
        if src_pol == "exc":
            exc[tp] = max(exc[tp], exp) if have_exc[tp] else exp
            have_exc[tp] = True
        else:
            inh[tp] = max(inh[tp], exp) if have_inh[tp] else exp
            have_inh[tp] = True
    pois = []
    for pop in network.populations:
        w = pop.background.weight_pa if isinstance(pop.background, PoissonInput) else 0.0
        pois.append(weights.poisson_scale_exp(w))
    return weights.AccumulatorScales(tuple(exc), tuple(inh), tuple(pois))


def encode_projections(network: NetworkModel,
                       scales: weights.AccumulatorScales) -> list[EncodedProjection]:
    out = []
    for j, proj in enumerate(network.projections or ()):
        max_abs = float(np.abs(proj.weight_pa).max()) if proj.count else 0.0
        exp = weights.projection_scale_exp(max_abs)
        w_q = weights.quantize_magnitudes(proj.weight_pa, exp)
        src_pol = network.populations[proj.source_pop].polarity
        core_exp = (scales.exc_exp if src_pol == "exc" else scales.inh_exp)[proj.target_pop]
        shift = core_exp - exp
        if shift < 0:
            raise AssertionError("accumulator scale coarser than a feeding projection")
        units = w_q << shift
        lengths = np.diff(proj.row_ptr)
        pre = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        out.append(EncodedProjection(j, proj.source_pop, proj.target_pop, exp, pre,
                                     proj.post_local.astype(np.int64), w_q, units,
                                     proj.delay_steps.astype(np.int64)))
    return out


@dataclass
class SourceDeliveries:
    """Oracle view: the synapses of every source neuron, merged into one CSR.

    Row g (global source neuron) spans row_ptr[g]:row_ptr[g+1] of the
    target/unit/delay arrays; targets are global neuron indices.
    """

    row_ptr: np.ndarray
    target_global: np.ndarray
    units: np.ndarray
    delays: np.ndarray


def source_positions(network: NetworkModel, encoded: list[EncodedProjection],
                     row_ptr: np.ndarray):
    """Per projection, the merged-CSR position of each of its synapses: a row
    holds its projections in projection order, each in synapse order."""
    n = network.total_neurons
    cursor = row_ptr[:-1].copy()
    for enc in encoded:
        # synapses are stored grouped by ascending pre index
        pre = enc.pre_local + network.offsets[enc.source_pop]
        counts = np.bincount(pre, minlength=n)
        first = np.cumsum(counts) - counts
        yield cursor[pre] + np.arange(pre.size) - first[pre]
        cursor += counts


def source_delivery_index(network: NetworkModel,
                          encoded: list[EncodedProjection]) -> SourceDeliveries:
    """Merge all projections into one CSR over global source neurons."""
    n = network.total_neurons
    lengths = np.zeros(n, dtype=np.int64)
    for enc in encoded:
        lengths += np.bincount(enc.pre_local + network.offsets[enc.source_pop], minlength=n)
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    total = int(row_ptr[-1])
    tgt = np.empty(total, dtype=np.int64)
    units = np.empty(total, dtype=np.int64)
    delays = np.empty(total, dtype=np.int64)
    for enc, pos in zip(encoded, source_positions(network, encoded, row_ptr)):
        tgt[pos] = enc.post_local + int(network.offsets[enc.target_pop])
        units[pos] = enc.units
        delays[pos] = enc.delays
    return SourceDeliveries(row_ptr, tgt, units, delays)


class PoissonBank:
    """Pre-drawn event counts for every background source, one stream per
    source so draws never depend on scheduling.

    All sources share one ``(sources, n_steps)`` matrix; population p's
    sources are rows ``row0[p]:row0[p] + size``, also viewed as ``counts[p]``.
    """

    def __init__(self, network: NetworkModel, seed: int, n_steps: int):
        self.network = network
        self.n_steps = n_steps
        pois = [p for p, pop in enumerate(network.populations)
                if isinstance(pop.background, PoissonInput)]
        n_rows = sum(network.populations[p].size for p in pois)
        self.matrix = np.zeros((n_rows, n_steps), dtype=np.int16)
        self.w_row = np.zeros(n_rows, dtype=np.int64)  # w_q of each source
        self.counts: dict[int, np.ndarray] = {}
        self.row0: dict[int, int] = {}
        self.w_q: dict[int, int] = {}
        self.exp: dict[int, int] = {}
        row = 0
        for p in pois:
            pop = network.populations[p]
            exp = weights.poisson_scale_exp(pop.background.weight_pa)
            self.exp[p] = exp
            self.w_q[p] = int(round(pop.background.weight_pa * 2.0 ** exp))
            lam = pop.background.rate_hz * network.dt_ms * 1e-3
            mat = self.matrix[row:row + pop.size]
            for i in range(pop.size):
                rng = make_rng(seed, "poisson", pop.name, i)
                mat[i] = rng.poisson(lam, n_steps)
            self.counts[p] = mat
            self.row0[p] = row
            self.w_row[row:row + pop.size] = self.w_q[p]
            row += pop.size

    def units_slice(self, pop: int, lo: int, count: int, t: int) -> tuple[np.ndarray, int]:
        """(accumulated units, clipped entries) for one core's sources at step t."""
        mat = self.counts.get(pop)
        if mat is None:
            return np.zeros(count, dtype=np.int64), 0
        counts = mat[lo:lo + count, t]
        raw = counts.astype(np.int64) * self.w_q[pop]
        units = np.minimum(raw, weights.POISSON_ACC_MAX)
        return units, int(np.count_nonzero(raw > weights.POISSON_ACC_MAX))

    def units_rows(self, rows: np.ndarray, t: int) -> tuple[np.ndarray, int]:
        """(accumulated units, clipped entries) for the sources at matrix
        rows ``rows`` at step t, in one gather."""
        raw = self.matrix[rows, t].astype(np.int64) * self.w_row[rows]
        return (np.minimum(raw, weights.POISSON_ACC_MAX),
                int(np.count_nonzero(raw > weights.POISSON_ACC_MAX)))

    def units_at(self, t: int) -> np.ndarray:
        """Units for all neurons at step t (zero for DC populations)."""
        out = np.zeros(self.network.total_neurons, dtype=np.int64)
        for p, mat in self.counts.items():
            lo = int(self.network.offsets[p])
            units, _ = self.units_slice(p, 0, mat.shape[0], t)
            out[lo:lo + mat.shape[0]] = units
        return out


def population_propagators(network: NetworkModel) -> list[Propagator]:
    return [Propagator(pop.params, network.dt_ms) for pop in network.populations]


@dataclass
class NeuronConstants:
    """Per-neuron propagator constants expanded over an index layout."""

    decay_v: np.ndarray
    decay_i: np.ndarray
    kernel: np.ndarray
    e_eff: np.ndarray
    v_reset: np.ndarray
    v_theta: np.ndarray
    ref_steps: np.ndarray
    exc_factor: np.ndarray
    inh_factor: np.ndarray
    poisson_factor: np.ndarray


def expand_constants(network: NetworkModel, scales: weights.AccumulatorScales,
                     pop_of_index: np.ndarray) -> NeuronConstants:
    """Broadcast per-population constants over an arbitrary neuron layout;
    pop_of_index maps each slot to its population (or -1 for padding)."""
    props = population_propagators(network)
    pops = np.maximum(pop_of_index, 0)

    def gather(values):
        return np.asarray(values, dtype=np.float64)[pops]

    valid = pop_of_index >= 0
    v_theta = gather([pr.params.v_theta_mv for pr in props])
    v_theta = np.where(valid, v_theta, np.inf)  # padding slots never fire
    return NeuronConstants(
        decay_v=gather([pr.decay_v for pr in props]),
        decay_i=gather([pr.decay_i for pr in props]),
        kernel=gather([pr.kernel for pr in props]),
        e_eff=gather([pr.e_eff for pr in props]),
        v_reset=gather([pr.params.v_reset_mv for pr in props]),
        v_theta=v_theta,
        ref_steps=np.asarray([pr.ref_steps for pr in props], dtype=np.int64)[pops],
        exc_factor=gather([scales.exc_factor(p) for p in range(len(props))]),
        inh_factor=gather([scales.inh_factor(p) for p in range(len(props))]),
        poisson_factor=gather([scales.poisson_factor(p) for p in range(len(props))]),
    )
