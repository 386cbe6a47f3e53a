"""Synaptic data generation shared by the machine model and the oracle.

Encoding happens once per run, here: ``encode_projections`` turns every
sampled synapse into per-projection fixed-point scales, 16-bit word
magnitudes and the integer accumulator contributions both simulation paths
add up, and returns them as one ``SynapseTable`` of narrow global arrays:
int32 source and target neurons, units in the narrowest of int32/int64 that
holds the largest shifted value, uint8 delays.  The caller (``cli.run``)
encodes once and hands the same table to both simulators, which only read
it.  Each indexes it with one counting sort (``counting_sort``): the oracle
by source neuron (``source_delivery_index``), the machine model by the
synaptic row a packet key addresses (``runtime.build_synaptic_store``).
Both views carry the same encoded integers, which is what makes their
spike-for-spike agreement exact rather than approximate.

Background input is drawn once per run as well: one ``PoissonBank``, which
both simulators read step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights
from .kinetics import Propagator, make_rng
from .network import NetworkModel, PoissonInput


@dataclass
class SynapseTable:
    """Every encoded synapse of the network, in projection order, then in
    synapse order (ascending source neuron within a projection).

    ``pre`` and ``post`` are int32 global neuron indices, ``units`` the
    magnitude in the target's accumulator units (int32, or int64 when a
    shifted value needs it) and ``delays`` the uint8 delay in timesteps.
    Projection p spans ``bounds[p]:bounds[p + 1]``; within it the synapses of
    one source neuron, and of one source neuron onto one target core, are
    contiguous runs, which is what ``counting_sort`` relies on.  ``scales``
    are the accumulator exponents the units are encoded against.
    """

    pre: np.ndarray
    post: np.ndarray
    units: np.ndarray
    delays: np.ndarray
    bounds: np.ndarray
    scales: weights.AccumulatorScales


def accumulator_scales(network: NetworkModel) -> weights.AccumulatorScales:
    """Target-side accumulator exponents: the finest feeding projection wins."""
    n_pops = len(network.populations)
    exc = [weights.MIN_SIG_BITS] * n_pops
    inh = [weights.MIN_SIG_BITS] * n_pops
    have_exc = [False] * n_pops
    have_inh = [False] * n_pops
    for proj in network.projections or ():
        exp = weights.projection_scale_exp(_max_abs(proj.weight_pa))
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


def _max_abs(w: np.ndarray) -> float:
    return float(max(w.max(initial=0.0), -w.min(initial=0.0)))


def encode_projections(network: NetworkModel) -> SynapseTable:
    """The network's synapses as one ``SynapseTable``; encode once per run."""
    if network.projections is None:
        raise ValueError("encoding needs sampled synapses")
    projections = network.projections
    scales = accumulator_scales(network)
    exps, shifts, top = [], [], 0
    for proj in projections:
        max_abs = _max_abs(proj.weight_pa)
        exp = weights.projection_scale_exp(max_abs)
        src_pol = network.populations[proj.source_pop].polarity
        core_exp = (scales.exc_exp if src_pol == "exc" else scales.inh_exp)[proj.target_pop]
        shift = core_exp - exp
        if shift < 0:
            raise AssertionError("accumulator scale coarser than a feeding projection")
        exps.append(exp)
        shifts.append(shift)
        top = max(top, round(max_abs * 2.0 ** exp) << shift)
    units_dtype = np.int32 if top <= np.iinfo(np.int32).max else np.int64
    bounds = np.zeros(len(projections) + 1, dtype=np.int64)
    np.cumsum([proj.count for proj in projections], out=bounds[1:])
    total = int(bounds[-1])
    if total > np.iinfo(np.int32).max:
        raise ValueError(f"{total} synapses: the int32 row pointers hold at most 2**31 - 1")
    table = SynapseTable(np.empty(total, dtype=np.int32), np.empty(total, dtype=np.int32),
                         np.empty(total, dtype=units_dtype), np.empty(total, dtype=np.uint8),
                         bounds, scales)
    for proj, exp, shift, lo, hi in zip(projections, exps, shifts, bounds[:-1], bounds[1:]):
        table.units[lo:hi] = weights.quantize_magnitudes(proj.weight_pa, exp) << shift
        table.pre[lo:hi] = np.repeat(
            np.arange(proj.row_ptr.size - 1, dtype=np.int32)
            + np.int32(network.offsets[proj.source_pop]), np.diff(proj.row_ptr))
        np.add(proj.post_local, np.int32(network.offsets[proj.target_pop]),
               out=table.post[lo:hi])
        table.delays[lo:hi] = proj.delay_steps
    return table


def counting_sort(table: SynapseTable, n_rows: int, rows_of, fill) -> np.ndarray:
    """Group the table's synapses into ``n_rows`` CSR rows, keeping table
    order within a row (projection order, then synapse order), with no
    comparison sort; returns the int32 ``row_ptr``.

    ``rows_of(lo, hi)`` gives the row of each synapse of ``table[lo:hi]``,
    one projection.  Within a projection a row's synapses must be one
    contiguous run, so a synapse's slot is its row's start, plus what
    earlier projections put in the row, plus its offset in the run.
    ``fill(slots, lo, hi)`` writes ``table[lo:hi]`` to those slots.
    """
    spans = list(zip(table.bounds[:-1].tolist(), table.bounds[1:].tolist()))
    row_ptr = np.zeros(n_rows + 1, dtype=np.int32)
    for lo, hi in spans:
        start, rows, lens = _runs(rows_of(lo, hi))
        row_ptr[rows + 1] += lens
    np.cumsum(row_ptr, out=row_ptr)
    free = row_ptr[:-1].copy()  # next free slot of each row
    for lo, hi in spans:
        start, rows, lens = _runs(rows_of(lo, hi))
        first = free[rows]
        free[rows] += lens
        fill(np.repeat(first - start, lens) + np.arange(hi - lo), lo, hi)
    if not np.array_equal(free, row_ptr[1:]):
        raise AssertionError("a row's synapses are split within one projection")
    return row_ptr


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, row, length) of each run of equal consecutive values."""
    if not rows.size:
        return np.zeros(0, dtype=np.int64), rows, np.zeros(0, dtype=np.int64)
    start = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    return start, rows[start], np.diff(start, append=rows.size)


@dataclass
class SourceDeliveries:
    """Oracle view: the synapses of every source neuron, merged into one CSR.

    Row g (global source neuron) spans row_ptr[g]:row_ptr[g+1] of the
    target/unit/delay arrays; targets are global neuron indices.  The dtypes
    are the table's; ``units`` are float pA weights on the oracle's
    unquantized path.
    """

    row_ptr: np.ndarray
    target_global: np.ndarray
    units: np.ndarray
    delays: np.ndarray


def source_delivery_index(network: NetworkModel, table: SynapseTable,
                          units: np.ndarray | None = None) -> SourceDeliveries:
    """The synapse table as one CSR over global source neurons, a row holding
    its projections in projection order, each in synapse order.  ``units``,
    aligned with the table, replaces the table's units in the index (the
    oracle's float weights); the table is not written."""
    values = table.units if units is None else units
    target = np.empty_like(table.post)
    sorted_units = np.empty_like(values)
    delays = np.empty_like(table.delays)

    def fill(slots, lo, hi):
        target[slots] = table.post[lo:hi]
        sorted_units[slots] = values[lo:hi]
        delays[slots] = table.delays[lo:hi]

    row_ptr = counting_sort(table, network.total_neurons, lambda lo, hi: table.pre[lo:hi], fill)
    return SourceDeliveries(row_ptr, target, sorted_units, delays)


class PoissonBank:
    """Pre-drawn event counts for every background source, one stream per
    source so draws never depend on scheduling.

    All sources share one ``(sources, n_steps)`` matrix, population by
    population in network order; population p's rows are also viewed as
    ``counts[p]``.  Row r feeds global neuron ``neuron[r]`` with weight
    ``w_row[r]``, its population's ``w_q``.  A run draws one bank and both
    simulators read a step's input from it through ``units_at``, indexed by
    global neuron.
    """

    def __init__(self, network: NetworkModel, seed: int, n_steps: int):
        self.network = network
        self.n_steps = n_steps
        pois = [p for p, pop in enumerate(network.populations)
                if isinstance(pop.background, PoissonInput)]
        n_rows = sum(network.populations[p].size for p in pois)
        self.matrix = np.zeros((n_rows, n_steps), dtype=np.int16)
        self.w_row = np.zeros(n_rows, dtype=np.int64)  # w_q of each source
        self.neuron = np.zeros(n_rows, dtype=np.int64)
        self.counts: dict[int, np.ndarray] = {}
        self.w_q: dict[int, int] = {}
        row = 0
        for p in pois:
            pop = network.populations[p]
            exp = weights.poisson_scale_exp(pop.background.weight_pa)
            self.w_q[p] = int(round(pop.background.weight_pa * 2.0 ** exp))
            lam = pop.background.rate_hz * network.dt_ms * 1e-3
            mat = self.matrix[row:row + pop.size]
            for i in range(pop.size):
                rng = make_rng(seed, "poisson", pop.name, i)
                mat[i] = rng.poisson(lam, n_steps)
            self.counts[p] = mat
            self.w_row[row:row + pop.size] = self.w_q[p]
            self.neuron[row:row + pop.size] = network.offsets[p] + np.arange(pop.size)
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

    def units_at(self, t: int) -> tuple[np.ndarray, int]:
        """(accumulated units per global neuron, clipped entries) at step t,
        in one gather; DC populations get zero."""
        raw = self.matrix[:, t].astype(np.int64) * self.w_row
        out = np.zeros(self.network.total_neurons, dtype=np.int64)
        out[self.neuron] = np.minimum(raw, weights.POISSON_ACC_MAX)
        return out, int(np.count_nonzero(raw > weights.POISSON_ACC_MAX))


def population_propagators(network: NetworkModel) -> list[Propagator]:
    return [Propagator(pop.params, network.dt_ms) for pop in network.populations]


@dataclass
class NeuronConstants:
    """Per-neuron propagator constants, indexed by global neuron."""

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


def expand_constants(network: NetworkModel,
                     scales: weights.AccumulatorScales) -> NeuronConstants:
    """Broadcast per-population constants over the global neuron index, the
    layout both simulators keep their neuron state in."""
    props = population_propagators(network)
    sizes = np.diff(network.offsets)

    def gather(values, dtype=np.float64):
        return np.repeat(np.asarray(values, dtype=dtype), sizes)

    pops = range(len(props))
    return NeuronConstants(
        decay_v=gather([pr.decay_v for pr in props]),
        decay_i=gather([pr.decay_i for pr in props]),
        kernel=gather([pr.kernel for pr in props]),
        e_eff=gather([pr.e_eff for pr in props]),
        v_reset=gather([pr.params.v_reset_mv for pr in props]),
        v_theta=gather([pr.params.v_theta_mv for pr in props]),
        ref_steps=gather([pr.ref_steps for pr in props], np.int64),
        exc_factor=gather([scales.exc_factor(p) for p in pops]),
        inh_factor=gather([scales.inh_factor(p) for p in pops]),
        poisson_factor=gather([scales.poisson_factor(p) for p in pops]),
    )


def check_finite_input(network: NetworkModel, inputs: np.ndarray) -> None:
    """Refuse a step whose input current is not finite, naming the first
    such neuron as ``population/neuron``."""
    if not np.isfinite(inputs).all():
        pop, local = network.pop_of_global(int(np.flatnonzero(~np.isfinite(inputs))[0]))
        raise ValueError(f"non-finite input for neuron {network.populations[pop].name}/{local}")
