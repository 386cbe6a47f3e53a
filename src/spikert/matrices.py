"""Synaptic data generation shared by the machine model and the oracle.

Encoding happens once per run, here: ``encode_projections`` turns every
sampled synapse into per-projection fixed-point scales, 16-bit word
magnitudes and the integer accumulator contributions both simulation paths
add up, and returns them as one ``SynapseTable`` of narrow global arrays:
int32 target neurons, units in the narrowest of int32/int64 that holds the
largest shifted value, uint8 delays.  A synapse's source neuron is not
stored: each projection's ``row_ptr`` gives it (``SynapseTable.blocks``).
The caller (``cli.run``) encodes once, each projection releasing its sampled
arrays as soon as it is encoded, and hands the same table to both
simulators, which only read it in place, each through its own index of spans
into it: the oracle through each source neuron's spans
(``source_delivery_index``), the machine model through synaptic rows, one
per packet the fan-out can send (a source neuron and one of its destination
cores), holding a span per projection onto the core's ensemble
(``runtime.build_synaptic_store``).  Both read the same encoded integers,
which is what makes their spike-for-spike agreement exact rather than
approximate.  Both size their delay rings from the table,
to the smallest power of two above its longest delay (``ring_slots``), and
deliver into them through ``ring_insert``.

Background input comes from one ``PoissonBank`` per run, which both
simulators read step by step.  It holds one chunk of ``CHUNK_STEPS`` steps
at a time and draws the next when a simulator reads past it, so its memory
does not grow with the simulated duration.  Each chunk is drawn once per
run: the bank writes what it draws to a file it is given, and the second
simulator's reads come back from that file instead of drawing the streams
again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights
from .kinetics import Propagator, make_rng
from .network import NetworkModel, PoissonInput

BLOCK = 1 << 18  # synapses per block of encoding and indexing work: bounds its temporaries
# steps per chunk of background input and of profile counters held in memory
CHUNK_STEPS = 256


@dataclass
class SynapseTable:
    """Every encoded synapse of the network, in projection order, then in
    synapse order (ascending source neuron within a projection).

    ``post`` are int32 global target neurons, ``units`` the magnitude in the
    target's accumulator units (int32, or int64 when a shifted value needs
    it) and ``delays`` the uint8 delay in timesteps.  Projection p spans
    ``bounds[p]:bounds[p + 1]``; its source neuron i (global neuron
    ``pre_base[p] + i``) owns ``row_ptrs[p][i]:row_ptrs[p][i + 1]`` of that
    span, the projection's own ``row_ptr``.  Within a projection the synapses
    of one source neuron, and of one source neuron onto one target core, are
    contiguous runs, which is what ``blocks`` and the machine's spans rely on.
    ``scales`` are the accumulator exponents the units are encoded against.
    """

    post: np.ndarray
    units: np.ndarray
    delays: np.ndarray
    bounds: np.ndarray
    row_ptrs: list[np.ndarray]
    pre_base: np.ndarray
    scales: weights.AccumulatorScales

    def max_block(self) -> int:
        """The most synapses one block of ``blocks`` can hold: its last
        source neuron starts in its first one's BLOCK-aligned window."""
        longest = max((int(np.diff(r).max(initial=0)) for r in self.row_ptrs), default=0)
        return min(self.post.size, BLOCK + longest)

    def blocks(self):
        """(projection, lo, hi, pre) of each block of the table, in table
        order: the synapses ``table[lo:hi]`` of whole source neurons of one
        projection, about ``BLOCK`` of them (more when one neuron has more),
        and the global source neuron (intp) of each."""
        for p, (start, row_ptr, base) in enumerate(zip(self.bounds.tolist(), self.row_ptrs,
                                                       self.pre_base.tolist())):
            # a block starts at each neuron whose first synapse opens a new
            # BLOCK-aligned window of the projection
            window = row_ptr[:-1] // BLOCK
            cuts = [0, *(np.flatnonzero(window[1:] != window[:-1]) + 1).tolist(),
                    row_ptr.size - 1]
            for a, b in zip(cuts, cuts[1:]):
                pre = np.repeat(np.arange(base + a, base + b, dtype=np.intp),
                                row_ptr[a + 1:b + 1] - row_ptr[a:b])
                yield p, start + int(row_ptr[a]), start + int(row_ptr[b]), pre


def ring_slots(delays: np.ndarray) -> int:
    """Delay-ring depth for these delays: the smallest power of two above the
    longest, so that no slot is written again before it has been read."""
    return 1 << int(delays.max(initial=0)).bit_length()


def ranges(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``lo[i], lo[i] + 1, ..., lo[i] + lens[i] - 1`` for every i, concatenated."""
    ends = np.add.accumulate(lens, dtype=np.int64)
    out = (lo - (ends - lens)).repeat(lens)
    out += np.arange(out.size)
    return out


def ring_insert(ring: np.ndarray, table: SynapseTable, t: int, inh: np.ndarray,
                lo: np.ndarray, lens: np.ndarray) -> None:
    """Add the synapses of the spans ``table[lo[i]:lo[i] + lens[i]]``, sent
    at step t, into the delay rings ``ring``, int64 of shape ``(2, slots,
    neurons)``: span i adds into ``ring[inh[i]]``, each synapse its units at
    its target in the slot of its arrival step.  Both simulators deliver
    this way, with one ``np.add.at``; integer sums do not depend on the
    order."""
    syn = ranges(lo, lens)
    if not syn.size:
        return
    _, slots, n = ring.shape
    flat = np.add(table.delays[syn], t, dtype=np.int64)
    flat &= slots - 1
    flat += (inh * slots).repeat(lens)
    flat *= n
    flat += table.post[syn]
    np.add.at(ring.reshape(-1), flat, table.units[syn].astype(np.int64))


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


def encode_projections(network: NetworkModel, keep_weights: bool = False) -> SynapseTable:
    """The network's synapses as one ``SynapseTable``; encode once per run.

    Encoding moves the synapses into the table: each projection releases
    its post, delay and (unless ``keep_weights``, which the oracle's
    unquantized path needs) weight arrays as soon as it is encoded, so that
    the network's synapses and the table are never held whole at once.  Its
    ``row_ptr`` stays, shared with the table.
    """
    if network.projections is None:
        raise ValueError("encoding needs sampled synapses")
    projections = network.projections
    if any(proj.post_local is None for proj in projections):
        raise ValueError("the network's synapses were already encoded and released")
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
    if bounds[-1] > np.iinfo(np.int32).max:
        raise ValueError(f"{bounds[-1]} synapses: the int32 row pointers hold at most 2**31 - 1")
    # each projection narrowed into pieces of the table's dtypes as its
    # sampled arrays go, then the pieces joined field by field
    posts, units, delays = ([np.zeros(0, dtype)] for dtype in (np.int32, units_dtype, np.uint8))
    for proj, exp, shift in zip(projections, exps, shifts):
        piece = np.empty(proj.count, dtype=units_dtype)
        for lo in range(0, proj.count, BLOCK):
            piece[lo:lo + BLOCK] = weights.quantize_magnitudes(
                proj.weight_pa[lo:lo + BLOCK], exp) << shift
        units.append(piece)
        posts.append(proj.post_local + np.int32(network.offsets[proj.target_pop]))
        delays.append(proj.delay_steps.astype(np.uint8))
        proj.post_local = proj.delay_steps = None
        if not keep_weights:
            proj.weight_pa = None
    fields = []
    for pieces in (posts, units, delays):
        fields.append(np.concatenate(pieces))
        pieces.clear()
    return SynapseTable(*fields, bounds, [proj.row_ptr for proj in projections],
                        network.offsets[[proj.source_pop for proj in projections]], scales)


@dataclass
class SourceSpans:
    """Oracle view of the synapse table, read in place: source neuron g's
    synapses are ``table[lo[s]:hi[s]]`` for the spans s in
    ``span_ptr[g]:span_ptr[g + 1]``, one span per projection from g's
    population, in projection order, each the neuron's row of that
    projection in synapse order."""

    span_ptr: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def source_delivery_index(network: NetworkModel, table: SynapseTable) -> SourceSpans:
    """Each source neuron's spans into the table, from the projections'
    ``row_ptr``s; nothing per synapse is copied."""
    span_ptr = np.zeros(network.total_neurons + 1, dtype=np.int64)
    for base, row_ptr in zip(table.pre_base.tolist(), table.row_ptrs):
        span_ptr[base + 1:base + row_ptr.size] += 1
    np.cumsum(span_ptr, out=span_ptr)
    lo = np.empty(int(span_ptr[-1]), dtype=np.int64)
    hi = np.empty_like(lo)
    free = span_ptr[:-1].copy()  # next free span of each source neuron
    for base, row_ptr, start in zip(table.pre_base.tolist(), table.row_ptrs,
                                    table.bounds.tolist()):
        at = free[base:base + row_ptr.size - 1]
        lo[at] = start + row_ptr[:-1]
        hi[at] = start + row_ptr[1:]
        at += 1
    return SourceSpans(span_ptr, lo, hi)


class PoissonBank:
    """Event counts of every background source, drawn ``CHUNK_STEPS`` steps
    at a time from one stream per source, so draws never depend on
    scheduling or on the chunk length (chunked ``Generator.poisson`` draws
    equal one-shot draws).

    Source r, population by population in network order, feeds global
    neuron ``neuron[r]`` with weight ``w_row[r]``, its population's ``w_q``.
    The chunk in hand is one step-major ``(CHUNK_STEPS, sources)`` int16
    array, so a step's counts are one contiguous row (``counts_at``);
    ``counts[p]`` views population p's sources in it, one row per source and
    one column per step of the chunk.  A run builds one bank, and both
    simulators read it from step 0 through ``units_at``.

    Each chunk is drawn once.  With ``file``, a binary file object, the bank
    writes every chunk it draws there (2 B per source and step), and a read
    of a chunk drawn before, such as the second simulator's from step 0,
    reads it back from the file: both simulators read the same counts and
    no stream is drawn twice.  Without a file such a read is an error.
    """

    def __init__(self, network: NetworkModel, seed: int, n_steps: int, file=None):
        self.network = network
        self.n_steps = n_steps
        self.file = file
        pois = [p for p, pop in enumerate(network.populations)
                if isinstance(pop.background, PoissonInput)]
        n_rows = sum(network.populations[p].size for p in pois)
        self.chunk = np.zeros((min(CHUNK_STEPS, n_steps), n_rows), dtype=np.int16)
        self.w_row = np.zeros(n_rows, dtype=np.int64)  # w_q of each source
        self.neuron = np.zeros(n_rows, dtype=np.int64)
        self.counts: dict[int, np.ndarray] = {}
        self.w_q: dict[int, int] = {}
        self._rngs: list[np.random.Generator] = []
        self._lam: list[float] = []  # events per step of each source
        row = 0
        for p in pois:
            pop = network.populations[p]
            exp = weights.poisson_scale_exp(pop.background.weight_pa)
            self.w_q[p] = int(round(pop.background.weight_pa * 2.0 ** exp))
            self._rngs += [make_rng(seed, "poisson", pop.name, i) for i in range(pop.size)]
            self._lam += [pop.background.rate_hz * network.dt_ms * 1e-3] * pop.size
            self.counts[p] = self.chunk[:, row:row + pop.size].T
            self.w_row[row:row + pop.size] = self.w_q[p]
            self.neuron[row:row + pop.size] = network.offsets[p] + np.arange(pop.size)
            row += pop.size
        self._drawn = 0  # chunks drawn so far
        self._at = -1  # the chunk in hand; none before the first read

    def _seek(self, t: int) -> int:
        """Make the chunk holding step t the one in hand; returns t's column."""
        if not 0 <= t < self.n_steps:
            raise IndexError(f"step {t} outside the bank's {self.n_steps} steps")
        k = t // CHUNK_STEPS
        if k != self._at:
            if k < self._drawn:
                self._read_back(k, t)
            while self._drawn <= k:
                self._draw()
            self._at = k
        return t - k * CHUNK_STEPS

    def _steps_of(self, k: int) -> np.ndarray:
        """The rows of the chunk in hand that chunk k's steps fill."""
        return self.chunk[:min(CHUNK_STEPS, self.n_steps - k * CHUNK_STEPS)]

    def _draw(self) -> None:
        """Draw the next chunk into the chunk in hand, and save it to the file."""
        held = self._steps_of(self._drawn)
        for r, (rng, lam) in enumerate(zip(self._rngs, self._lam)):
            held[:, r] = rng.poisson(lam, held.shape[0])
        if self.file is not None:
            self.file.seek(self._drawn * self.chunk.nbytes)
            self.file.write(held)
        self._drawn += 1

    def _read_back(self, k: int, t: int) -> None:
        """Read chunk k, drawn before, back from the file into the chunk in hand."""
        if self.file is None:
            raise RuntimeError(f"Poisson bank: step {t} was drawn and dropped; a bank read "
                               "more than once from the start needs a file to read it back from")
        held = self._steps_of(k)
        self.file.seek(k * self.chunk.nbytes)
        if self.file.readinto(held) != held.nbytes:
            raise EOFError("the Poisson bank's file ends before the chunks it drew")

    def counts_at(self, t: int) -> np.ndarray:
        """Event counts of every source at step t."""
        return self.chunk[self._seek(t)]

    def units_slice(self, pop: int, lo: int, count: int, t: int) -> tuple[np.ndarray, int]:
        """(accumulated units, clipped entries) for one core's sources at step t."""
        mat = self.counts.get(pop)
        if mat is None:
            return np.zeros(count, dtype=np.int64), 0
        counts = mat[lo:lo + count, self._seek(t)]
        raw = counts.astype(np.int64) * self.w_q[pop]
        units = np.minimum(raw, weights.POISSON_ACC_MAX)
        return units, int(np.count_nonzero(raw > weights.POISSON_ACC_MAX))

    def units_at(self, t: int) -> tuple[np.ndarray, int]:
        """(accumulated units per global neuron, clipped entries) at step t,
        in one gather; DC populations get zero."""
        raw = self.counts_at(t).astype(np.int64) * self.w_row
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
