"""Synaptic data generation shared by the machine model and the oracle.

Encoding happens once per run: every sampled synapse becomes a 16-bit
word magnitude under its projection's fixed-point scale, and its
projection's shift from that scale to its target's accumulator scale, in
one ``SynapseTable`` of two narrow global arrays, 6 B per synapse: the
uint16 ``words`` and the uint32 ``cell``, which packs, from bit 0 up, the
synapse's global target in LP = ``(n - 1).bit_length()`` bits for n
neurons (P = 2**LP is the stride), its source's sign (1 inhibitory), its
delay in 8 bits and its projection's shift from bit LP + 9, as the table's
``network.CellLayout`` places them.  A synapse delivers ``words << shift``
accumulator units.  A
synapse's source neuron is not stored: each projection's ``row_ptr`` gives
it (``SynapseTable.blocks``).  The fields are the network's
``network.SynapseSink``: ``build_network`` samples each projection
straight into them, target, sign and delay into the cells and its weights
rounded into words as soon as it is drawn, and ``encode_projections`` then
adds each projection's shift into its cells, which needs every
projection's largest weight.  A network built with ``keep_weights`` adds
the float weights, aligned with the table, for the oracle's unquantized
path.  The run hands the same table to both simulators, which only read it
in place, each through its own index of spans into it: the oracle through
each source neuron's spans (``source_delivery_index``), the machine model
through synaptic rows, one per packet the fan-out can send (a source neuron
and one of its destination cores), holding a span per projection onto the
core's ensemble (``runtime.build_synaptic_store``).  Both read the same
encoded integers, which is what makes their spike-for-spike agreement exact
rather than approximate.  Both keep their delay rings as one array of shape
``(slots, 2, P)``, one slot's excitatory and inhibitory units contiguous,
``slots`` the smallest power of two above the table's longest delay
(``SynapseTable.slots``), int32 when the table's ``cell_bound`` shows that
wide enough (``ring_dtype``), and deliver into them through
``ring_insert``, whose flat ring index is the cell plus the step's slot, one
add and one mask.

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
from .network import CellLayout, NetworkModel, PoissonInput, SpecError

BLOCK = 1 << 18  # synapses per block of encoding and indexing work: bounds its temporaries
RING_SYNAPSES = BLOCK >> 2  # synapses a ring insert adds at once: bounds its temporaries
# steps per chunk of background input and of profile counters held in memory
CHUNK_STEPS = 256


@dataclass
class SynapseTable:
    """Every encoded synapse of the network, in projection order, then in
    synapse order (ascending source neuron within a projection), 6 B each.

    ``words`` are the uint16 magnitudes under each projection's own scale,
    and ``cell`` the uint32 cells, which hold from bit 0 up the global
    target neuron in LP bits (P = 2**LP is the stride of the delay rings'
    neuron axis), the source's sign (1 inhibitory) at bit LP, the delay in
    timesteps in the 8 bits from LP + 1 and the projection's accumulator
    shift from LP + 9, as ``layout`` places them (``layout.targets`` and
    ``layout.delays`` read the first and third).  A synapse delivers
    ``words << shift`` units into ring ``(slot, sign, target)`` of the slot
    of its arrival step.  Projection p spans ``bounds[p]:bounds[p + 1]``;
    its source neuron i (global neuron ``pre_base[p] + i``) owns
    ``row_ptrs[p][i]:row_ptrs[p][i + 1]`` of that span, the projection's own
    ``row_ptr``.  Within a projection the synapses of one source neuron,
    and of one source neuron onto one target core, are contiguous runs,
    which is what ``blocks`` and the machine's spans rely on.  ``scales``
    are the accumulator exponents the shifts lead to.  ``cell_bound`` is
    the most units any neuron receives from one sign of synapse, excitatory
    or inhibitory, when each of its incoming synapses delivers once: the
    largest value a delay-ring cell can reach, and what both simulators
    choose their ring dtype from (``ring_dtype``).  ``slots`` is the delay
    rings' depth, the smallest power of two above the longest delay, so no
    slot is written again before it has been read.  ``weight_pa`` are the
    float64 weights in pA when the network kept them
    (``build_network(keep_weights=True)``), else None.
    """

    cell: np.ndarray
    words: np.ndarray
    bounds: np.ndarray
    row_ptrs: list[np.ndarray]
    pre_base: np.ndarray
    scales: weights.AccumulatorScales
    cell_bound: int
    layout: CellLayout
    slots: int
    weight_pa: np.ndarray | None = None

    def max_block(self, size: int) -> int:
        """The most synapses one block of ``blocks(size)`` can hold: its last
        source neuron starts in its first one's ``size``-aligned window."""
        longest = max((int(np.diff(r).max(initial=0)) for r in self.row_ptrs), default=0)
        return min(self.cell.size, size + longest)

    def blocks(self, size: int):
        """(projection, lo, hi, pre) of each block of the table, in table
        order: the synapses ``table[lo:hi]`` of whole source neurons of one
        projection, about ``size`` of them (more when one neuron has more),
        and the global source neuron (intp) of each, in a buffer that the
        next block overwrites."""
        buf = np.empty(self.max_block(size), dtype=np.intp)
        for p, (start, row_ptr, base) in enumerate(zip(self.bounds.tolist(), self.row_ptrs,
                                                       self.pre_base.tolist())):
            # a block starts at each neuron whose first synapse opens a new
            # size-aligned window of the projection
            window = row_ptr[:-1] // size
            cuts = [0, *(np.flatnonzero(window[1:] != window[:-1]) + 1).tolist(),
                    row_ptr.size - 1]
            for a, b in zip(cuts, cuts[1:]):
                lo, hi = int(row_ptr[a]), int(row_ptr[b])
                # each neuron's index, counted up at the first synapse of each later one
                pre = buf[:hi - lo]
                pre.fill(0)
                firsts = row_ptr[a + 1:b] - lo
                np.add.at(pre, firsts[firsts < pre.size], 1)
                np.cumsum(pre, out=pre)
                pre += base + a
                yield p, start + lo, start + hi, pre


RING_INT32_MAX = int(np.iinfo(np.int32).max)
RING_INT64_MAX = int(np.iinfo(np.int64).max)


def ring_dtype(table: SynapseTable) -> type:
    """The delay rings' dtype for this table: int32 when one delivery of
    every synapse onto a neuron fits (``cell_bound``), else int64, which
    encoding has proven wide enough."""
    return np.int32 if table.cell_bound <= RING_INT32_MAX else np.int64


def ranges(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``lo[i], lo[i] + 1, ..., lo[i] + lens[i] - 1`` for every i, concatenated."""
    ends = np.add.accumulate(lens, dtype=np.int64)
    out = (lo - (ends - lens)).repeat(lens)
    out += np.arange(out.size)
    return out


def group_cuts(ends: np.ndarray, limit: int) -> list[int]:
    """Consecutive items cut into groups of at most ``limit`` in all, from
    ``ends``, the running total of their sizes: group j is items
    ``cuts[j]:cuts[j + 1]``, as many whole items as fit, or one item larger
    than ``limit`` alone."""
    if ends.size and ends[-1] <= limit:
        return [0, ends.size]
    cuts = [0]
    while cuts[-1] < ends.size:
        base = int(ends[cuts[-1] - 1]) if cuts[-1] else 0
        cuts.append(max(int(np.searchsorted(ends, base + limit, side="right")), cuts[-1] + 1))
    return cuts


def ring_insert(ring: np.ndarray, table: SynapseTable, t: int, lo: np.ndarray,
                lens: np.ndarray) -> None:
    """Add the synapses of the spans ``table[lo[i]:lo[i] + lens[i]]``, sent
    at step t, into the delay rings ``ring``, int32 or int64 of shape
    ``(slots, 2, P)``, ``table.slots`` deep with the table's stride P: each
    synapse adds ``words << shift`` at ``(arrival slot, sign, target)``.
    Laid out so, a synapse's flat ring index is its cell's low LP + 1 + 8
    bits (target, sign and delay) plus the step's slot at the delay field,
    masked to the ring's size, which wraps the arrival slot and drops the
    shift: ``(cell + ((t & (slots - 1)) << (LP + 1))) & ((2 * slots << LP)
    - 1)``.  Both simulators deliver this way, and each proves its ring wide
    enough for what it adds (``ring_dtype``).  The spans are added in groups
    of whole spans of at most ``RING_SYNAPSES`` synapses (a longer span
    alone), one ``np.add.at`` per group, so a call's working set is bounded
    however many spikes a step sends; integer sums do not depend on the
    order."""
    slots, layout = ring.shape[0], table.layout
    step = (t & (slots - 1)) << layout.delay_at
    mask = (2 * slots << layout.target_bits) - 1
    flat_ring = ring.reshape(-1)
    cuts = group_cuts(np.add.accumulate(lens, dtype=np.int64), RING_SYNAPSES)
    for a, b in zip(cuts, cuts[1:]):
        syn = ranges(lo[a:b], lens[a:b])
        if not syn.size:
            continue
        cell = table.cell[syn]
        units = np.left_shift(table.words[syn], cell >> layout.shift_at, dtype=ring.dtype)
        flat = np.add(cell, step, dtype=np.intp)
        flat &= mask
        np.add.at(flat_ring, flat, units)


def accumulator_scales(network: NetworkModel, exps: list[int]) -> weights.AccumulatorScales:
    """Target-side accumulator exponents from each projection's scale
    exponent ``exps[p]``: the finest feeding projection wins."""
    n_pops = len(network.populations)
    exc = [weights.MIN_SIG_BITS] * n_pops
    inh = [weights.MIN_SIG_BITS] * n_pops
    have_exc = [False] * n_pops
    have_inh = [False] * n_pops
    for proj, exp in zip(network.projections or (), exps):
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
        try:
            pois.append(weights.poisson_scale_exp(w))
        except OverflowError:  # the scale of a subnormal weight passes float64
            raise SpecError(f"population {pop.name}: its Poisson weight of {w:g} pA is too "
                            "small for a power-of-two scale of float64") from None
    return weights.AccumulatorScales(tuple(exc), tuple(inh), tuple(pois))


def _cell_bound(cell: np.ndarray, words: np.ndarray, bounds: np.ndarray, layout: CellLayout,
                inh: list[bool], shifts: list[int], names: list[str], n: int) -> int:
    """The most units any of the n neurons receives from one sign of
    synapse (``inh[p]``, projection p's), each synapse counted once.  Each
    projection's words are added up a ``BLOCK`` of synapses at a time with a
    weighted ``np.bincount`` of the cells' targets, and scaled by its shift
    (``shifts[p]``): float64 sums that are exact while they stay below
    2**53; a sum past that is past 2**31 whatever its rounding, which is all
    ``ring_dtype`` asks.  A sum past 2**63 - 1, which no int64 ring holds,
    is a SpecError naming the projection (``names[p]``) that takes it
    there."""
    received = np.zeros((2, n))
    # the block's targets as intp, which bincount counts without a copy
    targets = np.empty(min(BLOCK, cell.size), dtype=np.intp)
    for lo, hi, sign, shift, name in zip(bounds[:-1].tolist(), bounds[1:].tolist(), inh, shifts,
                                         names):
        for b in range(lo, hi, BLOCK):
            e = min(b + BLOCK, hi)
            got = np.bincount(layout.targets(cell[b:e], out=targets[:e - b]), words[b:e],
                              minlength=n)
            if shift:
                got *= 2.0 ** shift
            received[int(sign)] += got
        if received[int(sign)].max(initial=0.0) > RING_INT64_MAX:
            raise SpecError(f"projection {name}: one delivery of every "
                            f"{'inhibitory' if sign else 'excitatory'} synapse onto a neuron of "
                            "its target passes 2**63 - 1 accumulator units, which no int64 "
                            "delay ring holds; its weights lie too far from those of the "
                            "finest projection onto the same target")
    return int(received.max(initial=0.0))


def encode_projections(network: NetworkModel) -> SynapseTable:
    """The network's synapses as one ``SynapseTable``; encode once per run.

    ``build_network`` sampled them into the table's fields, the network's
    ``sink``, each projection's weights already words of its own scale and
    its targets, sign and delays already in the cells.  What had to wait
    for the last projection is done here: the accumulator exponents, which
    need every projection's largest weight; each projection's shift from
    its own scale to its target's accumulator scale, added into its cells
    in place; and the table's ``cell_bound`` (``_cell_bound``).  A shift
    that does not fit the cell's bits above the delay, or takes a
    projection's largest word past 2**63 - 1, is a SpecError naming the
    projection, as is a ``cell_bound`` past it: the units would not fit the
    int64 rings.  The network lets go of the sink; the table holds the
    written part of its fields, and the float weights when the sink kept
    them.
    """
    sink, network.sink = network.sink, None
    if sink is None:
        raise ValueError("the network holds no sampled synapses: built without them, "
                         "or encoded already")
    projections = network.projections
    scales = accumulator_scales(network, [exp for exp, _ in sink.maxima])
    bounds = np.zeros(len(projections) + 1, dtype=np.int64)
    np.cumsum([proj.count for proj in projections], out=bounds[1:])
    # views of the written part: the reserve's pages never written are never
    # resident, so nothing is copied to drop them
    n = sink.size
    cell, words = sink.cell[:n], sink.words[:n]
    layout = sink.layout
    shifts, inh = [], []
    for proj, (exp, top), lo, hi in zip(projections, sink.maxima, bounds[:-1].tolist(),
                                        bounds[1:].tolist()):
        inh.append(network.populations[proj.source_pop].polarity != "exc")
        shift = (scales.inh_exp if inh[-1] else scales.exc_exp)[proj.target_pop] - exp
        if shift < 0:
            raise AssertionError("accumulator scale coarser than a feeding projection")
        if shift >> layout.shift_bits:
            raise SpecError(f"projection {proj.spec.name}: its accumulator shift of {shift} bits "
                            f"does not fit the {layout.shift_bits} bits its synapses' cells "
                            "hold for it")
        if top << shift > RING_INT64_MAX:
            raise SpecError(f"projection {proj.spec.name}: its largest weight, {top} units of "
                            f"its own scale, passes 2**63 - 1 shifted by {shift} bits to its "
                            "target's accumulator scale; its weights lie too far from those "
                            "of the finest projection onto the same target")
        shifts.append(shift)
        if shift:
            cell[lo:hi] |= shift << layout.shift_at
    names = [proj.spec.name for proj in projections]
    return SynapseTable(cell, words, bounds, [proj.row_ptr for proj in projections],
                        network.offsets[[proj.source_pop for proj in projections]], scales,
                        _cell_bound(cell, words, bounds, layout, inh, shifts, names,
                                    network.total_neurons),
                        layout, 1 << sink.longest_delay.bit_length(),
                        None if sink.weight_pa is None else sink.weight_pa[:n])


@dataclass
class SourceSpans:
    """Oracle view of the synapse table, read in place: source neuron g's
    synapses are ``table[lo[s]:hi[s]]`` for the spans s in
    ``span_ptr[g]:span_ptr[g + 1]``, one span per projection from g's
    population, in projection order, each the neuron's row of that
    projection in synapse order.  ``lo`` and ``hi`` are int32, as the
    table holds at most ``network.SynapseSink.MAX_SYNAPSES`` synapses."""

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
    lo = np.empty(int(span_ptr[-1]), dtype=np.int32)
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
    neuron ``neuron[r]`` with weight ``w_row[r]``, its population's ``w_q``,
    which is ``w_pa[r]`` pA (float64) before quantization.
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
        self.w_pa = np.zeros(n_rows)
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
            self.w_pa[row:row + pop.size] = pop.background.weight_pa
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
