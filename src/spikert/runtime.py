"""Event-driven execution of neural processing ensembles under a cost model.

Each timestep, every chip's timer fires: neuron cores read their input
buffers (DMA D), update neurons in index order and emit spike packets with
per-neuron send times; Poisson cores sample background sources and write
their buffers (DMA C); synapse cores process buffered spike packets until a
second timer event a fixed margin before the period end, flush whatever is
still queued, then write the next timestep's ring-buffer slot (DMA B).
Packet deliveries carry router transit latencies, and per-board clock drift
(with beacon correction) shifts every core's local timeline.  The timers of
all the run's chips are one ``clocks.ChipClock``, arrays in ``chips`` order:
each step advances every chip's timer with one call.

A packet carries its synaptic row.  The machine finds a packet's row
through its synapse core's master population table, by key; the planned
fan-out CSR (``mapping.destination_cores``, which the routers deliver
exactly) already lists every (source neuron, destination core) pair a
packet can have, so the model gives each pair its row and each packet that
row at fan-out, which reaches the same synapses.  The rows are spans into
the run's encoded synapse table (``matrices.SynapseTable``), which the
machine model reads in place, as the oracle does: ``SynapticStore`` holds
only each row's spans, one per projection from the row's source neuron
onto the core's ensemble, so every synapse is held once.  The background
input is the run's one ``matrices.PoissonBank``, passed to
``HardwareSimulation.run``.

A timestep is one array pipeline over the whole machine, not a loop over
packets:

- fan-out: the fired neurons become packet arrays, a float64 arrival and
  four uint32 fields (target core, source order, emit step, synaptic row),
  repeated over the per-ensemble CSR of destination cores and their
  ``mapping.delivery_map`` transits; an empty queue keeps them as they are;
- window: ``SynapseCoreState.run_window`` orders every queued packet with
  one three-key ``np.lexsort`` on (core, arrival, tie), the tie packing the
  source order and the emit step into one uint64, which is the machine's
  (core, arrival, sx, sy, score, key, emit step) order.  It then runs the
  sorted queue a group of whole cores at a time, at most
  ``WINDOW_PACKETS`` packets per group unless one core has more: cores are
  independent and integer ring adds commute, so the groups give the
  outputs of one.  A group's cores are scanned in lockstep, four array
  operations per queue position, keeping each core's float recurrence in
  packet order.  The scan reads the in-window packets laid out position by
  position, the cores by falling queue length, so each position's cores
  are a prefix of them: its working set is a few arrays of one entry per
  packet of the group, never the longest queue times the cores.  The
  per-core counters are counted afterwards and written to the profile, if
  the run keeps one, with two writes per group;
- ring insert: ``matrices.ring_insert``, which the oracle delivers through
  as well, expands the spans of a group's processed packets' rows and adds
  their synapses into the ring buffers with one integer ``np.add.at`` per
  ``matrices.RING_SYNAPSES`` synapses, each synapse's flat ring index its
  packed cell plus the step's slot, masked.

Whatever a step's spike volley, what its window holds per queued packet
is the queue (24 B) and the sort (the order and tie key, 16 B, and
``np.lexsort``'s own buffers while it runs); the rest is one group's.

Neuron state, constants, input images, fired indices and the ring buffers
are indexed by global neuron, the oracle's layout: as the oracle's
accumulators, the rings are one array of shape ``(slots, 2, P)``, per slot
an excitatory and an inhibitory row over the neurons padded to the table's
stride P (``network.CellLayout``), both excitatory synapse roles adding into
the first, as a synapse's cell carries its source's sign, so a synapse
lands at its table target and the ring handover hands the next slot on,
``ring[slot, :, :n]``, as per-neuron excitatory and inhibitory units.  A
ring is as deep as the run's delays need, the table's ``slots``, and int32
when the table's ``cell_bound`` shows that wide enough, as the oracle's are;
since late packets can deliver one synapse more than once into a cell, a
window whose packets were emitted too long ago widens the rings to int64
(``ring_lag_limit``).

Only a synapse core's work varies with the spike load.  Set-up computes
the fixed busy time per step of every modelled core once, over the core
table (arrays in (chip, core id) order), and checks it against the timer
period.  A run adds up the counters each window returns into its totals;
given a spill file, it also keeps them per step and synapse core
(``ProfileStore``), one chunk of steps in memory and the rest in the file.

The whole machine advances in a single deterministic virtual timeline:
identical inputs give identical traces and profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrices, trace, weights
from .kinetics import advance_state
from .clocks import BEACON_INTERVAL_S, ClockConfig, MachineClocks, SyncDiagnostics
from .costs import CostModel
from .machine import MachineSpec, auto_machine
from .mapping import (NEURON_BITS, Ensembles, PlacementError, allocate_keys,
                      build_routing_tables, delivery_map, destination_cores, neuron_slots,
                      partition, place_radial)
from .network import NetworkModel, SpecError


# a packet's emit step is a uint32 field of the queue, and the window orders
# it below the source order in one 64-bit tie key
MAX_STEPS = trace.MAX_STEPS
QUEUE_DTYPE = np.uint32  # the packet queue's fields: core, source order, emit step, row
WINDOW_PACKETS = 1 << 14  # queued packets a window runs at once, unless one core has more


# the empty packet queue, read-only: ``push`` replaces an empty queue
_EMPTY_ARRIVAL = np.zeros(0)
_EMPTY_FIELDS = np.zeros((4, 0), dtype=QUEUE_DTYPE)
_EMPTY_ARRIVAL.flags.writeable = _EMPTY_FIELDS.flags.writeable = False


def _joined(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """``np.concatenate(parts, axis)``, or the one part itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


class SchedulingError(RuntimeError):
    """A core's fixed work cannot fit its timer period."""


@dataclass
class SynapticStore:
    """Synaptic rows of every synapse core, as spans into the run's synapse
    table, which the store reads in place.

    A row is one (source neuron, destination core) pair of the fan-out CSR
    (``mapping.destination_cores``): neuron g of ensemble e sends to the cores
    ``dest_core[dest_ptr[e]:dest_ptr[e + 1]]``, and its packet to the i-th
    of them reads row ``row_base[g] + i`` (int64 ``row_base``, one entry per
    neuron).  Column j of row r is the span of the j-th projection between
    the two populations, in projection order: ``table[lo[r, j]:lo[r, j] +
    n[r, j]]``, the source neuron's synapses onto the core's ensemble in
    synapse order, with int32 ``lo`` and uint8 ``n`` (at most the
    ensemble's ``NEURONS_PER_CORE`` synapses) of shape ``(rows, k)``, k the
    most projections any pair of populations has.
    """

    table: matrices.SynapseTable
    lo: np.ndarray
    n: np.ndarray
    row_base: np.ndarray


def build_synaptic_store(table: matrices.SynapseTable, ensembles: Ensembles,
                         dest_ptr: np.ndarray, dest_core: np.ndarray) -> SynapticStore:
    """The synaptic rows over the synapse table: each run of a source
    neuron's synapses onto one row is written into its row's column.

    A source ensemble's packets reach at most one core of each target
    ensemble, the core of its synapse role, so a synapse's row is
    ``row_base[pre] + pos_of[ens_of[pre], ens_of[post]]``, ``pos_of`` being
    the position of that core among the source's destinations (-1 where no
    packet goes).  ``pre`` is derived from the projections' ``row_ptr``s
    block by block (``SynapseTable.blocks``), ``post`` is the target field
    of the synapse's cell, and a projection's column is
    the number of earlier projections between the same two populations.
    """
    n_ens = len(ensembles)
    ens_of = neuron_slots(ensembles)[0]
    n_dest = np.diff(dest_ptr)[ens_of]
    row_base = np.cumsum(n_dest) - n_dest
    src = np.repeat(np.arange(n_ens), np.diff(dest_ptr))
    pos_of = np.full((n_ens, n_ens), -1, dtype=np.int32)
    pos_of[src, dest_core // 3] = np.arange(dest_core.size) - dest_ptr[src]

    # a projection's column: how many earlier projections join its populations
    pop_of = ensembles.pop[ens_of]
    ends = table.bounds.tolist()
    pairs = [(pop_of[base], pop_of[table.layout.targets(table.cell[lo])]) if lo < hi else None
             for base, lo, hi in zip(table.pre_base.tolist(), ends, ends[1:])]
    col = [pairs[:p].count(pair) if pair else 0 for p, pair in enumerate(pairs)]
    lo = np.zeros((int(n_dest.sum()), max(col, default=-1) + 1), dtype=np.int32)
    n = np.zeros(lo.shape, dtype=np.uint8)

    # the working arrays of a block, allocated once; ``take`` with
    # mode="clip" writes into them unbuffered (every index is in range).  A
    # block is a quarter of ``matrices.BLOCK`` synapses: its arrays, five
    # intp with the blocks' own, are the set-up's largest temporaries
    size = max(matrices.BLOCK >> 2, 1)
    cap = table.max_block(size)
    post_buf, ens_buf, pair_buf, row_buf = (np.empty(cap, dtype=np.intp) for _ in range(4))
    pos_buf = np.empty(cap, dtype=np.int32)
    new_buf = np.empty(cap, dtype=bool)
    pos_flat = pos_of.reshape(-1)
    src_key = ens_of * n_ens  # a source neuron's row of pos_of, flattened

    # a block's synapses of one source neuron onto one row are one run of
    # equal rows, written in place as the row's span of the block's projection
    for p, start, end, pre in table.blocks(size):
        m = end - start
        if not m:
            continue
        post, ens, pair, pos, row, new = (b[:m] for b in (post_buf, ens_buf, pair_buf, pos_buf,
                                                          row_buf, new_buf))
        table.layout.targets(table.cell[start:end], out=post)
        np.take(src_key, pre, out=pair, mode="clip")
        pair += np.take(ens_of, post, out=ens, mode="clip")
        np.take(pos_flat, pair, out=pos, mode="clip")
        if pos.min() < 0:
            i = int(np.argmax(pos < 0))
            names = ensembles.pop_names
            raise RuntimeError(f"{names[pop_of[pre[i]]]}->{names[pop_of[post[i]]]}: synapses "
                               "on a core that no packet of their source reaches")
        np.take(row_base, pre, out=row, mode="clip")
        row += pos
        new[0] = True
        np.not_equal(row[1:], row[:-1], out=new[1:])
        cut = np.flatnonzero(new)
        lo[row[cut], col[p]] = start + cut
        n[row[cut], col[p]] = np.diff(cut, append=m)
    return SynapticStore(table, lo, n, row_base)


class ProfileStore:
    """Per-step counters of the synapse cores, one chunk of steps in memory
    and the rest in a spill file, and ``fixed_busy_us``, the busy time per
    step of every modelled core when no packet arrives, in core-table order,
    the profile files' order: ``labels`` names each core and ``syn_core`` is
    its synapse core, or -1.  A neuron or Poisson core's rows are written as
    zero counters and its fixed busy time; a synapse core's ``busy_us``
    starts from its entry, the ring-buffer write, and each step it runs a
    window replaces it.  The store is a record only: a run's totals are the
    sums its windows return.

    The chunk in hand is the int32 block ``counts`` of the seven integer
    counters (``INTS``), shape ``(7, 3 * ensembles, matrices.CHUNK_STEPS)``,
    and the float64 ``busy_us``, indexed like ``SynapseCoreState``; column
    ``t - t0`` holds step t, and each counter is also an attribute, a view
    of its row of the block.  ``spill`` writes the chunk to ``file``, a
    binary file object, and starts the next chunk.  The file is laid out in
    the order the profile files are written: one packed 36-byte ``RECORD``
    per (synapse core, step), the synapse cores in core-table order and
    each core's steps contiguous, so cell (r, t) sits at byte ``(r *
    n_steps + t) * 36``.  A spill writes each core's steps of the chunk at
    their place, so the file stays sparse until the last chunk is written.
    ``serialize`` and ``serialize_events`` read the records back a group of
    (core, step) cells at a time, one read per group, and write the profile
    files to a text file object, formatting each step, each distinct tuple
    of integer counters and each distinct busy time of a group once and
    joining the pieces of each line, so a file is written at about the
    speed of joining strings, with a working set that does not grow with
    the run's length (``_write``).
    """

    # the counters, in the order ``SynapseCoreState.run_window`` returns them
    COUNTERS = ("received", "processed", "flushed", "zero_target", "kickstarts", "busy_us",
                "processed_events", "flushed_events")
    INTS = tuple(name for name in COUNTERS if name != "busy_us")  # the rows of ``counts``
    RECORD = np.dtype([(name, np.int32) for name in INTS] + [("busy_us", np.float64)])
    GROUP_CELLS = 1 << 14  # (core, step) cells read back at once when writing a profile file
    STEP_SPAN = 1 << 16  # steps whose strings are held at once when writing a profile file

    def __init__(self, labels: list[str], syn_core: np.ndarray, fixed_busy_us: np.ndarray,
                 n_steps: int, file=None):
        self.labels = labels
        self.syn_core = syn_core
        self.fixed_busy_us = fixed_busy_us
        self.n_steps = n_steps
        self.file = file
        syn_rows = np.flatnonzero(syn_core >= 0)
        self._order = syn_core[syn_rows]  # the synapse core of each spilled row
        self._fixed = np.empty(syn_rows.size)
        self._fixed[self._order] = fixed_busy_us[syn_rows]
        shape = (syn_rows.size, min(matrices.CHUNK_STEPS, n_steps))
        self.counts = np.empty((len(self.INTS), *shape), dtype=np.int32)
        for name, block in zip(self.INTS, self.counts):
            setattr(self, name, block)
        self.busy_us = np.empty(shape)
        self.t0 = 0
        self._clear()

    def _clear(self) -> None:
        self.counts[:] = 0
        self.busy_us[:] = self._fixed[:, None]

    def spill(self) -> None:
        """Write the chunk in hand to the spill file, each core's steps at
        their place, and start the next chunk."""
        k = min(self.received.shape[1], self.n_steps - self.t0)
        records = np.empty((self._order.size, k), self.RECORD)
        for name, block in zip(self.INTS, self.counts):
            records[name] = block[self._order, :k]
        records["busy_us"] = self.busy_us[self._order, :k]
        for r, row in enumerate(records):
            self.file.seek((r * self.n_steps + self.t0) * self.RECORD.itemsize)
            self.file.write(row)
        self.t0 += k
        self._clear()

    def _read(self, r0: int, r1: int, s0: int, s1: int) -> np.ndarray:
        """The ``(rows, steps)`` records of spilled rows ``r0:r1`` at steps
        ``s0:s1``, one contiguous stretch of the file: one row, or every
        step."""
        records = np.empty((r1 - r0, s1 - s0), self.RECORD)
        self.file.seek((r0 * self.n_steps + s0) * self.RECORD.itemsize)
        if self.file.readinto(records) != records.nbytes:
            raise EOFError("the profile spill file ends before the run's steps")
        return records

    def _write(self, fh, names: tuple[str, ...], idle: str) -> None:
        """Each core's rows: for a synapse core its label, the step and the
        counters ``names``, busy_us last if at all, as `` %.4f``; for a
        neuron or Poisson core its label, the step and ``idle`` of its fixed
        busy time.

        The step strings are formatted once for ``STEP_SPAN`` steps at a
        time, all of a run's steps unless it is longer, and held, about 60 B
        per step.  A neuron or Poisson core's rows are joins of them.  The
        synapse cores' counters are read back a group of at most
        ``GROUP_CELLS`` (core, step) cells at a time, each group one read of
        the spill file: several cores at every step of the run, or, when the
        run has more steps than a group holds, one core at a part of a span.
        In a group, each distinct tuple of integer counters and each
        distinct busy time is formatted once (``trace.distinct_strings``),
        and a row is the join of its label, step, tuple and busy time.  The
        working set is bounded by the two constants, not by the run's
        length: about 130 B per cell of a group and 60 B per distinct string
        in it, and the span's step strings.
        """
        n, cells = self.n_steps, self.GROUP_CELLS
        span = min(n, self.STEP_SPAN) or 1
        part = min(span, cells)
        per_group = cells // part if part == n else 1
        g0 = g1 = gs = st = -1  # the group in hand: rows g0:g1 from step gs
        r = 0
        for label, c, fixed in zip(self.labels, self.syn_core.tolist(),
                                   self.fixed_busy_us.tolist()):
            for s0 in range(0, n, span):
                s1 = min(s0 + span, n)
                if st != s0:
                    st, steps = s0, [" %d" % t for t in range(s0, s1)]
                    step_col = np.array(steps, dtype=object)
                if c < 0:
                    tail = idle.format(fixed)
                    for a in range(0, s1 - s0, cells):
                        fh.write(label + (tail + label).join(steps[a:a + cells]) + tail)
                    continue
                for p0 in range(s0, s1, part):
                    p1 = min(p0 + part, s1)
                    if not (g0 <= r < g1 and gs == p0):
                        g0, g1, gs = r, min(r + per_group, self._order.size), p0
                        columns = self._columns(names, g0, g1, p0, p1)
                    pieces = np.empty((p1 - p0, 2 + len(columns)), dtype=object)
                    pieces[:, 0] = label
                    pieces[:, 1] = step_col[p0 - s0:p1 - s0]
                    for j, (strings, index) in enumerate(columns, 2):
                        pieces[:, j] = strings[index[r - g0]]
                    fh.write("".join(pieces.ravel().tolist()))
            r += c >= 0

    def _columns(self, names: tuple[str, ...], r0: int, r1: int, s0: int, s1: int) -> list:
        """The text of the counters ``names`` for the group of spilled rows
        ``r0:r1`` at steps ``s0:s1``: a list of columns, each its distinct
        strings and a ``(rows, steps)`` index into them, the first for the
        tuples of integer counters and, if ``names`` ends with busy_us, one
        for it; the last column ends the line."""
        records = self._read(r0, r1, s0, s1)
        busy = names[-1] == "busy_us"
        ints = np.stack([records[name].reshape(-1) for name in names[:len(names) - busy]])
        columns = [trace.distinct_strings(ints, " %s" * len(ints) + "\n" * (not busy))]
        if busy:
            columns.append(trace.distinct_strings(records["busy_us"].reshape(-1), " %.4f\n"))
        return [(strings, index.reshape(records.shape)) for strings, index in columns]

    def serialize(self, fh) -> None:
        """Write ``profile.tsv`` to the text file ``fh``."""
        fh.write("# core_id timestep received processed flushed zero_target kickstarts busy_us\n")
        self._write(fh, self.COUNTERS[:6], " 0 0 0 0 0 {:.4f}\n")

    def serialize_events(self, fh) -> None:
        """Write ``profile_events.tsv`` to the text file ``fh``."""
        fh.write("# core_id timestep processed_events flushed_events\n")
        self._write(fh, self.COUNTERS[6:], " 0 0\n")


class SynapseCoreState:
    """Runtime state of every synapse core, held as structure-of-arrays.

    Synapse core ``c = 3 * ensemble + k`` serves role ``SYNAPSE_ROLES[k]``.
    Per core: its chip row, its chip's synapse-core count ``n_syn`` (which
    sets its ring-buffer write cost and row-fetch contention), and per run
    its crystal rate and the busy time carried into the next timestep; row c
    of the profile counters is its own.  The ring buffers of all cores are one array
    ``ring`` of shape ``(slots, 2, P)``, indexed like the oracle's
    accumulators by global neuron, padded to the table's stride P: core c
    adds into ``ring[:, k >> 1]`` (both excitatory roles into the one
    excitatory ring, the inhibitory role into the other, as its synapses'
    cells say) at its ensemble's neurons, ``slots`` deep, the table's ring
    depth.  Each run starts them as ``ring_dtype``, int32 when
    the table's ``cell_bound`` fits it (``matrices.ring_dtype``).  A window
    adds a synapse into a cell once per packet of its row, and packets
    carried over from earlier steps can make that several: a window that
    processes a packet emitted more than ``lag_limit`` steps before it
    (``ring_lag_limit``) could take an int32 cell past 2**31 - 1, so it
    first widens the rings to int64 for the rest of the run, exactly, as
    every cell is still within int32 then.
    The input spike buffers of all cores are one packet
    queue of parallel arrays: ``q_arrival`` (float64 global us) and
    ``q_fields``, ``QUEUE_DTYPE`` (uint32) of shape ``(4, packets)``, whose
    rows are target core, source order, emit step and synaptic row in the
    shared ``SynapticStore``: 24 B per packet.  The set-up refuses a model
    whose cores, source orders or rows do not fit the fields.  The source
    order is 64 times the sending ensemble's rank in (source chip x, y,
    source core, key prefix) order plus the neuron id, so it orders packets
    as (sx, sy, score, key) does.  A window runs the queue a group of whole
    cores at a time (``WINDOW_PACKETS``).
    """

    def __init__(self, chip_row: np.ndarray, n_syn: np.ndarray, store: SynapticStore,
                 costs: CostModel, ref_steps: int):
        self.chip_row = chip_row
        self.n_syn = n_syn
        self.store = store
        self.costs = costs
        self.wcost = costs.sdram_write_us(n_syn)
        self.fetch_us = costs.row_fetch_overhead_us(n_syn)  # row-fetch overhead per packet
        # a packet's cost without the fetch overhead, by its row's words
        self.base_us = costs.packet_base_us(np.arange(np.iinfo(store.n.dtype).max
                                                      * store.n.shape[1] + 1))
        self.core_key = np.min_scalar_type(chip_row.size)  # the queue's sort key for cores
        self.slots = store.table.slots
        self.ring_shape = (self.slots, 2, store.table.layout.stride)
        self.ring_dtype = matrices.ring_dtype(store.table)
        self.lag_limit = ring_lag_limit(store.table.cell_bound, ref_steps)
        self.reset(np.ones(chip_row.size))

    def reset(self, rate: np.ndarray) -> None:
        """Empty queues and fresh ring buffers; ``rate`` is each core's
        crystal rate."""
        self.rate = rate
        self.margin_g = self.costs.second_timer_margin_us / rate  # in global us
        self.wcost_g = self.wcost / rate
        self.carry = np.zeros(self.chip_row.size)
        self.q_arrival, self.q_fields = _EMPTY_ARRIVAL, _EMPTY_FIELDS
        self.ring = np.zeros(self.ring_shape, dtype=self.ring_dtype)

    def push(self, arrival: np.ndarray, fields: np.ndarray) -> None:
        """Queue packets: ``arrival`` (global us) and the four ``q_fields``
        rows.  An empty queue takes the arrays as they are, ``QUEUE_DTYPE``
        fields without a copy."""
        fields = fields.astype(QUEUE_DTYPE, copy=False)
        if not self.q_arrival.size:
            self.q_arrival, self.q_fields = arrival, fields
            return
        self.q_arrival = np.concatenate((self.q_arrival, arrival))
        self.q_fields = np.concatenate((self.q_fields, fields), axis=1)

    def run_window(self, t: int, starts: np.ndarray, durations: np.ndarray,
                   profile: ProfileStore | None = None) -> tuple:
        """One timestep of every synapse core that has a queued packet.

        Each such core processes its packets in (arrival, sx, sy, score, key,
        emit step) order until the pre-deadline timer event, flushes the rest
        that arrived before it, then writes the next slot (DMA B).  Packets
        arriving at or after the deadline stay queued.  ``starts`` and
        ``durations`` are each chip's timer period in global us; costs are
        local core us, scaled by the chip's crystal rate.  The queue is
        sorted once, then run a group of whole cores at a time, each group
        at most ``WINDOW_PACKETS`` packets or one core's queue
        (``_run_group``).  Per-core counters go to ``profile``'s column of
        step ``t``; the return value is ``TOTALS``, their sum over cores,
        the late packets and the most packets one core flushed.
        """
        if not self.q_arrival.size:
            return 0, 0, 0, 0, 0, 0.0, 0, 0, 0, 0
        f = self.q_fields
        tie = np.left_shift(f[1], 32, dtype=np.uint64)  # source order, then emit step
        tie |= f[2]
        order = np.lexsort((tie, self.q_arrival, f[0].astype(self.core_key)))
        del tie
        # the sorted queue holds each core's packets together, in core order:
        # the groups' bounds in it are bounds between cores
        bounds = [0, order.size]
        if order.size > WINDOW_PACKETS:
            ends = np.add.accumulate(np.bincount(f[0], minlength=self.chip_row.size))
            cuts = matrices.group_cuts(ends, WINDOW_PACKETS)
            bounds = [0, *(int(ends[c - 1]) for c in cuts[1:])]
        cnts, busy, kept, late = [], [], [], 0
        for p0, p1 in zip(bounds, bounds[1:]):
            if p0 == p1:  # cores without a packet, cut off before one that fills a group
                continue
            cnt, busy_us, late_g, stay = self._run_group(t, order[p0:p1], starts, durations,
                                                         profile)
            cnts.append(cnt)
            busy.append(busy_us)
            late += late_g
            if stay.size:
                kept.append(stay)
        if kept:
            stay = _joined(kept)
            self.q_arrival, self.q_fields = self.q_arrival[stay], f[:, stay]
        else:
            self.q_arrival, self.q_fields = _EMPTY_ARRIVAL, _EMPTY_FIELDS
        # every active core's counters and busy time, in core order, as if
        # the window had run as one group
        cnt = _joined(cnts, axis=1)
        total = cnt.sum(axis=1).tolist()
        return (*total[:5], _joined(busy).sum().item(), *total[5:], late, int(cnt[2].max()))

    def _run_group(self, t: int, order: np.ndarray, starts: np.ndarray,
                   durations: np.ndarray, profile: ProfileStore | None) -> tuple:
        """Step t's window of one group of whole cores, the queued packets
        at ``order`` in (core, arrival, tie) order: writes the group's
        counters to ``profile``, its cores' carry and its processed packets'
        synapses into the rings, widened first when a packet's lag needs it.
        Returns the counters (rows in ``ProfileStore.INTS`` order, one column
        per core with a packet), the cores' busy times, the late packets and
        the queue indices of the packets that stay queued.

        The cores run in lockstep, four array operations per queue position,
        and each keeps the float recurrence of a packet-at-a-time core."""
        f = self.q_fields
        arrival, core = self.q_arrival[order], f[0, order].astype(np.intp)
        # the group's cores, and each packet's index a among them
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.not_equal(core[1:], core[:-1], out=new[1:])
        act = core[new]
        a = np.add.accumulate(new, dtype=np.intp)
        a -= 1
        row = self.chip_row[act]
        start, margin = starts[row], self.margin_g[act]
        deadline = start + durations[row] - margin
        busy = np.maximum(np.maximum(start, start - margin + self.wcost_g[act]), self.carry[act])

        # in-window packets, processed or flushed this step: a prefix of each
        # core's queue; the rest arrive at or after the deadline and stay queued
        inwin = arrival < deadline[a]
        if inwin.all():
            stay = order[:0]
        else:
            stay = order[~inwin]
            a, arrival, core, order = a[inwin], arrival[inwin], core[inwin], order[inwin]
        rows, emit = f[3, order], f[2, order]
        n_in = np.bincount(a, minlength=act.size)
        first = np.add.accumulate(n_in)
        first -= n_in  # each core's first in-window packet
        # a packet's words are the lengths of its row's spans, added up
        lens = self.store.n[rows].astype(np.intp)
        words = np.add.reduce(lens, axis=1)
        cost = self.base_us[words]
        cost += self.fetch_us[core]
        costk = cost + self.costs.pipeline_kickstart_us
        rate = self.rate[core]

        # lockstep scan, one queue position at a time.  The packets are laid
        # out position by position, the cores by falling queue length, so the
        # cores with a packet at position p are the first m[p] of them.  A
        # core's packets arrive in order, and each arrives before the
        # deadline, so a packet goes (is processed) while its core's busy
        # time is before the deadline, and once one cannot go no later one
        # can; a packet kicks the pipeline when the core is idle at its
        # arrival, and then ends at arrival + dk, or else at busy + d.  Busy
        # times only grow, so once no core of a position can go, none of a
        # later one can: every 16th position the scan checks, and stops at
        # one where none goes.  The packets past it are flushed, and their
        # kick and end, never read, are left unset
        by_len = n_in.argsort()[::-1]
        rank = np.empty_like(by_len)
        rank[by_len] = np.arange(by_len.size)
        depth = int(n_in[by_len[0]])
        m = act.size - np.add.accumulate(np.bincount(n_in, minlength=depth + 1))[:depth]
        pos0 = np.add.accumulate(m)
        pos0 -= m  # the layout's first index of each position
        at = np.arange(a.size) - first[a]  # each packet's queue position
        at = pos0[at]
        at += rank[a]  # each packet's index in the layout
        arr_l, d_l, end_l, arrdk_l = (np.empty(a.size) for _ in range(4))
        arr_l[at] = arrival
        d_l[at] = cost / rate
        arrdk_l[at] = arrival + costk / rate
        kick_l, go_l = np.empty(a.size, dtype=bool), np.empty(a.size, dtype=bool)
        dl, b = deadline[by_len], busy[by_len]
        for j, (lo, k) in enumerate(zip(pos0.tolist(), m.tolist())):
            hi = lo + k
            b = b[:k]
            go = np.less(b, dl[:k], out=go_l[lo:hi])
            if j % 16 == 15 and not go.any():
                go_l[hi:] = False
                break
            kick = np.less_equal(b, arr_l[lo:hi], out=kick_l[lo:hi])
            b = np.add(b, d_l[lo:hi], out=end_l[lo:hi])
            np.copyto(b, arrdk_l[lo:hi], where=kick)

        # the counters, rows in ``ProfileStore.INTS`` order
        cnt = np.zeros((len(ProfileStore.INTS), act.size), dtype=np.int64)
        cnt[0] = n_in
        kick = kick_l[at]
        if go_l.all():  # nothing flushed: every in-window packet is processed
            done, a_done, w_done = slice(None), a, words
        else:
            done = go_l[at]
            out = ~done
            a_done, w_done, kick = a[done], words[done], kick[done]
            cnt[2] = np.bincount(a[out], minlength=act.size)
            cnt[6] = np.bincount(a[out], words[out], minlength=act.size)
        cnt[1] = n_in - cnt[2]
        zero = w_done == 0
        if zero.any():
            cnt[3] = np.bincount(a_done[zero], minlength=act.size)
        cnt[4] = np.bincount(a_done[kick], minlength=act.size)
        cnt[5] = np.bincount(a_done, w_done, minlength=act.size)
        # each core's busy time, added up in packet order, then its ring write
        busy_us = self.wcost[act] + np.bincount(a_done, np.where(kick, costk[done], cost[done]),
                                                minlength=act.size)
        emit = emit[done]
        late = int(np.count_nonzero(emit != t))
        # packets emitted more than ``lag_limit`` steps ago could take an
        # int32 ring cell past its range: the rings go int64 for the rest of
        # the run, exactly, as every cell is still within it
        if late and self.ring.dtype == np.int32 and t - int(emit.min()) > self.lag_limit:
            self.ring = self.ring.astype(np.int64)
        if profile is not None:
            col = t - profile.t0
            profile.counts[:, act, col] = cnt
            profile.busy_us[:, col][act] = busy_us

        # a core's busy time is the end of its last processed packet
        ran = cnt[1].nonzero()[0]
        busy[ran] = end_l[at[first[ran] + cnt[1, ran] - 1]]
        self.carry[act] = np.maximum(busy, deadline + self.wcost_g[act])

        matrices.ring_insert(self.ring, self.store.table, t, self.store.lo[rows[done]].reshape(-1),
                             lens[done].reshape(-1))
        return cnt, busy_us, late, stay


# ``run_window``'s return values; a run adds up all but the last, of which it keeps the most
TOTALS = (*ProfileStore.COUNTERS, "late_packets", "max_flushed_in_timestep")


@dataclass
class RunResult:
    trace: trace.SpikeTrace
    profile: ProfileStore | None  # the per-step record, kept when the run had a spill file
    sync_diagnostics: SyncDiagnostics
    totals: dict  # ``TOTALS`` by name
    poisson_saturations: int


class HardwareSimulation:
    """Build and run the machine model for one network.

    ``table`` is the run's encoded synapse table, which the synaptic rows
    read in place and which is not written; ``run`` reads its background
    input from the run's ``matrices.PoissonBank``.  The neuron state (``v``,
    ``i_syn``, ``ref``) and ``consts`` are indexed by global neuron, as in
    the oracle; ``ens_of`` and ``nid_of`` give each neuron's ensemble and
    neuron id, its place in the ensemble's packet keys.
    """

    def __init__(self, network: NetworkModel, table: matrices.SynapseTable,
                 machine: MachineSpec | None = None, costs: CostModel | None = None,
                 clock_cfg: ClockConfig | None = None, drift_seed: int = 2,
                 slowdown: float = 1.0):
        if slowdown < 1.0:
            raise ValueError("slow-down multiplier must be >= 1")
        self.network = network
        self.costs = costs or CostModel()
        self.costs.validate()
        self.clock_cfg = clock_cfg or ClockConfig(drift_bound_ppm=0.0)
        self.clock_cfg.validate()
        self.drift_seed = drift_seed
        self.slowdown = float(slowdown)

        self.ensembles = partition(network)
        self.machine, self.placement = _place(self.ensembles, machine)
        self.keys = allocate_keys(self.placement)
        plan = self.dest_ptr, self.dest_core = destination_cores(self.placement,
                                                                 network.spec.projections)
        self.tables = build_routing_tables(self.placement, self.keys, *plan)
        self.dest_transit_us = delivery_map(self.placement, self.keys, self.tables, *plan)

        self._build_state(table)
        self._check_schedule()

    # -- construction -------------------------------------------------------

    def _build_state(self, table: matrices.SynapseTable) -> None:
        ens, placement = self.ensembles, self.placement
        self.ens_of, self.nid_of = neuron_slots(ens)
        self.consts = matrices.expand_constants(self.network, table.scales)

        # the core table, every modelled core in (chip, core id) order: its
        # row of ``chips``, core id, role (its index into ``mapping.ROLES``: 0
        # neuron, 1 Poisson, 2 + k synapse role k) and ensemble
        e, offset, role = ens.cores()
        core_id = placement.core[e] + offset
        order = np.lexsort((core_id, placement.chip[e]))
        codes, self.core_chip = np.unique(placement.chip[e[order]], return_inverse=True)
        self.core_id, self.core_role, self.core_ens = (a[order] for a in (core_id, role, e))
        self.chips = [divmod(c, self.machine.height) for c in codes.tolist()]
        self.ens_chip_row = np.searchsorted(codes, placement.chip)
        # each ensemble adds a neuron core and three synapse cores to its
        # chip's memory contention
        ens_per_chip = np.bincount(self.ens_chip_row)[self.ens_chip_row]
        self.fixed_busy_us = self._fixed_busy(ens_per_chip)

        # each neuron's source order: 64 times its ensemble's rank in (source
        # chip x, source chip y, source (neuron) core, key prefix) order, the
        # order packets that arrive together take, plus its neuron id
        rank = np.argsort(np.lexsort((self.keys, placement.core, placement.chip)))
        source_order = rank[self.ens_of] << NEURON_BITS | self.nid_of

        # a packet's queue fields, refused at set-up if they do not fit: its
        # synapse core 3 * ensemble + k, serving SYNAPSE_ROLES[k], its source
        # order and its synaptic row, one per (neuron, destination core)
        _check_queue_fields({"synapse cores": 3 * len(ens),
                             "source orders": int(source_order.max()) + 1,
                             "synaptic rows": int(np.diff(self.dest_ptr)[self.ens_of].sum())})
        self.source_order = source_order.astype(QUEUE_DTYPE)
        self.store = build_synaptic_store(table, ens, self.dest_ptr, self.dest_core)
        self.syn = SynapseCoreState(np.repeat(self.ens_chip_row, 3),
                                    np.repeat(3 * ens_per_chip, 3), self.store, self.costs,
                                    int(self.consts.ref_steps.min(initial=0)))

    def _fixed_busy(self, ens_per_chip: np.ndarray) -> np.ndarray:
        """Local busy us per step of every core of the core table when no
        packet arrives: a neuron core's input read, neuron updates and buffer
        write, a Poisson core's update and transfer, a synapse core's
        ring-buffer write; ``ens_per_chip``, per ensemble, sets the write
        contention."""
        cm = self.costs
        neuron = (cm.neuron_input_read_us + self.ensembles.count * cm.neuron_update_us
                  + cm.sdram_write_us(ens_per_chip))
        ring = cm.sdram_write_us(3 * ens_per_chip)
        e, role = self.core_ens, self.core_role
        return np.where(role == 0, neuron[e],
                        np.where(role == 1, cm.poisson_update_and_transfer_us, ring[e]))

    def _check_schedule(self) -> None:
        """Raise on the first core whose fixed work misses its deadline: the
        timer period for a neuron or Poisson core, the pre-deadline margin for
        a chip's ring-buffer writes.  Chips go in placement order (of their
        first ensemble), and on each its neuron and Poisson cores, in core
        order, before its ring-buffer write."""
        cm = self.costs
        period_local = cm.timer_period_us * self.slowdown
        syn = self.core_role >= 2
        over = np.flatnonzero(self.fixed_busy_us
                              > np.where(syn, cm.second_timer_margin_us, period_local))
        if not over.size:
            return
        first_ens = np.unique(self.ens_chip_row, return_index=True)[1]
        i = over[np.lexsort((self.core_id[over], syn[over], first_ens[self.core_chip[over]]))[0]]
        chip, core, busy = self.chips[self.core_chip[i]], self.core_id[i], self.fixed_busy_us[i]
        if self.core_role[i] == 0:
            raise SchedulingError(f"neuron core {chip}/{core}: update ({busy:.2f} us) overruns "
                                  f"the {period_local:.2f} us timer period")
        if self.core_role[i] == 1:
            raise SchedulingError(f"poisson core {chip}/{core}: update exceeds the timer period")
        raise SchedulingError(f"chip {chip}: ring-buffer write ({busy:.2f} us) exceeds the "
                              "pre-deadline margin")

    def profile_rows(self) -> tuple[list[str], np.ndarray]:
        """The core table as ``ProfileStore`` reads it: each core's
        ``x,y,core`` label and its synapse core, or -1."""
        labels = [f"{x},{y},{core}" for (x, y), core in
                  zip((self.chips[r] for r in self.core_chip.tolist()), self.core_id.tolist())]
        return labels, np.where(self.core_role >= 2, 3 * self.core_ens + self.core_role - 2, -1)

    # -- execution -----------------------------------------------------------

    def run(self, duration_ms: float, bank: matrices.PoissonBank, discard_ms: float = 0.0,
            spill=None) -> RunResult:
        """Simulate ``duration_ms`` from the initial state, reading the
        background input from ``bank``, step 0 on.

        The result's ``totals`` add up what each step's window returns.  Given
        ``spill``, a binary file object, the run also keeps the per-step
        profile, a chunk of ``matrices.CHUNK_STEPS`` steps at a time in the
        file, which the result's ``ProfileStore`` reads back; else ``profile``
        is None.  Memory holds at most one chunk of counters and of
        background input whatever the duration.  The rings are int32 or
        int64 (``SynapseCoreState``); either way the handover images
        convert to the same floats, so every output is the same.  Only the spike record
        grows with it, by about 4 B per spike (``trace.SpikeRecord``, which
        refuses more than ``MAX_STEPS`` steps), and the trace made from it
        holds 8 B per spike: each spike's step and global neuron index.
        """
        network = self.network
        cm = self.costs
        n_steps = int(round(duration_ms / network.dt_ms))
        spikes = trace.SpikeRecord(n_steps)
        if bank.n_steps != n_steps:
            raise ValueError(f"Poisson bank holds {bank.n_steps} steps, the run {n_steps}")

        period_local_us = cm.timer_period_us * self.slowdown
        clocks = MachineClocks(self.machine, self.clock_cfg, self.drift_seed,
                               self.chips, period_local_us, cm.clock_hz)
        chip_rates = clocks.timers.rate
        syn = self.syn
        syn.reset(chip_rates[syn.chip_row])
        n = network.total_neurons
        self.v = network.v_init_mv.copy()
        self.i_syn = np.zeros(n, dtype=np.float64)
        self.ref = np.zeros(n, dtype=np.int64)
        # shared-memory images per neuron: the synapse cores' ring-buffer
        # slots (excitatory, inhibitory) and the Poisson cores' buffer
        exc_units = inh_units = pois_units = np.zeros(n, dtype=np.int64)

        profile = None if spill is None else ProfileStore(*self.profile_rows(),
                                                          self.fixed_busy_us, n_steps, spill)
        consts = self.consts

        beacon_steps = max(1, round(BEACON_INTERVAL_S * 1e6 / period_local_us))

        sums, max_flushed = [0] * (len(TOTALS) - 1), 0
        poisson_sat = 0

        ens_rate = chip_rates[self.ens_chip_row]
        read_g = cm.neuron_input_read_us / ens_rate
        upd_g = cm.neuron_update_us / ens_rate

        for t in range(n_steps):
            starts, durations = clocks.timers.advance_period()

            # neuron cores: read DMA D image, advance, emit spikes
            inputs = weights.combine_input_pa(exc_units, inh_units, pois_units,
                                              consts.exc_factor, consts.inh_factor,
                                              consts.poisson_factor)
            matrices.check_finite_input(network, inputs)
            self.v, self.i_syn, self.ref, fired = _advance(
                self.v, self.i_syn, self.ref, inputs, consts)

            # fan-out: one packet per fired neuron and destination core
            g = fired.nonzero()[0]
            if g.size:
                spikes.add(t, g)
                e_idx, local = self.ens_of[g], self.nid_of[g]
                n_dest = self.dest_ptr[e_idx + 1] - self.dest_ptr[e_idx]
                total = int(n_dest.sum())
                if total:
                    d = matrices.ranges(self.dest_ptr[e_idx], n_dest)
                    send = (starts[self.ens_chip_row[e_idx]] + read_g[e_idx]
                            + (local + 1) * upd_g[e_idx])
                    fields = np.empty((4, total), dtype=QUEUE_DTYPE)
                    fields[0] = self.dest_core[d]
                    fields[1] = self.source_order[g].repeat(n_dest)
                    fields[2] = t
                    # row_base[g] + i for the i-th destination core of g's ensemble
                    fields[3] = (self.store.row_base[g] - self.dest_ptr[e_idx]).repeat(n_dest) + d
                    syn.push(send.repeat(n_dest) + self.dest_transit_us[d], fields)

            # poisson cores sample and write the next step's buffer (DMA C)
            pois_units, clipped = bank.units_at(t)
            poisson_sat += clipped

            # synapse cores: spike processing window, flush, DMA B accounting
            *counts, flushed = syn.run_window(t, starts, durations, profile)
            sums = [a + b for a, b in zip(sums, counts)]
            max_flushed = max(max_flushed, flushed)
            if profile is not None and ((t + 1) % matrices.CHUNK_STEPS == 0 or t + 1 == n_steps):
                profile.spill()

            # ring-buffer handover: slot for t+1 moves to shared memory
            slot = (t + 1) & (syn.slots - 1)
            exc_units, inh_units = syn.ring[slot, :, :n].copy()
            syn.ring[slot] = 0

            if self.clock_cfg.protocol_enabled and (t + 1) % beacon_steps == 0:
                clocks.run_round(record=True)

        syn.ring = None  # run state: the next run's reset makes fresh rings

        spike_trace = trace.from_step_records(network, spikes, discard_ms)
        return RunResult(spike_trace, profile, clocks.diagnostics,
                         dict(zip(TOTALS, [*sums, max_flushed])), poisson_sat)


def ring_lag_limit(cell_bound: int, ref_steps: int) -> int:
    """The longest lag, in steps from a packet's emit step to the window
    that processes it, that int32 rings hold, for a table of this
    ``cell_bound`` and neurons at least ``ref_steps`` refractory; -1 when
    they hold none.

    Between two reads of a ring slot, one window adds into it through a
    given synapse (``oracle``'s argument, with the window's step in place
    of the send step).  A window at step t whose packets were emitted at
    steps t - L .. t takes at most one packet of each (row, emit step),
    and a source neuron fires at most once in ``ref_steps + 1`` steps, so
    it adds each synapse at most ceil((L + 1) / (ref_steps + 1)) times,
    and a cell takes at most that many times ``cell_bound``."""
    if not cell_bound:
        return MAX_STEPS
    return matrices.RING_INT32_MAX // cell_bound * (ref_steps + 1) - 1


def _check_queue_fields(counts: dict[str, int]) -> None:
    """Refuse a model with more synapse cores, source orders or synaptic
    rows (``counts``, by name) than a ``QUEUE_DTYPE`` field of the packet
    queue can number, instead of letting the numbers wrap."""
    limit = int(np.iinfo(QUEUE_DTYPE).max) + 1
    for name, count in counts.items():
        if count > limit:
            raise SpecError(f"the model has {count:,} {name}, more than the {limit:,} that "
                            f"the machine model's packet queue numbers in its "
                            f"{np.dtype(QUEUE_DTYPE).name} fields")


def _advance(v, i_syn, ref, inputs, consts: matrices.NeuronConstants):
    return advance_state(v, i_syn, ref, inputs, consts.decay_v, consts.decay_i,
                         consts.kernel, consts.e_eff, consts.v_reset, consts.v_theta,
                         consts.ref_steps)


def _place(ensembles: Ensembles, machine: MachineSpec | None):
    if machine is not None:
        return machine, place_radial(ensembles, machine)
    total_cores = int(ensembles.n_cores.sum())
    need = -(-total_cores // 16)
    while True:
        candidate = auto_machine(need)
        try:
            return candidate, place_radial(ensembles, candidate)
        except PlacementError:
            need = candidate.n_chips() + 1  # auto_machine refuses past 3,072 chips
