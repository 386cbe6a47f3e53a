"""Event-driven execution of neural processing ensembles under a cost model.

Each timestep, every chip's timer fires: neuron cores read their input
buffers (DMA D), update neurons in index order and emit spike packets with
per-neuron send times; Poisson cores sample background sources and write
their buffers (DMA C); synapse cores process buffered spike packets until a
second timer event a fixed margin before the period end, flush whatever is
still queued, then write the next timestep's ring-buffer slot (DMA B).
Packet deliveries carry router transit latencies, and per-board clock drift
(with beacon correction) shifts every core's local timeline.

A synapse core finds a packet's synaptic row as the machine does: the key's
routing prefix (the source population) selects a block of rows through the
core's master population table, and the key's low 15 bits (sub-population
and neuron id) index the row inside it.  The rows of every synapse core sit
in one CSR, ``SynapticStore``, built in a single vectorised pass.

The whole machine advances in a single deterministic virtual timeline:
identical inputs give identical traces and profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrices, trace, weights
from .kinetics import advance_state
from .clocks import ClockConfig, MachineClocks
from .costs import CostModel
from .machine import MachineSpec, auto_machine
from .mapping import (NEURON_BITS, ROLE_NEURON, ROLE_POISSON, ROLE_SYN_EXC_LOWER,
                      ROLE_SYN_EXC_UPPER, ROLE_SYN_INH, SUBPOP_BITS, SYNAPSE_ROLES, Ensemble,
                      Placement, PlacementError, allocate_keys, build_routing_tables,
                      delivery_map, destination_cores, partition, place_radial,
                      subpops_per_population)
from .network import NetworkModel


class SchedulingError(RuntimeError):
    """A core's fixed work cannot fit its timer period."""


RING_SLOTS = 256  # 255 future slots + the one being consumed
ROW_BITS = NEURON_BITS + SUBPOP_BITS  # key bits below the routing prefix
ROW_MASK = (1 << ROW_BITS) - 1


@dataclass
class SynapticStore:
    """Synaptic rows of every synapse core, held as one CSR.

    Row r spans ``row_ptr[r]:row_ptr[r + 1]`` of three parallel arrays:
    ``targets`` (neuron index on the target core), ``units`` (accumulator
    units) and ``delays`` (timesteps).  Synapse core c owns one block of
    ``n_subpops * 64`` rows for every source population routed to it, as the
    machine's master population table lays them out: ``base[c]`` maps a
    packet key's routing prefix (``key >> 15``, the source population) to the
    first row of its block, and the key's low 15 bits (sub-population and
    neuron id) select the row inside the block.
    """

    row_ptr: np.ndarray
    targets: np.ndarray
    units: np.ndarray
    delays: np.ndarray
    base: list[dict[int, int]]


def build_synaptic_store(encoded: list[matrices.EncodedProjection],
                         ensembles: list[Ensemble], placement: Placement,
                         dmap: dict, npc: int) -> SynapticStore:
    """Pack the encoded projections into one CSR in a single vectorised pass.

    Synapse core ``3 * ensemble + k`` serves role ``SYNAPSE_ROLES[k]``.  Each
    source ensemble's role (inhibitory, lower or upper excitatory half) is
    read off the cores the delivery map sends its packets to, so the split
    rule stays in ``mapping``.  Rows of one projection keep synapse order, and
    a row fed by several projections holds them in projection order.
    """
    n_cores = 3 * len(ensembles)
    n_subs = subpops_per_population(ensembles)
    n_pops = max(n_subs) + 1
    core_index = {placement.core_ref(e.index, role): 3 * e.index + k
                  for e in ensembles for k, role in enumerate(SYNAPSE_ROLES)}
    reach = np.zeros((n_cores, n_pops), dtype=bool)
    role_of_src = np.full(len(ensembles), -1, dtype=np.int64)
    for e in ensembles:
        for chip, core, _ in dmap[e.index]:
            ci = core_index[(chip, core)]
            reach[ci, e.pop] = True
            role_of_src[e.index] = ci % 3
    block_rows = np.array([n_subs.get(p, 0) for p in range(n_pops)]) << NEURON_BITS
    sizes = np.where(reach, block_rows, 0)
    starts = np.where(reach, np.cumsum(sizes).reshape(n_cores, n_pops) - sizes, -1)
    base: list[dict[int, int]] = [{} for _ in range(n_cores)]
    for ci, pop in zip(*np.nonzero(reach)):
        base[ci][int(pop)] = int(starts[ci, pop])

    ens_start = np.zeros(n_pops, dtype=np.int64)
    for e in reversed(ensembles):
        ens_start[e.pop] = e.index
    empty = np.zeros(0, dtype=np.int64)  # keeps concatenate valid with no projections
    row_ids, targets, units, delays = [empty], [empty], [empty], [empty]
    for enc in encoded:
        src_sub, src_nid = np.divmod(enc.pre_local, npc)
        role = role_of_src[ens_start[enc.source_pop] + src_sub]
        core = 3 * (ens_start[enc.target_pop] + enc.post_local // npc) + role
        block = np.where(role >= 0, starts[core, enc.source_pop], -1)
        if (block < 0).any():
            raise RuntimeError(f"projection {enc.proj_index}: synapses on a core "
                               "that no packet of their source reaches")
        row_ids.append(block + (src_sub << NEURON_BITS) + src_nid)
        targets.append(enc.post_local % npc)
        units.append(enc.units)
        delays.append(enc.delays)
    row_id = np.concatenate(row_ids)
    order = np.argsort(row_id, kind="stable")
    row_ptr = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_id, minlength=row_ptr.size - 1), out=row_ptr[1:])
    return SynapticStore(row_ptr, np.concatenate(targets)[order],
                         np.concatenate(units)[order], np.concatenate(delays)[order], base)


class ProfileStore:
    """Per-core per-timestep accounting as column arrays."""

    COLUMNS = ("received", "processed", "flushed", "zero_target", "kickstarts", "busy_us")

    def __init__(self, core_meta: list[tuple[tuple[int, int], int, str, int]], n_steps: int):
        self.core_meta = core_meta
        n = len(core_meta)
        self.received = np.zeros((n, n_steps), dtype=np.int32)
        self.processed = np.zeros((n, n_steps), dtype=np.int32)
        self.flushed = np.zeros((n, n_steps), dtype=np.int32)
        self.zero_target = np.zeros((n, n_steps), dtype=np.int32)
        self.kickstarts = np.zeros((n, n_steps), dtype=np.int32)
        self.busy_us = np.zeros((n, n_steps), dtype=np.float64)
        self.processed_events = np.zeros((n, n_steps), dtype=np.int64)
        self.flushed_events = np.zeros((n, n_steps), dtype=np.int64)

    def label(self, row: int) -> str:
        (x, y), core, _, _ = self.core_meta[row]
        return f"{x},{y},{core}"

    def totals(self) -> dict:
        return {
            "received": int(self.received.sum()),
            "processed": int(self.processed.sum()),
            "flushed": int(self.flushed.sum()),
            "zero_target": int(self.zero_target.sum()),
            "processed_events": int(self.processed_events.sum()),
            "flushed_events": int(self.flushed_events.sum()),
            "max_flushed_in_timestep": int(self.flushed.max()) if self.flushed.size else 0,
        }

    def serialize(self) -> str:
        lines = ["# core_id timestep received processed flushed zero_target kickstarts busy_us"]
        n_steps = self.received.shape[1]
        for row in range(len(self.core_meta)):
            label = self.label(row)
            for t in range(n_steps):
                lines.append(
                    f"{label} {t} {self.received[row, t]} {self.processed[row, t]} "
                    f"{self.flushed[row, t]} {self.zero_target[row, t]} "
                    f"{self.kickstarts[row, t]} {self.busy_us[row, t]:.4f}")
        return "\n".join(lines) + "\n"

    def serialize_events(self) -> str:
        lines = ["# core_id timestep processed_events flushed_events"]
        n_steps = self.received.shape[1]
        for row in range(len(self.core_meta)):
            label = self.label(row)
            for t in range(n_steps):
                lines.append(f"{label} {t} {self.processed_events[row, t]} "
                             f"{self.flushed_events[row, t]}")
        return "\n".join(lines) + "\n"


class SynapseCoreState:
    """Runtime state of one synapse core: its input spike buffer, its slice of
    the ring buffers and its master population table (``base``: source
    population -> first row of that population's block in the shared
    ``SynapticStore``)."""

    __slots__ = ("ensemble", "role", "chip", "core_id", "rate", "ring", "store", "base",
                 "chip_syn_cores", "pending", "carry", "profile_row", "chip_row")

    def __init__(self, ensemble: Ensemble, role: str, chip, core_id: int,
                 ring: np.ndarray, store: SynapticStore, base: dict[int, int],
                 chip_syn_cores: int, profile_row: int):
        self.ensemble = ensemble
        self.role = role
        self.chip = chip
        self.core_id = core_id
        self.ring = ring          # (RING_SLOTS, neurons) integer accumulators
        self.store = store
        self.base = base
        self.chip_syn_cores = chip_syn_cores
        self.pending: list[tuple] = []  # (arrival_us, sx, sy, score, key, emit_step)
        self.carry = 0.0
        self.profile_row = profile_row
        self.chip_row = 0
        self.rate = 1.0

    def _row_span(self, key: int) -> list[int]:
        """[lo, hi) of the packet's synaptic row in the store."""
        base = self.base.get(key >> ROW_BITS)
        if base is None:
            raise RuntimeError(f"core {self.chip}/{self.core_id}: packet key 0x{key:08x} "
                               "has no master population table entry")
        row = base + (key & ROW_MASK)
        return self.store.row_ptr[row:row + 2].tolist()

    def run_window(self, t: int, window_start: float, deadline: float,
                   costs: CostModel) -> tuple:
        """Process buffered packets until the pre-deadline timer event, flush
        the rest, then write the next slot (DMA B).  Times are global us;
        costs are local core us (scaled by the chip's crystal rate)."""
        pend = self.pending
        targets, units, delays = self.store.targets, self.store.units, self.store.delays
        if len(pend) > 1:
            pend.sort()
        wcost = costs.sdram_write_us(self.chip_syn_cores)
        margin_g = costs.second_timer_margin_us / self.rate
        busy = max(window_start, window_start - margin_g + wcost / self.rate, self.carry)
        processed = flushed = zero = kick = 0
        ev_p = ev_f = late = 0
        busy_us = 0.0
        idx, n = 0, len(pend)
        while idx < n:
            pkt = pend[idx]
            arr = pkt[0]
            if arr >= deadline:
                break
            begin = arr if arr > busy else busy
            if begin >= deadline:
                break
            lo, hi = self._row_span(pkt[4])
            words = hi - lo
            cost_local = costs.packet_processing_us(words, self.chip_syn_cores)
            if busy <= arr:
                kick += 1
                cost_local += costs.pipeline_kickstart_us
            busy = begin + cost_local / self.rate
            busy_us += cost_local
            processed += 1
            ev_p += words
            if words == 0:
                zero += 1
            else:
                np.add.at(self.ring, ((t + delays[lo:hi]) & (RING_SLOTS - 1), targets[lo:hi]),
                          units[lo:hi])
            if pkt[5] != t:
                late += 1
            idx += 1
        j = idx
        while j < n and pend[j][0] < deadline:
            lo, hi = self._row_span(pend[j][4])
            ev_f += hi - lo
            flushed += 1
            j += 1
        del pend[:j]
        busy_us += wcost
        dma_b_end = deadline + wcost / self.rate
        self.carry = busy if busy > dma_b_end else dma_b_end
        return processed + flushed, processed, flushed, zero, kick, busy_us, ev_p, ev_f, late


@dataclass(frozen=True)
class Seeds:
    poisson: int = 1
    drift: int = 2


@dataclass
class RunResult:
    trace: trace.SpikeTrace
    profile: ProfileStore
    sync_diagnostics: "object"
    late_packets: int
    poisson_saturations: int

    def flush_totals(self) -> dict:
        return self.profile.totals()


class HardwareSimulation:
    """Build and run the machine model for one network."""

    def __init__(self, network: NetworkModel, machine: MachineSpec | None = None,
                 costs: CostModel | None = None, clock_cfg: ClockConfig | None = None,
                 seeds: Seeds = Seeds(), slowdown: float = 1.0,
                 neurons_per_core: int = 64):
        if slowdown < 1.0:
            raise ValueError("slow-down multiplier must be >= 1")
        if network.projections is None:
            raise ValueError("hardware simulation needs sampled synapses")
        self.network = network
        self.costs = costs or CostModel()
        self.costs.validate()
        self.clock_cfg = clock_cfg or ClockConfig(drift_bound_ppm=0.0)
        self.seeds = seeds
        self.slowdown = float(slowdown)
        self.npc = neurons_per_core

        self.ensembles = partition(network, neurons_per_core)
        self.machine, self.placement = _place(self.ensembles, machine)
        self.keys = allocate_keys(self.placement)
        self.dests = destination_cores(self.placement, network.spec.projections)
        self.tables = build_routing_tables(self.placement, self.keys, self.dests)
        self.dmap = delivery_map(self.placement, self.keys, self.tables, self.dests)

        self.scales = matrices.accumulator_scales(network)
        self._build_state(matrices.encode_projections(network, self.scales))
        self._check_schedule()

    # -- construction -------------------------------------------------------

    def _build_state(self, encoded: list[matrices.EncodedProjection]) -> None:
        ens = self.ensembles
        n_ens = len(ens)
        npc = self.npc

        pop_of_pad = np.full(n_ens * npc, -1, dtype=np.int64)
        self.global_of_pad = np.full(n_ens * npc, -1, dtype=np.int64)
        for e in ens:
            lo = e.index * npc
            pop_of_pad[lo:lo + e.count] = e.pop
            base = int(self.network.offsets[e.pop]) + e.neuron_lo
            self.global_of_pad[lo:lo + e.count] = np.arange(base, base + e.count)
        self.pop_of_pad = pop_of_pad
        self.consts = matrices.expand_constants(self.network, self.scales, pop_of_pad)

        # shared-memory images, one 64-wide row per ensemble
        self.sdram = {kind: np.zeros((n_ens, npc), dtype=np.int64)
                      for kind in ("exc_lower", "exc_upper", "inh", "poisson")}

        # profile rows for every modeled core, ordered by (chip, core id)
        core_meta = []
        for chip in sorted(self.placement.roster):
            for core, e_idx, role in sorted(self.placement.roster[chip]):
                core_meta.append((chip, core, role, e_idx))
        self.core_meta = core_meta
        self._profile_row = {(meta[3], meta[2]): i for i, meta in enumerate(core_meta)}

        chip_syn_count = {chip: sum(1 for _, _, role in cores if role in SYNAPSE_ROLES)
                          for chip, cores in self.placement.roster.items()}
        self.chip_syn_count = chip_syn_count

        self.store = build_synaptic_store(encoded, ens, self.placement, self.dmap, npc)
        self.ring_data = np.zeros((n_ens * 3, RING_SLOTS, npc), dtype=np.int64)
        self.syn_cores: list[SynapseCoreState] = []
        kind_of_role = {ROLE_SYN_EXC_LOWER: "exc_lower", ROLE_SYN_EXC_UPPER: "exc_upper",
                        ROLE_SYN_INH: "inh"}
        self._ring_kind_rows = {kind: [] for kind in kind_of_role.values()}
        self._ring_core_ids = {kind: [] for kind in kind_of_role.values()}
        for e in ens:
            for k, role in enumerate(SYNAPSE_ROLES):
                chip, core = self.placement.core_ref(e.index, role)
                ci = e.index * 3 + k
                sc = SynapseCoreState(e, role, chip, core, self.ring_data[ci], self.store,
                                      self.store.base[ci], chip_syn_count[chip],
                                      self._profile_row[(e.index, role)])
                self.syn_cores.append(sc)
                kind = kind_of_role[role]
                self._ring_kind_rows[kind].append(e.index)
                self._ring_core_ids[kind].append(ci)
        for kind in self._ring_kind_rows:
            self._ring_kind_rows[kind] = np.asarray(self._ring_kind_rows[kind])
            self._ring_core_ids[kind] = np.asarray(self._ring_core_ids[kind])
        self._core_by_ref = {(sc.chip, sc.core_id): sc for sc in self.syn_cores}
        self.dest_cores = {
            e.index: [(self._core_by_ref[(chip, core)], transit_ns * 1e-3)
                      for chip, core, transit_ns in self.dmap[e.index]]
            for e in ens}

        self.chips = sorted(self.placement.roster)
        self._chip_row = {chip: i for i, chip in enumerate(self.chips)}
        self.ens_chip_row = np.array([self._chip_row[self.placement.chip_of[e.index]]
                                      for e in ens], dtype=np.int64)

    def _check_schedule(self) -> None:
        cm = self.costs
        period_local = cm.timer_period_us * self.slowdown
        margin = cm.second_timer_margin_us
        for chip, cores in self.placement.roster.items():
            n_neuron = sum(1 for _, _, r in cores if r == ROLE_NEURON)
            n_syn = self.chip_syn_count[chip]
            for core, e_idx, role in cores:
                e = self.ensembles[e_idx]
                if role == ROLE_NEURON:
                    busy = (cm.neuron_input_read_us + e.count * cm.neuron_update_us
                            + cm.sdram_write_us(n_neuron))
                    if busy > period_local:
                        raise SchedulingError(
                            f"neuron core {chip}/{core}: update ({busy:.2f} us) overruns "
                            f"the {period_local:.2f} us timer period")
                elif role == ROLE_POISSON:
                    if cm.poisson_update_and_transfer_us > period_local:
                        raise SchedulingError(
                            f"poisson core {chip}/{core}: update exceeds the timer period")
            if cm.sdram_write_us(n_syn) > margin:
                raise SchedulingError(
                    f"chip {chip}: ring-buffer write ({cm.sdram_write_us(n_syn):.2f} us) "
                    f"exceeds the pre-deadline margin")

    # -- execution -----------------------------------------------------------

    def run(self, duration_ms: float, discard_ms: float = 0.0,
            with_profile: bool = True) -> RunResult:
        network = self.network
        cm = self.costs
        n_steps = int(round(duration_ms / network.dt_ms))
        bank = matrices.PoissonBank(network, self.seeds.poisson, n_steps)

        period_local_us = cm.timer_period_us * self.slowdown
        clocks = MachineClocks(self.machine, self.clock_cfg, self.seeds.drift,
                               self.chips, period_local_us, cm.clock_hz)
        for sc in self.syn_cores:
            sc.rate = clocks.clocks[sc.chip].rate
            sc.chip_row = self._chip_row[sc.chip]
            sc.pending.clear()
            sc.carry = 0.0
        self.ring_data[:] = 0
        for arr in self.sdram.values():
            arr[:] = 0
        valid = self.global_of_pad >= 0
        self.v = np.zeros(valid.size, dtype=np.float64)
        self.v[valid] = network.v_init_mv[self.global_of_pad[valid]]
        self.i_syn = np.zeros(valid.size, dtype=np.float64)
        self.ref = np.zeros(valid.size, dtype=np.int64)

        profile = ProfileStore(self.core_meta, n_steps if with_profile else 0)
        ens = self.ensembles
        npc = self.npc
        consts = self.consts
        syn_profile_rows = np.array([sc.profile_row for sc in self.syn_cores])
        syn_wcost = np.array([cm.sdram_write_us(sc.chip_syn_cores) for sc in self.syn_cores])

        beacon_steps = max(1, round(self.clock_cfg.beacon_interval_s * 1e6 / period_local_us))

        spike_steps: list[int] = []
        spike_pops: list[int] = []
        spike_neurons: list[int] = []
        late_packets = 0
        poisson_sat = 0

        chip_rates = np.array([clocks.clocks[c].rate for c in self.chips])
        ens_rate = chip_rates[self.ens_chip_row]
        read_g = cm.neuron_input_read_us / ens_rate
        upd_g = cm.neuron_update_us / ens_rate

        for t in range(n_steps):
            starts = np.empty(len(self.chips))
            durations = np.empty(len(self.chips))
            for i, chip in enumerate(self.chips):
                starts[i], durations[i] = clocks.clocks[chip].advance_period()

            # neuron cores: read DMA D image, advance, emit spikes
            exc_units = (self.sdram["exc_lower"] + self.sdram["exc_upper"]).reshape(-1)
            inh_units = self.sdram["inh"].reshape(-1)
            pois_units = self.sdram["poisson"].reshape(-1)
            inputs = weights.combine_input_pa(exc_units, inh_units, pois_units,
                                              consts.exc_factor, consts.inh_factor,
                                              consts.poisson_factor)
            if not np.isfinite(inputs).all():
                bad = int(np.flatnonzero(~np.isfinite(inputs))[0])
                raise ValueError(f"non-finite synaptic input for padded neuron {bad}")
            self.v, self.i_syn, self.ref, fired = _advance(
                self.v, self.i_syn, self.ref, inputs, consts)

            for g in np.flatnonzero(fired):
                e_idx = g // npc
                local = g - e_idx * npc
                e = ens[e_idx]
                spike_steps.append(t)
                spike_pops.append(e.pop)
                spike_neurons.append(e.neuron_lo + local)
                dests = self.dest_cores[e_idx]
                if not dests:
                    continue
                chip_row = self.ens_chip_row[e_idx]
                send = starts[chip_row] + read_g[e_idx] + (local + 1) * upd_g[e_idx]
                chip = self.chips[chip_row]
                score = self.placement.core_of[(e_idx, ROLE_NEURON)]
                key = self.keys.prefix_of[e_idx] | int(local)
                for sc, transit_us in dests:
                    sc.pending.append((send + transit_us, chip[0], chip[1], score, key, t))

            # poisson cores sample and write the next step's buffer (DMA C)
            for e in ens:
                if not e.has_poisson:
                    continue
                units, clipped = bank.units_slice(e.pop, e.neuron_lo, e.count, t)
                self.sdram["poisson"][e.index, :e.count] = units
                poisson_sat += clipped

            # synapse cores: spike processing window, flush, DMA B accounting
            if with_profile:
                profile.busy_us[syn_profile_rows, t] = syn_wcost
            for sc in self.syn_cores:
                if not sc.pending:
                    continue
                row_chip = sc.chip_row
                deadline = (starts[row_chip] + durations[row_chip]
                            - cm.second_timer_margin_us / sc.rate)
                counters = sc.run_window(t, starts[row_chip], deadline, cm)
                late_packets += counters[8]
                if with_profile:
                    r = sc.profile_row
                    profile.received[r, t] = counters[0]
                    profile.processed[r, t] = counters[1]
                    profile.flushed[r, t] = counters[2]
                    profile.zero_target[r, t] = counters[3]
                    profile.kickstarts[r, t] = counters[4]
                    profile.busy_us[r, t] = counters[5]
                    profile.processed_events[r, t] = counters[6]
                    profile.flushed_events[r, t] = counters[7]

            # ring-buffer handover: slot for t+1 moves to shared memory
            out = self.ring_data[:, (t + 1) & (RING_SLOTS - 1), :]
            for kind in ("exc_lower", "exc_upper", "inh"):
                self.sdram[kind][self._ring_kind_rows[kind]] = out[self._ring_core_ids[kind]]
            out[:] = 0

            if self.clock_cfg.protocol_enabled and (t + 1) % beacon_steps == 0:
                clocks.run_round(record=True)

        if with_profile:
            self._fill_constant_busy(profile)

        pop_names = [p.name for p in network.populations]
        pop_sizes = [p.size for p in network.populations]
        pop_pol = [p.polarity for p in network.populations]
        spike_trace = trace.from_step_records(spike_steps, spike_pops, spike_neurons,
                                              n_steps, network.dt_ms, pop_names, pop_sizes,
                                              pop_pol, discard_ms).sorted()
        return RunResult(spike_trace, profile, clocks.diagnostics, late_packets, poisson_sat)

    def _fill_constant_busy(self, profile: ProfileStore) -> None:
        cm = self.costs
        for row, (chip, core, role, e_idx) in enumerate(self.core_meta):
            e = self.ensembles[e_idx]
            n_neuron = sum(1 for _, _, r in self.placement.roster[chip] if r == ROLE_NEURON)
            n_pois = sum(1 for _, _, r in self.placement.roster[chip] if r == ROLE_POISSON)
            if role == ROLE_NEURON:
                profile.busy_us[row, :] = (cm.neuron_input_read_us
                                           + e.count * cm.neuron_update_us
                                           + cm.sdram_write_us(n_neuron))
            elif role == ROLE_POISSON:
                profile.busy_us[row, :] = cm.poisson_update_and_transfer_us


def _advance(v, i_syn, ref, inputs, consts: matrices.NeuronConstants):
    return advance_state(v, i_syn, ref, inputs, consts.decay_v, consts.decay_i,
                         consts.kernel, consts.e_eff, consts.v_reset, consts.v_theta,
                         consts.ref_steps)


def _place(ensembles, machine: MachineSpec | None):
    if machine is not None:
        return machine, place_radial(ensembles, machine)
    total_cores = sum(e.n_cores for e in ensembles)
    need = -(-total_cores // 16)
    while True:
        candidate = auto_machine(need)
        try:
            return candidate, place_radial(ensembles, candidate)
        except PlacementError:
            need = candidate.n_chips() + 1
            if need > 4096:
                raise
