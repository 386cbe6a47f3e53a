"""Partitioning, placement, key allocation and multicast routing tables.

A population splits into 64-neuron sub-populations; each becomes an
*ensemble* of cooperating cores on one chip: a neuron core, two excitatory
synapse cores (lower/upper source halves), one inhibitory synapse core, and
a Poisson core when the population has Poisson background.  Spike packets
carry a 32-bit source key (6-bit neuron id | 9-bit sub-population | 17
routing bits); routers deliver each key to exactly the synapse cores its
population-level projections prescribe.

Routing entries are generated per source core along deterministic
minimal-hop paths (diagonal-first), then compressed by default-route
elision (straight pass-through entries dropped) and mask merging of
sibling sub-population entries with identical actions.  The merged table
depends on the merge order, which is fixed: always the smallest
``(key, mask)`` that has a partner with the same action, at its lowest
mergeable sub-population bit (see ``_merge_entries``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .machine import MachineSpec, LINKS

NEURON_BITS = 6
SUBPOP_BITS = 9
ROUTE_FIELD_BITS = 17
NEURONS_PER_CORE = 1 << NEURON_BITS
MAX_SUBPOPS = 1 << SUBPOP_BITS
CORE_MASK = 0xFFFFFFFF ^ (NEURONS_PER_CORE - 1)  # match route + subpop fields
_SUBPOP_FIELD = tuple(1 << b for b in range(NEURON_BITS, NEURON_BITS + SUBPOP_BITS))

ROLE_NEURON = "neuron"
ROLE_POISSON = "poisson"
ROLE_SYN_EXC_LOWER = "syn_exc_lower"
ROLE_SYN_EXC_UPPER = "syn_exc_upper"
ROLE_SYN_INH = "syn_inh"
SYNAPSE_ROLES = (ROLE_SYN_EXC_LOWER, ROLE_SYN_EXC_UPPER, ROLE_SYN_INH)


class PlacementError(RuntimeError):
    pass


class KeyOverflowError(RuntimeError):
    pass


class RoutingError(RuntimeError):
    pass


class RoutingTableOverflowError(RoutingError):
    pass


def pack_key(route_bits: int, subpop: int, neuron_id: int) -> int:
    if not 0 <= neuron_id < NEURONS_PER_CORE:
        raise KeyOverflowError(f"neuron id {neuron_id} exceeds {NEURON_BITS} bits")
    if not 0 <= subpop < MAX_SUBPOPS:
        raise KeyOverflowError(f"sub-population {subpop} exceeds {SUBPOP_BITS} bits")
    if not 0 <= route_bits < (1 << ROUTE_FIELD_BITS):
        raise KeyOverflowError(f"route bits {route_bits} exceed {ROUTE_FIELD_BITS} bits")
    return (route_bits << (NEURON_BITS + SUBPOP_BITS)) | (subpop << NEURON_BITS) | neuron_id


@dataclass(frozen=True)
class Ensemble:
    index: int
    pop: int             # population index in network order
    pop_name: str
    polarity: str
    subpop: int
    neuron_lo: int       # population-local index of first neuron
    count: int           # neurons on this ensemble's neuron core
    has_poisson: bool

    @property
    def roles(self) -> tuple[str, ...]:
        base = (ROLE_NEURON,) + ((ROLE_POISSON,) if self.has_poisson else ())
        return base + SYNAPSE_ROLES

    @property
    def n_cores(self) -> int:
        return 5 if self.has_poisson else 4


def partition(network) -> list[Ensemble]:
    """Split populations into ``NEURONS_PER_CORE``-neuron sub-populations and
    build ensembles; the key layout fixes the core size."""
    from .network import PoissonInput  # local import avoids cycle at module load
    ensembles = []
    for pop_idx, pop in enumerate(network.populations):
        n_sub = -(-pop.size // NEURONS_PER_CORE)
        if n_sub > MAX_SUBPOPS:
            raise KeyOverflowError(
                f"population {pop.name} needs {n_sub} sub-populations; "
                f"key layout allows {MAX_SUBPOPS}")
        has_poisson = isinstance(pop.background, PoissonInput)
        for sub in range(n_sub):
            lo = sub * NEURONS_PER_CORE
            count = min(NEURONS_PER_CORE, pop.size - lo)
            ensembles.append(Ensemble(len(ensembles), pop_idx, pop.name, pop.polarity,
                                      sub, lo, count, has_poisson))
    return ensembles


def neuron_slots(ensembles: list[Ensemble]) -> tuple[np.ndarray, np.ndarray]:
    """``(ens_of, nid_of)`` per global neuron: its ensemble and its index on
    the ensemble's neuron core (the key's neuron id).  The ensembles cover the
    neurons in global order."""
    counts = [e.count for e in ensembles]
    ens_of = np.repeat(np.arange(len(ensembles), dtype=np.int64), counts)
    nid_of = np.arange(ens_of.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return ens_of, nid_of


def subpops_per_population(ensembles: list[Ensemble]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for e in ensembles:
        counts[e.pop] = max(counts.get(e.pop, 0), e.subpop + 1)
    return counts


def is_lower_half(ensemble: Ensemble, n_subpops: int) -> bool:
    """Lower-half sub-populations feed the lower excitatory synapse core."""
    return ensemble.subpop < (n_subpops + 1) // 2


@dataclass
class Placement:
    machine: MachineSpec
    ensembles: list[Ensemble]
    chip_of: list[tuple[int, int]]                  # per ensemble
    core_of: dict[tuple[int, str], int]             # (ensemble index, role) -> core id
    roster: dict[tuple[int, int], list[tuple[int, int, str]]]  # chip -> (core, ens, role)

    def chips_used(self) -> list[tuple[int, int]]:
        return sorted(self.roster)

    def cores_used(self) -> int:
        return sum(len(v) for v in self.roster.values())

    def core_ref(self, ensemble: int, role: str) -> tuple[tuple[int, int], int]:
        return self.chip_of[ensemble], self.core_of[(ensemble, role)]

    def ensembles_per_chip(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for e_idx, chip in enumerate(self.chip_of):
            out[chip] = out.get(chip, 0) + 1
        return out

    def serialize(self) -> str:
        lines = ["# ensemble pop subpop chip_x chip_y core role"]
        for e in self.ensembles:
            chip = self.chip_of[e.index]
            for role in e.roles:
                core = self.core_of[(e.index, role)]
                lines.append(f"{e.index} {e.pop_name} {e.subpop} "
                             f"{chip[0]} {chip[1]} {core} {role}")
        return "\n".join(lines) + "\n"


def place_radial(ensembles: list[Ensemble], machine: MachineSpec) -> Placement:
    """Fill chips with whole ensembles along the outward spiral from (0, 0)."""
    machine.validate()
    order = machine.radial_order()
    chip_iter = iter(order)
    chip = None
    free = 0
    next_core = 2  # 0 = monitor, 1 = system
    chip_of: list[tuple[int, int]] = []
    core_of: dict[tuple[int, str], int] = {}
    roster: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    for e in ensembles:
        while free < e.n_cores:
            chip = next(chip_iter, None)
            if chip is None:
                raise PlacementError(
                    f"machine capacity exhausted before placing ensemble "
                    f"{e.pop_name}/{e.subpop}")
            free = machine.usable_cores(chip)
            next_core = 2
        chip_of.append(chip)
        for role in e.roles:
            core_of[(e.index, role)] = next_core
            roster.setdefault(chip, []).append((next_core, e.index, role))
            next_core += 1
        free -= e.n_cores
    return Placement(machine, ensembles, chip_of, core_of, roster)


@dataclass(frozen=True)
class KeyAllocation:
    """Per-ensemble key prefixes: route bits identify the population, the
    sub-population field the core, the low bits the firing neuron."""

    prefix_of: tuple[int, ...]  # per ensemble


def allocate_keys(placement: Placement) -> KeyAllocation:
    prefixes = []
    for e in placement.ensembles:
        prefixes.append(pack_key(e.pop, e.subpop, 0))
    return KeyAllocation(tuple(prefixes))


# ---------------------------------------------------------------------------
# Destination sets (population-level projections + the lower/upper split)

def destination_cores(placement: Placement, projections) -> dict[int, set[tuple[tuple[int, int], int]]]:
    """Per source ensemble: the synapse cores its spike packets must reach.

    ``projections`` is any iterable with .source/.target population names.
    Routing is population-level: a packet goes to every target ensemble's
    matching synapse core whether or not sampled synapses exist there, so
    every ensemble of one (population, synapse role) shares one set; each
    ensemble gets its own copy of it.
    """
    by_name: dict[str, list[Ensemble]] = {}
    for e in placement.ensembles:
        by_name.setdefault(e.pop_name, []).append(e)
    targets_of: dict[str, set[str]] = {}
    for proj in projections:
        targets_of.setdefault(proj.source, set()).add(proj.target)
    n_subs = subpops_per_population(placement.ensembles)

    shared: dict[tuple[int, str], set[tuple[tuple[int, int], int]]] = {}
    dests: dict[int, set[tuple[tuple[int, int], int]]] = {}
    for e in placement.ensembles:
        if e.polarity == "inh":
            role = ROLE_SYN_INH
        else:
            role = ROLE_SYN_EXC_LOWER if is_lower_half(e, n_subs[e.pop]) else ROLE_SYN_EXC_UPPER
        out = shared.get((e.pop, role))
        if out is None:
            out = shared[(e.pop, role)] = {
                placement.core_ref(f.index, role)
                for target_name in targets_of.get(e.pop_name, ())
                for f in by_name.get(target_name, ())}
        dests[e.index] = set(out)
    return dests


# ---------------------------------------------------------------------------
# Routing tables

@dataclass(frozen=True)
class RoutingEntry:
    key: int
    mask: int
    cores: frozenset[int]   # local delivery
    links: frozenset[int]   # outgoing links

    def matches(self, key: int) -> bool:
        return (key & self.mask) == self.key

    def describe(self) -> str:
        targets = [f"core:{c}" for c in sorted(self.cores)]
        targets += [f"link:{LINKS[l]}" for l in sorted(self.links)]
        return ",".join(targets) if targets else "-"


@dataclass
class RoutingTables:
    machine: MachineSpec
    entries: dict[tuple[int, int], list[RoutingEntry]] = field(default_factory=dict)

    def entry_counts(self) -> dict[tuple[int, int], int]:
        return {chip: len(rows) for chip, rows in self.entries.items()}

    def serialize(self) -> str:
        lines = ["# chip_x chip_y index key mask targets"]
        for chip in sorted(self.entries):
            for i, e in enumerate(self.entries[chip]):
                lines.append(f"{chip[0]} {chip[1]} {i} 0x{e.key:08x} 0x{e.mask:08x} "
                             f"{e.describe()}")
        return "\n".join(lines) + "\n"


def build_routing_tables(placement: Placement, keys: KeyAllocation,
                         dests: dict[int, set[tuple[tuple[int, int], int]]]) -> RoutingTables:
    machine = placement.machine
    # (chip) -> {(key, mask) -> (local cores, links)}
    raw: dict[tuple[int, int], dict[tuple[int, int], tuple[frozenset, frozenset]]] = {}
    # The route tree of the last ensemble: placement fills chips one after
    # another, so ensembles sharing a source chip and destination chips are
    # neighbours in ensemble order.
    tree_of: tuple | None = None
    tree: list[tuple[tuple[int, int], frozenset[int]]] = []

    for e in placement.ensembles:
        if not dests.get(e.index):
            continue  # population with no outgoing projections sends nothing
        src_chip = placement.chip_of[e.index]
        prefix = keys.prefix_of[e.index]
        by_chip: dict[tuple[int, int], set[int]] = {}
        for chip, core in dests[e.index]:
            by_chip.setdefault(chip, set()).add(core)

        dchips = frozenset(by_chip)
        if tree_of != (src_chip, dchips):
            tree_of = (src_chip, dchips)
            tree = _route_tree(machine, src_chip, dchips)
        for chip, links in tree:
            raw.setdefault(chip, {})[(prefix, CORE_MASK)] = (
                frozenset(by_chip.get(chip, ())), links)

    tables = RoutingTables(machine)
    for chip in sorted(raw):  # an overflow names the lowest overflowing chip
        merged = _merge_entries(raw[chip])
        rows = [RoutingEntry(k, m, c, l) for (k, m), (c, l) in merged.items()]
        rows.sort(key=lambda r: (-bin(r.mask).count("1"), r.key))
        limit = machine.routing_entries_per_chip
        if len(rows) > limit:
            raise RoutingTableOverflowError(
                f"chip {chip}: {len(rows)} routing entries exceed the limit of {limit}")
        tables.entries[chip] = rows
    return tables


def _route_tree(machine: MachineSpec, src_chip: tuple[int, int],
                dest_chips: frozenset[tuple[int, int]]
                ) -> list[tuple[tuple[int, int], frozenset[int]]]:
    """The chips that need an entry for packets from ``src_chip`` to every
    chip in ``dest_chips``, with their outgoing links.

    The tree is the union of canonical paths from the source; per-chip
    arrival direction is unique because every path to a chip shares the same
    prefix.  Straight pass-through chips are left to default routing.
    """
    out_links: dict[tuple[int, int], set[int]] = {src_chip: set()}
    arrival_dir: dict[tuple[int, int], int] = {}
    for dchip in dest_chips:
        here = src_chip
        for link in machine.route_links(src_chip, dchip):
            nxt = machine.neighbor(here, link)
            out_links.setdefault(here, set()).add(link)
            prev = arrival_dir.setdefault(nxt, link)
            if prev != link:
                raise RoutingError(f"route tree conflict at chip {nxt}")
            out_links.setdefault(nxt, set())
            here = nxt
    tree = []
    for chip, links in out_links.items():
        if chip not in dest_chips:
            if not links:
                continue
            if chip != src_chip and links == {arrival_dir[chip]}:
                continue  # straight pass-through: default routing handles it
        tree.append((chip, frozenset(links)))
    return tree


def _merge_entries(slots: dict[tuple[int, int], tuple[frozenset, frozenset]]
                   ) -> dict[tuple[int, int], tuple[frozenset, frozenset]]:
    """Merge sibling entries differing in one masked sub-population bit when
    their actions, ``(local cores, links)``, are identical, to a fixed point.

    The merge order is part of the output: each merge takes the smallest
    ``(key, mask)`` that has a partner with the same action, at its lowest
    mergeable sub-population bit, and the merged entry goes to the end of the
    dict (which orders ties in the final row sort).  A min-heap of candidate
    ``(key, mask)`` pairs keeps that order without rescanning the table: an
    entry only gains a partner when a merge creates that partner, so after
    each merge the new entry and the existing entries that may pair with it
    are pushed, and a popped entry that is gone or has no partner is dropped.
    """
    entries = dict(slots)
    heap = list(entries)
    heapq.heapify(heap)
    while heap:
        key, mask = heapq.heappop(heap)
        action = entries.get((key, mask))
        if action is None:
            continue
        for bit in _SUBPOP_FIELD:
            if not mask & bit or key & bit:
                continue
            partner = (key | bit, mask)
            if entries.get(partner) == action:
                del entries[(key, mask)]
                del entries[partner]
                mask &= ~bit
                entries[(key, mask)] = action
                heapq.heappush(heap, (key, mask))
                for b in _SUBPOP_FIELD:
                    if key & b and (key ^ b, mask) in entries:
                        heapq.heappush(heap, (key ^ b, mask))
                break
    return entries


def walk_packet(tables: RoutingTables, src_chip: tuple[int, int], key: int
                ) -> dict[tuple[tuple[int, int], int], float]:
    """Simulate the router table walk for one injected packet.

    Returns {(chip, core): transit_ns}.  Raises RoutingError on ambiguous
    matches, unroutable injection, falling off the mesh, or loops.
    """
    machine = tables.machine
    deliveries: dict[tuple[tuple[int, int], int], float] = {}
    frontier = [(src_chip, None, 0.0)]
    seen: set[tuple[tuple[int, int], int | None]] = set()
    while frontier:
        chip, in_dir, transit = frontier.pop()
        if (chip, in_dir) in seen:
            raise RoutingError(f"routing loop at chip {chip} for key 0x{key:08x}")
        seen.add((chip, in_dir))
        matches = [e for e in tables.entries.get(chip, ()) if e.matches(key)]
        if len(matches) > 1:
            raise RoutingError(f"chip {chip}: {len(matches)} entries match key 0x{key:08x}")
        if matches:
            entry = matches[0]
            for core in entry.cores:
                deliveries[(chip, core)] = transit
            links = entry.links
        elif in_dir is not None:
            links = frozenset((in_dir,))  # default route: continue straight
        else:
            raise RoutingError(f"key 0x{key:08x} injected at {chip} matches no entry")
        for link in links:
            nxt = machine.neighbor(chip, link)
            if nxt is None:
                raise RoutingError(f"key 0x{key:08x} fell off the mesh at {chip}")
            frontier.append((nxt, link, transit + machine.hop_latency_ns(chip, nxt)))
    return deliveries


def delivery_map(placement: Placement, keys: KeyAllocation, tables: RoutingTables,
                 dests: dict[int, set] | None = None
                 ) -> dict[int, list[tuple[tuple[int, int], int, float]]]:
    """Per source ensemble: [(chip, core, transit_ns)] from the table walk.

    One walk per source core suffices: no mask covers neuron-id bits, so all
    keys of a core follow identical routes.
    """
    out: dict[int, list[tuple[tuple[int, int], int, float]]] = {}
    for e in placement.ensembles:
        if dests is not None and not dests.get(e.index):
            out[e.index] = []
            continue
        src_chip = placement.chip_of[e.index]
        delivered = walk_packet(tables, src_chip, keys.prefix_of[e.index])
        rows = [(chip, core, t) for (chip, core), t in sorted(delivered.items())]
        out[e.index] = rows
    return out
