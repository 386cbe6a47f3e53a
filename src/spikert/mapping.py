"""Partitioning, placement, key allocation and multicast routing tables.

A population splits into 64-neuron sub-populations, each run by an
*ensemble* of cores on one chip: a neuron core, a Poisson core when the
population has Poisson background, two excitatory synapse cores
(lower/upper source halves) and one inhibitory synapse core.  The
partition is one table of arrays (``Ensembles``), and the ensembles' key
prefixes one int64 array (``allocate_keys``) of 32-bit keys (6-bit neuron
id | 9-bit sub-population | 17 routing bits); routers deliver each key to
exactly the synapse cores its population-level projections prescribe.

A placement is two arrays, each ensemble's chip and neuron core, and every
other core id is arithmetic on them.  Synapse core ``3 * e + k`` serves
``SYNAPSE_ROLES[k]`` of ensemble e; the planned destinations, the fan-out
the runtime reads, are a CSR of these over source ensembles.

Routing entries come from route trees, each the union of the deterministic
minimal-hop (diagonal-first) paths from one source chip to its destination
chips, all walked at once as arrays (``_route_trees``).  Straight
pass-through chips get no entry (default routing), and sibling
sub-population entries with identical actions merge under a mask.  The
merged table depends on the merge order, which is fixed: one level of
masks at a time, each entry in ascending ``(key, mask)`` order pairs with
the partner at its lowest mergeable sub-population bit that no smaller
entry has taken (see ``_merge_subpops``).  Since a merge pairs only entries
of one chip with equal route bits and action, and its result depends only
on their set of sub-populations, each distinct set is merged once.  Every
chip's table is held as parallel arrays
(``RoutingTables``); ``walk_packet`` walks all packets through them at
once, and ``delivery_map`` checks that this one walk delivers exactly the
planned destinations and gives each its router transit time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import LINK_VECTORS, LINKS, MachineSpec, hop_offsets
from .matrices import ranges

NEURON_BITS = 6
SUBPOP_BITS = 9
ROUTE_FIELD_BITS = 17
NEURONS_PER_CORE = 1 << NEURON_BITS
MAX_SUBPOPS = 1 << SUBPOP_BITS
CORE_MASK = 0xFFFFFFFF ^ (NEURONS_PER_CORE - 1)  # match route + subpop fields
_SUBPOP_FIELD = tuple(1 << b for b in range(NEURON_BITS, NEURON_BITS + SUBPOP_BITS))
_SUBPOP_MASK = sum(_SUBPOP_FIELD)
# the bit of the link that moves a chip by (vx, vy), at [vx + 1, vy + 1]
_HOP_BIT = np.zeros((3, 3), dtype=np.int8)
_HOP_BIT[tuple(np.array(LINK_VECTORS).T + 1)] = 1 << np.arange(len(LINKS))

ROLE_NEURON = "neuron"
ROLE_POISSON = "poisson"
ROLE_SYN_EXC_LOWER = "syn_exc_lower"
ROLE_SYN_EXC_UPPER = "syn_exc_upper"
ROLE_SYN_INH = "syn_inh"
SYNAPSE_ROLES = (ROLE_SYN_EXC_LOWER, ROLE_SYN_EXC_UPPER, ROLE_SYN_INH)
ROLES = (ROLE_NEURON, ROLE_POISSON) + SYNAPSE_ROLES


class PlacementError(RuntimeError):
    pass


class KeyOverflowError(RuntimeError):
    pass


class RoutingError(RuntimeError):
    pass


class RoutingTableOverflowError(RoutingError):
    pass


def pack_key(route_bits, subpop, neuron_id):
    """The key of neuron ``neuron_id`` of sub-population ``subpop`` of the
    population ``route_bits`` names: ints, or int64 arrays of one key each."""
    for value, bits, what in ((neuron_id, NEURON_BITS, "neuron id {} exceeds"),
                              (subpop, SUBPOP_BITS, "sub-population {} exceeds"),
                              (route_bits, ROUTE_FIELD_BITS, "route bits {} exceed")):
        bad = np.flatnonzero(np.right_shift(value, bits))  # negative values too
        if bad.size:
            raise KeyOverflowError(f"{what.format(np.ravel(value)[bad[0]])} {bits} bits")
    return (route_bits << (NEURON_BITS + SUBPOP_BITS)) | (subpop << NEURON_BITS) | neuron_id


@dataclass(frozen=True)
class Ensembles:
    """The partition, one entry per ensemble in ensemble order (populations
    in network order, each by sub-population): int64 arrays ``pop``,
    ``subpop`` (its first neuron is the population's ``subpop *
    NEURONS_PER_CORE``), ``count`` (neurons on its neuron core) and ``n_cores``
    (5 with a Poisson core, else 4); ``pop_names`` and ``polarities`` per population."""

    pop: np.ndarray
    subpop: np.ndarray
    count: np.ndarray
    n_cores: np.ndarray
    pop_names: tuple[str, ...]
    polarities: tuple[str, ...]

    def __len__(self) -> int:
        return self.pop.size

    def cores(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ensemble, offset, role)`` of every core in ensemble order: its
        offset from its neuron core and its index into ``ROLES``, which a
        4-core ensemble's cores skip ``ROLE_POISSON`` of."""
        ens = np.repeat(np.arange(len(self)), self.n_cores)
        offset = ranges(np.zeros_like(self.n_cores), self.n_cores)
        return ens, offset, offset + ((offset > 0) & (self.n_cores[ens] == 4))


def partition(network) -> Ensembles:
    """Split populations into ``NEURONS_PER_CORE``-neuron sub-populations, one
    ensemble each; the key layout fixes the core size."""
    from .network import PoissonInput  # local import avoids cycle at module load
    pops = network.populations
    sizes = np.diff(network.offsets)
    n_sub = -(-sizes // NEURONS_PER_CORE)
    over = np.flatnonzero(n_sub > MAX_SUBPOPS)
    if over.size:
        raise KeyOverflowError(f"population {pops[over[0]].name} needs {n_sub[over[0]]} "
                               f"sub-populations; key layout allows {MAX_SUBPOPS}")
    pop = np.repeat(np.arange(sizes.size), n_sub)
    subpop = ranges(np.zeros_like(n_sub), n_sub)
    count = np.minimum(sizes[pop] - subpop * NEURONS_PER_CORE, NEURONS_PER_CORE)
    n_cores = np.array([5 if isinstance(p.background, PoissonInput) else 4 for p in pops])
    return Ensembles(pop, subpop, count, n_cores[pop], tuple(p.name for p in pops),
                     tuple(p.polarity for p in pops))


def neuron_slots(ensembles: Ensembles) -> tuple[np.ndarray, np.ndarray]:
    """``(ens_of, nid_of)`` per global neuron: its ensemble and its index on
    the ensemble's neuron core (the key's neuron id).  The ensembles cover the
    neurons in global order."""
    count = ensembles.count
    return np.repeat(np.arange(count.size), count), ranges(np.zeros_like(count), count)


@dataclass
class Placement:
    """Ensemble e sits on chip ``chip[e]`` (``x * height + y``) at cores
    ``core[e]``, ``core[e] + 1``, ... in role order (``Ensembles.cores``)."""

    machine: MachineSpec
    ensembles: Ensembles
    chip: np.ndarray
    core: np.ndarray

    def synapse_core_ids(self) -> np.ndarray:
        """The core id of synapse core ``3 * e + k``: ensemble e's last three cores."""
        first = self.core + self.ensembles.n_cores - 3
        return (first[:, None] + np.arange(3)).reshape(-1)

    def serialize(self) -> str:
        ens = self.ensembles
        e, offset, role = ens.cores()
        x, y = np.divmod(self.chip[e], self.machine.height)
        lines = ["# ensemble pop subpop chip_x chip_y core role"]
        lines += [f"{i} {ens.pop_names[p]} {s} {x} {y} {c} {ROLES[r]}"
                  for i, p, s, x, y, c, r in zip(*(a.tolist() for a in (
                      e, ens.pop[e], ens.subpop[e], x, y, self.core[e] + offset, role)))]
        return "\n".join(lines) + "\n"


def place_radial(ensembles: Ensembles, machine: MachineSpec) -> Placement:
    """Fill chips with whole ensembles along the outward spiral from (0, 0)."""
    machine.validate()
    chip_iter = iter(machine.radial_order())
    chip, core = (np.empty(len(ensembles), dtype=np.int64) for _ in range(2))
    free = here = 0
    next_core = 2  # 0 = monitor, 1 = system
    for e, n in enumerate(ensembles.n_cores.tolist()):
        while free < n:
            xy = next(chip_iter, None)
            if xy is None:
                raise PlacementError(
                    f"machine capacity exhausted before placing ensemble "
                    f"{ensembles.pop_names[ensembles.pop[e]]}/{ensembles.subpop[e]}")
            free = machine.usable_cores(xy)
            here, next_core = xy[0] * machine.height + xy[1], 2
        chip[e], core[e] = here, next_core
        next_core += n
        free -= n
    return Placement(machine, ensembles, chip, core)


def allocate_keys(placement: Placement) -> np.ndarray:
    """Each ensemble's int64 key prefix: route bits identify the population,
    the sub-population field the core; the neuron id bits are zero."""
    return pack_key(placement.ensembles.pop, placement.ensembles.subpop, 0)


# ---------------------------------------------------------------------------
# Destinations (population-level projections + the lower/upper split)

def destination_cores(placement: Placement, projections) -> tuple[np.ndarray, np.ndarray]:
    """The planned fan-out, a CSR over source ensembles: the packets of
    ensemble e must reach synapse cores ``dest_core[dest_ptr[e]:dest_ptr[e +
    1]]`` (core ``3 * f + k`` serves ``SYNAPSE_ROLES[k]`` of ensemble f), in
    (chip, core id) order.

    ``projections`` is any iterable with .source/.target population names.
    Routing is population-level: a packet goes to every ensemble of a target
    population, whether or not sampled synapses exist there, at the core of
    its source's role: inhibitory, or lower or upper excitatory for the
    lower or upper half of the source population's sub-populations.
    """
    ens, pop = placement.ensembles, placement.ensembles.pop
    pops = {name: p for p, name in enumerate(ens.pop_names)}
    inh = np.array(ens.polarities) == "inh"
    role = np.where(inh[pop], 2, ens.subpop >= (np.bincount(pop)[pop] + 1) // 2)
    targets = np.zeros((len(pops), len(pops)), dtype=bool)
    for proj in projections:
        targets[pops[proj.source], pops[proj.target]] = True
    by_chip = np.lexsort((placement.core, placement.chip))
    hit = targets[pop][:, pop[by_chip]]  # [source, destination in (chip, core) order]
    n_dest = np.count_nonzero(hit, axis=1)
    dest_core = np.broadcast_to(3 * by_chip, hit.shape)[hit]
    dest_core += np.repeat(role.astype(np.int8), n_dest)
    return np.concatenate(([0], np.cumsum(n_dest))), dest_core


# ---------------------------------------------------------------------------
# Routing tables

@dataclass
class RoutingTables:
    """Every chip's routing table as parallel int64 arrays, one row per
    entry: ``chip`` (``x * height + y``), ``key`` and ``mask`` (a packet key
    k matches when ``k & mask == key``), ``cores`` (bit c delivers to core c)
    and ``links`` (bit l forwards on ``LINKS[l]``).  Chips go in (x, y)
    order, each chip's rows in table order."""

    machine: MachineSpec
    chip: np.ndarray
    key: np.ndarray
    mask: np.ndarray
    cores: np.ndarray
    links: np.ndarray

    def entry_counts(self) -> dict[tuple[int, int], int]:
        chips, counts = np.unique(self.chip, return_counts=True)
        return {divmod(c, self.machine.height): n
                for c, n in zip(chips.tolist(), counts.tolist())}

    def serialize(self) -> str:
        lines = ["# chip_x chip_y index key mask targets"]
        index = np.arange(self.chip.size) - np.searchsorted(self.chip, self.chip)
        x, y = np.divmod(self.chip, self.machine.height)
        cores, links = self.cores.tolist(), self.links.tolist()
        targets = {pair: _targets(*pair) for pair in set(zip(cores, links))}
        lines += [f"{x} {y} {i} 0x{key:08x} 0x{mask:08x} {targets[c, l]}"
                  for x, y, i, key, mask, c, l in zip(*(a.tolist() for a in (
                      x, y, index, self.key, self.mask)), cores, links)]
        return "\n".join(lines) + "\n"


def _targets(cores: int, links: int) -> str:
    """An entry's action as ``routing_tables.txt`` spells it."""
    names = [f"core:{c}" for c in range(cores.bit_length()) if cores >> c & 1]
    names += [f"link:{name}" for link, name in enumerate(LINKS) if links >> link & 1]
    return ",".join(names) or "-"


def build_routing_tables(placement: Placement, keys: np.ndarray, dest_ptr: np.ndarray,
                         dest_core: np.ndarray) -> RoutingTables:
    """Every chip's merged routing table for the fan-out ``destination_cores`` plans.

    An ensemble's packets need an entry ``(prefix, CORE_MASK) -> (cores,
    links)`` at every chip of its route tree: ``cores`` are its destination
    cores on that chip, ``links`` the tree's out-links there.  The ensembles
    of one destination set (all of a (population, synapse role), neighbours
    in ensemble order) share its cores, and those among them on one chip
    share a tree.  The raw entries then merge group by group: a group is the
    entries of one chip that agree in all key bits outside the
    sub-population field and in their action.  A merge only joins entries
    of equal base bits, mask and action, so each group merges alone,
    whatever else the chip's table holds; and within a group the ``(key,
    mask)`` order is the order of the sub-population fields, so its merged
    entries depend only on its set of sub-populations (``_merge_subpops``),
    and each distinct set is merged once.
    """
    machine = placement.machine
    height, n_chips = machine.height, machine.n_chips()

    # a population with no outgoing projections sends nothing
    sends = np.flatnonzero(np.diff(dest_ptr))
    if not sends.size:
        return RoutingTables(machine, *np.zeros((5, 0), dtype=np.int64))
    # per destination set, a run of sending ensembles with equal rows: the
    # core bits it reaches on each chip
    core_id = placement.synapse_core_ids()
    set_of = np.empty(sends.size, dtype=np.int64)
    set_cores, prev = [], None
    for i, (lo, hi) in enumerate(zip(dest_ptr[sends].tolist(), dest_ptr[sends + 1].tolist())):
        row = dest_core[lo:hi]
        if prev is None or not np.array_equal(row, prev):
            set_cores.append(np.zeros(n_chips, dtype=np.int64))
            np.bitwise_or.at(set_cores[-1], placement.chip[row // 3], 1 << core_id[row])
        set_of[i], prev = len(set_cores) - 1, row
    set_cores = np.stack(set_cores)

    # one route tree per distinct (destination chips, source chip)
    chips_id: dict[bytes, int] = {}
    chips_of = np.array([chips_id.setdefault(np.flatnonzero(c).tobytes(), len(chips_id))
                         for c in set_cores])
    trees, tree_of = np.unique(chips_of[set_of] * n_chips + placement.chip[sends],
                               return_inverse=True)
    dest_chips = [np.frombuffer(b, dtype=np.intp) for b in chips_id]
    paths = [dest_chips[c] for c in (trees // n_chips).tolist()]
    tree, chip, links = _route_trees(
        machine, trees % n_chips,
        np.repeat(np.arange(len(paths)), [p.size for p in paths]), np.concatenate(paths))

    # raw entries: each sending ensemble's tree, with its destination cores
    first = np.searchsorted(tree, np.arange(len(paths) + 1))
    n_rows = np.diff(first)[tree_of]
    rows = ranges(first[tree_of], n_rows)
    sender = np.repeat(np.arange(len(sends)), n_rows)
    chip, links = chip[rows], links[rows]
    cores = set_cores[set_of[sender], chip]
    prefix = keys[sends][sender]
    base, sub = prefix & ~_SUBPOP_MASK, prefix >> NEURON_BITS & (MAX_SUBPOPS - 1)

    # the groups, each with its sorted sub-populations, merged once per set
    order = np.lexsort((sub, links, cores, base, chip))
    chip, base, cores, links, sub = (a[order] for a in (chip, base, cores, links, sub))
    starts = np.flatnonzero(np.concatenate(([True], (chip[1:] != chip[:-1])
                                            | (base[1:] != base[:-1])
                                            | (cores[1:] != cores[:-1])
                                            | (links[1:] != links[:-1]))))
    subs = sub.astype(np.int16).tobytes()
    subs_id: dict[bytes, int] = {}
    set_id = np.array([subs_id.setdefault(subs[2 * lo:2 * hi], len(subs_id))
                       for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [sub.size])])
    # each set merged alone: key bits outside the sub-population field zero
    merged = [_merge_subpops(np.frombuffer(b, dtype=np.int16).tolist()) for b in subs_id]
    lens = np.array([len(m) for m in merged], dtype=np.int64)
    merged_key, merged_mask, width = np.array(
        [(k, mk, bin(mk).count("1")) for m in merged for k, mk in m], dtype=np.int64).T
    rows = ranges((np.cumsum(lens) - lens)[set_id], lens[set_id])
    group = np.repeat(starts, lens[set_id])
    chip, key, mask = chip[group], base[group] | merged_key[rows], merged_mask[rows]

    counts = np.bincount(chip, minlength=n_chips)
    limit = machine.routing_entries_per_chip
    over = np.flatnonzero(counts > limit)
    if over.size:  # the lowest overflowing chip
        raise RoutingTableOverflowError(
            f"chip {divmod(int(over[0]), height)}: {counts[over[0]]} routing entries exceed "
            f"the limit of {limit}")
    # each chip's rows by descending mask bit count, then key
    order = np.lexsort((key, -width[rows], chip))
    return RoutingTables(machine, *(a[order] for a in (chip, key, mask, cores[group],
                                                       links[group])))


def _route_trees(machine: MachineSpec, src: np.ndarray, path_tree: np.ndarray,
                 path_dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route tree t carries packets from chip ``src[t]`` to the chips
    ``path_dst[path_tree == t]`` (chip codes ``x * height + y``).  Returns
    ``(tree, chip, links)`` of every chip that needs an entry, in (tree,
    chip) order, with the tree's outgoing links there as bits.

    A tree is the union of the canonical paths from its source, walked for
    all paths at once, one hop per round (``hop_offsets``).  The arrival
    direction at each chip must be unique, since every path to a chip shares
    the same prefix; a conflict raises RoutingError.  Straight pass-through
    chips are left to default routing.
    """
    height, n_chips = machine.height, machine.n_chips()
    sx, sy = np.divmod(src[path_tree], height)
    dx, dy = np.divmod(path_dst, height)
    dx = dx - sx
    dy, hops = machine.canonical_deltas(dx, dy - sy)
    order = np.argsort(-hops, kind="stable")  # the paths still travelling lead
    base, sx, sy, dx, dy, hops = (a[order] for a in (path_tree * n_chips, sx, sy, dx, dy, hops))
    out = np.zeros(src.size * n_chips, dtype=np.int8)  # out-link bits per (tree, chip)
    arrival = np.zeros(src.size * n_chips, dtype=np.int8)  # arrival link's bit
    ox = oy = np.zeros(hops.size, dtype=np.int64)
    for s in range(1, int(hops.max(initial=0)) + 1):
        n = np.count_nonzero(hops >= s)
        base, sx, sy, dx, dy, ox, oy = (a[:n] for a in (base, sx, sy, dx, dy, ox, oy))
        nx, ny = hop_offsets(dx, dy, s)
        bit = _HOP_BIT[nx - ox + 1, ny - oy + 1]
        here = base + (sx + ox) * height + (sy + oy) % height
        there = base + (sx + nx) * height + (sy + ny) % height
        np.bitwise_or.at(out, here, bit)
        seen = arrival[there]
        arrival[there] = np.where(seen == 0, bit, seen)
        conflict = arrival[there] != bit
        if conflict.any():
            chip = int(there[np.argmax(conflict)]) % n_chips
            raise RoutingError(f"route tree conflict at chip {divmod(chip, height)}")
        ox, oy = nx, ny
    need = out != arrival  # forks, turns, and the source (nothing arrives there)
    need &= out != 0
    need[path_tree * n_chips + path_dst] = True
    at = np.flatnonzero(need)
    return at // n_chips, at % n_chips, out[at].astype(np.int64)


def _merge_subpops(subs: list[int]) -> list[tuple[int, int]]:
    """The merged ``(key, mask)`` entries of one set of sub-populations, whose
    entries share one action and have all key bits outside the
    sub-population field zero.

    The entries start as ``(sub << NEURON_BITS, CORE_MASK)`` and merge one
    level of masks at a time.  At each level the entries go in ascending
    ``(key, mask)`` order, and each one not yet taken pairs with the partner
    ``(key | bit, mask)`` at the lowest sub-population bit, masked and clear
    in its key, whose partner is present and not yet taken; the pair is
    ``(key, mask & ~bit)`` on the next level, and an entry left unpaired is
    final.  The entries cover disjoint blocks of keys, each keyed by its
    lowest, so no two share a key.
    """
    level = {sub << NEURON_BITS: CORE_MASK for sub in sorted(subs)}
    merged = []
    while level:
        taken: set[int] = set()
        pairs = {}
        for key, mask in level.items():
            if key in taken:
                continue
            for bit in _SUBPOP_FIELD:
                partner = key | bit
                if (mask & bit and not key & bit and level.get(partner) == mask
                        and partner not in taken):
                    taken.add(partner)
                    pairs[key] = mask & ~bit
                    break
            else:
                merged.append((key, mask))
        level = pairs  # in ascending key order, as the level was
    return merged


def walk_packet(tables: RoutingTables, src_chip: np.ndarray, key: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk every packet through the routers at once, one hop per round.

    Packet i carries ``key[i]`` from chip ``src_chip[i]`` (``x * height +
    y``).  At each chip it takes the action of the one entry it matches,
    found with one ``searchsorted`` per distinct mask, or goes straight on
    when none matches (default route).  Returns ``(packet, chip, core id,
    transit_ns)`` per delivery.  Raises RoutingError on ambiguous matches,
    unroutable injection, falling off the mesh, or loops: a packet still
    travelling after ``n_chips`` hops, which no route tree path takes.
    """
    machine, height, n_chips = tables.machine, tables.machine.height, tables.machine.n_chips()
    # per distinct mask: the rows of its entries and their codes, in code order
    code = tables.chip << 32 | tables.key
    order = np.lexsort((code, tables.mask))
    masks, first = np.unique(tables.mask[order], return_index=True)
    lookups = list(zip(masks.tolist(), np.split(order, first[1:]),
                       np.split(code[order], first[1:])))
    packet, chip, in_dir, transit = np.arange(key.size), src_chip, -1, np.zeros(key.size)
    out = []

    def check(bad, message):
        """Raise for the first packet where ``bad`` is nonzero, its value ``{n}``."""
        if bad.any():
            i = int(np.argmax(bad != 0))
            raise RoutingError(message.format(key=int(key[packet[i]]), n=int(bad[i]),
                                              chip=divmod(int(chip[i]), height)))

    for _ in range(n_chips):
        row, n_match = np.full(packet.size, -1), np.zeros(packet.size, dtype=np.int64)
        for mask, rows, codes in lookups:
            query = chip << 32 | key[packet] & mask
            at = rows[np.minimum(np.searchsorted(codes, query), rows.size - 1)]
            hit = code[at] == query
            row, n_match = np.where(hit, at, row), n_match + hit
        check(np.where(n_match > 1, n_match, 0), "chip {chip}: {n} entries match key 0x{key:08x}")
        check((row < 0) & (in_dir < 0), "key 0x{key:08x} injected at {chip} matches no entry")
        cores = np.where(row >= 0, tables.cores[row], 0)
        p, core = np.nonzero(cores[:, None] >> np.arange(machine.cores_per_chip) & 1)
        out.append((packet[p], chip[p], core, transit[p]))

        links = np.where(row >= 0, tables.links[row], 1 << np.maximum(in_dir, 0))
        p, link = np.nonzero(links[:, None] >> np.arange(len(LINKS)) & 1)
        packet, chip, in_dir = packet[p], chip[p], link
        x, y = np.divmod(chip, height)
        nx, ny = np.stack((x, y)) + np.array(LINK_VECTORS).T[:, link]
        ny = ny % height if machine.wrap_vertical else ny
        check((nx < 0) | (nx >= machine.width) | (ny < 0) | (ny >= height),
              "key 0x{key:08x} fell off the mesh at {chip}")
        board_hop = machine.board_index((x, y)) != machine.board_index((nx, ny))
        transit = transit[p] + (machine.router_hop_latency_ns
                                + np.where(board_hop, machine.board_link_latency_ns, 0.0))
        chip = nx * height + ny
        if not packet.size:
            return tuple(np.concatenate(col) for col in zip(*out))
    check(packet >= 0, "routing loop at chip {chip} for key 0x{key:08x}")


def delivery_map(placement: Placement, keys: np.ndarray, tables: RoutingTables,
                 dest_ptr: np.ndarray, dest_core: np.ndarray) -> np.ndarray:
    """The router transit ``dest_transit_us[i]`` to each planned synapse
    core ``dest_core[i]`` (``destination_cores``), from one walk of all the
    source ensembles' packets.  One packet per source core suffices: no mask
    covers neuron-id bits, so all keys of a core follow identical routes.
    Unless the walk delivers exactly the plan, raises RoutingError naming
    the key of the first ensemble whose deliveries differ.
    """
    stride = placement.machine.cores_per_chip
    sends = np.flatnonzero(np.diff(dest_ptr))
    packet, chip, core, transit_ns = walk_packet(tables, placement.chip[sends], keys[sends])
    src = sends[packet]
    order = np.lexsort((core, chip, src))
    got_ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=dest_ptr.size - 1))))
    got = (chip * stride + core)[order]
    plan = placement.chip[dest_core // 3] * stride + placement.synapse_core_ids()[dest_core]
    if not (np.array_equal(got_ptr, dest_ptr) and np.array_equal(got, plan)):
        e = next(e for e in range(dest_ptr.size - 1) if not np.array_equal(
            got[got_ptr[e]:got_ptr[e + 1]], plan[dest_ptr[e]:dest_ptr[e + 1]]))
        raise RoutingError(f"key 0x{keys[e]:08x}: the routers do not deliver exactly its "
                           f"{dest_ptr[e + 1] - dest_ptr[e]} planned synapse cores")
    return transit_ns[order] * 1e-3
