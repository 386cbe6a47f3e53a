import dataclasses
import hashlib
import random

import numpy as np
import pytest

from conftest import SMALL_SPEC, ensemble_roles, hop_latency_ns, neighbor, route_links
from spikert import mapping, runtime
from spikert.machine import LINKS, MachineSpec, load_machine_spec
from spikert.mapping import (CORE_MASK, NEURON_BITS, ROLE_SYN_EXC_LOWER, ROLE_SYN_EXC_UPPER,
                             ROLE_SYN_INH, SUBPOP_BITS, SYNAPSE_ROLES, KeyOverflowError,
                             RoutingError, RoutingTableOverflowError, RoutingTables,
                             allocate_keys, build_routing_tables, delivery_map,
                             destination_cores, pack_key, partition, place_radial)
from spikert.network import (PoissonInput, build_network, load_network_spec, parse_network_spec,
                             scale_network)

SUBPOP_FIELD = ((1 << SUBPOP_BITS) - 1) << NEURON_BITS


def restarting_merge(slots):
    """Reference: the first merge loop of the routing tables.  It rescans the
    sorted table from the start after every single merge, and merges sibling
    entries whose actions, any hashable values, are equal."""
    entries = dict(slots)
    changed = True
    while changed:
        changed = False
        for (key, mask), action in sorted(entries.items()):
            if (key, mask) not in entries:
                continue
            for bit_pos in range(NEURON_BITS, NEURON_BITS + SUBPOP_BITS):
                bit = 1 << bit_pos
                if not mask & bit or key & bit:
                    continue
                partner = (key | bit, mask)
                if entries.get(partner) == action:
                    del entries[(key, mask)]
                    del entries[partner]
                    entries[(key, mask & ~bit)] = action
                    changed = True
                    break
            if changed:
                break
    return entries


def merged_by_group(slots):
    """``slots`` merged the way ``build_routing_tables`` merges them: one
    ``_merge_subpops`` call per group of entries with equal action and equal
    key bits outside the sub-population field."""
    groups = {}
    for (key, _), action in slots.items():
        base, sub = key & ~SUBPOP_FIELD, (key & SUBPOP_FIELD) >> NEURON_BITS
        groups.setdefault((action, base), []).append(sub)
    return {(base | key, mask): action for (action, base), subs in groups.items()
            for key, mask in mapping._merge_subpops(subs)}


def random_slots(rng):
    """One chip's unmerged entries: a few populations, up to 64 of their
    sub-populations each, 1-4 distinct actions, in shuffled insertion order."""
    actions = [(frozenset(rng.sample(range(2, 18), rng.randint(0, 3))),
                frozenset(rng.sample(range(6), rng.randint(0, 2))))
               for _ in range(rng.randint(1, 4))]
    keys = []
    for pop in rng.sample(range(20), rng.randint(1, 4)):
        subs = rng.sample(range(64), rng.randint(1, 64))
        keys += [pack_key(pop, sub, 0) for sub in subs]
    rng.shuffle(keys)
    return {(key, CORE_MASK): rng.choice(actions) for key in keys}


@pytest.mark.parametrize("seed", range(4))
def test_merge_matches_restarting_reference(seed):
    """Merged group by group, a chip's entries are those the reference
    merges from the whole chip at once."""
    rng = random.Random(seed)
    for _ in range(50):
        slots = random_slots(rng)
        assert sorted(merged_by_group(slots).items()) == \
            sorted(restarting_merge(slots).items())


def test_merge_matches_restarting_reference_on_every_small_set():
    """Every non-empty set of sub-populations 0-11."""
    for bits in range(1, 1 << 12):
        subs = [sub for sub in range(12) if bits >> sub & 1]
        reference = restarting_merge({(sub << NEURON_BITS, CORE_MASK): 0 for sub in subs})
        assert sorted(mapping._merge_subpops(subs)) == sorted(reference), subs


def test_merge_takes_smallest_entry_at_lowest_bit_first():
    # Sub-populations 0 and 1 merge first; 2 is then left with no partner,
    # although {0, 2} would have been mergeable too.
    sub_bit = 1 << NEURON_BITS
    assert sorted(mapping._merge_subpops([2, 0, 1])) == [
        (pack_key(0, 0, 0), CORE_MASK & ~sub_bit),
        (pack_key(0, 2, 0), CORE_MASK),
    ]


def microcircuit_mapping(benchmark_path, scale, machine=None):
    """Placement, keys, planned destinations ``(dest_ptr, dest_core)`` and
    projections of the microcircuit at ``scale`` on ``machine`` (a spec
    file, a MachineSpec, or None for the smallest fitting machine)."""
    spec = scale_network(load_network_spec(benchmark_path, "poisson"), scale)
    net = build_network(spec, 1, sample_synapses=False)
    ensembles = partition(net)
    if machine is None:
        _, placement = runtime._place(ensembles, None)
    else:
        if not isinstance(machine, MachineSpec):
            machine = load_machine_spec(machine)
        placement = place_radial(ensembles, machine)
    keys = allocate_keys(placement)
    projections = net.spec.projections
    return placement, keys, destination_cores(placement, projections), projections


def chip_xy(placement, e):
    return divmod(int(placement.chip[e]), placement.machine.height)


def core_ref(placement, e, role):
    """(chip, core id) of ensemble e's core of ``role``: its cores follow its
    neuron core in ``ensemble_roles`` order."""
    return (chip_xy(placement, e),
            int(placement.core[e]) + ensemble_roles(placement.ensembles, e).index(role))


def reference_destinations(placement, projections):
    """Reference: the per-ensemble destination sets that
    ``destination_cores`` replaced, {ensemble: {(chip, core id)}}.  A packet
    goes to every ensemble of each target population, at its core of the
    source's synapse role: the inhibitory core for an inhibitory source,
    else the lower excitatory core for the lower half of the source
    population's sub-populations and the upper one for the rest."""
    ens = placement.ensembles
    pops, subpops = ens.pop.tolist(), ens.subpop.tolist()
    n_subs: dict[int, int] = {}
    for pop, sub in zip(pops, subpops):
        n_subs[pop] = max(n_subs.get(pop, 0), sub + 1)
    targets_of: dict[str, set[str]] = {}
    for proj in projections:
        targets_of.setdefault(proj.source, set()).add(proj.target)
    dests = {}
    for e, (pop, sub) in enumerate(zip(pops, subpops)):
        if ens.polarities[pop] == "inh":
            role = ROLE_SYN_INH
        else:
            role = ROLE_SYN_EXC_LOWER if sub < (n_subs[pop] + 1) // 2 else ROLE_SYN_EXC_UPPER
        dests[e] = {core_ref(placement, f, role) for f, target in enumerate(pops)
                    if ens.pop_names[target] in targets_of.get(ens.pop_names[pop], ())}
    return dests


def reference_route_tree(machine, src_chip, dest_chips):
    """Reference: the per-hop route tree that ``_route_trees`` replaced.  It
    walks every canonical path link by link and returns [(chip, link bits)]
    of the chips that need an entry."""
    out_links = {src_chip: 0}
    arrival_dir = {}
    for dchip in dest_chips:
        here = src_chip
        for link in route_links(machine, src_chip, dchip):
            nxt = neighbor(machine, here, link)
            out_links[here] |= 1 << link
            prev = arrival_dir.setdefault(nxt, link)
            if prev != link:
                raise RoutingError(f"route tree conflict at chip {nxt}")
            out_links.setdefault(nxt, 0)
            here = nxt
    tree = []
    for chip, links in out_links.items():
        if chip not in dest_chips:
            if not links:
                continue
            if chip != src_chip and links == 1 << arrival_dir[chip]:
                continue  # straight pass-through: default routing handles it
        tree.append((chip, links))
    return tree


def reference_tables(placement, keys, dests):
    """Reference: the per-ensemble dict assembly and per-chip merge that
    ``build_routing_tables`` replaced.  Returns the rows (chip code, key,
    mask, cores, links) in table order."""
    machine = placement.machine
    raw = {}  # chip -> {(key, mask) -> (core bits, link bits)}
    for e in range(len(placement.ensembles)):
        if not dests.get(e):
            continue
        by_chip = {}
        for chip, core in dests[e]:
            by_chip[chip] = by_chip.get(chip, 0) | 1 << core
        for chip, links in reference_route_tree(machine, chip_xy(placement, e),
                                                frozenset(by_chip)):
            raw.setdefault(chip, {})[(int(keys[e]), CORE_MASK)] = (by_chip.get(chip, 0), links)
    rows = []
    for chip in sorted(raw):
        merged = sorted(restarting_merge(raw[chip]).items(),
                        key=lambda r: (-bin(r[0][1]).count("1"), r[0][0]))
        rows += [(chip[0] * machine.height + chip[1], key, mask, cores, links)
                 for (key, mask), (cores, links) in merged]
    return rows


def table_rows(tables):
    return list(zip(*(a.tolist() for a in (tables.chip, tables.key, tables.mask,
                                           tables.cores, tables.links))))


@pytest.mark.parametrize("scale,machine", [
    pytest.param(0.05, None, id="default_0.05"),
    pytest.param(0.1, "12board", id="12board_0.1"),
    pytest.param(0.05, MachineSpec(width=16, height=12, wrap_vertical=False), id="flat_0.05"),
])
def test_build_matches_the_reference(benchmark_path, machine_path, scale, machine):
    """The array build gives the reference's rows, row for row."""
    placement, keys, plan, projections = microcircuit_mapping(
        benchmark_path, scale, machine_path if machine == "12board" else machine)
    tables = build_routing_tables(placement, keys, *plan)
    assert tables.chip.size > 0
    assert table_rows(tables) == reference_tables(
        placement, keys, reference_destinations(placement, projections))


@pytest.mark.parametrize("wrap", [False, True], ids=["flat", "wrapped"])
def test_route_trees_match_the_reference(wrap):
    """Random trees on small meshes, several per call, give the chips and
    out-links of the per-hop reference."""
    rng = random.Random(int(wrap))
    for _ in range(40):
        machine = MachineSpec(width=rng.randint(1, 9), height=rng.randint(1, 9),
                              wrap_vertical=wrap)
        chips = [(x, y) for x in range(machine.width) for y in range(machine.height)]
        trees = [(rng.choice(chips), rng.sample(chips, rng.randint(1, len(chips))))
                 for _ in range(rng.randint(1, 4))]
        code = [x * machine.height + y for x, y in chips]
        tree, chip, links = mapping._route_trees(
            machine, np.array([code[chips.index(src)] for src, _ in trees]),
            np.repeat(np.arange(len(trees)), [len(d) for _, d in trees]),
            np.array([code[chips.index(c)] for _, d in trees for c in d]))
        got = list(zip(tree.tolist(), chip.tolist(), links.tolist()))
        assert got == sorted((t, x * machine.height + y, bits) for t, (src, d) in enumerate(trees)
                             for (x, y), bits in reference_route_tree(machine, src, frozenset(d)))


MESH = MachineSpec(width=3, height=3, wrap_vertical=False)
KEY = pack_key(1, 0, 0)
E, N, SW = (LINKS.index(name) for name in ("E", "N", "SW"))


def hand_tables(*rows):
    """Tables on a 3x3 mesh without wrap from (x, y, mask, cores, links)
    rows, each an entry for ``KEY``."""
    return RoutingTables(MESH, *np.array(
        [(x * MESH.height + y, KEY & mask, mask, cores, links)
         for x, y, mask, cores, links in rows], dtype=np.int64).reshape(-1, 5).T)


@pytest.mark.parametrize("rows,src,message", [
    pytest.param([(1, 1, CORE_MASK, 1 << 2, 0), (1, 1, CORE_MASK & ~(1 << NEURON_BITS), 0, 0)],
                 (1, 1), "chip (1, 1): 2 entries match key 0x00008000", id="ambiguous"),
    pytest.param([(0, 0, CORE_MASK, 1 << 2, 0)], (1, 1),
                 "key 0x00008000 injected at (1, 1) matches no entry", id="unroutable"),
    pytest.param([(1, 1, CORE_MASK, 0, 1 << E)], (1, 1),
                 "key 0x00008000 fell off the mesh at (2, 1)", id="off_mesh"),
    pytest.param([(0, 0, CORE_MASK, 0, 1 << E), (1, 0, CORE_MASK, 0, 1 << N),
                  (1, 1, CORE_MASK, 1 << 2, 1 << SW)], (0, 0),
                 "routing loop at chip (0, 0) for key 0x00008000", id="loop"),
])
def test_walk_errors_name_the_key_and_chip(rows, src, message):
    """Two entries matching one key, no entry at the injection chip, a link
    off the mesh edge (after a default-routed hop) and a cycle each stop
    the walk with a RoutingError naming the key and the chip."""
    with pytest.raises(RoutingError) as err:
        mapping.walk_packet(hand_tables(*rows), np.array([src[0] * MESH.height + src[1]]),
                            np.array([KEY]))
    assert str(err.value) == message


def test_route_tree_conflict_raises(monkeypatch):
    """Two paths that reach a chip over different links stop the build.
    Canonical paths never do, so the paths here turn at odd dy first."""
    def mixed_offsets(dx, dy, s):
        y_first = dy % 2 == 1
        ax, ay = abs(dx), abs(dy)
        return (np.sign(dx) * np.where(y_first, np.maximum(0, s - ay), np.minimum(s, ax)),
                np.sign(dy) * np.where(y_first, np.minimum(s, ay), np.maximum(0, s - ax)))

    monkeypatch.setattr(mapping, "hop_offsets", mixed_offsets)
    # from (0, 2): (1, 1) by S then E, (1, 0) by E then S, S
    with pytest.raises(RoutingError, match=r"route tree conflict at chip \(1, 1\)"):
        mapping._route_trees(MESH, np.array([2]), np.array([0, 0]),
                             np.array([1 * MESH.height + 1, 1 * MESH.height + 0]))


def reference_walk(tables, src_chip, key):
    """Reference: the per-packet depth-first walk that ``walk_packet``
    replaced, reading each chip's rows from the arrays.  Returns
    {(chip, core id): transit_ns}."""
    machine = tables.machine
    deliveries = {}
    frontier = [(src_chip, None, 0.0)]
    seen = set()
    while frontier:
        chip, in_dir, transit = frontier.pop()
        assert (chip, in_dir) not in seen
        seen.add((chip, in_dir))
        rows = np.flatnonzero(tables.chip == chip[0] * machine.height + chip[1])
        matches = [int(r) for r in rows if key & int(tables.mask[r]) == int(tables.key[r])]
        assert len(matches) <= 1
        if matches:
            cores, links = int(tables.cores[matches[0]]), int(tables.links[matches[0]])
            for core in range(machine.cores_per_chip):
                if cores >> core & 1:
                    deliveries[(chip, core)] = transit
            links = [link for link in range(len(LINKS)) if links >> link & 1]
        else:
            assert in_dir is not None
            links = [in_dir]  # default route: continue straight
        for link in links:
            nxt = neighbor(machine, chip, link)
            assert nxt is not None
            frontier.append((nxt, link, transit + hop_latency_ns(machine, chip, nxt)))
    return deliveries


def csr_row(csr, e):
    lo, hi = csr[0][e], csr[0][e + 1]
    return list(zip(*(col[lo:hi].tolist() for col in csr[1:])))


def synapse_cores(placement):
    """{(chip, core id): synapse core} of every synapse core ``3 * e + k``."""
    return {core_ref(placement, e, role): 3 * e + k
            for e in range(len(placement.ensembles)) for k, role in enumerate(SYNAPSE_ROLES)}


@pytest.mark.parametrize("on_12_boards", [False, True], ids=["default", "12board"])
def test_delivery_map_reaches_exactly_the_destination_cores(
        benchmark_path, machine_path, on_12_boards):
    """The planned CSR holds each ensemble's reference destination set in
    (chip, core id) order, and the routers deliver exactly it."""
    placement, keys, (dest_ptr, dest_core), projections = microcircuit_mapping(
        benchmark_path, 0.05, machine_path if on_12_boards else None)
    expected = reference_destinations(placement, projections)
    assert any(expected.values())
    syn_core = synapse_cores(placement)
    for e in range(len(placement.ensembles)):
        assert dest_core[dest_ptr[e]:dest_ptr[e + 1]].tolist() == \
            [syn_core[ref] for ref in sorted(expected[e])]
    tables = build_routing_tables(placement, keys, dest_ptr, dest_core)
    assert delivery_map(placement, keys, tables, dest_ptr, dest_core).size == dest_core.size


def test_delivery_map_rejects_a_missed_core(benchmark_path):
    """One core bit cleared in one routing entry leaves a planned core
    unreached; the walk's check names the key of the entry's ensemble."""
    placement, keys, plan, _ = microcircuit_mapping(benchmark_path, 0.05)
    tables = build_routing_tables(placement, keys, *plan)
    i = int(np.flatnonzero((tables.mask == CORE_MASK) & (tables.cores != 0))[0])
    cores = tables.cores.copy()
    cores[i] &= cores[i] - 1
    broken = dataclasses.replace(tables, cores=cores)
    key = int(tables.key[i])
    with pytest.raises(RoutingError, match=f"^key 0x{key:08x}: the routers do not deliver"):
        delivery_map(placement, keys, broken, *plan)


@pytest.mark.parametrize("on_12_boards", [False, True], ids=["default", "12board"])
def test_delivery_map_matches_the_reference_walk(benchmark_path, machine_path, on_12_boards):
    """Each ensemble's row of the CSR holds the reference walk's deliveries,
    in (chip, core id) order, with bit-identical transit times."""
    placement, keys, plan, _ = microcircuit_mapping(
        benchmark_path, 0.05, machine_path if on_12_boards else None)
    tables = build_routing_tables(placement, keys, *plan)
    csr = (*plan, delivery_map(placement, keys, tables, *plan))
    syn_core = synapse_cores(placement)
    for e in range(len(placement.ensembles)):
        walked = reference_walk(tables, chip_xy(placement, e), int(keys[e])) \
            if plan[0][e + 1] > plan[0][e] else {}
        assert csr_row(csr, e) == [(syn_core[ref], t * 1e-3) for ref, t in sorted(walked.items())]


def test_delivery_map_is_pinned(benchmark_path, machine_path):
    # At microcircuit 0.1 on the 12-board machine: the bytes of dest_ptr,
    # dest_core (int64) and dest_transit_us (float64), concatenated.
    placement, keys, plan, _ = microcircuit_mapping(benchmark_path, 0.1, machine_path)
    csr = (*plan, delivery_map(placement, keys, build_routing_tables(placement, keys, *plan),
                               *plan))
    assert [a.dtype for a in csr] == [np.int64, np.int64, np.float64]
    assert csr[1].size == 15036
    assert hashlib.sha256(b"".join(a.tobytes() for a in csr)).hexdigest() == \
        "6b9299838f94620d7b8759e555c4e02883a1038e0297210d395b8103cc1946e0"


def test_too_small_entry_limit_raises_overflow(benchmark_path):
    """The error names the lowest overflowing chip and its entry count."""
    placement, keys, plan, _ = microcircuit_mapping(benchmark_path, 0.05)
    counts = build_routing_tables(placement, keys, *plan).entry_counts()
    needed = max(counts.values())
    lowest = min(chip for chip, n in counts.items() if n == needed)
    small = dataclasses.replace(placement, machine=dataclasses.replace(
        placement.machine, routing_entries_per_chip=needed - 1))
    with pytest.raises(RoutingTableOverflowError) as err:
        build_routing_tables(small, keys, *plan)
    assert str(err.value) == \
        f"chip {lowest}: {needed} routing entries exceed the limit of {needed - 1}"


def test_routing_tables_are_pinned(benchmark_path, machine_path):
    # The routing_tables.txt of a --map-only CLI run at scale 0.1 on the
    # 12-board machine; any change to the merge order shows here.
    placement, keys, plan, _ = microcircuit_mapping(benchmark_path, 0.1, machine_path)
    tables = build_routing_tables(placement, keys, *plan)
    assert sum(tables.entry_counts().values()) == 1970
    assert hashlib.sha256(tables.serialize().encode()).hexdigest() == \
        "803be29cc9f67c0a322c04ead0cbe4a639f7e84ec5d5cb90b1e49fb793f98d7f"


@pytest.mark.parametrize("scale", [None, 0.02], ids=["small_spec", "microcircuit_0.02"])
def test_neuron_slots_follow_the_ensembles(scale, small_network, benchmark_path):
    """Each global neuron's ensemble and neuron id agree with the ensemble's
    population, first neuron and count, and the ring-buffer position
    ``ens_of * 64 + nid_of`` keeps the global order."""
    if scale is None:
        net = small_network
    else:
        net = build_network(scale_network(load_network_spec(benchmark_path, "poisson"), scale),
                            1, sample_synapses=False)
    ensembles = partition(net)
    ens_of, nid_of = mapping.neuron_slots(ensembles)
    assert ens_of.size == nid_of.size == net.total_neurons
    for e, (pop, sub, count) in enumerate(zip(*(a.tolist() for a in (
            ensembles.pop, ensembles.subpop, ensembles.count)))):
        first = int(net.offsets[pop]) + sub * mapping.NEURONS_PER_CORE
        assert (ens_of[first:first + count] == e).all()
        assert (nid_of[first:first + count] == range(count)).all()
    slot = ens_of * mapping.NEURONS_PER_CORE + nid_of
    assert (slot[1:] > slot[:-1]).all()


def reference_partition(net):
    """Reference: the per-population loop that ``partition`` replaced, one
    (population, sub-population, neuron count, core count) per ensemble."""
    rows = []
    for p, pop in enumerate(net.populations):
        n_cores = 5 if isinstance(pop.background, PoissonInput) else 4
        rows += [(p, sub, min(64, pop.size - 64 * sub), n_cores)
                 for sub in range(-(-pop.size // 64))]
    return rows


def populations_spec(*pops):
    """SMALL_SPEC's simulation and neuron sections with populations of
    ``(size, polarity, background)``, background "poisson" or "dc"."""
    head = SMALL_SPEC[:SMALL_SPEC.index("[population]")]
    inputs = {"poisson": "poisson_rate_hz = 12000\npoisson_weight_pa = 87.8\n",
              "dc": "dc_current_pa = 500\n"}
    return parse_network_spec(head + "".join(
        f"[population]\nname = P{i}\nsize = {size}\npolarity = {polarity}\n{inputs[bg]}\n"
        for i, (size, polarity, bg) in enumerate(pops)))


@pytest.mark.parametrize("case", ["small_spec", "microcircuit_0.02", "microcircuit_0.4",
                                  "microcircuit_dc_0.02", "sizes_1_64_65_mixed",
                                  "sizes_1_64_65_dc"])
def test_partition_matches_a_per_population_reference(case, small_network, benchmark_path):
    """The table's arrays are the reference's ensembles, field by field, as
    int64, and it keeps the populations' names and polarities."""
    if case == "small_spec":
        net = small_network
    elif case.startswith("microcircuit"):
        variant = "dc" if "dc" in case else "poisson"
        spec = scale_network(load_network_spec(benchmark_path, variant),
                             float(case.rsplit("_", 1)[1]))
        net = build_network(spec, 1, sample_synapses=False)
    else:
        bgs = ("poisson", "dc", "poisson") if case.endswith("mixed") else ("dc",) * 3
        net = build_network(populations_spec(*zip((1, 64, 65), ("exc", "inh", "exc"), bgs)), 1,
                            sample_synapses=False)
    ens = partition(net)
    fields = (ens.pop, ens.subpop, ens.count, ens.n_cores)
    assert [a.dtype for a in fields] == [np.int64] * 4
    assert list(zip(*(a.tolist() for a in fields))) == reference_partition(net)
    assert len(ens) == len(reference_partition(net))
    assert ens.pop_names == tuple(p.name for p in net.populations)
    assert ens.polarities == tuple(p.polarity for p in net.populations)


def test_partition_refuses_more_sub_populations_than_the_key_holds():
    """A population of 512 * 64 + 1 neurons needs 513 sub-populations; the
    key's 9-bit field numbers 512."""
    net = build_network(populations_spec((64, "exc", "dc"), (512 * 64 + 1, "inh", "dc")), 1,
                        sample_synapses=False)
    with pytest.raises(KeyOverflowError, match="^population P1 needs 513 sub-populations; "
                                               "key layout allows 512$"):
        partition(net)


def test_keys_are_the_ensembles_prefixes(benchmark_path):
    """``allocate_keys`` gives each ensemble ``pack_key(pop, subpop, 0)``
    as one int64 array; ``pack_key`` refuses a field past its bits in an
    array as it does in an int."""
    placement, keys, _, _ = microcircuit_mapping(benchmark_path, 0.05)
    ens = placement.ensembles
    assert keys.dtype == np.int64 and keys.size == len(ens)
    assert keys.tolist() == [pack_key(p, sub, 0) for p, sub in zip(ens.pop.tolist(),
                                                                   ens.subpop.tolist())]
    with pytest.raises(KeyOverflowError, match="^sub-population 512 exceeds 9 bits$"):
        pack_key(ens.pop, np.where(ens.subpop == 1, 512, ens.subpop), 0)
    with pytest.raises(KeyOverflowError, match="^route bits -1 exceed 17 bits$"):
        pack_key(ens.pop - 1, ens.subpop, 0)
