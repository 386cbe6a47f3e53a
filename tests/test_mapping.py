import dataclasses
import hashlib
import random

import pytest

from spikert import mapping, runtime
from spikert.machine import load_machine_spec
from spikert.mapping import (CORE_MASK, NEURON_BITS, SUBPOP_BITS, RoutingTableOverflowError,
                             allocate_keys, build_routing_tables, delivery_map,
                             destination_cores, pack_key, partition, place_radial)
from spikert.network import build_network, load_network_spec, scale_network


def restarting_merge(slots):
    """Reference: the restarting merge loop that ``_merge_entries`` replaced.
    It rescans the sorted table from the start after every single merge."""
    entries = {km: (frozenset(v[0]), frozenset(v[1])) for km, v in slots.items()}
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
    rng = random.Random(seed)
    for _ in range(50):
        slots = random_slots(rng)
        assert list(mapping._merge_entries(slots).items()) == \
            list(restarting_merge(slots).items())


def test_merge_takes_smallest_entry_at_lowest_bit_first():
    # Sub-populations 0 and 1 merge first; 2 is then left with no partner,
    # although {1, 2} or {0, 2} would have been mergeable too.
    action = (frozenset({3}), frozenset())
    slots = {(pack_key(5, sub, 0), CORE_MASK): action for sub in (2, 0, 1)}
    merged = mapping._merge_entries(slots)
    sub_bit = 1 << NEURON_BITS
    assert list(merged.items()) == [
        ((pack_key(5, 2, 0), CORE_MASK), action),
        ((pack_key(5, 0, 0), CORE_MASK & ~sub_bit), action),
    ]


def microcircuit_mapping(benchmark_path, scale, machine_file=None):
    spec = scale_network(load_network_spec(benchmark_path, "poisson"), scale)
    net = build_network(spec, 1, sample_synapses=False)
    ensembles = partition(net)
    if machine_file is None:
        _, placement = runtime._place(ensembles, None)
    else:
        placement = place_radial(ensembles, load_machine_spec(machine_file))
    keys = allocate_keys(placement)
    return placement, keys, destination_cores(placement, net.spec.projections)


@pytest.mark.parametrize("on_12_boards", [False, True], ids=["default", "12board"])
def test_delivery_map_reaches_exactly_the_destination_cores(
        benchmark_path, machine_path, on_12_boards):
    placement, keys, dests = microcircuit_mapping(
        benchmark_path, 0.05, machine_path if on_12_boards else None)
    tables = build_routing_tables(placement, keys, dests)
    dmap = delivery_map(placement, keys, tables, dests)
    assert any(dests.values())
    for e in placement.ensembles:
        delivered = [(chip, core) for chip, core, _ in dmap[e.index]]
        assert len(delivered) == len(set(delivered))
        assert set(delivered) == dests[e.index]


def test_too_small_entry_limit_raises_overflow(benchmark_path):
    placement, keys, dests = microcircuit_mapping(benchmark_path, 0.05)
    needed = max(build_routing_tables(placement, keys, dests).entry_counts().values())
    small = dataclasses.replace(placement, machine=dataclasses.replace(
        placement.machine, routing_entries_per_chip=needed - 1))
    with pytest.raises(RoutingTableOverflowError, match=f"{needed} routing entries"):
        build_routing_tables(small, keys, dests)


def test_routing_tables_are_pinned(benchmark_path, machine_path):
    # The routing_tables.txt of a --map-only CLI run at scale 0.1 on the
    # 12-board machine; any change to the merge order shows here.
    placement, keys, dests = microcircuit_mapping(benchmark_path, 0.1, machine_path)
    tables = build_routing_tables(placement, keys, dests)
    assert sum(tables.entry_counts().values()) == 1970
    assert hashlib.sha256(tables.serialize().encode()).hexdigest() == \
        "803be29cc9f67c0a322c04ead0cbe4a639f7e84ec5d5cb90b1e49fb793f98d7f"
