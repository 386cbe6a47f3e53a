import io
import os

import numpy as np
import pytest

from spikert.kinetics import NeuronParams
from spikert.mapping import ROLE_NEURON, ROLE_POISSON, SYNAPSE_ROLES
from spikert.machine import LINK_VECTORS
from spikert.matrices import ranges
from spikert.network import build_network, load_network_spec, parse_network_spec, scale_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "spikert", "data")

SMALL_SPEC = """
[simulation]
dt_ms = 0.1
v_init = normal
v_init_mean_mv = -58
v_init_sd_mv = 5

[neuron_defaults]
tau_m_ms = 10.0
tau_syn_ms = 0.5
e_rest_mv = -65.0
r_mohm = 40.0
v_theta_mv = -50.0
v_reset_mv = -65.0
t_ref_ms = 2.0

[population]
name = E
size = 100
polarity = exc
poisson_rate_hz = 12800
poisson_weight_pa = 87.8
dc_current_pa = 561.92

[population]
name = I
size = 30
polarity = inh
poisson_rate_hz = 12000
poisson_weight_pa = 87.8
dc_current_pa = 526.8

[projection]
source = E
target = E
probability = 0.1
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75

[projection]
source = E
target = I
probability = 0.2
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75

[projection]
source = I
target = E
probability = 0.3
weight_pa = 351.2
weight_sd_pa = 35.32
delay_ms = 0.75
delay_sd_ms = 0.375
"""


@pytest.fixture(scope="session")
def model_params():
    """Membrane constants matching the shipped benchmark model file."""
    return NeuronParams(tau_m_ms=10.0, tau_syn_ms=0.5, e_rest_mv=-65.0, r_mohm=40.0,
                        v_theta_mv=-50.0, v_reset_mv=-65.0, t_ref_ms=2.0)


@pytest.fixture(scope="session")
def benchmark_path():
    return os.path.join(DATA_DIR, "microcircuit.net")


@pytest.fixture(scope="session")
def machine_path():
    return os.path.join(DATA_DIR, "machine_12board.mach")


# The networks are built per test: encoding takes a network's sampled
# synapses, the fields of its sink, into the table, so each test that encodes
# needs a network of its own.  They keep no float weights; a test that reads
# them (the digest, the oracle's unquantized path) builds its network with
# keep_weights=True.
@pytest.fixture
def small_network():
    spec = parse_network_spec(SMALL_SPEC, "poisson")
    return build_network(spec, seed=42)


@pytest.fixture
def small_network_dc():
    spec = parse_network_spec(SMALL_SPEC, "dc")
    return build_network(spec, seed=42)


@pytest.fixture
def microcircuit_dc_01(benchmark_path):
    """The benchmark model at scale 0.1 with DC input, network seed 1."""
    return build_network(scale_network(load_network_spec(benchmark_path, "dc"), 0.1), seed=1)


def decoded(table, syn=slice(None)):
    """``(targets, units, delays)`` of the synapses ``syn`` of a table, or
    of a sink before encoding, unpacked from their cells and words: int64
    global targets, int64 accumulator units (``words << shift``) and int64
    delays in steps."""
    cell = table.cell[syn].astype(np.int64)
    lp = table.layout.target_bits
    return (cell & ((1 << lp) - 1), table.words[syn].astype(np.int64) << (cell >> (lp + 9)),
            (cell >> (lp + 1)) & 255)


def store_rows(sim):
    """The machine's synaptic rows expanded in row order, each row's columns
    in projection order, into one CSR of the row's words: ``(row_ptr,
    targets, units, delays)``, with int64 row pointers and the table's
    global targets, units and delays (``decoded``)."""
    store = sim.store
    syn = ranges(store.lo.reshape(-1), store.n.reshape(-1).astype(np.int64))
    row_ptr = np.concatenate(([0], np.cumsum(store.n.sum(axis=1, dtype=np.int64))))
    return (row_ptr, *decoded(store.table, syn))


def row_senders(sim):
    """``(neuron, core)`` of every synaptic row: row ``row_base[g] + i`` is
    what neuron g's packet to the i-th destination core of its ensemble in
    the fan-out CSR reads."""
    row_base = sim.store.row_base
    row = np.arange(sim.store.lo.shape[0])
    g = np.searchsorted(row_base, row, side="right") - 1
    return g, sim.dest_core[sim.dest_ptr[sim.ens_of[g]] + row - row_base[g]]


# Reference routes: a packet's canonical route walked hop by hop, which
# ``spikert.machine`` (``canonical_deltas``, ``hop_offsets``,
# ``transits_from_origin_ns``, ``radial_order``) and ``spikert.mapping``
# compute over arrays.

def ensemble_roles(ensembles, e) -> tuple[str, ...]:
    """Ensemble e's core roles in core order: its neuron core, its Poisson
    core if it has one, then its three synapse cores."""
    poisson = (ROLE_POISSON,) if ensembles.n_cores[e] == 5 else ()
    return (ROLE_NEURON, *poisson, *SYNAPSE_ROLES)


def hex_dist(dx: int, dy: int) -> int:
    """Hops between chips (dx, dy) apart: a diagonal hop covers one step of
    x and one of y when both go the same way."""
    if (dx >= 0) == (dy >= 0):
        return max(abs(dx), abs(dy))
    return abs(dx) + abs(dy)


def delta(machine, src, dst) -> tuple[int, int]:
    """(dx, dy) with dy reduced through the vertical wrap to the shortest rep."""
    dx, dy0 = dst[0] - src[0], dst[1] - src[1]
    reps = (dy0, dy0 - machine.height, dy0 + machine.height) if machine.wrap_vertical else (dy0,)
    # deterministic tie-break: fewest hops, then the smallest |dy|, then dy > 0
    return dx, min(reps, key=lambda dy: (hex_dist(dx, dy), abs(dy), -dy))


def neighbor(machine, chip, link):
    """Chip reached over a link, or None off the mesh edge."""
    vx, vy = LINK_VECTORS[link]
    x, y = chip[0] + vx, chip[1] + vy
    if machine.wrap_vertical:
        y %= machine.height
    if not (0 <= x < machine.width and 0 <= y < machine.height):
        return None
    return (x, y)


def route_links(machine, src, dst) -> list[int]:
    """Deterministic minimal-hop link sequence: diagonal first, then straight."""
    dx, dy = delta(machine, src, dst)
    links = []
    while dx > 0 and dy > 0:
        links.append(1)  # NE
        dx -= 1
        dy -= 1
    while dx < 0 and dy < 0:
        links.append(4)  # SW
        dx += 1
        dy += 1
    links.extend([0 if dx > 0 else 3] * abs(dx))  # E / W
    links.extend([2 if dy > 0 else 5] * abs(dy))  # N / S
    return links


def route_path(machine, src, dst) -> list[tuple[int, int]]:
    path = [src]
    for link in route_links(machine, src, dst):
        path.append(neighbor(machine, path[-1], link))
    assert path[-1] == dst
    return path


def hop_latency_ns(machine, a, b) -> float:
    latency = machine.router_hop_latency_ns
    if machine.board_of(a) != machine.board_of(b):
        latency += machine.board_link_latency_ns
    return latency


def transit_ns(machine, src, dst) -> float:
    """Latency along the canonical route: one router per hop plus board links."""
    path = route_path(machine, src, dst)
    return sum(hop_latency_ns(machine, a, b) for a, b in zip(path, path[1:]))


def written(serialize) -> str:
    """The text ``serialize(fh)`` writes to a text file."""
    fh = io.StringIO()
    serialize(fh)
    return fh.getvalue()


def line_by_line_profile(profile, counters: dict) -> tuple[str, str]:
    """profile.tsv and profile_events.tsv formatted one line at a time from
    whole counter arrays in memory, ``(synapse cores, steps)``."""
    rows = ["# core_id timestep received processed flushed zero_target kickstarts busy_us\n"]
    events = ["# core_id timestep processed_events flushed_events\n"]
    for label, c, busy in zip(profile.labels, profile.syn_core.tolist(),
                              profile.fixed_busy_us.tolist()):
        for t in range(profile.n_steps):
            if c < 0:
                rows.append(f"{label} {t} 0 0 0 0 0 {busy:.4f}\n")
                events.append(f"{label} {t} 0 0\n")
            else:
                r, p, f, z, k, b, pe, fe = (counters[name][c, t].item()
                                            for name in profile.COUNTERS)
                rows.append(f"{label} {t} {r} {p} {f} {z} {k} {b:.4f}\n")
                events.append(f"{label} {t} {pe} {fe}\n")
    return "".join(rows), "".join(events)
