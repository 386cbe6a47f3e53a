import numpy as np
import pytest

from conftest import SMALL_SPEC
from spikert.clocks import ClockConfig
from spikert.mapping import ROLE_SYN_INH, SYNAPSE_ROLES, pack_key
from spikert.network import build_network, load_network_spec, parse_network_spec, scale_network
from spikert.oracle import oracle_simulate
from spikert.runtime import HardwareSimulation, Seeds

DURATION_MS = 50.0

SECOND_EE_BLOCK = """
[projection]
source = E
target = E
probability = 0.1
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75
"""


def run_both(net, drift_ppm=0.0):
    """Hardware run at slowdown 10 (no flushes) and the oracle, same seeds."""
    sim = HardwareSimulation(net, clock_cfg=ClockConfig(drift_bound_ppm=drift_ppm),
                             seeds=Seeds(poisson=2, drift=3), slowdown=10.0)
    res = sim.run(DURATION_MS)
    return res, oracle_simulate(net, DURATION_MS, poisson_seed=2)


def assert_equivalent(res, ref):
    assert res.flush_totals()["flushed"] == 0
    assert res.late_packets == 0
    assert len(ref) > 0
    assert res.trace.serialize() == ref.serialize()


@pytest.mark.parametrize("fixture", ["small_network", "small_network_dc"])
def test_small_spec_hardware_equals_oracle(fixture, request):
    assert_equivalent(*run_both(request.getfixturevalue(fixture)))


@pytest.mark.parametrize("drift_ppm", [0.0, 20.0])
def test_microcircuit_dc_hardware_equals_oracle(benchmark_path, drift_ppm):
    spec = scale_network(load_network_spec(benchmark_path, "dc"), 0.02)
    res, ref = run_both(build_network(spec, seed=1), drift_ppm)
    assert_equivalent(res, ref)
    assert len(ref) == 6842


def test_repeated_projection_keeps_every_synapse():
    """Two blocks for one (source, target) pair share synaptic rows; both
    blocks' synapses must reach the targets."""
    net = build_network(parse_network_spec(SMALL_SPEC + SECOND_EE_BLOCK, "dc"), seed=42)
    assert_equivalent(*run_both(net))
    assert HardwareSimulation(net).store.row_ptr[-1] == net.synapse_count()


def test_rerun_is_deterministic(small_network):
    sim = HardwareSimulation(small_network, clock_cfg=ClockConfig(drift_bound_ppm=20.0),
                             seeds=Seeds(poisson=2, drift=3))
    first, second = sim.run(DURATION_MS), sim.run(DURATION_MS)
    assert len(first.trace) > 0
    assert second.trace.serialize() == first.trace.serialize()
    assert second.profile.serialize() == first.profile.serialize()
    assert second.profile.serialize_events() == first.profile.serialize_events()


def test_packet_without_table_entry_is_rejected(small_network):
    """No I -> I projection exists, so inhibitory cores of I have no entry for
    population I and must refuse its packets."""
    sim = HardwareSimulation(small_network)
    i_pop = 1
    e = next(e for e in sim.ensembles if e.pop == i_pop)
    core = 3 * e.index + SYNAPSE_ROLES.index(ROLE_SYN_INH)
    sim.syn.push(np.array([0.0]), np.array([[core], [0], [0], [0], [pack_key(i_pop, 0, 0)], [0]]))
    n_chips = len(sim.chips)
    with pytest.raises(RuntimeError, match="no master population table entry"):
        sim.syn.run_window(0, np.zeros(n_chips), np.full(n_chips, 1e9))
