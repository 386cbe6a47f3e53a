import os

import pytest

from spikert.kinetics import NeuronParams
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


# The networks are built per test: encoding moves a network's synapses into
# the table, so each test that encodes needs a network of its own.
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
