import math

import numpy as np
import pytest

from spikert.network import (PoissonInput, SpecError, build_network, load_network_spec,
                             parse_network_spec, scale_network, serialize_network_spec)
from tests.conftest import SMALL_SPEC, decoded


def test_benchmark_total_neuron_count(benchmark_path):
    spec = load_network_spec(benchmark_path, "poisson")
    assert spec.total_neurons() == 77169
    assert len(spec.populations) == 8
    # the quoted 12.8-23.2 kHz band is the excitatory populations' range
    exc_rates = [p.background.rate_hz for p in spec.populations if p.polarity == "exc"]
    assert min(exc_rates) == 12800.0 and max(exc_rates) == 23200.0
    assert max(p.background.rate_hz for p in spec.populations) == 23200.0


def test_benchmark_dc_variant(benchmark_path):
    spec = load_network_spec(benchmark_path, "dc")
    assert all(p.params.i_dc_pa > 0 for p in spec.populations)
    assert not any(isinstance(p.background, PoissonInput) for p in spec.populations)


def test_spec_round_trip(benchmark_path):
    spec = load_network_spec(benchmark_path, "poisson")
    assert parse_network_spec(serialize_network_spec(spec)) == spec


def test_scale_identity_and_bounds(benchmark_path):
    spec = load_network_spec(benchmark_path, "poisson")
    assert scale_network(spec, 1.0) is spec
    with pytest.raises(SpecError):
        scale_network(spec, 0.0)
    with pytest.raises(SpecError):
        scale_network(spec, 1.5)


def test_scale_tenth_of_benchmark(benchmark_path):
    spec = load_network_spec(benchmark_path, "poisson")
    scaled = scale_network(spec, 0.1)
    total = scaled.total_neurons()
    assert abs(total - 7717) <= 4  # per-population rounding
    assert scaled.scale == pytest.approx(0.1)
    probs = {p.name: p for p in spec.populations}
    for pop in scaled.populations:
        assert pop.background == probs[pop.name].background


def test_scale_floor_clamp():
    spec = parse_network_spec(SMALL_SPEC, "poisson")
    scaled = scale_network(spec, 0.01)
    assert all(p.size >= 1 for p in scaled.populations)
    assert scaled.populations[0].size == 1


def test_unknown_population_rejected():
    text = SMALL_SPEC + "\n[projection]\nsource = E\ntarget = X\nprobability = 0.1\n" \
        "weight_pa = 1\nweight_sd_pa = 0\ndelay_ms = 1\ndelay_sd_ms = 0\n"
    with pytest.raises(SpecError, match="unknown population"):
        parse_network_spec(text, "poisson")


def test_excessive_delay_rejected():
    text = SMALL_SPEC.replace("delay_ms = 1.5", "delay_ms = 30.0", 1)
    with pytest.raises(SpecError, match="exceeds"):
        parse_network_spec(text, "poisson")


def test_zero_probability_yields_no_synapses():
    text = SMALL_SPEC.replace("probability = 0.1", "probability = 0.0") \
                     .replace("probability = 0.2", "probability = 0.0") \
                     .replace("probability = 0.3", "probability = 0.0")
    net = build_network(parse_network_spec(text, "poisson"), seed=1)
    assert net.synapse_count() == 0


def test_connection_count_binomial_oracle():
    """Independent per-pair sampling => Binomial(n_pre*n_post, p) totals."""
    text = """
[simulation]
dt_ms = 0.1
[neuron_defaults]
tau_m_ms = 10.0
tau_syn_ms = 0.5
e_rest_mv = -65.0
r_mohm = 40.0
v_theta_mv = -50.0
v_reset_mv = -65.0
t_ref_ms = 2.0
[population]
name = A
size = 100
polarity = exc
dc_current_pa = 0
[population]
name = B
size = 100
polarity = exc
dc_current_pa = 0
[projection]
source = A
target = B
probability = 0.1
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75
"""
    spec = parse_network_spec(text)
    net = build_network(spec, seed=7)
    count = net.synapse_count()
    sigma = math.sqrt(10000 * 0.1 * 0.9)
    assert abs(count - 1000) < 4 * sigma
    assert build_network(spec, seed=7).synapse_count() == count


def sampled(net):
    """(projection, target-local neurons, float weights, delays) of each
    projection of a network built with ``keep_weights`` and not yet
    encoded, read from the fields of its sink."""
    sink, lo = net.sink, 0
    for proj in net.projections:
        hi = lo + proj.count
        post, _, delays = decoded(sink, slice(lo, hi))
        yield proj, post - sink.post_base[proj.target_pop], sink.weight_pa[lo:hi], delays
        lo = hi


def test_build_determinism_digest(small_network):
    """The digest reads the float weights: a network built without them,
    such as the fixture, refuses it."""
    spec = small_network.spec
    digest = build_network(spec, seed=42, keep_weights=True).digest()
    assert build_network(spec, seed=42, keep_weights=True).digest() == digest
    assert build_network(spec, seed=43, keep_weights=True).digest() != digest
    with pytest.raises(ValueError, match="build with keep_weights=True"):
        small_network.digest()


# NetworkModel.digest() of fixed-seed builds of the conftest fixtures' networks
# (with keep_weights), recorded when connectivity was drawn with one
# rng.random(n_post) call per source neuron; a change in how the random stream
# is consumed changes them
PINNED_DIGESTS = {
    "small_network": "230392d22f7ccc13e335e9dde08ad676263a3b773cae7917d8b4692038c8b222",
    "small_network_dc": "48cc8f5c76e3805c422e7ee21a14c227f610261cd90b98eb19124f073134f5b6",
    "microcircuit_dc_01": "fca8a7d671ebda988aed1d7ea1ed2f66d4d18aa428749b6b68bb12f147d3de29",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_network_digest_is_pinned(name, benchmark_path):
    spec, seed = {
        "small_network": lambda: (parse_network_spec(SMALL_SPEC, "poisson"), 42),
        "small_network_dc": lambda: (parse_network_spec(SMALL_SPEC, "dc"), 42),
        "microcircuit_dc_01": lambda: (
            scale_network(load_network_spec(benchmark_path, "dc"), 0.1), 1),
    }[name]()
    assert build_network(spec, seed, keep_weights=True).digest() == PINNED_DIGESTS[name]


def test_dales_law_over_materialized_synapses(small_network):
    net = build_network(small_network.spec, seed=42, keep_weights=True)
    for proj, _, w, _ in sampled(net):
        pol = net.populations[proj.source_pop].polarity
        if proj.count == 0:
            continue
        if pol == "exc":
            assert w.min() >= 0.0
        else:
            assert w.max() <= 0.0


def test_delays_within_ring_range(small_network):
    sink = small_network.sink
    assert sink.size == small_network.synapse_count() > 0
    delays = decoded(sink, slice(0, sink.size))[2]
    assert sink.cell.dtype == np.uint32 and 1 <= delays.min() <= delays.max() <= 255


def test_delay_rounding_to_nearest_timestep():
    # mean 1.47 ms with zero spread must land on 15 steps (1.5 ms) at dt=0.1
    text = SMALL_SPEC.replace("delay_ms = 1.5\ndelay_sd_ms = 0.75",
                              "delay_ms = 1.47\ndelay_sd_ms = 0.0")
    net = build_network(parse_network_spec(text, "poisson"), seed=3)
    proj = net.projections[0]
    assert proj.count > 0
    assert set(np.unique(decoded(net.sink, slice(0, proj.count))[2])) == {15}


def test_weight_statistics_match_spec_bands():
    """>=1e5-synapse projection: empirical mean/sd within 3 standard errors
    (mean is >4 sd from zero, so sign clamping is negligible)."""
    text = """
[simulation]
dt_ms = 0.1
[neuron_defaults]
tau_m_ms = 10.0
tau_syn_ms = 0.5
e_rest_mv = -65.0
r_mohm = 40.0
v_theta_mv = -50.0
v_reset_mv = -65.0
t_ref_ms = 2.0
[population]
name = A
size = 1000
polarity = exc
dc_current_pa = 0
[population]
name = B
size = 1000
polarity = exc
dc_current_pa = 0
[projection]
source = A
target = B
probability = 0.1
weight_pa = 87.8
weight_sd_pa = 8.78
delay_ms = 1.5
delay_sd_ms = 0.75
"""
    net = build_network(parse_network_spec(text), seed=11, keep_weights=True)
    ((_, _, w, _),) = sampled(net)
    n = w.size
    assert n >= 1e5 * 0.9
    se_mean = 8.78 / math.sqrt(n)
    se_sd = 8.78 / math.sqrt(2 * n)
    assert abs(w.mean() - 87.8) < 3 * se_mean
    assert abs(w.std(ddof=1) - 8.78) < 3 * se_sd


def synapses_from(net, global_idx: int):
    """All synapses of one source neuron as (projection, target_global, w_pa,
    delay) rows."""
    pop, local = net.pop_of_global(global_idx)
    for proj, post_local, w, delays in sampled(net):
        if proj.source_pop == pop:
            lo, hi = proj.row_ptr[local], proj.row_ptr[local + 1]
            yield (proj, post_local[lo:hi] + int(net.offsets[proj.target_pop]), w[lo:hi],
                   delays[lo:hi])


def test_synapses_from_accessor(small_network):
    rows = list(synapses_from(build_network(small_network.spec, 42, keep_weights=True), 0))
    assert rows
    for proj, targets, w, d in rows:
        assert proj.source_pop == 0
        assert targets.min() >= 0


def test_both_backgrounds_require_variant():
    with pytest.raises(SpecError, match="both backgrounds"):
        parse_network_spec(SMALL_SPEC)
