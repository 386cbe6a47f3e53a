import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_SPEC
from spikert import weights
from spikert.kinetics import NeuronParams, NeuronState, Propagator, lif_step, make_rng
from spikert.matrices import CHUNK_STEPS, PoissonBank
from spikert.network import SpecError, build_network, parse_network_spec

DT = 0.1


def euler_fine(params: NeuronParams, v0, i0, dt, substeps=1000):
    """Independent fine-step forward-Euler integration of the neuron ODEs."""
    h = dt / substeps
    v, i = v0, i0
    r_mv = params.r_mohm * 1e-3
    for _ in range(substeps):
        dv = (-(v - params.e_rest_mv) + (i + params.i_dc_pa) * r_mv) / params.tau_m_ms
        di = -i / params.tau_syn_ms
        v += h * dv
        i += h * di
    return v, i


def rk4_fine(params: NeuronParams, v0, i0, dt, substeps=1000):
    """Independent fine-step RK4 integration (effectively exact)."""
    h = dt / substeps
    r_mv = params.r_mohm * 1e-3

    def deriv(v, i):
        return ((-(v - params.e_rest_mv) + (i + params.i_dc_pa) * r_mv) / params.tau_m_ms,
                -i / params.tau_syn_ms)

    v, i = v0, i0
    for _ in range(substeps):
        k1 = deriv(v, i)
        k2 = deriv(v + h / 2 * k1[0], i + h / 2 * k1[1])
        k3 = deriv(v + h / 2 * k2[0], i + h / 2 * k2[1])
        k4 = deriv(v + h * k3[0], i + h * k3[1])
        v += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6
        i += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6
    return v, i


def test_resting_fixed_point(model_params):
    state = NeuronState(v_mv=model_params.e_rest_mv)
    new, spiked = lif_step(state, model_params, 0.0, DT)
    assert not spiked
    assert new.v_mv == model_params.e_rest_mv
    assert new.i_syn_pa == 0.0


def test_pure_exponential_decay(model_params):
    state = NeuronState(v_mv=model_params.e_rest_mv + 10.0)
    new, spiked = lif_step(state, model_params, 0.0, DT)
    assert not spiked
    expected = model_params.e_rest_mv + 10.0 * math.exp(-DT / model_params.tau_m_ms)
    assert new.v_mv == pytest.approx(expected, abs=1e-12)


def test_single_step_against_fine_oracles(model_params):
    state = NeuronState(v_mv=model_params.e_rest_mv)
    new, _ = lif_step(state, model_params, 500.0, DT)
    v_rk4, i_rk4 = rk4_fine(model_params, state.v_mv, 500.0, DT)
    assert new.v_mv == pytest.approx(v_rk4, abs=1e-9)
    assert new.i_syn_pa == pytest.approx(i_rk4, abs=1e-9)
    # dt/1000 forward Euler carries ~2e-5 mV of its own truncation error for
    # a 500 pA input, so the band here is the oracle's accuracy floor
    v_eul, _ = euler_fine(model_params, state.v_mv, 500.0, DT)
    assert new.v_mv == pytest.approx(v_eul, abs=5e-5)


def test_threshold_reset_and_refractory(model_params):
    # drive hard enough to cross threshold in one step
    state = NeuronState(v_mv=-50.5)
    new, spiked = lif_step(state, model_params, 20000.0, DT)
    assert spiked
    assert new.v_mv == model_params.v_reset_mv
    assert new.ref_remaining == model_params.ref_steps(DT) == 20
    for _ in range(20):
        assert new.ref_remaining > 0
        new, spiked = lif_step(new, model_params, 5000.0, DT)
        assert not spiked
        assert new.v_mv == model_params.v_reset_mv
    assert new.ref_remaining == 0
    # I_syn kept decaying and accumulating during the clamp
    assert new.i_syn_pa > 0


def test_non_finite_input_rejected(model_params):
    state = NeuronState(v_mv=-65.0)
    with pytest.raises(ValueError, match="neuron E/7"):
        lif_step(state, model_params, float("nan"), DT, neuron_id="E/7")
    with pytest.raises(ValueError, match="I_syn"):
        lif_step(NeuronState(v_mv=-65.0, i_syn_pa=float("inf")), model_params, 0.0, DT)


def test_subthreshold_linearity(model_params):
    """Superposition: the response to summed inputs is the sum of responses."""
    rng = np.random.default_rng(5)
    params = NeuronParams(**{**model_params.__dict__, "v_theta_mv": 1e9})
    prop = Propagator(params, DT)
    e = params.e_rest_mv
    for _ in range(50):
        ia = rng.uniform(0, 300, 40)
        ib = rng.uniform(0, 300, 40)
        va = vb = vab = e
        sa = sb = sab = 0.0
        for ua, ub in zip(ia, ib):
            va, sa, _, _ = prop.advance(va, sa, 0, ua)
            vb, sb, _, _ = prop.advance(vb, sb, 0, ub)
            vab, sab, _, _ = prop.advance(vab, sab, 0, ua + ub)
        assert (va - e) + (vb - e) == pytest.approx(vab - e, rel=1e-9)
        assert sa + sb == pytest.approx(sab, rel=1e-9)


def test_multi_step_matches_closed_form(model_params):
    """With the threshold removed, n steps equal the analytic solution at n*dt."""
    params = NeuronParams(**{**model_params.__dict__, "v_theta_mv": float("inf"),
                             "i_dc_pa": 100.0})
    prop = Propagator(params, DT)
    v, i = -60.0, 400.0
    v0, i0 = v, i
    n = 500
    for _ in range(n):
        v, i, _, _ = prop.advance(v, i, 0, 0.0)
    t = n * DT
    tau_m, tau_s = params.tau_m_ms, params.tau_syn_ms
    r_mv = params.r_mohm * 1e-3
    e_eff = params.e_rest_mv + r_mv * params.i_dc_pa
    a, b = math.exp(-t / tau_m), math.exp(-t / tau_s)
    v_exact = e_eff + (v0 - e_eff) * a + i0 * r_mv * tau_s * (b - a) / (tau_s - tau_m)
    assert v == pytest.approx(v_exact, rel=1e-9)
    assert i == pytest.approx(i0 * b, rel=1e-9)


def test_equal_time_constants_use_analytic_limit():
    params = NeuronParams(tau_m_ms=5.0, tau_syn_ms=5.0, e_rest_mv=0.0, r_mohm=10.0,
                          v_theta_mv=1e9, v_reset_mv=0.0, t_ref_ms=0.0)
    new, _ = lif_step(NeuronState(v_mv=0.0), params, 100.0, DT)
    v_rk4, _ = rk4_fine(params, 0.0, 100.0, DT)
    assert new.v_mv == pytest.approx(v_rk4, abs=1e-9)
    # analytic kernel value: R * (dt/tau) * exp(-dt/tau)
    expected = 10.0 * 1e-3 * (DT / 5.0) * math.exp(-DT / 5.0) * 100.0
    assert new.v_mv == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(v0=st.floats(-80, -51), i0=st.floats(0, 800), u=st.floats(0, 800))
def test_lif_step_matches_rk4(model_params, v0, i0, u):
    new, _ = lif_step(NeuronState(v_mv=v0, i_syn_pa=i0), model_params, u, DT)
    if new.v_mv != model_params.v_reset_mv:  # skip post-spike resets
        v_ref, _ = rk4_fine(model_params, v0, i0 + u, DT, substeps=200)
        assert new.v_mv == pytest.approx(v_ref, abs=1e-8)


def test_params_validation():
    with pytest.raises(ValueError):
        NeuronParams(-1, 0.5, -65, 40, -50, -65, 2).validate(DT)
    with pytest.raises(ValueError, match="multiple of dt"):
        NeuronParams(10, 0.5, -65, 40, -50, -65, 0.25).validate(DT)
    with pytest.raises(ValueError, match="exceed"):
        NeuronParams(10, 0.5, -65, 40, -70, -65, 2).validate(DT)


# ---------------------------------------------------------------------------
# Poisson sampling: the run's PoissonBank, drawn CHUNK_STEPS steps at a time

def poisson_network(e_rate_hz=12800.0, i_rate_hz=12000.0):
    """The small test network's populations (E 100, I 30) with these
    background rates; no synapses are sampled."""
    spec = SMALL_SPEC.replace("poisson_rate_hz = 12800", f"poisson_rate_hz = {e_rate_hz}")
    spec = spec.replace("poisson_rate_hz = 12000", f"poisson_rate_hz = {i_rate_hz}")
    return build_network(parse_network_spec(spec, "poisson"), seed=42, sample_synapses=False)


def bank_counts(bank: PoissonBank) -> np.ndarray:
    """Every step's counts, read in order: ``(steps, sources)``."""
    return np.array([bank.counts_at(t) for t in range(bank.n_steps)])


def test_poisson_zero_rate_always_zero():
    """A population with a zero rate draws zeros at every step, across
    chunks, while its neighbour's streams are untouched."""
    bank = PoissonBank(poisson_network(e_rate_hz=0.0), 5, 2 * CHUNK_STEPS + 10)
    counts = bank_counts(bank)
    assert not counts[:, :100].any()
    assert counts[:, 100:].any()
    assert np.array_equal(counts[:, 100:],
                          bank_counts(PoissonBank(poisson_network(), 5, bank.n_steps))[:, 100:])


def test_poisson_negative_rate_rejected():
    with pytest.raises(SpecError, match="population E: negative poisson rate"):
        parse_network_spec(SMALL_SPEC.replace("poisson_rate_hz = 12800",
                                              "poisson_rate_hz = -1"), "poisson")


@pytest.mark.parametrize("rate_hz,ok", [(163840000.0, True), (163850000.0, False),
                                        (4e8, False)])
def test_poisson_rate_beyond_the_int16_counts_rejected(rate_hz, ok):
    """The bank keeps int16 counts: a rate averaging more than 2**14 events
    per 0.1 ms step is a spec error naming the population, where 4e8 Hz
    (40,000 per step) used to wrap to negative counts."""
    text = SMALL_SPEC.replace("poisson_rate_hz = 12800", f"poisson_rate_hz = {rate_hz}")
    if ok:
        parse_network_spec(text, "poisson")
        return
    with pytest.raises(SpecError, match=r"population E: poisson rate .* Hz gives .* events "
                                        r"per step of 0.1 ms, above the 16384"):
        parse_network_spec(text, "poisson")


def test_poisson_bit_reproducible():
    """The same seed draws the same counts, another seed others."""
    net = poisson_network()
    first = bank_counts(PoissonBank(net, 9, CHUNK_STEPS + 50))
    assert np.array_equal(first, bank_counts(PoissonBank(net, 9, CHUNK_STEPS + 50)))
    assert not np.array_equal(first, bank_counts(PoissonBank(net, 10, CHUNK_STEPS + 50)))


def test_poisson_batch_equals_sequential_draws():
    """Batched draws must consume the stream exactly like stepwise draws."""
    lam = 23200.0 * DT * 1e-3
    batch = make_rng(4, "p").poisson(lam, size=200)
    seq = make_rng(4, "p")
    assert list(batch) == [int(seq.poisson(lam)) for _ in range(200)]


def test_poisson_sample_mean_at_peak_rate():
    # rate 23.2 kHz, dt 0.1 ms -> lambda 2.32 over 130 sources x 7,700 steps;
    # band is +/- 3 sigma of the mean
    bank = PoissonBank(poisson_network(23200.0, 23200.0), 11, 7700)
    assert 2.315 <= bank_counts(bank).mean() <= 2.325


def test_bank_streams_equal_one_shot_draws_across_chunks():
    """``units_at`` and its clipped count equal what one-shot draws of each
    source's stream give, at every step of a run that crosses three chunk
    boundaries and ends inside a chunk, and again on a second pass, which
    reads the counts back from the bank's file: after the first pass the
    file holds every step's counts.  E saturates the accumulator, I does
    not."""
    net = poisson_network(e_rate_hz=900000.0)
    n_steps = 3 * CHUNK_STEPS + 77
    file = io.BytesIO()
    bank = PoissonBank(net, 2, n_steps, file)
    draws, w_q = [], []
    for pop in net.populations:
        lam = pop.background.rate_hz * net.dt_ms * 1e-3
        draws += [make_rng(2, "poisson", pop.name, i).poisson(lam, n_steps)
                  for i in range(pop.size)]
        exp = weights.poisson_scale_exp(pop.background.weight_pa)
        w_q += [round(pop.background.weight_pa * 2.0 ** exp)] * pop.size
    raw = np.array(draws).T * np.array(w_q)  # (steps, neurons)
    assert (raw > weights.POISSON_ACC_MAX).any() and (raw[:, 100:] <= weights.POISSON_ACC_MAX).all()
    for i in range(2):
        for t in range(n_steps):
            units, clipped = bank.units_at(t)
            assert np.array_equal(units, np.minimum(raw[t], weights.POISSON_ACC_MAX))
            assert clipped == np.count_nonzero(raw[t] > weights.POISSON_ACC_MAX)
        if i == 0:  # the file holds the counts, step-major
            assert file.getvalue() == np.array(draws, dtype=np.int16).T.tobytes()
    with pytest.raises(IndexError):
        bank.units_at(n_steps)


def test_poisson_distribution_chi_squared():
    from scipy import stats

    rng = make_rng(13, "chi2")
    draws = rng.poisson(1.0, size=1_000_000)
    kmax = 9
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    pmf = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
    probs = np.concatenate([pmf, [1.0 - pmf.sum()]])
    chi2, p = stats.chisquare(observed, probs * draws.size)
    assert p > 0.01


def test_bank_read_by_two_readers_draws_each_chunk_once(monkeypatch):
    """A bank with a file draws each chunk once, however often it is read:
    a second reader from step 0, and a third that jumps between chunks,
    read back the units and clipped counts the first reader got."""
    drawn = []
    draw = PoissonBank._draw
    monkeypatch.setattr(PoissonBank, "_draw", lambda bank: drawn.append(bank._drawn) or draw(bank))
    net = poisson_network(e_rate_hz=900000.0)
    n_steps = 2 * CHUNK_STEPS + 40
    bank = PoissonBank(net, 2, n_steps, io.BytesIO())
    first = [bank.units_at(t) for t in range(n_steps)]
    assert drawn == [0, 1, 2]
    second = [bank.units_at(t) for t in range(n_steps)]
    jumps = [n_steps - 1, 3, CHUNK_STEPS + 5, 0]
    third = [bank.units_at(t) for t in jumps]
    assert drawn == [0, 1, 2]
    assert any(clipped for _, clipped in first)
    for t, (units, clipped) in [*enumerate(second), *zip(jumps, third)]:
        assert np.array_equal(units, first[t][0]) and clipped == first[t][1]


def test_bank_without_file_refuses_to_read_back():
    """A bank without a file keeps only the chunk in hand: reading a step of
    a chunk it has dropped is an error, not a second draw."""
    bank = PoissonBank(poisson_network(), 2, CHUNK_STEPS + 10)
    bank.units_at(CHUNK_STEPS)
    bank.units_at(CHUNK_STEPS + 9)
    with pytest.raises(RuntimeError, match="step 0 was drawn and dropped; .* needs a file"):
        bank.units_at(0)


def test_bank_with_a_truncated_file_refuses_to_read_back():
    """A second reader of a bank whose file has lost counts since the first
    pass gets an EOFError, not counts the file does not hold."""
    file = io.BytesIO()
    bank = PoissonBank(poisson_network(), 2, CHUNK_STEPS + 10, file)
    for t in range(bank.n_steps):
        bank.units_at(t)
    file.truncate(bank.chunk.nbytes - 1)
    with pytest.raises(EOFError, match="the Poisson bank's file ends before the chunks it drew"):
        bank.units_at(0)
