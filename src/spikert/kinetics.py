"""Leaky integrate-and-fire point neurons with exponential current synapses.

State is advanced per timestep with the exact closed-form propagator of the
coupled linear (V, I_syn) system, so subthreshold trajectories carry no
integration error regardless of dt.  Background Poisson sources draw from
named, per-source random streams so that every consumer of a stream sees the
same values in the same order, independent of scheduling.

Units: ms for times, mV for potentials, pA for currents, MOhm for
resistance (R[MOhm] * I[pA] = 1e-3 mV).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

MOHM_PA_TO_MV = 1e-3


@dataclass(frozen=True)
class NeuronParams:
    """Membrane and synapse constants for one population."""

    tau_m_ms: float
    tau_syn_ms: float
    e_rest_mv: float
    r_mohm: float
    v_theta_mv: float
    v_reset_mv: float
    t_ref_ms: float
    i_dc_pa: float = 0.0

    def validate(self, dt_ms: float) -> None:
        if not (self.tau_m_ms > 0 and self.tau_syn_ms > 0):
            raise ValueError("time constants must be positive")
        if not self.v_theta_mv > self.v_reset_mv:
            raise ValueError("v_theta must exceed v_reset")
        if self.t_ref_ms < 0:
            raise ValueError("refractory period must be non-negative")
        steps = self.t_ref_ms / dt_ms
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"t_ref={self.t_ref_ms} ms is not a multiple of dt={dt_ms} ms")

    def ref_steps(self, dt_ms: float) -> int:
        return int(round(self.t_ref_ms / dt_ms))


@dataclass
class NeuronState:
    """Mutable per-neuron state."""

    v_mv: float
    i_syn_pa: float = 0.0
    ref_remaining: int = 0


class Propagator:
    """Exact one-timestep update of the (V, I_syn) pair.

    The step is parameterised as

        V'     = e_eff + (V - e_eff) * decay_v + (I + u) * kernel
        I_syn' = (I + u) * decay_i

    where u is the synaptic input landing at the start of the step and
    e_eff = E + R * I_dc is the effective resting point.  Writing the update
    around e_eff makes the zero-input fixed point exact in floating point.
    The tau_m == tau_syn degeneracy uses the analytic t*exp(-t/tau) limit.
    """

    __slots__ = ("params", "dt_ms", "decay_v", "decay_i", "kernel", "e_eff", "ref_steps")

    def __init__(self, params: NeuronParams, dt_ms: float):
        params.validate(dt_ms)
        if dt_ms <= 0:
            raise ValueError("dt must be positive")
        tau_m, tau_s = params.tau_m_ms, params.tau_syn_ms
        self.params = params
        self.dt_ms = dt_ms
        self.decay_v = math.exp(-dt_ms / tau_m)
        self.decay_i = math.exp(-dt_ms / tau_s)
        r_mv = params.r_mohm * MOHM_PA_TO_MV
        if tau_m == tau_s:
            self.kernel = r_mv * (dt_ms / tau_m) * self.decay_v
        else:
            self.kernel = r_mv * tau_s * (self.decay_i - self.decay_v) / (tau_s - tau_m)
        self.e_eff = params.e_rest_mv + r_mv * params.i_dc_pa
        self.ref_steps = params.ref_steps(dt_ms)

    def advance(self, v, i_syn, ref, inputs_pa):
        """Vectorised step over parallel neuron arrays.

        Returns (v', i_syn', ref', fired).  All operations are elementwise,
        so splitting a population into blocks cannot change the result.
        """
        p = self.params
        return advance_state(v, i_syn, ref, inputs_pa, self.decay_v, self.decay_i,
                             self.kernel, self.e_eff, p.v_reset_mv, p.v_theta_mv,
                             self.ref_steps)


def advance_state(v, i_syn, ref, inputs_pa, decay_v, decay_i, kernel, e_eff,
                  v_reset, v_theta, ref_steps):
    """One exact timestep of the (V, I_syn) system; constants may be scalars
    or per-neuron arrays.  Both simulation paths must call this one function
    so their floating-point results agree bit for bit."""
    i0 = i_syn + inputs_pa
    in_ref = ref > 0
    v1 = np.where(in_ref, v_reset, e_eff + (v - e_eff) * decay_v + i0 * kernel)
    i1 = i0 * decay_i
    fired = np.logical_and(~in_ref, v1 > v_theta)
    v1 = np.where(fired, v_reset, v1)
    ref1 = np.where(in_ref, ref - 1, np.where(fired, ref_steps, 0))
    return v1, i1, ref1, fired


def lif_step(state: NeuronState, params: NeuronParams, input_pa: float, dt_ms: float,
             neuron_id: str = "?") -> tuple[NeuronState, bool]:
    """Advance one neuron by one timestep; returns (new state, spiked)."""
    for name, value in (("input", input_pa), ("V", state.v_mv), ("I_syn", state.i_syn_pa)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} ({value}) for neuron {neuron_id}")
    prop = Propagator(params, dt_ms)
    v, i, ref, fired = prop.advance(
        np.float64(state.v_mv), np.float64(state.i_syn_pa),
        np.int64(state.ref_remaining), np.float64(input_pa))
    return NeuronState(float(v), float(i), int(ref)), bool(fired)


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def make_rng(seed: int, *scope) -> np.random.Generator:
    """Named random stream: strings are hashed, ints used directly.

    The same (seed, scope) always yields the same stream on every platform,
    which is what makes sampled networks and Poisson inputs reproducible.
    """
    entropy = [int(seed)]
    for part in scope:
        entropy.append(_label_key(part) if isinstance(part, str) else int(part))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
