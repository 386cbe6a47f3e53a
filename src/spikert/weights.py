"""Fixed-point synaptic weight encoding shared by machine model and oracle.

Weights travel through the machine as 16-bit unsigned magnitudes under a
per-projection power-of-two scale (the scale exponent is chosen so the
largest magnitude in the projection occupies at least 14 bits).  Synaptic
input accumulators run at a per-(target population, sign) scale equal to the
finest feeding projection scale, so re-scaling a word into accumulator units
is an exact left shift.  Both simulation paths convert accumulated integers
back to pA with the same power-of-two factors, making per-synapse
contributions identical bit for bit wherever both paths quantize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEIGHT_BITS = 16
WEIGHT_MAX = (1 << WEIGHT_BITS) - 1
MIN_SIG_BITS = 14

# Poisson input buffers accumulate weight * count per timestep into 16-bit
# saturating slots, so their scale keeps headroom for multi-event counts.
POISSON_SIG_BITS = 11
POISSON_ACC_MAX = (1 << 16) - 1


def projection_scale_exp(max_abs_weight_pa: float) -> int:
    """Largest power-of-two exponent keeping max|w| within 16 bits."""
    if max_abs_weight_pa <= 0:
        return MIN_SIG_BITS  # all-zero projection; any scale represents it
    exp = math.floor(math.log2(WEIGHT_MAX / max_abs_weight_pa))
    if round(max_abs_weight_pa * 2.0 ** exp) > WEIGHT_MAX:
        exp -= 1
    return exp


def poisson_scale_exp(weight_pa: float) -> int:
    """Scale exponent for a background-source weight (coarser, more headroom)."""
    if weight_pa <= 0:
        return POISSON_SIG_BITS
    exp = math.floor(math.log2(((1 << POISSON_SIG_BITS) - 1) / weight_pa))
    return exp


def quantize_magnitudes(weights_pa: np.ndarray, scale_exp: int, out: np.ndarray,
                        scratch: np.ndarray) -> None:
    """Round |weights| to 16-bit units of 2**-scale_exp pA into ``out``, an
    integer array of the same length, through ``scratch``, a float64 array
    of that length; the weights are left as they are."""
    q = np.abs(weights_pa, out=scratch)
    q *= 2.0 ** scale_exp
    np.rint(q, out=q)
    if q.size and q.max() > WEIGHT_MAX:
        raise ValueError("quantized weight exceeds 16 bits; scale exponent too fine")
    out[:] = q


@dataclass(frozen=True)
class AccumulatorScales:
    """Power-of-two conversion factors out of integer accumulator units.

    exc/inh exponents are per target population (index-aligned lists);
    poisson exponents likewise.  ``factor = 2**-exp`` converts integer units
    to pA exactly.
    """

    exc_exp: tuple[int, ...]
    inh_exp: tuple[int, ...]
    poisson_exp: tuple[int, ...]

    def exc_factor(self, pop: int) -> float:
        return 2.0 ** -self.exc_exp[pop]

    def inh_factor(self, pop: int) -> float:
        return 2.0 ** -self.inh_exp[pop]

    def poisson_factor(self, pop: int) -> float:
        return 2.0 ** -self.poisson_exp[pop]


def combine_input_pa(exc_units, inh_units, poisson_units,
                     exc_factor, inh_factor, poisson_factor):
    """Convert integer accumulators to the pA drive for one timestep.

    The fixed evaluation order (excitatory + inhibitory + background) is part
    of the contract: both simulation paths must produce the same float.
    Inhibitory units hold magnitudes and enter negatively.
    """
    return exc_units * exc_factor - inh_units * inh_factor + poisson_units * poisson_factor

