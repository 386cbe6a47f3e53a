"""Direct clock-driven reference simulation of a network model.

No hardware, cost, or flush modeling: every spike's contribution is
delivered after exactly its synaptic delay.  The oracle shares the neuron
integrator, the Poisson bank and (when quantization is on) the encoded
synapse table with the machine model, so a machine run that never flushes
and never misses a window must reproduce this trace byte for byte.

The caller encodes the table (``matrices.encode_projections``) and builds the
bank (``matrices.PoissonBank``) once per run and passes both in; the oracle
only reads them.  It reads the bank step by step from step 0, one chunk of
steps in memory at a time.  Each chunk is drawn once per run: when the
machine model has read the bank first, the oracle reads the chunks back
from the file the bank wrote them to, so both see the same counts, the
unquantized path included.  It reads the table in place: a spike's
synapses are its source neuron's spans into the table
(``matrices.source_delivery_index``), one per projection from its
population, delivered through ``matrices.ring_insert`` as the machine
model's are, in the table's narrow dtypes (int32 targets, int32 or int64
units, uint8 delays) widened to int64 before they are added up.  The
unquantized path reads the network's float weights, aligned with the
table, through the same spans, and adds a step's spikes with one
``np.add.at`` in spike, projection then synapse order, the order in which
``ufunc.at`` applies its updates, so each float sum is that of a
spike-by-spike loop.  The delay rings hold ``matrices.ring_slots`` slots,
the smallest power of two above the table's longest delay.
"""

from __future__ import annotations

import numpy as np

from . import matrices, trace, weights
from .kinetics import advance_state
from .network import NetworkModel


def oracle_simulate(network: NetworkModel, table: matrices.SynapseTable,
                    bank: matrices.PoissonBank, duration_ms: float, quantize: bool = True,
                    discard_ms: float = 0.0) -> trace.SpikeTrace:
    n_steps = int(round(duration_ms / network.dt_ms))
    spikes = trace.SpikeRecord(n_steps)
    if bank.n_steps != n_steps:
        raise ValueError(f"Poisson bank holds {bank.n_steps} steps, the run {n_steps}")
    n = network.total_neurons
    consts = matrices.expand_constants(network, table.scales)
    spans = matrices.source_delivery_index(network, table)
    n_spans = np.diff(spans.span_ptr)
    n_slots = matrices.ring_slots(table.delays)

    if not quantize:
        if any(p.weight_pa is None for p in network.projections):
            raise ValueError("the unquantized oracle reads the float weights: "
                             "encode with keep_weights=True")
        w_pa = np.concatenate([p.weight_pa for p in network.projections] or [np.zeros(0)])
        float_acc = np.zeros((n_slots, n), dtype=np.float64)
        # each bank row's float weight (DC populations have no rows)
        pop_of = np.searchsorted(network.offsets, bank.neuron, side="right") - 1
        pois_w = np.array([getattr(pop.background, "weight_pa", 0.0)
                           for pop in network.populations])[pop_of]

    # integer accumulators: [0] excitatory, [1] inhibitory source input
    acc = np.zeros((2, n_slots, n), dtype=np.int64)
    inh_of = np.repeat([p.polarity != "exc" for p in network.populations],
                       np.diff(network.offsets)).astype(np.int64)
    span_inh = np.repeat(inh_of, n_spans)

    v = network.v_init_mv.copy()
    i_syn = np.zeros(n, dtype=np.float64)
    ref = np.zeros(n, dtype=np.int64)

    zero_units = np.zeros(n, dtype=np.int64)

    for t in range(n_steps):
        slot = t & (n_slots - 1)
        pois_units = bank.units_at(t - 1)[0] if t > 0 else zero_units
        if quantize:
            inputs = weights.combine_input_pa(acc[0, slot], acc[1, slot], pois_units,
                                              consts.exc_factor, consts.inh_factor,
                                              consts.poisson_factor)
            acc[:, slot] = 0
        else:
            inputs = float_acc[slot] + _float_poisson(bank, pois_w, t - 1, n)
            float_acc[slot] = 0.0
        matrices.check_finite_input(network, inputs)
        v, i_syn, ref, fired = advance_state(v, i_syn, ref, inputs, consts.decay_v,
                                             consts.decay_i, consts.kernel, consts.e_eff,
                                             consts.v_reset, consts.v_theta,
                                             consts.ref_steps)
        g = fired.nonzero()[0]
        if not g.size:
            continue
        spikes.add(t, g)
        # the spans of every spike of the step, delivered at once
        s = matrices.ranges(spans.span_ptr[g], n_spans[g])
        lo = spans.lo[s]
        if quantize:
            matrices.ring_insert(acc, table, t, span_inh[s], lo, spans.hi[s] - lo)
        else:
            syn = matrices.ranges(lo, spans.hi[s] - lo)
            slots = (t + table.delays[syn].astype(np.int64)) & (n_slots - 1)
            np.add.at(float_acc, (slots, table.post[syn]), w_pa[syn])

    return trace.from_step_records(network, spikes, discard_ms)


def _float_poisson(bank: matrices.PoissonBank, w_pa: np.ndarray, t: int, n: int):
    """Background input in pA at step t; ``w_pa`` is each bank row's weight."""
    out = np.zeros(n, dtype=np.float64)
    if t >= 0:
        out[bank.neuron] = bank.counts_at(t) * w_pa
    return out
