"""Direct clock-driven reference simulation of a network model.

No hardware, cost, or flush modeling: every spike's contribution is
delivered after exactly its synaptic delay.  The oracle shares the neuron
integrator, the Poisson bank and (when quantization is on) the encoded
synapse table with the machine model, so a machine run that never flushes
and never misses a window must reproduce this trace byte for byte.

The caller encodes the table (``matrices.encode_projections``) and builds the
bank (``matrices.PoissonBank``) once per run and passes both in; the oracle
only reads them.  It reads the bank as the machine does: step t's units
after step t's neuron update, as the input of step t + 1, one chunk of
steps in memory at a time.  Each chunk is drawn once per run: when the
machine model has read the bank first, the oracle reads the chunks back
from the file the bank wrote them to, so both see the same counts, the
unquantized path included.  It reads the table in place: a spike's
synapses are its source neuron's spans into the table
(``matrices.source_delivery_index``), one per projection from its
population, delivered through ``matrices.ring_insert`` as the machine
model's are, from the table's packed cells and 16-bit words.  The integer
accumulators are one array of shape ``(slots, 2, P)``: per slot the
excitatory and the inhibitory units of every neuron, the neuron axis
padded to the table's stride P (``network.CellLayout``), and a step reads
``acc[slot, :, :n]``.  They are int32 unless the table's ``cell_bound`` is
past 2**31 - 1 (``matrices.ring_dtype``).  That is wide enough: a slot is
read, and cleared, every ``slots`` steps, and a synapse sent at step s adds
into slot ``(s + delay) % slots``, its delay fixed and below ``slots``, so
of the ``slots`` steps between two reads of a slot exactly one sends into
it through that synapse, and a neuron fires at most once a step.  Each
synapse thus adds into a cell at most once before the cell is read, and no
cell passes the units of one delivery of every synapse of one sign onto
its neuron, which ``cell_bound`` is the largest of.  The unquantized path
reads the table's float weights (``weight_pa``, kept when the network is
built with ``keep_weights``) through the same spans, each synapse's target
and delay out of its cell, into one ``(slots, n)`` float accumulator, and
adds a step's spikes with one ``np.add.at`` in spike, projection then
synapse order, the order in which ``ufunc.at`` applies its updates, so each
float sum is that of a spike-by-spike loop.  The rings hold the table's
``slots``, the smallest power of two above its longest delay.
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
    n_slots = table.slots
    layout = table.layout

    if not quantize:
        w_pa = table.weight_pa
        if w_pa is None:
            raise ValueError("the unquantized oracle reads the float weights: "
                             "build the network with keep_weights=True")
        float_acc = np.zeros((n_slots, n), dtype=np.float64)

    # integer accumulators: [slot, 0] excitatory, [slot, 1] inhibitory source input
    acc = np.zeros((n_slots, 2, layout.stride), dtype=matrices.ring_dtype(table))

    v = network.v_init_mv.copy()
    i_syn = np.zeros(n, dtype=np.float64)
    ref = np.zeros(n, dtype=np.int64)
    # the Poisson cores' buffer, empty at step 0; in pA on the unquantized path
    pois_units = np.zeros(n, dtype=np.int64)
    pois_pa = np.zeros(n, dtype=np.float64)

    for t in range(n_steps):
        slot = t & (n_slots - 1)
        if quantize:
            inputs = weights.combine_input_pa(acc[slot, 0, :n], acc[slot, 1, :n], pois_units,
                                              consts.exc_factor, consts.inh_factor,
                                              consts.poisson_factor)
            acc[slot] = 0
        else:
            inputs = float_acc[slot] + pois_pa
            float_acc[slot] = 0.0
        matrices.check_finite_input(network, inputs)
        v, i_syn, ref, fired = advance_state(v, i_syn, ref, inputs, consts.decay_v,
                                             consts.decay_i, consts.kernel, consts.e_eff,
                                             consts.v_reset, consts.v_theta,
                                             consts.ref_steps)
        # the Poisson cores write step t's buffer, which step t + 1 reads
        if quantize:
            pois_units = bank.units_at(t)[0]
        else:
            pois_pa[bank.neuron] = bank.counts_at(t) * bank.w_pa
        g = fired.nonzero()[0]
        if not g.size:
            continue
        spikes.add(t, g)
        # the spans of every spike of the step, delivered at once
        s = matrices.ranges(spans.span_ptr[g], n_spans[g])
        lo = spans.lo[s]
        if quantize:
            matrices.ring_insert(acc, table, t, lo, spans.hi[s] - lo)
        else:
            syn = matrices.ranges(lo, spans.hi[s] - lo)
            cell = table.cell[syn]
            slots = np.add(layout.delays(cell), t & (n_slots - 1), dtype=np.intp)
            slots &= n_slots - 1
            np.add.at(float_acc, (slots, layout.targets(cell)), w_pa[syn])

    return trace.from_step_records(network, spikes, discard_ms)

