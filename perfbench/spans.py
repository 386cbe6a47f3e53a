"""In-memory span recorder and the instrumentation points of the benchmark.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began.  Self time is a span's duration minus the
durations of its children, so the self times of all spans of a run add up to
the root span's duration exactly.

Functions are wrapped where their caller looks them up: ``cli.run`` calls
``cli.build_routing_tables`` (the name bound in the ``cli`` module), while
``HardwareSimulation`` calls ``runtime.build_routing_tables``.  Wrapping only
the defining module would leave the call unrecorded and its time charged to
the caller.  Nothing under ``src/spikert`` is edited; wrapping happens in the
benchmark's child process before the CLI runs.
"""

from __future__ import annotations

import functools
import resource
import time

_clock = time.perf_counter


def maxrss_bytes() -> int:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Recorder:
    """Spans of one process, kept as records ``[name, start, end, parent, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, measure=None, rss: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``measure(args, result)`` runs after the span has closed and stores a
        small value with the span; ``rss`` stores the peak-RSS growth in
        bytes across the call.
        """
        func = getattr(owner, attr)
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rss0 = maxrss_bytes() if rss else 0
            idx = rec.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.close(idx)
            if measure is not None:
                rec.spans[idx][4] = measure(args, result)
            elif rss:
                rec.spans[idx][4] = maxrss_bytes() - rss0
            return result

        setattr(owner, attr, wrapper)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, first start and
        end relative to the root, and the list of measured values."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        t0 = self.spans[0][1] if self.spans else 0.0
        out: dict[str, dict] = {}
        for i, (name, start, end, _, extra) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "first_end_s": end - t0, "values": []})
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - child[i]
            if extra is not None:
                agg["values"].append(extra)
        return out


def _window_counts(args, result):
    # received, processed, flushed, zero_target, kickstarts, busy_us,
    # processed_events, flushed_events, late
    return (result[0], result[2], result[6], result[7], result[8])


def _bank_bytes(args, result):
    return sum(int(m.nbytes) for m in args[0].counts.values())


def _table_entries(args, result):
    return sum(result.entry_counts().values())


def install_timing(rec: Recorder) -> None:
    """The untraced run: entry and exit of the top-level calls ``cli.run``
    makes, which split the wall time into set-up, hardware run, oracle and
    output."""
    from spikert import cli, oracle, runtime

    rec.wrap(runtime.HardwareSimulation, "__init__", "runtime.setup")
    rec.wrap(runtime.HardwareSimulation, "run", "runtime.run")
    rec.wrap(oracle, "oracle_simulate", "oracle.simulate")
    rec.wrap(cli, "build_routing_tables", "mapping.routing_tables")


def install_tracing(rec: Recorder) -> None:
    """The traced run: one span per call at every layer boundary."""
    from spikert import analysis, cli, clocks, mapping, matrices, oracle, runtime, trace

    # names the CLI looks up in its own module
    rec.wrap(cli, "load_network_spec", "network.load")
    rec.wrap(cli, "scale_network", "network.scale")
    rec.wrap(cli, "build_network", "network.build",
             measure=lambda a, r: 0 if r.projections is None else r.synapse_count())
    rec.wrap(cli, "load_cost_model", "costs.load")
    rec.wrap(cli, "partition", "mapping.partition")
    rec.wrap(cli, "place_radial", "mapping.place_radial")
    rec.wrap(cli, "allocate_keys", "mapping.keys")
    rec.wrap(cli, "destination_cores", "mapping.destinations")
    rec.wrap(cli, "build_routing_tables", "mapping.routing_tables", measure=_table_entries)
    rec.wrap(cli, "_write", "cli.write")
    rec.wrap(oracle, "oracle_simulate", "oracle.simulate", measure=lambda a, r: len(r))
    rec.wrap(analysis, "firing_stats", "analysis.firing_stats")
    rec.wrap(analysis, "stats_document", "analysis.stats_document")
    rec.wrap(analysis, "per_timestep_counts", "analysis.per_timestep_counts")
    rec.wrap(analysis, "flush_report", "analysis.flush_report")

    # names HardwareSimulation looks up in the runtime module
    rec.wrap(runtime, "partition", "mapping.partition")
    rec.wrap(runtime, "_place", "mapping.place")
    rec.wrap(runtime, "place_radial", "mapping.place_radial")
    rec.wrap(runtime, "allocate_keys", "mapping.keys")
    rec.wrap(runtime, "destination_cores", "mapping.destinations")
    rec.wrap(runtime, "build_routing_tables", "mapping.routing_tables",
             measure=_table_entries)
    rec.wrap(runtime, "delivery_map", "mapping.delivery_map")
    rec.wrap(runtime, "_advance", "runtime.neuron_update")
    rec.wrap(mapping, "walk_packet", "mapping.walk_packet")

    # names both simulation paths look up in the matrices and trace modules
    rec.wrap(matrices, "accumulator_scales", "matrices.scales")
    rec.wrap(matrices, "encode_projections", "matrices.encode")
    rec.wrap(matrices, "expand_constants", "matrices.constants")
    rec.wrap(matrices, "source_delivery_index", "matrices.source_index")
    rec.wrap(matrices.PoissonBank, "__init__", "matrices.poisson_bank", measure=_bank_bytes)
    rec.wrap(matrices.PoissonBank, "units_slice", "matrices.poisson_slice")
    rec.wrap(trace, "from_step_records", "trace.build")
    rec.wrap(trace.SpikeTrace, "serialize", "trace.serialize")
    rec.wrap(oracle, "advance_state", "oracle.neuron_update")

    # class methods, wrapped once on the class
    rec.wrap(runtime.HardwareSimulation, "__init__", "runtime.setup", rss=True)
    rec.wrap(runtime.HardwareSimulation, "run", "runtime.run")
    rec.wrap(runtime.SynapseCoreState, "run_window", "runtime.window", measure=_window_counts)
    rec.wrap(runtime.ProfileStore, "serialize", "runtime.profile_serialize")
    rec.wrap(runtime.ProfileStore, "serialize_events", "runtime.profile_serialize")
    rec.wrap(clocks.MachineClocks, "__init__", "clocks.init")
    rec.wrap(clocks.MachineClocks, "run_round", "clocks.round")
    rec.wrap(clocks.ChipClock, "advance_period", "clocks.advance")
