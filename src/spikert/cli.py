"""Command-line orchestration: build, map, simulate, analyse, report.

A run consumes a network model file and an optional machine file, builds and
places the network, executes the machine model and/or the reference
simulator, and writes traces, profiles, sync diagnostics, statistics and a
manifest.  The manifest plus the copied resolved spec files are enough to
reproduce every output byte for byte.

A run's set-up is one streaming pass: ``build_network`` samples one
projection at a time straight into the synapse table's fields (the
network's ``SynapseSink``), encoding its weights as soon as it is drawn,
and ``matrices.encode_projections`` adds the shifts to the accumulator
scales once the last one is in.  The set-up peaks at the table (6 B per
synapse: a packed uint32 cell and a 16-bit word) plus the float weights of
the largest projection; a run of the oracle's
unquantized path (``oracle_quantize`` false in a manifest) keeps every
float weight too, 8 B more per synapse.
Every run writes ``timings.json``, the seconds and peak RSS of each of its
phases.

A run's memory grows with its simulated duration only by its spikes and
steps: a simulator's record (about 4 B per spike and per step), its trace
(8 B per spike: the step and global neuron that the output files and
statistics derive from) and its spike counts per step (32 B per step).
The Poisson bank holds one chunk of steps at a time, the profile counters
are spilled to a file as the run goes, and the traces, profiles and spike
counts are written to their files in pieces, never built as one string.

The cost moves to disk, into two unnamed scratch files in the output
directory (``tempfile.TemporaryFile``), which the system frees when the run
closes them or ends, however it ends, so they are never among its outputs:

- the per-step profile, when a hardware run writes one (``--profile
  full``): 36 B per synapse core and step (about 1.3 GB per simulated
  second at full scale).  A run without it still writes
  ``flush_report.txt``, from the totals the run adds up as it goes;
- in ``--mode both`` only, every chunk of background counts the Poisson
  bank draws, which the oracle reads back instead of drawing them again:
  2 B per Poisson source and step (6.2 MB for 200 ms at scale 0.02, about
  1.5 GB per simulated second at full scale).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import analysis, matrices, oracle, runtime, trace, weights
from .clocks import BEACON_INTERVAL_S, WARMUP_ROUNDS, ClockConfig
from .costs import CostModel, load_cost_model
from .machine import MachineSpec, load_machine_spec, serialize_machine_spec
from .mapping import (NEURONS_PER_CORE, KeyOverflowError, PlacementError, RoutingError,
                      allocate_keys, build_routing_tables, destination_cores, partition,
                      place_radial)
from .network import SpecError, build_network, load_network_spec, scale_network, \
    serialize_network_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SPEC = 3
EXIT_PLACEMENT = 4
EXIT_KEY = 5
EXIT_ROUTING = 6
EXIT_IO = 7


@dataclass
class RunConfig:
    model: str
    out: str
    machine: str | None = None
    scale: float = 1.0
    input: str = "poisson"           # dc | poisson
    mode: str = "both"               # hardware | oracle | both
    duration_ms: float = 1000.0
    slowdown: float = 1.0
    discard_ms: float = 0.0
    seed_network: int = 1
    seed_poisson: int = 2
    seed_drift: int = 3
    drift_bound_ppm: float = 0.0
    costs: str | None = None
    map_only: bool = False
    profile: str = "full"            # full | none
    oracle_quantize: bool = True

    def validate(self) -> None:
        for name in ("duration_ms", "slowdown", "discard_ms"):
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.duration_ms <= 0:
            raise SpecError("duration must be positive")
        if self.slowdown < 1.0:
            raise SpecError("slow-down multiplier must be >= 1")
        if self.mode not in ("hardware", "oracle", "both"):
            raise SpecError(f"unknown mode '{self.mode}'")
        if self.input not in ("dc", "poisson"):
            raise SpecError(f"unknown input variant '{self.input}'")
        if not 0.0 < self.scale <= 1.0:
            raise SpecError("scale must be in (0, 1]")
        if self.discard_ms < 0 or self.discard_ms >= self.duration_ms:
            raise SpecError("discard window must fall inside the run")
        for name in ("seed_network", "seed_poisson", "seed_drift"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be >= 0, got {getattr(self, name)}")
        ClockConfig(drift_bound_ppm=self.drift_bound_ppm).validate()
        if self.profile not in ("full", "none"):
            raise SpecError("profile must be 'full' or 'none'")


def build_parser() -> argparse.ArgumentParser:
    """The command line; an option left out takes ``RunConfig``'s default."""
    p = argparse.ArgumentParser(
        prog="spikert", argument_default=argparse.SUPPRESS,
        description="Simulate spiking networks on a modeled multicast many-core machine.")
    p.add_argument("--model", help="network model spec file")
    p.add_argument("--machine", help="machine spec file (default: smallest fitting)")
    p.add_argument("--scale", type=float, help="population down-scale factor")
    p.add_argument("--input", choices=("dc", "poisson"), help="background input variant")
    p.add_argument("--mode", choices=("hardware", "oracle", "both"))
    p.add_argument("--duration-ms", type=float)
    p.add_argument("--slowdown", type=float, help="timer-period multiplier; 1 = real time")
    p.add_argument("--discard-ms", type=float, help="initial transient dropped from statistics")
    p.add_argument("--seed-network", type=int)
    p.add_argument("--seed-poisson", type=int)
    p.add_argument("--seed-drift", type=int)
    p.add_argument("--drift-bound-ppm", type=float,
                   help="uniform board clock drift bound (0 disables drift)")
    p.add_argument("--costs", help="cost model override file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--map-only", action="store_true",
                   help="partition, place and route without simulating")
    p.add_argument("--profile", choices=("full", "none"))
    p.add_argument("--manifest", help="re-run from a previously written manifest")
    return p


def main(argv=None) -> int:
    # A C allocation of 1 MiB or more gets its own mapping, unmapped when
    # freed, and each phase hands its freed heap pages back (malloc_trim in
    # ``run``): glibc otherwise raises the threshold to each large block freed,
    # so the released synapse arrays stay resident in its heap, and whether
    # later arrays reuse them depends on allocation order, which moved the
    # peak RSS of one run by 7 MB from start to start.
    _libc("mallopt", -3, 1 << 20)  # M_MMAP_THRESHOLD
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    try:
        if "manifest" in args:
            cfg = _config_from_manifest(args["manifest"], args.get("out"))
        else:
            if not args.get("model") or not args.get("out"):
                parser.error("--model and --out are required (or use --manifest)")
            cfg = RunConfig(**{f.name: args[f.name] for f in dataclasses.fields(RunConfig)
                               if f.name in args})
        run(cfg)
        return EXIT_OK
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (PlacementError, runtime.SchedulingError) as exc:
        print(f"placement error: {exc}", file=sys.stderr)
        return EXIT_PLACEMENT
    except KeyOverflowError as exc:
        print(f"key allocation error: {exc}", file=sys.stderr)
        return EXIT_KEY
    except RoutingError as exc:
        print(f"routing error: {exc}", file=sys.stderr)
        return EXIT_ROUTING
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


try:
    _LIBC = ctypes.CDLL(None)  # the process's own symbols: the C library's on Linux
except (OSError, TypeError):  # no handle to load on Windows
    _LIBC = None


def _libc(name: str, *args) -> None:
    """Call the C library's ``name`` where the process has one (glibc)."""
    if hasattr(_LIBC, name):
        getattr(_LIBC, name)(*args)


def _config_from_manifest(path: str, out_override: str | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"manifest {path}: not valid JSON: {exc}") from None
    try:
        cfg = RunConfig(**data["run_config"])
    except (KeyError, TypeError) as exc:
        raise SpecError(f"manifest {path}: bad run_config: {exc}") from None
    for field in dataclasses.fields(RunConfig):
        value = getattr(cfg, field.name)
        if isinstance(value, bool) != (field.type == "bool") or not isinstance(
                value, _MANIFEST_TYPES[field.type]):
            raise SpecError(f"manifest {path}: bad run_config: {field.name} must be "
                            f"{field.type}, got {value!r}")
    if out_override:
        cfg.out = out_override
    cfg.validate()
    return cfg


# the JSON values each RunConfig annotation accepts
_MANIFEST_TYPES = {"str": str, "str | None": (str, type(None)), "float": (int, float),
                   "int": int, "bool": bool}


def run(cfg: RunConfig) -> None:
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    timings = _Timings()

    spec = load_network_spec(cfg.model, cfg.input)
    steps = cfg.duration_ms / spec.dt_ms
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
        raise SpecError(f"duration {cfg.duration_ms} ms is not a positive multiple of "
                        f"dt={spec.dt_ms} ms")
    if round(steps) > runtime.MAX_STEPS:
        raise SpecError(f"duration {cfg.duration_ms} ms is {round(steps)} steps of dt="
                        f"{spec.dt_ms} ms; a run has at most {runtime.MAX_STEPS} (2**32)")
    if cfg.scale != 1.0:
        spec = scale_network(spec, cfg.scale)
    machine = load_machine_spec(cfg.machine) if cfg.machine else None
    costs = load_cost_model(cfg.costs)
    timings.mark("spec")

    # one encoded synapse table and one Poisson bank, read by both simulators:
    # each projection is sampled straight into the table's fields
    net = build_network(spec, cfg.seed_network, sample_synapses=not cfg.map_only,
                        keep_weights=not cfg.oracle_quantize)

    _write(cfg, "resolved_model.net", serialize_network_spec(spec))

    if cfg.map_only:
        timings.mark("neurons")
        _run_map_only(cfg, net, machine, timings)
        return

    table = matrices.encode_projections(net)
    _libc("malloc_trim", 0)
    timings.mark("sample_encode")

    clock_cfg = ClockConfig(drift_bound_ppm=cfg.drift_bound_ppm)
    results = {}
    sim = res = None
    if cfg.mode in ("hardware", "both"):
        sim = runtime.HardwareSimulation(
            net, table, machine=machine, costs=costs, clock_cfg=clock_cfg,
            drift_seed=cfg.seed_drift, slowdown=cfg.slowdown)
        _libc("malloc_trim", 0)
        timings.mark("hardware_setup")
    # the profile counters are spilled to an unnamed file in the output
    # directory as the run goes, and read back from it when their files are
    # written; in --mode both, so are the Poisson counts, which the oracle
    # reads back
    with contextlib.ExitStack() as scratch:
        def scratch_file():
            return scratch.enter_context(tempfile.TemporaryFile(dir=cfg.out))

        spill = scratch_file() if sim is not None and cfg.profile == "full" else None
        draws = scratch_file() if cfg.mode == "both" else None
        bank = matrices.PoissonBank(net, cfg.seed_poisson, round(steps), draws)
        timings.mark("poisson_bank")
        if sim is not None:
            res = sim.run(cfg.duration_ms, bank, discard_ms=cfg.discard_ms, spill=spill)
            results["hardware"] = res.trace
            timings.mark("hardware_run")
        if cfg.mode in ("oracle", "both"):
            results["oracle"] = oracle.oracle_simulate(
                net, table, bank, cfg.duration_ms, quantize=cfg.oracle_quantize,
                discard_ms=cfg.discard_ms)
            timings.mark("oracle")
        del table, bank  # the outputs need neither
        if res is not None and res.profile is not None:
            _write(cfg, "profile.tsv", res.profile.serialize)
            _write(cfg, "profile_events.tsv", res.profile.serialize_events)

    if res is not None:
        _write(cfg, "trace_hardware.txt", res.trace.serialize)
        _write(cfg, "flush_report.txt", _flush_text(analysis.flush_report(res), res))
        _write(cfg, "sync.tsv", res.sync_diagnostics.serialize())
        _write_mapping(cfg, sim.placement, sim.tables)
    if "oracle" in results:
        _write(cfg, "trace_oracle.txt", results["oracle"].serialize)

    for name, tr in results.items():
        if len(tr):
            stats = analysis.firing_stats(tr)
            _write(cfg, f"stats_{name}.txt", analysis.stats_document(stats))
        _write(cfg, f"counts_{name}.tsv", _counts_writer(analysis.per_timestep_counts(tr)))

    if cfg.mode == "both":
        same = results["hardware"] == results["oracle"]
        _write(cfg, "equivalence.txt",
               f"identical_traces {same}\n"
               f"hardware_spikes {len(results['hardware'])}\n"
               f"oracle_spikes {len(results['oracle'])}\n")
        print(f"equivalence: identical_traces={same}")

    _write_manifest(cfg, costs, sim)
    timings.mark("outputs")
    _write(cfg, "timings.json", timings.document())
    print(f"run complete: outputs in {cfg.out}")


def _run_map_only(cfg: RunConfig, net, machine: MachineSpec | None,
                  timings: _Timings) -> None:
    ensembles = partition(net)
    if machine is None:
        placement = runtime._place(ensembles, None)[1]
    else:
        placement = place_radial(ensembles, machine)
    keys = allocate_keys(placement)
    dest_ptr, dest_core = destination_cores(placement, net.spec.projections)
    tables = build_routing_tables(placement, keys, dest_ptr, dest_core)
    timings.mark("mapping")
    summary = _write_mapping(cfg, placement, tables)
    _write_manifest(cfg, load_cost_model(cfg.costs), None)
    timings.mark("outputs")
    _write(cfg, "timings.json", timings.document())
    print(summary)


class _Timings:
    """Wall time (``perf_counter``) and peak RSS (``ru_maxrss``, where the
    system reports it) at the phase boundaries of a run, for
    ``timings.json``: each phase's seconds and the peak RSS at its end."""

    def __init__(self):
        self.phases: list[dict] = []
        self._last = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        maxrss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                  if resource is not None else None)  # KiB on Linux
        self.phases.append({"phase": phase, "seconds": round(now - self._last, 6),
                            "maxrss_mib": None if maxrss is None else round(maxrss, 1)})
        self._last = now

    def document(self) -> str:
        return json.dumps({"seconds": round(sum(p["seconds"] for p in self.phases), 6),
                           "phases": self.phases}, indent=2) + "\n"


def _write_mapping(cfg: RunConfig, placement, tables) -> str:
    """Write a run's placement, routing tables, machine and placement
    summary; returns the summary."""
    summary = _summary_text(placement, tables)
    _write(cfg, "placement.txt", placement.serialize())
    _write(cfg, "routing_tables.txt", tables.serialize())
    _write(cfg, "machine.mach", serialize_machine_spec(placement.machine))
    _write(cfg, "placement_summary.txt", summary)
    return summary


def _summary_text(placement, tables) -> str:
    ensembles = placement.ensembles
    counts = np.unique(placement.chip, return_counts=True)[1]
    entry_counts = tables.entry_counts()
    lines = [
        f"ensembles {len(ensembles)}",
        f"cores_used {ensembles.n_cores.sum()}",
        f"chips_used {counts.size}",
        f"ensembles_per_chip_min {counts.min() if counts.size else 0}",
        f"ensembles_per_chip_max {counts.max(initial=0)}",
        f"routing_entries_total {sum(entry_counts.values())}",
        f"routing_entries_max_per_chip {max(entry_counts.values()) if entry_counts else 0}",
    ]
    return "\n".join(lines) + "\n"


def _flush_text(rep: analysis.FlushReport, res: runtime.RunResult) -> str:
    return ("processed_events {0}\nflushed_events {1}\nloss_fraction {2:.6g}\n"
            "processed_packets {3}\nflushed_packets {4}\nmax_flushed_in_timestep {5}\n"
            "cross_timestep_packets {6}\npoisson_saturations {7}\n").format(
        rep.processed_events, rep.flushed_events, rep.loss_fraction,
        rep.processed_packets, rep.flushed_packets, rep.max_flushed_in_timestep,
        res.totals["late_packets"], res.poisson_saturations)


def _counts_writer(counts):
    """Writes ``counts_{name}.tsv`` from the four per-step arrays ``counts``
    (``analysis.per_timestep_counts``), stacking ``trace.LINES`` steps at a time."""
    def write(fh) -> None:
        fh.write("# timestep total excitatory inhibitory\n")
        for a in range(0, len(counts[0]), trace.LINES):
            block = np.stack([c[a:a + trace.LINES] for c in counts], axis=1)
            fh.write("%d %d %d %d\n" * len(block) % tuple(block.ravel().tolist()))
    return write


def _write_manifest(cfg: RunConfig, costs: CostModel, sim) -> None:
    # Record the resolved copies so a manifest re-run is reproducible even if
    # the original inputs change: scaling/variant selection happened already.
    cost_lines = ["[costs]"] + [f"{f.name} = {getattr(costs, f.name)}"
                                for f in dataclasses.fields(costs)]
    _write(cfg, "costs_resolved.cfg", "\n".join(cost_lines) + "\n")
    replay = dataclasses.replace(
        cfg,
        model=os.path.abspath(os.path.join(cfg.out, "resolved_model.net")),
        scale=1.0,
        machine=(os.path.abspath(os.path.join(cfg.out, "machine.mach"))
                 if os.path.exists(os.path.join(cfg.out, "machine.mach")) else None),
        costs=os.path.abspath(os.path.join(cfg.out, "costs_resolved.cfg")))
    manifest = {
        "run_config": dataclasses.asdict(replay),
        "cost_model": dataclasses.asdict(costs),
        "defaults": {
            "neurons_per_core": NEURONS_PER_CORE,
            "correlation_bin_ms": analysis.CORR_BIN_MS,
            "correlation_subsample": analysis.CORR_SUBSAMPLE,
            "correlation_estimator": analysis.CORR_ESTIMATOR,
            "weight_bits": weights.WEIGHT_BITS,
            "min_weight_significant_bits": weights.MIN_SIG_BITS,
            "beacon_interval_s": BEACON_INTERVAL_S,
            "warmup_rounds": WARMUP_ROUNDS,
        },
    }
    if sim is not None:
        manifest["machine"] = dataclasses.asdict(sim.machine)
    _write(cfg, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write(cfg: RunConfig, name: str, content) -> None:
    """Write the output file ``name``: ``content`` is its text, or a function
    that writes the text to the open file, so that a large file is written
    in pieces."""
    with open(os.path.join(cfg.out, name), "w", encoding="utf-8") as fh:
        if callable(content):
            content(fh)
        else:
            fh.write(content)


if __name__ == "__main__":
    sys.exit(main())
