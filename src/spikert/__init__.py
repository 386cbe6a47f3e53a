"""Deterministic simulator of a multicast-routed many-core neuromorphic
machine running spiking networks in real time, plus a direct reference
simulator and analysis tooling."""

from .costs import CostModel
from .kinetics import NeuronParams, NeuronState, lif_step
from .machine import MachineSpec, auto_machine, load_machine_spec
from .mapping import allocate_keys, build_routing_tables, partition, place_radial
from .matrices import PoissonBank, encode_projections
from .network import (NetworkModel, NetworkSpec, build_network, load_network_spec,
                      scale_network)
from .oracle import oracle_simulate
from .runtime import HardwareSimulation, RunResult
from .trace import SpikeTrace, load_trace

__version__ = "0.1.0"

__all__ = [
    "CostModel", "HardwareSimulation", "MachineSpec", "NetworkModel", "NetworkSpec",
    "NeuronParams", "NeuronState", "PoissonBank", "RunResult", "SpikeTrace", "allocate_keys",
    "auto_machine", "build_network", "build_routing_tables", "encode_projections", "lif_step",
    "load_machine_spec", "load_network_spec", "load_trace", "oracle_simulate", "partition",
    "place_radial", "scale_network",
]
