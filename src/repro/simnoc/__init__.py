"""Flit-level wormhole NoC simulator (SystemC / ×pipes substitute).

The paper validates NMAP by generating a SystemC NoC with ×pipes macros and
simulating it cycle-accurately (§7.2, Figure 5c).  This package is the
equivalent substrate in Python, split into two layers (``ARCHITECTURE.md``):

* a **model layer** — the fabric's wiring for two router models (the
  paper's wormhole switch, plus a virtual-channel variant), credit-flow
  links and pluggable traffic injectors (trace-driven from the mapped core
  graph, or synthetic uniform-random / transpose / bursty on-off
  patterns);
* an **engine layer** — one time-advance backend, ``engine="vector"``,
  which flattens the network into numpy-backed flat state (``"cycle"``,
  ``"event"`` and ``"sharded"`` are names of it, and ``"auto"`` a policy
  that picks it).  The object model it transliterates — router, lane and
  network-interface objects — is the test oracle under ``tests/reference``.

Key model parameters (:class:`SimConfig`) mirror the paper's Table 3:
64-byte packets, a 7-cycle switch traversal, and link bandwidths swept in
GB/s (converted to flits/cycle by the configured clock and flit width).
"""

from repro.simnoc.config import SimConfig
from repro.simnoc.engines import get_engine, list_engines
from repro.simnoc.models import TrafficSource, get_traffic_pattern, list_traffic_patterns
from repro.simnoc.network import (
    Network,
    build_network,
    build_synthetic_network,
)
from repro.simnoc.packet import Flit, FlitKind, Packet
from repro.simnoc.simulator import (
    SimulationReport,
    Simulator,
    simulate_mapping,
    simulate_synthetic,
)
from repro.simnoc.stats import FlowStats, LatencyStats
from repro.simnoc.trace import TraceEvent, TraceRecorder
from repro.simnoc.traffic import BurstyTrafficSource

__all__ = [
    "BurstyTrafficSource",
    "Flit",
    "FlitKind",
    "FlowStats",
    "LatencyStats",
    "Network",
    "Packet",
    "SimConfig",
    "SimulationReport",
    "Simulator",
    "TraceEvent",
    "TraceRecorder",
    "TrafficSource",
    "build_network",
    "build_synthetic_network",
    "get_engine",
    "get_traffic_pattern",
    "list_engines",
    "list_traffic_patterns",
    "simulate_mapping",
    "simulate_synthetic",
]
