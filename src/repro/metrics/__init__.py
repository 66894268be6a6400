"""Evaluation metrics: communication cost, bandwidth needs, energy.

* :func:`~repro.metrics.comm_cost.comm_cost` — Equation 7, the paper's
  primary objective (bandwidth-weighted minimum hop count).
* :mod:`repro.metrics.bandwidth` — link loads and the minimum uniform link
  bandwidth required under each routing discipline (Figure 4's metric).
* :mod:`repro.metrics.energy` — the Hu–Marculescu bit-energy model used by
  the PBB baseline's original objective (extension; the DATE'04 paper
  compares on cost/bandwidth only).

Cost kernels are numpy gathers: :func:`placement_costs` scores every
candidate node for an unmapped core; :class:`SwapGains` is the gain table
(cost of each core on each node, neighbors pinned) NMAP's swap scans gather
every partner's delta from, updated in place when a swap commits;
:class:`SwapMirror` scores one move at a time for the annealer (see
PERFORMANCE.md).  :func:`comm_cost_reference` and the per-pair
:func:`swap_cost_delta` are the seed's scalar forms: the first is what
:func:`comm_cost` falls back to on partial mappings, and the tests hold
the kernels to both.
"""

from repro.metrics.bandwidth import (
    min_bandwidth_min_path,
    min_bandwidth_split,
    min_bandwidth_xy,
)
from repro.metrics.comm_cost import (
    SwapGains,
    SwapMirror,
    average_hop_count,
    comm_cost,
    comm_cost_reference,
    placement_costs,
    swap_cost_delta,
)
from repro.metrics.energy import BitEnergyModel, communication_energy
from repro.metrics.report import MappingReport, evaluate_mapping

__all__ = [
    "BitEnergyModel",
    "MappingReport",
    "SwapGains",
    "SwapMirror",
    "average_hop_count",
    "comm_cost",
    "comm_cost_reference",
    "communication_energy",
    "placement_costs",
    "swap_cost_delta",
    "evaluate_mapping",
    "min_bandwidth_min_path",
    "min_bandwidth_split",
    "min_bandwidth_xy",
]
