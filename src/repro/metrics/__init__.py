"""Evaluation metrics: communication cost, bandwidth needs, energy.

* :func:`~repro.metrics.comm_cost.comm_cost` — Equation 7, the paper's
  primary objective (bandwidth-weighted minimum hop count).
* :mod:`repro.metrics.bandwidth` — link loads and the minimum uniform link
  bandwidth required under each routing discipline (Figure 4's metric).
* :mod:`repro.metrics.energy` — the Hu–Marculescu bit-energy model used by
  the PBB baseline's original objective (extension; the DATE'04 paper
  compares on cost/bandwidth only).

Cost kernels are numpy-vectorized: :func:`swap_cost_deltas` scores every
candidate swap partner of a node in one call and :func:`placement_costs`
every candidate node for an unmapped core; :class:`SwapMirror` scores one
move at a time (see PERFORMANCE.md).  :func:`comm_cost_reference` and the
per-pair :func:`swap_cost_delta` are the scalar forms they fall back to on
partial mappings.
"""

from repro.metrics.bandwidth import (
    min_bandwidth_min_path,
    min_bandwidth_split,
    min_bandwidth_xy,
)
from repro.metrics.comm_cost import (
    SwapMirror,
    average_hop_count,
    comm_cost,
    comm_cost_reference,
    placement_costs,
    swap_cost_delta,
    swap_cost_deltas,
)
from repro.metrics.energy import BitEnergyModel, communication_energy
from repro.metrics.report import MappingReport, evaluate_mapping

__all__ = [
    "BitEnergyModel",
    "MappingReport",
    "SwapMirror",
    "average_hop_count",
    "comm_cost",
    "comm_cost_reference",
    "communication_energy",
    "placement_costs",
    "swap_cost_delta",
    "swap_cost_deltas",
    "evaluate_mapping",
    "min_bandwidth_min_path",
    "min_bandwidth_split",
    "min_bandwidth_xy",
]
