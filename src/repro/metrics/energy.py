"""Hu–Marculescu bit-energy model (ASP-DAC 2003), used by the PBB baseline.

The PBB algorithm the paper compares against originally minimizes
communication *energy*: moving one bit across a link costs ``E_link`` and
through a router costs ``E_router``, so a ``h``-hop route costs
``h * E_link + (h + 1) * E_router`` per bit.  With uniform per-hop costs the
energy objective is an affine function of Equation 7's hop-weighted cost,
which is why the paper can compare the algorithms on cost directly.  The
model is included for completeness and for the energy ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # annotations only: repro.mapping imports repro.metrics
    from repro.mapping.base import Mapping


@dataclass(frozen=True)
class BitEnergyModel:
    """Per-bit energy parameters in picojoules.

    Defaults follow the ballpark of 0.18um NoC literature: a router hop
    costs roughly 2-5x a link traversal.
    """

    link_pj_per_bit: float = 0.39
    router_pj_per_bit: float = 1.17

    def path_energy_pj(self, hops: int) -> float:
        """Energy to move one bit across ``hops`` links (``hops+1`` routers)."""
        if hops < 0:
            raise ReproError(f"hop count must be non-negative, got {hops}")
        return hops * self.link_pj_per_bit + (hops + 1) * self.router_pj_per_bit


def communication_energy(
    mapping: Mapping, model: BitEnergyModel | None = None
) -> float:
    """Total communication power in milliwatts-equivalent (pJ x MB/s).

    Each flow contributes ``bandwidth * 8e6 bits/s * path_energy_pj``;
    the result is returned in milliwatts (pJ/s * 1e-9).
    """
    model = model or BitEnergyModel()
    topology = mapping.topology
    total_pj_per_s = 0.0
    for flow in mapping.core_graph.flows():
        hops = topology.distance(mapping.node_of(flow.src), mapping.node_of(flow.dst))
        bits_per_s = flow.bandwidth * 8e6
        total_pj_per_s += bits_per_s * model.path_energy_pj(hops)
    return total_pj_per_s * 1e-9
