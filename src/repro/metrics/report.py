"""One-stop evaluation report for a completed mapping.

Bundles every quantity the paper evaluates — cost, average hops, per-scheme
minimum bandwidth, energy, routing-table overhead, deadlock verdict — into
one structure with a text renderer.  The CLI's ``map`` command and the
examples use it so users see the full picture without stitching calls
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graphs.commodities import build_commodities
from repro.metrics.bandwidth import (
    min_bandwidth_min_path,
    min_bandwidth_split,
    min_bandwidth_xy,
)
from repro.metrics.comm_cost import average_hop_count, comm_cost
from repro.metrics.energy import BitEnergyModel, communication_energy
from repro.routing.deadlock import is_deadlock_free
from repro.routing.min_path import min_path_routing
from repro.routing.tables import table_overhead_ratio

if TYPE_CHECKING:  # annotations only: repro.mapping imports repro.metrics
    from repro.mapping.base import Mapping


@dataclass(frozen=True)
class MappingReport:
    """Every paper metric for one mapping, ready to render or assert on."""

    app_name: str
    mesh: str
    comm_cost: float
    avg_hops: float
    min_bw_xy: float
    min_bw_min_path: float
    min_bw_split_min_paths: float
    min_bw_split_all_paths: float
    energy_mw: float
    table_overhead_ratio: float
    xy_deadlock_free: bool

    @property
    def split_saving_factor(self) -> float:
        """Bandwidth saving of all-path splitting over single min-path."""
        if self.min_bw_split_all_paths == 0:
            return 1.0
        return self.min_bw_min_path / self.min_bw_split_all_paths

    def render(self) -> str:
        lines = [
            f"mapping report: {self.app_name} on {self.mesh}",
            f"  comm cost (Eq.7)        : {self.comm_cost:.0f} hops*MB/s",
            f"  avg hop count           : {self.avg_hops:.2f}",
            f"  min BW, XY routing      : {self.min_bw_xy:.0f} MB/s",
            f"  min BW, min-path        : {self.min_bw_min_path:.0f} MB/s",
            f"  min BW, split min paths : {self.min_bw_split_min_paths:.0f} MB/s",
            f"  min BW, split all paths : {self.min_bw_split_all_paths:.0f} MB/s"
            f"  ({self.split_saving_factor:.2f}x saving)",
            f"  comm energy             : {self.energy_mw:.2f} mW",
            f"  routing-table overhead  : {self.table_overhead_ratio * 100:.1f}% of buffer bits",
            f"  XY deadlock-free        : {self.xy_deadlock_free}",
        ]
        return "\n".join(lines) + "\n"


def evaluate_mapping(
    mapping: Mapping, energy_model: BitEnergyModel | None = None
) -> MappingReport:
    """Compute the full report for a complete mapping.

    Raises:
        repro.errors.MappingError: when the mapping is incomplete.
    """
    mapping.validate()
    topology = mapping.topology
    min_path = min_path_routing(topology, build_commodities(mapping.core_graph, mapping))

    xy_bw, xy_result = min_bandwidth_xy(mapping)
    mp_bw, _ = min_bandwidth_min_path(mapping, min_path)
    tm_bw, _ = min_bandwidth_split(mapping, quadrant_only=True)
    ta_bw, _ = min_bandwidth_split(mapping, quadrant_only=False)

    return MappingReport(
        app_name=mapping.core_graph.name,
        mesh=f"{topology.width}x{topology.height}"
        + (" torus" if topology.torus else " mesh"),
        comm_cost=comm_cost(mapping),
        avg_hops=average_hop_count(mapping),
        min_bw_xy=xy_bw,
        min_bw_min_path=mp_bw,
        min_bw_split_min_paths=tm_bw,
        min_bw_split_all_paths=ta_bw,
        energy_mw=communication_energy(mapping, energy_model),
        table_overhead_ratio=table_overhead_ratio(min_path),
        xy_deadlock_free=is_deadlock_free(xy_result),
    )
