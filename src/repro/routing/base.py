"""Common routing result representation shared by all routers.

A :class:`RoutingResult` records, for a fixed mapping and commodity set, how
much of each commodity crosses each directed link — either as explicit node
paths (single-path routers) or as fractional per-commodity link flows (the
MCF solvers).  Everything the evaluation needs derives from it: aggregate
link loads, the bandwidth-constraint check of Inequality 3, the maximum load
(= minimum uniform link capacity, Figure 4's metric) and flow decompositions
for the simulator's source routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology

LinkKey = tuple[int, int]

#: Loads below this are treated as zero when cleaning up LP output.
FLOW_EPSILON = 1e-9


def path_links(path: list[int]) -> list[LinkKey]:
    """The directed links traversed by a node path."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


@dataclass
class RoutingResult:
    """Per-commodity link flows plus derived aggregates.

    Attributes:
        topology: the NoC the flows live on.
        commodities: the routed commodity list (paper's ``D``).
        flows: per commodity index, a map link -> MB/s of that commodity
            crossing the link (``x^k_{i,j}`` in the paper).
        paths: for single-path routers, the node path per commodity index;
            None for fractional routings.
        algorithm: producing router name.
    """

    topology: NoCTopology
    commodities: list[Commodity]
    flows: dict[int, dict[LinkKey, float]]
    paths: dict[int, list[int]] | None = None
    algorithm: str = "routing"
    _link_loads: dict[LinkKey, float] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def link_loads(self) -> dict[LinkKey, float]:
        """Aggregate load per directed link: ``sum_k x^k_{i,j}`` (cached)."""
        if self._link_loads is None:
            loads: dict[LinkKey, float] = {}
            for flow_map in self.flows.values():
                for link, amount in flow_map.items():
                    loads[link] = loads.get(link, 0.0) + amount
            self._link_loads = loads
        return self._link_loads

    def load_of(self, src: int, dst: int) -> float:
        return self.link_loads().get((src, dst), 0.0)

    def max_link_load(self) -> float:
        """The hottest link's load; the minimum uniform capacity that works."""
        loads = self.link_loads()
        return max(loads.values()) if loads else 0.0

    def total_flow(self) -> float:
        """Sum of all flow over all links — MCF2's objective (Eq. 9)."""
        return sum(self.link_loads().values())

    def is_feasible(self, tolerance: float = 1e-6) -> bool:
        """Check Inequality 3 against the topology's link capacities."""
        for link, load in self.link_loads().items():
            if load > self.topology.link_bandwidth(*link) + tolerance:
                return False
        return True

    def violations(self, tolerance: float = 1e-6) -> dict[LinkKey, float]:
        """Per-link overload amounts (load - capacity) where positive."""
        over: dict[LinkKey, float] = {}
        for link, load in self.link_loads().items():
            excess = load - self.topology.link_bandwidth(*link)
            if excess > tolerance:
                over[link] = excess
        return over

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        topology: NoCTopology,
        commodities: list[Commodity],
        paths: dict[int, list[int]],
        algorithm: str,
    ) -> "RoutingResult":
        """Build from one explicit node path per commodity.

        Raises:
            RoutingError: when a path endpoint disagrees with its commodity
                or uses a non-existent link.
        """
        flows: dict[int, dict[LinkKey, float]] = {}
        for commodity in commodities:
            path = paths.get(commodity.index)
            if path is None:
                raise RoutingError(f"no path for commodity {commodity.index}")
            if path[0] != commodity.src_node or path[-1] != commodity.dst_node:
                raise RoutingError(
                    f"path {path} does not join nodes {commodity.src_node}->"
                    f"{commodity.dst_node} of commodity {commodity.index}"
                )
            flow_map: dict[LinkKey, float] = {}
            for link in path_links(path):
                if not topology.has_link(*link):
                    raise RoutingError(f"path uses missing link {link}")
                flow_map[link] = flow_map.get(link, 0.0) + commodity.value
            flows[commodity.index] = flow_map
        return cls(
            topology=topology,
            commodities=commodities,
            flows=flows,
            paths=dict(paths),
            algorithm=algorithm,
        )

    def __repr__(self) -> str:
        return (
            f"RoutingResult({self.algorithm}, commodities={len(self.commodities)}, "
            f"max_load={self.max_link_load():.1f})"
        )


def decompose_flows(
    topology: NoCTopology,
    commodity: Commodity,
    flow_map: dict[LinkKey, float],
) -> list[tuple[list[int], float]]:
    """Decompose one commodity's fractional link flows into weighted paths.

    Standard flow decomposition: repeatedly peel off the bottleneck amount
    along a source-to-destination path of remaining flow.  The result is a
    list of ``(node_path, fraction)`` pairs with fractions summing to 1,
    which is what the simulator's source-routing tables consume.

    Raises:
        RoutingError: when the flow map does not carry the commodity's full
            value out of its source (i.e. is not a valid flow).
    """
    remaining = {
        link: amount for link, amount in flow_map.items() if amount > FLOW_EPSILON
    }
    target = commodity.value
    decomposed: list[tuple[list[int], float]] = []
    shipped = 0.0
    max_iterations = len(flow_map) + 8
    for _ in range(max_iterations):
        if shipped >= target - max(FLOW_EPSILON, 1e-7 * target):
            break
        path = _trace_path(topology, commodity, remaining)
        bottleneck = min(remaining[link] for link in path_links(path))
        for link in path_links(path):
            left = remaining[link] - bottleneck
            if left <= FLOW_EPSILON:
                remaining.pop(link, None)
            else:
                remaining[link] = left
        decomposed.append((path, bottleneck))
        shipped += bottleneck
    if shipped < target - max(1e-6, 1e-6 * target):
        raise RoutingError(
            f"flow decomposition shipped {shipped:.6f} of {target:.6f} for "
            f"commodity {commodity.index}"
        )
    return [(path, amount / shipped) for path, amount in decomposed]


def _trace_path(
    topology: NoCTopology,
    commodity: Commodity,
    remaining: dict[LinkKey, float],
) -> list[int]:
    """Follow remaining flow from source to destination (greedy, max-flow arc).

    Cycles cannot trap the trace: visited nodes are excluded, and LP-optimal
    flows of MCF2/min-congestion are acyclic for positive-cost links anyway.
    """
    path = [commodity.src_node]
    visited = {commodity.src_node}
    while path[-1] != commodity.dst_node:
        here = path[-1]
        options = [
            (amount, link)
            for link, amount in remaining.items()
            if link[0] == here and link[1] not in visited
        ]
        if not options:
            raise RoutingError(
                f"flow of commodity {commodity.index} dead-ends at node {here}"
            )
        _, best = max(options, key=lambda item: item[0])
        path.append(best[1])
        visited.add(best[1])
    return path
