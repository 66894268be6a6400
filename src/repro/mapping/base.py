"""The mapping function ``map: V -> U`` (Equation 1) and result records.

A :class:`Mapping` is a one-to-one partial assignment of cores to mesh
nodes, defined whenever ``|V| <= |U|`` — nodes may stay empty, and the swap
moves of NMAP's improvement loop may move a core onto an empty node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.errors import MappingError
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.routing.min_path import min_path_routing


def require_capacity(core_graph: CoreGraph, topology: NoCTopology) -> None:
    """Raise :class:`MappingError` unless every core can have its own
    surviving node (``|V| <= |U|``, failed routers excluded)."""
    if core_graph.num_cores > topology.num_nodes:
        raise MappingError(
            f"{core_graph.num_cores} cores cannot map onto "
            f"{topology.num_nodes} nodes (need |V| <= |U|)"
        )
    if core_graph.num_cores > topology.num_healthy_nodes:
        raise MappingError(
            f"{core_graph.num_cores} cores cannot map onto the "
            f"{topology.num_healthy_nodes} surviving nodes of {topology!r} "
            f"({len(topology.failed_routers)} router(s) failed)"
        )


class Mapping:
    """One-to-one (injective) placement of cores onto topology nodes.

    Args:
        core_graph: the application graph ``G(V, E)``.
        topology: the NoC graph ``P(U, F)``; must satisfy ``|V| <= |U|``.
        placement: optional initial core -> node assignment.
    """

    def __init__(
        self,
        core_graph: CoreGraph,
        topology: NoCTopology,
        placement: dict[str, int] | None = None,
    ) -> None:
        require_capacity(core_graph, topology)
        self.core_graph = core_graph
        self.topology = topology
        self._core_to_node: dict[str, int] = {}
        self._node_to_core: dict[int, str] = {}
        # Fast-path cache: (graph version, core->index, positions, node->core
        # index).  Built lazily by position_arrays() and then maintained
        # incrementally by assign/unassign/swap_nodes, so vectorized kernels
        # never pay a rebuild on the mutation-heavy swap loops.
        self._arrays: tuple[int, dict[str, int], np.ndarray, np.ndarray] | None = None
        for core, node in (placement or {}).items():
            self.assign(core, node)

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def assign(self, core: str, node: int) -> None:
        """Place ``core`` on ``node``; both must be free.

        Raises:
            MappingError: unknown core/node, or either side already used.
        """
        if not self.core_graph.has_core(core):
            raise MappingError(f"unknown core {core!r}")
        if not (0 <= node < self.topology.num_nodes):
            raise MappingError(f"node {node} outside the topology")
        if node in self.topology.failed_routers:
            raise MappingError(f"node {node} hosts a failed router")
        if core in self._core_to_node:
            raise MappingError(f"core {core!r} already mapped to {self._core_to_node[core]}")
        if node in self._node_to_core:
            raise MappingError(f"node {node} already hosts {self._node_to_core[node]!r}")
        self._core_to_node[core] = node
        self._node_to_core[node] = core
        arrays = self._usable_arrays()
        if arrays is not None:
            _, index, positions, node_core = arrays
            positions[index[core]] = node
            node_core[node] = index[core]

    def unassign(self, core: str) -> None:
        """Remove ``core`` from the placement."""
        try:
            node = self._core_to_node.pop(core)
        except KeyError:
            raise MappingError(f"core {core!r} is not mapped") from None
        del self._node_to_core[node]
        arrays = self._usable_arrays()
        if arrays is not None:
            _, index, positions, node_core = arrays
            positions[index[core]] = -1
            node_core[node] = -1

    def swap_nodes(self, node_a: int, node_b: int) -> None:
        """Exchange the contents of two mesh nodes, in place.

        Either node may be empty, so this also models "move a core to a free
        node" — the full move set of NMAP's pairwise improvement loop.
        """
        for node in (node_a, node_b):
            if not (0 <= node < self.topology.num_nodes):
                raise MappingError(f"node {node} outside the topology")
            if node in self.topology.failed_routers:
                raise MappingError(f"node {node} hosts a failed router")
        core_a = self._node_to_core.pop(node_a, None)
        core_b = self._node_to_core.pop(node_b, None)
        if core_a is not None:
            self._node_to_core[node_b] = core_a
            self._core_to_node[core_a] = node_b
        if core_b is not None:
            self._node_to_core[node_a] = core_b
            self._core_to_node[core_b] = node_a
        arrays = self._usable_arrays()
        if arrays is not None:
            _, index, positions, node_core = arrays
            idx_a = index[core_a] if core_a is not None else -1
            idx_b = index[core_b] if core_b is not None else -1
            node_core[node_a], node_core[node_b] = idx_b, idx_a
            if idx_a >= 0:
                positions[idx_a] = node_b
            if idx_b >= 0:
                positions[idx_b] = node_a

    def swapped(self, node_a: int, node_b: int) -> "Mapping":
        """A copy with the contents of two nodes exchanged."""
        clone = self.copy()
        clone.swap_nodes(node_a, node_b)
        return clone

    def copy(self) -> "Mapping":
        clone = Mapping(self.core_graph, self.topology)
        clone._core_to_node = dict(self._core_to_node)
        clone._node_to_core = dict(self._node_to_core)
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_mapped(self, core: str) -> bool:
        return core in self._core_to_node

    def node_of(self, core: str) -> int:
        """The mesh node hosting ``core`` (``map(v_i)``)."""
        try:
            return self._core_to_node[core]
        except KeyError:
            raise MappingError(f"core {core!r} is not mapped") from None

    def core_at(self, node: int) -> str | None:
        """The core on ``node`` or None when the node is empty."""
        return self._node_to_core.get(node)

    @property
    def placement(self) -> dict[str, int]:
        """Core -> node dictionary (copy)."""
        return dict(self._core_to_node)

    @property
    def node_contents(self) -> dict[int, str | None]:
        """Node -> core-or-None for every node of the topology."""
        return {node: self._node_to_core.get(node) for node in self.topology.nodes}

    @property
    def num_mapped(self) -> int:
        return len(self._core_to_node)

    @property
    def is_complete(self) -> bool:
        """True when every core of the graph is placed."""
        return self.num_mapped == self.core_graph.num_cores

    def used_nodes(self) -> set[int]:
        return set(self._node_to_core)

    def free_nodes(self) -> list[int]:
        """Unoccupied healthy nodes, ascending id order (deterministic ties).

        Failed routers are never free: a core placed there could neither
        send nor receive, so every placement strategy skips them.
        """
        failed = self.topology.failed_routers
        return [
            node
            for node in self.topology.nodes
            if node not in self._node_to_core and node not in failed
        ]

    # ------------------------------------------------------------------
    # fast-path array views
    # ------------------------------------------------------------------
    def _usable_arrays(
        self,
    ) -> tuple[int, dict[str, int], np.ndarray, np.ndarray] | None:
        """The cached arrays when still valid for the current graph version.

        A stale cache (the core graph gained cores/flows after the cache was
        built) is dropped so the next :meth:`position_arrays` call rebuilds.
        """
        arrays = self._arrays
        if arrays is None:
            return None
        if arrays[0] != self.core_graph.version:
            self._arrays = None
            return None
        return arrays

    def position_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, node_core)`` int64 views of the placement.

        ``positions[c]`` is the node hosting core index ``c`` (per
        :meth:`CoreGraph.core_index`) or -1 when unmapped; ``node_core[n]``
        is the core index on node ``n`` or -1 when empty.  Built lazily,
        then updated in place by every mutation — treat as read-only.
        """
        arrays = self._usable_arrays()
        if arrays is None:
            index = self.core_graph.core_index()
            positions = np.full(len(index), -1, dtype=np.int64)
            node_core = np.full(self.topology.num_nodes, -1, dtype=np.int64)
            for core, node in self._core_to_node.items():
                positions[index[core]] = node
                node_core[node] = index[core]
            arrays = (self.core_graph.version, index, positions, node_core)
            self._arrays = arrays
        return arrays[2], arrays[3]

    def validate(self) -> None:
        """Check completeness and bijectivity onto the used node set.

        Raises:
            MappingError: if any core is unmapped (injectivity is enforced
                structurally by :meth:`assign`).
        """
        missing = [core for core in self.core_graph.cores if core not in self._core_to_node]
        if missing:
            raise MappingError(f"cores not mapped: {missing}")

    # ------------------------------------------------------------------
    # conversion / comparison
    # ------------------------------------------------------------------
    @classmethod
    def from_node_list(
        cls, core_graph: CoreGraph, topology: NoCTopology, cores_by_node: Iterable[str | None]
    ) -> "Mapping":
        """Build from a per-node list: entry ``i`` is the core on node ``i``."""
        placement: dict[str, int] = {}
        for node, core in enumerate(cores_by_node):
            if core is not None:
                placement[core] = node
        return cls(core_graph, topology, placement)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._core_to_node == other._core_to_node

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"Mapping({self.core_graph.name!r} -> {self.topology.width}x"
            f"{self.topology.height}, mapped={self.num_mapped}/{self.core_graph.num_cores})"
        )

    def render(self) -> str:
        """ASCII grid of the placement (rows = mesh rows), for logs/CLI."""
        widest = max(
            [len(core) for core in self._core_to_node] + [1]
        )
        rows = []
        for y in range(self.topology.height):
            cells = []
            for x in range(self.topology.width):
                core = self.core_at(self.topology.node_at(x, y))
                cells.append((core or ".").ljust(widest))
            rows.append(" | ".join(cells))
        return "\n".join(rows)


class Deferred(enum.Enum):
    ROUTING = "deferred"


#: The ``routing`` of a :class:`MappingResult` whose mapper did not route:
#: the result computes the final mapping's min-path routing on first read.
DEFERRED = Deferred.ROUTING


class _RoutingSlot:
    """``MappingResult.routing``: the routing the mapper handed over or, for
    :data:`DEFERRED`, ``min_path_routing`` of the final mapping, computed on
    the first read and kept.

    The value lives in the instance ``__dict__``, so a result pickles before
    and after the read alike; two threads racing the first read at worst
    route twice, to equal results.
    """

    def __get__(self, result: "MappingResult | None", owner: type | None = None) -> Any:
        if result is None:
            return None  # the dataclass field's default
        routing = result.__dict__["routing"]
        if routing is DEFERRED:
            mapping = result.mapping
            routing = result.__dict__["routing"] = min_path_routing(
                mapping.topology, build_commodities(mapping.core_graph, mapping)
            )
        return routing

    def __set__(self, result: "MappingResult", routing: Any) -> None:
        result.__dict__["routing"] = routing


@dataclass
class MappingResult:
    """Outcome of a mapping algorithm run.

    Attributes:
        mapping: the final placement.
        comm_cost: Equation 7 communication cost (hops x bandwidth); infinity
            when no bandwidth-feasible routing was found.
        feasible: True when the reported routing satisfies Inequality 3.
        algorithm: name of the producing algorithm (e.g. ``"nmap"``).
        routing: the routing evidence backing ``feasible`` (a
            :class:`repro.routing.base.RoutingResult`) or None.  A mapper
            that needed no routing to decide ``feasible`` passes
            :data:`DEFERRED`, and the first read routes the final mapping.
        stats: algorithm-specific counters (swaps tried, LPs solved, ...).
    """

    mapping: Mapping
    comm_cost: float
    feasible: bool
    algorithm: str
    routing: Any = _RoutingSlot()
    stats: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        cost = "inf" if self.comm_cost == float("inf") else f"{self.comm_cost:.1f}"
        return (
            f"MappingResult({self.algorithm}, cost={cost}, "
            f"feasible={self.feasible})"
        )
