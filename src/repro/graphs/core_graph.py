"""The application *core graph* (Definition 1 of the paper).

A :class:`CoreGraph` is a directed graph whose vertices are IP cores
(processors, DSPs, memories, ...) and whose directed edges are communication
flows labelled with average bandwidth demands in MB/s — exactly the
``G(V, E)`` with edge weights ``comm_{i,j}`` used throughout the paper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True, order=True)
class TrafficFlow:
    """One directed communication edge ``e_{i,j}`` of the core graph.

    Attributes:
        src: name of the producing core ``v_i``.
        dst: name of the consuming core ``v_j``.
        bandwidth: average bandwidth demand ``comm_{i,j}`` in MB/s.
    """

    src: str
    dst: str
    bandwidth: float

    def reversed(self) -> "TrafficFlow":
        """Return the same flow with endpoints swapped (same bandwidth)."""
        return TrafficFlow(self.dst, self.src, self.bandwidth)


def _cached_view(build: Callable[["CoreGraph"], Any]) -> Callable[["CoreGraph"], Any]:
    """Keep a :class:`CoreGraph` view until the graph next mutates."""

    @functools.wraps(build)
    def view(self: "CoreGraph") -> Any:
        cached = self._views.get(build.__name__)
        if cached is None or cached[0] != self.version:
            cached = self._views[build.__name__] = (self.version, build(self))
        return cached[1]

    return view


class CoreGraph:
    """Directed, bandwidth-weighted communication graph between cores.

    The class is a thin, explicit wrapper over adjacency dictionaries; it
    offers exactly the queries the mapping and routing algorithms need
    (bandwidth lookup, per-core totals, undirected collapse for
    ``makeundirected()`` in the pseudo-code) plus serialization helpers.

    Args:
        name: human-readable application name (e.g. ``"vopd"``).
    """

    def __init__(self, name: str = "core-graph") -> None:
        self.name = name
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        #: Bumped on every structural mutation; the cached views below and the
        #: per-mapping position arrays key off it.
        self.version = 0
        self._views: dict[str, tuple[int, Any]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_core(self, core: str) -> None:
        """Add a vertex; adding an existing vertex is a no-op."""
        if not core:
            raise GraphError("core name must be a non-empty string")
        if core not in self._succ:
            self.version += 1
        self._succ.setdefault(core, {})
        self._pred.setdefault(core, {})

    def add_traffic(self, src: str, dst: str, bandwidth: float) -> None:
        """Add the directed edge ``src -> dst`` with the given MB/s demand.

        Endpoints are created on demand.  Parallel edges are collapsed by
        summing bandwidths (the paper treats each pair at most once, but
        summing makes builders composable).

        Raises:
            GraphError: on self-loops or non-positive bandwidth.
        """
        if src == dst:
            raise GraphError(f"self-loop traffic on core {src!r} is not allowed")
        if bandwidth <= 0:
            raise GraphError(
                f"bandwidth for {src!r}->{dst!r} must be positive, got {bandwidth}"
            )
        self.add_core(src)
        self.add_core(dst)
        previous = self._succ[src].get(dst, 0.0)
        self._succ[src][dst] = previous + float(bandwidth)
        self._pred[dst][src] = previous + float(bandwidth)
        self.version += 1

    @classmethod
    def from_flows(
        cls, flows: Iterable[TrafficFlow | tuple[str, str, float]], name: str = "core-graph"
    ) -> "CoreGraph":
        """Build a graph from an iterable of flows or ``(src, dst, bw)`` tuples."""
        graph = cls(name=name)
        for flow in flows:
            if isinstance(flow, TrafficFlow):
                graph.add_traffic(flow.src, flow.dst, flow.bandwidth)
            else:
                src, dst, bandwidth = flow
                graph.add_traffic(src, dst, bandwidth)
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def cores(self) -> list[str]:
        """All vertex names, in insertion order."""
        return list(self._succ)

    @property
    def num_cores(self) -> int:
        return len(self._succ)

    @property
    def num_flows(self) -> int:
        return sum(len(out) for out in self._succ.values())

    def flows(self) -> Iterator[TrafficFlow]:
        """Iterate over every directed edge as a :class:`TrafficFlow`."""
        for src, out in self._succ.items():
            for dst, bandwidth in out.items():
                yield TrafficFlow(src, dst, bandwidth)

    def has_core(self, core: str) -> bool:
        return core in self._succ

    def has_traffic(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, {})

    def bandwidth(self, src: str, dst: str) -> float:
        """Directed demand ``comm_{src,dst}``; 0.0 when the edge is absent."""
        return self._succ.get(src, {}).get(dst, 0.0)

    def successors(self, core: str) -> dict[str, float]:
        """Outgoing neighbor -> bandwidth map for ``core``."""
        self._require_core(core)
        return dict(self._succ[core])

    def predecessors(self, core: str) -> dict[str, float]:
        """Incoming neighbor -> bandwidth map for ``core``."""
        self._require_core(core)
        return dict(self._pred[core])

    def neighbors(self, core: str) -> set[str]:
        """Cores communicating with ``core`` in either direction."""
        self._require_core(core)
        return set(self._succ[core]) | set(self._pred[core])

    def core_traffic(self, core: str) -> float:
        """Total bandwidth produced plus consumed by ``core`` (MB/s).

        This is the "communication requirement" used by ``initialize()`` to
        pick the seed core.
        """
        self._require_core(core)
        return sum(self._succ[core].values()) + sum(self._pred[core].values())

    def traffic_between(self, a: str, b: str) -> float:
        """Undirected demand between two cores: ``comm_{a,b} + comm_{b,a}``."""
        return self.bandwidth(a, b) + self.bandwidth(b, a)

    def total_bandwidth(self) -> float:
        """Sum of all edge bandwidths (each directed edge counted once)."""
        return sum(flow.bandwidth for flow in self.flows())

    def undirected_weights(self) -> dict[frozenset[str], float]:
        """Collapse direction: ``makeundirected()`` from the pseudo-code.

        Returns a map from the unordered core pair to the summed two-way
        bandwidth.
        """
        collapsed: dict[frozenset[str], float] = {}
        for flow in self.flows():
            key = frozenset((flow.src, flow.dst))
            collapsed[key] = collapsed.get(key, 0.0) + flow.bandwidth
        return collapsed

    # ------------------------------------------------------------------
    # index-space views
    # ------------------------------------------------------------------
    @_cached_view
    def core_index(self) -> dict[str, int]:
        """Core name -> dense integer index (insertion order), cached.

        The index space backs every view below and the per-mapping position
        arrays; it is invalidated whenever the graph mutates.
        """
        return {core: i for i, core in enumerate(self._succ)}

    @_cached_view
    def flow_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel ``(src_idx, dst_idx, bandwidth)`` arrays over all flows.

        Entries follow :meth:`flows` iteration order; indices refer to
        :meth:`core_index`.  These arrays turn Equation-7 style sums into
        single numpy gathers; treat them as read-only.
        """
        index = self.core_index()
        count = self.num_flows
        src = np.empty(count, dtype=np.int64)
        dst = np.empty(count, dtype=np.int64)
        bw = np.empty(count, dtype=np.float64)
        k = 0
        for s, out in self._succ.items():
            si = index[s]
            for d, bandwidth in out.items():
                src[k] = si
                dst[k] = index[d]
                bw[k] = bandwidth
                k += 1
        return src, dst, bw

    @_cached_view
    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view of the *undirected* neighbor weights, cached.

        Returns ``(indptr, nbr_idx, nbr_wt)`` where the neighbors of core
        index ``c`` are ``nbr_idx[indptr[c]:indptr[c + 1]]`` (ascending) and
        ``nbr_wt`` holds :meth:`traffic_between` for each pair — the
        structure batch swap scoring, the placement scan and the orders
        below walk.
        """
        index = self.core_index()
        neighbor_weights: list[dict[int, float]] = [{} for _ in index]
        for s, out in self._succ.items():
            si = index[s]
            for d, bandwidth in out.items():
                di = index[d]
                neighbor_weights[si][di] = neighbor_weights[si].get(di, 0.0) + bandwidth
                neighbor_weights[di][si] = neighbor_weights[di].get(si, 0.0) + bandwidth
        indptr = np.zeros(len(index) + 1, dtype=np.int64)
        for c, weights in enumerate(neighbor_weights):
            indptr[c + 1] = indptr[c] + len(weights)
        total = int(indptr[-1])
        nbr_idx = np.empty(total, dtype=np.int64)
        nbr_wt = np.empty(total, dtype=np.float64)
        for c, weights in enumerate(neighbor_weights):
            start = int(indptr[c])
            for offset, other in enumerate(sorted(weights)):
                nbr_idx[start + offset] = other
                nbr_wt[start + offset] = weights[other]
        return indptr, nbr_idx, nbr_wt

    @_cached_view
    def traffic_array(self) -> np.ndarray:
        """:meth:`core_traffic` per core index, cached (read-only).

        The row sums of :meth:`adjacency_arrays`: a core's undirected
        neighbor weights add up to what it produces plus what it consumes.
        """
        indptr, _, nbr_wt = self.adjacency_arrays()
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        return np.bincount(rows, weights=nbr_wt, minlength=indptr.size - 1)

    @_cached_view
    def traffic_order(self) -> tuple[str, ...]:
        """Cores by descending :meth:`core_traffic`, graph order on ties, cached.

        The static order GMAP, HMAP and PBB place and branch in.
        """
        cores = self.cores
        ranked = np.argsort(-self.traffic_array(), kind="stable")
        return tuple(cores[c] for c in ranked.tolist())

    @_cached_view
    def max_adjacency_order(self) -> tuple[str, ...]:
        """The heaviest core, then repeatedly the unpicked core exchanging the
        most traffic with the picked set, cached.

        Ties fall to the larger :meth:`core_traffic` (so a disconnected
        component's heaviest core goes next), then to graph order.  This is
        the order ``initialize()`` (§5) maps cores in and PMAP's selection
        phase.
        """
        # Cores are addressed by their rank in traffic_order(), where a plain
        # argmax — the first maximum — is already the lexicographic argmax of
        # (to_picked, traffic, graph order).
        order = self.traffic_order()
        index = self.core_index()
        ranked = [index[core] for core in order]
        indptr, nbr_idx, nbr_wt = self.adjacency_arrays()
        bounds = indptr.tolist()
        nbr_rank = np.argsort(ranked)[nbr_idx]  # argsort inverts the permutation
        to_picked = np.zeros(len(ranked))
        picked: list[str] = []
        for _ in ranked:
            rank = int(to_picked.argmax())
            picked.append(order[rank])
            row = slice(bounds[ranked[rank]], bounds[ranked[rank] + 1])
            to_picked[nbr_rank[row]] += nbr_wt[row]
            to_picked[rank] = -np.inf  # stays -inf under later additions
        return tuple(picked)

    def is_connected(self) -> bool:
        """True when the undirected version of the graph is connected."""
        if self.num_cores <= 1:
            return True
        seen = {self.cores[0]}
        frontier = [self.cores[0]]
        while frontier:
            core = frontier.pop()
            for other in self.neighbors(core):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == self.num_cores

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def renamed(self, renaming: dict[str, str]) -> "CoreGraph":
        """Return a copy with cores renamed via ``renaming`` (total map)."""
        missing = set(self._succ) - set(renaming)
        if missing:
            raise GraphError(f"renaming is missing cores: {sorted(missing)}")
        graph = CoreGraph(name=self.name)
        for core in self.cores:
            graph.add_core(renaming[core])
        for flow in self.flows():
            graph.add_traffic(renaming[flow.src], renaming[flow.dst], flow.bandwidth)
        return graph

    def scaled(self, factor: float) -> "CoreGraph":
        """Return a copy with every bandwidth multiplied by ``factor``."""
        if factor <= 0:
            raise GraphError(f"scale factor must be positive, got {factor}")
        graph = CoreGraph(name=self.name)
        for core in self.cores:
            graph.add_core(core)
        for flow in self.flows():
            graph.add_traffic(flow.src, flow.dst, flow.bandwidth * factor)
        return graph

    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` with ``bandwidth`` edge data."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self.cores)
        for flow in self.flows():
            graph.add_edge(flow.src, flow.dst, bandwidth=flow.bandwidth)
        return graph

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_core(self, core: str) -> None:
        if core not in self._succ:
            raise GraphError(f"unknown core {core!r} in graph {self.name!r}")

    def __contains__(self, core: object) -> bool:
        return core in self._succ

    def __len__(self) -> int:
        return self.num_cores

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoreGraph):
            return NotImplemented
        return self._succ == other._succ

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"CoreGraph(name={self.name!r}, cores={self.num_cores}, "
            f"flows={self.num_flows}, total_bw={self.total_bandwidth():.0f} MB/s)"
        )
