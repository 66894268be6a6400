"""The *NoC topology graph* ``P(U, F)`` (Definition 2 of the paper).

Vertices are mesh/torus cross-points addressed both by integer id and by
``(x, y)`` coordinate; directed edges are physical links with bandwidth
capacities ``bw_{i,j}``.  The paper restricts its exposition to meshes and
tori, and so does this class, while keeping capacities per-link so that
heterogeneous links remain expressible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:
    import networkx as nx

#: Hop-distance sentinel for node pairs disconnected by failed links/routers.
#: Large enough that any placement using a disconnected pair is dominated by
#: every reachable alternative, small enough that int64 sums over whole
#: distance matrices (resilience ensembles) can never overflow.
UNREACHABLE = 1 << 30


@dataclass(frozen=True, order=True)
class Link:
    """One directed physical link ``f_{i,j}`` with capacity in MB/s."""

    src: int
    dst: int
    bandwidth: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)


class NoCTopology:
    """A mesh or torus NoC topology graph.

    Nodes are numbered row-major: node ``y * width + x`` sits at coordinate
    ``(x, y)``.  All queries the mapping/routing layers need are provided:
    neighbor sets, Manhattan/torus hop distances, link capacity lookup and
    (for meshes) the monotone "toward destination" link orientation used by
    minimum-path routing.

    Args:
        width: number of columns.
        height: number of rows.
        link_bandwidth: uniform capacity assigned to every directed link.
        torus: when True, add wrap-around links and use torus distances.
    """

    def __init__(
        self,
        width: int,
        height: int,
        link_bandwidth: float = 1000.0,
        torus: bool = False,
    ) -> None:
        if width < 1 or height < 1:
            raise GraphError(f"mesh dimensions must be >= 1, got {width}x{height}")
        if not (math.isfinite(link_bandwidth) and link_bandwidth > 0):
            raise GraphError(f"link bandwidth must be finite and positive, got {link_bandwidth}")
        self.width = width
        self.height = height
        self.torus = torus
        self._links: dict[tuple[int, int], float] = {}
        self._adjacency: dict[int, list[int]] = {node: [] for node in range(width * height)}
        for node in range(width * height):
            for neighbor in self._physical_neighbors(node):
                self._add_link(node, neighbor, link_bandwidth)
        # Lazily built fast-path caches (see distance_matrix / distance_rows
        # / _link_view).  Hop distances depend only on the immutable
        # geometry, so those caches never invalidate; the link views are
        # versioned because set_link_bandwidth can change the bandwidths.
        self._dist_rows: list[list[int]] | None = None
        self._dist_matrix: np.ndarray | None = None
        self._links_version = 0
        self._link_views: dict[object, tuple[int, object]] = {}
        # Fault-mask state: degraded views (with_failed_links/_routers) carry
        # a pruned link set, so hop distances come from BFS over the
        # surviving links instead of the geometric formula.
        self._degraded = False
        self._failed_routers: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def mesh(cls, width: int, height: int, link_bandwidth: float = 1000.0) -> "NoCTopology":
        """A ``width x height`` 2D mesh with uniform link capacity."""
        return cls(width, height, link_bandwidth=link_bandwidth, torus=False)

    @classmethod
    def torus_grid(cls, width: int, height: int, link_bandwidth: float = 1000.0) -> "NoCTopology":
        """A ``width x height`` 2D torus with uniform link capacity."""
        return cls(width, height, link_bandwidth=link_bandwidth, torus=True)

    @classmethod
    def smallest_mesh_for(cls, num_cores: int, link_bandwidth: float = 1000.0) -> "NoCTopology":
        """The smallest near-square mesh with at least ``num_cores`` nodes.

        This mirrors the paper's experimental setup where each application is
        mapped onto a mesh sized to its core count (e.g. 16 cores -> 4x4).
        """
        if num_cores < 1:
            raise GraphError(f"need at least one core, got {num_cores}")
        width = 1
        while width * width < num_cores:
            width += 1
        height = width
        while width * (height - 1) >= num_cores:
            height -= 1
        return cls(width, height, link_bandwidth=link_bandwidth)

    def _add_link(self, src: int, dst: int, bandwidth: float) -> None:
        if (src, dst) not in self._links:
            self._adjacency[src].append(dst)
        self._links[(src, dst)] = bandwidth

    def _physical_neighbors(self, node: int) -> list[int]:
        x, y = self.coords(node)
        neighbors: list[int] = []
        candidates = [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
        for cx, cy in candidates:
            if self.torus:
                cx %= self.width
                cy %= self.height
            if 0 <= cx < self.width and 0 <= cy < self.height:
                neighbor = self.node_at(cx, cy)
                if neighbor != node:
                    neighbors.append(neighbor)
        return neighbors

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    def coords(self, node: int) -> tuple[int, int]:
        """The ``(x, y)`` coordinate of a node id."""
        self._require_node(node)
        return (node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        """The node id at coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise GraphError(f"coordinate ({x}, {y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def neighbors(self, node: int) -> list[int]:
        """Adjacent node ids (``Adj_i`` in the paper)."""
        self._require_node(node)
        return list(self._adjacency[node])

    def adjacency(self) -> dict[int, list[int]]:
        """Node -> adjacent node ids: the table itself, so treat it as read-only.

        For loops over many nodes known to be in range, where
        :meth:`neighbors`' range check and list copy per call add up.
        """
        return self._adjacency

    def degree(self, node: int) -> int:
        """Number of physical neighbors (mesh corners 2, edges 3, center 4)."""
        return len(self.neighbors(node))

    def max_degree_nodes(self) -> list[int]:
        """Nodes with the maximum number of neighbors (``initialize()`` seeds)."""
        best = max(self.degree(node) for node in self.nodes)
        return [node for node in self.nodes if self.degree(node) == best]

    def distance(self, a: int, b: int) -> int:
        """Minimum hop count between two nodes (Manhattan / torus metric)."""
        self._require_node(a)
        self._require_node(b)
        if self._dist_rows is None:
            self._build_distance_cache()
        return self._dist_rows[a][b]

    def _build_distance_cache(self) -> None:
        """Precompute the full hop-distance table (O(N^2), built once)."""
        if self._degraded:
            self._build_bfs_distance_cache()
            return
        ids = np.arange(self.num_nodes)
        xs = ids % self.width
        ys = ids // self.width
        dx = np.abs(xs[:, None] - xs[None, :])
        dy = np.abs(ys[:, None] - ys[None, :])
        if self.torus:
            dx = np.minimum(dx, self.width - dx)
            dy = np.minimum(dy, self.height - dy)
        matrix = (dx + dy).astype(np.int64)
        self._dist_matrix = matrix
        self._dist_rows = matrix.tolist()

    def _build_bfs_distance_cache(self) -> None:
        """All-pairs BFS over the surviving links (degraded views only).

        The geometric Manhattan/torus formula is wrong the moment a link is
        gone, so degraded topologies pay one O(N * (N + L)) BFS sweep;
        unreachable pairs get the :data:`UNREACHABLE` sentinel, which makes
        every distance-based kernel (Equation-7 cost, swap scoring, the
        constructive initializer) naturally steer clear of dead regions.
        """
        n = self.num_nodes
        rows: list[list[int]] = []
        for src in range(n):
            dist = [UNREACHABLE] * n
            dist[src] = 0
            frontier = [src]
            while frontier:
                nxt: list[int] = []
                for node in frontier:
                    step = dist[node] + 1
                    for neighbor in self._adjacency[node]:
                        if dist[neighbor] > step:
                            dist[neighbor] = step
                            nxt.append(neighbor)
                frontier = nxt
            rows.append(dist)
        self._dist_rows = rows
        self._dist_matrix = np.array(rows, dtype=np.int64)

    def distance_matrix(self) -> np.ndarray:
        """The cached ``(N, N)`` int64 hop-distance matrix.

        Treat the returned array as read-only: it is shared between every
        vectorized kernel (Equation-7 cost, batch swap scoring, routing).
        """
        if self._dist_matrix is None:
            self._build_distance_cache()
        return self._dist_matrix

    def distance_rows(self) -> list[list[int]]:
        """The hop-distance table as a list of rows — what :meth:`distance`
        reads — for loops that look up one hop count at a time.

        Treat the rows as read-only.  The metric is symmetric, so row
        ``dst`` is also every node's hop distance *to* ``dst``.
        """
        if self._dist_rows is None:
            self._build_distance_cache()
        return self._dist_rows

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def links(self) -> Iterator[Link]:
        """Iterate over all directed links."""
        for (src, dst), bandwidth in self._links.items():
            yield Link(src, dst, bandwidth)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def link_keys(self) -> list[tuple[int, int]]:
        """All directed link ``(src, dst)`` pairs, in a stable order."""
        return list(self._links)

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self._links

    def link_bandwidth(self, src: int, dst: int) -> float:
        """Capacity ``bw_{src,dst}`` of a directed link."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise GraphError(f"no link {src}->{dst} in {self!r}") from None

    def set_link_bandwidth(self, src: int, dst: int, bandwidth: float) -> None:
        """Override one directed link's capacity (heterogeneous NoCs)."""
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise GraphError(f"link bandwidth must be finite and positive, got {bandwidth}")
        if (src, dst) not in self._links:
            raise GraphError(f"no link {src}->{dst} in {self!r}")
        self._links[(src, dst)] = bandwidth
        self._links_version += 1

    def with_uniform_bandwidth(self, bandwidth: float) -> "NoCTopology":
        """A copy of this topology with every link capacity replaced."""
        clone = NoCTopology(self.width, self.height, bandwidth, torus=self.torus)
        return clone

    def min_link_bandwidth(self) -> float:
        return min(self._links.values())

    def _link_view(self, key: object, build: Callable[[], Any]) -> Any:
        """``build()``, kept until :meth:`set_link_bandwidth` next bumps the version."""
        cached = self._link_views.get(key)
        if cached is None or cached[0] != self._links_version:
            cached = self._link_views[key] = (self._links_version, build())
        return cached[1]

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``(src, dst, bandwidth)`` arrays over all directed links.

        Entries follow :meth:`link_keys` order.  Rebuilt automatically after
        :meth:`set_link_bandwidth`; treat the arrays as read-only.
        """

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            keys = self.link_keys()
            src = np.fromiter((u for u, _ in keys), dtype=np.int64, count=len(keys))
            dst = np.fromiter((v for _, v in keys), dtype=np.int64, count=len(keys))
            bw = np.fromiter(self._links.values(), dtype=np.float64, count=len(keys))
            return src, dst, bw

        return self._link_view("arrays", build)

    def sorted_link_order(self) -> np.ndarray:
        """Link positions listed in ascending ``(src, dst)`` order, cached.

        :meth:`link_keys` follows adjacency order within a source node, which
        is not sorted; the MCF capacity rows are.
        """

        def build() -> np.ndarray:
            src, dst, _bw = self.link_arrays()
            return np.lexsort((dst, src))

        return self._link_view("order", build)

    # ------------------------------------------------------------------
    # fault masks
    # ------------------------------------------------------------------
    @property
    def is_degraded(self) -> bool:
        """True for views produced by :meth:`with_failed_links`/`_routers`."""
        return self._degraded

    @property
    def failed_routers(self) -> frozenset[int]:
        """Nodes whose router is failed (every incident link removed)."""
        return self._failed_routers

    @property
    def num_healthy_nodes(self) -> int:
        """Nodes with a working router (the placeable set for mappings)."""
        return self.num_nodes - len(self._failed_routers)

    def healthy_nodes(self) -> list[int]:
        """Node ids with a working router, in ascending order."""
        if not self._failed_routers:
            return list(self.nodes)
        return [node for node in self.nodes if node not in self._failed_routers]

    def _masked_copy(
        self,
        removed_links: set[tuple[int, int]],
        failed_routers: frozenset[int],
    ) -> "NoCTopology":
        """A degraded clone without the given links, with fresh lazy caches."""
        clone = NoCTopology(self.width, self.height,
                            link_bandwidth=min(self._links.values(), default=1000.0),
                            torus=self.torus)
        clone._links = {
            key: bandwidth
            for key, bandwidth in self._links.items()
            if key not in removed_links
        }
        clone._adjacency = {
            node: [dst for dst in self._adjacency[node]
                   if (node, dst) not in removed_links]
            for node in self.nodes
        }
        clone._degraded = True
        clone._failed_routers = self._failed_routers | failed_routers
        # The constructor pre-filled full-mesh caches for nothing; reset so
        # the pruned link set drives every lazy rebuild.
        clone._dist_rows = None
        clone._dist_matrix = None
        clone._links_version = 0
        clone._link_views = {}
        return clone

    def with_failed_links(
        self, links: "list[tuple[int, int]] | tuple[tuple[int, int], ...]"
    ) -> "NoCTopology":
        """A degraded view with the given links failed in *both* directions.

        Links are undirected for fault purposes — a broken wire kills both
        channels, and the simulator's credit loops require symmetric
        adjacency.  Hop distances on the view come from BFS over the
        surviving links (:data:`UNREACHABLE` for disconnected pairs).

        Raises:
            GraphError: when a named link does not exist in this topology.
        """
        removed: set[tuple[int, int]] = set()
        for a, b in links:
            if not (self.has_link(a, b) or self.has_link(b, a)):
                raise GraphError(f"no link between {a} and {b} in {self!r}")
            removed.add((a, b))
            removed.add((b, a))
        return self._masked_copy(removed, frozenset())

    def with_failed_routers(self, routers: "list[int] | tuple[int, ...]") -> "NoCTopology":
        """A degraded view with the given routers (and all their links) failed.

        The nodes stay addressable — coordinates and ids are geometry — but
        carry no links, so nothing can route through or terminate at them;
        they are excluded from :meth:`healthy_nodes` and mappings reject
        placements on them.

        Raises:
            GraphError: for node ids outside the topology.
        """
        failed = frozenset(routers)
        for node in failed:
            self._require_node(node)
        removed: set[tuple[int, int]] = set()
        for node in failed:
            for neighbor in self._adjacency[node]:
                removed.add((node, neighbor))
                removed.add((neighbor, node))
        return self._masked_copy(removed, failed)

    def with_distance_metric(self, matrix: np.ndarray) -> "NoCTopology":
        """A clone whose hop-distance metric is replaced by ``matrix``.

        The link set and bandwidths are copied unchanged; only the cached
        distance table is pre-seeded with the given ``(N, N)`` int64 matrix.
        This is the substrate of the resilience mapping objective: Equation-7
        cost is *linear* in the distance matrix, so evaluating a placement
        against an ensemble-summed matrix prices the whole failure ensemble
        in one ordinary cost call.  Do not route on the returned view — its
        metric is no longer the surviving-hop distance.

        Raises:
            GraphError: when the matrix shape does not match the node count.
        """
        n = self.num_nodes
        if getattr(matrix, "shape", None) != (n, n):
            raise GraphError(
                f"distance metric must be ({n}, {n}), got "
                f"{getattr(matrix, 'shape', None)}"
            )
        clone = self._masked_copy(set(), frozenset())
        metric = np.asarray(matrix, dtype=np.int64)
        clone._dist_matrix = metric
        clone._dist_rows = metric.tolist()
        return clone

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Export to :class:`networkx.DiGraph` with ``bandwidth`` edge data."""
        import networkx as nx

        graph = nx.DiGraph(name=repr(self))
        for node in self.nodes:
            x, y = self.coords(node)
            graph.add_node(node, x=x, y=y)
        for link in self.links():
            graph.add_edge(link.src, link.dst, bandwidth=link.bandwidth)
        return graph

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise GraphError(f"node {node} outside 0..{self.num_nodes - 1}")

    def __repr__(self) -> str:
        kind = "torus" if self.torus else "mesh"
        return f"NoCTopology({self.width}x{self.height} {kind}, links={self.num_links})"
