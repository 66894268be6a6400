"""The frozen, JSON-round-trippable result of partitioning a fabric.

A :class:`PartitionSpec` is the contract between the partitioning layer and
everything that consumes a cut: the hierarchical mapper (clusters onto
shard regions) and the CLI's cut-quality inspector.  It records the shard
assignment of every router, the cut edges, and enough denominators
(node/edge counts) that balance and edge-cut quality survive a JSON round
trip without re-deriving the topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError


@dataclass(frozen=True)
class PartitionSpec:
    """A complete shard assignment for one fabric.

    Attributes:
        num_nodes: router count of the partitioned topology.
        num_shards: shard count; every shard id in ``range(num_shards)``
            owns at least one router.
        num_edges: undirected fabric link count (the edge-cut denominator).
        method: the partitioner that actually produced the cut (the
            *resolved* name — ``"auto"`` never appears here).
        assignment: ``assignment[node]`` is the shard owning ``node``.
        cut_edges: undirected fabric links ``(u, v)`` with ``u < v`` whose
            endpoints live in different shards, sorted.
    """

    num_nodes: int
    num_shards: int
    num_edges: int
    method: str
    assignment: tuple[int, ...]
    cut_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise PartitionError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if len(self.assignment) != self.num_nodes:
            raise PartitionError(
                f"assignment covers {len(self.assignment)} nodes, "
                f"topology has {self.num_nodes}"
            )
        seen: set[int] = set()
        for node, shard in enumerate(self.assignment):
            if not 0 <= shard < self.num_shards:
                raise PartitionError(
                    f"node {node} assigned to shard {shard}, valid shards "
                    f"are 0..{self.num_shards - 1}"
                )
            seen.add(shard)
        if len(seen) != self.num_shards:
            empty = sorted(set(range(self.num_shards)) - seen)
            raise PartitionError(f"shards {empty} own no routers")
        for u, v in self.cut_edges:
            if not (0 <= u < v < self.num_nodes):
                raise PartitionError(f"malformed cut edge ({u}, {v})")
            if self.assignment[u] == self.assignment[v]:
                raise PartitionError(
                    f"edge ({u}, {v}) is marked cut but both endpoints "
                    f"live in shard {self.assignment[u]}"
                )

    # ------------------------------------------------------------------
    # derived quality figures
    # ------------------------------------------------------------------
    @property
    def shard_sizes(self) -> tuple[int, ...]:
        """Router count per shard, indexed by shard id."""
        sizes = [0] * self.num_shards
        for shard in self.assignment:
            sizes[shard] += 1
        return tuple(sizes)

    def shard_nodes(self, shard: int) -> tuple[int, ...]:
        """The routers owned by ``shard``, ascending."""
        if not 0 <= shard < self.num_shards:
            raise PartitionError(
                f"shard {shard} out of range 0..{self.num_shards - 1}"
            )
        return tuple(
            node for node, s in enumerate(self.assignment) if s == shard
        )

    @property
    def edge_cut(self) -> int:
        """Number of undirected links crossing shard boundaries."""
        return len(self.cut_edges)

    @property
    def cut_fraction(self) -> float:
        """Cut edges as a fraction of all undirected fabric links."""
        return self.edge_cut / self.num_edges if self.num_edges else 0.0

    @property
    def balance(self) -> float:
        """Largest shard over the ideal share (1.0 = perfectly balanced)."""
        ideal = self.num_nodes / self.num_shards
        return max(self.shard_sizes) / ideal

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload, including the derived quality stats."""
        return {
            "num_nodes": self.num_nodes,
            "num_shards": self.num_shards,
            "num_edges": self.num_edges,
            "method": self.method,
            "assignment": list(self.assignment),
            "cut_edges": [list(edge) for edge in self.cut_edges],
            "stats": {
                "shard_sizes": list(self.shard_sizes),
                "edge_cut": self.edge_cut,
                "cut_fraction": self.cut_fraction,
                "balance": self.balance,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PartitionSpec":
        """Inverse of :meth:`to_dict`; derived stats are recomputed."""
        known = {
            "num_nodes",
            "num_shards",
            "num_edges",
            "method",
            "assignment",
            "cut_edges",
            "stats",
        }
        unknown = set(payload) - known
        if unknown:
            raise PartitionError(
                f"unknown PartitionSpec fields: {sorted(unknown)}"
            )
        try:
            return cls(
                num_nodes=payload["num_nodes"],
                num_shards=payload["num_shards"],
                num_edges=payload["num_edges"],
                method=payload["method"],
                assignment=tuple(payload["assignment"]),
                cut_edges=tuple(
                    (edge[0], edge[1]) for edge in payload["cut_edges"]
                ),
            )
        except KeyError as exc:
            raise PartitionError(
                f"PartitionSpec payload missing field {exc.args[0]!r}"
            ) from None


def spec_from_assignment(topology, assignment, method: str) -> PartitionSpec:
    """Build a validated spec from a raw node->shard assignment.

    Cut edges and the edge denominator come from the topology's directed
    link set collapsed to undirected pairs, so every partitioner shares one
    definition of cut quality.
    """
    undirected = {
        (min(src, dst), max(src, dst)) for src, dst in topology.link_keys()
    }
    assignment = tuple(assignment)
    cut = tuple(
        sorted(
            (u, v)
            for u, v in undirected
            if assignment[u] != assignment[v]
        )
    )
    return PartitionSpec(
        num_nodes=topology.num_nodes,
        num_shards=max(assignment) + 1,
        num_edges=len(undirected),
        method=method,
        assignment=assignment,
        cut_edges=cut,
    )
