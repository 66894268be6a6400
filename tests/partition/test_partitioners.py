"""The partition subsystem: registry, spec contract, JSON round-trip.

Partition specs feed ``hmap``'s mappings, which must be reproducible, so
the guarantees pinned here are strict: deterministic assignments, dense
non-empty shards, cut edges that really cross, and lossless JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ApiError, PartitionError
from repro.graphs.topology import NoCTopology
from repro.partition import (
    PartitionSpec,
    list_partitioners,
    partition_topology,
    resolve_partitioner,
    spec_from_assignment,
)
from repro.partition import registry


def mesh(width=4, height=4):
    return NoCTopology.mesh(width, height)


class TestRegistry:
    def test_best_cut_first(self):
        assert list_partitioners()[:2] == ("greedy-edge", "round-robin")

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(PartitionError, match="unknown partitioner"):
            resolve_partitioner("metis2")
        with pytest.raises(PartitionError, match="unknown partitioner"):
            partition_topology(mesh(), 2, "kl")

    def test_auto_is_greedy_edge(self):
        mesh4 = mesh()
        specs = {partition_topology(mesh4, 2) for _ in range(5)}
        assert specs == {partition_topology(mesh4, 2, "greedy-edge")}
        for _ in range(5):
            name, reason = resolve_partitioner("auto")
            assert name == "greedy-edge" and reason

    def test_explicit_resolution(self):
        name, reason = resolve_partitioner("round-robin")
        assert name == "round-robin"
        assert reason == "requested explicitly"

    def test_shard_count_bounds(self):
        with pytest.raises(PartitionError, match=">= 1"):
            partition_topology(mesh(), 0)
        with pytest.raises(PartitionError, match="non-empty"):
            partition_topology(mesh(2, 2), 5)


class TestAlgorithms:
    @pytest.mark.parametrize("method", ["greedy-edge", "round-robin"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_valid_balanced_specs(self, method, shards):
        spec = partition_topology(mesh(), shards, method)
        assert spec.num_shards == shards
        assert spec.num_nodes == 16
        sizes = spec.shard_sizes
        assert sum(sizes) == 16
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("method", ["greedy-edge", "round-robin"])
    def test_deterministic(self, method):
        first = partition_topology(mesh(8, 8), 4, method)
        second = partition_topology(mesh(8, 8), 4, method)
        assert first == second

    def test_greedy_edge_beats_round_robin_on_meshes(self):
        greedy = partition_topology(mesh(8, 8), 4, "greedy-edge")
        rr = partition_topology(mesh(8, 8), 4, "round-robin")
        assert greedy.edge_cut < rr.edge_cut

    def test_greedy_edge_regions_are_contiguous(self):
        topology = mesh(8, 8)
        spec = partition_topology(topology, 4, "greedy-edge")
        for shard in range(4):
            members = set(spec.shard_nodes(shard))
            seen = {min(members)}
            frontier = [min(members)]
            while frontier:
                node = frontier.pop()
                for neighbor in topology.neighbors(node):
                    if neighbor in members and neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            assert seen == members

    def test_round_robin_assignment_shape(self):
        spec = partition_topology(mesh(), 3, "round-robin")
        assert spec.assignment == tuple(i % 3 for i in range(16))

    def test_one_shard_is_trivial_everywhere(self):
        for method in ("greedy-edge", "round-robin"):
            spec = partition_topology(mesh(), 1, method)
            assert spec.assignment == (0,) * 16
            assert spec.edge_cut == 0
            assert spec.balance == 1.0


class TestMetisIsRefusedAtParseTime:
    """No metis rung: every surface that names a partitioner refuses it
    before anything is partitioned, listing the two that exist."""

    KNOWN = "greedy-edge, round-robin"

    @pytest.fixture(autouse=True)
    def _no_cut(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a partitioner ran")

        for name in list_partitioners():
            monkeypatch.setitem(registry.PARTITIONERS._entries, name, (refuse, ""))

    def test_hmap_options(self):
        from repro.api.options import HmapOptions

        with pytest.raises(ApiError, match=f"one of {self.KNOWN}, got 'metis'"):
            HmapOptions(partitioner="metis")

    def test_sim_options(self):
        from repro.api import SimOptions

        with pytest.raises(ApiError, match=f"one of {self.KNOWN}, got 'metis'"):
            SimOptions(engine="sharded", partitioner="metis")

    def test_partition_topology(self):
        with pytest.raises(PartitionError, match=f"known: {self.KNOWN}$"):
            partition_topology(mesh(), 2, "metis")


class TestPartitionSpec:
    def test_cut_edges_actually_cross(self):
        spec = partition_topology(mesh(8, 8), 4, "greedy-edge")
        for u, v in spec.cut_edges:
            assert u < v
            assert spec.assignment[u] != spec.assignment[v]

    def test_stats(self):
        spec = partition_topology(mesh(8, 8), 4, "greedy-edge")
        assert spec.edge_cut == len(spec.cut_edges)
        assert 0.0 < spec.cut_fraction < 1.0
        assert spec.balance == pytest.approx(1.0)

    def test_json_round_trip(self):
        spec = partition_topology(
            NoCTopology.torus_grid(4, 4), 3, "round-robin"
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert PartitionSpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        spec = partition_topology(mesh(), 2, "round-robin")
        payload = spec.to_dict()
        with pytest.raises(PartitionError, match="unknown"):
            PartitionSpec.from_dict({**payload, "color": "red"})
        bad = dict(payload)
        del bad["assignment"]
        with pytest.raises(PartitionError, match="assignment"):
            PartitionSpec.from_dict(bad)

    def test_malformed_assignments_rejected(self):
        topology = mesh(2, 2)
        with pytest.raises(PartitionError):
            # Shard 1 empty: labels must be dense.
            spec_from_assignment(topology, [0, 0, 2, 2], "x")

    def test_shard_nodes(self):
        spec = partition_topology(mesh(), 4, "round-robin")
        assert spec.shard_nodes(1) == (1, 5, 9, 13)


class TestLargeFabricRegression:
    """``TopologySpec``/builders accept large fabrics end to end.

    Guards the 32x32 path: build the topology, partition it, and check the
    spec is structurally sound — the scale the partition subsystem exists
    for.
    """

    def test_build_and_partition_32x32_mesh(self):
        from repro.api import TopologySpec

        spec = TopologySpec.parse("mesh:32x32")
        assert (spec.width, spec.height) == (32, 32)
        topology = NoCTopology.mesh(32, 32)
        assert topology.num_nodes == 1024
        part = partition_topology(topology, 8, "greedy-edge")
        assert part.num_nodes == 1024
        assert sum(part.shard_sizes) == 1024
        assert max(part.shard_sizes) == 128
        assert part.cut_fraction < 0.2

    def test_partition_32x32_torus_round_trip(self):
        topology = NoCTopology.torus_grid(32, 32)
        part = partition_topology(topology, 16, "round-robin")
        assert PartitionSpec.from_dict(part.to_dict()) == part
