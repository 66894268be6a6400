"""The partition subsystem: registry ladder, spec contract, JSON round-trip.

Partition specs feed the sharded engine's bit-identity contract, so the
guarantees pinned here are strict: deterministic assignments, dense
non-empty shards, cut edges that really cross, and lossless JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import PartitionError
from repro.graphs.topology import NoCTopology
from repro.partition import (
    PartitionSpec,
    available_partitioners,
    list_partitioners,
    partition_topology,
    partitioner_availability,
    resolve_partitioner,
    spec_from_assignment,
)


def mesh(width=4, height=4):
    return NoCTopology.mesh(width, height)


class TestRegistry:
    def test_ladder_order_first(self):
        names = list_partitioners()
        assert names[:3] == ("metis", "greedy-edge", "round-robin")

    def test_availability_rows_shape(self):
        rows = available_partitioners()
        assert [row["name"] for row in rows][:3] == [
            "metis",
            "greedy-edge",
            "round-robin",
        ]
        for row in rows:
            assert isinstance(row["available"], bool)
            assert row["reason"]

    def test_pure_python_rungs_always_available(self):
        for name in ("greedy-edge", "round-robin"):
            available, reason = partitioner_availability(name)
            assert available, reason

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(PartitionError, match="unknown partitioner"):
            partitioner_availability("metis2")
        with pytest.raises(PartitionError, match="unknown partitioner"):
            partition_topology(mesh(), 2, "kl")

    def test_auto_resolves_to_an_available_rung(self):
        name, reason = resolve_partitioner("auto")
        available, _ = partitioner_availability(name)
        assert available
        assert "auto ladder" in reason

    def test_explicit_resolution(self):
        name, reason = resolve_partitioner("round-robin")
        assert name == "round-robin"
        assert reason == "requested explicitly"

    def test_no_metis_env_pins_pure_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_METIS", "1")
        available, reason = partitioner_availability("metis")
        assert not available
        assert "REPRO_NO_METIS" in reason
        name, _ = resolve_partitioner("auto")
        assert name == "greedy-edge"
        with pytest.raises(PartitionError, match="unavailable"):
            partition_topology(mesh(), 2, "metis")

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

    def test_metis_when_available_else_skip(self):
        available, reason = partitioner_availability("metis")
        if not available:
            with pytest.raises(PartitionError, match="unavailable"):
                partition_topology(mesh(), 2, "metis")
            pytest.skip(f"metis unavailable here: {reason}")
        spec = partition_topology(mesh(8, 8), 4, "metis")
        assert spec.num_shards == 4
        assert sum(spec.shard_sizes) == 64

    def test_one_shard_is_trivial_everywhere(self):
        for method in ("greedy-edge", "round-robin"):
            spec = partition_topology(mesh(), 1, method)
            assert spec.assignment == (0,) * 16
            assert spec.edge_cut == 0
            assert spec.balance == 1.0


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
