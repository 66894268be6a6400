"""Unit tests for :mod:`repro.graphs.topology`."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.topology import NoCTopology


class TestConstruction:
    def test_mesh_counts(self, mesh4x4):
        assert mesh4x4.num_nodes == 16
        # 2 * (3*4 + 4*3) directed links in a 4x4 mesh
        assert mesh4x4.num_links == 48

    def test_torus_counts(self, torus3x3):
        # every node has 4 neighbors on a 3x3 torus
        assert torus3x3.num_links == 36
        assert all(torus3x3.degree(node) == 4 for node in torus3x3.nodes)

    def test_1d_mesh(self):
        line = NoCTopology.mesh(4, 1)
        assert line.num_nodes == 4
        assert line.num_links == 6

    def test_2x2_torus_no_duplicate_links(self):
        # wrap links between the same node pair must not double-count
        torus = NoCTopology.torus_grid(2, 2)
        assert torus.num_links == 8

    @pytest.mark.parametrize("width,height", [(0, 3), (3, 0), (-1, 2)])
    def test_invalid_dimensions(self, width, height):
        with pytest.raises(GraphError):
            NoCTopology.mesh(width, height)

    @pytest.mark.parametrize("bandwidth", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_bandwidth(self, bandwidth):
        with pytest.raises(GraphError, match="finite and positive"):
            NoCTopology.mesh(2, 2, link_bandwidth=bandwidth)
        mesh = NoCTopology.mesh(2, 2)
        with pytest.raises(GraphError, match="finite and positive"):
            mesh.set_link_bandwidth(0, 1, bandwidth)
        assert mesh.link_bandwidth(0, 1) == 1000.0

    @pytest.mark.parametrize(
        "cores,expected",
        [(1, (1, 1)), (4, (2, 2)), (6, (3, 2)), (9, (3, 3)), (14, (4, 4)), (16, (4, 4)), (65, (9, 8))],
    )
    def test_smallest_mesh_for(self, cores, expected):
        mesh = NoCTopology.smallest_mesh_for(cores)
        assert (mesh.width, mesh.height) == expected
        assert mesh.num_nodes >= cores

    def test_smallest_mesh_rejects_zero(self):
        with pytest.raises(GraphError):
            NoCTopology.smallest_mesh_for(0)


class TestGeometry:
    def test_coords_roundtrip(self, mesh4x4):
        for node in mesh4x4.nodes:
            x, y = mesh4x4.coords(node)
            assert mesh4x4.node_at(x, y) == node

    def test_node_at_out_of_range(self, mesh3x3):
        with pytest.raises(GraphError):
            mesh3x3.node_at(3, 0)

    def test_coords_out_of_range(self, mesh3x3):
        with pytest.raises(GraphError):
            mesh3x3.coords(9)

    def test_mesh_distance_is_manhattan(self, mesh4x4):
        assert mesh4x4.distance(0, 15) == 6
        assert mesh4x4.distance(0, 3) == 3
        assert mesh4x4.distance(5, 5) == 0

    def test_torus_distance_wraps(self, torus3x3):
        # (0,0) to (2,0): 1 hop across the wrap link
        assert torus3x3.distance(0, 2) == 1
        assert torus3x3.distance(0, 8) == 2

    def test_degrees_mesh(self, mesh3x3):
        corners = [0, 2, 6, 8]
        center = 4
        edges = [1, 3, 5, 7]
        assert all(mesh3x3.degree(c) == 2 for c in corners)
        assert all(mesh3x3.degree(e) == 3 for e in edges)
        assert mesh3x3.degree(center) == 4

    def test_max_degree_nodes(self, mesh3x3):
        assert mesh3x3.max_degree_nodes() == [4]

    def test_max_degree_nodes_2x3(self):
        mesh = NoCTopology.mesh(3, 2)
        assert mesh.max_degree_nodes() == [1, 4]

    def test_neighbors_are_symmetric(self, mesh4x4):
        for node in mesh4x4.nodes:
            for other in mesh4x4.neighbors(node):
                assert node in mesh4x4.neighbors(other)


class TestLinks:
    def test_uniform_bandwidth(self, mesh3x3):
        assert all(link.bandwidth == 1000.0 for link in mesh3x3.links())
        assert mesh3x3.min_link_bandwidth() == 1000.0

    def test_link_bandwidth_lookup(self, mesh3x3):
        assert mesh3x3.link_bandwidth(0, 1) == 1000.0

    def test_link_bandwidth_missing(self, mesh3x3):
        with pytest.raises(GraphError, match="no link"):
            mesh3x3.link_bandwidth(0, 8)

    def test_set_link_bandwidth(self, mesh3x3):
        mesh3x3.set_link_bandwidth(0, 1, 123.0)
        assert mesh3x3.link_bandwidth(0, 1) == 123.0
        assert mesh3x3.link_bandwidth(1, 0) == 1000.0  # directed

    def test_set_link_bandwidth_validation(self, mesh3x3):
        with pytest.raises(GraphError):
            mesh3x3.set_link_bandwidth(0, 1, -5.0)
        with pytest.raises(GraphError):
            mesh3x3.set_link_bandwidth(0, 8, 10.0)

    def test_with_uniform_bandwidth(self, mesh3x3):
        clone = mesh3x3.with_uniform_bandwidth(42.0)
        assert clone.min_link_bandwidth() == 42.0
        assert mesh3x3.min_link_bandwidth() == 1000.0

    def test_links_are_between_neighbors_only(self, mesh4x4):
        for link in mesh4x4.links():
            assert mesh4x4.distance(link.src, link.dst) == 1

    def test_has_link(self, mesh3x3):
        assert mesh3x3.has_link(0, 1)
        assert not mesh3x3.has_link(0, 4) or mesh3x3.torus

    def test_link_views_follow_link_keys(self, mesh3x3):
        keys = mesh3x3.link_keys()
        src, dst, bandwidth = mesh3x3.link_arrays()
        assert list(zip(src.tolist(), dst.tolist())) == keys
        assert bandwidth.tolist() == [1000.0] * len(keys)
        assert keys != sorted(keys)  # adjacency order: west, east, north, south
        assert [keys[i] for i in mesh3x3.sorted_link_order()] == sorted(keys)

    def test_link_views_are_kept_until_a_bandwidth_changes(self, mesh3x3):
        arrays, order = mesh3x3.link_arrays(), mesh3x3.sorted_link_order()
        assert mesh3x3.link_arrays() is arrays
        assert mesh3x3.sorted_link_order() is order
        mesh3x3.set_link_bandwidth(0, 1, 123.0)
        assert mesh3x3.link_arrays()[2][mesh3x3.link_keys().index((0, 1))] == 123.0
        assert mesh3x3.sorted_link_order() is not order

    def test_to_networkx(self, mesh2x2):
        graph = mesh2x2.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 8
        assert graph.nodes[3]["x"] == 1
