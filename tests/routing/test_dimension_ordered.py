"""Unit tests for XY (dimension-ordered) routing."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.dimension_ordered import _axis_step, xy_path, xy_paths, xy_routing


def _commodity(index, src, dst, value=1.0):
    return Commodity(index, f"s{index}", f"d{index}", src, dst, value)


class TestXyPath:
    def test_x_first(self, mesh3x3):
        # 0 (0,0) -> 8 (2,2): east twice, then south twice
        assert xy_path(mesh3x3, 0, 8) == [0, 1, 2, 5, 8]

    def test_pure_x(self, mesh3x3):
        assert xy_path(mesh3x3, 3, 5) == [3, 4, 5]

    def test_pure_y(self, mesh3x3):
        assert xy_path(mesh3x3, 1, 7) == [1, 4, 7]

    def test_westward(self, mesh3x3):
        assert xy_path(mesh3x3, 8, 0) == [8, 7, 6, 3, 0]

    def test_same_node(self, mesh3x3):
        assert xy_path(mesh3x3, 4, 4) == [4]

    def test_path_is_minimal(self, mesh4x4):
        for src in mesh4x4.nodes:
            for dst in mesh4x4.nodes:
                path = xy_path(mesh4x4, src, dst)
                assert len(path) - 1 == mesh4x4.distance(src, dst)

    def test_torus_wraps(self, torus3x3):
        path = xy_path(torus3x3, 0, 2)
        assert path == [0, 2]

    def test_torus_wrap_y(self, torus3x3):
        path = xy_path(torus3x3, 0, 6)
        assert path == [0, 6]


def _walked_xy_path(topology, src, dst):
    """The reference: one bounds-checked coordinate step per hop."""
    x, y = topology.coords(src)
    dst_x, dst_y = topology.coords(dst)
    path = [src]
    step = _axis_step(x, dst_x, topology.width, topology.torus)
    while x != dst_x:
        x = (x + step) % topology.width if topology.torus else x + step
        path.append(topology.node_at(x, y))
    step = _axis_step(y, dst_y, topology.height, topology.torus)
    while y != dst_y:
        y = (y + step) % topology.height if topology.torus else y + step
        path.append(topology.node_at(x, y))
    return path


class TestXyPathsBatch:
    """``xy_path`` (range arithmetic) == ``xy_paths`` (arrays) == the walk."""

    @pytest.mark.parametrize(
        "width,height,torus",
        # 4x4 torus: every opposite pair ties forward == backward.
        [(5, 3, False), (1, 6, False), (7, 4, True), (4, 4, True)],
    )
    def test_all_ordered_pairs(self, width, height, torus):
        topology = NoCTopology(width, height, 1000.0, torus=torus)
        pairs = [(src, dst) for src in topology.nodes for dst in topology.nodes]
        offsets, nodes = xy_paths(
            topology, [src for src, _ in pairs], [dst for _, dst in pairs]
        )
        assert len(offsets) == len(pairs) + 1 and offsets[-1] == len(nodes)
        nodes = nodes.tolist()
        for k, (src, dst) in enumerate(pairs):
            walked = _walked_xy_path(topology, src, dst)
            assert xy_path(topology, src, dst) == walked
            assert nodes[offsets[k]:offsets[k + 1]] == walked

    def test_no_pairs(self, mesh3x3):
        offsets, nodes = xy_paths(mesh3x3, [], [])
        assert offsets.tolist() == [0] and len(nodes) == 0

    @pytest.mark.parametrize("src,dst", [(0, 9), (9, 0), (-1, 3)])
    def test_out_of_range_node_raises_the_same_error(self, mesh3x3, src, dst):
        with pytest.raises(GraphError) as scalar:
            xy_path(mesh3x3, src, dst)
        with pytest.raises(GraphError) as batch:
            xy_paths(mesh3x3, [4, src], [5, dst])
        assert str(batch.value) == str(scalar.value)


class TestXyRouting:
    def test_deterministic_loads(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 10.0), _commodity(1, 0, 8, 5.0)]
        result = xy_routing(mesh3x3, commodities)
        # both take the identical XY path and stack on the same links
        assert result.max_link_load() == 15.0

    def test_all_commodities_routed(self, mesh3x3):
        commodities = [_commodity(i, i, 8 - i, 2.0) for i in range(4)]
        result = xy_routing(mesh3x3, commodities)
        assert set(result.paths) == {0, 1, 2, 3}

    def test_total_flow_is_bandwidth_times_hops(self, mesh3x3):
        commodities = [_commodity(0, 0, 8, 10.0)]
        result = xy_routing(mesh3x3, commodities)
        assert result.total_flow() == 40.0  # 4 hops x 10
