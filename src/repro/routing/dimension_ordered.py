"""Dimension-ordered (XY) deterministic routing.

The classical deadlock-free mesh routing: travel the X dimension first, then
the Y dimension.  Figure 4 uses it as the baseline routing for the PMAP and
GMAP mappings (the DPMAP / DGMAP bars).  On a torus each dimension travels
in the wrap direction with the fewer hops.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult


def _axis_step(src: int, dst: int, size: int, torus: bool) -> int:
    """Signed unit step from ``src`` toward ``dst`` along one axis."""
    if src == dst:
        return 0
    if not torus:
        return 1 if dst > src else -1
    forward = (dst - src) % size
    backward = (src - dst) % size
    return 1 if forward <= backward else -1


def xy_path(topology: NoCTopology, src: int, dst: int) -> list[int]:
    """The XY route from ``src`` to ``dst`` as a node list.

    X-coordinate differences are resolved first, then Y — one fixed minimal
    path per node pair, which is what makes the routing deterministic and
    table-free.
    """
    x, y = topology.coords(src)
    dst_x, dst_y = topology.coords(dst)
    width, height = topology.width, topology.height
    step_x = _axis_step(x, dst_x, width, topology.torus)
    step_y = _axis_step(y, dst_y, height, topology.torus)
    # Hop counts per axis; the moduli only bite on a torus wrap.
    hops_x = (dst_x - x) * step_x % width
    hops_y = (dst_y - y) * step_y % height
    path = [y * width + (x + step_x * k) % width for k in range(hops_x + 1)]
    path += [(y + step_y * k) % height * width + dst_x for k in range(1, hops_y + 1)]
    return path


def xy_paths(topology: NoCTopology, srcs, dsts) -> tuple[np.ndarray, np.ndarray]:
    """:func:`xy_path` for many pairs at once: pair ``k``'s route is
    ``nodes[offsets[k]:offsets[k + 1]]`` of the returned ``(offsets, nodes)``."""
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    bad = (np.minimum(srcs, dsts) < 0) | (np.maximum(srcs, dsts) >= topology.num_nodes)
    if bad.any():  # raise what ``xy_path`` raises for the first bad pair
        xy_path(topology, int(srcs[bad.argmax()]), int(dsts[bad.argmax()]))
    width, height = topology.width, topology.height
    x, y = srcs % width, srcs // width
    dx, dy = dsts % width - x, dsts // width - y
    if topology.torus:
        # The shorter wrap direction; forward wins the tie, as in ``_axis_step``.
        dx = np.where(dx % width <= -dx % width, dx % width, -(-dx % width))
        dy = np.where(dy % height <= -dy % height, dy % height, -(-dy % height))
    lengths = 1 + np.abs(dx) + np.abs(dy)
    offsets = np.zeros(len(srcs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    pair = np.repeat(np.arange(len(srcs)), lengths)
    hop = np.arange(offsets[-1]) - offsets[pair]
    x_hop = np.minimum(hop, np.abs(dx)[pair])
    col = x[pair] + np.sign(dx)[pair] * x_hop
    row = y[pair] + np.sign(dy)[pair] * (hop - x_hop)
    # The moduli only bite on a torus wrap.
    return offsets, row % height * width + col % width


def xy_routing(topology: NoCTopology, commodities: list[Commodity]) -> RoutingResult:
    """Route every commodity along its XY path."""
    paths = {
        commodity.index: xy_path(topology, commodity.src_node, commodity.dst_node)
        for commodity in commodities
    }
    return RoutingResult.from_paths(topology, commodities, paths, algorithm="xy")
