"""Seed oracles for the mapping and routing kernels."""

from __future__ import annotations

import numpy as np

import repro.mapping  # noqa: F401  (repro.metrics only imports after it: a cycle in src/)
from repro.graphs.quadrant import quadrant_links
from repro.metrics.comm_cost import swap_cost_delta


def per_pair_swap_deltas(mapping, node_a: int, candidates) -> np.ndarray:
    """``swap_cost_deltas`` as the seed's scan: one O(deg) call per partner."""
    return np.array(
        [swap_cost_delta(mapping, node_a, int(b)) for b in candidates],
        dtype=np.float64,
    )


def quadrant_outgoing(topology, src: int, dst: int) -> dict[int, list[int]]:
    """``NoCTopology.monotone_outgoing`` rebuilt from the quadrant per call.

    The seed derived the monotone DAG of every commodity afresh; production
    memoizes it per ``(src, dst)`` on the topology.
    """
    outgoing: dict[int, list[int]] = {}
    for u, v in quadrant_links(topology, src, dst, monotone=True):
        outgoing.setdefault(u, []).append(v)
    return outgoing
