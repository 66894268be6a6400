"""Latency and throughput statistics over delivered packets, as columns.

The measured, delivered packets arrive as parallel int64 arrays
``(commodity, created, injected, delivered)`` in *report order*: the network
interfaces in node order, delivery order within one, read off the run's
:class:`PacketLog`.  Latencies are integer cycles, so counts, sums and
order statistics are exact however reduced; ``std`` and ``jitter`` go through
:func:`_std`'s Python ``sum`` — a numpy reduction would move their last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import SimulationError


class PacketLog(NamedTuple):
    """What an engine run leaves on the simulator in place of packet objects.

    Slot ``k`` is the packet with id ``first_id + k``; ``injected`` and
    ``delivered`` hold ``-1`` for "never".  ``dlv_node[j]`` ejected slot
    ``dlv_slot[j]``; each node's entries are in its delivery order.
    """

    first_id: int
    commodity: np.ndarray
    measured: np.ndarray
    created: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    dlv_node: np.ndarray
    dlv_slot: np.ndarray

    def measured_columns(self) -> tuple:
        """The measured deliveries' columns, in report order."""
        slots = self.dlv_slot[np.argsort(self.dlv_node, kind="stable")]
        slots = slots[self.measured[slots]]
        columns = (self.commodity, self.created, self.injected, self.delivered)
        return tuple(column[slots] for column in columns)


def _rank(fraction: float, counts):
    """Index of the ``fraction`` percentile in ``counts`` sorted values."""
    return np.minimum(counts - 1, np.rint(fraction * (counts - 1)).astype(np.int64))


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a set of packet latencies (cycles).

    Attributes:
        count: packets measured.
        mean: average creation-to-delivery latency.
        p50/p95/p99: percentiles.
        maximum: worst observed latency.
        mean_network: average injection-to-delivery latency (NI queueing
            excluded).
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float
    mean_network: float

    @classmethod
    def from_columns(cls, commodity, created, injected, delivered) -> "LatencyStats":
        """Aggregate the measured, delivered packets.

        Raises:
            SimulationError: when no measured packets were delivered (the
                run was too short or the network deadlocked silently).
        """
        count = len(delivered)
        if not count:
            raise SimulationError("no measured packets delivered")
        latencies = np.sort(delivered - created)
        p50, p95, p99 = (float(latencies[_rank(f, count)]) for f in (0.50, 0.95, 0.99))
        return cls(
            count=count,
            mean=int(latencies.sum()) / count,
            p50=p50,
            p95=p95,
            p99=p99,
            maximum=float(latencies[-1]),
            mean_network=int((delivered - injected).sum()) / count,
        )


@dataclass(frozen=True)
class FlowStats:
    """Per-flow (per-commodity) latency summary over measured packets.

    Attributes:
        count: packets measured for this flow.
        mean: average creation-to-delivery latency in cycles.
        p50/p95: latency percentiles.
        std: sample standard deviation of latencies.
        jitter: std of gaps between adjacent deliveries (the paper's
            definition: "the time between the delivery of adjacent
            packets"; NMAPTM's equal-hop split exists for low-jitter
            flows).
        histogram: power-of-two latency histogram: bin ``i`` counts
            ``[2**i, 2**(i+1))`` and bin 0 also takes latency 0.
            Exponential bins keep the payload tiny (a 1M-cycle tail still
            fits in ~20 integers) while preserving where the distribution's
            mass sits and how heavy its tail is; the list ends at the last
            non-empty bin.
    """

    count: int
    mean: float
    p50: float
    p95: float
    std: float
    jitter: float
    histogram: list[int] = field(default_factory=list)


def per_flow_stats(commodity, created, injected, delivered) -> dict[int, FlowStats]:
    """Full per-flow summaries (histogram included), in first-appearance order."""
    if not len(commodity):
        return {}
    flows, first, counts = np.unique(commodity, return_index=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    # Each flow's latencies, then its delivery cycles, ascending: one sort each.
    latency = delivered - created
    latency = latency[np.lexsort((latency, commodity))]
    times = delivered[np.lexsort((delivered, commodity))]

    # bit_length - 1 of every latency (0 for latency 0), counted per flow.
    bins = np.maximum(np.frexp(latency.astype(np.float64))[1] - 1, 0)
    width = int(bins.max()) + 1
    flow_of = np.repeat(np.arange(len(flows)), counts)
    histograms = np.bincount(flow_of * width + bins, minlength=len(flows) * width)
    histograms = histograms.reshape(len(flows), width)
    tops = bins[starts + counts - 1] + 1

    # Only a flow of several packets has a spread, and _std wants its values
    # as Python floats in sorted order.
    std, jitter = np.zeros(len(flows)), np.zeros(len(flows))
    values = latency.astype(np.float64).tolist()
    gaps = np.diff(times).astype(np.float64).tolist()
    several = np.flatnonzero(counts > 1)
    spans = zip(several.tolist(), starts[several].tolist(), counts[several].tolist())
    for f, a, n in spans:
        std[f] = _std(values[a : a + n])
        jitter[f] = _std(gaps[a : a + n - 1])

    order = np.argsort(first)
    columns = (
        counts,
        np.add.reduceat(latency, starts) / counts,
        latency[starts + _rank(0.50, counts)].astype(np.float64),
        latency[starts + _rank(0.95, counts)].astype(np.float64),
        std,
        jitter,
    )
    tops = tops[order].tolist()
    rows = [row[:top] for row, top in zip(histograms[order].tolist(), tops)]
    summaries = map(FlowStats, *(column[order].tolist() for column in columns), rows)
    return dict(zip(flows[order].tolist(), summaries))


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
