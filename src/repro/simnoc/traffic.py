"""Bursty traffic generation driven by the core graph's bandwidths.

The paper notes the DSP traffic "is bursty in nature", which is why
contention appears even when average-rate bandwidth constraints hold.  Each
commodity gets a :class:`BurstyTrafficSource` producing packets in bursts:
burst sizes are geometric with mean ``mean_burst_packets``, packets within a
burst are back to back, and inter-burst gaps are exponential with a mean
chosen so the long-run average rate equals the commodity's bandwidth.
``mean_burst_packets=1`` degenerates to a Poisson packet source.

Each packet draws its source route from the weighted path set of the
routing result (one path for deterministic routing, several for split
traffic) — per-packet path selection is how the simulator realizes traffic
splitting, matching a NoC whose NIs spread packets across their routing
table entries.
"""

from __future__ import annotations

import math
import random

from repro.errors import SimulationError
from repro.simnoc.config import SimConfig
from repro.simnoc.packet import Packet


def draw_geometric_burst(rng: random.Random, mean_burst_packets: float) -> int:
    """Geometric burst size with mean ``mean_burst_packets`` (>= 1).

    Shared by every bursty arrival process (the trace-driven source and the
    synthetic on-off injector) so the burst distribution stays comparable
    knob-for-knob across traffic models.
    """
    if mean_burst_packets <= 1.0:
        return 1
    p = 1.0 / mean_burst_packets
    size = 1
    while rng.random() > p:
        size += 1
    return size


def draw_burst_gap(
    rng: random.Random,
    burst_size: int,
    mean_packet_interval: float,
    flits_per_packet: int,
) -> float:
    """Exponential inter-burst gap that restores the mean packet rate.

    A burst of ``B`` packets injects back to back for ``B * F`` cycles
    (``F`` flits per packet); the average spacing budget for ``B`` packets
    is ``B * interval``, so the gap's mean is the difference.  Shared for
    the same reason as :func:`draw_geometric_burst`.
    """
    mean_gap = burst_size * (mean_packet_interval - flits_per_packet)
    if mean_gap <= 0.0:
        return 0.0
    return rng.expovariate(1.0 / mean_gap)


def replay_open_loop(source, draw, until: int) -> tuple[list[int], list]:
    """Poll ``source`` at each of its event cycles below ``until``, in bulk.

    ``draw(cycle)`` is one turn of the source's ``packets_for_cycle`` loop
    minus the ``Packet``; returns the creation cycles and what it drew.
    """
    cycles, drawn = [], []
    cycle = source.next_event_cycle
    while cycle < until:
        while source._next_time <= cycle:
            drawn.append(draw(cycle))
            cycles.append(cycle)
        cycle = source.next_event_cycle
    return cycles, drawn


class BurstyTrafficSource:
    """Generates packets of one commodity at its configured mean rate.

    This is the ``"trace"`` traffic pattern: rates and endpoints replay the
    mapped core graph's bandwidths (see :mod:`repro.simnoc.synthetic` for
    the application-independent patterns).

    Args:
        commodity_index: index of the commodity this source drives.
        src_node: injecting mesh node.
        dst_node: destination mesh node.
        rate_flits_per_cycle: long-run average offered load.
        paths: weighted source routes ``(node_path, probability)``.
        config: simulator configuration (packet size, burstiness).
        rng: dedicated random stream (deterministic per commodity).
    """

    pattern = "trace"

    def __init__(
        self,
        commodity_index: int,
        src_node: int,
        dst_node: int,
        rate_flits_per_cycle: float,
        paths: list[tuple[list[int], float]],
        config: SimConfig,
        rng: random.Random,
    ) -> None:
        if rate_flits_per_cycle <= 0:
            raise SimulationError(
                f"commodity {commodity_index} has non-positive rate "
                f"{rate_flits_per_cycle}"
            )
        if not paths:
            raise SimulationError(f"commodity {commodity_index} has no paths")
        total_weight = sum(weight for _path, weight in paths)
        if total_weight <= 0:
            raise SimulationError(f"commodity {commodity_index} path weights sum to 0")
        for path, _weight in paths:
            if path[0] != src_node or path[-1] != dst_node:
                raise SimulationError(f"path {path} does not join {src_node}->{dst_node}")
        self.commodity_index = commodity_index
        self.src_node = src_node
        self.dst_node = dst_node
        self.rate = rate_flits_per_cycle
        self.paths = [(list(path), weight / total_weight) for path, weight in paths]
        self.config = config
        self.rng = rng
        self._flits_per_packet = config.flits_per_packet
        #: Mean cycles between packet starts needed to hit the target rate.
        self._mean_packet_interval = self._flits_per_packet / rate_flits_per_cycle
        if self._mean_packet_interval < self._flits_per_packet:
            raise SimulationError(
                f"commodity {commodity_index} oversubscribes injection "
                f"(rate {rate_flits_per_cycle:.3f} flits/cycle > 1)"
            )
        self._remaining_in_burst = 0
        self._next_time: float = rng.uniform(0.0, self._mean_packet_interval)
        self.packets_created = 0

    # ------------------------------------------------------------------
    def _draw_burst_size(self) -> int:
        return draw_geometric_burst(self.rng, self.config.mean_burst_packets)

    def _draw_gap(self, burst_size: int) -> float:
        return draw_burst_gap(
            self.rng, burst_size, self._mean_packet_interval, self._flits_per_packet
        )

    def _choose_path(self) -> list[int]:
        pick = self.rng.random()
        accumulated = 0.0
        for path, weight in self.paths:
            accumulated += weight
            if pick <= accumulated:
                return list(path)
        return list(self.paths[-1][0])

    def _next_path(self, cycle: int) -> list[int]:
        """One packet at ``cycle``: draw its path, move ``_next_time`` past it."""
        if self._remaining_in_burst == 0:
            self._remaining_in_burst = self._draw_burst_size()
        path = self._choose_path()
        self.packets_created += 1
        self._remaining_in_burst -= 1
        if self._remaining_in_burst == 0:
            burst = self._draw_burst_size()  # size of the *next* burst
            self._next_time = cycle + self._flits_per_packet + self._draw_gap(burst)
            self._remaining_in_burst = burst
        else:
            self._next_time = cycle + self._flits_per_packet
        return path

    # ------------------------------------------------------------------
    def packets_for_cycle(self, cycle: int, next_packet_id) -> list[Packet]:
        """Packets whose creation time falls on this cycle (possibly none).

        Args:
            cycle: current simulation cycle.
            next_packet_id: zero-argument callable yielding fresh packet ids.
        """
        created: list[Packet] = []
        while self._next_time <= cycle:
            created.append(
                Packet(
                    packet_id=next_packet_id(),
                    commodity_index=self.commodity_index,
                    src_node=self.src_node,
                    dst_node=self.dst_node,
                    path=self._next_path(cycle),
                    num_flits=self._flits_per_packet,
                    created_cycle=cycle,
                )
            )
        return created

    def schedule(self, until: int):
        """Batch form of polling (see ``TrafficSource``), with chosen paths."""
        cycles, paths = replay_open_loop(self, self._next_path, until)
        count = len(cycles)
        return cycles, [self.commodity_index] * count, [self.dst_node] * count, paths

    @property
    def offered_flits_per_cycle(self) -> float:
        """Configured long-run offered load (for reports and tests)."""
        return self.rate

    @property
    def next_event_cycle(self) -> int:
        """First integer cycle at which :meth:`packets_for_cycle` can fire.

        A polling loop keeps sources in a priority queue keyed by this
        value so fully idle stretches between injections can be skipped
        without calling every source every cycle.
        """
        return max(0, math.ceil(self._next_time))
