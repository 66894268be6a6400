"""Synthetic traffic injectors: uniform-random, transpose, bursty on-off.

The trace-driven :class:`~repro.simnoc.traffic.BurstyTrafficSource` replays
the mapped core graph's bandwidths — the paper's validation workload.  The
injectors here are the classical NoC characterization patterns instead:
every node offers load at a configured ``injection_rate`` (flits/cycle per
node), which makes latency-vs-injection-rate saturation sweeps a
first-class experiment independent of any particular application.

* ``uniform`` — each packet picks a destination uniformly among all other
  nodes (the standard saturation benchmark).
* ``transpose`` — node ``(x, y)`` sends only to ``(y, x)``; adversarial for
  dimension-ordered routing because it concentrates load on the diagonal.
* ``onoff`` — a two-state Markov-modulated process: ON periods inject
  packets back to back, OFF periods are silent, with means chosen so the
  long-run rate equals ``injection_rate``.  Models the bursty traffic the
  paper observes on the DSP without needing its trace.

Packets carry full source routes, so injectors route with the deterministic
XY path.  XY is deadlock-free on meshes; on tori the shorter-wrap
direction creates ring dependencies, so high-load torus runs should use
``num_vcs >= 2`` (the deadlock watchdog aborts rather than hangs either
way).  Every injector draws from a
:func:`repro.seeding.derive_seed` stream keyed by ``(config.seed, node)``
— never global RNG state — so runs are reproducible and independent of
worker count or injector construction order.

Flow identity: synthetic packets use ``src * num_nodes + dst`` as their
``commodity_index``, giving per-flow latency statistics the same shape as
trace-driven runs.
"""

from __future__ import annotations

import math
import random

from repro.errors import SimulationError
from repro.graphs.topology import NoCTopology
from repro.routing.dimension_ordered import xy_path
from repro.seeding import derive_seed
from repro.simnoc.config import SimConfig
from repro.simnoc.models import register_traffic_pattern
from repro.simnoc.packet import Packet
from repro.simnoc.traffic import draw_burst_gap, draw_geometric_burst, replay_open_loop


def synthetic_flow_index(topology: NoCTopology, src: int, dst: int) -> int:
    """The stable per-(src, dst) flow id synthetic packets are tagged with."""
    return src * topology.num_nodes + dst


class SyntheticSource:
    """Base class: one injecting node, Poisson packet starts, XY routes.

    Args:
        topology: the NoC the packets traverse.
        src_node: the injecting node.
        injection_rate: offered load in flits/cycle (must stay below one
            flit/cycle — a single NI cannot physically inject faster).
        config: simulator configuration (packet size, seed).

    Subclasses choose destinations (:meth:`_choose_destination`) and may
    reshape the arrival process (:meth:`_advance`).
    """

    pattern = "synthetic"

    def __init__(
        self,
        topology: NoCTopology,
        src_node: int,
        injection_rate: float,
        config: SimConfig,
    ) -> None:
        if not (math.isfinite(injection_rate) and injection_rate > 0):
            raise SimulationError(
                f"injection rate must be positive, got {injection_rate}"
            )
        self.topology = topology
        self.src_node = src_node
        self.rate = injection_rate
        self.config = config
        self.rng = random.Random(derive_seed(config.seed, src_node))
        self._flits_per_packet = config.flits_per_packet
        self._mean_packet_interval = self._flits_per_packet / injection_rate
        if self._mean_packet_interval < self._flits_per_packet:
            raise SimulationError(
                f"node {src_node} oversubscribes injection "
                f"(rate {injection_rate:.3f} flits/cycle > 1)"
            )
        self._next_time: float = self.rng.uniform(0.0, self._mean_packet_interval)
        self.packets_created = 0

    # -- hooks -----------------------------------------------------------
    def _choose_destination(self) -> int:
        raise NotImplementedError

    def _advance(self, cycle: int) -> None:
        """Move ``_next_time`` past ``cycle`` (Poisson arrivals by default)."""
        self._next_time = cycle + self.rng.expovariate(
            1.0 / self._mean_packet_interval
        )

    def _next_destination(self, cycle: int) -> int:
        """One packet at ``cycle``: draw its destination, move ``_next_time`` on."""
        dst = self._choose_destination()
        self.packets_created += 1
        self._advance(cycle)
        return dst

    # -- engine-facing protocol ------------------------------------------
    def packets_for_cycle(self, cycle: int, next_packet_id) -> list[Packet]:
        """Packets whose creation time falls on this cycle (possibly none)."""
        created: list[Packet] = []
        while self._next_time <= cycle:
            dst = self._next_destination(cycle)
            created.append(
                Packet(
                    packet_id=next_packet_id(),
                    commodity_index=synthetic_flow_index(
                        self.topology, self.src_node, dst
                    ),
                    src_node=self.src_node,
                    dst_node=dst,
                    path=xy_path(self.topology, self.src_node, dst),
                    num_flits=self._flits_per_packet,
                    created_cycle=cycle,
                )
            )
        return created

    def schedule(self, until: int):
        """Batch form of polling (see ``TrafficSource``); XY-routed, so no paths."""
        cycles, dsts = replay_open_loop(self, self._next_destination, until)
        # The flow index is linear in ``dst``.
        base = synthetic_flow_index(self.topology, self.src_node, 0)
        return cycles, [base + dst for dst in dsts], dsts, None

    @property
    def offered_flits_per_cycle(self) -> float:
        """Configured long-run offered load (for reports and tests)."""
        return self.rate

    @property
    def next_event_cycle(self) -> int:
        """First integer cycle at which :meth:`packets_for_cycle` can fire."""
        return max(0, math.ceil(self._next_time))


class UniformRandomSource(SyntheticSource):
    """Uniform-random destinations — the standard saturation benchmark."""

    pattern = "uniform"

    def __init__(self, topology, src_node, injection_rate, config) -> None:
        super().__init__(topology, src_node, injection_rate, config)
        self._others = [n for n in topology.nodes if n != src_node]
        if not self._others:
            raise SimulationError("uniform traffic needs at least two nodes")

    def _choose_destination(self) -> int:
        return self._others[self.rng.randrange(len(self._others))]


class TransposeSource(SyntheticSource):
    """Fixed transpose destination: ``(x, y)`` sends to ``(y, x)``."""

    pattern = "transpose"

    def __init__(self, topology, src_node, injection_rate, config) -> None:
        super().__init__(topology, src_node, injection_rate, config)
        x, y = topology.coords(src_node)
        if y >= topology.width or x >= topology.height:
            raise SimulationError(
                f"node {src_node} at ({x}, {y}) has no transpose partner on a "
                f"{topology.width}x{topology.height} grid"
            )
        self._dst = topology.node_at(y, x)

    def _choose_destination(self) -> int:
        return self._dst


class OnOffSource(SyntheticSource):
    """Two-state on-off injector: bursts at full tilt, then silence.

    During ON, packets go back to back (one every ``flits_per_packet``
    cycles — the NI's physical maximum); ON lengths are geometric with mean
    ``config.mean_burst_packets`` packets.  OFF gaps are exponential with
    the mean that restores the configured long-run ``injection_rate`` —
    the same budget argument as the trace-driven bursty source.
    Destinations are uniform-random.
    """

    pattern = "onoff"

    def __init__(self, topology, src_node, injection_rate, config) -> None:
        super().__init__(topology, src_node, injection_rate, config)
        self._others = [n for n in topology.nodes if n != src_node]
        if not self._others:
            raise SimulationError("on-off traffic needs at least two nodes")
        self._remaining_in_burst = 0

    def _choose_destination(self) -> int:
        return self._others[self.rng.randrange(len(self._others))]

    def _advance(self, cycle: int) -> None:
        if self._remaining_in_burst == 0:
            self._remaining_in_burst = draw_geometric_burst(
                self.rng, self.config.mean_burst_packets
            )
        self._remaining_in_burst -= 1
        if self._remaining_in_burst > 0:
            self._next_time = cycle + self._flits_per_packet
            return
        burst = draw_geometric_burst(self.rng, self.config.mean_burst_packets)
        gap = draw_burst_gap(
            self.rng, burst, self._mean_packet_interval, self._flits_per_packet
        )
        self._next_time = cycle + self._flits_per_packet + gap
        self._remaining_in_burst = burst


@register_traffic_pattern("uniform")
def build_uniform_traffic(
    topology: NoCTopology, config: SimConfig, injection_rate: float
) -> list[SyntheticSource]:
    """One uniform-random injector per node."""
    return [
        UniformRandomSource(topology, node, injection_rate, config)
        for node in topology.nodes
    ]


@register_traffic_pattern("transpose")
def build_transpose_traffic(
    topology: NoCTopology, config: SimConfig, injection_rate: float
) -> list[SyntheticSource]:
    """One transpose injector per node whose partner differs from itself."""
    sources = []
    for node in topology.nodes:
        x, y = topology.coords(node)
        if x == y:
            continue  # diagonal nodes send to themselves: nothing to inject
        if y >= topology.width or x >= topology.height:
            continue  # no partner on a non-square grid
        sources.append(TransposeSource(topology, node, injection_rate, config))
    if not sources:
        raise SimulationError(
            f"transpose traffic has no flows on a "
            f"{topology.width}x{topology.height} grid"
        )
    return sources


@register_traffic_pattern("onoff")
def build_onoff_traffic(
    topology: NoCTopology, config: SimConfig, injection_rate: float
) -> list[SyntheticSource]:
    """One bursty on-off injector per node (uniform destinations)."""
    return [
        OnOffSource(topology, node, injection_rate, config)
        for node in topology.nodes
    ]
