"""Assemble a simulatable network from a mapping and a routing result.

``build_network`` is the ×pipesCompiler-equivalent step at simulation level:
it wires one router per mesh node (the wormhole router or its VC variant,
picked by the config's ``num_vcs``/``router_model``) along the
topology's links into a :class:`Fabric` record, and creates one bursty
traffic source per commodity, with the source's weighted path set taken
from the routing result (single path, or a flow decomposition of the MCF
solution for split traffic).  The engine flattens the record into arrays;
no router or NI object is ever built.

``build_synthetic_network`` builds the same fabric but drives it with a
registered synthetic traffic pattern (uniform/transpose/onoff) instead of
the mapped core graph — the substrate for saturation sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SimulationError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult, decompose_flows
from repro.simnoc.config import LOCAL, SimConfig
from repro.simnoc.models import TrafficSource, get_traffic_pattern
from repro.simnoc.traffic import BurstyTrafficSource


@dataclass(frozen=True, eq=False)
class Fabric:
    """One fabric's static wiring, in the flat port order engines index by.

    Input ``i`` is ``inputs[i] == (node, from_key)`` and output ``p`` is
    ``outputs[p] == (node, to_key)``: nodes ascending, each node's keys
    ascending (``LOCAL`` first) — one list, since every link runs both
    ways.  Input ``i`` buffers ``in_cap[i]`` flits
    (per lane on ``wormhole-vc``); output ``p`` serializes ``rates[p]``
    flits/cycle and starts with ``credits[p]`` credits (per lane; infinite
    toward ejection).  ``link_rates`` holds the same rates per directed
    link, in the topology's link order.  All of it follows from the
    topology, the config and the optional rate override, so it is computed
    once per build and never changes.
    """

    topology: NoCTopology
    config: SimConfig
    #: The router model the wiring was sized for: ``wormhole`` or
    #: ``wormhole-vc``.
    model: str
    nodes: list[int]
    inputs: list[tuple[int, int]]
    outputs: list[tuple[int, int]]
    in_cap: list[int]
    rates: list[float]
    credits: list[float]
    link_rates: dict[tuple[int, int], float]

    @cached_property
    def out_index(self) -> dict[tuple[int, int], int]:
        """``(node, to_key)`` -> flat output index."""
        return {spec: p for p, spec in enumerate(self.outputs)}


@dataclass(eq=False)
class Network:
    """All simulator components of one NoC instance.

    ``fabric`` is the wiring the engine reads and ``sources`` the traffic
    it replays.  A network runs once: :meth:`claim` hands it to one
    simulator.
    """

    fabric: Fabric
    sources: list[TrafficSource]
    claimed: bool = field(default=False, init=False)

    @property
    def topology(self) -> NoCTopology:
        return self.fabric.topology

    @property
    def config(self) -> SimConfig:
        return self.fabric.config

    @property
    def link_rates(self) -> dict[tuple[int, int], float]:
        return self.fabric.link_rates

    def claim(self) -> None:
        """Take the network for one run.

        Raises:
            SimulationError: when a simulator already took it (its sources
                are consumed and its state is another run's).
        """
        if self.claimed:
            raise SimulationError(
                "a simulation requires a freshly built network; this one "
                "was already given to a Simulator"
            )
        self.claimed = True


def commodity_paths(
    routing: RoutingResult, commodity: Commodity
) -> list[tuple[list[int], float]]:
    """Weighted source routes for one commodity from a routing result."""
    if routing.paths is not None:
        return [(list(routing.paths[commodity.index]), 1.0)]
    return decompose_flows(
        routing.topology, commodity, routing.flows.get(commodity.index, {})
    )


def build_fabric(
    topology: NoCTopology,
    config: SimConfig,
    link_rate_flits_per_cycle: float | None = None,
) -> Fabric:
    """The fabric's wiring: ports, buffer depths, link rates and credits.

    The router model comes from the config (``num_vcs > 1`` selects the
    VC wormhole router unless ``router_model`` pins one explicitly); credit
    loops are sized per physical link, or per virtual channel for
    ``wormhole-vc``.

    Raises:
        SimulationError: if any link's rate comes out non-positive or
            not finite, or the per-link ``wormhole`` router is asked for
            ``num_vcs > 1``.
    """
    model = config.effective_router_model
    # Credit budget = the downstream input FIFO the wire feeds: one per
    # lane on the VC router (even at num_vcs=1), one per link otherwise.
    if model == "wormhole-vc":
        depth = config.effective_vc_depth
    else:
        if config.num_vcs > 1:
            raise SimulationError(
                f"router model {model!r} buffers per link and cannot "
                f"carry num_vcs={config.num_vcs}; pick a per-lane model "
                f"such as 'wormhole-vc'"
            )
        depth = config.buffer_depth

    link_rates: dict[tuple[int, int], float] = {}
    for link in topology.links():
        if link_rate_flits_per_cycle is not None:
            rate = link_rate_flits_per_cycle
        else:
            rate = config.mbps_to_flits_per_cycle(link.bandwidth)
        if not (math.isfinite(rate) and rate > 0):
            raise SimulationError(f"link {link.src}->{link.dst} has rate {rate}")
        link_rates[link.src, link.dst] = rate

    nodes = list(topology.nodes)
    ports = [
        (node, key)
        for node in nodes
        for key in sorted([LOCAL, *topology.neighbors(node)])
    ]
    return Fabric(
        topology=topology,
        config=config,
        model=model,
        nodes=nodes,
        inputs=ports,
        outputs=ports,
        in_cap=[depth] * len(ports),
        rates=[1.0 if key == LOCAL else link_rates[node, key] for node, key in ports],
        credits=[math.inf if key == LOCAL else float(depth) for _, key in ports],
        link_rates=link_rates,
    )


def build_network(
    topology: NoCTopology,
    commodities: list[Commodity],
    routing: RoutingResult,
    config: SimConfig,
    link_rate_flits_per_cycle: float | None = None,
    bandwidth_scale: float = 1.0,
) -> Network:
    """Build a ready-to-run :class:`Network` with trace-driven traffic.

    Args:
        topology: the mesh/torus to instantiate.
        commodities: traffic demands (MB/s each).
        routing: where each commodity's packets travel (paths or flows).
        config: global simulator parameters.
        link_rate_flits_per_cycle: override every link's rate (Figure 5c
            sweeps this); by default each link's rate derives from its
            bandwidth in the topology via the config's clock/flit width.
        bandwidth_scale: multiplies every commodity's injection rate
            (load-sweep experiments).

    Raises:
        SimulationError: if any commodity's scaled rate exceeds one
            flit/cycle (a single NI cannot physically inject faster).
    """
    fabric = build_fabric(topology, config, link_rate_flits_per_cycle)
    sources: list[BurstyTrafficSource] = []
    for commodity in sorted(commodities, key=lambda c: c.index):
        rate = config.mbps_to_flits_per_cycle(commodity.value) * bandwidth_scale
        source = BurstyTrafficSource(
            commodity_index=commodity.index,
            src_node=commodity.src_node,
            dst_node=commodity.dst_node,
            rate_flits_per_cycle=rate,
            paths=commodity_paths(routing, commodity),
            config=config,
            rng=random.Random(config.seed * 1_000_003 + commodity.index),
        )
        sources.append(source)

    return Network(fabric, sources)


def build_synthetic_network(
    topology: NoCTopology,
    config: SimConfig,
    traffic: str,
    injection_rate: float,
    link_rate_flits_per_cycle: float | None = None,
) -> Network:
    """Build a :class:`Network` driven by a registered synthetic pattern.

    Args:
        topology: the mesh/torus to instantiate.
        config: global simulator parameters (seed drives the injectors).
        traffic: registered pattern name (``"uniform"``, ``"transpose"``,
            ``"onoff"``).
        injection_rate: offered load per injecting node, in flits/cycle.
        link_rate_flits_per_cycle: optional uniform link-rate override.

    Raises:
        SimulationError: for unknown patterns or oversubscribed injection.
    """
    fabric = build_fabric(topology, config, link_rate_flits_per_cycle)
    sources = list(get_traffic_pattern(traffic)(topology, config, injection_rate))
    sources.sort(key=lambda source: source.src_node)
    return Network(fabric, sources)
