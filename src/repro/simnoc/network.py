"""Assemble a simulatable network from a mapping and a routing result.

``build_network`` is the ×pipesCompiler-equivalent step at simulation level:
it instantiates one router per mesh node (the model picked by the config's
``num_vcs``/``router_model`` — see :mod:`repro.simnoc.models`), wires
input/output ports along the topology's links, attaches a network interface
per node and creates one bursty traffic source per commodity, with the
source's weighted path set taken from the routing result (single path, or a
flow decomposition of the MCF solution for split traffic).

``build_synthetic_network`` builds the same fabric but drives it with a
registered synthetic traffic pattern (uniform/transpose/onoff) instead of
the mapped core graph — the substrate for saturation sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult, decompose_flows
from repro.simnoc.config import SimConfig
from repro.simnoc.models import (
    RouterModel,
    TrafficSource,
    get_router_model,
    get_traffic_pattern,
    router_model_uses_lanes,
)
from repro.simnoc.ni import NetworkInterface
from repro.simnoc.router import LOCAL
from repro.simnoc.traffic import BurstyTrafficSource


@dataclass
class Network:
    """All simulator components of one NoC instance."""

    topology: NoCTopology
    config: SimConfig
    routers: dict[int, RouterModel]
    interfaces: dict[int, NetworkInterface]
    sources: list[TrafficSource]
    link_rates: dict[tuple[int, int], float] = field(default_factory=dict)

    def total_buffered_flits(self) -> int:
        return sum(router.buffered_flits() for router in self.routers.values())

    def total_backlog_flits(self) -> int:
        return sum(ni.backlog_flits for ni in self.interfaces.values())


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
) -> tuple[
    dict[int, RouterModel], dict[int, NetworkInterface], dict[tuple[int, int], float]
]:
    """Routers + NIs + link rates, wired but with no traffic attached.

    The router model comes from the config (``num_vcs > 1`` selects the
    VC wormhole router unless ``router_model`` pins one explicitly); credit
    loops are wired per physical link, or per virtual channel for VC models.

    Raises:
        SimulationError: if any link's rate comes out non-positive or
            not finite.
    """
    model_name = config.effective_router_model
    factory = get_router_model(model_name)
    # Credit budget = the downstream input FIFO the wire feeds.  Whether
    # that FIFO is per lane or per link is declared by the model's
    # registration, never inferred from its name (a custom model with
    # num_vcs=1 would otherwise get credits sized for the wrong buffer).
    if router_model_uses_lanes(model_name):
        credit_depth = config.effective_vc_depth
    else:
        if config.num_vcs > 1:
            raise SimulationError(
                f"router model {model_name!r} buffers per link and cannot "
                f"carry num_vcs={config.num_vcs}; pick a per-lane model "
                f"such as 'wormhole-vc'"
            )
        credit_depth = config.buffer_depth

    routers: dict[int, RouterModel] = {}
    for node in topology.nodes:
        input_keys = [LOCAL] + list(topology.neighbors(node))
        output_specs: dict[int, tuple[float, float]] = {
            LOCAL: (1.0, float("inf"))
        }
        for neighbor in topology.neighbors(node):
            if link_rate_flits_per_cycle is not None:
                rate = link_rate_flits_per_cycle
            else:
                rate = config.mbps_to_flits_per_cycle(
                    topology.link_bandwidth(node, neighbor)
                )
            if not (math.isfinite(rate) and rate > 0):
                raise SimulationError(f"link {node}->{neighbor} has rate {rate}")
            output_specs[neighbor] = (rate, float(credit_depth))
        routers[node] = factory(node, input_keys, output_specs, config)

    # Wire credit feedback: each input port knows the output port feeding it.
    for node, router in routers.items():
        for neighbor in topology.neighbors(node):
            upstream = routers[neighbor]
            router.inputs[neighbor].feeder = upstream.outputs[node]

    interfaces = {
        node: NetworkInterface(node, routers[node], num_vcs=config.num_vcs)
        for node in topology.nodes
    }
    link_rates = {
        (link.src, link.dst): routers[link.src].outputs[link.dst].rate
        for link in topology.links()
    }
    return routers, interfaces, link_rates


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
    routers, interfaces, link_rates = build_fabric(
        topology, config, link_rate_flits_per_cycle
    )

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

    return Network(
        topology=topology,
        config=config,
        routers=routers,
        interfaces=interfaces,
        sources=sources,
        link_rates=link_rates,
    )


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
    routers, interfaces, link_rates = build_fabric(
        topology, config, link_rate_flits_per_cycle
    )
    sources = list(get_traffic_pattern(traffic)(topology, config, injection_rate))
    sources.sort(key=lambda source: source.src_node)
    return Network(
        topology=topology,
        config=config,
        routers=routers,
        interfaces=interfaces,
        sources=sources,
        link_rates=link_rates,
    )
