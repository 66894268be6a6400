"""Seed oracles for the simulator: the full-scan cycle loop, the packet walks.

Every source, NI and router is visited every cycle, and a router step
refills and advances every output port (every lane, on the VC router)
whether or not anything requests it.  The plain router's port logic is the
seed's own (:func:`seed_advance_port`): it re-reads each head's pipeline
visibility and re-resolves each flit's next hop on every visit, where
``Router`` caches both.  The ``cycle`` engine skips idle components and
unrequested ports; it must not move a single flit differently.

The flattened engines walked the built router objects back into arrays
until ``repro.simnoc.network.Fabric`` carried the wiring:
:func:`seed_build_fabric` builds the objects as the seed did,
:func:`object_walk` reads them back as ``_FlatState`` did, and
:func:`schedule_packets` turns an injection schedule into the ``Packet``
objects the interpreted loops once patched.

The statistics walked ``list[Packet]`` — one dict of lists per flow, one
``sorted`` each — until ``repro.simnoc.stats`` went to columns;
:func:`packet_walk_latency_stats` and :func:`packet_walk_flow_stats` are
those bodies, and the column functions must equal them field for field,
key order included.
"""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from repro.errors import SimulationError
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.ni import NetworkInterface
from repro.simnoc.packet import FlitKind, Packet, is_last_flit
from repro.simnoc.router import LOCAL, build_wormhole_router, resolve_next_hop
from repro.simnoc.stats import FlowStats, LatencyStats
from repro.simnoc.vc_router import build_vc_router


def seed_visible_head(port, cycle: int, router_delay: int):
    """The seed's ``InputPort.visible_head``: the head-of-line flit if it has
    finished the router pipeline."""
    if not port.queue:
        return None
    enter_cycle, flit = port.queue[0]
    if cycle - enter_cycle >= router_delay:
        return flit
    return None


def seed_arbitrate(router, port, cycle: int) -> int | None:
    """The seed's ``Router._arbitrate``: round-robin among inputs whose
    visible head requests this output, each next hop resolved afresh."""
    n = len(router.input_order)
    for offset in range(n):
        index = (port.rr_pointer + offset) % n
        key = router.input_order[index]
        flit = seed_visible_head(router.inputs[key], cycle, router.router_delay)
        if flit is None or flit.kind is not FlitKind.HEAD:
            continue
        if resolve_next_hop(router.node, router.outputs, flit) == port.to_key:
            port.rr_pointer = (index + 1) % n
            return key
    return None


def seed_advance_port(router, port, cycle: int, deliver) -> int:
    """The seed's ``Router._advance_port``: arbitrate (if free) and move the
    allocated worm's ready flits."""
    moved = 0
    if port.owner is None:
        winner = seed_arbitrate(router, port, cycle)
        if winner is None:
            return 0
        port.owner = winner
        head = seed_visible_head(router.inputs[winner], cycle, router.router_delay)
        assert head is not None
        port.owner_packet_id = head.packet.packet_id
    # Links faster than one flit/cycle (rate > 1) may move several
    # flits per cycle — the token bucket provides the budget.
    while port.owner is not None and port.tokens >= 1.0 and port.credits >= 1.0:
        source = router.inputs[port.owner]
        flit = seed_visible_head(source, cycle, router.router_delay)
        if flit is None or flit.packet.packet_id != port.owner_packet_id:
            break  # worm's next flit not here/ready yet
        if resolve_next_hop(router.node, router.outputs, flit) != port.to_key:
            raise SimulationError(
                f"worm of packet {flit.packet.packet_id} changed direction"
            )
        source.queue.popleft()
        if source.feeder is not None:
            source.feeder.credits += 1
        port.tokens -= 1.0
        if port.credits != float("inf"):
            port.credits -= 1.0
        port.flits_carried += 1
        deliver(router.node, port.to_key, flit, cycle)
        moved += 1
        if is_last_flit(flit):
            port.owner = None
            port.owner_packet_id = None
            router.last_step_released = True
    return moved


def seed_refill(port, cycle: int) -> None:
    """The seed's ``OutputPort.refill``, ``min(tokens + rate, cap)``, once per
    cycle owed — one a cycle under the full scan, so no gap is replayed."""
    for _ in range(cycle - port.last_refill):
        port.tokens = min(port.tokens + port.rate, max(1.0, port.rate) + 1.0)
    port.last_refill = max(port.last_refill, cycle)


def every_port_step(router, cycle: int, deliver) -> int:
    """The seed's ``Router.step`` / ``VCRouter.step``: no request pre-pass.

    Every output port is refilled and advanced, on the plain router by the
    seed's own port logic above; the VC router's ``_advance_port`` takes
    the lanes to allocate and is called as is.
    """
    moved = 0
    for out_key in router.output_order:
        port = router.outputs[out_key]
        seed_refill(port, cycle)
        if hasattr(router, "num_vcs"):
            moved += router._advance_port(port, range(router.num_vcs), cycle, deliver)
        else:
            moved += seed_advance_port(router, port, cycle, deliver)
    return moved


def seed_cycle_loop(sim, step=every_port_step):
    """Run ``sim`` on the seed's loop and return its report.

    ``step(router, cycle, deliver)`` advances one router; passing the
    production ``step`` method isolates the router's port skipping from the
    engine's component skipping.
    """
    network = sim.network
    config = sim.config
    trace = sim.trace
    measure_start = config.warmup_cycles
    measure_end = config.warmup_cycles + config.measure_cycles
    last_progress = 0

    def deliver(from_node: int, to_key: int, flit, cycle: int) -> None:
        if trace is not None:
            trace.record(from_node, to_key, flit, cycle)
        if to_key == LOCAL:
            network.interfaces[from_node].eject(flit, cycle)
        else:
            network.routers[to_key].inputs[from_node].push(flit, cycle)

    for cycle in range(config.total_cycles):
        moved = 0
        for source in network.sources:
            for packet in source.packets_for_cycle(cycle, sim.next_packet_id):
                packet.measured = measure_start <= cycle < measure_end
                sim.all_packets.append(packet)
                network.interfaces[packet.src_node].offer_packet(packet)
        for node in sorted(network.interfaces):
            moved += network.interfaces[node].inject(cycle, LOCAL)
        for node in sorted(network.routers):
            moved += step(network.routers[node], cycle, deliver)

        if moved:
            last_progress = cycle
        elif (
            cycle - last_progress > DEADLOCK_WINDOW
            and network.total_buffered_flits() > 0
        ):
            raise SimulationError(
                f"deadlock: no flit moved since cycle {last_progress} "
                f"with {network.total_buffered_flits()} flits buffered"
            )
    return sim._build_report()


def packet_walk_latency_stats(packets) -> LatencyStats:
    """The seed's ``LatencyStats.from_packets``."""
    latencies = sorted(p.latency for p in packets if p.measured)
    if not latencies:
        raise SimulationError("no measured packets delivered")
    network = [p.network_latency for p in packets if p.measured]

    def percentile(fraction: float) -> float:
        index = min(len(latencies) - 1, int(round(fraction * (len(latencies) - 1))))
        return float(latencies[index])

    return LatencyStats(
        count=len(latencies),
        mean=sum(latencies) / len(latencies),
        p50=percentile(0.50),
        p95=percentile(0.95),
        p99=percentile(0.99),
        maximum=float(latencies[-1]),
        mean_network=sum(network) / len(network),
    )


def latency_histogram(latencies: list[int]) -> list[int]:
    """Bin ``i`` counts ``[2**i, 2**(i+1))``; bin 0 covers 0 and 1."""
    if not latencies:
        return []
    bins = [0] * (max(latencies).bit_length() or 1)
    for latency in latencies:
        bins[max(0, latency.bit_length() - 1)] += 1
    return bins


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def packet_walk_flow_stats(packets) -> dict[int, FlowStats]:
    """The seed's ``per_flow_stats``: flows in first-appearance order."""
    latencies: dict[int, list[int]] = {}
    deliveries: dict[int, list[int]] = {}
    for packet in packets:
        if not packet.measured or packet.delivered_cycle is None:
            continue
        latencies.setdefault(packet.commodity_index, []).append(packet.latency)
        deliveries.setdefault(packet.commodity_index, []).append(
            packet.delivered_cycle
        )
    flows: dict[int, FlowStats] = {}
    for index, values in latencies.items():
        values.sort()
        times = sorted(deliveries[index])
        gaps = [float(b - a) for a, b in zip(times, times[1:])]

        def percentile(fraction: float) -> float:
            position = min(len(values) - 1, int(round(fraction * (len(values) - 1))))
            return float(values[position])

        flows[index] = FlowStats(
            count=len(values),
            mean=sum(values) / len(values),
            p50=percentile(0.50),
            p95=percentile(0.95),
            std=_std([float(v) for v in values]),
            jitter=_std(gaps),
            histogram=latency_histogram(values),
        )
    return flows


# ----------------------------------------------------------------------
# the object wiring the flattened engines once walked
# ----------------------------------------------------------------------
def seed_build_fabric(topology, config, link_rate_flits_per_cycle=None):
    """The seed's ``build_fabric``: routers + NIs + link rates, wired."""
    model_name = config.effective_router_model
    if model_name == "wormhole-vc":
        factory = build_vc_router
        credit_depth = config.effective_vc_depth
    else:
        if config.num_vcs > 1:
            raise SimulationError(
                f"router model {model_name!r} buffers per link and cannot "
                f"carry num_vcs={config.num_vcs}; pick a per-lane model "
                f"such as 'wormhole-vc'"
            )
        factory = build_wormhole_router
        credit_depth = config.buffer_depth

    routers = {}
    for node in topology.nodes:
        input_keys = [LOCAL] + list(topology.neighbors(node))
        output_specs = {LOCAL: (1.0, float("inf"))}
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


def flat_outputs(routers) -> list[tuple[int, int]]:
    """Every output port as ``(node, to_key)``, in flat-index order."""
    return [
        (node, key)
        for node in sorted(routers)
        for key in routers[node].output_order
    ]


_EMPTY = 1 << 60


def object_walk(routers, config, vc_mode: bool) -> SimpleNamespace:
    """The seed's ``_FlatState.__init__``: the wiring read off the objects.

    Returns the wiring and initial per-port state under ``_FlatState``'s
    attribute names.
    """
    state = SimpleNamespace()
    state.num_vcs = config.num_vcs if vc_mode else 1
    L = state.num_vcs

    state.nodes = sorted(routers)
    in_specs = [(n, key) for n in state.nodes for key in routers[n].input_order]
    out_specs = state.out_specs = flat_outputs(routers)
    state.in_specs = in_specs
    in_index = {spec: i for i, spec in enumerate(in_specs)}
    out_index = {spec: p for p, spec in enumerate(out_specs)}

    num_in = len(in_specs)
    num_out = len(out_specs)

    state.queues = [deque() for _ in range(num_in * L)]
    state.head_enter = [_EMPTY] * (num_in * L)
    state.head_slot = [-1] * (num_in * L)
    state.head_seq = [-1] * (num_in * L)
    state.head_pos = [0] * (num_in * L)
    state.in_cap = [0] * num_in
    state.in_feeder = [-1] * num_in
    for i, (node, from_key) in enumerate(in_specs):
        port = routers[node].inputs[from_key]
        state.in_cap[i] = port.vc_capacity if vc_mode else port.capacity
        if from_key != LOCAL:
            state.in_feeder[i] = out_index[(from_key, node)]
        if port.occupancy:
            raise SimulationError(
                "vector engine requires a freshly built network "
                f"(node {node} port {from_key} has buffered flits)"
            )

    rates = np.empty(num_out, dtype=np.float64)
    tokens = np.empty(num_out, dtype=np.float64)
    state.credits = [0.0] * (num_out * L)
    state.owner = [-1] * (num_out * L)
    state.owner_pkt = [-1] * (num_out * L)
    state.rr_in = [0] * (num_out * L)
    state.vc_rr = [0] * num_out
    state.port_owned = [0] * num_out
    state.carried = [0] * num_out
    state.out_dest_in = [-1] * num_out
    state.out_dest_node = [0] * num_out
    state.out_to_key = [0] * num_out
    for p, (node, to_key) in enumerate(out_specs):
        port = routers[node].outputs[to_key]
        rates[p] = port.rate
        tokens[p] = port.tokens
        state.out_to_key[p] = to_key
        if to_key != LOCAL:
            state.out_dest_in[p] = in_index[(to_key, node)]
            state.out_dest_node[p] = to_key
        else:
            state.out_dest_node[p] = node
        if vc_mode:
            for vc in range(L):
                state.credits[p * L + vc] = port.vc_credits[vc]
                state.rr_in[p * L + vc] = port.vc_rr_inputs[vc]
            state.vc_rr[p] = port.vc_rr
            fresh = all(o is None for o in port.vc_owner)
        else:
            state.credits[p] = port.credits
            state.rr_in[p] = port.rr_pointer
            fresh = port.owner is None
        state.carried[p] = port.flits_carried
        if not fresh or port.last_refill != -1:
            raise SimulationError(
                "vector engine requires a freshly built network "
                f"(node {node} output {to_key} already ran)"
            )
    state.out_rates = rates
    state.out_caps = np.maximum(1.0, rates) + 1.0
    state.out_tokens = tokens

    size = max(state.nodes) + 1
    state.node_ins = [()] * size
    state.node_outs = [()] * size
    state.local_in = [-1] * size
    for node in state.nodes:
        router = routers[node]
        state.node_ins[node] = [in_index[(node, key)] for key in router.input_order]
        state.node_outs[node] = [
            out_index[(node, key)] for key in router.output_order
        ]
        state.local_in[node] = in_index[(node, LOCAL)]
    state.node_buf = [0] * size
    state.node_owned = [0] * size

    state.ni_queue = [deque() for _ in range(size)]
    state.pkt_outs = []
    state.pkt_last = []
    state.pkt_vc = []
    return state


def schedule_packets(schedule) -> list[Packet]:
    """The seed's ``InjectionSchedule.packets``: the columns as ``Packet`` objects."""
    nodes = schedule.path_nodes.tolist()
    fields = (
        schedule.commodity, schedule.src, schedule.dst, schedule.route_off[:-1],
        schedule.route_off[1:], schedule.flits, schedule.cycle, schedule.measured,
        schedule.vc,
    )  # fmt: skip
    return [
        Packet(pid, com, s, d, nodes[a:b], f, c, None, None, m, v)
        for pid, (com, s, d, a, b, f, c, m, v) in enumerate(
            zip(*(field.tolist() for field in fields)), schedule.first_id
        )
    ]
