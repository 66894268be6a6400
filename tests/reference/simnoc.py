"""Seed oracles for the simulator: the full-scan cycle loop, the packet walks.

Every source, NI and router is visited every cycle, and a router step
refills and advances every output port (every lane, on the VC router)
whether or not anything requests it.  The plain router's port logic is the
seed's own (:func:`seed_advance_port`): it re-reads each head's pipeline
visibility and re-resolves each flit's next hop on every visit, where
``Router`` caches both.  The ``cycle`` engine skips idle components and
unrequested ports; it must not move a single flit differently.

The statistics walked ``list[Packet]`` — one dict of lists per flow, one
``sorted`` each — until ``repro.simnoc.stats`` went to columns;
:func:`packet_walk_latency_stats` and :func:`packet_walk_flow_stats` are
those bodies, and the column functions must equal them field for field,
key order included.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW
from repro.simnoc.packet import FlitKind, is_last_flit
from repro.simnoc.router import LOCAL, resolve_next_hop
from repro.simnoc.stats import FlowStats, LatencyStats


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
