"""The simulation front door: pick an engine, run it, build the report.

The heavy lifting lives in the two layers this module stitches together:
the **model layer** (routers, NIs, traffic sources — built by
:mod:`repro.simnoc.network`) and the **engine layer**
(:mod:`repro.simnoc.engines` — cycle-accurate or event-driven time).
:class:`Simulator` is the run context engines drive: it owns the network,
the config, the optional trace recorder, the global packet-id counter and
the statistics aggregation.

Packets created during warmup or drain are excluded from statistics.  Every
engine raises :class:`~repro.errors.SimulationError` on detected deadlock
(wormhole + arbitrary multi-path source routing is not provably
deadlock-free; silent hangs must not masquerade as results).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.commodities import Commodity
from repro.graphs.topology import NoCTopology
from repro.routing.base import RoutingResult
from repro.simnoc.config import SimConfig
from repro.simnoc.engines.base import get_engine
from repro.simnoc.engines.cycle import DEADLOCK_WINDOW  # noqa: F401  (re-export)
from repro.simnoc.network import Network, build_network, build_synthetic_network
from repro.simnoc.packet import Packet
from repro.simnoc.stats import (
    FlowStats,
    LatencyStats,
    PacketLog,
    packet_columns,
    per_flow_stats,
)


@dataclass
class SimulationReport:
    """Everything a simulation run produced.

    Attributes:
        stats: latency statistics over measured packets.
        per_commodity_latency: mean latency per commodity index.
        packets_created / packets_delivered: totals including warmup/drain.
        cycles: cycles simulated.
        link_utilization: delivered flits / (rate * cycles) per link.
        per_flow: full per-flow summaries (count, percentiles, std, jitter
            and a power-of-two latency histogram) per commodity index.
        link_flits: flits carried per directed link (the utilization
            numerator, useful when comparing runs of different lengths).
    """

    stats: LatencyStats
    per_commodity_latency: dict[int, float]
    packets_created: int
    packets_delivered: int
    cycles: int
    link_utilization: dict[tuple[int, int], float]
    per_commodity_jitter: dict[int, float]
    per_commodity_latency_std: dict[int, float]
    per_flow: dict[int, FlowStats] = field(default_factory=dict)
    link_flits: dict[tuple[int, int], int] = field(default_factory=dict)


class Simulator:
    """Drives a :class:`Network` through one configured simulation run.

    Args:
        network: the built network to simulate.  A network runs once:
            handing it to a second simulator raises ``SimulationError``.
        trace: optional :class:`repro.simnoc.trace.TraceRecorder`; when
            given, every flit movement is recorded (bounded by the
            recorder's cap).
        engine: registered engine name — ``"cycle"`` (bit-exact
            reference), ``"event"`` (heap-scheduled; slower than
            ``cycle`` at every measured load), ``"vector"``
            (structure-of-arrays, fastest at every load),
            ``"sharded"`` (multi-process over a fabric partition) or
            ``"auto"`` (always vector).
        shards: worker count for the ``sharded`` engine (ignored by every
            other engine; defaults to 2 when the sharded engine runs
            without one).
        partitioner: partitioner name for the ``sharded`` engine
            (``"auto"`` walks the metis -> greedy-edge -> round-robin
            ladder; ignored by every other engine).
    """

    def __init__(
        self,
        network: Network,
        trace=None,
        engine: str = "cycle",
        shards: int | None = None,
        partitioner: str | None = None,
    ) -> None:
        network.claim()
        self.network = network
        self.config = network.config
        self.trace = trace
        self.engine_name = engine
        self.shards = shards
        self.partitioner = partitioner
        self._packet_counter = 0
        #: The object engines' packets, in creation order.
        self.all_packets: list[Packet] = []
        #: The flattened engines' packets: columns, never objects.
        self.packet_log: PacketLog | None = None
        #: The flattened engines' flits per output port, in flat port order.
        self.carried: list[int] | None = None

    def next_packet_id(self, count: int = 1) -> int:
        """Fresh globally unique packet id — the first of ``count`` reserved."""
        first = self._packet_counter + 1
        self._packet_counter += count
        return first

    def run(self) -> SimulationReport:
        """Simulate warmup + measurement + drain and aggregate statistics.

        Every engine produces an identical report for identical inputs (the
        property suite pins this); they differ only in wall-clock time.

        Raises:
            SimulationError: on detected deadlock, when no measured packet
                is delivered, or for unknown engine names.
        """
        get_engine(self.engine_name).run(self)
        return self._build_report()

    def _build_report(self) -> SimulationReport:
        network = self.network
        config = self.config
        # The flattened engines left columns; the object engines left
        # packets in the NIs and counters on the ports, gathered here into
        # the same columns.
        log = self.packet_log
        if log is None:
            delivered = [
                packet
                for ni in network.interfaces.values()
                for packet in ni.delivered_packets
            ]
            created, ejected = len(self.all_packets), len(delivered)
            columns = packet_columns(delivered)
            carried = [
                network.routers[node].outputs[key].flits_carried
                for node, key in network.fabric.outputs
            ]
        else:
            created, ejected = len(log.created), len(log.dlv_slot)
            columns = log.measured_columns()
            carried = self.carried
        stats = LatencyStats.from_columns(*columns)

        utilization = {}
        link_flits = {}
        out_index = network.fabric.out_index
        for link, rate in network.link_rates.items():
            flits = carried[out_index[link]]
            utilization[link] = flits / (rate * config.total_cycles)
            link_flits[link] = flits

        # One pass computes every per-flow figure; the flat per_commodity_*
        # dicts are views of the same FlowStats, not second computations.
        per_flow = per_flow_stats(*columns)
        return SimulationReport(
            stats=stats,
            per_commodity_latency={i: f.mean for i, f in per_flow.items()},
            packets_created=created,
            packets_delivered=ejected,
            cycles=config.total_cycles,
            link_utilization=utilization,
            per_commodity_jitter={i: f.jitter for i, f in per_flow.items()},
            per_commodity_latency_std={i: f.std for i, f in per_flow.items()},
            per_flow=per_flow,
            link_flits=link_flits,
        )


def simulate_mapping(
    topology: NoCTopology,
    commodities: list[Commodity],
    routing: RoutingResult,
    config: SimConfig,
    link_rate_flits_per_cycle: float | None = None,
    bandwidth_scale: float = 1.0,
    engine: str = "cycle",
) -> SimulationReport:
    """Convenience wrapper: build the network and run one simulation."""
    network = build_network(
        topology,
        commodities,
        routing,
        config,
        link_rate_flits_per_cycle=link_rate_flits_per_cycle,
        bandwidth_scale=bandwidth_scale,
    )
    return Simulator(network, engine=engine).run()


def simulate_synthetic(
    topology: NoCTopology,
    config: SimConfig,
    traffic: str,
    injection_rate: float,
    link_rate_flits_per_cycle: float | None = None,
    engine: str = "cycle",
) -> SimulationReport:
    """Simulate a registered synthetic traffic pattern on a bare topology."""
    network = build_synthetic_network(
        topology,
        config,
        traffic,
        injection_rate,
        link_rate_flits_per_cycle=link_rate_flits_per_cycle,
    )
    return Simulator(network, engine=engine).run()
