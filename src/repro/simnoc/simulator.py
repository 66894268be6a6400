"""The simulation front door: pick an engine, run it, build the report.

The heavy lifting lives in the two layers this module stitches together:
the **model layer** (the fabric's wiring and the traffic sources — built by
:mod:`repro.simnoc.network`) and the **engine layer**
(:mod:`repro.simnoc.engines` — the flattened time advance, under four
names).  :class:`Simulator` is the run context the engine drives: it owns
the network, the config, the optional trace recorder, the global packet-id
counter and the statistics aggregation.

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
from repro.simnoc.network import Network, build_network, build_synthetic_network
from repro.simnoc.stats import FlowStats, LatencyStats, PacketLog, per_flow_stats


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
        engine: registered engine name — ``"vector"`` (the network
            flattened to arrays; ``"cycle"``, ``"event"`` and ``"sharded"``
            are names of the same engine, kept for the requests that give
            them) or ``"auto"`` (always vector).
        shards, partitioner: accepted for callers written against the
            removed multi-process ``sharded`` engine; no engine reads them.
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
        self._packet_counter = 0
        #: The run's packets: columns, never objects.
        self.packet_log: PacketLog | None = None
        #: The run's flits per output port, in flat port order.
        self.carried: list[int] | None = None

    def next_packet_id(self, count: int = 1) -> int:
        """Fresh globally unique packet id — the first of ``count`` reserved."""
        first = self._packet_counter + 1
        self._packet_counter += count
        return first

    def run(self) -> SimulationReport:
        """Simulate warmup + measurement + drain and aggregate statistics.

        Every engine name gives the same report for identical inputs: they
        all run the flattened engine, which the property suite holds to the
        object-model oracle under ``tests/reference``.

        Raises:
            SimulationError: on detected deadlock, when no measured packet
                is delivered, or for unknown engine names.
        """
        get_engine(self.engine_name).run(self)
        return self._build_report()

    def _build_report(self) -> SimulationReport:
        network = self.network
        config = self.config
        log = self.packet_log
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
            packets_created=len(log.created),
            packets_delivered=len(log.dlv_slot),
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
