"""Unit tests for flit-level tracing."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.graphs.commodities import Commodity
from repro.routing.min_path import min_path_routing
from repro.simnoc.config import LOCAL, SimConfig
from repro.simnoc.network import build_network
from repro.simnoc.simulator import Simulator
from repro.simnoc.trace import TraceRecorder


def _run_traced(mesh, max_events=100_000):
    commodities = [Commodity(0, "a", "b", 0, 8, 300.0)]
    routing = min_path_routing(mesh, commodities)
    config = SimConfig(
        warmup_cycles=100, measure_cycles=2_000, drain_cycles=500, seed=1
    )
    network = build_network(mesh, commodities, routing, config)
    trace = TraceRecorder(max_events=max_events)
    report = Simulator(network, trace=trace).run()
    return trace, report, routing


class TestTraceRecorder:
    def test_events_recorded(self, mesh3x3):
        trace, report, _routing = _run_traced(mesh3x3)
        assert trace.events
        assert not trace.truncated
        # every delivered packet ends with an ejection event
        ejections = [e for e in trace.events if e.to_key == LOCAL]
        assert len(ejections) >= report.packets_delivered

    def test_packet_journey_ordered_and_on_route(self, mesh3x3):
        trace, _report, routing = _run_traced(mesh3x3)
        packet_id = trace.events[0].packet_id
        journey = trace.packet_journey(packet_id)
        cycles = [event.cycle for event in journey]
        assert cycles == sorted(cycles)
        route_nodes = set(routing.paths[0])
        assert all(event.node in route_nodes for event in journey)

    def test_link_activity_matches_route(self, mesh3x3):
        trace, _report, routing = _run_traced(mesh3x3)
        path = routing.paths[0]
        first_link = (path[0], path[1])
        assert trace.link_activity(*first_link)
        assert not trace.link_activity(path[1], path[0])  # reverse unused

    def test_busiest_link_on_route(self, mesh3x3):
        trace, _report, routing = _run_traced(mesh3x3)
        busiest = trace.busiest_link()
        assert busiest is not None
        path = routing.paths[0]
        assert busiest in list(zip(path, path[1:]))

    def test_truncation(self, mesh3x3):
        trace, _report, _routing = _run_traced(mesh3x3, max_events=10)
        assert trace.truncated
        assert len(trace.events) == 10

    def test_render(self, mesh3x3):
        trace, _report, _routing = _run_traced(mesh3x3, max_events=50)
        text = trace.render(limit=5)
        assert "cycle" in text
        assert "p" in text
        assert "truncated" in text

    def test_invalid_cap(self):
        with pytest.raises(SimulationError):
            TraceRecorder(max_events=0)

    def test_empty_busiest(self):
        assert TraceRecorder().busiest_link() is None
