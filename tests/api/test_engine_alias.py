"""``engine="event"`` is an alias of the cycle engine.

The heap-scheduled event engine ran slower than ``cycle`` at every measured
load and was removed; the name stayed, so every request naming it gets the
bytes it always got.  Each pin below runs one request on both names and
wants the same canonical response bytes once the request echo (the only
field naming the engine) is swapped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import MapRequest, SimOptions, SimRequest, TopologySpec, run
from repro.service.wire import canonical_response_bytes
from repro.simnoc.engines import CycleEngine, get_engine


def test_event_resolves_to_the_cycle_engine():
    assert isinstance(get_engine("event"), CycleEngine)


CASES = {
    "vopd-trace": dict(
        map_request=MapRequest(app="vopd", price_bandwidth=False),
        options=dict(),
    ),
    "8x8-uniform": dict(
        map_request=MapRequest(
            app="vopd",
            topology=TopologySpec.parse("mesh:8x8", link_bandwidth=1600.0),
            price_bandwidth=False,
        ),
        options=dict(traffic="uniform", injection_rate=0.1),
    ),
    "2-vc": dict(
        map_request=MapRequest(app="vopd", price_bandwidth=False),
        options=dict(traffic="uniform", injection_rate=0.1, num_vcs=2),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_event_requests_get_the_cycle_bytes(case):
    def request(engine):
        return SimRequest(
            map_request=CASES[case]["map_request"],
            warmup_cycles=200,
            measure_cycles=1_000,
            drain_cycles=300,
            sim_seed=5,
            options=SimOptions(engine=engine, **CASES[case]["options"]),
        )

    cycle = run(request("cycle"))
    event = run(request("event"))
    assert event.request.options.engine == "event"
    swapped = dataclasses.replace(event, request=cycle.request)
    assert canonical_response_bytes(swapped) == canonical_response_bytes(cycle)
    assert cycle.packets_delivered > 0
