"""``engine="cycle"``, ``"event"`` and ``"sharded"`` are names of the vector engine.

The object-model ``cycle`` engine, the heap-scheduled ``event`` engine and
the multi-process ``sharded`` engine each gave the bytes the one-process
flattened loop gives, slower; all three were removed and their names
stayed, so every request naming them gets the bytes it always got (the
object model is the test oracle under ``tests/reference``).  Each pin
below runs one request on both names and wants the same canonical response
bytes once the request echo (the only field naming the engine, and the
sharded knobs) is swapped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import MapRequest, SimOptions, SimRequest, TopologySpec, run
from repro.service.wire import canonical_response_bytes
from repro.simnoc.engines import VectorEngine, get_engine


@pytest.mark.parametrize("alias", ["cycle", "event", "sharded"])
def test_alias_resolves_to_the_vector_engine(alias):
    assert isinstance(get_engine(alias), VectorEngine)


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


def _request(case, engine, **knobs):
    return SimRequest(
        map_request=CASES[case]["map_request"],
        warmup_cycles=200,
        measure_cycles=1_000,
        drain_cycles=300,
        sim_seed=5,
        options=SimOptions(engine=engine, **CASES[case]["options"], **knobs),
    )


@pytest.mark.parametrize("alias", ["cycle", "event"])
@pytest.mark.parametrize("case", CASES)
def test_alias_requests_get_the_vector_bytes(case, alias):
    vector = run(_request(case, "vector"))
    named = run(_request(case, alias))
    assert named.request.options.engine == alias
    swapped = dataclasses.replace(named, request=vector.request)
    assert canonical_response_bytes(swapped) == canonical_response_bytes(vector)
    assert vector.packets_delivered > 0


@pytest.mark.parametrize(
    "knobs",
    [{}, dict(shards=4), dict(shards=2, partitioner="round-robin")],
    ids=["bare", "shards", "shards-partitioner"],
)
@pytest.mark.parametrize("case", CASES)
def test_sharded_requests_get_the_vector_bytes(case, knobs):
    vector = run(_request(case, "vector"))
    sharded = run(_request(case, "sharded", **knobs))
    assert sharded.request == _request(case, "sharded", **knobs)
    swapped = dataclasses.replace(sharded, request=vector.request)
    assert canonical_response_bytes(swapped) == canonical_response_bytes(vector)
    assert vector.packets_delivered > 0
