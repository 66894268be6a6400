"""Wire fuzzer: one field of a valid payload, at any depth, replaced by a
hostile value.

The contract of ``repro.service.wire``: whatever a body holds, parsing it
either raises ``ApiError`` (the server's HTTP 400, the client's typed
failure) or yields a payload whose canonical blob survives a second trip
through the wire unchanged.  Any other exception — a ``TypeError`` from a
registry lookup, an ``AttributeError`` on a table — is a parse hole.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    AnnealingOptions,
    ErrorResponse,
    FaultSpec,
    MapRequest,
    PbbOptions,
    SimOptions,
    SimRequest,
    TopologySpec,
    run_map,
    run_sim,
)
from repro.errors import ApiError
from repro.graphs.io import core_graph_to_dict
from repro.graphs.random_graphs import random_core_graph
from repro.service.wire import parse_request, parse_response

HOSTILE = (
    None, True, False, 0, -1, 2**70, -(2**70), 1.5,
    float("nan"), float("inf"), float("-inf"),
    "", "inf", "NaN", "a string", [], [1], {}, {"a": 1},
)


def _requests() -> dict[str, dict]:
    mapping = MapRequest(
        app="vopd",
        mapper="annealing",
        topology=TopologySpec.parse("mesh:4x4", 600.0),
        options=AnnealingOptions(cooling=0.9, moves_per_temperature=20),
        seed=3,
        faults=FaultSpec(
            failed_links=((0, 1),),
            failed_routers=(15,),
            degraded_links=((2, 3, 0.5),),
            random_link_failures=1,
        ),
        tag="fuzz",
    )
    inline = MapRequest(
        app=core_graph_to_dict(random_core_graph(6, seed=4)),
        mapper="pbb",
        options=PbbOptions(max_queue=10),
    )
    vc_sim = SimRequest(
        map_request=MapRequest(app="pip", price_bandwidth=False),
        measure_cycles=300,
        options=SimOptions(
            engine="vector", traffic="uniform", injection_rate=0.1,
            num_vcs=2, vc_buffer_depth=4,
        ),
    )
    return {
        "map-request": mapping.to_dict(),
        "inline-map-request": inline.to_dict(),
        "vc-sim-request": vc_sim.to_dict(),
    }


def _responses() -> dict[str, dict]:
    mapping = MapRequest(app="pip", price_bandwidth=True)
    sim = SimRequest(
        map_request=MapRequest(app="pip", price_bandwidth=False),
        measure_cycles=200, warmup_cycles=20, drain_cycles=60,
    )
    return {
        "map-response": run_map(mapping).to_dict(),
        "sim-response": run_sim(sim).to_dict(),
        "error-response": ErrorResponse(
            request=sim, error="FaultError", message="boom"
        ).to_dict(),
    }


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a key/index path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _canonical(payload) -> str:
    return json.dumps(payload.to_dict(), sort_keys=True, separators=(",", ":"))


SEEDS = {**_requests(), **_responses()}
PARSE = {
    name: parse_request if name.endswith("request") else parse_response for name in SEEDS
}
PATHS = {name: sorted(_paths(seed), key=repr) for name, seed in SEEDS.items()}


@pytest.mark.parametrize("name", sorted(SEEDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_replaced_field_is_an_api_error_or_round_trips(name, data):
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    body = copy.deepcopy(SEEDS[name])
    target = body
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    parse = PARSE[name]
    try:
        parsed = parse(json.loads(json.dumps(body)))
    except ApiError:
        return
    blob = _canonical(parsed)
    assert _canonical(parse(json.loads(blob))) == blob


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_every_seed_parses_and_round_trips(name):
    parsed = PARSE[name](json.loads(json.dumps(SEEDS[name])))
    assert json.loads(_canonical(parsed)) == SEEDS[name]
