"""A deferred routing changes nothing anyone can see.

On a pristine fabric whose every link carries the application's total
traffic, the single-path mappers hand over their routing deferred
(``repro.mapping.base.DEFERRED``) and the result routes on first read.
Over drawn pristine fabrics and graphs, with capacities both ample and
tight, every registered single-path mapper must answer what eager
evaluation of its final mapping answers, and its routing must be the eager
``min_path_routing`` — same paths, same flows in the same key order — and
the result must pickle before and after the read.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import list_mappers
from repro.api.registry import get_mapper
from repro.graphs.commodities import build_commodities
from repro.mapping.base import DEFERRED
from repro.metrics.comm_cost import MAXVALUE, comm_cost
from repro.routing.min_path import min_path_routing
from tests.properties.test_seed_oracles import core_graphs, fabrics

_SINGLE_PATH = [name for name in list_mappers() if name not in ("nmap-ta", "nmap-tm")]


@st.composite
def pristine_cases(draw):
    """A pristine fabric, a graph that fits it, a uniform capacity at the
    graph's total traffic or above (ample) or below it (tight), and which."""
    fabric = draw(fabrics().filter(lambda fabric: not fabric.is_degraded))
    graph = draw(core_graphs(max_cores=min(8, fabric.num_nodes)))
    total = int(graph.total_bandwidth())
    ample = draw(st.booleans()) or total <= 1
    capacity = draw(
        st.integers(max(total, 1), 2 * total + 1) if ample else st.integers(1, total - 1)
    )
    return graph, fabric.with_uniform_bandwidth(float(capacity)), ample


def _eager(mapping):
    """``shortestpath()`` as it ran before deferral: route, then price."""
    routing = min_path_routing(mapping.topology, build_commodities(mapping.core_graph, mapping))
    feasible = routing.is_feasible()
    return (comm_cost(mapping) if feasible else MAXVALUE), feasible, routing


def _seen(routing):
    return routing.algorithm, routing.paths, [(k, list(v.items())) for k, v in routing.flows.items()]


@given(pristine_cases(), st.sampled_from(_SINGLE_PATH))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_a_deferred_routing_reads_as_the_eager_one(case, mapper):
    graph, fabric, ample = case
    result = get_mapper(mapper).run(graph, fabric)
    assert (vars(result)["routing"] is DEFERRED) is ample
    cost, feasible, routing = _eager(result.mapping)
    assert (result.comm_cost, result.feasible) == (cost, feasible)

    unread = pickle.loads(pickle.dumps(result))
    assert _seen(result.routing) == _seen(routing)
    read = pickle.loads(pickle.dumps(result))
    for copy in (unread, read):
        assert copy.mapping == result.mapping
        assert _seen(copy.routing) == _seen(routing)
