"""Engine tests: request execution, batch fan-out, torus end to end."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.api import (
    FaultSpec,
    MapRequest,
    MapResponse,
    SimOptions,
    SimRequest,
    SimResponse,
    TopologySpec,
    clear_request_caches,
    list_mappers,
    rebuild_mapping,
    run,
    run_batch,
)
from repro.api.engine import execute_map
from repro.errors import ApiError, ReproError
from repro.graphs.io import core_graph_to_dict
from repro.metrics.bandwidth import min_bandwidth_min_path


class TestRunMap:
    @pytest.mark.parametrize("name", list_mappers())
    def test_every_mapper_round_trips_losslessly(self, name):
        """The acceptance loop: request -> run -> to_dict -> from_dict."""
        request = MapRequest(app="pip", mapper=name, price_bandwidth=False)
        response = run(request)
        rebuilt = MapResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert rebuilt == response
        assert rebuilt.request == request

    def test_auto_topology_resolved_in_response(self):
        response = run(MapRequest(app="pip", price_bandwidth=False))
        assert response.topology.kind == "mesh"
        assert (response.topology.width, response.topology.height) == (3, 3)
        assert response.topology.link_bandwidth is not None

    def test_torus_end_to_end(self):
        response = run(
            MapRequest(
                app="vopd",
                mapper="nmap",
                topology=TopologySpec.parse("torus:4x4"),
            )
        )
        assert response.feasible
        assert response.topology.kind == "torus"
        assert len(response.placement) == 16
        # Wrap links halve worst-case distances, so the torus mapping must
        # not cost more than the mesh one.
        mesh = run(MapRequest(app="vopd", topology=TopologySpec.parse("mesh:4x4")))
        assert response.comm_cost <= mesh.comm_cost

    def test_bandwidth_pricing_toggle(self):
        priced = run(MapRequest(app="pip"))
        assert priced.min_bw_single is not None
        assert priced.min_bw_split is not None
        unpriced = run(MapRequest(app="pip", price_bandwidth=False))
        assert unpriced.min_bw_single is None

    def test_inline_app_payload(self, tiny_graph):
        response = run(
            MapRequest(app=core_graph_to_dict(tiny_graph), price_bandwidth=False)
        )
        assert response.app_name == "tiny"
        assert response.feasible

    def test_rebuild_mapping_matches_placement(self):
        response = run(MapRequest(app="dsp", price_bandwidth=False))
        mapping = rebuild_mapping(response)
        assert mapping.placement == response.placement
        assert mapping.is_complete

    def test_seed_determinism(self):
        first = run(MapRequest(app="pip", mapper="annealing", seed=5,
                               price_bandwidth=False))
        second = run(MapRequest(app="pip", mapper="annealing", seed=5,
                                price_bandwidth=False))
        assert first.placement == second.placement

    def test_run_rejects_unknown_payload(self):
        with pytest.raises(ApiError):
            run("map please")


def _idle_app() -> dict:
    """Three cores and no flows."""
    return {"schema": 1, "kind": "core-graph", "name": "idle", "cores": ["a", "b", "c"],
            "flows": []}  # fmt: skip


class TestAnAppWithoutTraffic:
    """Nothing to route is routed at no cost: every LP path answers 0
    without building an MCF over zero commodities."""

    @pytest.mark.parametrize("price", [False, True])
    @pytest.mark.parametrize("name", list_mappers())
    def test_every_mapper_maps_it_at_cost_zero(self, name, price):
        response = run(
            MapRequest(
                app=_idle_app(),
                mapper=name,
                topology=TopologySpec.parse("mesh:2x2", link_bandwidth=100.0),
                price_bandwidth=price,
            )
        )
        assert (response.comm_cost, response.feasible) == (0.0, True)
        assert (response.min_bw_single, response.min_bw_split) == (
            (0.0, 0.0) if price else (None, None)
        )


#: Fault scenarios the pricing property draws from: none, a failed link, a
#: failed router, a degraded link.
_FAULTS = [
    None,
    FaultSpec(failed_links=((1, 2),)),
    FaultSpec(failed_routers=(4,)),
    FaultSpec(degraded_links=((0, 1, 0.5),)),
]


class TestPricingReusesTheMappersRouting:
    """A priced response reads ``min_bw_single`` off the min-path routing
    the mapper already ran; it must be the value a fresh routing gives."""

    @given(
        st.sampled_from(["pip", "mwa", "vopd"]),
        st.sampled_from(list_mappers()),
        st.sampled_from(_FAULTS),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_priced_value_is_a_fresh_routing_s(self, app, mapper, faults):
        request = MapRequest(
            app=app, mapper=mapper, topology=TopologySpec.parse("mesh:4x4"), faults=faults
        )
        try:
            response = run(request)
        except ReproError:
            reject()  # too few routers left, or nothing feasible to price
        if not response.feasible:
            reject()
        _topology, result = execute_map(request)
        assert response.min_bw_single == min_bandwidth_min_path(result.mapping)[0]
        reused = min_bandwidth_min_path(result.mapping, result.routing)[1] is result.routing
        assert reused is (mapper not in ("nmap-ta", "nmap-tm"))  # single-path mappers

    def test_a_split_routing_is_routed_afresh(self):
        _topology, result = execute_map(MapRequest(app="pip", mapper="nmap-ta"))
        value, routing = min_bandwidth_min_path(result.mapping, result.routing)
        assert routing is not result.routing and routing.algorithm == "min-path"
        assert value == min_bandwidth_min_path(result.mapping)[0]


class TestRunBatch:
    def test_order_preserved_across_workers(self):
        requests = [
            MapRequest(app="pip", mapper=name, price_bandwidth=False, tag=name)
            for name in ("nmap", "pmap", "gmap", "pbb")
        ]
        responses = run_batch(requests, workers=4)
        assert [r.request.tag for r in responses] == ["nmap", "pmap", "gmap", "pbb"]
        serial = run_batch(requests, workers=1)
        assert [r.comm_cost for r in serial] == [r.comm_cost for r in responses]

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_bad_worker_count(self):
        with pytest.raises(ApiError):
            run_batch([MapRequest(app="pip")], workers=0)

    def test_mixed_map_and_sim_requests(self):
        map_request = MapRequest(app="dsp", price_bandwidth=False)
        sim_request = SimRequest(map_request=map_request, measure_cycles=2000)
        responses = run_batch([map_request, sim_request], workers=2)
        assert isinstance(responses[0], MapResponse)
        assert isinstance(responses[1], SimResponse)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ApiError, match="executor"):
            run_batch([MapRequest(app="pip")], executor="fiber")


class TestProcessExecutor:
    """``executor="process"`` must be a pure transport change: byte-identical
    responses to serial thread execution, in the same order."""

    def _requests(self):
        return [
            SimRequest(
                map_request=MapRequest(app="dsp", price_bandwidth=False),
                measure_cycles=1_000,
                warmup_cycles=300,
                drain_cycles=400,
                sim_seed=seed,
            )
            for seed in (1, 2)
        ] + [
            SimRequest(
                map_request=MapRequest(app="vopd", price_bandwidth=False),
                measure_cycles=800,
                warmup_cycles=200,
                drain_cycles=300,
                options=SimOptions(
                    engine="vector", traffic="uniform", injection_rate=0.15
                ),
            ),
            MapRequest(app="pip", mapper="annealing", seed=5, price_bandwidth=False),
        ]

    def test_process_pool_matches_serial_byte_for_byte(self):
        serial = [r.to_dict() for r in run_batch(self._requests(), workers=1)]
        forked = [
            r.to_dict()
            for r in run_batch(self._requests(), workers=2, executor="process")
        ]
        assert forked == serial

    def test_process_pool_preserves_order_and_types(self):
        responses = run_batch(self._requests(), workers=2, executor="process")
        assert [type(r).__name__ for r in responses] == [
            "SimResponse", "SimResponse", "SimResponse", "MapResponse",
        ]


class TestReplicaExecutor:
    """``executor="replica"`` must be a pure transport change too: every
    slot flattened before any runs, byte-identical responses to serial."""

    def _sweep_requests(self, engine="auto"):
        base_map = MapRequest(
            app="vopd",
            mapper="nmap",
            topology=TopologySpec.parse("mesh:4x4", link_bandwidth=6400.0),
            price_bandwidth=False,
        )
        return [
            SimRequest(
                map_request=base_map,
                measure_cycles=800,
                warmup_cycles=200,
                drain_cycles=400,
                sim_seed=11,
                options=SimOptions(
                    engine=engine, traffic="uniform", injection_rate=rate
                ),
            )
            for rate in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
        ]

    def test_replica_matches_serial_byte_for_byte(self):
        serial = [r.to_dict() for r in run_batch(self._sweep_requests(),
                                                 executor="serial")]
        clear_request_caches()
        replica = [r.to_dict() for r in run_batch(self._sweep_requests(),
                                                  executor="replica")]
        assert replica == serial

    def test_incompatible_slots_fall_back_in_place(self):
        """Cycle/event-pinned sims and map requests keep their slots and
        their exact serial payloads around the batched vector ones."""
        requests = self._sweep_requests(engine="vector")[:2]
        requests += self._sweep_requests(engine="cycle")[:1]
        requests.append(MapRequest(app="pip", price_bandwidth=False))
        serial = [r.to_dict() for r in run_batch(requests, executor="serial")]
        clear_request_caches()
        replica = [r.to_dict() for r in run_batch(requests, executor="replica")]
        assert replica == serial

    def test_timeout_rejected(self):
        with pytest.raises(ApiError, match="replica"):
            run_batch(self._sweep_requests(), executor="replica", timeout=5.0)

    def test_empty_batch(self):
        assert run_batch([], executor="replica") == []


class TestRequestCaches:
    """The sweep cache must be invisible in results — only in wall clock."""

    def test_cached_sweep_matches_cold_runs(self):
        """One batch reusing the cached mapping == every point run cold."""
        def sweep_requests():
            return [
                SimRequest(
                    map_request=MapRequest(app="vopd", price_bandwidth=False),
                    measure_cycles=600,
                    warmup_cycles=200,
                    drain_cycles=300,
                    options=SimOptions(
                        engine="auto", traffic="uniform", injection_rate=rate
                    ),
                )
                for rate in (0.02, 0.10, 0.25)
            ]

        clear_request_caches()
        warm = [r.to_dict() for r in run_batch(sweep_requests(), workers=1)]
        cold = []
        for request in sweep_requests():
            clear_request_caches()
            cold.append(run(request).to_dict())
        assert warm == cold

    def test_trace_routing_cache_matches_cold(self):
        def request(routing):
            return SimRequest(
                map_request=MapRequest(app="dsp", price_bandwidth=False),
                measure_cycles=800,
                warmup_cycles=200,
                drain_cycles=300,
                routing=routing,
            )

        for routing in ("auto", "xy", "min-path"):
            clear_request_caches()
            cold = run(request(routing)).to_dict()
            warm = run(request(routing)).to_dict()  # second hit is cached
            assert warm == cold


class TestRunSim:
    def test_sim_round_trip_and_stats(self):
        request = SimRequest(
            map_request=MapRequest(app="dsp", price_bandwidth=False),
            measure_cycles=2000,
        )
        response = run(request)
        assert response.packets_measured > 0
        assert response.latency_mean > 0
        link, utilization = response.hottest_link()
        assert "->" in link and 0 < utilization <= 1.0
        rebuilt = SimResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert rebuilt == response

    def test_sim_on_torus_with_xy_routing(self):
        request = SimRequest(
            map_request=MapRequest(
                app="pip",
                topology=TopologySpec.parse("torus:3x3"),
                price_bandwidth=False,
            ),
            measure_cycles=2000,
            routing="xy",
        )
        response = run(request)
        assert response.packets_measured > 0
