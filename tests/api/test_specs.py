"""JSON round-trip and validation tests for every API payload type."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    AnnealingOptions,
    MapRequest,
    MapResponse,
    NmapOptions,
    PbbOptions,
    SimRequest,
    SimResponse,
    TopologySpec,
)
from repro.errors import ApiError


def json_cycle(payload):
    """Force a real trip through the JSON wire format."""
    return json.loads(json.dumps(payload))


class TestTopologySpec:
    @pytest.mark.parametrize(
        "text, kind, width, height",
        [
            ("auto", "auto", None, None),
            ("mesh:4x4", "mesh", 4, 4),
            ("torus:8x8", "torus", 8, 8),
            ("TORUS:3x5", "torus", 3, 5),
        ],
    )
    def test_parse(self, text, kind, width, height):
        spec = TopologySpec.parse(text)
        assert (spec.kind, spec.width, spec.height) == (kind, width, height)

    @pytest.mark.parametrize(
        "text", ["banana", "4x2", "mesh:4", "hex:4x4", "mesh:axb", ""]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ApiError):
            TopologySpec.parse(text)

    def test_describe_is_parse_inverse(self):
        for text in ("auto", "mesh:4x4", "torus:8x8"):
            assert TopologySpec.parse(text).describe() == text

    def test_validation(self):
        with pytest.raises(ApiError):
            TopologySpec(kind="torus")  # missing dims
        with pytest.raises(ApiError):
            TopologySpec(kind="auto", width=4, height=4)
        with pytest.raises(ApiError):
            TopologySpec(kind="mesh", width=0, height=4)
        with pytest.raises(ApiError):
            TopologySpec(link_bandwidth=-1.0)

    def test_round_trip(self):
        spec = TopologySpec.parse("torus:4x4", link_bandwidth=750.0)
        assert TopologySpec.from_dict(json_cycle(spec.to_dict())) == spec

    def test_build_too_small_rejected(self, tiny_graph):
        with pytest.raises(ApiError):
            TopologySpec.parse("mesh:1x2").build(tiny_graph)

    def test_build_torus(self, tiny_graph):
        topology = TopologySpec.parse("torus:2x2").build(tiny_graph)
        assert topology.torus
        assert topology.num_nodes == 4


class TestMapRequest:
    def test_round_trip_plain(self):
        request = MapRequest(app="vopd")
        assert MapRequest.from_dict(json_cycle(request.to_dict())) == request

    def test_round_trip_full(self):
        request = MapRequest(
            app="vopd",
            mapper="annealing",
            topology=TopologySpec.parse("torus:4x4", link_bandwidth=900.0),
            options=AnnealingOptions(cooling=0.9, seed=3),
            seed=11,
            price_bandwidth=False,
            tag="sweep-7",
        )
        rebuilt = MapRequest.from_dict(json_cycle(request.to_dict()))
        assert rebuilt == request
        assert isinstance(rebuilt.options, AnnealingOptions)

    def test_round_trip_inline_app(self, tiny_graph):
        from repro.graphs.io import core_graph_to_dict

        request = MapRequest(app=core_graph_to_dict(tiny_graph), mapper="gmap")
        assert MapRequest.from_dict(json_cycle(request.to_dict())) == request

    def test_unknown_mapper_rejected(self):
        with pytest.raises(ApiError, match="unknown mapper"):
            MapRequest(app="vopd", mapper="quantum")

    def test_wrong_options_type_rejected(self):
        with pytest.raises(ApiError, match="takes"):
            MapRequest(app="vopd", mapper="nmap", options=PbbOptions())

    def test_seed_on_deterministic_rejected(self):
        with pytest.raises(ApiError, match="deterministic"):
            MapRequest(app="vopd", mapper="pmap", seed=1)

    def test_bad_option_value_rejected(self):
        with pytest.raises(ApiError, match="cooling"):
            MapRequest(app="vopd", mapper="annealing", options=AnnealingOptions(cooling=2.0))

    def test_resolved_options_fold_seed(self):
        request = MapRequest(app="vopd", mapper="annealing", seed=42)
        assert request.resolved_options().seed == 42
        defaults = MapRequest(app="vopd", mapper="annealing")
        assert defaults.resolved_options() == AnnealingOptions()

    def test_envelope_checks(self):
        payload = MapRequest(app="vopd").to_dict()
        with pytest.raises(ApiError, match="schema"):
            MapRequest.from_dict({**payload, "schema": SCHEMA_VERSION + 1})
        with pytest.raises(ApiError, match="kind"):
            MapRequest.from_dict({**payload, "kind": "map-response"})
        with pytest.raises(ApiError):
            MapRequest.from_dict("not a dict")

    def test_unknown_option_key_rejected(self):
        payload = MapRequest(app="vopd", mapper="nmap", options=NmapOptions()).to_dict()
        payload["options"]["warp_factor"] = 9
        with pytest.raises(ApiError, match="warp_factor"):
            MapRequest.from_dict(payload)

    def test_mistyped_option_value_rejected(self):
        payload = MapRequest(app="vopd", mapper="annealing").to_dict()
        payload["options"] = {"cooling": "fast"}
        with pytest.raises(ApiError, match="cooling"):
            MapRequest.from_dict(payload)
        payload["options"] = {"seed": None}
        with pytest.raises(ApiError, match="seed"):
            MapRequest.from_dict(payload)

    def test_missing_required_field_raises_api_error(self):
        with pytest.raises(ApiError, match="app"):
            MapRequest.from_dict({"schema": SCHEMA_VERSION, "kind": "map-request"})


class TestPayloadsBuiltInPython:
    """A payload built in Python meets the checks the wire applies: one that
    would be a 400 on the wire cannot be built, run or keyed."""

    def test_a_string_annealing_seed_is_refused(self):
        with pytest.raises(ApiError, match="^seed must be an int, got 'x'$"):
            MapRequest(app="pip", mapper="annealing", options=AnnealingOptions(seed="x"))

    def test_a_fractional_pbb_queue_is_refused(self):
        with pytest.raises(ApiError, match="^max_queue must be an int >= 1, got 2.5$"):
            PbbOptions(max_queue=2.5)


class TestMapResponse:
    def _response(self, comm_cost=1234.0, feasible=True):
        return MapResponse(
            request=MapRequest(app="pip", mapper="nmap"),
            app_name="pip",
            algorithm="nmap",
            topology=TopologySpec.parse("mesh:3x3", link_bandwidth=768.0),
            comm_cost=comm_cost,
            feasible=feasible,
            placement={"a": 0, "b": 1},
            min_bw_single=192.0,
            min_bw_split=106.7,
            stats={"swaps_tried": 12},
        )

    def test_round_trip(self):
        response = self._response()
        assert MapResponse.from_dict(json_cycle(response.to_dict())) == response

    def test_infinite_cost_round_trips_as_json(self):
        response = self._response(comm_cost=float("inf"), feasible=False)
        payload = json_cycle(response.to_dict())
        assert payload["comm_cost"] == "inf"
        assert MapResponse.from_dict(payload).comm_cost == float("inf")

    def test_missing_required_field_raises_api_error(self):
        payload = self._response().to_dict()
        del payload["placement"]
        with pytest.raises(ApiError, match="placement"):
            MapResponse.from_dict(payload)


class TestSimPayloads:
    def _sim_request(self):
        return SimRequest(
            map_request=MapRequest(app="dsp", price_bandwidth=False),
            measure_cycles=3000,
            warmup_cycles=100,
            drain_cycles=200,
            mean_burst_packets=2.0,
            sim_seed=5,
            routing="xy",
        )

    def test_request_round_trip(self):
        request = self._sim_request()
        assert SimRequest.from_dict(json_cycle(request.to_dict())) == request

    def test_request_validation(self):
        with pytest.raises(ApiError, match="routing"):
            SimRequest(map_request=MapRequest(app="dsp"), routing="warp")
        with pytest.raises(ApiError, match="measure_cycles"):
            SimRequest(map_request=MapRequest(app="dsp"), measure_cycles=0)

    def test_response_round_trip(self):
        request = self._sim_request()
        response = SimResponse(
            request=request,
            map_response=MapResponse(
                request=request.map_request,
                app_name="dsp",
                algorithm="nmap",
                topology=TopologySpec.parse("mesh:3x2", link_bandwidth=600.0),
                comm_cost=1000.0,
                feasible=True,
                placement={"x": 0},
            ),
            packets_measured=10,
            latency_mean=38.0,
            latency_mean_network=30.0,
            latency_p50=35.0,
            latency_p95=60.0,
            latency_p99=70.0,
            latency_max=80.0,
            packets_created=12,
            packets_delivered=11,
            cycles=3300,
            link_utilization={"0->1": 0.5, "1->2": 0.25},
        )
        assert SimResponse.from_dict(json_cycle(response.to_dict())) == response
        assert response.hottest_link() == ("0->1", 0.5)
