"""Wire-format dispatch, canonical bytes, and error -> status mapping."""

from __future__ import annotations

import copy
import json

import pytest

from repro.api import (
    ErrorResponse,
    FaultSpec,
    MapRequest,
    SimOptions,
    SimRequest,
    TopologySpec,
    run_map,
    run_sim,
)
from repro.service.wire import (
    canonical_response_bytes,
    parse_request,
    parse_response,
    status_for_error,
)
from repro.errors import ApiError


class TestParseRequest:
    def test_dispatches_map_and_sim(self):
        map_request = MapRequest(app="vopd")
        sim_request = SimRequest(map_request=map_request)
        assert parse_request(map_request.to_dict()) == map_request
        assert parse_request(sim_request.to_dict()) == sim_request

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "map-request",
            {"kind": "map-response"},
            {"kind": "mystery"},
            {},
        ],
    )
    def test_rejects_non_requests(self, payload):
        with pytest.raises(ApiError):
            parse_request(payload)

    def test_payload_validation_errors_surface_as_api_error(self):
        payload = MapRequest(app="vopd").to_dict()
        payload["mapper"] = "no-such-mapper"
        with pytest.raises(ApiError):
            parse_request(payload)


NAN, INF = float("nan"), float("inf")


def malformed_request_bodies() -> dict[str, dict]:
    """Request bodies whose parse once raised a ``TypeError`` (an HTTP 500)
    or read a malformed fault list as "no faults"; every one is an
    ``ApiError`` (HTTP 400) now."""
    map_payload = MapRequest(app="vopd").to_dict()
    sim_payload = SimRequest(map_request=MapRequest(app="vopd")).to_dict()
    bodies = {}
    for mapper in ([], {}):
        bodies[f"mapper={mapper!r}"] = {**map_payload, "mapper": mapper}
        nested = copy.deepcopy(sim_payload)
        nested["map_request"]["mapper"] = mapper
        bodies[f"map_request.mapper={mapper!r}"] = nested
    for field in ("failed_links", "failed_routers", "degraded_links"):
        for value in (None, 3, "", {}):
            bodies[f"faults.{field}={value!r}"] = {**map_payload, "faults": {field: value}}
    return bodies


class TestMalformedBodies:
    @pytest.mark.parametrize("name", sorted(malformed_request_bodies()))
    def test_is_an_api_error(self, name):
        with pytest.raises(ApiError):
            parse_request(malformed_request_bodies()[name])

    def test_an_empty_fault_list_still_means_no_faults(self):
        payload = MapRequest(app="vopd").to_dict()
        payload["faults"] = {"failed_links": [], "failed_routers": []}
        assert parse_request(payload).faults == FaultSpec()


def _sim_payload(traffic="trace"):
    """A valid sim-request payload: mesh topology, uniform or trace traffic."""
    mapping = MapRequest(app="vopd", topology=TopologySpec.parse("mesh:4x4", 600.0))
    rate = None if traffic == "trace" else 0.1
    options = SimOptions(traffic=traffic, injection_rate=rate)
    return SimRequest(map_request=mapping, options=options).to_dict()


class TestNumericFields:
    """Every numeric field is checked for its type at parse: a bad one is an
    ``ApiError`` (HTTP 400) there, never a ``TypeError`` / ``ValueError``
    in a worker or a run that quietly accepts it."""

    @pytest.mark.parametrize(
        "where,field,value",
        [
            ("options", "injection_rate", NAN),
            ("options", "injection_rate", INF),
            ("options", "injection_rate", "0.1"),
            ("options", "injection_rate", True),
            ("options", "injection_rate", 0),
            ("options", "num_vcs", 2.5),
            ("options", "num_vcs", True),
            ("options", "num_vcs", "2"),
            ("request", "measure_cycles", 100.5),
            ("request", "warmup_cycles", "10"),
            ("request", "drain_cycles", None),
            ("request", "sim_seed", 1.5),
            ("request", "sim_seed", False),
            ("request", "mean_burst_packets", NAN),
            ("request", "mean_burst_packets", "4"),
            ("request", "mean_burst_packets", 0.5),
            ("topology", "link_bandwidth", NAN),
            ("topology", "link_bandwidth", INF),
            ("topology", "link_bandwidth", "600"),
            ("topology", "link_bandwidth", True),
            ("topology", "width", "4"),
            ("topology", "width", 4.0),
            ("topology", "width", True),
            ("topology", "height", "4"),
            ("map_request", "seed", 1.5),
            ("map_request", "seed", "3"),
            ("map_request", "seed", True),
            ("map_request", "price_bandwidth", "yes"),
            ("map_request", "tag", 5),
            ("map_request", "tag", ["x"]),
        ],
    )
    def test_bad_numbers_are_api_errors(self, where, field, value):
        payload = _sim_payload("uniform" if field == "injection_rate" else "trace")
        # A seeded mapper, so a bad seed cannot hide behind "takes no seed".
        payload["map_request"]["mapper"] = "annealing"
        target = {
            "request": payload,
            "options": payload["options"],
            "map_request": payload["map_request"],
            "topology": payload["map_request"]["topology"],
        }[where]
        target[field] = value
        with pytest.raises(ApiError, match=field.replace("_", ".")):
            parse_request(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize(
        "options",
        [
            dict(num_vcs=2, vc_buffer_depth=4.0),
            dict(num_vcs=2, vc_buffer_depth=True),
            dict(engine="sharded", shards=2.0),
        ],
    )
    def test_bad_lane_and_shard_counts_are_api_errors(self, options):
        payload = _sim_payload()
        payload["options"].update(options)
        with pytest.raises(ApiError, match="vc_buffer_depth|shards"):
            parse_request(payload)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_temperature", NAN),
            ("initial_temperature", INF),
            ("initial_temperature", -INF),
            ("initial_temperature", 0.0),
            ("min_temperature_fraction", NAN),
            ("min_temperature_fraction", INF),
            ("min_temperature_fraction", -1e-4),
            ("cooling", NAN),
            ("cooling", INF),
        ],
    )
    def test_annealing_schedule_must_be_finite(self, field, value):
        """A NaN or infinite schedule would anneal zero moves (and a NaN one
        put a non-JSON ``NaN`` in the response): 400 at parse instead."""
        payload = MapRequest(app="vopd", mapper="annealing").to_dict()
        payload["options"] = {field: value}
        with pytest.raises(ApiError, match=f"^{field} must be "):
            parse_request(json.loads(json.dumps(payload)))
        payload["options"] = {field: 0.5}
        assert parse_request(json.loads(json.dumps(payload))).options.to_dict()[field] == 0.5

    def test_nan_link_bandwidth_names_itself(self):
        payload = _sim_payload()
        payload["map_request"]["topology"]["link_bandwidth"] = NAN
        with pytest.raises(ApiError, match="^link bandwidth must be finite and positive, got nan$"):
            parse_request(json.loads(json.dumps(payload)))

    def test_good_numbers_still_parse(self):
        payload = _sim_payload("uniform")
        payload["options"]["injection_rate"] = 1  # an int rate is a rate
        payload["mean_burst_packets"] = 1
        payload["sim_seed"] = -3
        request = parse_request(payload)
        assert request.options.injection_rate == 1 and request.sim_seed == -3


class TestParseResponse:
    def test_round_trips_every_kind(self):
        request = MapRequest(app="vopd", price_bandwidth=False)
        map_response = run_map(request)
        error = ErrorResponse(request=request, error="FaultError", message="boom")
        for response in (map_response, error):
            assert parse_response(response.to_dict()) == response

    def test_rejects_requests_and_unknowns(self):
        with pytest.raises(ApiError):
            parse_response(MapRequest(app="vopd").to_dict())
        with pytest.raises(ApiError):
            parse_response({"kind": "nope"})

    @pytest.mark.parametrize(
        "path,value",
        [
            (("map_response", "placement"), [1, 2]),
            (("map_response", "placement"), "x"),
            (("map_response", "placement", "idct"), 1.5),
            (("map_response", "feasible"), "x"),
            (("map_response", "comm_cost"), "NaN"),
            (("map_response", "stats"), None),
            (("link_flits",), [1]),
            (("link_flits", "0->1"), "3"),
            (("link_utilization",), 0.5),
            (("link_utilization", "0->1"), None),
            (("per_flow",), [1]),
            (("per_flow", "0"), 1),
            (("latency_mean",), "12.5"),
            (("latency_p99",), None),
            (("cycles",), 1.5),
            (("packets_measured",), True),
        ],
    )
    def test_malformed_sim_response_is_an_api_error(self, sim_response, path, value):
        """A response body is outside bytes to the client: a wrong shape is
        an ``ApiError``, never a ``TypeError`` / ``AttributeError`` or a
        silent coercion (``feasible: "x"`` read as True, ``cycles: 1.5``
        as 1)."""
        payload = json.loads(json.dumps(sim_response.to_dict()))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ApiError):
            parse_response(payload)

    def test_sim_response_round_trips(self, sim_response):
        payload = json.loads(json.dumps(sim_response.to_dict()))
        assert parse_response(payload) == sim_response


@pytest.fixture(scope="module")
def sim_response():
    """A small real simulation response (every table filled)."""
    response = run_sim(
        SimRequest(
            map_request=MapRequest(app="vopd", price_bandwidth=False),
            measure_cycles=300,
            warmup_cycles=30,
            drain_cycles=90,
        )
    )
    assert "0->1" in response.link_flits and "0" in response.per_flow
    assert "idct" in response.map_response.placement
    return response


class TestCanonicalBytes:
    def test_compact_sorted_newline_terminated(self):
        request = MapRequest(app="vopd", price_bandwidth=False)
        data = canonical_response_bytes(run_map(request))
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        text = data.decode()
        assert ": " not in text and ", " not in text
        # Canonical means deterministic: same payload, same bytes.
        assert data == canonical_response_bytes(run_map(request))
        # And parseable back to the same typed payload.
        assert parse_response(json.loads(data)).to_dict() == run_map(request).to_dict()


class TestStatusForError:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (None, 200),
            ("ApiError", 400),
            ("BatchError", 504),
            ("FaultError", 422),
            ("MappingError", 422),
            ("RoutingError", 422),
            ("SimulationError", 422),
            ("SolverError", 422),
            ("TypeError", 500),
            ("SomethingNovel", 500),
        ],
    )
    def test_mapping(self, error, status):
        assert status_for_error(error) == status
