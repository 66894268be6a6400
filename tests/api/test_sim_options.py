"""SimOptions validation/round-trips, per-flow responses, batch determinism."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    MapRequest,
    SimOptions,
    SimRequest,
    SimResponse,
    run,
    run_batch,
)
from repro.errors import ApiError


def _sim_request(**options_kwargs) -> SimRequest:
    return SimRequest(
        map_request=MapRequest(app="dsp", price_bandwidth=False),
        measure_cycles=1_500,
        warmup_cycles=300,
        drain_cycles=500,
        options=SimOptions(**options_kwargs),
    )


class TestSimOptionsValidation:
    def test_defaults_are_trace_cycle(self):
        options = SimOptions()
        assert options.engine == "cycle"
        assert options.traffic == "trace"
        assert options.num_vcs == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ApiError, match="engine"):
            SimOptions(engine="warp")

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ApiError, match="traffic"):
            SimOptions(traffic="tornado")

    def test_synthetic_needs_injection_rate(self):
        with pytest.raises(ApiError, match="injection_rate"):
            SimOptions(traffic="uniform")

    def test_trace_rejects_injection_rate(self):
        with pytest.raises(ApiError, match="injection_rate"):
            SimOptions(traffic="trace", injection_rate=0.1)

    def test_bad_vcs_rejected(self):
        with pytest.raises(ApiError, match="num_vcs"):
            SimOptions(num_vcs=0)
        with pytest.raises(ApiError, match="vc_buffer_depth"):
            SimOptions(num_vcs=2, vc_buffer_depth=1)

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ApiError, match="unknown sim option"):
            SimOptions.from_dict({"engnie": "cycle"})

    def test_sharding_knobs_need_the_sharded_engine(self):
        with pytest.raises(ApiError, match="sharded"):
            SimOptions(engine="cycle", shards=2)
        with pytest.raises(ApiError, match="sharded"):
            SimOptions(engine="vector", partitioner="greedy-edge")

    def test_bad_shard_values_rejected(self):
        with pytest.raises(ApiError, match="shards"):
            SimOptions(engine="sharded", shards=0)
        with pytest.raises(ApiError, match="partitioner"):
            SimOptions(engine="sharded", partitioner="kl")

    def test_sharded_engine_accepts_the_knobs(self):
        options = SimOptions(
            engine="sharded", shards=4, partitioner="round-robin"
        )
        assert options.shards == 4
        rebuilt = SimOptions.from_dict(
            json.loads(json.dumps(options.to_dict()))
        )
        assert rebuilt == options

    def test_unset_sharding_knobs_stay_out_of_the_payload(self):
        """Canonical-key stability: requests that never mention sharding
        must serialize exactly as they did before the knobs existed."""
        payload = SimOptions().to_dict()
        assert "shards" not in payload
        assert "partitioner" not in payload

    def test_synthetic_traffic_rejects_explicit_routing(self):
        """Synthetic patterns always route XY; a contradictory routing
        request must fail at build time, not be silently ignored."""
        with pytest.raises(ApiError, match="routes XY"):
            SimRequest(
                map_request=MapRequest(app="dsp", price_bandwidth=False),
                routing="min-path",
                options=SimOptions(traffic="uniform", injection_rate=0.1),
            )


class TestRoundTrips:
    def test_sim_request_with_options_round_trips(self):
        request = _sim_request(engine="event", traffic="onoff",
                               injection_rate=0.07, num_vcs=2, vc_buffer_depth=4)
        rebuilt = SimRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_legacy_payload_without_options_still_parses(self):
        """Payloads logged before SimOptions existed must stay readable."""
        payload = _sim_request().to_dict()
        del payload["options"]
        rebuilt = SimRequest.from_dict(payload)
        assert rebuilt.options == SimOptions()

    def test_sim_response_round_trips_with_per_flow(self):
        response = run(_sim_request(engine="event"))
        assert response.per_flow and response.link_flits
        rebuilt = SimResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert rebuilt == response


class TestPerFlowStats:
    def test_per_flow_fields_and_histogram_mass(self):
        response = run(_sim_request())
        total = 0
        for stats in response.per_flow.values():
            assert set(stats) == {
                "count", "mean", "p50", "p95", "std", "jitter", "histogram",
            }
            assert sum(stats["histogram"]) == stats["count"]
            total += stats["count"]
        assert total == response.packets_measured

    def test_worst_flow_is_max_mean(self):
        response = run(_sim_request())
        flow, stats = response.worst_flow()
        assert stats["mean"] == max(s["mean"] for s in response.per_flow.values())

    def test_engines_agree_on_per_flow(self, object_engine):
        cycle = run(_sim_request(engine=object_engine))
        vector = run(_sim_request(engine="vector"))
        assert cycle.per_flow == vector.per_flow
        assert cycle.link_flits == vector.link_flits


class TestBatchSeedDeterminism:
    """run_batch regression: worker count must never change any output.

    Every RNG stream derives from the seed carried in the request payload
    plus stable stream indices — shared global state would make the
    fan-out order (and thus the worker count) observable.
    """

    def _requests(self):
        requests: list[MapRequest | SimRequest] = []
        for seed in (1, 2, 3):
            requests.append(
                SimRequest(
                    map_request=MapRequest(app="dsp", price_bandwidth=False),
                    measure_cycles=1_200,
                    warmup_cycles=300,
                    drain_cycles=400,
                    sim_seed=seed,
                )
            )
            requests.append(
                MapRequest(app="pip", mapper="annealing", seed=seed,
                           price_bandwidth=False)
            )
            requests.append(
                SimRequest(
                    map_request=MapRequest(app="vopd", price_bandwidth=False),
                    measure_cycles=1_200,
                    warmup_cycles=300,
                    drain_cycles=400,
                    sim_seed=seed,
                    options=SimOptions(engine="event", traffic="uniform",
                                       injection_rate=0.05),
                )
            )
        return requests

    def test_workers_1_and_8_identical_payloads(self):
        serial = [r.to_dict() for r in run_batch(self._requests(), workers=1)]
        threaded = [r.to_dict() for r in run_batch(self._requests(), workers=8)]
        assert serial == threaded

    def test_repeated_threaded_runs_identical(self):
        first = [r.to_dict() for r in run_batch(self._requests(), workers=4)]
        second = [r.to_dict() for r in run_batch(self._requests(), workers=4)]
        assert first == second
