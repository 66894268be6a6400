"""End-to-end service tests over real HTTP on an ephemeral port.

Every test here talks to a live :class:`NocService` through
:class:`ServiceClient` — the full wire path: typed request -> JSON body ->
asyncio server -> admission queue -> worker -> store -> canonical bytes ->
typed response.  The acceptance contract (N identical concurrent
submissions execute once and read byte-identical bodies; warm equals cold;
drain drops nothing) is pinned explicitly.
"""

from __future__ import annotations

import threading
import time

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
from repro.errors import ServiceError
from repro.service import NocService, ServiceClient, ServiceConfig
from repro.service import jobs as jobs_module
from tests.fault_injection import faulty
from tests.service.test_store import fail_writes
from tests.service.test_wire import malformed_request_bodies

MAP_REQUEST = MapRequest(app="vopd", price_bandwidth=False)


def small_sim(
    rate: float = 0.05, tag: str | None = None, sleep: float | None = None
) -> SimRequest:
    """A short VOPD simulation; ``sleep`` stalls its mapping that long
    (the ``test-fault`` mapper: the test needs the ``fault_mapper``
    fixture)."""
    if sleep is None:
        map_request = MapRequest(app="vopd", price_bandwidth=False, tag=tag)
    else:
        map_request = faulty(app="vopd", tag=tag, sleep=sleep)
    return SimRequest(
        map_request=map_request,
        measure_cycles=400,
        warmup_cycles=100,
        drain_cycles=200,
        options=SimOptions(traffic="uniform", injection_rate=rate, engine="event"),
    )


def wait_for(predicate, timeout=30.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


class TestIntrospection:
    def test_health(self, service_pair):
        _, client = service_pair
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["schema"] == 1
        assert set(payload["store"]) >= {"executed", "hits", "stored"}

    def test_a_store_that_cannot_write_still_answers(self, service_pair, monkeypatch):
        """A read-only store root: the computed body is still served, and
        ``store.write_errors`` counts what was not persisted."""
        _, client = service_pair
        fail_writes(monkeypatch)
        assert client.map(MAP_REQUEST) == run_map(MAP_REQUEST)
        store = client.health()["store"]
        assert (store["write_errors"], store["stored"]) == (1, 0)

    def test_mappers_lists_the_registry(self, service_pair):
        _, client = service_pair
        mappers = client.mappers()
        names = [mapper["name"] for mapper in mappers]
        assert "nmap" in names and "annealing" in names
        nmap = next(mapper for mapper in mappers if mapper["name"] == "nmap")
        assert nmap["seedable"] is False
        assert "max_iterations" in nmap["options"] or nmap["options"]


class TestSingleJobs:
    def test_map_round_trip_matches_local_run(self, service_pair):
        _, client = service_pair
        response = client.map(MAP_REQUEST)
        assert response.to_dict() == run_map(MAP_REQUEST).to_dict()

    def test_sim_round_trip_matches_local_run(self, service_pair):
        _, client = service_pair
        request = small_sim()
        response = client.simulate(request)
        assert response.to_dict() == run_sim(request).to_dict()

    def test_submit_then_poll_then_result(self, service_pair):
        _, client = service_pair
        ticket = client.submit(MAP_REQUEST)
        assert ticket.slots == 1 and not ticket.batch
        assert len(ticket.keys[0]) == 64
        response = client.wait(ticket.id, timeout=60)
        assert response.feasible
        envelope = client.status(ticket.id)
        assert envelope["status"] == "done"
        assert envelope["slots"][0]["kind"] == "map-response"

    def test_unknown_job_is_a_service_error(self, service_pair):
        _, client = service_pair
        with pytest.raises(ServiceError, match="no such job"):
            client.status("definitely-not-a-job")


class TestSubmissionValidation:
    def test_malformed_json_is_400(self, service_pair):
        _, client = service_pair
        status, _ = client._request("POST", "/v1/jobs", b"{not json")
        assert status == 400

    def test_unknown_kind_is_400(self, service_pair):
        _, client = service_pair
        status, _ = client._request("POST", "/v1/jobs", b'{"kind": "mystery"}')
        assert status == 400

    def test_unknown_mapper_rejected_at_submission(self, service_pair):
        _, client = service_pair
        payload = MAP_REQUEST.to_dict()
        payload["mapper"] = "nope"
        import json as json_module

        status, body = client._request(
            "POST", "/v1/jobs", json_module.dumps(payload).encode()
        )
        assert status == 400
        assert b"ApiError" in body

    def test_nan_numbers_are_400_at_submission(self, service_pair):
        """``json.loads`` reads ``NaN``; parse must refuse it, not a worker
        (a NaN link bandwidth used to hang the event engine)."""
        import json as json_module

        _, client = service_pair
        sim = SimRequest(
            map_request=MapRequest(app="vopd", topology=TopologySpec.parse("mesh:4x4")),
            options=SimOptions(engine="event"),
        ).to_dict()
        sim["map_request"]["topology"]["link_bandwidth"] = float("nan")
        uniform = small_sim().to_dict()
        uniform["options"]["injection_rate"] = float("nan")
        for payload in (sim, uniform):
            body = json_module.dumps(payload).encode()
            assert b"NaN" in body
            status, reply = client._request("POST", "/v1/jobs", body)
            assert status == 400
            assert b"ApiError" in reply

    def test_string_topology_width_is_400_at_submission(self, service_pair):
        """A wrongly typed dimension is refused at parse, not raised as a
        bare ``TypeError`` (HTTP 500) or deferred to a worker."""
        import json as json_module

        _, client = service_pair
        payload = MAP_REQUEST.to_dict()
        payload["topology"] = {"kind": "mesh", "width": "4", "height": 4}
        status, reply = client._request(
            "POST", "/v1/jobs", json_module.dumps(payload).encode()
        )
        assert status == 400
        assert b"ApiError" in reply and b"width" in reply

    def test_malformed_bodies_are_400_with_an_api_error(self, service_pair):
        """Bodies whose parse once escaped as a ``TypeError`` (HTTP 500), or
        read a malformed fault list as "no faults", each alone and inside a
        batch."""
        import json as json_module

        _, client = service_pair
        for name, payload in malformed_request_bodies().items():
            for body in (payload, {"requests": [MAP_REQUEST.to_dict(), payload]}):
                status, reply = client._request(
                    "POST", "/v1/jobs", json_module.dumps(body).encode()
                )
                assert (status, b"ApiError" in reply) == (400, True), (name, reply)

    def test_empty_batch_is_400(self, service_pair):
        _, client = service_pair
        status, _ = client._request("POST", "/v1/jobs", b'{"requests": []}')
        assert status == 400


class TestDedup:
    """The acceptance criterion, verified over live HTTP."""

    def test_concurrent_identical_submissions_execute_once(self, make_service):
        service, client = make_service(workers=3)
        request = small_sim(rate=0.07)
        before = client.health()["store"]["executed"]
        tickets: list = [None] * 8
        barrier = threading.Barrier(8)

        def submit(index):
            barrier.wait()
            tickets[index] = client.submit(request)

        threads = [
            threading.Thread(target=submit, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        bodies = set()
        for ticket in tickets:
            client.wait(ticket.id, timeout=120)
            bodies.add(client.result_raw(ticket.id))
        assert len(bodies) == 1
        assert client.health()["store"]["executed"] - before == 1

    def test_warm_resubmission_is_byte_identical_and_cached(self, service_pair):
        _, client = service_pair
        cold_ticket = client.submit(MAP_REQUEST)
        client.wait(cold_ticket.id, timeout=60)
        cold = client.result_raw(cold_ticket.id)
        assert client.status(cold_ticket.id)["slots"][0]["cached"] is False

        warm_ticket = client.submit(MAP_REQUEST)
        client.wait(warm_ticket.id, timeout=60)
        assert client.result_raw(warm_ticket.id) == cold
        assert client.status(warm_ticket.id)["slots"][0]["cached"] is True

    def test_store_survives_a_service_restart(self, make_service, tmp_path):
        root = str(tmp_path / "shared-store")
        first, client = make_service(store_root=root)
        ticket = client.submit(MAP_REQUEST)
        client.wait(ticket.id, timeout=60)
        cold = client.result_raw(ticket.id)
        first.shutdown()

        _, fresh_client = make_service(store_root=root)
        executed_before = fresh_client.health()["store"]["executed"]
        ticket = fresh_client.submit(MAP_REQUEST)
        fresh_client.wait(ticket.id, timeout=60)
        assert fresh_client.result_raw(ticket.id) == cold
        assert fresh_client.health()["store"]["executed"] == executed_before


class TestBatchAndStreaming:
    def test_batch_preserves_order_and_streams_every_slot(self, service_pair):
        _, client = service_pair
        rates = (0.02, 0.05, 0.08)
        requests = [small_sim(rate=rate) for rate in rates]
        ticket = client.submit(requests)
        assert ticket.batch and ticket.slots == 3
        events = list(client.stream(ticket.id))
        assert [event.index for event in events] == [0, 1, 2]
        swept = [
            event.response.request.options.injection_rate for event in events
        ]
        assert tuple(swept) == rates
        # wait() returns the same ordered typed payloads.
        responses = client.wait(ticket.id, timeout=60)
        assert [r.to_dict() for r in responses] == [
            e.response.to_dict() for e in events
        ]

    def test_duplicate_slots_within_a_batch_share_one_execution(
        self, service_pair
    ):
        _, client = service_pair
        request = small_sim(rate=0.06)
        before = client.health()["store"]["executed"]
        ticket = client.submit([request, request, request])
        responses = client.wait(ticket.id, timeout=120)
        assert client.health()["store"]["executed"] - before == 1
        assert len({str(r.to_dict()) for r in responses}) == 1

    def test_batch_result_is_ndjson_of_canonical_lines(self, service_pair):
        _, client = service_pair
        ticket = client.submit([small_sim(0.02), small_sim(0.05)])
        client.wait(ticket.id, timeout=60)
        raw = client.result_raw(ticket.id)
        lines = raw.strip().split(b"\n")
        assert len(lines) == 2
        # Each line is exactly a single slot's canonical entry bytes.
        single = client.submit(small_sim(0.02))
        client.wait(single.id, timeout=60)
        assert lines[0] + b"\n" == client.result_raw(single.id)


class TestAdmissionControl:
    def test_queue_overflow_is_429(self, fault_mapper, make_service):
        _, client = make_service(queue_limit=1, workers=1)
        first = client.submit(small_sim(rate=0.02, tag="slow", sleep=1.5))
        # Wait until the worker owns job 1, so job 2 deterministically
        # occupies the single queue slot and job 3 overflows.
        assert wait_for(
            lambda: client.status(first.id)["status"] == "running"
        )
        client.submit(small_sim(rate=0.03, tag="slow", sleep=1.5))
        with pytest.raises(ServiceError, match="429"):
            client.submit(small_sim(rate=0.04))

    def test_oversized_batch_is_rejected(self, make_service, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_BATCH", 2)
        _, client = make_service()
        with pytest.raises(ServiceError, match="400"):
            client.submit([small_sim(0.02), small_sim(0.03), small_sim(0.04)])


class TestErrorPropagation:
    """Typed worker-side errors keep their type across the wire."""

    def test_runtime_api_error_round_trips_with_400(self, service_pair):
        _, client = service_pair
        # Valid payload, impossible at run time: vopd's 16 cores cannot fit
        # a 2x2 grid — execute_map raises ApiError inside the worker.
        request = MapRequest(
            app="vopd", topology=TopologySpec.parse("mesh:2x2")
        )
        ticket = client.submit(request)
        response = client.wait(ticket.id, timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.error == "ApiError"
        assert response.request == request  # echoed verbatim, fully typed
        status, _ = client._request("GET", f"/v1/jobs/{ticket.id}/result")
        assert status == 400
        envelope = client.status(ticket.id)
        assert envelope["slots"][0]["error"] == "ApiError"

    def test_an_app_without_traffic_on_a_default_bandwidth_is_a_400(self, service_pair):
        """No flows, no ``link_bandwidth``: the derived default is 0, and the
        worker's ApiError names the field to set."""
        _, client = service_pair
        request = MapRequest(
            app={"schema": 1, "kind": "core-graph", "name": "idle", "cores": ["a", "b"],
                 "flows": []},
            topology=TopologySpec.parse("mesh:2x2"),
        )  # fmt: skip
        ticket = client.submit(request)
        response = client.wait(ticket.id, timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.error == "ApiError" and "set link_bandwidth" in response.message
        status, _ = client._request("GET", f"/v1/jobs/{ticket.id}/result")
        assert status == 400

    def test_pbb_over_surviving_capacity_is_a_422(self, service_pair):
        """pip's 8 cores on the 7 routers left of a 3x3 mesh: PBB answers
        with a typed MappingError, not an internal error."""
        _, client = service_pair
        request = MapRequest(
            app="pip",
            mapper="pbb",
            topology=TopologySpec.parse("mesh:3x3"),
            faults=FaultSpec(failed_routers=(4, 5)),
        )
        ticket = client.submit(request)
        response = client.wait(ticket.id, timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.error == "MappingError"
        assert "8 cores cannot map onto the 7 surviving nodes" in response.message
        status, _ = client._request("GET", f"/v1/jobs/{ticket.id}/result")
        assert status == 422

    def test_a_disconnecting_fault_on_ample_links_is_a_422(self, service_pair):
        """Links far above the app's traffic, two halves of a 2x2 cut apart:
        the mapper still routes the degraded fabric and fails at map time."""
        _, client = service_pair
        request = MapRequest(
            app={"schema": 1, "kind": "core-graph", "name": "ring", "cores": list("abcd"),
                 "flows": [{"src": a, "dst": b, "bandwidth": 10}
                           for a, b in ("ab", "bc", "cd", "da")]},
            topology=TopologySpec.parse("mesh:2x2", link_bandwidth=1000.0),
            faults=FaultSpec(failed_links=((0, 1), (2, 3))),
            price_bandwidth=False,
        )  # fmt: skip
        ticket = client.submit(request)
        response = client.wait(ticket.id, timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.error == "FaultError" and "is disconnected" in response.message
        status, _ = client._request("GET", f"/v1/jobs/{ticket.id}/result")
        assert status == 422

    def test_convenience_helpers_raise_with_typed_payload(self, service_pair):
        _, client = service_pair
        request = MapRequest(app="vopd", topology=TopologySpec.parse("mesh:2x2"))
        with pytest.raises(ServiceError) as excinfo:
            client.map(request)
        attached = excinfo.value.response
        assert isinstance(attached, ErrorResponse)
        assert attached.error == "ApiError"

    def test_error_results_are_not_cached(self, service_pair):
        service, client = service_pair
        request = MapRequest(app="vopd", topology=TopologySpec.parse("mesh:2x2"))
        ticket = client.submit(request)
        client.wait(ticket.id, timeout=60)
        assert service.store.stats()["errors_uncached"] >= 1
        assert service.store.get(ticket.keys[0]) is None

    def test_worker_crash_surfaces_as_batch_error_504(
        self, fault_mapper, make_service
    ):
        # The process worker hard-exits in the mapper; the pool retries,
        # the crash repeats, and the slot reports a typed BatchError that
        # must survive the HTTP round trip as a 504.
        _, client = make_service(executor="process", timeout=60.0)
        request = faulty(app="vopd", crash=True)
        ticket = client.submit(request)
        response = client.wait(ticket.id, timeout=120)
        assert isinstance(response, ErrorResponse)
        assert response.error == "BatchError"
        assert "died" in response.message
        status, _ = client._request("GET", f"/v1/jobs/{ticket.id}/result")
        assert status == 504


class TestDrain:
    def test_drain_finishes_accepted_work_and_refuses_new(
        self, fault_mapper, make_service
    ):
        service, client = make_service(workers=1)
        ticket = client.submit(small_sim(rate=0.02, tag="drainslow", sleep=0.8))
        assert wait_for(lambda: client.status(ticket.id)["status"] == "running")
        service.request_shutdown()
        with pytest.raises(ServiceError, match="503"):
            client.submit(small_sim(rate=0.09))
        service.shutdown(timeout=120)
        # Nothing dropped: the accepted job completed and persisted.
        job = service.registry.get(ticket.id)
        assert job is not None and job.status == "done"
        assert job.slots[0].kind == "sim-response"
        assert service.store.get(ticket.keys[0]) is not None

    def test_health_reports_draining(self, fault_mapper, make_service):
        service, client = make_service(workers=1)
        ticket = client.submit(small_sim(rate=0.021, tag="drainslow2", sleep=0.8))
        assert wait_for(lambda: client.status(ticket.id)["status"] == "running")
        service.request_shutdown()
        assert client.health()["status"] == "draining"
        service.shutdown(timeout=120)


class TestClientTransport:
    def test_unreachable_server_is_a_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ServiceError, match="http://"):
            ServiceClient("https://example.invalid")

    def test_bare_host_port_gets_a_scheme(self, service_pair):
        service, _ = service_pair
        client = ServiceClient(f"127.0.0.1:{service.port}")
        assert client.health()["status"] in ("ok", "draining")


class TestOverloadSignaling:
    """Refusals carry machine-readable back-off and identity semantics."""

    def test_429_carries_retry_after(self, fault_mapper, make_service):
        _, client = make_service(queue_limit=1, workers=1)
        first = client.submit(small_sim(rate=0.02, tag="hintslow", sleep=1.5))
        assert wait_for(lambda: client.status(first.id)["status"] == "running")
        client.submit(small_sim(rate=0.03, tag="hintslow", sleep=1.5))
        with pytest.raises(ServiceError, match="429") as excinfo:
            client.submit(small_sim(rate=0.04))
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0

    def test_draining_503_carries_retry_after(self, fault_mapper, make_service):
        service, client = make_service(workers=1)
        ticket = client.submit(small_sim(rate=0.022, tag="hintdrain", sleep=0.8))
        assert wait_for(lambda: client.status(ticket.id)["status"] == "running")
        service.request_shutdown()
        with pytest.raises(ServiceError, match="503") as excinfo:
            client.submit(small_sim(rate=0.09))
        assert excinfo.value.retry_after is not None
        service.shutdown(timeout=120)

    def test_client_quota_is_enforced_over_http(
        self, fault_mapper, make_service
    ):
        service, _ = make_service(client_quota=1, workers=1)
        alice = ServiceClient(
            f"http://127.0.0.1:{service.port}", client_id="alice"
        )
        bob = ServiceClient(f"http://127.0.0.1:{service.port}", client_id="bob")
        first = alice.submit(small_sim(rate=0.02, tag="quotaslow", sleep=1.5))
        assert wait_for(lambda: alice.status(first.id)["status"] == "running")
        with pytest.raises(ServiceError, match="QuotaExceededError") as excinfo:
            alice.submit(small_sim(rate=0.03, tag="quotaslow", sleep=1.5))
        assert excinfo.value.retry_after is not None
        # Bob's identity has its own quota: his submission lands.
        bob.submit(small_sim(rate=0.04, tag="quotaslow", sleep=1.5))

    def test_invalid_priority_header_is_400(self, make_service):
        service, _ = make_service()
        hacker = ServiceClient(
            f"http://127.0.0.1:{service.port}", priority="urgent"
        )
        with pytest.raises(ServiceError, match="400"):
            hacker.submit(small_sim(rate=0.05))

    def test_job_envelope_reports_client_and_priority(self, make_service):
        service, _ = make_service()
        client = ServiceClient(
            f"http://127.0.0.1:{service.port}",
            client_id="alice",
            priority="high",
        )
        ticket = client.submit(small_sim(rate=0.051))
        envelope = client.status(ticket.id)
        assert envelope["client"] == "alice"
        assert envelope["priority"] == "high"
        assert envelope["recovered"] is False

    def test_retrying_client_rides_out_a_full_queue(
        self, fault_mapper, make_service
    ):
        service, client = make_service(queue_limit=1, workers=1)
        first = client.submit(small_sim(rate=0.02, tag="rideout", sleep=0.6))
        assert wait_for(lambda: client.status(first.id)["status"] == "running")
        client.submit(small_sim(rate=0.03, tag="rideout", sleep=0.6))
        # The queue is now full; a retrying client backs off (honoring
        # Retry-After) until a slot frees and the submission lands.
        patient = ServiceClient(
            f"http://127.0.0.1:{service.port}",
            timeout=60.0,
            retries=8,
            backoff=0.2,
            backoff_max=1.0,
        )
        ticket = patient.submit(small_sim(rate=0.04))
        assert patient.wait(ticket.id, timeout=60) is not None


class TestCrashRecovery:
    """The journal's promise over the full service lifecycle, in-process.

    (The kill -9 subprocess version lives in scripts/chaos_smoke.py.)
    """

    def test_journaled_job_replays_under_its_original_id(
        self, make_service, tmp_path
    ):
        from repro.api import run_map
        from repro.service import JobJournal, canonical_response_bytes

        request = MapRequest(app="vopd", price_bandwidth=False)
        store_root = tmp_path / "store"
        store_root.mkdir(parents=True, exist_ok=True)
        # Simulate the post-crash state: an accepted record, no tombstone.
        journal = JobJournal(store_root / "journal.ndjson")
        journal.record_accepted("precrash", [request.to_dict()], batch=False)
        journal.close()

        _, client = make_service(store_root=str(store_root))
        # The pre-crash job id resolves immediately and completes.
        assert wait_for(
            lambda: client.status("precrash")["status"] == "done", timeout=60
        )
        envelope = client.status("precrash")
        assert envelope["recovered"] is True
        # Byte identity: the replayed result is exactly what a local run
        # produces (the chaos-smoke proves the same across kill -9).
        assert client.result_raw("precrash") == canonical_response_bytes(
            run_map(request)
        )

    def test_recovery_skips_finished_jobs(self, make_service, tmp_path):
        from repro.service import JobJournal

        store_root = tmp_path / "store"
        store_root.mkdir(parents=True, exist_ok=True)
        journal = JobJournal(store_root / "journal.ndjson")
        journal.record_accepted(
            "finished", [MAP_REQUEST.to_dict()], batch=False
        )
        journal.record_finished("finished")
        journal.close()
        _, client = make_service(store_root=str(store_root))
        with pytest.raises(ServiceError, match="404"):
            client.status("finished")

    def test_no_recover_starts_fresh(self, make_service, tmp_path):
        from repro.service import JobJournal

        store_root = tmp_path / "store"
        store_root.mkdir(parents=True, exist_ok=True)
        journal = JobJournal(store_root / "journal.ndjson")
        journal.record_accepted("ignored", [MAP_REQUEST.to_dict()], batch=False)
        journal.close()
        _, client = make_service(store_root=str(store_root), recover=False)
        with pytest.raises(ServiceError, match="404"):
            client.status("ignored")

    def test_health_reports_journal_counters(self, service_pair):
        _, client = service_pair
        ticket = client.submit(small_sim(rate=0.052))
        client.wait(ticket.id, timeout=60)
        journal = client.health()["journal"]
        assert journal is not None
        assert journal["accepted"] >= 1
        assert wait_for(
            lambda: client.health()["journal"]["pending"] == 0, timeout=30
        )

    def test_journal_disabled_without_store_or_path(self, make_service):
        _, client = make_service(store_root=None)
        assert client.health()["journal"] is None
