"""The request path between client and server: events, not timers; one
connection, not one per call; stored bytes, not re-encoded ones.

Raw sockets and ``http.client`` are used where the assertion is about the
wire itself (which connection, which header, which bytes); everything else
goes through :class:`ServiceClient` against a live :class:`NocService`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import sys
import threading
import time
from contextlib import closing

import pytest

from repro.api import MapRequest, TopologySpec
from repro.errors import ServiceError
from repro.service import NocService, ServiceClient, ServiceConfig, parse_response
from repro.service import server as server_module

from .test_client_retry import REQUEST, free_port
from .test_server import small_sim as sim_request
from .test_server import wait_for


def map_request(tag: str | None = None) -> MapRequest:
    return MapRequest(app="vopd", price_bandwidth=False, tag=tag)


#: Valid payload, impossible at run time (16 cores on a 2x2 grid): the slot
#: completes with an ``error-response``.
IMPOSSIBLE = MapRequest(app="vopd", topology=TopologySpec.parse("mesh:2x2"))


def raw_events(port: int, job_id: str) -> list[bytes]:
    """The NDJSON lines of ``/events`` exactly as the server framed them."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", f"/v1/jobs/{job_id}/events")
        reply = connection.getresponse()
        assert reply.status == 200
        return [line for line in reply.read().split(b"\n") if line]
    finally:
        connection.close()


def exchange(sock: socket.socket, request: bytes) -> tuple[bytes, bytes]:
    """Send one raw request; return its reply's head and Content-Length body."""
    sock.sendall(request)
    reader = sock.makefile("rb")
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        assert line, f"connection closed inside the reply head: {head!r}"
        head += line
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length")
    )
    return head, reader.read(length)


def connections(service: NocService) -> dict:
    """``/v1/health``'s connection counters, read over a connection of its own."""
    with closing(ServiceClient(f"http://127.0.0.1:{service.port}")) as observer:
        return observer.health()["connections"]


class TestStreamWakesOnEvents:
    def test_no_timer_on_the_stream_path(self, make_service, monkeypatch):
        service, client = make_service()
        real_sleep = asyncio.sleep
        forbidden: list[float] = []

        async def only_the_drain_grace(delay, *args):
            if delay != server_module.DRAIN_GRACE:
                forbidden.append(delay)
                raise AssertionError(f"asyncio.sleep({delay}) on the request path")
            return await real_sleep(delay, *args)

        monkeypatch.setattr(server_module.asyncio, "sleep", only_the_drain_grace)
        cold = list(client.stream(client.submit(map_request(tag="no-timer")).id))
        assert [event.index for event in cold] == [0] and not cold[0].cached
        rates = (0.02, 0.05, 0.08)
        batch = client.submit([sim_request(rate) for rate in rates])
        events = list(client.stream(batch.id))
        assert [event.index for event in events] == [0, 1, 2]
        assert tuple(
            event.response.request.options.injection_rate for event in events
        ) == rates
        assert forbidden == []

    def test_every_done_marker_says_done(self, service_pair):
        # The last slot is recorded before the worker reaches mark_done();
        # a stream that wakes on the record must still wait for the job.
        service, client = service_pair
        markers = []
        for index in range(50):
            ticket = client.submit(map_request(tag=f"marker-{index % 5}"))
            markers.append(json.loads(raw_events(service.port, ticket.id)[-1]))
        assert all(marker["done"] is True for marker in markers)
        assert [marker["status"] for marker in markers] == ["done"] * 50

    def test_a_finished_stream_leaves_no_watcher(self, service_pair):
        service, client = service_pair
        ticket = client.submit([sim_request(0.02), sim_request(0.05)])
        assert len(list(client.stream(ticket.id))) == 2
        job = service.registry.get(ticket.id)
        assert wait_for(lambda: job._watchers == [])

    def test_a_client_hanging_up_mid_stream_leaves_no_watcher(
        self, fault_mapper, make_service
    ):
        service, client = make_service(workers=1)
        ticket = client.submit(
            [
                sim_request(0.02),
                sim_request(0.03, tag="hangup", sleep=0.5),
                sim_request(0.04),
            ]
        )
        job = service.registry.get(ticket.id)
        with socket.create_connection(("127.0.0.1", service.port)) as sock:
            sock.sendall(
                f"GET /v1/jobs/{ticket.id}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 200")
            assert wait_for(lambda: len(job._watchers) == 1)
        # The socket is closed with slots still pending: the handler finds
        # out at its next write and must unregister on that path too.
        assert job.wait_done(timeout=60)
        assert wait_for(lambda: job._watchers == [])


class TestSplicedEventLines:
    @pytest.mark.parametrize(
        "request_",
        [map_request(tag="splice"), sim_request(0.06, tag="splice"), IMPOSSIBLE],
        ids=["map", "sim", "error"],
    )
    def test_line_parses_to_what_re_encoding_the_entry_gave(
        self, service_pair, request_
    ):
        service, client = service_pair
        ticket = client.submit(request_)
        (event,) = client.stream(ticket.id)
        stored = client.result_raw(ticket.id)
        line, marker = raw_events(service.port, ticket.id)
        # The parent's form of the line: the stored entry parsed, wrapped
        # and dumped again with sorted keys.
        re_encoded = json.dumps(
            {
                "index": 0,
                "key": ticket.keys[0],
                "cached": False,
                "payload": json.loads(stored),
            },
            sort_keys=True,
        )
        assert json.loads(line) == json.loads(re_encoded)
        assert list(json.loads(line)) == list(json.loads(re_encoded))  # key order
        assert stored.rstrip(b"\n") in line  # the entry itself, not a re-encoding
        assert event.response == parse_response(json.loads(stored))
        assert json.loads(marker) == {
            "batch": False,
            "done": True,
            "id": ticket.id,
            "status": "done",
        }


class TestPersistentConnections:
    def test_one_client_keeps_one_connection(self, service_pair):
        service, client = service_pair
        before = connections(service)
        for index in range(5):
            ticket = client.submit(map_request(tag=f"reuse-{index}"))
            assert len(list(client.stream(ticket.id))) == 1
        after = connections(service)
        assert after["accepted"] - before["accepted"] == 1 + 1  # + the observer
        assert after["requests"] - before["requests"] == 10 + 1
        assert after["open"] == 2  # the client's kept one and this read's own

    def test_wait_rides_the_kept_connection(self, service_pair):
        service, client = service_pair
        before = connections(service)
        assert client.map(map_request(tag="wait-1")).feasible
        batch = client.submit([sim_request(0.02), sim_request(0.05)])
        responses = client.wait(batch.id, timeout=60)
        assert [r.request.options.injection_rate for r in responses] == [0.02, 0.05]
        # A batch of one is still a batch: a list comes back.
        assert len(client.wait(client.submit([map_request(tag="wait-1")]).id)) == 1
        after = connections(service)
        assert after["accepted"] - before["accepted"] == 1 + 1
        assert after["requests"] - before["requests"] == 6 + 1  # no status polls

    def test_threads_sharing_a_client_never_share_a_connection(self, make_service):
        # More threads than cores and a short switch interval: a connection
        # handed to two threads at once would cross their replies, and a
        # lost update on the idle list would leak or double-book one.
        service, client = make_service(workers=2)
        threads_n, rounds = 6, 8
        crossed: list[str] = []

        def loop(name: int) -> None:
            for index in range(rounds):
                tag = f"t{name}-{index % 3}"
                ticket = client.submit(map_request(tag=tag))
                (event,) = client.stream(ticket.id)
                if event.key != ticket.keys[0] or event.response.request.tag != tag:
                    crossed.append(tag)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=loop, args=(name,)) for name in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert crossed == []
        assert 1 <= len(client._idle) <= threads_n
        assert len(set(map(id, client._idle))) == len(client._idle)
        seen = connections(service)
        assert seen["accepted"] <= threads_n + 1  # + this read's own
        assert seen["requests"] == 2 * threads_n * rounds + 1

    def test_handler_errors_answer_and_keep_the_connection(self, service_pair):
        service, _ = service_pair
        with socket.create_connection(("127.0.0.1", service.port)) as sock:
            for path, status in (
                ("/v1/jobs/nope", b"404"),
                ("/v1/nowhere", b"404"),
                ("/v1/health", b"200"),
            ):
                head, body = exchange(
                    sock, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                assert head.split()[1] == status
                assert b"connection: close" not in head.lower()
                assert json.loads(body)
            head, _ = exchange(
                sock,
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{not json",
            )
            assert head.split()[1] == b"400"
            assert b"connection: close" not in head.lower()
            head, _ = exchange(sock, b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert head.split()[1] == b"200"

    @pytest.mark.parametrize(
        "request_",
        [
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            b"GET /v1/health HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_a_peer_that_will_not_keep_is_answered_then_closed(
        self, service_pair, request_
    ):
        service, _ = service_pair
        with socket.create_connection(("127.0.0.1", service.port)) as sock:
            sock.settimeout(10)
            head, body = exchange(sock, request_)
            assert head.split()[1] == b"200"
            assert b"connection: close" in head.lower()
            assert json.loads(body)["status"] == "ok"
            assert sock.recv(1) == b""  # closed by the server, not timed out

    @pytest.mark.parametrize(
        "request_, status",
        [
            (b"BROKEN\r\n\r\n", b"400"),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", b"413"),
        ],
        ids=["bad-request-line", "oversized-body"],
    )
    def test_errors_while_reading_a_request_still_close(
        self, service_pair, request_, status
    ):
        service, _ = service_pair
        with socket.create_connection(("127.0.0.1", service.port)) as sock:
            sock.settimeout(10)
            head, _ = exchange(sock, request_)
            assert head.split()[1] == status
            assert b"connection: close" in head.lower()
            assert sock.recv(1) == b""

    def test_an_abandoned_stream_does_not_poison_the_next_call(self, service_pair):
        service, client = service_pair
        ticket = client.submit([sim_request(0.02), sim_request(0.05), sim_request(0.08)])
        client.wait(ticket.id, timeout=60)
        stream = client.stream(ticket.id)
        assert next(stream).index == 0
        stream.close()  # two lines and the marker are still on that socket
        assert client._idle == []
        assert client.health()["status"] == "ok"
        assert [event.index for event in client.stream(ticket.id)] == [0, 1, 2]
        assert len(client._idle) == 1

    def test_wait_timeout_is_typed_and_the_client_stays_usable(
        self, fault_mapper, make_service
    ):
        _, client = make_service(workers=1)
        ticket = client.submit(sim_request(0.02, tag="slow-wait", sleep=0.8))
        with pytest.raises(
            ServiceError,
            match=r"did not complete within 0.2 s \(status running, 0/1 slots\)",
        ):
            client.wait(ticket.id, timeout=0.2)
        assert client.wait(ticket.id, timeout=60).request.map_request.tag == "slow-wait"


class TestStaleConnections:
    def test_a_restart_between_two_calls_is_re_dialled_silently(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(server_module, "DRAIN_GRACE", 0.05)
        config = ServiceConfig(
            port=free_port(),
            executor="serial",
            store_root=str(tmp_path / "store"),
        )
        client = ServiceClient(f"http://127.0.0.1:{config.port}", timeout=30.0)
        first = NocService(config)
        first.start()
        try:
            cold = client.map(REQUEST)
            assert len(client._idle) == 1
        finally:
            first.shutdown(timeout=60)
        second = NocService(config)
        second.start()
        try:
            # retries=0: were the dead kept connection counted as a
            # transport failure, this call would raise.
            assert client.map(REQUEST) == cold
            assert second.store.stats()["executed"] == 0  # the same store
        finally:
            client.close()
            second.shutdown(timeout=60)


class TestDrainWithKeptConnections:
    def test_an_idle_kept_connection_does_not_stall_shutdown(
        self, make_service, monkeypatch
    ):
        monkeypatch.setattr(server_module, "DRAIN_GRACE", 0.2)
        service, client = make_service()
        assert client.health()["connections"]["open"] == 1
        assert len(client._idle) == 1  # open, idle, and staying that way
        started = time.monotonic()
        service.shutdown(timeout=60)
        assert time.monotonic() - started < server_module.DRAIN_GRACE + 1.0

    def test_nothing_is_kept_alive_once_the_drain_began(
        self, fault_mapper, make_service
    ):
        service, client = make_service(workers=1)
        ticket = client.submit(sim_request(0.02, tag="drain-keep", sleep=0.6))
        service.request_shutdown()
        assert client.health()["status"] == "draining"
        assert client._idle == []  # the reply said Connection: close
        # The stream of the job in flight still completes over the drain.
        assert client.wait(ticket.id, timeout=60).request.map_request.tag == "drain-keep"
        service.shutdown(timeout=60)
