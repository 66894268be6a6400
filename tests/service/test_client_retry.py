"""The client transport's resilience machinery, deterministically.

Backoff math runs against a stubbed RNG, the retry loop against a real
socket server scripted to refuse/reject/accept per connection, and the
circuit breaker against a port nothing listens on — no sleeps longer than
the scripted backoff (kept at milliseconds), no real service needed.
"""

from __future__ import annotations

import http.server
import json
import socket
import threading

import pytest

from repro.api import MapRequest
from repro.errors import CircuitOpenError, ServiceError
from repro.service import ServiceClient
from repro.service.wire import status_for_error


class FixedRng:
    """random()-compatible stub returning a constant."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ScriptedServer:
    """An HTTP server answering POST /v1/jobs from a per-request script.

    Each script entry is ``(status, extra_headers)``; an entry of ``None``
    drops the connection without answering (a transport failure).  Every
    handled request is appended to ``seen``.
    """

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.seen: list[int] = []
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 — http.server API
                step = outer.script.pop(0) if outer.script else (202, {})
                outer.seen.append(len(outer.seen))
                if step is None:
                    self.connection.close()
                    return
                status, headers = step
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                body = json.dumps(
                    {"id": "job-1", "batch": False, "slots": 1, "keys": ["k"]}
                    if status == 202
                    else {"error": "OverloadedError", "message": "busy"}
                ).encode()
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def scripted():
    servers = []

    def factory(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


REQUEST = MapRequest(app="vopd", price_bandwidth=False)


class TestBackoffMath:
    def test_exponential_growth_with_cap(self):
        client = ServiceClient(
            "http://127.0.0.1:1",
            backoff=1.0,
            backoff_max=8.0,
            rng=FixedRng(1.0),  # jitter factor 1.0 — the nominal value
        )
        assert [client._delay(a, None) for a in range(5)] == [
            1.0,
            2.0,
            4.0,
            8.0,
            8.0,  # capped
        ]

    def test_jitter_spans_half_to_full(self):
        low = ServiceClient("http://127.0.0.1:1", backoff=1.0, rng=FixedRng(0.0))
        high = ServiceClient("http://127.0.0.1:1", backoff=1.0, rng=FixedRng(1.0))
        assert low._delay(0, None) == 0.5
        assert high._delay(0, None) == 1.0

    def test_retry_after_hint_raises_the_delay(self):
        client = ServiceClient(
            "http://127.0.0.1:1", backoff=0.01, backoff_max=8.0, rng=FixedRng(0.0)
        )
        assert client._delay(0, "3") == 3.0
        # The hint is capped at backoff_max and never lowers the delay.
        assert client._delay(0, "900") == 8.0
        assert client._delay(0, "garbage") == 0.005

    def test_default_is_zero_retries(self):
        assert ServiceClient("http://127.0.0.1:1")._retries == 0


class TestRetryLoop:
    def test_transport_failure_then_success_submits_once(self, scripted):
        # First connection dropped mid-request, second accepted: with one
        # retry the submit succeeds and the server executed one admission.
        server = scripted([None, (202, {})])
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}",
            timeout=10.0,
            retries=1,
            backoff=0.01,
        )
        ticket = client.submit(REQUEST)
        assert ticket.id == "job-1"
        assert len(server.seen) == 2  # one drop + one success

    def test_429_is_retried_honoring_retry_after(self, scripted):
        server = scripted([(429, {"Retry-After": "0.01"}), (202, {})])
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}",
            timeout=10.0,
            retries=1,
            backoff=0.001,
            backoff_max=0.05,
        )
        ticket = client.submit(REQUEST)
        assert ticket.id == "job-1"

    def test_exhausted_retries_surface_the_rejection(self, scripted):
        server = scripted([(429, {"Retry-After": "1"})] * 3)
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}",
            timeout=10.0,
            retries=2,
            backoff=0.001,
            backoff_max=0.002,  # keep honored hints at 2 ms, not 1 s
        )
        with pytest.raises(ServiceError) as info:
            client.submit(REQUEST)
        assert "429" in str(info.value)
        assert info.value.retry_after == 1.0
        assert len(server.seen) == 3

    def test_zero_retries_fails_immediately(self, scripted):
        server = scripted([(429, {"Retry-After": "1"})])
        client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        with pytest.raises(ServiceError):
            client.submit(REQUEST)
        assert len(server.seen) == 1

    def test_a_dropped_fresh_connection_counts_and_is_not_re_dialled(self, scripted):
        # Only a *kept* connection found dead is re-dialled silently (see
        # test_transport.py); a fresh one that drops is a transport failure.
        server = scripted([None, None, (202, {})])
        client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        for failures in (1, 2):
            with pytest.raises(ServiceError, match="cannot reach"):
                client.submit(REQUEST)
            assert client._failures == failures
        assert client.submit(REQUEST).id == "job-1"
        assert client._failures == 0
        assert len(server.seen) == 3  # one dial per call, no hidden second

    def test_identity_headers_are_attached(self):
        client = ServiceClient(
            "http://127.0.0.1:1", client_id="alice", priority="high"
        )
        headers = client._headers(b"{}")
        assert headers["X-Repro-Client"] == "alice"
        assert headers["X-Repro-Priority"] == "high"
        assert headers["Content-Type"] == "application/json"
        anonymous = ServiceClient("http://127.0.0.1:1")._headers(None)
        assert "X-Repro-Client" not in anonymous
        assert "Content-Type" not in anonymous


class TestCircuitBreaker:
    def make_client(self, port: int, **overrides) -> ServiceClient:
        overrides.setdefault("timeout", 1.0)
        overrides.setdefault("connect_timeout", 0.2)
        overrides.setdefault("breaker_threshold", 2)
        overrides.setdefault("breaker_cooldown", 30.0)
        return ServiceClient(f"http://127.0.0.1:{port}", **overrides)

    def test_breaker_opens_after_threshold_and_fails_fast(self):
        client = self.make_client(free_port())
        for _ in range(2):
            with pytest.raises(ServiceError) as info:
                client.health()
            assert not isinstance(info.value, CircuitOpenError)
        with pytest.raises(CircuitOpenError) as info:
            client.health()
        assert info.value.retry_after is not None
        assert 0 < info.value.retry_after <= 30.0
        # CircuitOpenError is a ServiceError: existing handlers catch it.
        assert isinstance(info.value, ServiceError)

    def test_half_open_probe_closes_the_breaker(self, scripted):
        server = scripted([(202, {})])
        client = self.make_client(server.port, breaker_cooldown=0.01)
        # Open the breaker against nothing... (monkeying the state
        # directly keeps this free of a second server teardown race).
        client._breaker_failure()
        client._breaker_failure()
        with pytest.raises(CircuitOpenError):
            client._breaker_preflight()
        # ...wait out the cooldown: the next call probes and succeeds,
        # which closes the breaker (failure count reset).
        import time

        time.sleep(0.02)
        ticket = client.submit(REQUEST)
        assert ticket.id == "job-1"
        assert client._failures == 0
        assert client._open_until == 0.0

    def test_disabled_breaker_never_opens(self):
        client = self.make_client(free_port(), breaker_threshold=0, retries=0)
        for _ in range(4):
            with pytest.raises(ServiceError) as info:
                client.health()
            assert not isinstance(info.value, CircuitOpenError)

    def test_circuit_open_error_classifies_as_500_not_422(self):
        # The wire layer must treat breaker/transport errors as service
        # faults, never as "unprocessable request content".
        assert status_for_error("CircuitOpenError") == 500
        assert status_for_error("ServiceError") == 500
        assert status_for_error("QuotaExceededError") == 500
