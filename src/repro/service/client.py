"""The blocking Python client for the job service (stdlib only).

:class:`ServiceClient` speaks the wire protocol of
:mod:`repro.service.server` over ``http.client``: submit typed requests,
read job status, fetch raw canonical result bytes (the byte-identity
surface), stream per-slot NDJSON events (``wait`` collects that stream),
or use the one-call ``map`` / ``simulate`` conveniences.  Responses come back as the same typed
``repro.api`` payloads a local ``run()`` would produce — including
:class:`~repro.api.ErrorResponse` for failed slots, which the convenience
helpers re-raise as :class:`~repro.errors.ServiceError` with the typed
payload attached.

The transport is production-grade:

* **Connection reuse** — a reply read to its end hands its connection
  back to a lock-guarded idle list, so one client's calls ride one socket
  (one per concurrently calling thread) instead of dialling per call; no
  ``Connection: close`` is ever sent, ``reply.will_close`` is honoured,
  and a stream abandoned part-way closes its connection.  A *kept*
  connection that fails before any response byte (the server restarted,
  or closed it at its idle limit) is re-dialled **once, silently**: that
  is not a transport failure, so it neither advances the breaker nor
  consumes a retry.  A failure on a *fresh* connection counts as below.
* **Timeouts** — a separate connect timeout (fail fast on a dead host)
  and read timeout (budget for a slow reply) per attempt.
* **Idempotent retries** — with ``retries > 0``, transport failures
  (connection refused/reset, dropped mid-reply) and overload rejections
  (429/503) are retried with exponential backoff plus jitter, honoring
  the server's ``Retry-After`` hint when one is sent.  Retrying a
  submission is safe *by construction*: jobs are keyed on the canonical
  request, so a duplicate submission dedups into the same store entry —
  exactly-one execution no matter how many retries it took.
* **Circuit breaker** — after ``breaker_threshold`` consecutive transport
  failures, calls fail fast with a typed
  :class:`~repro.errors.CircuitOpenError` for ``breaker_cooldown``
  seconds instead of each eating a connect timeout; the first call after
  the cooldown probes the server (half-open) and closes the breaker on
  success.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.api.specs import (
    ErrorResponse,
    MapRequest,
    MapResponse,
    SimRequest,
    SimResponse,
)
from repro.errors import CircuitOpenError, ServiceError
from repro.service.wire import RESPONSE_KINDS, parse_response

#: HTTP statuses that are safe and useful to retry: back-pressure
#: rejections that come with (or imply) a Retry-After.
RETRY_STATUSES = (429, 503)

Request = MapRequest | SimRequest
Response = MapResponse | SimResponse | ErrorResponse


@dataclass(frozen=True)
class JobTicket:
    """A submission receipt: the handle everything else takes."""

    id: str
    batch: bool
    slots: int
    keys: tuple[str, ...]


@dataclass(frozen=True)
class StreamEvent:
    """One completed slot from the ``/events`` NDJSON stream.

    ``cached`` is the server's provenance flag: True when the slot was
    served from the result store or another job's in-flight computation
    rather than executed for this job.
    """

    index: int
    key: str
    cached: bool
    response: Response


class ServiceClient:
    """Blocking client for one service endpoint (``http://host:port``).

    Args:
        base_url: ``http://host:port`` (a bare ``host:port`` is accepted).
        timeout: per-attempt read budget in seconds.
        connect_timeout: per-attempt connect budget; defaults to
            ``timeout``.
        retries: extra attempts after the first for transport failures and
            429/503 rejections.  0 (the default) keeps every failure
            immediate and loud; ``repro submit`` turns retries on.
        backoff/backoff_max: exponential backoff base and cap in seconds;
            each delay is jittered to half..full of its nominal value and
            raised to the server's ``Retry-After`` when one was sent.
        breaker_threshold: consecutive transport failures that open the
            circuit breaker; 0 disables the breaker.
        breaker_cooldown: seconds the breaker stays open; while open,
            calls raise :class:`~repro.errors.CircuitOpenError` without
            touching the network.
        client_id: sent as ``X-Repro-Client`` — the identity the server's
            per-client quotas account against.
        priority: sent as ``X-Repro-Priority`` (``low``/``normal``/
            ``high``) — where this client's work sits in the server's
            shedding ladder.
        rng: randomness source for jitter (tests inject a seeded one).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        *,
        connect_timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.25,
        backoff_max: float = 8.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 15.0,
        client_id: str | None = None,
        priority: str | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ServiceError(
                f"only http:// service URLs are supported, got {base_url!r}"
            )
        if parsed.hostname is None:
            raise ServiceError(f"service URL {base_url!r} has no host")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        self._connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self._retries = max(0, retries)
        self._backoff = backoff
        self._backoff_max = backoff_max
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._client_id = client_id
        self._priority = priority
        self._rng = rng or random.Random()
        # Connections whose last reply was read to its end, ready for the
        # next request of whichever thread asks first.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._breaker_lock = threading.Lock()
        self._failures = 0
        self._open_until = 0.0

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self._port}"

    def close(self) -> None:
        """Close the kept connections (the client stays usable: it re-dials)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # -- circuit breaker ------------------------------------------------
    def _breaker_preflight(self) -> None:
        """Fail fast while the breaker is open; allow one half-open probe."""
        with self._breaker_lock:
            remaining = self._open_until - time.monotonic()
            if remaining > 0:
                raise CircuitOpenError(
                    f"circuit breaker open for service at {self.base_url}: "
                    f"{self._failures} consecutive transport failures; "
                    f"retry in {remaining:.1f} s",
                    retry_after=remaining,
                )
            # Past the cooldown: this call is the half-open probe.
            self._open_until = 0.0

    def _breaker_failure(self) -> None:
        with self._breaker_lock:
            self._failures += 1
            if (
                self._breaker_threshold > 0
                and self._failures >= self._breaker_threshold
            ):
                self._open_until = time.monotonic() + self._breaker_cooldown

    def _breaker_success(self) -> None:
        with self._breaker_lock:
            self._failures = 0
            self._open_until = 0.0

    # -- transport ------------------------------------------------------
    def _open(self) -> http.client.HTTPConnection:
        """Connect with the connect budget, then switch to the read budget."""
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._connect_timeout
        )
        connection.connect()
        if connection.sock is not None:
            connection.sock.settimeout(self._timeout)
        return connection

    def _headers(self, body: bytes | None) -> dict[str, str]:
        headers: dict[str, str] = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self._client_id is not None:
            headers["X-Repro-Client"] = self._client_id
        if self._priority is not None:
            headers["X-Repro-Priority"] = self._priority
        return headers

    def _delay(self, attempt: int, retry_after: str | None) -> float:
        """Jittered exponential backoff, raised to the server's hint."""
        nominal = min(self._backoff_max, self._backoff * (2.0 ** attempt))
        delay = nominal * (0.5 + 0.5 * self._rng.random())
        if retry_after is not None:
            try:
                hinted = float(retry_after)
            except ValueError:
                hinted = 0.0
            delay = max(delay, min(hinted, self._backoff_max))
        return delay

    def _exchange(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[
        http.client.HTTPConnection, socket.socket, http.client.HTTPResponse
    ]:
        """Send one request on a kept connection, else a fresh one.

        Returns the connection, its socket and the reply with the headers
        read (``getresponse()`` detaches the socket from a connection the
        server will close, so it is handed out beside it).  A kept
        connection the server has closed since (a restart, its idle limit)
        fails before any response byte; that says nothing about the server
        as it is now, so it is re-dialled once, silently.  What this raises
        was raised by a *fresh* connection, and callers count only that.
        """
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        while True:
            if connection is None:
                connection = self._open()
            try:
                connection.request(
                    method, path, body=body, headers=self._headers(body)
                )
                return connection, connection.sock, connection.getresponse()
            except BaseException as exc:
                connection.close()
                if not (reused and isinstance(exc, ConnectionError)):
                    raise
            connection, reused = None, False

    def _keep(
        self,
        connection: http.client.HTTPConnection,
        reply: http.client.HTTPResponse,
    ) -> None:
        """Take back a connection whose reply was read to its end."""
        if reply.will_close:
            connection.close()
            return
        # Whatever is idle carries the client's read budget again (a
        # stream's budget() moves it line by line).
        connection.sock.settimeout(self._timeout)
        with self._idle_lock:
            self._idle.append(connection)

    def _request_full(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, str | None, bytes]:
        """One logical request: retries, backoff, breaker accounting.

        Returns ``(status, retry_after_header, body_bytes)``.  Safe to
        retry for every endpoint: reads are idempotent and submissions
        dedup on the canonical request key server-side.
        """
        attempt = 0
        while True:
            self._breaker_preflight()
            try:
                connection, _, reply = self._exchange(method, path, body)
                try:
                    data = reply.read()
                except BaseException:
                    reply.close()
                    connection.close()
                    raise
            except (OSError, http.client.HTTPException) as exc:
                self._breaker_failure()
                if attempt >= self._retries:
                    raise ServiceError(
                        f"cannot reach service at {self.base_url}: {exc}"
                    ) from exc
                time.sleep(self._delay(attempt, None))
                attempt += 1
                continue
            self._keep(connection, reply)
            self._breaker_success()
            retry_after = reply.getheader("Retry-After")
            if reply.status in RETRY_STATUSES and attempt < self._retries:
                time.sleep(self._delay(attempt, retry_after))
                attempt += 1
                continue
            return reply.status, retry_after, data

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        status, _, data = self._request_full(method, path, body)
        return status, data

    def _request_json(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict, str | None]:
        body = (
            None
            if payload is None
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        status, retry_after, data = self._request_full(method, path, body)
        try:
            parsed = json.loads(data)
        except ValueError as exc:
            raise ServiceError(
                f"service returned a non-JSON body for {method} {path} "
                f"(HTTP {status})"
            ) from exc
        if not isinstance(parsed, dict):
            raise ServiceError(
                f"service returned a non-object body for {method} {path}"
            )
        return status, parsed, retry_after

    @staticmethod
    def _raise_for(
        status: int,
        payload: dict,
        context: str,
        retry_after: str | None = None,
    ) -> None:
        hint: float | None = None
        if retry_after is not None:
            try:
                hint = float(retry_after)
            except ValueError:
                hint = None
        raise ServiceError(
            f"{context}: HTTP {status} "
            f"{payload.get('error', 'error')}: {payload.get('message', '')}",
            retry_after=hint,
        )

    # -- introspection --------------------------------------------------
    def health(self) -> dict:
        status, payload, retry_after = self._request_json("GET", "/v1/health")
        if status != 200:
            self._raise_for(status, payload, "health check failed", retry_after)
        return payload

    def mappers(self) -> list[dict]:
        status, payload, retry_after = self._request_json("GET", "/v1/mappers")
        if status != 200:
            self._raise_for(status, payload, "mapper listing failed", retry_after)
        return payload["mappers"]

    # -- job lifecycle --------------------------------------------------
    def submit(self, requests: Request | list[Request]) -> JobTicket:
        """Submit one request (single job) or a list (batch job).

        Raises:
            ServiceError: transport failure, malformed payload (400),
                overload (429) or draining (503) rejections — the message
                carries the server's error class and text, and
                ``retry_after`` the server's back-off hint when one was
                sent.  With ``retries`` set, 429/503 and transport
                failures are retried (idempotent: submissions dedup on
                the canonical request key) before this is raised.
            CircuitOpenError: the breaker is open; nothing was sent.
        """
        if isinstance(requests, (MapRequest, SimRequest)):
            payload: dict = requests.to_dict()
        else:
            if not requests:
                raise ServiceError("cannot submit an empty batch")
            payload = {"requests": [request.to_dict() for request in requests]}
        status, reply, retry_after = self._request_json(
            "POST", "/v1/jobs", payload
        )
        if status != 202:
            self._raise_for(status, reply, "submission rejected", retry_after)
        return JobTicket(
            id=reply["id"],
            batch=bool(reply["batch"]),
            slots=int(reply["slots"]),
            keys=tuple(reply["keys"]),
        )

    def status(self, job_id: str) -> dict:
        """The raw job envelope (any completion state)."""
        status, payload, retry_after = self._request_json(
            "GET", f"/v1/jobs/{job_id}"
        )
        if "id" not in payload:
            self._raise_for(
                status, payload, f"job {job_id} lookup failed", retry_after
            )
        return payload

    def result_raw(self, job_id: str) -> bytes:
        """The canonical result bytes of a completed job.

        Single jobs return the stored entry verbatim (even for typed
        failures — the body *is* the ``error-response`` payload); batch
        jobs return the NDJSON concatenation of every slot.
        """
        status, data = self._request("GET", f"/v1/jobs/{job_id}/result")
        try:
            probe = json.loads(data.split(b"\n", 1)[0])
        except ValueError:
            probe = None
        if isinstance(probe, dict) and probe.get("kind") in RESPONSE_KINDS:
            return data
        payload = probe if isinstance(probe, dict) else {}
        self._raise_for(status, payload, f"job {job_id} result unavailable")
        raise AssertionError("unreachable")

    def wait(
        self, job_id: str, timeout: float | None = None
    ) -> Response | list[Response]:
        """Block until the job completes; return typed response(s).

        Single jobs return one typed payload (``ErrorResponse`` included —
        it is a result, not an exception); batch jobs return the ordered
        list of slot payloads.  This collects the ``/events`` stream: one
        request on the kept connection, answered as the slots complete.
        Without a ``timeout`` it blocks for as long as the job takes.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def budget() -> float | None:
            if deadline is None:
                return None
            return max(deadline - time.monotonic(), 1e-3)

        try:
            *events, marker = self._stream(job_id, budget)
        except TimeoutError:
            envelope = self.status(job_id)
            raise ServiceError(
                f"job {job_id} did not complete within {timeout} s "
                f"(status {envelope['status']}, "
                f"{envelope['done']}/{envelope['total']} slots)"
            ) from None
        responses = [parse_response(event["payload"]) for event in events]
        return responses if marker["batch"] else responses[0]

    def stream(self, job_id: str) -> Iterator[StreamEvent]:
        """Yield per-slot results as the server completes them (NDJSON).

        Streaming is not retried — a consumer observing a half-delivered
        stream must decide for itself whether to re-stream — but the
        breaker still counts connection failures, and an open breaker
        fails fast here too.  A stream read to its end hands its
        connection back for the next call; one abandoned part-way closes
        it.
        """
        # closing(): abandoning this generator abandons the one under it
        # now, not whenever it is collected.
        with closing(self._stream(job_id, lambda: self._timeout)) as lines:
            for event in lines:
                if not event.get("done"):
                    yield StreamEvent(
                        index=int(event["index"]),
                        key=event["key"],
                        cached=bool(event["cached"]),
                        response=parse_response(event["payload"]),
                    )

    def _stream(
        self, job_id: str, budget: Callable[[], float | None]
    ) -> Iterator[dict]:
        """The parsed lines of ``/events``; the done marker is the last.

        ``budget()`` is the socket timeout of the next line's read; a line
        that overruns it raises ``TimeoutError``.
        """
        self._breaker_preflight()
        try:
            connection, sock, reply = self._exchange(
                "GET", f"/v1/jobs/{job_id}/events"
            )
        except (OSError, http.client.HTTPException) as exc:
            self._breaker_failure()
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from exc
        self._breaker_success()
        dropped = (
            f"job {job_id} event stream ended without a done marker "
            f"(server dropped mid-stream?)"
        )
        marker = None
        try:
            if reply.status != 200:
                try:
                    payload = json.loads(reply.read())
                except ValueError:
                    payload = {}
                self._raise_for(
                    reply.status, payload, f"job {job_id} event stream refused"
                )
            while marker is None:
                sock.settimeout(budget())
                try:
                    line = reply.readline()
                except TimeoutError:
                    raise
                except (OSError, http.client.HTTPException) as exc:
                    raise ServiceError(dropped) from exc
                if not line:
                    raise ServiceError(dropped)
                if not line.strip():
                    continue
                event = json.loads(line)
                if event.get("done"):
                    # The terminal chunk: the socket is at a request
                    # boundary only once it has been read.
                    reply.read()
                    marker = event
                else:
                    yield event
        finally:
            # Anything short of the marker -- an error, or a consumer that
            # abandoned the generator -- leaves reply bytes on the socket.
            if marker is None:
                reply.close()
                connection.close()
            else:
                self._keep(connection, reply)
        yield marker

    # -- conveniences ---------------------------------------------------
    def _run_single(
        self, request: Request, timeout: float | None
    ) -> Response:
        ticket = self.submit(request)
        response = self.wait(ticket.id, timeout=timeout)
        assert not isinstance(response, list)
        if isinstance(response, ErrorResponse):
            raise ServiceError(
                f"request failed on the service: {response.describe()}",
                response=response,
            )
        return response

    def map(self, request: MapRequest, timeout: float | None = None) -> MapResponse:
        """Submit one map request and block for its typed response."""
        response = self._run_single(request, timeout)
        assert isinstance(response, MapResponse)
        return response

    def simulate(
        self, request: SimRequest, timeout: float | None = None
    ) -> SimResponse:
        """Submit one sim request and block for its typed response."""
        response = self._run_single(request, timeout)
        assert isinstance(response, SimResponse)
        return response
