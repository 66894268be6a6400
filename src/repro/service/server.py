"""The asyncio HTTP job service (stdlib only — no framework dependency).

One event-loop thread does all socket I/O over a hand-rolled HTTP/1.1
layer (request line + headers + Content-Length body in; Content-Length or
chunked responses out), request after request on a kept connection until
the peer sends ``Connection: close``, speaks HTTP/1.0, hangs up or idles
past the 30 s read timeout; everything that computes runs on the
:class:`~repro.service.jobs.JobRunner` worker threads, which in turn fan
out over the runner's warm worker pool (``executor="process"``) or through
``run_batch``.  The loop therefore stays responsive — health
checks and status polls answer while a saturation sweep grinds.

Endpoints (all JSON):

* ``POST /v1/jobs`` — submit one request payload (``map-request`` /
  ``sim-request``) or a batch (``{"requests": [...]}``); answers 202 with
  the job id and per-slot content keys, 400 for malformed payloads, 429
  when the admission queue is full, 503 while draining.
* ``GET /v1/jobs/{id}`` — the job envelope (slot states, keys, cache
  provenance), plus embedded result payloads once done.  A failed
  single-request job answers with the status class of its typed error.
* ``GET /v1/jobs/{id}/result`` — the raw canonical result bytes: exactly
  the stored entry for a single job, NDJSON concatenation for a batch.
  This is the byte-identity surface the dedup contract is verified on.
* ``GET /v1/jobs/{id}/events`` — chunked NDJSON stream of per-slot results
  as they complete (sweep points arrive incrementally), closed by one
  ``{"done": true, "status": "done", ...}`` line.  The handler is woken by
  the job (:meth:`~repro.service.jobs.Job.watch`), not by a timer, and
  each line is spliced around the stored entry's bytes, not re-encoded.
* ``GET /v1/health`` — liveness, queue depth, job counts, store, journal,
  worker-pool and connection counters.
* ``GET /v1/mappers`` — the mapper registry over the wire.

Shutdown is a *drain*, not a drop: SIGTERM/SIGINT (or
:meth:`NocService.request_shutdown`) stops admissions (503), finishes
every accepted job, keeps answering status/result/stream requests through
a short grace window (no reply is kept alive once the drain began), closes
the connections left idle, then exits.  No accepted job's results are lost.

Hard crashes are covered too: with a store root (or explicit
``journal_path``), every admitted job is journaled before its 202 and
replayed on the next start, so ``kill -9`` mid-batch loses nothing
either — see :mod:`repro.service.journal`.  Overload is refused, never
queued without bound (429 for a full queue, 503 while draining, both with
``Retry-After``) and the store is bounded (``store_max_bytes`` LRU cap,
``result_ttl`` expiry) — see :mod:`repro.service.jobs` and
:mod:`repro.service.store`.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from repro.api.registry import mapper_entries
from repro.api.specs import SCHEMA_VERSION
from repro.errors import ApiError, ServiceError
from repro.service.jobs import (
    JOB_DONE,
    SLOT_DONE,
    DrainingError,
    JobRegistry,
    JobRunner,
    OverloadedError,
)
from repro.service.journal import JobJournal
from repro.service.store import ResultStore
from repro.service.wire import parse_request, status_for_error

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


#: Request body cap in bytes (413 beyond it).
MAX_BODY = 8 * 1024 * 1024

#: Seconds the drain keeps serving reads after the last job completes, so
#: pollers and open streams collect their final results.
DRAIN_GRACE = 0.5


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a ``repro serve`` deployment can tune, one field per flag.

    Attributes:
        host/port: bind address; port 0 picks an ephemeral port (the bound
            port is announced and exposed as ``NocService.port``).
        store_root: directory for the persistent result store; None keeps
            results in memory only (identical semantics, no reuse across
            restarts).
        queue_limit: admission bound — jobs queued beyond the running ones
            before submissions get 429.
        workers: dispatch worker threads (concurrent jobs).
        executor: ``run_batch`` executor for job slots — ``"process"``
            (default; true multi-core and crash isolation), ``"thread"``
            or ``"serial"``.
        timeout: per-request wall-clock budget passed through to
            ``run_batch``; None disables.
        store_max_bytes: LRU size cap on the result store's entry bytes;
            None = unbounded disk.
        result_ttl: idle time-to-live for store entries in seconds; None =
            entries never expire.
        journal_path: write-ahead job journal location.  None derives
            ``<store_root>/journal.ndjson`` when a store root is set (the
            durable default); an empty string disables journaling even
            with a store root.  A journal is always replayed on startup,
            so a ``kill -9`` mid-batch loses nothing.
    """

    host: str = "127.0.0.1"
    port: int = 0
    store_root: str | None = None
    queue_limit: int = 64
    workers: int = 2
    executor: str = "process"
    timeout: float | None = None
    store_max_bytes: int | None = None
    result_ttl: float | None = None
    journal_path: str | None = None


class _HttpError(Exception):
    """An error reply decided before a handler produced a body."""

    def __init__(
        self,
        status: int,
        error: str,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error = error
        self.message = message
        self.headers = headers


class _Connection:
    """One accepted socket and what its handler is doing with it.

    ``keep_alive`` is decided per request and read by every reply to pick
    its ``Connection`` header; ``idle`` is true while the handler waits for
    the next request, which is when the drain may close the socket;
    ``handler`` is the task serving it (the one that constructs this).
    """

    __slots__ = ("writer", "handler", "keep_alive", "idle")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.handler = asyncio.current_task()
        self.keep_alive = False
        self.idle = False


#: Sent only on a reply after which the server does close the connection.
_CLOSE = "Connection: close\r\n"


#: One ``/events`` line around a stored entry, keys in sorted order.
_EVENT_LINE = b'{"cached": %s, "index": %d, "key": "%s", "payload": %s}\n'


def _chunk(data: bytes) -> bytes:
    """``data`` framed as one chunk of a ``Transfer-Encoding: chunked`` body."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def _retry_after_headers(exc) -> dict[str, str] | None:
    """``Retry-After`` header for a refusal carrying a back-off hint."""
    hint = getattr(exc, "retry_after", None)
    if hint is None:
        return None
    return {"Retry-After": str(max(1, int(-(-float(hint) // 1))))}


class NocService:
    """The service: a store, a registry, a runner, and an HTTP front end.

    Two ways to run it:

    * ``serve_forever()`` — block the calling thread (the ``repro serve``
      CLI path; installs SIGTERM/SIGINT drain handlers when possible).
    * ``start()`` / ``shutdown()`` — run the loop on a background thread
      (tests and embedding; ``start`` returns the bound port).
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store = ResultStore(
            self.config.store_root,
            max_bytes=self.config.store_max_bytes,
            ttl=self.config.result_ttl,
        )
        journal_path = self.config.journal_path
        if journal_path is None and self.config.store_root is not None:
            journal_path = str(Path(self.config.store_root) / "journal.ndjson")
        self.journal = JobJournal(journal_path) if journal_path else None
        self.registry = JobRegistry()
        self.runner = JobRunner(
            self.store,
            self.registry,
            queue_limit=self.config.queue_limit,
            workers=self.config.workers,
            executor=self.config.executor,
            timeout=self.config.timeout,
            journal=self.journal,
        )
        self.port: int | None = None
        # Touched on the loop thread only: the connections now open, and the
        # totals /v1/health reports beside them.
        self._open: set[_Connection] = set()
        self._accepted = 0
        self._requests = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    async def _main(
        self, install_signals: bool, announce: Callable[[str], None] | None
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.runner.start()
        if self.journal is not None:
            # Replay the durable promise before the socket opens: every
            # journaled-but-unfinished job re-enters the queue under its
            # original id, then the journal is compacted down to exactly
            # those records.
            records = self.journal.recover()
            self.journal.compact()
            if records:
                restored = self.runner.restore(records)
                if announce is not None:
                    announce(
                        f"repro.service recovered {len(restored)} unfinished "
                        f"job(s) from {self.journal.path}"
                    )
        server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        if announce is not None:
            announce(
                f"repro.service listening on http://{self.config.host}:{self.port} "
                f"(executor={self.config.executor}, workers={self.config.workers}, "
                f"store={'memory' if self.config.store_root is None else self.config.store_root})"
            )
        self._started.set()
        async with server:
            await self._stop.wait()
            # Drain: finish every accepted job on a pool thread (the loop
            # keeps serving status/result/stream reads meanwhile), then
            # hold the door open briefly so clients collect the results.
            await self._loop.run_in_executor(None, self.runner.drain)
            if self.journal is not None:
                # Every accepted job is done: compacting leaves an empty
                # journal, so the next start has nothing to replay.
                self.journal.compact()
                self.journal.close()
            await asyncio.sleep(DRAIN_GRACE)
            # No reply is kept alive once the drain began, so a connection
            # idle now would only sit out its 30 s read timeout (Python >=
            # 3.12's ``wait_closed()`` waits for it): close those, let the
            # replies in flight finish, and leave no handler behind for
            # ``asyncio.run`` to cancel.
            server.close()
            for conn in self._open:
                if conn.idle:
                    conn.writer.close()
            if self._open:
                await asyncio.wait([conn.handler for conn in self._open])

    def serve_forever(
        self,
        install_signals: bool = True,
        announce: Callable[[str], None] | None = None,
    ) -> None:
        """Run until a shutdown is requested, then drain and return."""
        asyncio.run(self._main(install_signals, announce))

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent, callable from any thread/signal)."""
        self.runner.begin_drain()
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def start(self) -> int:
        """Serve on a background thread; returns the bound port."""
        if self._thread is not None:
            raise ServiceError("service already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"install_signals": False},
            name="repro-service-loop",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("service failed to start within 30 s")
        assert self.port is not None
        return self.port

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain and stop a background-thread service."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServiceError("service did not drain within the timeout")
            self._thread = None

    # -- HTTP plumbing --------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: request after request until either side closes."""
        conn = _Connection(writer)
        self._accepted += 1
        self._open.add(conn)
        try:
            while True:
                conn.idle = True
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:
                    # Refused mid-read: the rest of the request is still on
                    # the socket, so this reply is the connection's last.
                    conn.keep_alive = False
                    await self._send_error(conn, exc)
                    return
                finally:
                    conn.idle = False
                if parsed is None:
                    return
                method, path, body, keep_alive = parsed
                self._requests += 1
                conn.keep_alive = keep_alive and not self.runner.draining
                try:
                    await self._dispatch(conn, method, path, body)
                except _HttpError as exc:
                    # Refused by a handler: the body was read, the socket
                    # sits at a request boundary, the connection is kept.
                    await self._send_error(conn, exc)
                if not conn.keep_alive or self.runner.draining:
                    return
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass  # client went away, or idled past the read timeout
        except Exception as exc:  # noqa: BLE001 — one connection, not the loop
            conn.keep_alive = False
            try:
                await self._send_json(
                    conn,
                    500,
                    {"error": type(exc).__name__, "message": str(exc)},
                )
            except (ConnectionError, OSError):
                pass
        finally:
            self._open.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, bool] | None:
        """One request off the socket, or None at EOF.

        The last element is whether the peer allows the connection to be
        kept: HTTP/1.1 and no ``Connection: close``.  The 30 s read timeout
        doubles as the keep-alive idle limit.
        """
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "ApiError", "malformed HTTP request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "ApiError", "bad Content-Length header") from None
        if length > MAX_BODY:
            raise _HttpError(
                413,
                "ApiError",
                f"body of {length} bytes exceeds the {MAX_BODY} limit",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        keep_alive = (
            version.upper() == "HTTP/1.1"
            and "close" not in headers.get("connection", "").lower()
        )
        return method.upper(), path, body, keep_alive

    async def _send_bytes(
        self,
        conn: _Connection,
        status: int,
        data: bytes,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extras}"
            f"{'' if conn.keep_alive else _CLOSE}\r\n"
        ).encode("latin-1")
        conn.writer.write(head + data)
        await conn.writer.drain()

    async def _send_json(
        self,
        conn: _Connection,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._send_bytes(conn, status, data, extra_headers=extra_headers)

    async def _send_error(self, conn: _Connection, exc: _HttpError) -> None:
        await self._send_json(
            conn,
            exc.status,
            {"error": exc.error, "message": exc.message},
            extra_headers=exc.headers,
        )

    # -- routing --------------------------------------------------------
    async def _dispatch(
        self, conn: _Connection, method: str, path: str, body: bytes
    ) -> None:
        if path == "/v1/health" and method == "GET":
            await self._handle_health(conn)
            return
        if path == "/v1/mappers" and method == "GET":
            await self._handle_mappers(conn)
            return
        if path == "/v1/jobs" and method == "POST":
            await self._handle_submit(conn, body)
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.registry.get(job_id)
            if job is None:
                raise _HttpError(404, "ApiError", f"no such job {job_id!r}")
            if not tail:
                await self._handle_job(conn, job)
                return
            if tail == "result":
                await self._handle_result(conn, job)
                return
            if tail == "events":
                await self._handle_events(conn, job)
                return
        raise _HttpError(404, "ApiError", f"no route for {method} {path}")

    # -- handlers -------------------------------------------------------
    async def _handle_health(self, conn: _Connection) -> None:
        await self._send_json(
            conn,
            200,
            {
                "status": "draining" if self.runner.draining else "ok",
                "schema": SCHEMA_VERSION,
                "queue_depth": self.runner.queue_depth(),
                "jobs": self.registry.counts(),
                "store": self.store.stats(),
                "journal": (
                    None if self.journal is None else self.journal.stats()
                ),
                "pool": self.runner.pool_stats(),
                "connections": {
                    "accepted": self._accepted,
                    "open": len(self._open),
                    "requests": self._requests,
                },
            },
        )

    async def _handle_mappers(self, conn: _Connection) -> None:
        await self._send_json(
            conn,
            200,
            {
                "mappers": [
                    {
                        "name": entry.name,
                        "summary": entry.summary,
                        "seedable": entry.seedable,
                        "options": [
                            field.name for field in fields(entry.options_type)
                        ],
                    }
                    for entry in mapper_entries()
                ]
            },
        )

    async def _handle_submit(self, conn: _Connection, body: bytes) -> None:
        try:
            payload = json.loads(body)
        except ValueError:
            raise _HttpError(400, "ApiError", "body is not valid JSON") from None
        try:
            if isinstance(payload, dict) and "requests" in payload:
                raw = payload["requests"]
                if not isinstance(raw, list) or not raw:
                    raise ApiError("'requests' must be a non-empty list")
                requests = [parse_request(item) for item in raw]
                batch = True
            else:
                requests = [parse_request(payload)]
                batch = False
        except ApiError as exc:
            raise _HttpError(400, "ApiError", str(exc)) from None
        try:
            job = self.runner.submit(requests, batch)
        except OverloadedError as exc:
            raise _HttpError(
                429,
                "OverloadedError",
                str(exc),
                headers=_retry_after_headers(exc),
            ) from None
        except DrainingError as exc:
            raise _HttpError(
                503,
                "DrainingError",
                str(exc),
                headers=_retry_after_headers(exc),
            ) from None
        except ApiError as exc:
            raise _HttpError(400, "ApiError", str(exc)) from None
        await self._send_json(
            conn,
            202,
            {
                "id": job.id,
                "status": job.status,
                "batch": job.batch,
                "slots": len(job.slots),
                "keys": [slot.key for slot in job.slots],
            },
        )

    async def _handle_job(self, conn: _Connection, job) -> None:
        envelope = job.describe()
        status = 200
        if envelope["status"] == JOB_DONE:
            envelope["results"] = [
                json.loads(slot.data) for slot in job.slots
            ]
            if not job.batch:
                status = status_for_error(job.slots[0].error)
        await self._send_json(conn, status, envelope)

    async def _handle_result(self, conn: _Connection, job) -> None:
        envelope = job.describe()
        if envelope["status"] != JOB_DONE:
            raise _HttpError(
                409,
                "PendingError",
                f"job {job.id} is {envelope['status']}; result not ready",
            )
        if job.batch:
            data = b"".join(slot.data for slot in job.slots)
            await self._send_bytes(
                conn, 200, data, content_type="application/x-ndjson"
            )
            return
        slot = job.slots[0]
        await self._send_bytes(conn, status_for_error(slot.error), slot.data)

    async def _handle_events(self, conn: _Connection, job) -> None:
        writer = conn.writer
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()

        def on_progress() -> None:
            # Runs on the worker thread that completed a slot or the job.
            loop.call_soon_threadsafe(wake.set)

        async def until(ready: Callable[[], bool]) -> None:
            while True:
                # Cleared *before* the read: a completion that lands between
                # the read and the wait sets it again and is not lost.
                wake.clear()
                if ready():
                    return
                await wake.wait()

        job.watch(on_progress)
        try:
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"{'' if conn.keep_alive else _CLOSE}\r\n"
            ).encode("latin-1")
            writer.write(head)
            for index, slot in enumerate(job.slots):
                await until(lambda: job.slot_view(index)[0] == SLOT_DONE)
                _, data, cached = job.slot_view(index)
                # Spliced around the stored canonical entry, in the key
                # order json.dumps(sort_keys=True) gives: the payload is
                # never parsed or re-encoded here.
                line = _EVENT_LINE % (
                    b"true" if cached else b"false",
                    index,
                    slot.key.encode("ascii"),
                    data.rstrip(b"\n"),
                )
                writer.write(_chunk(line))
                await writer.drain()
            # The last slot is recorded before the worker reaches
            # mark_done(); the marker waits for it, so it never reads
            # "running" on a finished stream.
            await until(lambda: job.wait_done(0))
            marker = {
                "done": True,
                "id": job.id,
                "batch": job.batch,
                "status": job.status,
            }
            line = (json.dumps(marker, sort_keys=True) + "\n").encode("utf-8")
            writer.write(_chunk(line) + b"0\r\n\r\n")
            await writer.drain()
        finally:
            # Also reached when the client hung up mid-stream (a write
            # raised) or the handler task was cancelled.
            job.unwatch(on_progress)
