"""The service workloads: a real ``repro serve`` subprocess under a closed loop.

Two client threads each ``submit`` a request and ``stream`` its job to the
done marker before taking the next one — callers that wait for replies, so
a slow server receives less load.  There is no status polling: the
generator adds no requests of its own to the server.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.api import ErrorResponse
from repro.errors import ServiceError
from repro.service import ServiceClient
from repro.service.wire import canonical_response_bytes

from harness import Tracer, process_cpu_seconds

CLIENTS = min(2, os.cpu_count() or 1)
_ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")
_BOOT_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 30.0


class Server:
    """One ``python -m repro.cli serve`` process in its own process group."""

    def __init__(self, workdir: Path) -> None:
        self.store = workdir / "store"
        self._log = open(workdir / "server.log", "w+")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--store", str(self.store), "--executor", "process",
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
            start_new_session=True,
        )
        self.usage = None
        try:
            port = self._await_announce()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start
        self.url = f"http://127.0.0.1:{port}"

    def _await_announce(self) -> int:
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            self._log.seek(0)
            match = _ANNOUNCE.search(self._log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self._log.seek(0)
        raise RuntimeError(f"repro serve did not announce a port:\n{self._log.read()}")

    def client(self) -> ServiceClient:
        return ServiceClient(self.url, timeout=120.0)

    def cpu_seconds(self) -> float:
        """CPU the server and its reaped pool workers have used so far."""
        return process_cpu_seconds(self.process.pid)

    def stop(self) -> None:
        """SIGTERM-drain the server; kill its whole group if that stalls.

        Reaps with ``wait4`` so ``usage`` holds the peak RSS and CPU of the
        server together with every pool worker it waited for.
        """
        if self.usage is not None:
            return
        pid = self.process.pid
        try:
            if self.process.poll() is None:
                os.kill(pid, signal.SIGTERM)
                deadline = time.monotonic() + _DRAIN_TIMEOUT_S
                while time.monotonic() < deadline:
                    reaped, status, usage = os.wait4(pid, os.WNOHANG)
                    if reaped == pid:
                        self.process.returncode = os.waitstatus_to_exitcode(status)
                        self.usage = usage
                        return
                    time.sleep(0.01)
        finally:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if self.usage is None and self.process.returncode is None:
                _, status, self.usage = os.wait4(pid, 0)
                self.process.returncode = os.waitstatus_to_exitcode(status)
            self._log.close()


def boot_seconds(workdir: Path) -> float:
    """Spawn -> announce of a throwaway server (for workloads that have none)."""
    boot_dir = workdir / "boot-probe"
    boot_dir.mkdir()
    server = Server(boot_dir)
    server.stop()
    return server.boot_s


class RoundResult:
    """What one closed-loop round produced, indexed by request position."""

    def __init__(self, size: int) -> None:
        self.wall = 0.0
        self.submit_s: list[float | None] = [None] * size
        self.complete_s: list[float | None] = [None] * size
        self.bodies: list[bytes | None] = [None] * size
        self.failures: list[str] = []
        self.refused = 0

    def latencies(self) -> list[float]:
        return [
            submit + complete
            for submit, complete in zip(self.submit_s, self.complete_s)
            if submit is not None and complete is not None
        ]


def run_round(server: Server, requests: list, tracer: Tracer | None = None) -> RoundResult:
    """Push ``requests`` through the server from ``CLIENTS`` closed-loop threads."""
    result = RoundResult(len(requests))
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def one(client: ServiceClient, index: int) -> None:
        request = requests[index]
        started = time.perf_counter()
        try:
            ticket = client.submit(request)
        except ServiceError as exc:
            with lock:
                result.refused += 1
                result.failures.append(f"request {index} refused: {exc}")
            return
        accepted = time.perf_counter()
        events = list(client.stream(ticket.id))
        done = time.perf_counter()
        if tracer is not None:
            # Recorded after the fact from the loop's own clock readings, so
            # tracing adds nothing inside the timed calls.
            request_id = f"r{index}"
            root = tracer.record("request", started, done, request_id)
            tracer.record("service.submit", started, accepted, request_id, root)
            tracer.record("service.complete", accepted, done, request_id, root)
        response = events[0].response
        result.submit_s[index] = accepted - started
        result.complete_s[index] = done - accepted
        if len(events) != 1 or isinstance(response, ErrorResponse):
            with lock:
                result.failures.append(f"request {index} failed: {response}")
            return
        result.bodies[index] = canonical_response_bytes(response)

    def loop() -> None:
        client = server.client()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                one(client, index)
            except Exception as exc:  # noqa: BLE001 — a failed operation, counted
                with lock:
                    result.failures.append(f"request {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - start
    return result


def health_delta(before: dict, after: dict) -> dict[str, float]:
    """The exact counters the server moved between two ``/v1/health`` reads."""
    store = {key: after["store"][key] - before["store"][key] for key in ("executed", "hits")}
    journal = {
        key: after["journal"][key] - before["journal"][key]
        for key in ("accepted", "compactions")
    }
    served = store["executed"] + store["hits"]
    return {
        "service.store.executed": store["executed"],
        "service.store.hits": store["hits"],
        "service.store.hit_ratio": store["hits"] / served if served else 0.0,
        "service.journal.accepted": journal["accepted"],
        "service.journal.compactions": journal["compactions"],
    }
