"""The warm worker pool behind ``executor="process"``.

A :class:`WorkerPool` is ``size`` long-lived worker processes, each on its
own pipe, each running :func:`repro.api.engine._guarded_run` in a loop.  A
caller checks an idle worker out, sends it ``(request, timeout)`` and waits
on the pipe for ``timeout``.  A worker that dies (EOF on its pipe) or
overruns the budget is killed and *replaced* — crash isolation by
replacement, not by building a pool per call — so one request can only ever
take down the worker it ran on, and the pool is back at ``size`` before the
caller is answered.

``run_batch(executor="process")`` opens one for the duration of the call;
the job service (:class:`repro.service.jobs.JobRunner`) holds one for its
lifetime, created after imports and JIT warm-up so every worker is forked
warm.

Workers come from the platform's default start method, as the
``concurrent.futures`` process pool this replaces did: ``fork`` on Linux,
which makes a worker warm for free and a per-call pool cost milliseconds.  A
forked child inherits whatever lock another thread of the parent held at
that instant, so forks are kept few and narrow: they are serialized under
one lock, the service forks its workers before its dispatch threads exist
and again only to replace a dead one, and a worker's first act is to drop
what it inherited.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection, wait
from typing import NamedTuple

from repro.api.engine import _guarded_run, _timeout_message
from repro.api.specs import (
    ErrorResponse,
    MapRequest,
    MapResponse,
    SimRequest,
    SimResponse,
)
from repro.errors import ApiError

#: How long :meth:`WorkerPool.close` lets a worker notice EOF and exit
#: before killing it (an idle worker leaves within milliseconds).
_EXIT_GRACE_S = 1.0

#: One lock for every pool in the process: forks are serialized against
#: pipe creation, so ``_parent_ends`` names exactly the pipe ends a child
#: forked now would inherit, and it guards each pool's worker list and
#: counters.
_lock = threading.Lock()

#: The parent-side pipe end of every live worker of every pool.
_parent_ends: set[Connection] = set()

#: Attempt outcomes that are not a response.
_DIED = object()
_TIMED_OUT = object()


class _Worker(NamedTuple):
    process: multiprocessing.Process
    conn: Connection


def _serve(conn: Connection, inherited: list[Connection]) -> None:
    """A worker's whole life: answer requests until the pipe reaches EOF."""
    # A forked worker holds a copy of every sibling's parent-side pipe end
    # (and of its own).  Close them, or a parent that is SIGKILLed leaves
    # the ends open in its orphans and no worker ever sees EOF.
    for end in inherited:
        end.close()
    # A terminal's Ctrl-C reaches the whole process group; the parent
    # drains, so its workers must finish what they hold.  SIGTERM goes back
    # to the default: a handler inherited from an asyncio parent would
    # write into the parent's wake-up socket instead of stopping the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            request, timeout = conn.recv()
            conn.send(_guarded_run(request, timeout))
        except (EOFError, OSError):
            return  # the parent closed the pipe, or is gone


class WorkerPool:
    """``size`` pre-started worker processes, replaced when they die."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ApiError(f"workers must be >= 1, got {size}")
        self._size = size
        self._workers: list[_Worker] = []
        self._idle: queue.SimpleQueue[_Worker] = queue.SimpleQueue()
        self._served = 0
        self._respawned_after_crash = 0
        self._killed_on_timeout = 0
        # Workers are not daemonic (a request may start processes of its
        # own: the sharded engine does), so interpreter exit would wait on
        # them; an unclosed pool is closed there instead.
        atexit.register(self.close)
        with _lock:
            for _ in range(size):
                self._idle.put(self._spawn())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> _Worker:
        """Start one worker.  The caller holds ``_lock``."""
        parent_end, child_end = multiprocessing.Pipe()
        inherited: list[Connection] = []
        if multiprocessing.get_start_method() == "fork":
            inherited = [*_parent_ends, parent_end]
        process = multiprocessing.Process(
            target=_serve, args=(child_end, inherited), name="repro-pool-worker"
        )
        process.start()
        # The parent's copy of the child's end must go, or the pipe never
        # reads EOF when the worker dies.
        child_end.close()
        _parent_ends.add(parent_end)
        worker = _Worker(process, parent_end)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Close a dead worker's pipe end.  The caller holds ``_lock``."""
        worker.conn.close()
        _parent_ends.discard(worker.conn)
        self._workers.remove(worker)

    def _replace(self, worker: _Worker, timed_out: bool) -> _Worker:
        worker.process.kill()
        worker.process.join()
        with _lock:
            self._retire(worker)
            if timed_out:
                self._killed_on_timeout += 1
            else:
                self._respawned_after_crash += 1
            return self._spawn()

    @staticmethod
    def _attempt(worker: _Worker, request, timeout: float | None):
        """One request on one worker: its response, ``_DIED`` or ``_TIMED_OUT``."""
        try:
            worker.conn.send((request, timeout))
            ready = wait([worker.conn, worker.process.sentinel], timeout)
            if worker.conn in ready:
                return worker.conn.recv()
            return _DIED if ready else _TIMED_OUT
        except (EOFError, OSError):
            return _DIED

    def run(
        self,
        request: MapRequest | SimRequest,
        timeout: float | None = None,
        retries: int = 1,
    ) -> MapResponse | SimResponse | ErrorResponse:
        """Run one request on an idle worker (blocks until one is free).

        Never raises for the request's own failure.  A worker that dies
        under the request is replaced and the request retried up to
        ``retries`` times; a worker still running after ``timeout`` seconds
        is killed and replaced, and the slot reports the timeout.  A worker
        found dead at checkout (killed from outside while idle) is replaced
        first and costs the request none of its attempts.
        """
        for _ in range(1 + retries):
            worker = self._idle.get()
            if not worker.process.is_alive():
                worker = self._replace(worker, timed_out=False)
            outcome = _DIED
            try:
                outcome = self._attempt(worker, request, timeout)
            finally:
                if outcome is _DIED or outcome is _TIMED_OUT:
                    worker = self._replace(worker, outcome is _TIMED_OUT)
                self._idle.put(worker)
            if outcome is _TIMED_OUT:
                return ErrorResponse(
                    request=request,
                    error="BatchError",
                    message=_timeout_message(timeout),
                )
            if outcome is not _DIED:
                with _lock:
                    self._served += 1
                return outcome
        return ErrorResponse(
            request=request,
            error="BatchError",
            message=(
                f"worker process died while running this request "
                f"({1 + retries} attempt(s))"
            ),
        )

    def map(
        self,
        requests: list[MapRequest | SimRequest],
        timeout: float | None = None,
        retries: int = 1,
    ) -> list[MapResponse | SimResponse | ErrorResponse]:
        """:meth:`run` every request, concurrently; responses keep order."""
        if len(requests) <= 1:
            return [self.run(request, timeout, retries) for request in requests]
        with ThreadPoolExecutor(min(len(requests), self._size)) as threads:
            return list(
                threads.map(lambda request: self.run(request, timeout, retries), requests)
            )

    def stats(self) -> dict:
        """The ``pool`` block of ``/v1/health``."""
        with _lock:
            return {
                "size": len(self._workers),
                "busy": len(self._workers) - self._idle.qsize(),
                "pids": [worker.process.pid for worker in self._workers],
                "served": self._served,
                "respawned_after_crash": self._respawned_after_crash,
                "killed_on_timeout": self._killed_on_timeout,
            }

    def close(self) -> None:
        """Stop and join every worker (idempotent).

        Closing a pipe is the stop signal: an idle worker reads EOF and
        exits.  One still busy after the grace — the caller was interrupted
        mid-request — is killed.  Every worker is waited for, so its
        resource usage lands in this process's children totals.
        """
        atexit.unregister(self.close)
        with _lock:
            workers = list(self._workers)
            for worker in workers:
                self._retire(worker)
        for worker in workers:
            worker.process.join(_EXIT_GRACE_S)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
