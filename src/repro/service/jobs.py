"""Job lifecycle: admission control, registry, and the dispatch workers.

A *job* is one submission — a single request or a batch — broken into
per-request *slots*.  Admission is one bounded queue with two refusals: a
draining service rejects everything new (503), and a full queue rejects
the submission (429) instead of letting latency grow without bound.  Both
carry a ``retry_after`` hint sized to the backlog, surfaced upstream as
the ``Retry-After`` header.

With a :class:`~repro.service.journal.JobJournal` attached, admission is
also *durable*: the job's requests are journaled (one fsync'd record)
before ``submit`` returns — i.e. before the 202 leaves the server — and
completion appends a tombstone.  :meth:`JobRunner.restore` re-enqueues
journaled jobs after a hard crash under their original ids.

Worker threads pull whole jobs and run them through the content-addressed
store's dedup protocol: every slot key is claimed first (store hits and
keys another job is already computing resolve without executing anything),
then the owned misses fan out — by default (``executor="process"``) over
one :class:`repro.api.pool.WorkerPool` the runner holds from ``start()`` to
``drain()``, otherwise through :func:`repro.api.run_batch` — so the service
inherits all of the batch engine's hardening (typed ``ErrorResponse``
slots, per-request timeouts, crash-retry for dead workers) and its
multi-core scaling without forking anything per job.  Owned misses run in
chunks so a long sweep publishes results incrementally and the ``/events``
stream — woken through :meth:`Job.watch` by each ``record`` and by
``mark_done`` — sees per-point progress rather than one burst.

Slots whose key another job owns are awaited *after* all owned keys are
published — that ordering (plus per-job key dedup) is what makes the
cross-job wait graph acyclic.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import queue
import threading
import uuid
from collections import OrderedDict
from typing import Callable

from repro.api import canonical_request_key, run_batch
from repro.api.pool import WorkerPool
from repro.api.specs import ErrorResponse, MapRequest, SimRequest
from repro.errors import ApiError, ServiceError
from repro.service.journal import JobJournal
from repro.service.store import ResultStore
from repro.service.wire import canonical_response_bytes, parse_request

log = logging.getLogger(__name__)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"

SLOT_PENDING = "pending"
SLOT_DONE = "done"

#: Slots one job may carry; a larger batch is refused (400).
MAX_BATCH = 1024

#: Completed jobs the registry keeps for status and result queries.
JOB_HISTORY = 256

#: The ``run_batch`` executors a runner can fan owned misses out over
#: (``replica``, an alias of ``serial``, is not offered).
EXECUTORS = ("serial", "thread", "process")


class OverloadedError(ServiceError):
    """The admission queue is full (HTTP 429)."""


class DrainingError(ServiceError):
    """The service is shutting down and accepts no new work (503)."""


class JobSlot:
    """One request inside a job, plus its completed wire bytes."""

    __slots__ = ("request", "key", "status", "data", "cached", "kind", "error")

    def __init__(self, request: MapRequest | SimRequest) -> None:
        self.request = request
        self.key = canonical_request_key(request)
        self.status = SLOT_PENDING
        self.data: bytes | None = None
        self.cached = False
        self.kind: str | None = None
        self.error: str | None = None

    def describe(self, index: int) -> dict:
        return {
            "index": index,
            "key": self.key,
            "status": self.status,
            "cached": self.cached,
            "kind": self.kind,
            "error": self.error,
        }


class Job:
    """One submission: ordered slots plus coarse status, lock-guarded."""

    def __init__(
        self,
        job_id: str,
        requests: list[MapRequest | SimRequest],
        batch: bool,
        recovered: bool = False,
    ) -> None:
        self.id = job_id
        self.batch = batch
        self.recovered = recovered
        self.slots = [JobSlot(request) for request in requests]
        self.status = JOB_QUEUED
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._watchers: list[Callable[[], None]] = []

    def watch(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` after every slot completion and after ``mark_done``.

        It runs on the completing worker's thread with no job lock held, so
        it may read the job but must not block: an ``/events`` stream hands
        its wake-up to the event loop with ``call_soon_threadsafe``.
        """
        with self._lock:
            self._watchers.append(callback)

    def unwatch(self, callback: Callable[[], None]) -> None:
        with self._lock:
            self._watchers.remove(callback)

    def _notify(self) -> None:
        with self._lock:
            watchers = tuple(self._watchers)
        for callback in watchers:
            callback()

    def record(self, index: int, data: bytes, cached: bool) -> None:
        """Complete one slot with its canonical wire bytes."""
        payload = json.loads(data)
        slot = self.slots[index]
        with self._lock:
            slot.data = data
            slot.cached = cached
            slot.kind = payload.get("kind")
            slot.error = (
                payload.get("error") if slot.kind == "error-response" else None
            )
            slot.status = SLOT_DONE
        self._notify()

    def mark_running(self) -> None:
        with self._lock:
            self.status = JOB_RUNNING

    def mark_done(self) -> None:
        with self._lock:
            self.status = JOB_DONE
        self._done.set()
        self._notify()

    def wait_done(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def slot_view(self, index: int) -> tuple[str, bytes | None, bool]:
        """A consistent (status, data, cached) snapshot of one slot."""
        slot = self.slots[index]
        with self._lock:
            return slot.status, slot.data, slot.cached

    def describe(self) -> dict:
        """The job envelope served by ``GET /v1/jobs/{id}`` (no payloads)."""
        with self._lock:
            done = sum(1 for slot in self.slots if slot.status == SLOT_DONE)
            return {
                "id": self.id,
                "status": self.status,
                "batch": self.batch,
                "recovered": self.recovered,
                "total": len(self.slots),
                "done": done,
                "slots": [
                    slot.describe(index) for index, slot in enumerate(self.slots)
                ],
            }


class JobRegistry:
    """Thread-safe id -> job map; evicts completed jobs past :data:`JOB_HISTORY`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()

    def create(
        self,
        requests: list[MapRequest | SimRequest],
        batch: bool,
        job_id: str | None = None,
        recovered: bool = False,
    ) -> Job:
        job = Job(job_id or uuid.uuid4().hex[:12], requests, batch, recovered)
        with self._lock:
            self._jobs[job.id] = job
            excess = len(self._jobs) - JOB_HISTORY
            if excess > 0:
                # Oldest completed first, active jobs never; the scan stops
                # at the last job it evicts, not at the end of the history.
                completed = (
                    done_id
                    for done_id, existing in self._jobs.items()
                    if existing.status == JOB_DONE
                )
                for done_id in list(itertools.islice(completed, excess)):
                    del self._jobs[done_id]
        return job

    def discard(self, job_id: str) -> None:
        with self._lock:
            self._jobs.pop(job_id, None)

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict[str, int]:
        with self._lock:
            total = len(self._jobs)
            active = sum(
                1 for job in self._jobs.values() if job.status != JOB_DONE
            )
        return {"total": total, "active": active}


def _chunks(items: list, size: int):
    iterator = iter(items)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


class JobRunner:
    """The bounded queue plus the worker threads that drain it."""

    def __init__(
        self,
        store: ResultStore,
        registry: JobRegistry,
        *,
        queue_limit: int = 64,
        workers: int = 2,
        executor: str = "process",
        timeout: float | None = None,
        journal: JobJournal | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ApiError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ApiError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ApiError(
                f"executor must be one of {', '.join(EXECUTORS)}, got {executor!r}"
            )
        self._store = store
        self._registry = registry
        self._queue: "queue.Queue[Job | None]" = queue.Queue(maxsize=queue_limit)
        self._workers = workers
        self._executor = executor
        self._timeout = timeout
        self._journal = journal
        self._threads: list[threading.Thread] = []
        self._feeders: list[threading.Thread] = []
        self._thread_lock = threading.Lock()
        self._thread_serial = itertools.count()
        self._pool: WorkerPool | None = None
        self._draining = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        # Compile the resolved kernel backend (if any) before accepting
        # work, so the first simulation request never pays compilation
        # latency.  A broken toolchain must not stop the service — the
        # vector engine falls back to its interpreted loops anyway.
        try:
            from repro.simnoc.engines import jit

            jit.warmup()
        except Exception:  # noqa: BLE001 — warm-up is an optimization only
            pass
        if self._executor == "process":
            # Forked here, after the imports and the warm-up, so every
            # worker starts with both; a crashing request kills one of
            # these disposable workers, never the service itself.
            self._pool = WorkerPool(max(self._workers, os.cpu_count() or 1))
        for _ in range(self._workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        thread = threading.Thread(
            target=self._worker_shell,
            name=f"repro-service-worker-{next(self._thread_serial)}",
            daemon=True,
        )
        with self._thread_lock:
            self._threads.append(thread)
        thread.start()

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new submissions; already-accepted work keeps running."""
        self._draining = True

    def drain(self) -> None:
        """Block until every accepted job has completed, then stop workers.

        The drain contract: no accepted job's results are dropped — the
        queue empties, every in-flight job finishes and publishes, and only
        then do the dispatch threads exit and the worker pool's processes
        get closed and joined.
        """
        self.begin_drain()
        # A recovery feeder still enqueueing counts as accepted work.
        for feeder in self._feeders:
            feeder.join()
        self._queue.join()
        with self._thread_lock:
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join()
        with self._thread_lock:
            self._threads.clear()
        if self._pool is not None:
            self._pool.close()

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def pool_stats(self) -> dict | None:
        """The worker pool's counters; None unless the executor is ``process``."""
        return None if self._pool is None else self._pool.stats()

    # -- submission -----------------------------------------------------
    def retry_after_hint(self) -> float:
        """Suggested client back-off in seconds, sized to the backlog."""
        depth = self._queue.qsize()
        return min(30.0, 1.0 + 2.0 * depth / self._workers)

    def submit(self, requests: list[MapRequest | SimRequest], batch: bool) -> Job:
        """Admit one job into the bounded queue, or refuse loudly.

        Raises:
            DrainingError: the service is shutting down (HTTP 503).
            OverloadedError: the queue is full (HTTP 429).  Both carry
                ``retry_after``.
            ApiError: empty submission, or batch larger than
                :data:`MAX_BATCH`.
        """
        if not requests:
            raise ApiError("a job needs at least one request")
        if len(requests) > MAX_BATCH:
            raise ApiError(
                f"batch of {len(requests)} exceeds the service limit of "
                f"{MAX_BATCH} requests per job"
            )
        if self._draining:
            raise DrainingError(
                "service is draining and accepts no new jobs",
                retry_after=self.retry_after_hint(),
            )
        # Refused before the journal: a 429 costs no fsync and no tombstone.
        if self._queue.full():
            raise self._overloaded()
        job = self._registry.create(requests, batch)
        self._journal_accepted(job)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            # A recovery feeder took the last slot after the check above.
            self._registry.discard(job.id)
            self._journal_finished(job)
            raise self._overloaded() from None
        return job

    def _overloaded(self) -> OverloadedError:
        return OverloadedError(
            f"admission queue is full ({self._queue.maxsize} jobs); retry later",
            retry_after=self.retry_after_hint(),
        )

    # -- journal --------------------------------------------------------
    def _journal_accepted(self, job: Job) -> None:
        """Make the acceptance durable, or refuse the job (nothing queued).

        Written *before* the job enters the queue, so "journaled" strictly
        precedes "runnable": a crash at any point after ``submit`` returns
        replays the job.  (A crash between journal and enqueue replays a
        job that never got its 202 — harmless, replay is idempotent.)
        """
        if self._journal is None:
            return
        try:
            self._journal.record_accepted(
                job.id, [slot.request.to_dict() for slot in job.slots], job.batch
            )
        except OSError as exc:
            self._registry.discard(job.id)
            raise ServiceError(
                f"cannot journal the job (durability unavailable): {exc}"
            ) from exc

    def _journal_finished(self, job: Job) -> None:
        """Tombstone a completed (or refused) job; never raises."""
        if self._journal is None:
            return
        try:
            self._journal.record_finished(job.id)
        except OSError:
            log.warning(
                "could not journal completion of job %s; it may replay "
                "(idempotently) after a crash",
                job.id,
            )

    # -- recovery -------------------------------------------------------
    def restore(self, records: list[dict]) -> list[Job]:
        """Re-admit journaled jobs after a crash, under their original ids.

        Every record is registered immediately (clients polling pre-crash
        job ids see them ``queued`` right away); the actual enqueue happens
        on a feeder thread with a *blocking* put, because recovered work
        was already accepted once and must not be refused by a full
        queue — even when there are more recovered jobs than queue slots.
        Records whose requests no longer parse (e.g. a schema change
        across the restart) are tombstoned and skipped with a warning.
        """
        jobs: list[Job] = []
        for record in records:
            try:
                requests = [
                    parse_request(payload) for payload in record["requests"]
                ]
                if not requests:
                    raise ApiError("journaled job has no requests")
            except (ApiError, KeyError, TypeError) as exc:
                log.warning(
                    "dropping unreplayable journaled job %s: %s",
                    record.get("job"),
                    exc,
                )
                if self._journal is not None:
                    self._journal.record_finished(str(record.get("job")))
                continue
            jobs.append(
                self._registry.create(
                    requests,
                    bool(record.get("batch")),
                    job_id=str(record["job"]),
                    recovered=True,
                )
            )
        if jobs:
            feeder = threading.Thread(
                target=self._feed_restored,
                args=(jobs,),
                name="repro-service-restore",
                daemon=True,
            )
            self._feeders.append(feeder)
            feeder.start()
        return jobs

    def _feed_restored(self, jobs: list[Job]) -> None:
        for job in jobs:
            self._queue.put(job)

    # -- execution ------------------------------------------------------
    def _worker_shell(self) -> None:
        """Run the worker loop; if the thread dies, replace it.

        A worker thread can be killed by something harsher than the
        ``Exception`` handling inside (a ``SystemExit`` raised by a mapper,
        a ``MemoryError``, ...).  The shell guarantees two things: the dying
        thread's job has already failed its pending slots and abandoned
        its claims (see :meth:`_worker`), and — unless the service is
        draining — a replacement worker is spawned so queued jobs never
        wait on a thread that no longer exists.
        """
        try:
            self._worker()
        except BaseException:
            if not self._draining:
                self._spawn_worker()
            raise

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                try:
                    self._run_job(job)
                except Exception as exc:  # noqa: BLE001 — a worker must survive
                    self._fail_pending_slots(job, exc)
                except BaseException as exc:
                    # The thread is dying: leave every slot answered and
                    # (via _run_job's finally) every claim abandoned, then
                    # let the shell respawn a replacement.
                    self._fail_pending_slots(job, exc)
                    raise
            finally:
                job.mark_done()
                self._journal_finished(job)
                self._queue.task_done()

    def _fail_pending_slots(self, job: Job, exc: BaseException) -> None:
        """Last-resort slot completion when the runner itself failed."""
        message = f"service job runner failed: {exc}"
        for index, slot in enumerate(job.slots):
            if slot.status == SLOT_PENDING:
                response = ErrorResponse(
                    request=slot.request, error="ServiceError", message=message
                )
                job.record(index, canonical_response_bytes(response), cached=False)

    def _execute(self, requests: list[MapRequest | SimRequest]) -> list:
        """Run owned misses on the configured executor; one response each."""
        if self._pool is not None:
            return self._pool.map(requests, timeout=self._timeout)
        return run_batch(requests, executor=self._executor, timeout=self._timeout)

    def _run_job(self, job: Job) -> None:
        job.mark_running()
        store = self._store
        # Distinct keys only: identical slots within one job share a single
        # claim (and a thread never waits on a key it owns).
        groups: "OrderedDict[str, list[int]]" = OrderedDict()
        for index, slot in enumerate(job.slots):
            groups.setdefault(slot.key, []).append(index)
        owned: list[str] = []
        waiting: list[str] = []
        published: set[str] = set()
        # The try spans from the first claim: no matter how this thread
        # dies — mid-claim-loop, mid-execution, or killed outright — every
        # owned-but-unpublished key is abandoned, so no waiter on another
        # job can hang on a claim whose owner is gone.
        try:
            for key, indices in groups.items():
                state, data = store.claim(key)
                if state == "hit":
                    assert data is not None
                    for index in indices:
                        job.record(index, data, cached=True)
                elif state == "owned":
                    owned.append(key)
                else:
                    waiting.append(key)

            chunk_size = max(1, min(len(owned), os.cpu_count() or 1))
            for chunk in _chunks(owned, chunk_size):
                requests = [job.slots[groups[key][0]].request for key in chunk]
                responses = self._execute(requests)
                for key, response in zip(chunk, responses):
                    data = canonical_response_bytes(response)
                    cacheable = not isinstance(response, ErrorResponse)
                    store.publish(key, data, cache=cacheable)
                    published.add(key)
                    for index in groups[key]:
                        job.record(index, data, cached=False)
        finally:
            # A failure between claim and publish must not strand waiters.
            for key in owned:
                if key not in published:
                    store.abandon(key)

        # Only now — with nothing of ours left unpublished — wait on keys
        # other jobs own.  Their owners follow the same discipline, so the
        # cross-job wait graph cannot cycle.
        for key in waiting:
            data = store.wait(key, timeout=self._timeout)
            cached = True
            if data is None:
                # The owner abandoned (or the wait timed out): compute this
                # slot ourselves rather than failing the job — on the
                # configured executor, so crash isolation still holds.
                response = self._execute([job.slots[groups[key][0]].request])[0]
                data = canonical_response_bytes(response)
                cached = False
            for index in groups[key]:
                job.record(index, data, cached=cached)
