"""The job runner's admission and worker hardening, unit level.

The HTTP suite (test_server.py) covers the wire path; here the
:class:`JobRunner` is driven directly so the refusals can be pinned
deterministically (no workers draining the queue mid-assert) and the
``test-fault`` mapper (tests/fault_injection.py) can kill a dispatch thread
at the worst moment — claims held, slots pending — without a subprocess.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.api import MapRequest, run
from repro.errors import ApiError, ServiceError
from repro.service import (
    DrainingError,
    JobJournal,
    JobRegistry,
    JobRunner,
    NocService,
    OverloadedError,
    ResultStore,
    ServiceConfig,
)
from repro.service import jobs as jobs_module
from repro.service.jobs import JOB_DONE, Job
from repro.service.wire import canonical_response_bytes
from tests.fault_injection import faulty
from tests.service.test_journal import legacy_accepted_line


def request(tag: str | None = None) -> MapRequest:
    return MapRequest(app="vopd", price_bandwidth=False, tag=tag)


def make_runner(**overrides) -> JobRunner:
    overrides.setdefault("queue_limit", 4)
    overrides.setdefault("workers", 1)
    overrides.setdefault("executor", "serial")
    return JobRunner(ResultStore(None), JobRegistry(), **overrides)


def wait_for(predicate, timeout=30.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


class TestJobWatchers:
    """The seam the ``/events`` stream wakes on."""

    def test_watchers_fire_on_record_and_on_mark_done(self):
        job = Job("j", [request(tag="a"), request(tag="b")], batch=True)
        seen: list[tuple[int, str]] = []

        def watcher() -> None:
            # No job lock is held while a watcher runs: reading is safe.
            seen.append((job.describe()["done"], job.status))

        job.watch(watcher)
        data = canonical_response_bytes(run(request(tag="a")))
        job.record(0, data, cached=False)
        job.record(1, data, cached=True)
        job.mark_done()
        assert seen == [(1, "queued"), (2, "queued"), (2, JOB_DONE)]
        job.unwatch(watcher)
        job.mark_done()
        assert len(seen) == 3

    def test_a_watcher_registered_twice_is_two_registrations(self):
        job = Job("j", [request()], batch=False)
        calls: list[int] = []
        first, second = (lambda: calls.append(1)), (lambda: calls.append(2))
        job.watch(first)
        job.watch(second)
        job.unwatch(first)
        job.mark_done()
        assert calls == [2]


class TestRegistryHistory:
    def test_eviction_takes_the_oldest_completed_and_never_an_active_job(
        self, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "JOB_HISTORY", 4)
        registry = JobRegistry()
        jobs = [
            registry.create([request(tag=f"h{index}")], batch=False)
            for index in range(4)
        ]
        # Jobs 1 and 3 complete; 0 and 2 stay active.
        jobs[1].mark_done()
        jobs[3].mark_done()
        jobs.append(registry.create([request(tag="h4")], batch=False))
        survivors = [job.id for job in jobs if registry.get(job.id) is not None]
        assert survivors == [jobs[i].id for i in (0, 2, 3, 4)]  # 1 was oldest done
        jobs.append(registry.create([request(tag="h5")], batch=False))
        survivors = [job.id for job in jobs if registry.get(job.id) is not None]
        assert survivors == [jobs[i].id for i in (0, 2, 4, 5)]  # then 3
        # Nothing completed is left: the history overshoots its limit
        # rather than drop a job somebody is still waiting for.
        jobs.append(registry.create([request(tag="h6")], batch=False))
        assert registry.counts() == {"total": 5, "active": 5}
        # Two completions later, one submission evicts both (oldest first)
        # and the history is back at its limit.
        jobs[4].mark_done()
        jobs[0].mark_done()
        jobs[6].mark_done()
        jobs.append(registry.create([request(tag="h7")], batch=False))
        survivors = [job.id for job in jobs if registry.get(job.id) is not None]
        assert survivors == [jobs[i].id for i in (2, 5, 6, 7)]


class TestAdmission:
    """Workers deliberately not started: the queue holds what we put in."""

    def test_the_queue_admits_exactly_its_limit(self):
        """Regression: priority shedding refused a default submission once
        the queue was 85 % full, so ``queue_limit=20`` admitted 17."""
        runner = make_runner(queue_limit=20)
        for index in range(20):
            runner.submit([request(tag=f"q{index}")], batch=False)
        assert runner.queue_depth() == 20
        with pytest.raises(OverloadedError) as info:
            runner.submit([request(tag="over")], batch=False)
        assert "full" in str(info.value)
        assert info.value.retry_after is not None

    @pytest.mark.parametrize(
        "config", [{"executor": "bogus"}, {"executor": "replica", "timeout": 5.0}]
    )
    def test_a_service_does_not_boot_on_an_executor_it_cannot_run(self, config):
        """Regression: both configs booted, then answered every job with a
        ``ServiceError`` slot and HTTP 500."""
        message = "executor must be one of serial, thread, process"
        with pytest.raises(ApiError, match=message):
            make_runner(**config)
        with pytest.raises(ApiError, match=message):
            NocService(ServiceConfig(**config))

    def test_draining_refuses_with_a_hint(self):
        runner = make_runner()
        runner.begin_drain()
        with pytest.raises(DrainingError) as info:
            runner.submit([request()], batch=False)
        assert info.value.retry_after is not None


class TestDurableAdmission:
    def test_accepted_jobs_are_journaled_before_submit_returns(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        runner = make_runner(journal=journal)
        job = runner.submit([request(tag="durable")], batch=False)
        (record,) = JobJournal(journal.path).recover()
        assert record["job"] == job.id
        assert record["requests"][0]["tag"] == "durable"

    def test_a_refused_submission_is_not_journaled(self, tmp_path):
        """Regression: every 429 fsynced an ``accepted`` record, then a
        tombstone — one admitted job and three refused read ``accepted`` 4,
        ``finished`` 3."""
        journal = JobJournal(tmp_path / "journal.ndjson")
        runner = make_runner(journal=journal, queue_limit=1)
        job = runner.submit([request(tag="in")], batch=False)
        for index in range(3):
            with pytest.raises(OverloadedError):
                runner.submit([request(tag=f"out{index}")], batch=False)
        stats = journal.stats()
        assert (stats["accepted"], stats["finished"]) == (1, 0)
        assert [r["job"] for r in JobJournal(journal.path).recover()] == [job.id]

    def test_a_slot_lost_after_the_check_is_tombstoned(self, tmp_path, monkeypatch):
        """A recovery feeder may fill the last slot between the full check
        and the enqueue: the journaled job is refused and tombstoned."""
        journal = JobJournal(tmp_path / "journal.ndjson")
        runner = make_runner(journal=journal, queue_limit=1)
        runner.submit([request(tag="in")], batch=False)
        monkeypatch.setattr(runner._queue, "full", lambda: False)
        with pytest.raises(OverloadedError):
            runner.submit([request(tag="raced")], batch=False)
        stats = journal.stats()
        assert (stats["accepted"], stats["finished"]) == (2, 1)
        assert runner._registry.counts()["active"] == 1

    def test_completion_tombstones_the_journal(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        runner = make_runner(journal=journal)
        runner.start()
        job = runner.submit([request(tag="done")], batch=False)
        assert job.wait_done(timeout=60)
        assert wait_for(lambda: journal.stats()["pending"] == 0)
        runner.drain()
        assert JobJournal(journal.path).recover() == []

    def test_journal_failure_refuses_the_job(self, tmp_path, monkeypatch):
        journal = JobJournal(tmp_path / "journal.ndjson")
        runner = make_runner(journal=journal)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(journal, "record_accepted", explode)
        with pytest.raises(ServiceError, match="durability unavailable"):
            runner.submit([request()], batch=False)
        # Nothing was queued and nothing is registered.
        assert runner.queue_depth() == 0
        assert runner._registry.counts()["active"] == 0

    def test_restore_replays_under_original_ids(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        journal.record_accepted(
            "crashjob", [request(tag="replayed").to_dict()], batch=False
        )
        records = journal.recover()
        runner = make_runner(journal=journal)
        runner.start()
        (job,) = runner.restore(records)
        assert job.id == "crashjob"
        assert job.recovered is True
        assert job.wait_done(timeout=60)
        assert job.slots[0].error is None
        runner.drain()

    def test_restore_replays_a_record_with_client_and_priority(self, tmp_path):
        """Journals written while the service kept per-client quotas and
        priorities carry both keys; such a job still replays."""
        journal = JobJournal(tmp_path / "journal.ndjson")
        journal.path.write_bytes(
            legacy_accepted_line("oldjob", [request(tag="legacy").to_dict()])
        )
        records = journal.recover()
        runner = make_runner(journal=journal)
        runner.start()
        (job,) = runner.restore(records)
        assert job.id == "oldjob"
        assert job.wait_done(timeout=60)
        assert job.slots[0].error is None
        assert "client" not in job.describe()
        runner.drain()
        assert journal.recover() == []

    def test_restore_skips_unreplayable_records_with_tombstone(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        journal.record_accepted("bad", [{"kind": "nope"}], batch=False)
        records = journal.recover()
        runner = make_runner(journal=journal)
        assert runner.restore(records) == []
        # The tombstone stops the bad record replaying forever.
        assert journal.recover() == []

    def test_restore_feeds_more_jobs_than_queue_slots(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        for index in range(6):  # > queue_limit of 4
            journal.record_accepted(
                f"job-{index}", [request(tag=f"r{index}").to_dict()], batch=False
            )
        records = journal.recover()
        runner = make_runner(journal=journal, queue_limit=4)
        runner.start()
        jobs = runner.restore(records)
        assert len(jobs) == 6
        runner.drain()  # joins the feeder, then the queue
        assert all(job.status == JOB_DONE for job in jobs)
        assert journal.stats()["pending"] == 0


@pytest.mark.filterwarnings(
    # The fault mapper kills worker threads on purpose; the SystemExit
    # escaping them is the behavior under test, not a defect.
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
@pytest.mark.usefixtures("fault_mapper")
class TestWorkerHardening:
    def test_dying_worker_abandons_claims_and_fails_slots(self, tmp_path):
        """Regression: a worker killed after claiming its store keys (the
        serial executor runs the mapper on the dispatch thread) must answer
        every slot, release every claim, and be replaced — queued work and
        dedup waiters never hang."""
        sentinel = tmp_path / "died.sentinel"
        doomed_request = faulty(exit_thread=True, once=str(sentinel))
        store = ResultStore(None)
        runner = JobRunner(
            store, JobRegistry(), queue_limit=8, workers=1, executor="serial"
        )
        runner.start()

        doomed = runner.submit([doomed_request], batch=False)
        assert doomed.wait_done(timeout=60)
        # The dying worker answered the slot with a typed failure...
        assert doomed.slots[0].error == "ServiceError"
        # ...and released its claim: the key is immediately claimable.
        state, _ = store.claim(doomed.slots[0].key)
        assert state == "owned"
        store.abandon(doomed.slots[0].key)
        assert sentinel.exists()

        # The respawned worker (workers=1, so it must be a replacement)
        # completes the same request successfully — the store was not
        # poisoned by the crash.
        retry = runner.submit([doomed_request], batch=False)
        assert retry.wait_done(timeout=60)
        assert retry.slots[0].error is None
        assert retry.slots[0].data == canonical_response_bytes(run(doomed_request))
        runner.drain()

    def test_dedup_waiter_survives_owner_death(self, tmp_path):
        """A job waiting on a key whose owner dies recomputes the slot
        instead of hanging or failing."""
        owner_dies = faulty(
            exit_thread=True, sleep=0.5, once=str(tmp_path / "owner.sentinel")
        )
        store = ResultStore(None)
        runner = JobRunner(
            store, JobRegistry(), queue_limit=8, workers=2, executor="serial"
        )
        runner.start()
        # Two identical submissions: the first worker claims the key and
        # stalls before it dies (once), so the second waits on the claim.
        first = runner.submit([owner_dies], batch=False)
        assert wait_for(lambda: store.stats()["inflight"] == 1)
        second = runner.submit([owner_dies], batch=False)
        assert first.wait_done(timeout=60) and second.wait_done(timeout=60)
        assert store.stats()["inflight_waits"] == 1
        # The owner's slot is a typed failure; the waiter computed its own.
        assert first.slots[0].error == "ServiceError"
        assert second.slots[0].error is None
        assert second.slots[0].data == canonical_response_bytes(run(owner_dies))
        runner.drain()


class TestWarmPool:
    """``executor="process"``: one pool from ``start()`` to ``drain()``."""

    def test_jobs_share_the_pre_forked_workers(self):
        runner = make_runner(executor="process", queue_limit=32, workers=2)
        assert runner.pool_stats() is None  # nothing forks before start()
        runner.start()
        pids = runner.pool_stats()["pids"]
        assert len(pids) == max(2, os.cpu_count() or 1)
        requests = [request(tag=f"job-{index}") for index in range(20)]
        jobs = [runner.submit([item], batch=False) for item in requests]
        assert all(job.wait_done(timeout=60) for job in jobs)
        for item, job in zip(requests, jobs):
            assert job.slots[0].data == canonical_response_bytes(run(item))
        stats = runner.pool_stats()
        assert stats["pids"] == pids  # no fork per job
        assert stats["served"] == 20 and stats["busy"] == 0
        assert stats["respawned_after_crash"] == stats["killed_on_timeout"] == 0
        runner.drain()
        # drain() joined every worker: reaped (their rusage is in this
        # process's children totals), not merely told to stop.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_other_executors_hold_no_pool(self):
        runner = make_runner(executor="thread")
        runner.start()
        assert runner.pool_stats() is None
        runner.drain()
