"""Batch failure semantics: crash-proof ``run_batch`` across executors.

The contract under test (ARCHITECTURE.md, "batch failure semantics"):

* one bad request never aborts the batch — its slot carries a typed
  :class:`ErrorResponse`, every other slot completes normally;
* the failing slot's payload is *byte-identical* across the serial, thread
  and process executors;
* a process worker that dies (a real crash, not an exception) breaks only
  its own slot: the worker is replaced, the slot retried, and a
  deterministic crasher is typed ``BatchError`` after bounded retries;
* a slot that outlives its ``timeout`` frees the caller when the budget
  runs out: the late process worker is killed and replaced;
* a retried transient crash reproduces the clean run's payload exactly.

The crash/slow instruments are env-var hooks honored inside the worker
(``REPRO_CRASH_TAG`` et al.); the start method is ``fork`` on Linux, so
``monkeypatch.setenv`` reaches process-pool workers.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import (
    AnnealingOptions,
    BATCH_EXECUTORS,
    ErrorResponse,
    MapRequest,
    MapResponse,
    SimRequest,
    run,
    run_batch,
)
from repro.api.pool import WorkerPool
from repro.errors import ApiError

#: A tiny request the chaos hooks leave alone.
GOOD = MapRequest(app="pip", mapper="nmap", price_bandwidth=False)
#: A request whose app payload cannot resolve: raises inside the worker
#: with the same exception class and message on every executor.
RAISING = MapRequest(
    app="/nonexistent/app.json", mapper="nmap", price_bandwidth=False
)


def _payloads(responses):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in responses]


class TestSlotIsolation:
    @pytest.mark.parametrize("executor", BATCH_EXECUTORS)
    def test_raising_request_fails_alone(self, executor):
        responses = run_batch(
            [GOOD, RAISING, GOOD], workers=2, executor=executor
        )
        assert isinstance(responses[0], MapResponse)
        assert isinstance(responses[2], MapResponse)
        error = responses[1]
        assert isinstance(error, ErrorResponse)
        assert error.error == "FileNotFoundError"
        assert error.request == RAISING
        assert responses[0].to_dict() == responses[2].to_dict()

    def test_error_payload_identical_across_executors(self):
        batches = {
            executor: run_batch(
                [GOOD, RAISING, GOOD], workers=2, executor=executor
            )
            for executor in BATCH_EXECUTORS
        }
        reference = _payloads(batches["serial"])
        for executor in ("thread", "process"):
            assert _payloads(batches[executor]) == reference


class TestWorkerCrash:
    def test_crash_mid_batch_breaks_only_its_slot(self, monkeypatch):
        """Regression: a dying process worker used to abort the whole batch."""
        monkeypatch.setenv("REPRO_CRASH_TAG", "boom")
        crasher = MapRequest(
            app="pip", mapper="nmap", price_bandwidth=False, tag="boom"
        )
        responses = run_batch(
            [GOOD, crasher, GOOD], workers=2, executor="process", retries=1
        )
        assert isinstance(responses[0], MapResponse)
        assert isinstance(responses[2], MapResponse)
        error = responses[1]
        assert isinstance(error, ErrorResponse)
        assert error.error == "BatchError"
        assert error.message == (
            "worker process died while running this request (2 attempt(s))"
        )
        assert error.request == crasher
        clean = run(GOOD)
        assert responses[0].to_dict() == clean.to_dict()
        assert responses[2].to_dict() == clean.to_dict()

    def test_isolate_keeps_a_singleton_crasher_off_the_host(self, monkeypatch):
        """``isolate=True`` forces the pool even for a one-request batch.

        Without it the singleton short-circuit would run the request in
        this very process and ``os._exit`` would take the host down — the
        exact hazard a long-lived embedder (the job service) uses the flag
        to rule out.
        """
        monkeypatch.setenv("REPRO_CRASH_TAG", "boom")
        crasher = MapRequest(
            app="pip", mapper="nmap", price_bandwidth=False, tag="boom"
        )
        responses = run_batch(
            [crasher], executor="process", retries=1, isolate=True
        )
        assert isinstance(responses[0], ErrorResponse)
        assert responses[0].error == "BatchError"
        assert "worker process died" in responses[0].message

    def test_crash_plus_timeout_acceptance(self, monkeypatch):
        """One crashing + one timing-out request: every other slot survives,
        and the raise/timeout payloads are executor-independent."""
        monkeypatch.setenv("REPRO_CRASH_TAG", "boom")
        monkeypatch.setenv("REPRO_SLOW_TAG", "slow")
        monkeypatch.setenv("REPRO_SLOW_SECONDS", "2.0")
        crasher = MapRequest(
            app="pip", mapper="nmap", price_bandwidth=False, tag="boom"
        )
        laggard = MapRequest(
            app="pip", mapper="nmap", price_bandwidth=False, tag="slow"
        )
        requests = [GOOD, crasher, laggard, RAISING, GOOD]
        responses = run_batch(
            requests, workers=2, executor="process", timeout=0.8, retries=1
        )
        assert [type(r) for r in responses] == [
            MapResponse, ErrorResponse, ErrorResponse, ErrorResponse, MapResponse
        ]
        assert responses[1].error == "BatchError"  # died
        assert responses[2].error == "BatchError"  # timed out
        assert responses[2].message == "request did not complete within 0.8 s"
        assert responses[3].error == "FileNotFoundError"
        assert responses[0].to_dict() == responses[4].to_dict()

        # the executor-portable failures (timeout, raise) must produce the
        # same payloads on serial and thread executors too (the crash hook
        # is process-only: os._exit has no in-process analogue)
        portable = [GOOD, laggard, RAISING, GOOD]
        want = run_batch(portable, executor="serial", timeout=0.8)
        got = run_batch(portable, workers=2, executor="thread", timeout=0.8)
        assert _payloads(got) == _payloads(want)
        assert want[1].error == "BatchError"
        assert want[1].message == "request did not complete within 0.8 s"
        assert want[2].error == "FileNotFoundError"


class TestTimeoutFreesTheCaller:
    """Regression: leaving the per-call ``ProcessPoolExecutor`` joined the
    late worker, so a 0.5 s budget answered after the full 3 s run."""

    @pytest.fixture(autouse=True)
    def slow_hook(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_TAG", "slow")
        monkeypatch.setenv("REPRO_SLOW_SECONDS", "3")

    LAGGARD = MapRequest(
        app="pip", mapper="nmap", price_bandwidth=False, tag="slow"
    )

    def test_run_batch_returns_when_the_budget_runs_out(self):
        start = time.monotonic()
        responses = run_batch(
            [self.LAGGARD], executor="process", timeout=0.5, isolate=True
        )
        assert time.monotonic() - start < 0.5 + 0.5
        assert responses[0].error == "BatchError"
        assert responses[0].message == "request did not complete within 0.5 s"

    def test_late_worker_is_killed_and_the_pool_stays_usable(self):
        with WorkerPool(1) as pool:
            (late_pid,) = pool.stats()["pids"]
            start = time.monotonic()
            response = pool.run(self.LAGGARD, timeout=0.5)
            assert time.monotonic() - start < 0.5 + 0.5
            assert response.message == "request did not complete within 0.5 s"
            stats = pool.stats()
            assert stats["killed_on_timeout"] == 1 and stats["size"] == 1
            assert stats["pids"] != [late_pid]
            assert pool.run(GOOD).to_dict() == run(GOOD).to_dict()


class TestRetryDeterminism:
    def test_retried_transient_crash_reproduces_clean_run(
        self, monkeypatch, tmp_path
    ):
        """Satellite: a retried transient failure is byte-identical to a
        clean run — all randomness derives from the request payload."""
        flaky = MapRequest(
            app="pip",
            mapper="annealing",
            options=AnnealingOptions(seed=7),
            price_bandwidth=False,
            tag="flaky",
        )
        requests = [GOOD, flaky, GOOD]
        clean = run_batch(requests, executor="serial")

        monkeypatch.setenv("REPRO_CRASH_TAG", "flaky")
        monkeypatch.setenv("REPRO_CRASH_ONCE", str(tmp_path / "crashed.once"))
        retried = run_batch(
            requests, workers=2, executor="process", retries=2
        )
        assert (tmp_path / "crashed.once").exists()  # it really crashed
        assert not any(isinstance(r, ErrorResponse) for r in retried)
        assert _payloads(retried) == _payloads(clean)


class TestErrorResponseSpec:
    def test_round_trips_losslessly(self):
        error = ErrorResponse(
            request=RAISING, error="FileNotFoundError", message="gone"
        )
        rebuilt = ErrorResponse.from_dict(json.loads(json.dumps(error.to_dict())))
        assert rebuilt == error
        assert rebuilt.describe() == "FileNotFoundError: gone"

    def test_round_trips_sim_requests(self):
        error = ErrorResponse(
            request=SimRequest(map_request=GOOD, measure_cycles=100),
            error="BatchError",
            message="request did not complete within 1.0 s",
        )
        rebuilt = ErrorResponse.from_dict(json.loads(json.dumps(error.to_dict())))
        assert rebuilt == error
        assert isinstance(rebuilt.request, SimRequest)

    def test_validates_field_types(self):
        with pytest.raises(ApiError):
            ErrorResponse(request="not a request", error="X", message="y")


class TestBatchValidation:
    def test_bad_executor_rejected(self):
        with pytest.raises(ApiError, match="executor"):
            run_batch([GOOD], executor="fibers")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ApiError, match="timeout"):
            run_batch([GOOD], timeout=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ApiError, match="retries"):
            run_batch([GOOD], retries=-1)

    def test_bad_workers_rejected(self):
        with pytest.raises(ApiError, match="workers"):
            run_batch([GOOD, GOOD], workers=0)
