"""The warm worker pool's isolation contract (``repro.api.pool``).

``run_batch``'s own suite (test_batch_failures.py) pins the payloads; here
the pool is driven directly so its bookkeeping can be read: who was
replaced, who was not, and that nothing outlives its parent.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (
    ErrorResponse,
    MapperOptions,
    MapRequest,
    MapResponse,
    clear_request_caches,
    register_mapper,
    run,
    run_batch,
)
from repro.api.pool import WorkerPool
from repro.api.registry import MAPPERS
from repro.errors import ApiError
from repro.mapping.nmap import nmap_single_path
from tests.fault_injection import faulty

GOOD = MapRequest(app="pip", mapper="nmap", price_bandwidth=False)


def process_alive(pid: int) -> bool:
    """True while ``pid`` is running (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_until_gone(pids, timeout: float) -> list[int]:
    """The pids still alive once ``timeout`` has passed (empty = all gone)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(map(process_alive, pids)):
        time.sleep(0.02)
    return [pid for pid in pids if process_alive(pid)]


@pytest.mark.usefixtures("fault_mapper")
def test_crasher_is_replaced_while_an_innocent_runs_once():
    """A dying worker takes down its own slot only.

    The innocent request sleeps on the other worker while the crasher
    kills two workers in a row (first attempt + one retry): it is answered
    by the worker it started on, and the only respawns are the crasher's.
    """
    innocent = faulty(sleep=0.6)
    crasher = faulty(crash=True)
    with WorkerPool(2) as pool:
        before = pool.stats()["pids"]
        responses = pool.map([innocent, crasher], retries=1)
        after = pool.stats()
    assert responses[0] == run(innocent)
    assert isinstance(responses[1], ErrorResponse)
    assert responses[1].error == "BatchError"
    assert responses[1].message == (
        "worker process died while running this request (2 attempt(s))"
    )
    assert after["served"] == 1  # the innocent, once
    assert after["respawned_after_crash"] == 2  # the crasher, twice
    assert after["size"] == 2 and after["busy"] == 0
    assert len(set(before) & set(after["pids"])) == 1  # the innocent's worker


def test_a_worker_killed_while_idle_costs_the_next_request_no_attempt():
    """The death is found at checkout, before the attempt is counted."""
    with WorkerPool(1) as pool:
        (victim,) = pool.stats()["pids"]
        os.kill(victim, signal.SIGKILL)
        assert wait_until_gone([victim], timeout=5.0) == []
        response = pool.run(GOOD, retries=0)
        stats = pool.stats()
    assert response == run(GOOD)
    assert stats["respawned_after_crash"] == 1 and stats["served"] == 1
    assert stats["size"] == 1 and stats["pids"] != [victim]


def test_workers_are_reused_and_joined_on_close():
    with WorkerPool(2) as pool:
        pids = pool.stats()["pids"]
        responses = [pool.run(GOOD) for _ in range(6)]
        stats = pool.stats()
    assert all(response == run(GOOD) for response in responses)
    assert stats["pids"] == pids and stats["served"] == 6
    # close() waited for every worker: the pids are reaped, not merely dying
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert pool.stats()["size"] == 0
    pool.close()  # idempotent


@pytest.mark.usefixtures("fault_mapper")
def test_concurrent_callers_keep_the_books_straight():
    """More caller threads than workers, more workers than cores, crashers
    mixed in: every request is answered, every death is replaced exactly
    once, and no counter loses an update."""
    crasher = faulty(crash=True)
    plan = [crasher if index % 5 == 0 else GOOD for index in range(10)]
    answers: list[list] = [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool((os.cpu_count() or 1) + 1) as pool:
            size = pool.stats()["size"]

            def caller(mine: list) -> None:
                mine.extend(pool.run(item, retries=0) for item in plan)

            threads = [
                threading.Thread(target=caller, args=(mine,)) for mine in answers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            stats = pool.stats()
    finally:
        sys.setswitchinterval(interval)
    clean = run(GOOD)
    for mine in answers:
        assert [isinstance(answer, ErrorResponse) for answer in mine] == [
            item is crasher for item in plan
        ]
        assert all(answer == clean for answer in mine if answer.request == GOOD)
    assert stats["served"] == 8 * 8 and stats["respawned_after_crash"] == 8 * 2
    assert stats["size"] == size and stats["busy"] == 0


def test_size_is_validated():
    with pytest.raises(ApiError, match="workers"):
        WorkerPool(0)


def _map_after_a_process_batch(core_graph, topology):
    """A plugin mapper that runs a process batch of its own first."""
    (inner,) = run_batch([GOOD], executor="process", isolate=True)
    assert isinstance(inner, MapResponse), inner
    return nmap_single_path(core_graph, topology)


def test_a_request_may_start_worker_processes_of_its_own():
    """Workers are not daemonic, because a daemonic process may not start
    children and a registered mapper may run ``executor="process"``; and a
    worker's pool lock is its own, or the nested pool waits forever on the
    copy of the lock the parent held when it forked the worker."""
    register_mapper("test-nested-batch", options=MapperOptions)(
        _map_after_a_process_batch
    )
    clear_request_caches()
    try:
        with WorkerPool(1) as pool:
            response = pool.run(
                MapRequest(app="pip", mapper="test-nested-batch", price_bandwidth=False),
                timeout=60,
            )
    finally:
        MAPPERS.remove("test-nested-batch")
        clear_request_caches()
    assert isinstance(response, MapResponse), response


_ORPHAN_SCRIPT = """
import os, signal, sys, time
from repro.api.pool import WorkerPool
pool = WorkerPool(3)
# Replace one worker, so a late fork (which inherits every sibling's pipe
# end) is among the orphans.
os.kill(pool.stats()["pids"][0], signal.SIGKILL)
from repro.api import MapRequest
for _ in range(3):
    pool.run(MapRequest(app="pip", price_bandwidth=False))
assert pool.stats()["respawned_after_crash"] == 1
print(*pool.stats()["pids"], flush=True)
time.sleep(60)
"""


def test_no_worker_outlives_a_sigkilled_parent():
    """Workers exit on pipe EOF, and hold no sibling's pipe end open."""
    with subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    ) as parent:
        try:
            assert parent.stdout is not None
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 3 and all(map(process_alive, pids))
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
    assert wait_until_gone(pids, timeout=2.0) == []
