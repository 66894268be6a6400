#!/usr/bin/env python3
"""CI chaos smoke for the job service: kill -9, recover, byte-identical.

The serve smoke (scripts/serve_smoke.py) proves the graceful paths; this
script proves the crash-durability contract the write-ahead journal ships:

* a real ``repro serve`` subprocess is SIGKILLed mid-batch — one job
  finished, one executing, one queued;
* a fresh server process on the same store replays the unfinished jobs
  under their **original ids** (pre-crash pollers just see them complete)
  and marks them ``recovered``;
* every result — finished before the crash or replayed after it — is
  byte-identical to a local ``run_map`` of the same request;
* a journal whose tail was torn by the crash (simulated with appended
  garbage) still boots: the corrupt record is dropped, the service
  answers, and the warm store still serves the same bytes;
* with the process executor, a pool worker SIGKILLed under a running
  request is replaced and the job completes through the retry — and when
  the server itself is SIGKILLed, no pool worker outlives it.

Every request maps with ``chaos-slow``, NMAP after a 0.8 s stall, so the
SIGKILLs land mid-batch.  It is a mapper this script registers through the
plugin API (``register_mapper``); the server is this script too —
``chaos_smoke.py --serve <repro serve flags>`` registers it, then runs
``repro serve``, whose forked pool workers inherit it.

Exits non-zero on the first violated contract.  Run via ``make
chaos-smoke``; wired into ``make check``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import cli  # noqa: E402
from repro.api import MapperOptions, MapRequest, register_mapper, run_map  # noqa: E402
from repro.mapping.nmap import nmap_single_path  # noqa: E402
from repro.service import ServiceClient, canonical_response_bytes  # noqa: E402

ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")
SLOW_MAPPER = "chaos-slow"


@register_mapper(SLOW_MAPPER, options=MapperOptions)
def slow_nmap(core_graph, topology):
    """NMAP after a 0.8 s stall: job 1 done, job 2 executing at the kill."""
    time.sleep(0.8)
    return nmap_single_path(core_graph, topology)


def boot(
    store: str, executor: str = "serial"
) -> tuple[subprocess.Popen, ServiceClient]:
    proc = subprocess.Popen(
        [
            sys.executable, os.path.abspath(__file__), "--serve",
            "--port", "0", "--store", store,
            "--executor", executor, "--workers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"server exited before announcing (rc={proc.wait()})")
        match = ANNOUNCE.search(line)
        if match:
            return proc, ServiceClient(
                f"http://127.0.0.1:{match.group(1)}",
                timeout=120.0,
                retries=3,
                backoff=0.2,
            )
    proc.kill()
    raise SystemExit("server did not announce a port within 60 s")


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"chaos-smoke FAILED: {label}")
    print(f"  ok: {label}")


def wait_done(client: ServiceClient, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        envelope = client.status(job_id)
        if envelope["status"] == "done":
            return envelope
        time.sleep(0.05)
    raise SystemExit(f"chaos-smoke FAILED: job {job_id} never completed")


def process_alive(pid: int) -> bool:
    """True while ``pid`` is running (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def pool_worker_leg(store: str, request: MapRequest, reference: bytes) -> None:
    """SIGKILL a pool worker under a request, then the server over its pool."""
    proc, client = boot(store, executor="process")
    try:
        pool = client.health()["pool"]
        check(
            pool["size"] == len(pool["pids"]) >= 1 and pool["busy"] == 0,
            f"pool of {pool['size']} warm worker(s) idle at boot",
        )
        ticket = client.submit(request)
        deadline = time.monotonic() + 30
        while client.health()["pool"]["busy"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        # Idle workers are handed out in spawn order, so the first request
        # of a fresh server is sleeping on the first pid.
        os.kill(pool["pids"][0], signal.SIGKILL)
        envelope = wait_done(client, ticket.id)
        check(envelope["slots"][0]["error"] is None, "job completed through the retry")
        check(
            client.result_raw(ticket.id) == reference,
            "retried result byte-identical",
        )
        after = client.health()["pool"]
        check(after["respawned_after_crash"] == 1, "exactly one worker respawned")
        check(
            after["size"] == pool["size"] and pool["pids"][0] not in after["pids"],
            "pool restored to size with a new worker",
        )
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 2
        while any(map(process_alive, after["pids"])) and time.monotonic() < deadline:
            time.sleep(0.02)
        check(
            not any(map(process_alive, after["pids"])),
            "no pool worker alive 2 s after the server's SIGKILL",
        )
    finally:
        proc.kill()
        proc.wait(timeout=30)


def main() -> None:
    requests = [
        MapRequest(app=app, mapper=SLOW_MAPPER, price_bandwidth=False)
        for app in ("vopd", "dsp", "pip")
    ]
    # The ground truth the recovered results must match byte-for-byte.
    reference = [canonical_response_bytes(run_map(r)) for r in requests]

    with tempfile.TemporaryDirectory() as store:
        print("== server, about to be killed ==")
        proc, client = boot(store)
        tickets = [client.submit(request) for request in requests]
        # Let the first job finish (its tombstone lands), then SIGKILL
        # while job 2 executes and job 3 sits in the queue.
        wait_done(client, tickets[0].id)
        unfinished = [
            t.id for t in tickets[1:]
            if client.status(t.id)["status"] != "done"
        ]
        check(len(unfinished) >= 1, "jobs still in flight at kill time")
        proc.kill()  # SIGKILL: no drain, no atexit, no flush
        proc.wait(timeout=30)
        print("  ok: server SIGKILLed mid-batch")

        print("== fresh server, same store: recovery ==")
        proc, client = boot(store)
        try:
            for index, ticket in enumerate(tickets):
                if ticket.id in unfinished:
                    # Replayed under the original id, flagged recovered.
                    envelope = wait_done(client, ticket.id)
                    check(
                        envelope["recovered"] is True,
                        f"job {index + 1} replayed as recovered",
                    )
                    check(
                        client.result_raw(ticket.id) == reference[index],
                        f"job {index + 1} recovered byte-identical",
                    )
                else:
                    # Finished pre-crash: tombstoned, served from the store.
                    fresh = client.submit(requests[index])
                    wait_done(client, fresh.id)
                    check(
                        client.result_raw(fresh.id) == reference[index],
                        f"job {index + 1} store entry survived byte-identical",
                    )
            journal = client.health()["journal"]
            check(journal is not None, "journal active on the store root")
            deadline = time.monotonic() + 30
            while client.health()["journal"]["pending"] and (
                time.monotonic() < deadline
            ):
                time.sleep(0.05)
            check(
                client.health()["journal"]["pending"] == 0,
                "journal fully tombstoned after recovery",
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
        check(rc == 0, f"drain after recovery exits 0 (got {rc})")

        print("== torn journal tail ==")
        journal_path = os.path.join(store, "journal.ndjson")
        with open(journal_path, "ab") as handle:
            handle.write(b'deadbeef0123 {"type":"accepted","job":"to')
        proc, client = boot(store)
        try:
            check(client.health()["status"] == "ok", "boots past the torn tail")
            check(
                client.health()["journal"]["pending"] == 0,
                "torn record dropped, nothing ghost-replayed",
            )
            ticket = client.submit(requests[0])
            wait_done(client, ticket.id)
            check(
                client.result_raw(ticket.id) == reference[0],
                "warm store still serves identical bytes",
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
        check(rc == 0, f"final drain exits 0 (got {rc})")

    with tempfile.TemporaryDirectory() as store:
        print("== process executor: pool worker killed under a request ==")
        pool_worker_leg(store, requests[0], reference[0])

    print("chaos-smoke passed")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        sys.exit(cli.main(["serve", *sys.argv[2:]]))
    main()
