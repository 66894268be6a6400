#!/usr/bin/env python3
"""CI smoke for the job service: a real server process, end to end.

Boots ``repro serve`` as a subprocess (ephemeral port, on-disk store,
``executor=process`` — the production configuration), then proves the
contracts the service ships on:

* health and mapper introspection answer;
* a mapping served over HTTP matches the local ``run_map`` exactly;
* two concurrent identical submissions execute the underlying request
  once and both read byte-identical result bodies (in-flight dedup);
* a resubmission after that is a store hit with the same bytes (warm);
* a fresh server process on the same store serves the same bytes without
  executing anything (cold start, persistent tier);
* a streamed sweep delivers every slot in order;
* the whole session of that one client rode a handful of kept connections
  (``connections.accepted`` far below ``connections.requests``);
* bodies whose parse once escaped as a ``TypeError`` (HTTP 500), or read
  a malformed fault list as "no faults", sent over raw HTTP, are each a
  400 carrying an ``ApiError``;
* SIGTERM drains cleanly — exit code 0, no dropped work — and does so with
  the client's kept connection still open, inside the grace window rather
  than after the connection's 30 s idle limit.

Exits non-zero on the first violated contract.  Run via ``make
serve-smoke``; wired into ``make check``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import MapRequest, SimOptions, SimRequest, run_map  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.server import DRAIN_GRACE  # noqa: E402

ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")


def boot(store: str) -> tuple[subprocess.Popen, ServiceClient, int]:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--store", store, "--executor", "process",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before announcing (rc={proc.wait()})"
            )
        match = ANNOUNCE.search(line)
        if match:
            port = int(match.group(1))
            return proc, ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0), port
    proc.kill()
    raise SystemExit("server did not announce a port within 60 s")


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"serve-smoke FAILED: {label}")
    print(f"  ok: {label}")


def malformed_bodies() -> dict[str, dict]:
    """Request bodies with a wrongly shaped mapper or fault list."""
    map_payload = MapRequest(app="vopd").to_dict()
    bodies = {}
    for mapper in ([], {}):
        bodies[f"mapper={mapper!r}"] = {**map_payload, "mapper": mapper}
        nested = SimRequest(map_request=MapRequest(app="vopd")).to_dict()
        nested["map_request"]["mapper"] = mapper
        bodies[f"map_request.mapper={mapper!r}"] = nested
    for field in ("failed_links", "failed_routers", "degraded_links"):
        for value in (None, 3, "", {}):
            bodies[f"faults.{field}={value!r}"] = {**map_payload, "faults": {field: value}}
    return bodies


def post_raw(port: int, body: bytes) -> tuple[int, bytes]:
    """``POST /v1/jobs`` on a connection of its own, no client library."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def main() -> None:
    map_request = MapRequest(app="vopd", price_bandwidth=False)
    sim_request = SimRequest(
        map_request=map_request,
        measure_cycles=400,
        warmup_cycles=100,
        drain_cycles=200,
        options=SimOptions(traffic="uniform", injection_rate=0.05, engine="event"),
    )

    with tempfile.TemporaryDirectory() as store:
        print("== cold server ==")
        proc, client, port = boot(store)
        try:
            check(client.health()["status"] == "ok", "health answers ok")
            check(
                any(m["name"] == "nmap" for m in client.mappers()),
                "mapper registry served",
            )
            check(
                client.map(map_request).to_dict()
                == run_map(map_request).to_dict(),
                "HTTP mapping matches local run_map",
            )

            # In-flight dedup: two identical submissions racing.
            before = client.health()["store"]["executed"]
            tickets: list = [None, None]

            def submit(slot: int) -> None:
                tickets[slot] = client.submit(sim_request)

            threads = [
                threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            bodies = set()
            for ticket in tickets:
                client.wait(ticket.id, timeout=300)
                bodies.add(client.result_raw(ticket.id))
            executed = client.health()["store"]["executed"] - before
            check(executed == 1, f"duplicate pair executed once (got {executed})")
            check(len(bodies) == 1, "duplicate pair bodies byte-identical")
            warm_bytes = bodies.pop()

            # Warm resubmission: store hit, same bytes.
            ticket = client.submit(sim_request)
            client.wait(ticket.id, timeout=300)
            check(
                client.result_raw(ticket.id) == warm_bytes,
                "warm resubmission byte-identical",
            )
            check(
                client.status(ticket.id)["slots"][0]["cached"] is True,
                "warm resubmission flagged cached",
            )

            # Streamed sweep arrives in order.
            sweep = [
                SimRequest(
                    map_request=map_request,
                    measure_cycles=400,
                    warmup_cycles=100,
                    drain_cycles=200,
                    options=SimOptions(
                        traffic="uniform", injection_rate=rate, engine="event"
                    ),
                )
                for rate in (0.02, 0.08)
            ]
            events = list(client.stream(client.submit(sweep).id))
            check(
                [event.index for event in events] == [0, 1],
                "sweep streamed in slot order",
            )

            # Everything above was one client: a connection per racing
            # thread at most, not one (or three) per call.
            seen = client.health()["connections"]
            check(
                seen["accepted"] <= 3 and seen["requests"] >= 5 * seen["accepted"],
                f"{seen['requests']} requests rode {seen['accepted']} connection(s)",
            )
            check(seen["open"] >= 1, "the client's connection is kept open")

            # Raw HTTP, after the connection count above: each body on a
            # connection of its own.
            bodies = malformed_bodies()
            wrong = {}
            for name, body in bodies.items():
                status, reply = post_raw(port, json.dumps(body).encode())
                if status != 400 or b"ApiError" not in reply:
                    wrong[name] = status
            check(not wrong, f"{len(bodies)} malformed bodies each a 400 ApiError" + (
                f"; not: {wrong}" if wrong else ""
            ))
        finally:
            sigterm_at = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
            drained_in = time.monotonic() - sigterm_at
        check(rc == 0, f"SIGTERM drains to exit 0 (got {rc})")
        check(
            drained_in < DRAIN_GRACE + 2.0,
            f"drained in {drained_in:.2f} s with a kept connection open",
        )

        print("== fresh server, same store ==")
        proc, client, _ = boot(store)
        try:
            before = client.health()["store"]["executed"]
            ticket = client.submit(sim_request)
            client.wait(ticket.id, timeout=300)
            check(
                client.result_raw(ticket.id) == warm_bytes,
                "cold restart serves byte-identical body from disk",
            )
            check(
                client.health()["store"]["executed"] == before,
                "cold restart executed nothing",
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
        check(rc == 0, f"second SIGTERM drains to exit 0 (got {rc})")

    print("serve-smoke passed")


if __name__ == "__main__":
    main()
