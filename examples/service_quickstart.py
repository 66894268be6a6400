#!/usr/bin/env python3
"""Quickstart: run mapping and simulation as a service.

Boots a :class:`repro.service.NocService` on a background thread (the
same server ``repro serve`` runs in the foreground), then talks to it
over real HTTP with the blocking :class:`repro.service.ServiceClient`:

1. map the paper's VOPD decoder through ``POST /v1/jobs``,
2. submit the *same* request three times concurrently and watch the
   content-addressed store execute it exactly once,
3. stream a small injection-rate sweep point by point as the slots
   complete (NDJSON over ``GET /v1/jobs/{id}/events``),
4. drain the service — accepted work finishes, nothing is dropped.

Run:  python examples/service_quickstart.py
"""

import tempfile
import threading

from repro.api import MapRequest, SimOptions, SimRequest
from repro.service import NocService, ServiceClient, ServiceConfig


def main() -> None:
    with tempfile.TemporaryDirectory() as store_root:
        service = NocService(
            ServiceConfig(store_root=store_root, executor="serial")
        )
        port = service.start()
        client = ServiceClient(f"http://127.0.0.1:{port}")
        print(f"service up on port {port}, store at {store_root}")

        # -- one-call convenience: submit + wait + typed response -------
        request = MapRequest(app="vopd", price_bandwidth=False)
        response = client.map(request)
        print(f"\nVOPD via HTTP : cost {response.comm_cost:.0f}, "
              f"feasible {response.feasible}")

        # -- the dedup contract: N identical submissions, one execution -
        executed_before = client.health()["store"]["executed"]
        tickets = []
        lock = threading.Lock()

        def submit() -> None:
            ticket = client.submit(request)
            with lock:
                tickets.append(ticket)

        threads = [threading.Thread(target=submit) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        bodies = set()
        for ticket in tickets:
            client.wait(ticket.id)
            bodies.add(client.result_raw(ticket.id))
        executed = client.health()["store"]["executed"] - executed_before
        print(f"\n3 concurrent identical submissions: executed {executed} "
              f"time(s), {len(bodies)} distinct result body")
        assert executed == 0 and len(bodies) == 1  # client.map already cached it

        # -- stream a sweep as it computes ------------------------------
        sweep = [
            SimRequest(
                map_request=request,
                measure_cycles=400,
                warmup_cycles=100,
                drain_cycles=200,
                options=SimOptions(
                    traffic="uniform", injection_rate=rate, engine="event"
                ),
            )
            for rate in (0.02, 0.05, 0.08)
        ]
        ticket = client.submit(sweep)
        print("\ninjection-rate sweep, streamed:")
        for event in client.stream(ticket.id):
            sim = event.response
            print(f"  rate {sim.request.options.injection_rate:.2f} : "
                  f"mean latency {sim.latency_mean:.1f} cycles "
                  f"({'cache' if event.cached else 'computed'})")

        seen = client.health()["connections"]
        print(f"\n{seen['requests']} requests over {seen['accepted']} "
              f"kept connection(s)")

        service.shutdown()
        print("\nservice drained and stopped — results live on in the store")


if __name__ == "__main__":
    main()
