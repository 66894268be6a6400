"""Fault injection and the crash-proof batch engine, end to end.

Three demos, smoke-sized (this script is part of ``make fault-smoke``):

1. **Map around a dead router** — a :class:`FaultSpec` on the map request
   makes NMAP place VOPD's 16 cores on the 19 surviving nodes of a 5x4
   mesh whose router 5 died.
2. **Reroute around a failed link** — the same fault spec on a *sim*
   request leaves the pristine placement alone and detours its traffic
   over surviving minimal paths (deadlock-freedom re-checked).
3. **A crash cannot abort a batch** — a custom mapper, registered through
   the plugin API, kills the worker process that runs it.  A process-pool
   batch with one such request still returns a response for every slot:
   the dead worker is replaced, the crasher is retried and comes back as a
   typed :class:`ErrorResponse`, and the neighbours' payloads match a
   clean run.
"""

from __future__ import annotations

import os

from repro.api import (
    ErrorResponse,
    FaultSpec,
    MapperOptions,
    MapRequest,
    SimRequest,
    TopologySpec,
    register_mapper,
    run,
    run_batch,
)


def map_around_dead_router() -> None:
    response = run(
        MapRequest(
            app="vopd",
            mapper="nmap",
            topology=TopologySpec.parse("mesh:5x4"),
            faults=FaultSpec(failed_routers=(5,)),
            price_bandwidth=False,
        )
    )
    assert 5 not in response.placement.values()
    print(f"[1] mapped around dead router 5: cost {response.comm_cost:.0f}, "
          f"feasible={response.feasible}")


def reroute_around_failed_link() -> None:
    base = MapRequest(app="pip", mapper="nmap", price_bandwidth=False)
    pristine = run(SimRequest(map_request=base, measure_cycles=2_000))
    rerouted = run(
        SimRequest(
            map_request=base,
            faults=FaultSpec(failed_links=((3, 4),)),
            measure_cycles=2_000,
        )
    )
    print(f"[2] link 3-4 failed: latency {pristine.latency_mean:.1f} -> "
          f"{rerouted.latency_mean:.1f} cycles on the surviving paths")


@register_mapper("crash", options=MapperOptions)
def crash(core_graph, topology):
    """Die the way a segfaulting native kernel does: no cleanup, no traceback."""
    os._exit(23)


def crash_proof_batch() -> None:
    good = MapRequest(app="pip", mapper="nmap", price_bandwidth=False)
    crasher = MapRequest(app="pip", mapper="crash", price_bandwidth=False)
    # The pool forks its workers now, after the registration above, so
    # they know the "crash" mapper too.
    responses = run_batch(
        [good, crasher, good], workers=2, executor="process", retries=1
    )
    kinds = [type(r).__name__ for r in responses]
    assert kinds == ["MapResponse", "ErrorResponse", "MapResponse"], kinds
    assert responses[0].to_dict() == run(good).to_dict()
    error = responses[1]
    assert isinstance(error, ErrorResponse) and error.error == "BatchError"
    print(f"[3] crashed slot isolated: {error.describe()}; "
          f"both neighbours match the clean run")


def main() -> None:
    map_around_dead_router()
    reroute_around_failed_link()
    crash_proof_batch()
    print("fault smoke OK")


if __name__ == "__main__":
    main()
