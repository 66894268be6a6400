"""Latency vs. injection rate: the classical NoC saturation sweep.

The paper evaluates its mappings under application traffic; the pluggable
traffic layer makes the complementary characterization a first-class
experiment: sweep a synthetic pattern's offered load on a fixed fabric and
watch average and tail latency take off at the saturation knee.  Uniform
random is the standard benchmark pattern; transpose stresses the diagonal
under XY routing and saturates earlier on the same mesh.

Runs on the ``auto`` engine by default, which is the structure-of-arrays
vector engine at every point: it is the fastest backend from a near-idle
network to saturation, so no point needs the event-driven engine's dead-
cycle skipping.  Every engine is bit-consistent with ``cycle`` — the
equivalence suite under ``tests/properties`` pins that — so an explicit
``engine=`` changes wall-clock only.  Every point is a :class:`~repro.api.SimRequest`
through ``run_batch``, like every other experiment; the mapper run behind
the points is computed once and shared via the request cache, and
``executor="process"`` scales a sweep across cores — or
``executor="replica"`` advances all the vector-engine points in a single
compiled kernel invocation when a JIT backend is available.
"""

from __future__ import annotations

from repro.api import MapRequest, SimOptions, SimRequest, TopologySpec, run_batch
from repro.experiments.common import ExperimentTable

#: Offered load sweep in flits/cycle per node.
SWEEP_RATES = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def run_latency_sweep(
    rates: tuple[float, ...] = SWEEP_RATES,
    patterns: tuple[str, ...] = ("uniform", "transpose"),
    mesh: str = "mesh:4x4",
    measure_cycles: int = 4_000,
    engine: str = "auto",
    num_vcs: int = 1,
    shards: int | None = None,
    workers: int | None = None,
    executor: str = "thread",
    service_url: str | None = None,
) -> ExperimentTable:
    """Latency-vs-injection-rate curves for synthetic patterns.

    Args:
        rates: offered loads to sweep (flits/cycle per node).
        patterns: registered synthetic traffic patterns to compare.
        mesh: topology spec string for the fabric under test.
        measure_cycles: measurement window per point.
        engine: simulation backend for every point (``"auto"`` runs
            the vector engine;
            ``"sharded"`` fans each point across shard workers — pair it
            with serial-ish executors, not ``"process"``, to avoid
            oversubscribing cores).
        num_vcs: virtual channels per link (1 = the paper's router).
        shards: shard-worker count per point for the ``sharded`` engine
            (None lets the engine default; rejected for other engines).
        workers: worker count for the request batch.
        executor: ``"thread"``, ``"process"`` (multi-core sweeps) or
            ``"replica"`` — all vector-engine points are flattened first,
            then advanced back to back by the compiled kernel (see
            ``repro.simnoc.engines.jit``), byte-identical results.
        service_url: when set, the sweep is submitted as one batch job to
            a running ``repro serve`` instance instead of executing
            locally — same requests, same typed responses, but the
            service's content-addressed store dedups repeated sweeps and
            its admission control shields the box (``workers``/
            ``executor`` then describe the *service's* configuration, not
            this process).
    """
    # VOPD's 16 cores pin the 4x4 fabric; link bandwidth well above the
    # sweep's saturation point so the network, not the spec, is the limit.
    base_map = MapRequest(
        app="vopd",
        mapper="nmap",
        topology=TopologySpec.parse(mesh, link_bandwidth=6400.0),
        price_bandwidth=False,
    )
    requests = [
        SimRequest(
            map_request=base_map,
            measure_cycles=measure_cycles,
            warmup_cycles=500,
            drain_cycles=1_000,
            sim_seed=11,
            options=SimOptions(
                engine=engine,
                traffic=pattern,
                injection_rate=rate,
                num_vcs=num_vcs,
                shards=shards,
            ),
        )
        for pattern in patterns
        for rate in rates
    ]
    if service_url is not None:
        # The client-driven path: one batch job over the wire.  The typed
        # payloads round-trip losslessly, so the table below cannot tell
        # the difference — the dedup/admission behavior is the point.
        from repro.service.client import ServiceClient

        client = ServiceClient(service_url)
        ticket = client.submit(requests)
        responses = client.wait(ticket.id)
    else:
        responses = run_batch(requests, workers=workers, executor=executor)

    table = ExperimentTable(
        title="Latency vs injection rate - synthetic traffic saturation sweep",
        headers=["rate_flits_cycle"]
        + [f"{p}_{col}" for p in patterns for col in ("mean", "p95")],
        notes=[
            f"fabric {mesh}, XY routing, 64 B packets, 7-cycle switch delay, "
            f"{num_vcs} VC(s)",
            f"{engine} engine; {measure_cycles} measured cycles/point; "
            f"offered load in flits/cycle per node",
        ]
        + ([f"served by {service_url}"] if service_url is not None else []),
    )
    by_key = {
        (r.request.options.traffic, r.request.options.injection_rate): r
        for r in responses
    }
    for rate in rates:
        row: list[object] = [rate]
        for pattern in patterns:
            response = by_key[(pattern, rate)]
            row.extend(
                [round(response.latency_mean, 1), round(response.latency_p95, 1)]
            )
        table.rows.append(row)
    return table


def main() -> None:  # pragma: no cover - CLI hook
    print(run_latency_sweep().render())


if __name__ == "__main__":  # pragma: no cover
    main()
