"""Single-layer probes for the traced run: one public call, timed from outside.

These numbers do not depend on which workload is being traced — they are
the evidence ROADMAP items 2, 3 and 5 ask for (what each engine rung, batch
executor and durability step costs on this host) — so every traced run
takes the cheap ones, and the engine ladder runs on the simulation workload
whose regime it probes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

from repro.api import MapRequest, clear_request_caches, run, run_batch
from repro.graphs.topology import NoCTopology
from repro.partition import partition_topology
from repro.service.journal import JobJournal
from repro.service.store import ResultStore
from repro.service.wire import canonical_response_bytes, parse_request

import workloads
from harness import Tracer, percentile
from inproc import StagedRunner
from layers import ladder_metric

_ENGINE_SPANS = ("simnoc.flatten", "simnoc.kernel", "simnoc.writeback")


def _median_ms(call, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1000.0)
    return percentile(samples, 0.5)


def service_steps(workdir: Path) -> dict[str, float]:
    """The durability and wire steps a job pays, on the server's filesystem."""
    request = MapRequest(app="vopd", price_bandwidth=False)
    payload = request.to_dict()
    response = run(request)
    body = canonical_response_bytes(response)
    journal = JobJournal(workdir / "probe-journal.ndjson")
    store = ResultStore(workdir / "probe-store")
    jobs = iter(f"probe-{index}" for index in range(1_000))
    keys = iter(f"{index:064x}" for index in range(1_000))
    try:
        return {
            "service.journal.append_durable_ms_p50": _median_ms(
                lambda: journal.record_accepted(next(jobs), [payload], batch=False), 25
            ),
            "service.store.publish_ms_p50": _median_ms(
                lambda: store.publish(next(keys), body), 25
            ),
            "service.store.get_ms_p50": _median_ms(lambda: store.get(f"{0:064x}"), 25),
            "service.wire.parse_request_ms_p50": _median_ms(
                lambda: parse_request(payload), 25
            ),
            "service.wire.response_bytes_ms_p50": _median_ms(
                lambda: canonical_response_bytes(response), 25
            ),
        }
    finally:
        journal.close()


def cli_cold_start_s() -> float:
    """Wall of ``python -m repro.cli map --app vopd`` in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "map", "--app", "vopd"],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def partition_s() -> float:
    """``partition_topology`` of a 16x16 mesh into 4 shards (what hmap and sharded pay)."""
    topology = NoCTopology.mesh(16, 16, link_bandwidth=1000.0)
    start = time.perf_counter()
    partition_topology(topology, 4)
    return time.perf_counter() - start


def batch_executors() -> dict[str, float]:
    """One 16-point VOPD vector sweep per ``run_batch`` executor."""
    sweep = [
        workloads.sim_request(
            workloads.map_request("vopd"),
            1_000,
            11,
            engine="vector",
            traffic="uniform",
            injection_rate=0.02 * (point + 1),
        )
        for point in range(16)
    ]
    metrics = {}
    for executor in ("serial", "thread", "process", "replica"):
        clear_request_caches()
        start = time.perf_counter()
        run_batch(sweep, executor=executor)
        metrics[f"api.batch.{executor}_s"] = time.perf_counter() - start
    single = [MapRequest(app="vopd", price_bandwidth=False)]
    metrics["api.batch.process_singleton_ms"] = _median_ms(
        lambda: run_batch(single, executor="process", isolate=True), 5
    )
    return metrics


def _engine_cycles_per_s(request) -> float:
    """Simulated cycles per host second inside the engine's own run call."""
    tracer = Tracer()
    StagedRunner(tracer).run_round([request])
    busy = sum(
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] in _ENGINE_SPANS or span["name"].startswith("simnoc.engine_")
    )
    total = request.warmup_cycles + request.measure_cycles + request.drain_cycles
    return total / busy


def engine_ladder(regime: str, cycles: int) -> dict[str, float]:
    """Every engine rung on one request: VOPD trace (sweep) or 8x8 at 0.30 (saturation).

    ``vector_pytwin`` and ``vector_nojit`` flip the JIT ladder's environment
    switches, which ``resolve_backend`` re-reads on every resolution.
    """

    def request(engine: str, **extra):
        if regime == "sweep":
            return workloads.sim_request(
                workloads.map_request("vopd"), cycles, 7, engine=engine, **extra
            )
        return workloads.sim_request(
            workloads.vopd_on("mesh:8x8"),
            cycles,
            7,
            engine=engine,
            traffic="uniform",
            injection_rate=0.30,
            **extra,
        )

    rungs = {
        "cycle": (request("cycle"), {}),
        "event": (request("event"), {}),
        "vector": (request("vector"), {}),
        "vector_pytwin": (request("vector"), {"REPRO_JIT": "py"}),
        "vector_nojit": (request("vector"), {"REPRO_NO_JIT": "1"}),
        "sharded2": (request("sharded", shards=2), {}),
    }
    metrics = {}
    for rung, (sim_request, env) in rungs.items():
        with mock.patch.dict(os.environ, env):
            rate = _engine_cycles_per_s(sim_request)
        metrics[ladder_metric(rung, regime)] = rate
    return metrics
