"""One workload, measured in this process: set-up, warm-up, rounds, checks.

Started by ``run.py`` once per measurement (and, for the repeated
``setup_s`` samples, with ``--phase setup``, which stops after set-up).
Prints one JSON document on its last stdout line; ``run.py`` turns that
into the table and the contract line.

Shape of a run: set-up (timed from the parent's spawn to here), one
untimed warm-up round, then identical timed rounds until ``--seconds`` have
passed.  A rate is the median over the timed rounds, with min, quartiles
and max beside it; latency percentiles pool the samples of all timed
rounds.  Round times are divided by the host slowdown a fixed calibration
loop saw around the round (``harness.Calibration``); the raw wall-clock
figures are kept beside them.  A traced run spends a third of ``--seconds``
on such reference rounds, then executes one more round stage by stage and
runs the layer probes.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path
from typing import NamedTuple

import numpy
from repro.api import canonical_request_key, run
from repro.partition import resolve_partitioner
from repro.service.wire import canonical_response_bytes
from repro.simnoc.engines import jit

import inproc
import layers
import probes
import service
import workloads
from harness import Calibration, Tracer, filesystem_type, percentile, spread

HERE = Path(__file__).resolve().parent
#: Timed rounds never number fewer than this, however short ``--seconds`` is
#: (the smoke size runs exactly one).
MIN_ROUNDS = {"full": 3, "smoke": 1}
#: Share of ``--seconds`` a traced run spends on untraced reference rounds.
TRACED_REFERENCE_SHARE = 1 / 3


class Round(NamedTuple):
    """One timed round: its wall, per-request seconds, correct responses, host slowdown."""

    busy: float
    samples: list[float]
    correct: int
    slowdown: float


class Checks:
    """Counts operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, operations: int, failures: list[str] = ()) -> None:
        self.attempted += operations
        self.failures.extend(failures)

    def expect(self, condition: bool, what: str) -> None:
        self.add(1, () if condition else [what])


def body_counts(bodies: list[bytes]) -> dict[str, float]:
    """The exact, bit-for-bit repeatable counts of one round's responses."""
    counts = {
        "mapping.comm_cost_sum": 0.0,
        "simnoc.cycles": 0,
        "simnoc.flit_hops": 0,
        "simnoc.packets_delivered": 0,
    }
    for body in bodies:
        payload = json.loads(body)
        if payload["kind"] == "sim-response":
            counts["simnoc.cycles"] += payload["cycles"]
            counts["simnoc.flit_hops"] += sum(payload["link_flits"].values())
            counts["simnoc.packets_delivered"] += payload["packets_delivered"]
            payload = payload["map_response"]
        counts["mapping.comm_cost_sum"] += payload["comm_cost"]
    return counts


def check_golden(checks: Checks, args, sha: str, exact: dict) -> None:
    """At the golden seed, a round must reproduce the committed hash and counts."""
    golden = json.loads((HERE / "golden.json").read_text())
    if args.seed != golden["seed"]:
        return
    expected = golden[args.size].get(args.workload, {"sha256": None, "exact": {}})
    checks.expect(sha == expected["sha256"], f"round sha256 {sha} is not golden.json's")
    for name, value in expected["exact"].items():
        checks.expect(
            exact[name] == value, f"{name} = {exact[name]}, golden.json says {value}"
        )


def timed_rounds(args, one_round, calibration: Calibration) -> list[Round]:
    """Call ``one_round(index)`` until the time budget is spent.

    ``one_round`` returns ``(busy_seconds, per_request_seconds, correct)``;
    each ``Round`` adds the host slowdown measured from the calibration sample
    before the round to the one after it.
    """
    budget = args.seconds * (TRACED_REFERENCE_SHARE if args.trace else 1.0)
    calibration.sample(Calibration.BOUNDARY)
    rounds: list[Round] = []
    started = time.perf_counter()
    while time.perf_counter() - started < budget or len(rounds) < MIN_ROUNDS[args.size]:
        first = len(calibration.samples) - 1
        busy, samples, correct = one_round(len(rounds) + 1)
        calibration.sample(Calibration.BOUNDARY)
        rounds.append(Round(busy, samples, correct, calibration.slowdown(first)))
    return rounds


def summarize(rounds: list[Round], exact: dict) -> tuple[dict, dict, dict]:
    """``(metrics, spread, wall_clock)`` of the timed rounds.

    ``metrics`` and ``spread`` are in calibrated host seconds; ``wall_clock``
    holds the same rates and percentiles as the clock read them.
    """

    def figures(scale) -> tuple[dict, list[float]]:
        seconds = [timed.busy / scale(timed.slowdown) for timed in rounds]
        per_round = {
            "requests_per_s": [timed.correct / s for timed, s in zip(rounds, seconds)],
            "simnoc.cycles_per_s": [exact["simnoc.cycles"] / s for s in seconds],
            "simnoc.flit_hops_per_s": [exact["simnoc.flit_hops"] / s for s in seconds],
        }
        ms = [
            sample * 1000.0 / scale(timed.slowdown)
            for timed in rounds
            for sample in timed.samples
        ]
        return {name: spread(values) for name, values in per_round.items()}, ms

    rates, ms = figures(lambda slowdown: slowdown)
    raw_rates, raw_ms = figures(lambda slowdown: 1.0)
    metrics = {name: stats["median"] for name, stats in rates.items()}
    metrics.update(exact)
    metrics.update(
        {
            "request.latency_p50_ms": percentile(ms, 0.5),
            "request.latency_p90_ms": percentile(ms, 0.9),
            "request.latency_p99_ms": percentile(ms, 0.99),
            "request.latency_samples": len(ms),
            "host.slowdown": percentile([timed.slowdown for timed in rounds], 0.5),
        }
    )
    wall_clock = {name: stats["median"] for name, stats in raw_rates.items()}
    wall_clock["request.latency_p50_ms"] = percentile(raw_ms, 0.5)
    wall_clock["request.latency_p90_ms"] = percentile(raw_ms, 0.9)
    return metrics, rates, wall_clock


def traced_metrics(
    args,
    workdir: Path,
    tracer: Tracer,
    share_of: float,
    traced_s: float,
    rounds: list[Round],
    mapper_runs: dict[str, int],
) -> dict[str, float]:
    """What every traced run adds: stage shares, tracing overhead, the layer probes.

    ``traced_s`` is the traced round's wall in the same (calibrated) seconds
    as the reference rounds it is compared with.
    """
    metrics = layers.stage_metrics(tracer, share_of, args.workload, mapper_runs)
    reference = percentile([timed.busy / timed.slowdown for timed in rounds], 0.5)
    metrics["trace.overhead_share"] = (traced_s - reference) / reference
    metrics.update(probes.service_steps(workdir))
    metrics["cli.cold_start_s"] = probes.cli_cold_start_s()
    metrics["partition.greedy_edge_s"] = probes.partition_s()
    metrics.update(probes.batch_executors())
    return metrics


def fingerprint(sizes: dict, workdir: Path, auto_resolved: dict) -> dict:
    backend, reason = jit.resolve_backend()
    partitioner, partitioner_reason = resolve_partitioner("auto")
    return {
        "numpy": numpy.__version__,
        "jit_rung": "none" if backend is None else backend.name,
        "jit_reason": reason,
        "jit_ladder": jit.available_backends(),
        "partitioner_rung": partitioner,
        "partitioner_reason": partitioner_reason,
        "auto_resolved": auto_resolved,
        "store_filesystem": filesystem_type(str(workdir)),
        "round_sizes": sizes,
    }


def measure(args, workdir: Path) -> dict:
    """Set up and measure ``args.workload``; the dict ``run.py`` reads back."""
    sizes = workloads.SIZES[args.size]
    setup = {"api.import_s": time.time() - args.t0}
    start = time.perf_counter()
    jit.warmup()
    setup["simnoc.jit.compile_s"] = time.perf_counter() - start
    if args.workload in workloads.IN_PROCESS:
        return measure_in_process(args, sizes, workdir, setup)
    return measure_service(args, sizes, workdir, setup)


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def measure_in_process(args, sizes: dict, workdir: Path, setup: dict) -> dict:
    requests = workloads.IN_PROCESS[args.workload](args.seed, 0, sizes)
    setup_s = time.time() - args.t0
    if args.phase == "setup":
        return {"setup_s": setup_s}

    checks = Checks()
    calibration = Calibration()
    cpu_start = time.process_time()
    _, reference, failures = inproc.run_front_door(requests, calibration)  # warm-up
    checks.add(0, failures)
    sha = inproc.digest(reference)
    exact = body_counts(reference)
    check_golden(checks, args, sha, exact)

    def one_round(index: int) -> tuple[float, list[float], int]:
        seconds, bodies, failures = inproc.run_front_door(requests, calibration)
        checks.add(len(requests), failures)
        checks.expect(
            inproc.digest(bodies) == sha, "a timed round's bodies differ from the warm-up's"
        )
        return sum(seconds), seconds, len(requests) - len(failures)

    rounds = timed_rounds(args, one_round, calibration)
    cpu_s = time.process_time() - cpu_start
    if args.workload != "map_suite":
        checks.expect(
            inproc.engines_agree(requests[-1]),
            "vector and cycle disagree on a short copy of the last request",
        )

    metrics, rates, wall_clock = summarize(rounds, exact)
    metrics["setup_s"] = setup_s
    metrics["host.cpu_ms_per_request"] = (
        cpu_s * 1000.0 / (len(requests) * (len(rounds) + 1))
    )
    auto_resolved: dict = {}
    tracer = Tracer()
    if args.trace:
        runner = inproc.StagedRunner(tracer)
        first = len(calibration.samples) - 1
        start = time.perf_counter()
        staged = runner.run_round(requests)
        traced_wall = time.perf_counter() - start
        calibration.sample(Calibration.BOUNDARY)
        checks.add(len(requests))
        checks.expect(
            staged == reference,
            "stage-wise responses are not byte-identical to the front door's",
        )
        auto_resolved = runner.auto_resolved
        metrics["trace.round_wall_s"] = traced_wall
        metrics.update(setup)
        metrics.update(
            traced_metrics(
                args,
                workdir,
                tracer,
                traced_wall,
                traced_wall / calibration.slowdown(first),
                rounds,
                runner.mapper_runs,
            )
        )
        metrics["service.boot_s"] = service.boot_seconds(workdir)
        if args.workload in ("sim_sweep", "sim_saturation"):
            regime = args.workload.removeprefix("sim_")
            kernel_s = tracer.self_times().get("simnoc.kernel", 0.0)
            metrics["simnoc.kernel_flit_hops_per_s"] = (
                runner.kernel_flit_hops / kernel_s if kernel_s else 0.0
            )
            metrics.update(probes.engine_ladder(regime, sizes["ladder_cycles"][regime]))

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": metrics,
        "spread": rates,
        "wall_clock": wall_clock,
        "clock": "calibrated host seconds",
        "rounds": len(rounds),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "sha256": sha,
        "exact": exact,
        "not_applicable": layers.not_applicable(args.workload),
        "spans": tracer.spans,
        "fingerprint": fingerprint(sizes, workdir, auto_resolved),
    }


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------
def measure_service(args, sizes: dict, workdir: Path, setup: dict) -> dict:
    generate = workloads.SERVICE[args.workload]
    warm = args.workload == "service_warm"
    checks = Checks()
    server = service.Server(workdir)
    try:
        client = server.client()
        pool = workloads.service_warm_pool(args.seed, sizes) if warm else []
        if pool:
            populated = service.run_round(server, pool)
            checks.add(len(pool), populated.failures)
            checks.expect(
                client.health()["store"]["executed"] == len(pool),
                "store population did not execute each pool request exactly once",
            )
        setup_s = time.time() - args.t0
        if args.phase == "setup":
            return {"setup_s": setup_s}

        warmup = service.run_round(server, generate(args.seed, 0, sizes))
        checks.add(0, warmup.failures)
        sent: list[list] = []
        results: list[service.RoundResult] = []

        def one_round(index: int) -> tuple[float, list[float], int]:
            sent.append(generate(args.seed, index, sizes))
            results.append(service.run_round(server, sent[-1]))
            checks.add(len(sent[-1]), results[-1].failures)
            correct = sum(body is not None for body in results[-1].bodies)
            return results[-1].wall, results[-1].latencies(), correct

        health_before = client.health()
        cpu_before = server.cpu_seconds()
        # Not rescaled: see README, *Calibrated seconds*.
        rounds = timed_rounds(args, one_round, Calibration(enabled=False))
        cpu_s = server.cpu_seconds() - cpu_before
        deltas = service.health_delta(health_before, client.health())
        timed_requests = sum(len(requests) for requests in sent)

        tracer = Tracer()
        if args.trace:
            sent.append(generate(args.seed, len(rounds) + 1, sizes))
            traced = service.run_round(server, sent[-1], tracer)
            checks.add(len(sent[-1]), traced.failures)
            results.append(traced)

        # Untimed output checks: a served body equals a local run's bytes —
        # every distinct warm body, every 10th cold one.
        served: dict[str, tuple] = {}
        for requests, result in zip(sent, results):
            for index, (request, body) in enumerate(zip(requests, result.bodies)):
                if body is not None and (warm or index % 10 == 0):
                    served.setdefault(canonical_request_key(request), (request, body))
        for request, body in served.values():
            checks.expect(
                canonical_response_bytes(run(request)) == body,
                "a served body differs from local canonical_response_bytes(run(request))",
            )
    finally:
        server.stop()

    first = [body for body in results[0].bodies if body is not None]
    sha = inproc.digest(first)
    exact = body_counts(first)
    exact["service.store.hit_ratio"] = deltas["service.store.hit_ratio"]
    exact["service.refused"] = sum(result.refused for result in results)
    check_golden(checks, args, sha, exact)

    metrics, rates, wall_clock = summarize(rounds, exact)
    metrics.update(deltas)
    metrics["setup_s"] = setup_s
    metrics["host.cpu_ms_per_request"] = cpu_s * 1000.0 / timed_requests
    metrics["peak_rss_mb"] = server.usage.ru_maxrss / 1024.0
    if args.trace:
        metrics["trace.round_wall_s"] = traced.wall
        metrics.update(setup)
        metrics.update(
            traced_metrics(
                args, workdir, tracer, sum(traced.latencies()), traced.wall, rounds, {}
            )
        )
        metrics["service.boot_s"] = server.boot_s
    return {
        "metrics": metrics,
        "spread": rates,
        "wall_clock": wall_clock,
        "clock": "wall-clock seconds",
        "rounds": len(rounds),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "sha256": sha,
        "exact": exact,
        "not_applicable": layers.not_applicable(args.workload),
        "spans": tracer.spans,
        "fingerprint": fingerprint(sizes, workdir, {}),
    }
