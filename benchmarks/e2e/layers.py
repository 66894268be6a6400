"""Which layer metrics each workload's traced run measures.

A traced run must print every per-layer metric ``BENCHMARK.json`` declares,
but a workload only enters some layers.  This table is the one statement of
which: ``run.py`` reports a metric as 0 only when the table says the
workload never enters its layer, and refuses a run in which any other
declared metric was not measured — so a probe or span that stops reporting
fails the run instead of reading as 0.

Inside a workload's own layers a stage may still see no call on a given
host or size (the compiled-kernel stages without a JIT backend, the
interpreted vector engine with one, ``annealing`` at the smoke size); those
are measured, and read 0.
"""

from __future__ import annotations

from harness import Tracer

# ``api.glue`` is the root ``request`` span's own time: the glue between stages.
_MAP = ("api.resolve_app", "graphs.topology_build", "api.request_key", "api.serialize", "api.glue")
_MAPPERS = ("nmap", "nmap-tm", "nmap-ta", "pmap", "gmap", "pbb", "annealing", "hmap")
# A ``vector`` request runs on the kernel (flatten, kernel, writeback) when a
# JIT backend resolves and in the engine's interpreted loops otherwise.
_VECTOR = ("simnoc.flatten", "simnoc.kernel", "simnoc.writeback", "simnoc.engine_vector")
_CLIENT = ("service.submit", "service.complete")

#: Span names the stage-by-stage round of each workload can produce.
STAGES = {
    "map_suite": _MAP
    + tuple(f"mapping.{mapper}" for mapper in _MAPPERS)
    + ("metrics.price_single", "metrics.price_split"),
    "sim_saturation": _MAP
    + ("mapping.nmap", "simnoc.build_network", "simnoc.report")
    + _VECTOR,
    "sim_sweep": _MAP
    + ("mapping.nmap", "graphs.commodities", "routing.min_path", "faults.reroute")
    + ("simnoc.build_network", "simnoc.report", "simnoc.engine_cycle", "simnoc.engine_event")
    + _VECTOR,
    "service_cold": _CLIENT,
    "service_warm": _CLIENT,
}

LADDER_RUNGS = ("cycle", "event", "vector", "vector_pytwin", "vector_nojit", "sharded2")
_SERVER_COUNTERS = (
    "service.store.hit_ratio",
    "service.store.executed",
    "service.store.hits",
    "service.journal.accepted",
    "service.journal.compactions",
    "service.refused",
)


def ladder_metric(rung: str, regime: str) -> str:
    return f"simnoc.engine.{rung}.cycles_per_s.{regime}"


#: Metrics other than stage shares that only some workloads measure.
_OWN = {
    "map_suite": (),
    "sim_saturation": ("simnoc.kernel_flit_hops_per_s",)
    + tuple(ladder_metric(rung, "saturation") for rung in LADDER_RUNGS),
    "sim_sweep": ("simnoc.kernel_flit_hops_per_s",)
    + tuple(ladder_metric(rung, "sweep") for rung in LADDER_RUNGS),
    "service_cold": _SERVER_COUNTERS,
    "service_warm": _SERVER_COUNTERS,
}


def _stage_metric_names(stage: str) -> tuple[str, ...]:
    if stage.startswith("mapping."):
        return (f"{stage}.busy_share", f"{stage}.maps_per_s")
    return (f"{stage}_share",)


def _measured_by(workload: str) -> set[str]:
    names = set(_OWN[workload])
    for stage in STAGES[workload]:
        names.update(_stage_metric_names(stage))
    return names


def not_applicable(workload: str) -> list[str]:
    """Layer metrics ``workload`` never measures because it never enters the layer."""
    everything = set().union(*(_measured_by(name) for name in STAGES))
    return sorted(everything - _measured_by(workload))


def stage_metrics(
    tracer: Tracer, wall: float, workload: str, mapper_runs: dict[str, int]
) -> dict[str, float]:
    """Every stage of ``workload``: self time as a share of ``wall``, mappers also runs/s.

    A span the table does not list for this workload is an error: the
    decomposition and the table have drifted apart.
    """
    self_times = {
        ("api.glue" if name == "request" else name): seconds
        for name, seconds in tracer.self_times().items()
    }
    # The service workloads' root span is exactly its two children.
    if "api.glue" not in STAGES[workload]:
        self_times.pop("api.glue", None)
    unknown = sorted(set(self_times) - set(STAGES[workload]))
    if unknown:
        raise RuntimeError(f"{workload}: spans layers.STAGES does not list: {unknown}")
    metrics = {}
    for stage in STAGES[workload]:
        seconds = self_times.get(stage, 0.0)
        names = _stage_metric_names(stage)
        metrics[names[0]] = seconds / wall
        if len(names) == 2:
            runs = mapper_runs.get(stage.removeprefix("mapping."), 0)
            metrics[names[1]] = runs / seconds if runs else 0.0
    return metrics
