"""Request execution: the single front door every surface calls through.

``run()`` turns a typed request into a typed response; ``run_batch()`` fans
a list of requests over a thread pool or the warm worker-process pool
(:mod:`repro.api.pool`) — the shape the experiment runner, the benchmark
harness and the CLI ``compare`` subcommand all share instead of private
loops.  The default ``executor="thread"`` fits jobs that spend their time in
numpy kernels and LP solves; ``executor="process"`` sidesteps the GIL for
Python-bound jobs — saturation-load simulations above all — and is possible
precisely because every request and response payload is a frozen,
JSON-round-trippable (hence picklable) dataclass.

Simulation requests also share a small process-local cache of mapping and
routing results keyed by the serialized map request: the points of a
``latency_sweep`` differ only in injection rate, so the mapper and the
routing table are computed once per sweep instead of once per point.  The
cache can never change a result — mappers and routers are deterministic
functions of the request (the batch determinism contract) — it only skips
recomputing one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path

from repro.api.registry import get_mapper
from repro.api.specs import (
    ErrorResponse,
    MapRequest,
    MapResponse,
    SimRequest,
    SimResponse,
)
from repro.apps import get_app
from repro.errors import ApiError, FaultError, RoutingError
from repro.faults.reroute import fault_reroute
from repro.graphs.commodities import build_commodities
from repro.graphs.core_graph import CoreGraph
from repro.graphs.io import core_graph_from_dict, load_core_graph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.metrics.bandwidth import min_bandwidth_min_path, min_bandwidth_split
from repro.routing.dimension_ordered import xy_routing
from repro.routing.min_path import is_min_path_routing_of, min_path_routing
from repro.simnoc import SimConfig
from repro.simnoc.network import build_network, build_synthetic_network
from repro.simnoc.simulator import SimulationReport, Simulator


def resolve_app(spec: str | dict) -> CoreGraph:
    """Resolve a request's ``app`` field: name, JSON path or inline payload."""
    if isinstance(spec, dict):
        return core_graph_from_dict(spec)
    if spec.endswith(".json") or "/" in spec:
        return load_core_graph(Path(spec))
    return get_app(spec)


def execute_map(request: MapRequest) -> tuple[NoCTopology, MappingResult]:
    """Run a map request at the object level (no serialization).

    This is the core :func:`run_map` wraps; callers that need the live
    :class:`~repro.mapping.base.Mapping`/routing objects (the ``design``
    and ``simulate`` surfaces, custom experiments) use it directly.

    When the request carries a fault scenario, the returned topology is the
    degraded view the mapper actually placed onto (failed routers excluded,
    surviving-hop distances); routing failures on the degraded fabric are
    re-raised as :class:`~repro.errors.FaultError` so callers can tell a
    fault-impossible scenario from a mapper bug.
    """
    app = resolve_app(request.app)
    topology = request.topology.build(app)
    if request.faults is not None and not request.faults.is_empty:
        topology = request.faults.apply(topology)
        entry = get_mapper(request.mapper)
        try:
            result = entry.run(app, topology, request.resolved_options())
        except RoutingError as exc:
            raise FaultError(
                f"mapping on the fault-degraded fabric failed: {exc}"
            ) from exc
        return topology, result
    entry = get_mapper(request.mapper)
    result = entry.run(app, topology, request.resolved_options())
    return topology, result


def _build_map_response(
    request: MapRequest,
    topology: NoCTopology,
    result: MappingResult,
    price_bandwidth: bool,
) -> MapResponse:
    """The one place a MappingResult becomes a serializable response."""
    min_bw_single = min_bw_split = None
    if price_bandwidth and result.feasible:
        min_bw_single = min_bandwidth_min_path(result.mapping, result.routing)[0]
        min_bw_split = min_bandwidth_split(result.mapping)[0]
    return MapResponse(
        request=request,
        app_name=result.mapping.core_graph.name,
        algorithm=result.algorithm,
        topology=request.topology.resolved_for(topology),
        comm_cost=result.comm_cost,
        feasible=result.feasible,
        placement=result.mapping.placement,
        min_bw_single=min_bw_single,
        min_bw_split=min_bw_split,
        stats=dict(result.stats),
    )


def run_map(request: MapRequest) -> MapResponse:
    """Execute one mapping request and package the serializable response."""
    topology, result = execute_map(request)
    return _build_map_response(request, topology, result, request.price_bandwidth)


# ----------------------------------------------------------------------
# canonical request keying (shared by every request-content cache)
# ----------------------------------------------------------------------
def canonical_request_blob(request: MapRequest | SimRequest) -> str:
    """The canonical serialized form of a request.

    Sorted keys, no whitespace: the one string representation every
    request-content cache keys on — this module's per-process map/routing
    caches and the service's on-disk result store
    (:class:`repro.service.store.ResultStore`) — so the in-memory and
    persistent tiers can never disagree about what "the same request"
    means.  Requests are frozen and ``to_dict`` is total, so the blob is a
    pure function of the payload.
    """
    if not isinstance(request, (MapRequest, SimRequest)):
        raise ApiError(
            f"cannot compute a request key for a {type(request).__name__}"
        )
    return json.dumps(request.to_dict(), sort_keys=True, separators=(",", ":"))


def canonical_request_key(request: MapRequest | SimRequest) -> str:
    """SHA-256 hex digest of :func:`canonical_request_blob`.

    This is the content address of a request: equal requests hash equal
    regardless of how they were constructed (Python, JSON, over the wire),
    and the key is stable across processes and sessions — golden values are
    pinned in ``tests/api/test_canonical_key.py``.  Keys are only
    comparable within one ``SCHEMA_VERSION`` (the blob embeds it), which is
    what lets the persistent store namespace entries by schema.
    """
    return hashlib.sha256(canonical_request_blob(request).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# per-process request caches (sweep reuse)
# ----------------------------------------------------------------------
#: Bound on each cache; a sweep touches one mapping, experiments a handful.
_CACHE_LIMIT = 64


class _SyncedLRUCache:
    """A bounded LRU mapping guarded by its own lock.

    The service submits concurrently from several worker threads while
    tests and long-lived deployments may call :func:`clear_request_caches`
    at any moment — every dict operation (lookup + recency bump, insert +
    eviction, clear) happens atomically under the lock so a clear can never
    race a half-finished update.
    """

    def __init__(self, limit: int) -> None:
        self._limit = limit
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            while len(self._data) > self._limit:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_map_cache = _SyncedLRUCache(_CACHE_LIMIT)
_routing_cache = _SyncedLRUCache(_CACHE_LIMIT)

#: The in-memory tiers key on the same canonical content address as the
#: service's persistent store (one keying scheme end to end).
_map_cache_key = canonical_request_key


def clear_request_caches() -> None:
    """Drop the mapping/routing caches (tests, long-lived services).

    Thread-safe against concurrent submissions: a request racing the clear
    either sees its entry (and reuses it) or recomputes — never a torn
    cache state.
    """
    _map_cache.clear()
    _routing_cache.clear()


def _cached_execute_map(request: MapRequest) -> tuple[NoCTopology, MappingResult]:
    """``execute_map`` with sweep reuse.

    Safe to share across threads because every consumer treats the mapping
    and topology as read-only (commodities and simulator fabrics are built
    fresh per request), and safe to cache at all because mapping results
    are deterministic functions of the request payload.
    """
    key = _map_cache_key(request)
    value = _map_cache.get(key)
    if value is None:
        value = execute_map(request)
        _map_cache.put(key, value)
    return value


def _prepare_sim(request: SimRequest):
    """Map, route and build the simulator for a request — without running it.

    Returns ``(simulator, map_response)``.  :func:`run_sim` is this plus
    ``simulator.run()``; the ``replica`` batch executor splits the two so
    it can hand many prepared simulators to
    :func:`repro.simnoc.engines.vector.run_replicas` at once.
    """
    options = request.options
    topology, result = _cached_execute_map(request.map_request)
    sim_faults = request.faults
    sim_topology = topology
    if sim_faults is not None and not sim_faults.is_empty:
        # Sim-time faults hit a fabric the mapper never saw: the placement
        # is kept, the topology view degrades further, and traffic must be
        # rerouted (and deadlock-re-checked) around the failures.
        sim_topology = sim_faults.apply(topology)
    map_faults = request.map_request.faults
    faults_active = sim_topology is not topology or (
        map_faults is not None and not map_faults.is_empty
    )
    config = SimConfig(
        warmup_cycles=request.warmup_cycles,
        measure_cycles=request.measure_cycles,
        drain_cycles=request.drain_cycles,
        mean_burst_packets=request.mean_burst_packets,
        seed=request.sim_seed,
        num_vcs=options.num_vcs,
        vc_buffer_depth=options.vc_buffer_depth,
    )
    if options.traffic == "trace":
        mapping = result.mapping
        commodities = build_commodities(mapping.core_graph, mapping)
        if faults_active:
            # Any active fault (map-time or sim-time) routes through the
            # fault-aware path: surviving minimal paths with the mandatory
            # deadlock-freedom re-check.  FaultError propagates when the
            # scenario disconnects a commodity or reroutes into a cycle.
            routing_key = (
                _map_cache_key(request.map_request),
                request.routing,
                json.dumps(
                    None if sim_faults is None else sim_faults.to_dict(),
                    sort_keys=True,
                ),
            )
            routing = _routing_cache.get(routing_key)
            if routing is None:
                routing = fault_reroute(sim_topology, commodities)
                _routing_cache.put(routing_key, routing)
        elif result.routing is not None and request.routing == "auto" and (
            request.map_request.mapper.startswith("nmap-t")
        ):
            # The split variants' own fractional routing is the point of
            # those mappers; everything else is priced with minimum paths.
            routing = result.routing
        elif request.routing == "xy":
            # XY tables are a pure function of the mapping: sweep points
            # share one computation.
            routing_key = (_map_cache_key(request.map_request), "xy", None)
            routing = _routing_cache.get(routing_key)
            if routing is None:
                routing = xy_routing(topology, commodities)
                _routing_cache.put(routing_key, routing)
        elif is_min_path_routing_of(result.routing, topology, commodities):
            # The mapper's own min-path routing ("min-path" or the "auto"
            # default): read (and, when the mapper deferred it, computed)
            # once on the cached result, so sweep points share it.
            routing = result.routing
        else:
            # A mapper whose routing is not min-path (a split mapper under
            # routing="min-path") is routed afresh.
            routing = min_path_routing(topology, commodities)
        network = build_network(sim_topology, commodities, routing, config)
    else:
        # Synthetic patterns drive the mapped topology directly (XY
        # routes); the mapper still runs because the response contract
        # always carries a map_response describing the fabric under test —
        # callers sweeping synthetic load should pair these requests with a
        # cheap mapper (the default nmap maps VOPD in ~2 ms).
        network = build_synthetic_network(
            topology, config, options.traffic, options.injection_rate
        )
    # Bandwidth pricing is skipped here regardless of the map request's
    # flag: the simulation itself is the bandwidth evidence.
    map_response = _build_map_response(
        request.map_request, topology, result, price_bandwidth=False
    )
    sim = Simulator(
        network,
        engine=options.engine,
        shards=options.shards,
        partitioner=options.partitioner,
    )
    return sim, map_response


def run_sim(request: SimRequest) -> SimResponse:
    """Execute one simulation request (map, route, simulate, summarize).

    Every RNG stream of the run derives from the request's own seeds
    (``sim_seed`` for traffic, the map request's ``seed`` for stochastic
    mappers) plus a stable per-component stream index — never from shared
    global state — so the response is a pure function of the request
    regardless of batch worker counts (see :func:`run_batch`).
    """
    simulator, map_response = _prepare_sim(request)
    return _build_sim_response(request, map_response, simulator.run())


def _build_sim_response(
    request: SimRequest, map_response: MapResponse, report: SimulationReport
) -> SimResponse:
    """The one place a SimulationReport becomes a serializable response."""
    stats = report.stats
    return SimResponse(
        request=request,
        map_response=map_response,
        packets_measured=stats.count,
        latency_mean=stats.mean,
        latency_mean_network=stats.mean_network,
        latency_p50=stats.p50,
        latency_p95=stats.p95,
        latency_p99=stats.p99,
        latency_max=stats.maximum,
        packets_created=report.packets_created,
        packets_delivered=report.packets_delivered,
        cycles=report.cycles,
        link_utilization={
            f"{src}->{dst}": utilization
            for (src, dst), utilization in report.link_utilization.items()
        },
        link_flits={
            f"{src}->{dst}": carried
            for (src, dst), carried in report.link_flits.items()
        },
        per_flow={
            str(flow): {
                "count": flow_stats.count,
                "mean": flow_stats.mean,
                "p50": flow_stats.p50,
                "p95": flow_stats.p95,
                "std": flow_stats.std,
                "jitter": flow_stats.jitter,
                "histogram": list(flow_stats.histogram),
            }
            for flow, flow_stats in report.per_flow.items()
        },
    )


def run(request: MapRequest | SimRequest) -> MapResponse | SimResponse:
    """Dispatch one request to its executor by payload type."""
    if isinstance(request, MapRequest):
        return run_map(request)
    if isinstance(request, SimRequest):
        return run_sim(request)
    raise ApiError(f"cannot run a {type(request).__name__}")


#: Executors ``run_batch`` can fan out over.
BATCH_EXECUTORS = ("serial", "thread", "process", "replica")

def _timeout_message(timeout: float) -> str:
    return f"request did not complete within {timeout} s"


def _guarded_run(
    request: MapRequest | SimRequest, timeout: float | None
) -> MapResponse | SimResponse | ErrorResponse:
    """Run one batch slot; never raises.

    Exceptions become :class:`ErrorResponse` payloads carrying the
    exception class name and message — the same strings every executor
    produces, so batch results stay byte-identical across serial, thread
    and process execution.  When the run outlasts ``timeout``, the (late)
    result is discarded for the timeout error, mirroring what the pool
    front-end reports when it stops waiting.
    """
    start = time.monotonic()
    try:
        response: MapResponse | SimResponse | ErrorResponse = run(request)
    except Exception as exc:  # noqa: BLE001 — slot isolation is the contract
        response = ErrorResponse(
            request=request, error=type(exc).__name__, message=str(exc)
        )
    if timeout is not None and time.monotonic() - start > timeout:
        return ErrorResponse(
            request=request, error="BatchError", message=_timeout_message(timeout)
        )
    return response


def _run_replica_batch(
    requests: list[MapRequest | SimRequest],
) -> list[MapResponse | SimResponse | ErrorResponse]:
    """The ``executor="replica"`` path: prepare every vector sim, then run them.

    Every sim request whose resolved engine is the vector engine is
    prepared (map, route, network build) up front, then all of them
    advance through :func:`repro.simnoc.engines.vector.run_replicas` —
    one compiled call per program when a JIT backend is available,
    bit-identical interpreted fallback otherwise.  Map
    requests and sims pinned to other engines run in-process exactly as
    the serial executor would, so the response list is byte-identical to
    ``executor="serial"`` in every slot, in request order.
    """
    from repro.simnoc.engines.auto import resolve_auto_engine
    from repro.simnoc.engines.vector import run_replicas

    results: list = [None] * len(requests)
    prepared: list[tuple[int, SimRequest, Simulator, MapResponse]] = []
    for index, request in enumerate(requests):
        if not isinstance(request, SimRequest):
            results[index] = _guarded_run(request, None)
            continue
        try:
            simulator, map_response = _prepare_sim(request)
            engine = simulator.engine_name
            if engine == "auto":
                engine = resolve_auto_engine(simulator.network)
        except Exception as exc:  # noqa: BLE001 — slot isolation, as serial
            results[index] = ErrorResponse(
                request=request, error=type(exc).__name__, message=str(exc)
            )
            continue
        if engine != "vector":
            # Pinned to cycle/event/sharded: the replica kernel cannot
            # batch it, so the slot runs like a serial one.
            try:
                report = simulator.run()
                results[index] = _build_sim_response(request, map_response, report)
            except Exception as exc:  # noqa: BLE001
                results[index] = ErrorResponse(
                    request=request, error=type(exc).__name__, message=str(exc)
                )
            continue
        prepared.append((index, request, simulator, map_response))

    if prepared:
        errors = run_replicas([simulator for _, _, simulator, _ in prepared])
        for (index, request, simulator, map_response), error in zip(
            prepared, errors
        ):
            if error is not None:
                results[index] = ErrorResponse(
                    request=request, error=type(error).__name__, message=str(error)
                )
                continue
            try:
                report = simulator._build_report()
                results[index] = _build_sim_response(request, map_response, report)
            except Exception as exc:  # noqa: BLE001
                results[index] = ErrorResponse(
                    request=request, error=type(exc).__name__, message=str(exc)
                )
    return results


def run_batch(
    requests: list[MapRequest | SimRequest],
    workers: int | None = None,
    executor: str = "thread",
    timeout: float | None = None,
    retries: int = 1,
    isolate: bool = False,
) -> list[MapResponse | SimResponse | ErrorResponse]:
    """Run many requests concurrently; responses keep request order.

    Determinism contract (regression-tested): every response is a pure
    function of its own request.  All RNG streams derive from the seeds
    carried *in* the request payload plus stable per-component stream
    indices — mapper seeds via their options, trace traffic via its
    per-commodity streams, synthetic injectors via
    :func:`repro.seeding.derive_seed` — and no job reads shared global RNG
    state, so ``workers=1`` and ``workers=8``, threads and processes, all
    produce byte-identical response payloads, in the same order.

    Failure contract: one bad request never aborts the batch.  A request
    that raises yields an :class:`ErrorResponse` in its slot (same payload
    on every executor); a request that outlives ``timeout`` yields a
    ``BatchError``-typed ``ErrorResponse``; a process worker that *dies*
    (segfault, OOM kill) breaks only the one slot it was running — the
    worker is replaced (:class:`repro.api.pool.WorkerPool`), the slot is
    retried up to ``retries`` times, and a slot still failing after that
    yields a ``BatchError``-typed ``ErrorResponse``.  Every other slot
    completes normally, on its first attempt.

    Args:
        requests: any mix of map and sim requests.
        workers: worker count; defaults to ``min(len(requests), cpu_count)``
            and degrades to serial execution for empty/singleton batches.
        executor: ``"serial"`` (in-process, no pool — the reference
            executor), ``"thread"`` (default; fine for numpy/LP-bound
            mapping jobs), ``"process"`` (true multi-core for
            Python-bound jobs — high-load simulation sweeps above all;
            requests and responses cross the process boundary as pickled
            frozen payloads) or ``"replica"`` (in-process; sim requests
            resolving to the vector engine are all prepared and flattened
            first, then advanced back to back by the compiled kernel —
            measured at ≈ 1.0x of ``"serial"``, PERFORMANCE.md — while
            every other slot runs serially.  Responses
            stay byte-identical to ``"serial"``.  Incompatible with
            ``timeout``; ``workers``/``retries``/``isolate`` are pool
            parameters and have no effect).
        timeout: per-request wall-clock budget in seconds; None disables.
            The process executor kills a late slot's worker and replaces
            it, so the caller is answered when the budget runs out; the
            thread executor stops waiting on the slot but cannot stop its
            thread, so the call returns once the late run ends; the serial
            executor detects the overrun after the fact.  In every case
            the slot reports the same payload.
        retries: extra attempts for a slot whose process worker died.
        isolate: force pool dispatch even for singleton / single-worker
            batches, which otherwise degrade to in-process serial
            execution, so every ``executor="process"`` request keeps crash
            isolation — a request that kills its worker must not kill the
            caller.  No effect with ``executor="serial"``.

    Raises:
        ApiError: for a non-positive worker count, unknown executor,
            non-positive timeout or negative retries.
    """
    if executor not in BATCH_EXECUTORS:
        raise ApiError(
            f"executor must be one of {', '.join(BATCH_EXECUTORS)}, "
            f"got {executor!r}"
        )
    if timeout is not None and timeout <= 0:
        raise ApiError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ApiError(f"retries must be >= 0, got {retries}")
    if executor == "replica":
        if timeout is not None:
            raise ApiError(
                "the replica executor prepares every slot before it runs "
                "any; per-request timeouts are not supported"
            )
        return _run_replica_batch(requests)
    if not requests:
        return []
    if workers is None:
        workers = min(len(requests), os.cpu_count() or 1)
    if workers < 1:
        raise ApiError(f"workers must be >= 1, got {workers}")
    if executor == "serial" or (
        not isolate and (workers == 1 or len(requests) == 1)
    ):
        return [_guarded_run(request, timeout) for request in requests]

    if executor == "process":
        from repro.api.pool import WorkerPool  # it imports this module

        with WorkerPool(workers) as pool:
            return pool.map(requests, timeout, retries)

    results: list = [None] * len(requests)
    with ThreadPoolExecutor(max_workers=workers) as threads:
        futures = [
            threads.submit(_guarded_run, request, timeout) for request in requests
        ]
        for index, (request, future) in enumerate(zip(requests, futures)):
            try:
                results[index] = future.result(timeout=timeout)
            except FuturesTimeoutError:
                results[index] = ErrorResponse(
                    request=request,
                    error="BatchError",
                    message=_timeout_message(timeout),
                )
    return results


def rebuild_mapping(response: MapResponse) -> Mapping:
    """Reconstruct the live :class:`Mapping` a response describes.

    The response's placement plus the resolved topology are a complete
    description, so cached/logged responses can be rehydrated for
    rendering, re-routing or simulation without re-running the mapper.
    """
    app = resolve_app(response.request.app)
    topology = response.topology.build(app)
    if response.request.faults is not None and not response.request.faults.is_empty:
        topology = response.request.faults.apply(topology)
    return Mapping(app, topology, response.placement)
