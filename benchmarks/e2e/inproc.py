"""Running requests in this process: through the front door, and stage by stage.

``run_front_door`` is what the end-to-end metrics time: ``repro.api.run``
per request.  ``StagedRunner`` executes the same requests by composing the
layers' public calls in the order ``run_map`` / ``run_sim`` compose them,
each wrapped in a span; its responses must be byte-identical to the front
door's, otherwise the decomposition measured a different program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

from repro.api import (
    MapRequest,
    SimRequest,
    canonical_request_key,
    clear_request_caches,
    get_mapper,
    resolve_app,
    run,
)

# The two private response builders are imported on purpose: re-deriving
# ~60 lines of field plumbing here would drift, and they time nothing.
from repro.api.engine import _build_map_response, _build_sim_response
from repro.faults.reroute import fault_reroute
from repro.graphs.commodities import build_commodities
from repro.metrics.bandwidth import min_bandwidth_min_path, min_bandwidth_split
from repro.routing.min_path import min_path_routing
from repro.service.wire import canonical_response_bytes
from repro.simnoc import SimConfig
from repro.simnoc.engines.auto import resolve_auto_engine
from repro.simnoc.engines.base import get_engine
from repro.simnoc.engines.flat_kernel import KernelProgram, kernel_unsupported
from repro.simnoc.engines.jit import resolve_backend
from repro.simnoc.network import build_network, build_synthetic_network
from repro.simnoc.simulator import Simulator

from harness import Calibration, Tracer


def digest(bodies: list[bytes]) -> str:
    """sha256 over a round's canonical response bytes, in request order."""
    sha = hashlib.sha256()
    for body in bodies:
        sha.update(body)
    return sha.hexdigest()


def run_front_door(
    requests: list, calibration: Calibration
) -> tuple[list[float], list[bytes], list[str]]:
    """One untraced round: per-request seconds, canonical bodies, failures.

    A request's time covers ``run`` and the canonical serialization every
    surface (CLI, service, batch) performs before a caller sees a result.
    The request caches are dropped first so every round is a fresh sweep:
    the first request on a fabric maps and routes, later ones reuse — the
    reuse a real sweep gets, and no more.  A calibration sample follows each
    request, outside its timing.
    """
    clear_request_caches()
    seconds: list[float] = []
    bodies: list[bytes] = []
    failures: list[str] = []
    for index, request in enumerate(requests):
        start = time.perf_counter()
        try:
            body = canonical_response_bytes(run(request))
        except Exception as exc:  # noqa: BLE001 — a failed operation, counted
            failures.append(f"request {index}: {type(exc).__name__}: {exc}")
            body = b""
        seconds.append(time.perf_counter() - start)
        bodies.append(body)
        calibration.sample(Calibration.INTERLEAVED)
    return seconds, bodies, failures


class StagedRunner:
    """Execute requests stage by stage, recording one span per layer call."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.auto_resolved: dict[str, str] = {}
        self.kernel_flit_hops = 0
        self.mapper_runs: dict[str, int] = {}
        # Per-round stand-ins for the front door's process-local caches.
        self._maps: dict[str, tuple] = {}
        self._routes: dict[tuple, object] = {}

    def run_round(self, requests: list) -> list[bytes]:
        """Stage every request of a round; returns the canonical bodies."""
        self._maps.clear()
        self._routes.clear()
        bodies = []
        for index, request in enumerate(requests):
            staged = (
                self._stage_map if isinstance(request, MapRequest) else self._stage_sim
            )
            with self.tracer.span("request", request_id=f"r{index}"):
                response = staged(request)
                with self.tracer.span("api.serialize"):
                    bodies.append(canonical_response_bytes(response))
        return bodies

    def _execute_map(self, request: MapRequest):
        span = self.tracer.span
        with span("api.resolve_app"):
            app = resolve_app(request.app)
        with span("graphs.topology_build"):
            topology = request.topology.build(app)
        self.mapper_runs[request.mapper] = self.mapper_runs.get(request.mapper, 0) + 1
        with span(f"mapping.{request.mapper}"):
            result = get_mapper(request.mapper).run(
                app, topology, request.resolved_options()
            )
        return topology, result

    def _stage_map(self, request: MapRequest):
        span = self.tracer.span
        topology, result = self._execute_map(request)
        response = _build_map_response(request, topology, result, False)
        if request.price_bandwidth and result.feasible:
            with span("metrics.price_single"):
                single = min_bandwidth_min_path(result.mapping)[0]
            with span("metrics.price_split"):
                split = min_bandwidth_split(result.mapping)[0]
            response = dataclasses.replace(
                response, min_bw_single=single, min_bw_split=split
            )
        with span("api.request_key"):
            canonical_request_key(request)
        return response

    def _stage_sim(self, request: SimRequest):
        span = self.tracer.span
        options = request.options
        with span("api.request_key"):
            map_key = canonical_request_key(request.map_request)
        if map_key not in self._maps:
            self._maps[map_key] = self._execute_map(request.map_request)
        topology, result = self._maps[map_key]
        sim_topology = topology
        faulty = request.faults is not None and not request.faults.is_empty
        if faulty:
            sim_topology = request.faults.apply(topology)
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
            with span("graphs.commodities"):
                commodities = build_commodities(
                    result.mapping.core_graph, result.mapping
                )
            route_key = (
                map_key,
                json.dumps(request.faults.to_dict(), sort_keys=True) if faulty else None,
            )
            if route_key not in self._routes:
                if faulty:
                    with span("faults.reroute"):
                        self._routes[route_key] = fault_reroute(
                            sim_topology, commodities
                        )
                else:
                    with span("routing.min_path"):
                        self._routes[route_key] = min_path_routing(
                            topology, commodities
                        )
            with span("simnoc.build_network"):
                network = build_network(
                    sim_topology, commodities, self._routes[route_key], config
                )
        else:
            with span("simnoc.build_network"):
                network = build_synthetic_network(
                    topology, config, options.traffic, options.injection_rate
                )
        map_response = _build_map_response(request.map_request, topology, result, False)
        sim = Simulator(
            network,
            engine=options.engine,
            shards=options.shards,
            partitioner=options.partitioner,
        )
        engine = options.engine
        if engine == "auto":
            engine = resolve_auto_engine(network)
            self.auto_resolved[canonical_request_key(request)[:12]] = engine
        backend, _ = resolve_backend()
        vc_mode = network.config.effective_router_model == "wormhole-vc"
        on_kernel = (
            engine == "vector"
            and backend is not None
            and kernel_unsupported(sim, vc_mode) is None
        )
        if on_kernel:
            with span("simnoc.flatten"):
                program = KernelProgram(sim, vc_mode)
            with span("simnoc.kernel"):
                backend.run([program])
            with span("simnoc.writeback"):
                program.finish(sim)
        else:
            with span(f"simnoc.engine_{engine}"):
                get_engine(engine).run(sim)
        with span("simnoc.report"):
            report = sim._build_report()
        if on_kernel:
            self.kernel_flit_hops += sum(report.link_flits.values())
        return _build_sim_response(request, map_response, report)


def engines_agree(request: SimRequest) -> bool:
    """A short copy of ``request`` must be byte-identical on ``vector`` and ``cycle``.

    The request echo names the engine, so both bodies are built around the
    unpinned request.
    """
    short = dataclasses.replace(
        request, measure_cycles=200, warmup_cycles=20, drain_cycles=60
    )
    bodies = []
    for engine in ("vector", "cycle"):
        pinned = dataclasses.replace(
            short, options=dataclasses.replace(short.options, engine=engine)
        )
        bodies.append(
            canonical_response_bytes(dataclasses.replace(run(pinned), request=short))
        )
    return bodies[0] == bodies[1]
