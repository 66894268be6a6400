"""Typed, JSON-round-trippable request/response payloads (the API facade).

Every surface of the repository (CLI, experiments, benchmarks, examples,
and any future service) speaks these four payloads:

* :class:`MapRequest` -> :class:`MapResponse` — run one mapping algorithm.
* :class:`SimRequest` -> :class:`SimResponse` — map, then simulate packets.

All of them are frozen dataclasses with ``to_dict``/``from_dict`` that
round-trip losslessly through ``json.dumps``; payloads carry a schema
version so cached/logged responses stay readable as the format evolves.
Option payloads are validated when the request is *built* (typos fail
before a batch fans out, not minutes into it).

:class:`TopologySpec` is the serializable description of the NoC — it
parses the CLI's ``--topology`` strings (``"mesh:4x4"``, ``"torus:8x8"``,
``"auto"``) and builds the concrete :class:`~repro.graphs.topology
.NoCTopology` on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.api.options import MapperOptions, check_partitioner
from repro.api.registry import get_mapper, with_seed
from repro.errors import ApiError
from repro.faults.spec import FaultSpec
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology

#: Version stamped into every serialized payload.
SCHEMA_VERSION = 1

_TOPOLOGY_KINDS = ("auto", "mesh", "torus")


def _encode_float(value: float) -> float | str:
    """JSON-safe float: infinities become the string ``"inf"``."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_float(value: Any) -> float:
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ApiError(f"expected a number, got {value!r}")
    return float(value)


def _is_real(value: Any, above: float) -> bool:
    """A finite ``int`` / ``float`` (never a ``bool``) greater than ``above``."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and math.isfinite(value) and value > above


def _check_int(value: Any, name: str, minimum: int | None = None) -> None:
    """Reject anything but an ``int`` (``bool`` excluded) of at least ``minimum``."""
    if type(value) is not int or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ApiError(f"{name} must be an int{floor}, got {value!r}")


def _check_envelope(payload: Any, kind: str) -> dict[str, Any]:
    """Validate the ``schema``/``kind`` envelope shared by every payload."""
    if not isinstance(payload, dict):
        raise ApiError(f"{kind} payload must be a dict, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ApiError(
            f"unsupported {kind} schema {schema!r}; this build reads "
            f"schema {SCHEMA_VERSION}"
        )
    if payload.get("kind") != kind:
        raise ApiError(f"expected kind {kind!r}, got {payload.get('kind')!r}")
    return payload


def _required(data: dict[str, Any], key: str, kind: str) -> Any:
    """A required payload field, or :class:`ApiError` naming what's missing."""
    try:
        return data[key]
    except KeyError:
        raise ApiError(f"{kind} payload is missing required field {key!r}") from None


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Serializable description of the NoC topology to map onto.

    Attributes:
        kind: ``"auto"`` (smallest near-square mesh fitting the app),
            ``"mesh"`` or ``"torus"``.
        width/height: grid dimensions; required unless ``kind == "auto"``.
        link_bandwidth: uniform link capacity in MB/s; None defaults to the
            application's total bandwidth (every routing feasible — the
            paper's pure-cost comparison regime).
    """

    kind: str = "auto"
    width: int | None = None
    height: int | None = None
    link_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TOPOLOGY_KINDS:
            raise ApiError(
                f"topology kind must be one of {', '.join(_TOPOLOGY_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.kind == "auto":
            if self.width is not None or self.height is not None:
                raise ApiError("auto topology must not carry explicit dimensions")
        else:
            if self.width is None or self.height is None:
                raise ApiError(f"{self.kind} topology needs explicit width and height")
            _check_int(self.width, "topology width", 1)
            _check_int(self.height, "topology height", 1)
        if self.link_bandwidth is not None and not _is_real(self.link_bandwidth, 0):
            raise ApiError(
                f"link bandwidth must be finite and positive, got {self.link_bandwidth!r}"
            )

    @classmethod
    def parse(cls, text: str, link_bandwidth: float | None = None) -> "TopologySpec":
        """Parse a CLI-style spec string.

        Accepted forms: ``"auto"``, ``"mesh:4x4"`` and ``"torus:8x8"``.
        """
        spec = text.strip().lower()
        if spec == "auto":
            return cls(kind="auto", link_bandwidth=link_bandwidth)
        kind, sep, dims = spec.partition(":")
        if not sep or kind not in ("mesh", "torus"):
            raise ApiError(
                f"topology must look like 'auto', 'mesh:4x4' or 'torus:8x8', "
                f"got {text!r}"
            )
        width_str, sep, height_str = dims.partition("x")
        try:
            width, height = int(width_str), int(height_str)
        except ValueError:
            raise ApiError(
                f"topology dimensions must look like '4x4', got {dims!r}"
            ) from None
        if not sep:
            raise ApiError(f"topology dimensions must look like '4x4', got {dims!r}")
        return cls(kind=kind, width=width, height=height, link_bandwidth=link_bandwidth)

    def describe(self) -> str:
        """The canonical spec string (inverse of :meth:`parse`)."""
        if self.kind == "auto":
            return "auto"
        return f"{self.kind}:{self.width}x{self.height}"

    def build(self, app: CoreGraph) -> NoCTopology:
        """Materialize the concrete topology for ``app``.

        Raises:
            ApiError: when the grid is too small for the application.
        """
        bandwidth = (
            self.link_bandwidth
            if self.link_bandwidth is not None
            else app.total_bandwidth()
        )
        if self.kind == "auto":
            return NoCTopology.smallest_mesh_for(app.num_cores, link_bandwidth=bandwidth)
        assert self.width is not None and self.height is not None
        if self.width * self.height < app.num_cores:
            raise ApiError(
                f"{self.describe()} has {self.width * self.height} nodes but "
                f"{app.name!r} needs {app.num_cores}"
            )
        if self.kind == "torus":
            return NoCTopology.torus_grid(
                self.width, self.height, link_bandwidth=bandwidth
            )
        return NoCTopology.mesh(self.width, self.height, link_bandwidth=bandwidth)

    def resolved_for(self, topology: NoCTopology) -> "TopologySpec":
        """This spec with ``auto`` pinned to the concrete topology built."""
        return TopologySpec(
            kind="torus" if topology.torus else "mesh",
            width=topology.width,
            height=topology.height,
            link_bandwidth=topology.min_link_bandwidth(),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "width": self.width,
            "height": self.height,
            "link_bandwidth": self.link_bandwidth,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TopologySpec":
        if not isinstance(payload, dict):
            raise ApiError(f"topology payload must be a dict, got {payload!r}")
        unknown = sorted(set(payload) - {"kind", "width", "height", "link_bandwidth"})
        if unknown:
            raise ApiError(f"unknown topology field(s): {', '.join(unknown)}")
        return cls(
            kind=payload.get("kind", "auto"),
            width=payload.get("width"),
            height=payload.get("height"),
            link_bandwidth=payload.get("link_bandwidth"),
        )


# ----------------------------------------------------------------------
# mapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MapRequest:
    """One mapping job: application x topology x algorithm (+ options).

    Attributes:
        app: registered application name (``"vopd"``), a core-graph JSON
            path (anything containing ``/`` or ending in ``.json``), or an
            inline core-graph payload (the :func:`repro.graphs.io
            .core_graph_to_dict` format) for applications that exist only
            in memory — generated graphs, user uploads.
        mapper: registry name of the algorithm (see ``list_mappers()``).
        topology: the NoC to map onto.
        options: typed per-algorithm options; None means defaults.  The
            instance must match the mapper's registered options class.
        seed: convenience override for stochastic mappers; folded into the
            options' ``seed`` field at run time and rejected for
            deterministic algorithms.
        price_bandwidth: also compute the minimum feasible uniform link
            bandwidth (single-path and split) for the final mapping.  Split
            pricing solves an LP; batch callers that only need costs turn
            this off.
        faults: fault scenario injected *before* mapping — the algorithm
            places cores on the degraded fabric (failed routers are never
            placement targets, distances are surviving-hop distances).
            None means a pristine fabric.
        tag: opaque caller label, carried through to the response (batch
            correlation).
    """

    app: str | dict[str, Any]
    mapper: str = "nmap"
    topology: TopologySpec = field(default_factory=TopologySpec)
    options: MapperOptions | None = None
    seed: int | None = None
    price_bandwidth: bool = True
    faults: FaultSpec | None = None
    tag: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.app, dict):
            if self.app.get("kind") != "core-graph":
                raise ApiError(
                    "inline app payload must have kind 'core-graph' "
                    "(see repro.graphs.io.core_graph_to_dict)"
                )
        elif not isinstance(self.app, str) or not self.app:
            raise ApiError(f"app must be a name, path or payload, got {self.app!r}")
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ApiError(
                f"faults must be a FaultSpec, got {type(self.faults).__name__}"
            )
        if self.seed is not None:
            _check_int(self.seed, "seed")
        if type(self.price_bandwidth) is not bool:
            raise ApiError(
                f"price_bandwidth must be a bool, got {self.price_bandwidth!r}"
            )
        if self.tag is not None and not isinstance(self.tag, str):
            raise ApiError(f"tag must be a str or None, got {self.tag!r}")
        entry = get_mapper(self.mapper)  # raises ApiError for unknown names
        entry.coerce_options(self.options)
        if self.seed is not None and not entry.seedable:
            raise ApiError(
                f"mapper {self.mapper!r} is deterministic and takes no seed"
            )

    def resolved_options(self) -> MapperOptions:
        """The options this request runs with (defaults + seed applied)."""
        entry = get_mapper(self.mapper)
        options = entry.coerce_options(self.options)
        if self.seed is not None:
            options = with_seed(options, self.seed)
        return options

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "map-request",
            "app": self.app,
            "mapper": self.mapper,
            "topology": self.topology.to_dict(),
            "options": None if self.options is None else self.options.to_dict(),
            "seed": self.seed,
            "price_bandwidth": self.price_bandwidth,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MapRequest":
        data = _check_envelope(payload, "map-request")
        mapper = data.get("mapper", "nmap")
        entry = get_mapper(mapper)
        raw_options = data.get("options")
        raw_faults = data.get("faults")
        return cls(
            app=_required(data, "app", "map-request"),
            mapper=mapper,
            topology=TopologySpec.from_dict(data.get("topology", {"kind": "auto"})),
            options=None if raw_options is None else entry.options_from_dict(raw_options),
            seed=data.get("seed"),
            price_bandwidth=data.get("price_bandwidth", True),
            faults=None if raw_faults is None else FaultSpec.from_dict(raw_faults),
            tag=data.get("tag"),
        )


@dataclass(frozen=True)
class MapResponse:
    """Outcome of one :class:`MapRequest`, fully serializable.

    Attributes:
        request: the request that produced this response.
        app_name: the application's own name (may differ from the request's
            ``app`` when that was a file path).
        algorithm: the algorithm label reported by the mapper.
        topology: the *resolved* topology (``auto`` pinned to concrete
            dimensions and bandwidth).
        comm_cost: Equation 7 cost; infinity when infeasible.
        feasible: whether the backing routing satisfied Inequality 3.
        placement: core name -> node id of the final mapping.
        min_bw_single/min_bw_split: minimum feasible uniform link bandwidth
            under single-minimum-path / split-traffic routing; None when
            the request skipped pricing or the mapping was infeasible.
        stats: algorithm counters (swaps tried, LPs solved, ...).
    """

    request: MapRequest
    app_name: str
    algorithm: str
    topology: TopologySpec
    comm_cost: float
    feasible: bool
    placement: dict[str, int]
    min_bw_single: float | None = None
    min_bw_split: float | None = None
    stats: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "map-response",
            "request": self.request.to_dict(),
            "app_name": self.app_name,
            "algorithm": self.algorithm,
            "topology": self.topology.to_dict(),
            "comm_cost": _encode_float(self.comm_cost),
            "feasible": self.feasible,
            "placement": dict(self.placement),
            "min_bw_single": self.min_bw_single,
            "min_bw_split": self.min_bw_split,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MapResponse":
        data = _check_envelope(payload, "map-response")
        return cls(
            request=MapRequest.from_dict(_required(data, "request", "map-response")),
            app_name=_required(data, "app_name", "map-response"),
            algorithm=_required(data, "algorithm", "map-response"),
            topology=TopologySpec.from_dict(_required(data, "topology", "map-response")),
            comm_cost=_decode_float(_required(data, "comm_cost", "map-response")),
            feasible=bool(_required(data, "feasible", "map-response")),
            placement={
                str(core): int(node)
                for core, node in _required(data, "placement", "map-response").items()
            },
            min_bw_single=data.get("min_bw_single"),
            min_bw_split=data.get("min_bw_split"),
            stats=dict(data.get("stats", {})),
        )


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimOptions:
    """The simulation-substrate knobs: which engine, traffic and router.

    Grouped separately from :class:`SimRequest`'s workload parameters so
    the same workload can be re-run against a different backend or router
    model by swapping one sub-payload.

    Attributes:
        engine: registered engine name — ``"cycle"`` (cycle-accurate
            reference), ``"event"`` (heap-scheduled; kept as a second,
            independently scheduled implementation — the slowest engine at
            every measured load), ``"vector"`` (structure-of-arrays,
            fastest at every load) or ``"auto"`` (always vector).
            All backends are bit-consistent with ``cycle``.
        traffic: ``"trace"`` replays the mapped core graph's bandwidths;
            ``"uniform"``, ``"transpose"`` and ``"onoff"`` are synthetic
            patterns driven per node (see :mod:`repro.simnoc.synthetic`).
        injection_rate: offered load per node in flits/cycle; required for
            synthetic patterns, rejected for ``"trace"`` (the core graph
            sets the rates there).
        num_vcs: virtual channels per link; >1 selects the VC wormhole
            router.
        vc_buffer_depth: per-VC input FIFO depth; None shares the global
            ``buffer_depth``.
        shards: worker-process count for the ``sharded`` engine; rejected
            for every other engine.  None lets the engine default (2).
        partitioner: fabric partitioner for the ``sharded`` engine
            (``"auto"`` walks the metis -> greedy-edge -> round-robin
            ladder); rejected for every other engine.

    The two sharding knobs serialize only when set, so requests that do
    not use them keep their canonical key (and cached results) from
    before the knobs existed.
    """

    engine: str = "cycle"
    traffic: str = "trace"
    injection_rate: float | None = None
    num_vcs: int = 1
    vc_buffer_depth: int | None = None
    shards: int | None = None
    partitioner: str | None = None

    def __post_init__(self) -> None:
        from repro.simnoc import list_engines, list_traffic_patterns

        if self.engine not in list_engines():
            raise ApiError(
                f"engine must be one of {', '.join(list_engines())}, "
                f"got {self.engine!r}"
            )
        if self.traffic not in list_traffic_patterns():
            raise ApiError(
                f"traffic must be one of {', '.join(list_traffic_patterns())}, "
                f"got {self.traffic!r}"
            )
        if self.traffic == "trace":
            if self.injection_rate is not None:
                raise ApiError(
                    "trace traffic derives rates from the core graph; "
                    "injection_rate must be None"
                )
        elif not _is_real(self.injection_rate, 0):
            raise ApiError(
                f"synthetic traffic {self.traffic!r} needs a finite positive "
                f"injection_rate (flits/cycle per node), got {self.injection_rate!r}"
            )
        _check_int(self.num_vcs, "num_vcs", 1)
        if self.vc_buffer_depth is not None:
            if self.num_vcs == 1:
                raise ApiError(
                    "vc_buffer_depth only applies to the VC router; set "
                    "num_vcs >= 2 (the plain wormhole router uses the "
                    "global buffer_depth)"
                )
            _check_int(self.vc_buffer_depth, "vc_buffer_depth", 2)
        if self.engine != "sharded":
            if self.shards is not None or self.partitioner is not None:
                raise ApiError(
                    "shards/partitioner only apply to the sharded engine, "
                    f"got engine={self.engine!r}"
                )
        else:
            if self.shards is not None:
                _check_int(self.shards, "shards", 1)
            if self.partitioner is not None:
                check_partitioner(self.partitioner)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "engine": self.engine,
            "traffic": self.traffic,
            "injection_rate": self.injection_rate,
            "num_vcs": self.num_vcs,
            "vc_buffer_depth": self.vc_buffer_depth,
        }
        # Emitted only when set: pre-sharding requests keep their exact
        # canonical blob (and content-addressed cache entries).
        if self.shards is not None:
            payload["shards"] = self.shards
        if self.partitioner is not None:
            payload["partitioner"] = self.partitioner
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimOptions":
        if not isinstance(payload, dict):
            raise ApiError(f"sim options payload must be a dict, got {payload!r}")
        known = {
            "engine",
            "traffic",
            "injection_rate",
            "num_vcs",
            "vc_buffer_depth",
            "shards",
            "partitioner",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ApiError(f"unknown sim option(s): {', '.join(unknown)}")
        return cls(
            engine=payload.get("engine", "cycle"),
            traffic=payload.get("traffic", "trace"),
            injection_rate=payload.get("injection_rate"),
            num_vcs=payload.get("num_vcs", 1),
            vc_buffer_depth=payload.get("vc_buffer_depth"),
            shards=payload.get("shards"),
            partitioner=payload.get("partitioner"),
        )


@dataclass(frozen=True)
class SimRequest:
    """One packet-level simulation job over a mapped application.

    Attributes:
        map_request: how to produce the mapping to simulate.
        measure_cycles: cycles over which latencies are recorded.
        warmup_cycles/drain_cycles: simulator ramp-up / flush windows.
        mean_burst_packets: traffic burstiness (1.0 disables).
        sim_seed: traffic-generation RNG seed (independent of the mapper's
            ``seed``).  Every random stream of the run derives from this
            seed plus stable per-component indices, so results are a pure
            function of the request — independent of batch worker counts.
        routing: ``"auto"`` uses the mapper's own routing for split
            variants and load-balanced minimum paths otherwise;
            ``"min-path"`` and ``"xy"`` force those routers.  Synthetic
            traffic always routes XY.
        faults: fault scenario injected *at simulation time*, on top of any
            faults the mapping request already carries — the placement is
            kept, but traffic is rerouted around the failures (see
            :func:`repro.faults.fault_reroute`).  Fault scenarios require
            deterministic XY routing to be off (``routing != "xy"``) and
            trace traffic, because only the min-path router is fault-aware.
        options: engine/traffic/router-model knobs (:class:`SimOptions`).
    """

    map_request: MapRequest
    measure_cycles: int = 20_000
    warmup_cycles: int = 2_000
    drain_cycles: int = 5_000
    mean_burst_packets: float = 4.0
    sim_seed: int = 1
    routing: str = "auto"
    faults: FaultSpec | None = None
    options: SimOptions = field(default_factory=SimOptions)

    def __post_init__(self) -> None:
        if self.routing not in ("auto", "min-path", "xy"):
            raise ApiError(
                f"routing must be auto, min-path or xy, got {self.routing!r}"
            )
        _check_int(self.measure_cycles, "measure_cycles", 1)
        _check_int(self.warmup_cycles, "warmup_cycles", 0)
        _check_int(self.drain_cycles, "drain_cycles", 0)
        _check_int(self.sim_seed, "sim_seed")
        if not _is_real(self.mean_burst_packets, 0) or self.mean_burst_packets < 1:
            raise ApiError(
                "mean_burst_packets must be a finite number >= 1, "
                f"got {self.mean_burst_packets!r}"
            )
        if not isinstance(self.options, SimOptions):
            raise ApiError(
                f"options must be a SimOptions, got {type(self.options).__name__}"
            )
        if self.options.traffic != "trace" and self.routing != "auto":
            raise ApiError(
                f"synthetic traffic {self.options.traffic!r} always routes XY; "
                f"routing must stay 'auto', got {self.routing!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ApiError(
                f"faults must be a FaultSpec, got {type(self.faults).__name__}"
            )
        has_faults = (self.faults is not None and not self.faults.is_empty) or (
            self.map_request.faults is not None
            and not self.map_request.faults.is_empty
        )
        if has_faults:
            if self.options.traffic != "trace":
                raise ApiError(
                    "fault scenarios require trace traffic; synthetic "
                    "patterns route XY, which cannot steer around failures"
                )
            if self.routing == "xy":
                raise ApiError(
                    "fault scenarios cannot use XY routing — deterministic "
                    "dimension-order paths cannot avoid failed links; use "
                    "'auto' or 'min-path'"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "sim-request",
            "map_request": self.map_request.to_dict(),
            "measure_cycles": self.measure_cycles,
            "warmup_cycles": self.warmup_cycles,
            "drain_cycles": self.drain_cycles,
            "mean_burst_packets": self.mean_burst_packets,
            "sim_seed": self.sim_seed,
            "routing": self.routing,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimRequest":
        data = _check_envelope(payload, "sim-request")
        raw_options = data.get("options")
        raw_faults = data.get("faults")
        return cls(
            map_request=MapRequest.from_dict(
                _required(data, "map_request", "sim-request")
            ),
            measure_cycles=data.get("measure_cycles", 20_000),
            warmup_cycles=data.get("warmup_cycles", 2_000),
            drain_cycles=data.get("drain_cycles", 5_000),
            mean_burst_packets=data.get("mean_burst_packets", 4.0),
            sim_seed=data.get("sim_seed", 1),
            routing=data.get("routing", "auto"),
            faults=None if raw_faults is None else FaultSpec.from_dict(raw_faults),
            options=(
                SimOptions() if raw_options is None
                else SimOptions.from_dict(raw_options)
            ),
        )


@dataclass(frozen=True)
class SimResponse:
    """Latency/utilization summary of one :class:`SimRequest`.

    ``link_utilization``/``link_flits`` key directed links as
    ``"src->dst"`` strings and ``per_flow`` keys flows by their commodity
    index as a string, so the payload stays plain JSON.

    Each ``per_flow`` entry carries ``count``, ``mean``, ``p50``, ``p95``,
    ``std``, ``jitter`` and ``histogram`` — the histogram is power-of-two
    binned (bin ``i`` counts latencies in ``[2**i, 2**(i+1))``), compact
    enough to ship for every flow yet detailed enough for saturation and
    tail analysis.
    """

    request: SimRequest
    map_response: MapResponse
    packets_measured: int
    latency_mean: float
    latency_mean_network: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    packets_created: int
    packets_delivered: int
    cycles: int
    link_utilization: dict[str, float] = field(default_factory=dict)
    link_flits: dict[str, int] = field(default_factory=dict)
    per_flow: dict[str, dict[str, Any]] = field(default_factory=dict)

    def hottest_link(self) -> tuple[str, float]:
        """The most utilized directed link as ``("src->dst", utilization)``."""
        if not self.link_utilization:
            raise ApiError("no link utilization recorded")
        link = max(self.link_utilization, key=self.link_utilization.__getitem__)
        return link, self.link_utilization[link]

    def worst_flow(self) -> tuple[str, dict[str, Any]]:
        """The flow with the highest mean latency, as ``(flow, stats)``."""
        if not self.per_flow:
            raise ApiError("no per-flow statistics recorded")
        flow = max(self.per_flow, key=lambda key: self.per_flow[key]["mean"])
        return flow, self.per_flow[flow]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "sim-response",
            "request": self.request.to_dict(),
            "map_response": self.map_response.to_dict(),
            "packets_measured": self.packets_measured,
            "latency_mean": self.latency_mean,
            "latency_mean_network": self.latency_mean_network,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "packets_created": self.packets_created,
            "packets_delivered": self.packets_delivered,
            "cycles": self.cycles,
            "link_utilization": dict(self.link_utilization),
            "link_flits": dict(self.link_flits),
            "per_flow": {flow: dict(stats) for flow, stats in self.per_flow.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimResponse":
        data = _check_envelope(payload, "sim-response")
        need = lambda key: _required(data, key, "sim-response")
        return cls(
            request=SimRequest.from_dict(need("request")),
            map_response=MapResponse.from_dict(need("map_response")),
            packets_measured=int(need("packets_measured")),
            latency_mean=float(need("latency_mean")),
            latency_mean_network=float(need("latency_mean_network")),
            latency_p50=float(need("latency_p50")),
            latency_p95=float(need("latency_p95")),
            latency_p99=float(need("latency_p99")),
            latency_max=float(need("latency_max")),
            packets_created=int(need("packets_created")),
            packets_delivered=int(need("packets_delivered")),
            cycles=int(need("cycles")),
            link_utilization={
                str(k): float(v) for k, v in data.get("link_utilization", {}).items()
            },
            link_flits={
                str(k): int(v) for k, v in data.get("link_flits", {}).items()
            },
            per_flow={
                str(flow): dict(stats)
                for flow, stats in data.get("per_flow", {}).items()
            },
        )


# ----------------------------------------------------------------------
# batch failure reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorResponse:
    """A failed batch slot, holding its place so the batch stays aligned.

    :func:`repro.api.run_batch` never lets one bad request abort the whole
    fan-out: a request that raises, crashes its worker, or exceeds the
    batch timeout yields an ``ErrorResponse`` in its slot while every other
    slot completes normally.  The payload echoes the request so a failed
    slot can be retried stand-alone.

    Attributes:
        request: the request that failed (echoed verbatim).
        error: the exception class name (``"FaultError"``, ``"BatchError"``,
            ...).
        message: the exception message, stable across executors so batch
            results are byte-identical whether run serially, in threads or
            in processes.
    """

    request: MapRequest | SimRequest
    error: str
    message: str

    def __post_init__(self) -> None:
        if not isinstance(self.request, (MapRequest, SimRequest)):
            raise ApiError(
                f"request must be a MapRequest or SimRequest, "
                f"got {type(self.request).__name__}"
            )
        if not self.error or not isinstance(self.error, str):
            raise ApiError(f"error must be an exception class name, got {self.error!r}")
        if not isinstance(self.message, str):
            raise ApiError(f"message must be a string, got {self.message!r}")

    def describe(self) -> str:
        """One-line human-readable summary (``FaultError: ...``)."""
        return f"{self.error}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "error-response",
            "request": self.request.to_dict(),
            "error": self.error,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ErrorResponse":
        data = _check_envelope(payload, "error-response")
        raw_request = _required(data, "request", "error-response")
        if not isinstance(raw_request, dict):
            raise ApiError(f"error-response request must be a dict, got {raw_request!r}")
        request: MapRequest | SimRequest
        if raw_request.get("kind") == "sim-request":
            request = SimRequest.from_dict(raw_request)
        else:
            request = MapRequest.from_dict(raw_request)
        return cls(
            request=request,
            error=_required(data, "error", "error-response"),
            message=_required(data, "message", "error-response"),
        )
