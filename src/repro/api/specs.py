"""Typed, JSON-round-trippable request/response payloads (the API facade).

Every surface of the repository (CLI, experiments, benchmarks, examples,
and any future service) speaks these four payloads:

* :class:`MapRequest` -> :class:`MapResponse` — run one mapping algorithm.
* :class:`SimRequest` -> :class:`SimResponse` — map, then simulate packets.

All of them are :class:`repro.codec.Payload` dataclasses (field annotations
and metadata are the schema) whose ``to_dict``/``from_dict`` round-trip
losslessly through ``json.dumps`` under a schema version, and each is
checked when it is *built* (typos fail before a batch fans out, not minutes
into it).

:class:`TopologySpec` is the serializable description of the NoC — it
parses the CLI's ``--topology`` strings (``"mesh:4x4"``, ``"torus:8x8"``,
``"auto"``) and builds the concrete :class:`~repro.graphs.topology
.NoCTopology` on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Literal

from repro.api.options import MapperOptions, check_partitioner
from repro.api.registry import get_mapper, with_seed
from repro.codec import SCHEMA_VERSION, Payload, decode_kind  # noqa: F401 (re-export)
from repro.errors import ApiError
from repro.faults.spec import FaultSpec
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology

#: Payload kinds a client may submit, and kinds a completed job slot carries.
REQUEST_KINDS = ("map-request", "sim-request")
RESPONSE_KINDS = ("map-response", "sim-response", "error-response")


def _decode_mapper_options(raw: Any, earlier: dict[str, Any]) -> MapperOptions | None:
    """``options`` read as the options class of the ``mapper`` decoded before it."""
    return None if raw is None else get_mapper(earlier["mapper"]).options_type.from_dict(raw)


@dataclass(frozen=True)
class TopologySpec(Payload):
    """Serializable description of the NoC topology to map onto.

    Attributes:
        kind: ``"auto"`` (smallest near-square mesh fitting the app),
            ``"mesh"`` or ``"torus"``.
        width/height: grid dimensions; required unless ``kind == "auto"``.
        link_bandwidth: uniform link capacity in MB/s; None defaults to the
            application's total bandwidth (every routing feasible — the
            paper's pure-cost comparison regime).
    """

    NOUN = "topology"

    kind: Literal["auto", "mesh", "torus"] = field(
        default="auto", metadata={"label": "topology kind"}
    )
    width: int | None = field(default=None, metadata={"ge": 1})
    height: int | None = field(default=None, metadata={"ge": 1})
    link_bandwidth: float | None = field(
        default=None, metadata={"gt": 0, "label": "link bandwidth"}
    )

    def validate(self) -> None:
        if self.kind == "auto":
            if self.width is not None or self.height is not None:
                raise ApiError("auto topology must not carry explicit dimensions")
        elif self.width is None or self.height is None:
            raise ApiError(f"{self.kind} topology needs explicit width and height")

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
        width_str, _, height_str = dims.partition("x")  # no "x": height_str == ""
        try:
            width, height = int(width_str), int(height_str)
        except ValueError:
            raise ApiError(f"topology dimensions must look like '4x4', got {dims!r}") from None
        return cls(kind=kind, width=width, height=height, link_bandwidth=link_bandwidth)

    def describe(self) -> str:
        """The canonical spec string (inverse of :meth:`parse`)."""
        if self.kind == "auto":
            return "auto"
        return f"{self.kind}:{self.width}x{self.height}"

    def build(self, app: CoreGraph) -> NoCTopology:
        """Materialize the concrete topology for ``app``.

        Raises:
            ApiError: when the grid is too small for the application, or when
                ``link_bandwidth`` is unset and the application has no
                traffic to derive it from.
        """
        bandwidth = (
            self.link_bandwidth
            if self.link_bandwidth is not None
            else app.total_bandwidth()
        )
        if bandwidth <= 0:
            raise ApiError(
                f"{app.name!r} has no traffic, so the default link bandwidth "
                "(the application's total bandwidth) is 0: set link_bandwidth"
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


@dataclass(frozen=True)
class MapRequest(Payload):
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

    KIND = "map-request"

    app: str | dict[str, Any]
    mapper: str = "nmap"
    topology: TopologySpec = field(default_factory=TopologySpec)
    options: MapperOptions | None = field(
        default=None, metadata={"decode": _decode_mapper_options}
    )
    seed: int | None = None
    price_bandwidth: bool = True
    faults: FaultSpec | None = None
    tag: str | None = None

    def validate(self) -> None:
        if isinstance(self.app, dict):
            if self.app.get("kind") != "core-graph":
                raise ApiError(
                    "inline app payload must have kind 'core-graph' "
                    "(see repro.graphs.io.core_graph_to_dict)"
                )
        elif not self.app:
            raise ApiError(f"app must be a name, path or payload, got {self.app!r}")
        entry = get_mapper(self.mapper)  # raises ApiError for unknown names
        if self.options is not None:
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


@dataclass(frozen=True)
class MapResponse(Payload):
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

    KIND = "map-response"

    request: MapRequest
    app_name: str
    algorithm: str
    topology: TopologySpec
    #: ±inf travels as the string "inf" / "-inf" (JSON has no infinity).
    comm_cost: float = field(metadata={
        "encode": lambda cost: str(cost) if math.isinf(cost) else cost,
        "decode": lambda raw, _: float(raw) if raw in ("inf", "-inf") else raw,
    })
    feasible: bool
    placement: dict[str, int]
    min_bw_single: float | None = None
    min_bw_split: float | None = None
    stats: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SimOptions(Payload):
    """The simulation-substrate knobs: which engine, traffic and router.

    Grouped separately from :class:`SimRequest`'s workload parameters so
    the same workload can be re-run against a different backend or router
    model by swapping one sub-payload.

    Attributes:
        engine: registered engine name — ``"vector"`` (structure-of-arrays;
            ``"cycle"``, the default, ``"event"`` and ``"sharded"`` are
            names of it) or ``"auto"`` (always vector).  Every name gives
            the same bytes; the response echoes the name given.
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
        shards: a shard count (>= 1) for the ``sharded`` name; rejected for
            every other engine.  Echoed in the request, read by no engine:
            the multi-process engine that used it was removed.
        partitioner: a partitioner name (``"auto"`` or one of
            :func:`repro.partition.list_partitioners`) for the ``sharded``
            name; rejected for every other engine, and likewise unread.

    The two knobs serialize only when set, so requests that do not use
    them keep their canonical key (and cached results) from before the
    knobs existed; requests that do keep theirs too.
    """

    NOUN = "sim options"

    engine: str = "cycle"
    traffic: str = "trace"
    injection_rate: float | None = field(default=None, metadata={"gt": 0})
    num_vcs: int = field(default=1, metadata={"ge": 1})
    vc_buffer_depth: int | None = field(default=None, metadata={"ge": 2})
    shards: int | None = field(default=None, metadata={"ge": 1, "omit_none": True})
    partitioner: str | None = field(default=None, metadata={"omit_none": True})

    def validate(self) -> None:
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
        elif self.injection_rate is None:
            raise ApiError(
                f"synthetic traffic {self.traffic!r} needs a finite positive "
                f"injection_rate (flits/cycle per node), got None"
            )
        if self.vc_buffer_depth is not None and self.num_vcs == 1:
            raise ApiError(
                "vc_buffer_depth only applies to the VC router; set "
                "num_vcs >= 2 (the plain wormhole router uses the "
                "global buffer_depth)"
            )
        if self.engine != "sharded":
            if self.shards is not None or self.partitioner is not None:
                raise ApiError(
                    "shards/partitioner only apply to the sharded engine, "
                    f"got engine={self.engine!r}"
                )
        elif self.partitioner is not None:
            check_partitioner(self.partitioner)


@dataclass(frozen=True)
class SimRequest(Payload):
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

    KIND = "sim-request"

    map_request: MapRequest
    measure_cycles: int = field(default=20_000, metadata={"ge": 1})
    warmup_cycles: int = field(default=2_000, metadata={"ge": 0})
    drain_cycles: int = field(default=5_000, metadata={"ge": 0})
    mean_burst_packets: float = field(default=4.0, metadata={"ge": 1})
    sim_seed: int = 1
    routing: Literal["auto", "min-path", "xy"] = "auto"
    faults: FaultSpec | None = None
    options: SimOptions = field(default_factory=SimOptions, metadata={
        "decode": lambda raw, _: SimOptions() if raw is None else SimOptions.from_dict(raw),
    })

    def validate(self) -> None:
        if self.options.traffic != "trace" and self.routing != "auto":
            raise ApiError(
                f"synthetic traffic {self.options.traffic!r} always routes XY; "
                f"routing must stay 'auto', got {self.routing!r}"
            )
        faults = (self.faults, self.map_request.faults)
        if any(spec is not None and not spec.is_empty for spec in faults):
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


@dataclass(frozen=True)
class SimResponse(Payload):
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

    KIND = "sim-response"

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


@dataclass(frozen=True)
class ErrorResponse(Payload):
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

    KIND = "error-response"

    request: MapRequest | SimRequest = field(metadata={
        "decode": lambda raw, _: decode_kind(raw, REQUEST_KINDS, "error-response request"),
    })
    error: str
    message: str

    def validate(self) -> None:
        if not self.error:
            raise ApiError(f"error must be an exception class name, got {self.error!r}")

    def describe(self) -> str:
        """One-line human-readable summary (``FaultError: ...``)."""
        return f"{self.error}: {self.message}"
