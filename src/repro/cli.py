"""Command-line interface: ``nmap-noc`` (or ``python -m repro.cli``).

A thin shell over :mod:`repro.api` — every subcommand builds a typed
request, hands it to the engine and formats the typed response.  The CLI
holds no algorithm dispatch of its own; mappers come from the registry.

Subcommands:

* ``list-apps`` — the registered application core graphs.
* ``list-mappers`` — the registered mapping algorithms and their options.
* ``map`` — map an application (built-in or JSON file) onto a mesh/torus
  with a chosen algorithm; prints the placement grid, cost and bandwidth
  figures; optional JSON/DOT output.
* ``simulate`` — run the packet-level simulator on a mapped application and
  report latency statistics.
* ``partition`` — cut a fabric into shards (for the sharded engine and the
  hmap mapper) and report edge-cut/balance statistics.
* ``design`` — compile the mapped NoC and emit the SystemC-style netlist.
* ``compare`` — run several algorithms on one app; optional JSON output.
* ``experiment`` — regenerate a paper table/figure (or ``all``).
* ``serve`` — run the async mapping/simulation job service (HTTP, with a
  content-addressed result store); drains cleanly on SIGTERM.
* ``submit`` — send a request (flags or JSON payload files) to a running
  service and print the typed response(s).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from repro.api import (
    BATCH_EXECUTORS,
    ErrorResponse,
    FaultSpec,
    MapRequest,
    SimOptions,
    SimRequest,
    TopologySpec,
    execute_map,
    get_mapper,
    list_mappers,
    mapper_entries,
    parse_option_assignments,
    rebuild_mapping,
    run_batch,
    run_map,
    run_sim,
)
from repro.apps import all_apps
from repro.design import compile_design, emit_netlist
from repro.errors import ApiError, ReproError
from repro.experiments.runner import EXPERIMENTS, render_all, run_experiment
from repro.graphs.io import mapping_to_dot
from repro.simnoc import list_engines, list_traffic_patterns


def _topology_spec(args: argparse.Namespace) -> TopologySpec:
    """The topology from ``--topology`` (default: the smallest mesh fit)."""
    if args.topology is None:
        return TopologySpec(link_bandwidth=args.link_bw)
    return TopologySpec.parse(args.topology, link_bandwidth=args.link_bw)


def _fault_spec(args: argparse.Namespace) -> FaultSpec | None:
    """The :class:`FaultSpec` the fault flags describe, or None for none."""
    spec = FaultSpec(
        failed_links=tuple(FaultSpec.parse_link(text) for text in args.fail_link or []),
        failed_routers=tuple(args.fail_router or []),
        degraded_links=tuple(
            FaultSpec.parse_degraded(text) for text in args.degrade_link or []
        ),
        random_link_failures=args.random_link_failures,
        fault_seed=args.fault_seed,
    )
    return None if spec.is_empty else spec


def _map_request(
    args: argparse.Namespace,
    mapper: str | None = None,
    price_bandwidth: bool = True,
    seed_only_if_seedable: bool = False,
    faults: FaultSpec | None = None,
) -> MapRequest:
    """Build the validated :class:`MapRequest` an argv namespace describes.

    ``seed_only_if_seedable`` silently drops ``--seed`` for deterministic
    algorithms — what ``compare`` wants when seeding a mixed batch (the
    single-mapper subcommands keep the loud rejection).
    """
    name = mapper if mapper is not None else args.algorithm
    entry = get_mapper(name)
    payload = parse_option_assignments(getattr(args, "mapper_opt", None) or [])
    options = entry.options_from_dict(payload) if payload else None
    seed = getattr(args, "seed", None)
    if seed_only_if_seedable and not entry.seedable:
        seed = None
    return MapRequest(
        app=args.app,
        mapper=name,
        topology=_topology_spec(args),
        options=options,
        seed=seed,
        price_bandwidth=price_bandwidth,
        faults=faults,
    )


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def _cmd_list_apps(_args: argparse.Namespace) -> int:
    for name, app in sorted(all_apps().items()):
        print(
            f"{name:8s} {app.num_cores:3d} cores {app.num_flows:3d} flows "
            f"{app.total_bandwidth():8.0f} MB/s total"
        )
    return 0


def _cmd_list_mappers(_args: argparse.Namespace) -> int:
    for entry in mapper_entries():
        option_names = ", ".join(f.name for f in fields(entry.options_type)) or "-"
        print(f"{entry.name:10s} {entry.summary}")
        print(f"{'':10s}   options: {option_names}")
    return 0


def _cmd_list_engines(_args: argparse.Namespace) -> int:
    from repro.partition import list_partitioners
    from repro.partition.registry import LADDER
    from repro.simnoc.engines import get_engine, jit

    print("simulation engines:")
    for name in list_engines():
        doc = (type(get_engine(name)).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:8s} available   {summary}")
    for title, ladder, rungs in (
        ("vector-engine kernel backends", jit.LADDER, None),
        ("sharded-engine partitioners", LADDER, list_partitioners()),
    ):
        active, _, reason = ladder.resolve()
        print(f"{title} (active: {active or 'none'}; {reason}):")
        for row in ladder.rows(rungs):
            status = "available  " if row["available"] else "unavailable"
            print(f"  {row['name']:12s} {status} {row['reason']}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.partition import partition_topology

    topology = _build_bare_topology(args.topology)
    spec = partition_topology(topology, args.shards, args.method)
    if args.json:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"topology    : {args.topology}")
    print(f"partitioner : {spec.method}")
    print(f"shards      : {spec.num_shards} (sizes {list(spec.shard_sizes)})")
    print(
        f"edge cut    : {spec.edge_cut} of {spec.num_edges} links "
        f"({spec.cut_fraction * 100:.1f}%)"
    )
    print(f"balance     : {spec.balance:.3f} (max shard / ideal)")
    if args.out_json:
        Path(args.out_json).write_text(
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out_json}")
    return 0


def _build_bare_topology(text: str):
    """A concrete :class:`NoCTopology` from a ``mesh:WxH``-style spec.

    ``partition`` has no application in play, so ``auto`` (which sizes the
    grid to an app) is rejected here.
    """
    from repro.graphs.topology import NoCTopology

    spec = TopologySpec.parse(text)
    if spec.kind == "auto":
        raise ApiError(
            "partition needs explicit dimensions, e.g. mesh:16x16"
        )
    if spec.kind == "torus":
        return NoCTopology.torus_grid(spec.width, spec.height)
    return NoCTopology.mesh(spec.width, spec.height)


def _cmd_map(args: argparse.Namespace) -> int:
    response = run_map(_map_request(args, faults=_fault_spec(args)))
    spec = response.topology
    print(f"application : {response.app_name}")
    print(
        f"topology    : {spec.describe()}, link BW {spec.link_bandwidth:.0f} MB/s"
    )
    print(f"algorithm   : {response.algorithm}")
    print(f"comm cost   : {response.comm_cost}")
    print(f"feasible    : {response.feasible}")
    print("placement   :")
    mapping = rebuild_mapping(response)
    print(mapping.render())
    if response.min_bw_single is not None:
        print(
            f"min link BW : {response.min_bw_single:.0f} MB/s single-path, "
            f"{response.min_bw_split:.0f} MB/s split"
        )
    if args.out_json:
        Path(args.out_json).write_text(
            json.dumps(response.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.out_json}")
    if args.out_dot:
        Path(args.out_dot).write_text(
            mapping_to_dot(mapping.topology, mapping.node_contents)
        )
        print(f"wrote {args.out_dot}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    request = SimRequest(
        map_request=_map_request(args, price_bandwidth=False),
        measure_cycles=args.cycles,
        mean_burst_packets=args.burst,
        sim_seed=args.sim_seed,
        faults=_fault_spec(args),
        options=SimOptions(
            engine=args.engine,
            traffic=args.traffic,
            injection_rate=args.injection_rate,
            num_vcs=args.vcs,
            vc_buffer_depth=args.vc_depth,
            shards=args.shards,
            partitioner=args.partitioner,
        ),
    )
    response = run_sim(request)
    if request.faults is not None:
        print(f"faults injected  : {request.faults.describe()}")
    print(
        f"engine / traffic : {request.options.engine} / "
        f"{request.options.traffic}"
        + (f" @ {request.options.injection_rate} flits/cycle/node"
           if request.options.injection_rate is not None else "")
        + (f", {request.options.num_vcs} VCs" if request.options.num_vcs > 1 else "")
    )
    print(f"packets measured : {response.packets_measured}")
    print(
        f"latency mean     : {response.latency_mean:.1f} cycles "
        f"(network {response.latency_mean_network:.1f})"
    )
    print(
        f"latency p50/p95  : {response.latency_p50:.0f} / "
        f"{response.latency_p95:.0f} cycles"
    )
    print(f"latency max      : {response.latency_max:.0f} cycles")
    link, utilization = response.hottest_link()
    print(f"hottest link     : {link} at {utilization*100:.0f}% util")
    flow, stats = response.worst_flow()
    print(
        f"worst flow       : #{flow} mean {stats['mean']:.1f} cycles "
        f"(p95 {stats['p95']:.0f}, jitter {stats['jitter']:.1f}, "
        f"{stats['count']} packets)"
    )
    if args.out_json:
        Path(args.out_json).write_text(
            json.dumps(response.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.out_json}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.faults import fault_reroute
    from repro.graphs.commodities import build_commodities
    from repro.routing.min_path import min_path_routing

    topology, result = execute_map(
        _map_request(args, price_bandwidth=False, faults=_fault_spec(args))
    )
    commodities = build_commodities(result.mapping.core_graph, result.mapping)
    if topology.is_degraded:
        # Deadlock-verified rerouting: a netlist compiled around faults must
        # not bake in a cyclic channel-dependency graph.
        routing = fault_reroute(topology, commodities)
    else:
        routing = min_path_routing(topology, commodities)
    design = compile_design(result.mapping, routing)
    for key, value in design.summary().items():
        print(f"{key:20s} {value}")
    netlist = emit_netlist(design)
    if args.out:
        Path(args.out).write_text(netlist)
        print(f"wrote {args.out}")
    else:
        print()
        print(netlist)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    faults = _fault_spec(args)
    requests = [
        _map_request(args, mapper=name, price_bandwidth=True,
                     seed_only_if_seedable=True, faults=faults)
        for name in args.algorithms
    ]
    responses = run_batch(requests, workers=args.workers, executor=args.executor)
    completed = [r for r in responses if not isinstance(r, ErrorResponse)]
    if completed:
        first = completed[0].topology
        print(
            f"{completed[0].app_name} on {first.describe()}, "
            f"link BW {first.link_bandwidth:.0f} MB/s"
        )
    print(
        f"{'algorithm':>10} {'comm cost':>10} {'feasible':>9} "
        f"{'minBW(1path)':>13} {'minBW(split)':>13}"
    )
    for name, response in zip(args.algorithms, responses):
        if isinstance(response, ErrorResponse):
            print(f"{name:>10} failed: {response.describe()}")
        elif response.feasible:
            print(
                f"{name:>10} {response.comm_cost:>10.0f} {'yes':>9} "
                f"{response.min_bw_single:>13.0f} {response.min_bw_split:>13.0f}"
            )
        else:
            print(f"{name:>10} {'inf':>10} {'no':>9} {'-':>13} {'-':>13}")
    if args.out_json:
        payload = [response.to_dict() for response in responses]
        Path(args.out_json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out_json}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        print(render_all())
    else:
        print(run_experiment(args.name).render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in asyncio/socket machinery no
    # other subcommand needs.
    from repro.service import NocService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_root=args.store,
        queue_limit=args.queue_limit,
        workers=args.workers,
        executor=args.executor,
        timeout=args.timeout,
        store_max_bytes=args.store_max_bytes,
        result_ttl=args.result_ttl,
        journal_path=args.journal,
        recover=args.recover,
        client_quota=args.client_quota,
    )
    service = NocService(config)
    service.serve_forever(install_signals=True, announce=print)
    print("repro.service drained and stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.specs import ErrorResponse as _ErrorResponse
    from repro.service import ServiceClient, parse_request

    requests = []
    for path in args.json or []:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            payload = json.loads(Path(path).read_text())
        requests.append(parse_request(payload))
    if not requests:
        if args.app is None:
            raise ApiError("submit needs either --json FILE(s) or --app ...")
        requests.append(_map_request(args))

    client = ServiceClient(
        args.url,
        timeout=args.timeout,
        retries=args.retries,
        client_id=args.client_id,
        priority=args.priority,
    )
    ticket = client.submit(requests if len(requests) > 1 else requests[0])
    print(f"job {ticket.id} submitted ({ticket.slots} slot(s))", file=sys.stderr)
    if args.no_wait:
        print(ticket.id)
        return 0

    failed = False
    if args.stream:
        for event in client.stream(ticket.id):
            print(json.dumps(event.response.to_dict(), sort_keys=True))
            failed = failed or isinstance(event.response, _ErrorResponse)
    else:
        result = client.wait(ticket.id, timeout=args.timeout)
        responses = result if isinstance(result, list) else [result]
        for response in responses:
            if len(responses) > 1:
                print(json.dumps(response.to_dict(), sort_keys=True))
            else:
                print(json.dumps(response.to_dict(), indent=2))
            failed = failed or isinstance(response, _ErrorResponse)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmap-noc",
        description="NMAP reproduction: bandwidth-constrained core mapping onto NoCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list built-in application core graphs")
    sub.add_parser("list-mappers", help="list registered mapping algorithms")
    sub.add_parser(
        "list-engines",
        help="list simulation engines and JIT kernel backend availability",
    )

    mappers = list_mappers()

    def _add_fault_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group(
            "fault injection",
            "inject failures into the fabric ('map', 'design' and 'compare' "
            "map around them; 'simulate' keeps the mapping and reroutes "
            "traffic around them)",
        )
        group.add_argument(
            "--fail-link",
            action="append",
            metavar="A-B",
            help="fail the undirected link between nodes A and B (repeatable)",
        )
        group.add_argument(
            "--fail-router",
            action="append",
            type=int,
            metavar="NODE",
            help="fail a router: all its links go down (repeatable)",
        )
        group.add_argument(
            "--degrade-link",
            action="append",
            metavar="A-B:F",
            help="scale a link's bandwidth by factor F in (0,1) (repeatable)",
        )
        group.add_argument(
            "--random-link-failures",
            type=int,
            default=0,
            metavar="N",
            help="additionally fail N random links (seeded, deterministic)",
        )
        group.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            help="seed for --random-link-failures draws",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", required=True, help="app name or core-graph JSON path")
        p.add_argument("--algorithm", default="nmap", choices=mappers)
        p.add_argument(
            "--topology",
            default=None,
            help="'auto', 'mesh:4x4' or 'torus:8x8' (default: smallest mesh fit)",
        )
        p.add_argument("--link-bw", type=float, default=None, help="uniform link BW in MB/s")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="seed for stochastic mappers (rejected for deterministic ones)",
        )
        p.add_argument(
            "--mapper-opt",
            action="append",
            metavar="KEY=VALUE",
            help="algorithm option (repeatable), e.g. --mapper-opt cooling=0.9",
        )
        _add_fault_flags(p)

    p_map = sub.add_parser("map", help="map an application onto a mesh/torus")
    add_common(p_map)
    p_map.add_argument("--out-json", default=None, help="write the MapResponse JSON here")
    p_map.add_argument("--out-dot", default=None, help="write Graphviz DOT here")

    p_sim = sub.add_parser("simulate", help="simulate a mapped application")
    add_common(p_sim)
    p_sim.add_argument("--cycles", type=int, default=20_000, help="measured cycles")
    p_sim.add_argument("--burst", type=float, default=4.0, help="mean packets per burst")
    p_sim.add_argument("--sim-seed", type=int, default=1, help="traffic RNG seed")
    p_sim.add_argument(
        "--engine",
        default="cycle",
        choices=list_engines(),
        help=(
            "simulation backend: cycle (bit-exact reference), event "
            "(skips idle time), vector (structure-of-arrays; runs on a "
            "compiled numba/C kernel when one is available — see "
            "'list-engines', disable with REPRO_NO_JIT=1) or auto "
            "(vector for the built-in router models, cycle otherwise)"
        ),
    )
    p_sim.add_argument(
        "--traffic",
        default="trace",
        choices=list_traffic_patterns(),
        help="trace replays the core graph; the rest are synthetic patterns",
    )
    p_sim.add_argument(
        "--injection-rate",
        type=float,
        default=None,
        help="offered load per node in flits/cycle (synthetic traffic only)",
    )
    p_sim.add_argument(
        "--vcs",
        type=int,
        default=1,
        help="virtual channels per link (>1 selects the VC wormhole router)",
    )
    p_sim.add_argument(
        "--vc-depth",
        type=int,
        default=None,
        help="per-VC buffer depth in flits (default: the global buffer depth)",
    )
    p_sim.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker-process count for --engine sharded (default: 2)",
    )
    p_sim.add_argument(
        "--partitioner",
        default=None,
        help="fabric partitioner for --engine sharded: auto (default; "
        "metis -> greedy-edge -> round-robin ladder) or a name from "
        "'list-engines'",
    )
    p_sim.add_argument(
        "--out-json", default=None, help="write the SimResponse JSON here"
    )

    p_part = sub.add_parser(
        "partition",
        help="partition a fabric into shards and report cut statistics",
    )
    p_part.add_argument(
        "--topology",
        required=True,
        help="explicit fabric spec like 'mesh:16x16' or 'torus:8x8'",
    )
    p_part.add_argument(
        "--shards", type=int, required=True, help="number of shards"
    )
    p_part.add_argument(
        "--method",
        default="auto",
        help="partitioner name or 'auto' (metis -> greedy-edge -> "
        "round-robin ladder)",
    )
    p_part.add_argument(
        "--json",
        action="store_true",
        help="print the PartitionSpec JSON instead of the summary",
    )
    p_part.add_argument(
        "--out-json", default=None, help="write the PartitionSpec JSON here"
    )

    p_design = sub.add_parser("design", help="compile the NoC and emit a netlist")
    add_common(p_design)
    p_design.add_argument("--out", default=None, help="write the netlist here")

    p_cmp = sub.add_parser("compare", help="run several algorithms on one app")
    p_cmp.add_argument("--app", required=True, help="app name or core-graph JSON path")
    p_cmp.add_argument(
        "--topology",
        default=None,
        help="'auto', 'mesh:4x4' or 'torus:8x8' (default: smallest mesh fit)",
    )
    p_cmp.add_argument("--link-bw", type=float, default=None, help="uniform link BW in MB/s")
    p_cmp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for stochastic mappers in the comparison",
    )
    p_cmp.add_argument(
        "--algorithms",
        nargs="+",
        default=["pmap", "gmap", "pbb", "nmap"],
        choices=mappers,
    )
    p_cmp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the comparison batch",
    )
    p_cmp.add_argument(
        "--executor",
        default="thread",
        choices=BATCH_EXECUTORS,
        help="batch executor: serial, thread (default) or process (true multi-core)",
    )
    _add_fault_flags(p_cmp)
    p_cmp.add_argument(
        "--out-json",
        default=None,
        help="write the list of MapResponse payloads here",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])

    p_serve = sub.add_parser(
        "serve", help="run the mapping/simulation job service over HTTP"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8421, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result-store directory (default: in-memory only)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue bound; submissions beyond it get HTTP 429",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="dispatch worker threads"
    )
    p_serve.add_argument(
        "--executor",
        default="process",
        choices=BATCH_EXECUTORS,
        help="run_batch executor for job slots (default: process)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request wall-clock budget in seconds (default: none)",
    )
    p_serve.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write-ahead job journal path (default: <store>/journal.ndjson "
        "when --store is set; '' disables journaling)",
    )
    p_serve.add_argument(
        "--recover",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="replay unfinished journaled jobs at startup so a kill -9 "
        "mid-batch loses nothing (--no-recover starts fresh)",
    )
    p_serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="result-store disk cap; least-recently-read entries are "
        "evicted once the store exceeds it (default: unbounded)",
    )
    p_serve.add_argument(
        "--result-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict store entries idle longer than this (default: never)",
    )
    p_serve.add_argument(
        "--client-quota",
        type=int,
        default=None,
        metavar="N",
        help="max queued/running jobs per client identity (X-Repro-Client "
        "header); submissions beyond it get HTTP 429 (default: none)",
    )

    p_submit = sub.add_parser(
        "submit", help="submit a request to a running service"
    )
    p_submit.add_argument(
        "--url", required=True, help="service base URL, e.g. http://127.0.0.1:8421"
    )
    p_submit.add_argument(
        "--json",
        action="append",
        metavar="FILE",
        help="request payload JSON file ('-' = stdin; repeat for a batch job)",
    )
    p_submit.add_argument(
        "--app", default=None, help="app name or core-graph JSON path"
    )
    p_submit.add_argument("--algorithm", default="nmap", choices=mappers)
    p_submit.add_argument(
        "--topology",
        default=None,
        help="'auto', 'mesh:4x4' or 'torus:8x8' (default: smallest mesh fit)",
    )
    p_submit.add_argument(
        "--link-bw", type=float, default=None, help="uniform link BW in MB/s"
    )
    p_submit.add_argument(
        "--seed", type=int, default=None, help="seed for stochastic mappers"
    )
    p_submit.add_argument(
        "--mapper-opt",
        action="append",
        metavar="KEY=VALUE",
        help="algorithm option (repeatable)",
    )
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for the result",
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="stream per-slot results as NDJSON while the job runs",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="client-side wait budget in seconds",
    )
    p_submit.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts for transport failures and 429/503 rejections, "
        "with exponential backoff honoring the server's Retry-After "
        "(safe: submissions dedup on the canonical request key)",
    )
    p_submit.add_argument(
        "--client-id",
        default=None,
        help="identity sent as X-Repro-Client (server quotas account "
        "against it)",
    )
    p_submit.add_argument(
        "--priority",
        default=None,
        choices=("low", "normal", "high"),
        help="X-Repro-Priority class; low is shed first under overload",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-apps": _cmd_list_apps,
        "list-mappers": _cmd_list_mappers,
        "list-engines": _cmd_list_engines,
        "map": _cmd_map,
        "simulate": _cmd_simulate,
        "partition": _cmd_partition,
        "design": _cmd_design,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
