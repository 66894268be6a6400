"""The five workloads: seeded request generators, one round at a time.

Every generator is a pure function of ``(seed, round_index, sizes)``; the
program under test only ever receives the generated requests.  The
in-process workloads repeat one identical round (their generators ignore
``round_index``), so a round's response hash is the same every round.  The
service workloads differ: ``service_cold`` must never repeat a request (a
repeat would be a store hit), so every round draws fresh requests, while
``service_warm`` draws each round from one fixed pool that set-up has
already pushed through the server.
"""

from __future__ import annotations

import random

from repro.api import (
    FaultSpec,
    MapRequest,
    SimOptions,
    SimRequest,
    TopologySpec,
)
from repro.graphs.io import core_graph_to_dict
from repro.graphs.random_graphs import random_core_graph

#: Per-round sizes.  ``full`` is sized for ~1-1.5 s rounds on a 2-CPU host;
#: ``smoke`` keeps every request kind but shrinks each to the minimum.
SIZES = {
    "full": {
        "graph_cores": (25, 35, 45, 55, 65, 80, 100),
        "builtin_apps": ("dsd", "dsp", "mpeg4", "mwa", "mwag", "pip", "vopd"),
        "annealing_cores": (25,),
        "saturation_cycles": 2_000,
        "sweep_cycles": 1_500,
        "ladder_cycles": {"sweep": 1_500, "saturation": 600},
        "service_sim_cycles": 4_000,
        "cold_requests": 40,
        "warm_pool": 32,
        "warm_requests": 192,
    },
    "smoke": {
        "graph_cores": (25,),
        "builtin_apps": ("dsp", "pip"),
        "annealing_cores": (),
        "saturation_cycles": 150,
        "sweep_cycles": 150,
        "ladder_cycles": {"sweep": 150, "saturation": 100},
        "service_sim_cycles": 300,
        "cold_requests": 6,
        "warm_pool": 4,
        "warm_requests": 12,
    },
}


def _rng(workload: str, seed: int, round_index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _inline_graph(rng: random.Random, cores: int) -> dict:
    return core_graph_to_dict(random_core_graph(cores, rng.randrange(2**31)))


def map_request(app, mapper: str = "nmap", **kwargs) -> MapRequest:
    kwargs.setdefault("price_bandwidth", False)
    return MapRequest(app=app, mapper=mapper, **kwargs)


def map_suite(seed: int, round_index: int, sizes: dict) -> list[MapRequest]:
    """Seeded random graphs x the four scalable mappers, plus every other mapper."""
    rng = _rng("map_suite", seed)
    requests: list[MapRequest] = []
    for cores in sizes["graph_cores"]:
        graph = _inline_graph(rng, cores)
        for mapper in ("nmap", "pmap", "gmap", "hmap"):
            requests.append(map_request(graph, mapper))
    requests.append(map_request(_inline_graph(rng, 25), "nmap-tm"))
    for app in sizes["builtin_apps"]:
        requests.append(map_request(app, "nmap-ta"))
        requests.append(map_request(app, "nmap", price_bandwidth=True))
    for cores in sizes["annealing_cores"]:
        requests.append(
            map_request(_inline_graph(rng, cores), "annealing", seed=rng.randrange(2**31))
        )
    requests.append(map_request("pip", "pbb"))
    return requests


def sim_request(mapping: MapRequest, cycles: int, sim_seed: int, **options) -> SimRequest:
    """A sim request with the workloads' fixed 1 : 0.1 : 0.3 cycle windows."""
    return SimRequest(
        map_request=mapping,
        measure_cycles=cycles,
        warmup_cycles=cycles // 10,
        drain_cycles=cycles * 3 // 10,
        sim_seed=sim_seed,
        faults=options.pop("faults", None),
        options=SimOptions(**options),
    )


def vopd_on(topology: str) -> MapRequest:
    return map_request("vopd", topology=TopologySpec.parse(topology))


def sim_saturation(seed: int, round_index: int, sizes: dict) -> list[SimRequest]:
    """Five loaded synthetic runs on the vector engine; mapping is a 2 ms VOPD nmap."""
    rng = _rng("sim_saturation", seed)
    cycles = sizes["saturation_cycles"]
    points = (
        ("mesh:16x16", "uniform", 0.30, 1),
        ("mesh:16x16", "uniform", 0.30, 2),
        ("mesh:12x12", "transpose", 0.35, 1),
        ("torus:8x8", "uniform", 0.30, 2),
        ("mesh:8x8", "onoff", 0.40, 1),
    )
    return [
        sim_request(
            vopd_on(topology),
            cycles,
            rng.randrange(2**31),
            engine="vector",
            traffic=traffic,
            injection_rate=rate,
            num_vcs=num_vcs,
        )
        for topology, traffic, rate, num_vcs in points
    ]


def sim_sweep(seed: int, round_index: int, sizes: dict) -> list[SimRequest]:
    """Short runs on small fabrics across the cycle, event and auto engines."""
    rng = _rng("sim_sweep", seed)
    cycles = sizes["sweep_cycles"]
    requests: list[SimRequest] = []
    for app in ("vopd", "mpeg4", "dsp"):
        sim_seed = rng.randrange(2**31)
        for engine in ("cycle", "event", "auto"):
            requests.append(sim_request(map_request(app), cycles, sim_seed, engine=engine))
    for rate in (0.005, 0.02):
        sim_seed = rng.randrange(2**31)
        for engine in ("cycle", "event", "auto"):
            requests.append(
                sim_request(
                    vopd_on("mesh:8x8"),
                    cycles,
                    sim_seed,
                    engine=engine,
                    traffic="uniform",
                    injection_rate=rate,
                )
            )
    # VOPD's auto mesh is 4x4: two interior links, rerouted around.
    for link in ((5, 6), (9, 10)):
        requests.append(
            sim_request(
                map_request("vopd"),
                cycles,
                rng.randrange(2**31),
                engine="auto",
                faults=FaultSpec(failed_links=(link,)),
            )
        )
    return requests


def _service_mix(rng: random.Random, count: int, sizes: dict) -> list:
    """75 % small inline-graph nmap requests, 25 % trace simulations."""
    requests: list = []
    for index in range(count):
        if index % 4 == 3:
            requests.append(
                sim_request(
                    map_request(("vopd", "mpeg4")[index // 4 % 2]),
                    sizes["service_sim_cycles"],
                    rng.randrange(2**31),
                    engine="auto",
                )
            )
        else:
            requests.append(map_request(_inline_graph(rng, rng.randint(16, 25))))
    return requests


def service_cold(seed: int, round_index: int, sizes: dict) -> list:
    """Fresh unique requests every round (``round_index`` 0 is the warm-up)."""
    return _service_mix(
        _rng("service_cold", seed, round_index), sizes["cold_requests"], sizes
    )


def service_warm_pool(seed: int, sizes: dict) -> list:
    """The distinct requests set-up pushes through the server once."""
    return _service_mix(_rng("service_warm", seed), sizes["warm_pool"], sizes)


def service_warm(seed: int, round_index: int, sizes: dict) -> list:
    """Shuffled passes over the pool: every request is a store hit.

    Whole passes (rather than independent draws) keep the map : sim ratio
    of every round exact, so the latency percentiles do not move with the
    luck of the draw.
    """
    pool = service_warm_pool(seed, sizes)
    rng = _rng("service_warm-draws", seed, round_index)
    requests: list = []
    for _ in range(sizes["warm_requests"] // len(pool)):
        requests.extend(rng.sample(pool, len(pool)))
    return requests


IN_PROCESS = {
    "map_suite": map_suite,
    "sim_saturation": sim_saturation,
    "sim_sweep": sim_sweep,
}
SERVICE = {"service_cold": service_cold, "service_warm": service_warm}
