"""Simulated-annealing mapper (extension beyond the paper's comparison set).

The NoC-mapping literature that followed the paper frequently benchmarks
against simulated annealing; this implementation completes the comparison
surface.  Moves are the same node-content swaps NMAP's refinement uses
(including moves onto empty nodes), the objective is Equation 7's cost, and
the cooling schedule is geometric.  Everything is seeded, so results are
reproducible; the ablation bench compares it against NMAP on cost and
runtime.

Bandwidth constraints are handled the way NMAP's swap loop handles them:
candidate acceptance is on cost, and the final mapping is priced/validated
with the single-minimum-path router.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.api.options import AnnealingOptions
from repro.api.registry import register_mapper
from repro.errors import MappingError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology
from repro.mapping.base import Mapping, MappingResult
from repro.mapping.initializer import initial_mapping
from repro.mapping.nmap import evaluate_single_path
from repro.metrics.comm_cost import SwapMirror, comm_cost


def pair_sampler(
    rng: random.Random, nodes: list[int]
) -> Callable[[], tuple[int, int]]:
    """A draw of two distinct nodes: what ``rng.sample(nodes, 2)`` returns,
    taking the same numbers from the stream, without ``sample``'s per-call
    set-up.  ``sample`` fills k = 2 from a shrinking pool while the
    population has at most 21 members, and redraws repeats above that.
    """
    count, last, draw = len(nodes), len(nodes) - 1, rng.randrange

    def pooled() -> tuple[int, int]:
        first, second = draw(count), draw(last)
        return nodes[first], nodes[last if second == first else second]

    def redrawn() -> tuple[int, int]:
        first = second = draw(count)
        while second == first:
            second = draw(count)
        return nodes[first], nodes[second]

    return pooled if count <= 21 else redrawn


@register_mapper("annealing", options=AnnealingOptions,
                 summary="Seeded simulated annealing over pairwise swaps (extension)")
def annealing_mapping(
    core_graph: CoreGraph,
    topology: NoCTopology,
    seed: int = 1,
    initial_temperature: float | None = None,
    cooling: float = 0.95,
    moves_per_temperature: int | None = None,
    min_temperature_fraction: float = 1e-4,
    objective: str = "comm-cost",
) -> MappingResult:
    """Map cores with simulated annealing over pairwise swaps.

    Args:
        core_graph: application graph.
        topology: NoC graph.
        seed: RNG seed (temperature schedule is deterministic; move
            selection and acceptance are drawn from this stream).
        initial_temperature: starting temperature; defaults to 5% of the
            seed mapping's cost, which accepts most early uphill moves.
        cooling: geometric cooling factor per temperature step.
        moves_per_temperature: moves attempted per step; defaults to
            ``4 * |U|``.
        min_temperature_fraction: stop when the temperature falls below
            this fraction of the initial temperature.
        objective: ``"comm-cost"`` (Equation 7) or ``"resilience"``
            (expected cost over the single-link-failure ensemble; the
            anneal scores moves on the ensemble metric view of
            :mod:`repro.faults.resilience` and the final mapping is routed
            and priced on the real fabric).

    Returns:
        :class:`MappingResult` priced with single-minimum-path routing.
    """
    if core_graph.num_cores == 0:
        raise MappingError("cannot map an empty core graph")
    if not (0.0 < cooling < 1.0):
        raise MappingError(f"cooling factor must be in (0, 1), got {cooling}")

    resilience = objective == "resilience"
    if resilience:
        from repro.faults.resilience import resilience_view

        search_topology, ensemble_size = resilience_view(topology)
    else:
        search_topology, ensemble_size = topology, 0

    rng = random.Random(seed)
    mapping = initial_mapping(core_graph, search_topology)
    current_cost = comm_cost(mapping)
    best_mapping = mapping.copy()
    best_cost = current_cost

    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(1.0, 0.05 * current_cost)
    )
    floor = temperature * min_temperature_fraction
    moves = moves_per_temperature or 4 * topology.num_nodes
    draw_pair = pair_sampler(rng, search_topology.healthy_nodes())
    mirror = SwapMirror(mapping)

    accepted = 0
    attempted = 0
    while temperature > floor:
        for _ in range(moves):
            attempted += 1
            node_a, node_b = draw_pair()
            delta = mirror.delta(node_a, node_b)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                mirror.swap(node_a, node_b)
                current_cost += delta
                accepted += 1
                if current_cost < best_cost:
                    best_cost = current_cost
                    best_mapping = mapping.copy()
        temperature *= cooling

    stats = {
        "moves_attempted": attempted,
        "moves_accepted": accepted,
        "final_temperature": temperature,
    }
    if resilience:
        # The anneal scored moves on the ensemble metric view; re-anchor on
        # the real fabric for routing and the reported Equation-7 cost.
        stats["objective"] = objective
        stats["expected_fault_cost"] = comm_cost(best_mapping) / ensemble_size
        best_mapping = Mapping(core_graph, topology, best_mapping.placement)

    cost, routing, feasible = evaluate_single_path(best_mapping)
    return MappingResult(
        mapping=best_mapping,
        comm_cost=cost,
        feasible=feasible,
        algorithm="annealing",
        routing=routing,
        stats=stats,
    )
