#!/usr/bin/env python3
"""CI smoke for the partition subsystem and the ranged interpreted sweep.

The shard workers and the vector engine's no-JIT path run one loop
(``repro.simnoc.engines.sweep``); this smoke drives it both ways on a
16x16 mesh (256 nodes — big enough that the 4-way partition has real
interior *and* boundary traffic):

* the greedy-edge partitioner cuts the fabric into 4 balanced,
  JSON-round-trippable shards;
* ``shards=1`` takes the in-process route — the loop over the plan that
  owns every node, exactly what ``engine="vector"`` runs without a
  compiled kernel — and starts no child process;
* ``shards=4`` — four worker processes exchanging boundary flits at cycle
  barriers — runs the same loop per shard, at a load that keeps every
  boundary link busy (skipped where the fork start method is missing);
* both produce a report **byte-identical** (as the full dataclass repr,
  every statistic included) to the single-process cycle engine's, and
  flit traces that agree event for event, so the identity is not a lucky
  aggregate.

Exits non-zero on the first violated contract.  Run via ``make
shard-smoke``; wired into ``make check``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.graphs.topology import NoCTopology  # noqa: E402
from repro.partition import PartitionSpec, partition_topology  # noqa: E402
from repro.simnoc import (  # noqa: E402
    SimConfig,
    Simulator,
    build_synthetic_network,
)
from repro.simnoc.trace import TraceRecorder  # noqa: E402

SHARDS = 4


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    fabric = NoCTopology.mesh(16, 16, link_bandwidth=1600.0)

    spec = partition_topology(fabric, SHARDS, "greedy-edge")
    if sorted(spec.shard_sizes) != [64] * SHARDS:
        fail(f"unbalanced 16x16 partition: {spec.shard_sizes}")
    if PartitionSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) != spec:
        fail("partition spec does not survive a JSON round trip")
    print(
        f"partition: {SHARDS} shards of 64, edge cut {spec.edge_cut}"
        f"/{spec.num_edges} ({spec.cut_fraction * 100:.1f}%)"
    )

    def run(engine: str, **kwargs):
        config = SimConfig(
            warmup_cycles=200, measure_cycles=800, drain_cycles=300, seed=11
        )
        network = build_synthetic_network(fabric, config, "uniform", 0.25)
        recorder = TraceRecorder(max_events=10**6)
        report = Simulator(
            network, trace=recorder, engine=engine, **kwargs
        ).run()
        return repr(report), recorder.events, report

    cycle_blob, cycle_events, _ = run("cycle")

    solo_blob, solo_events, _ = run("sharded", shards=1)
    if multiprocessing.active_children():
        fail("sharded(1) started a child process; it must run in-process")
    if solo_blob != cycle_blob:
        fail("sharded(1) report is not byte-identical to the cycle engine's")
    if solo_events != cycle_events:
        fail("sharded(1) flit trace diverges from the cycle engine's")
    print(
        f"sharded(1) == cycle on 16x16, in-process: report "
        f"{len(solo_blob)} bytes identical, {len(solo_events)} trace "
        "events identical, no child process"
    )

    if "fork" not in multiprocessing.get_all_start_methods():
        print(f"SKIP: sharded({SHARDS}) needs the fork start method")
        print("PASS: shard smoke")
        return

    sharded_blob, sharded_events, sharded_report = run(
        "sharded", shards=SHARDS, partitioner="greedy-edge"
    )

    if sharded_blob != cycle_blob:
        fail("sharded report is not byte-identical to the cycle engine's")
    if sharded_events != cycle_events:
        fail("sharded flit trace diverges from the cycle engine's")

    print(
        f"sharded({SHARDS}) == cycle on 16x16: report {len(sharded_blob)} "
        f"bytes identical, {len(sharded_events)} trace events identical, "
        f"{sharded_report.packets_delivered} packets delivered"
    )
    print("PASS: shard smoke")


if __name__ == "__main__":
    main()
