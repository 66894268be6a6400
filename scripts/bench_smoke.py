#!/usr/bin/env python3
"""CI floor on the compiled kernel rung: compiled ``vector`` against the interpreted sweep.

Times the engine ladder's saturation request (an 8x8 mesh, uniform traffic
at 0.30 flits/cycle/node) on the ``vector`` engine twice over: on the
compiled rung that resolves here, and under ``REPRO_NO_JIT=1`` on the
interpreted sweep.  The two legs alternate, ``ROUNDS`` runs each, and the
best run of each leg counts; the compiled rung must advance at least
``FLOOR`` times the interpreted sweep's simulated cycles per host second.
Both legs run in this process moments apart, so a busy host slows both
alike: the ratio reads 13.6–17.2x on a 2-CPU host, a busy-loop neighbour
included, while a kernel that stops being compiled reads 1.0x (the
interpreted sweep on both legs) or 0.2x (the kernel twin as CPython,
``REPRO_JIT=py``).
Skips, saying why, where no compiled rung resolves (``REPRO_NO_JIT=1``, no
``cc``).

Exits non-zero when the floor is broken.  Run via ``make bench-smoke``;
wired into ``make check``.
"""

from __future__ import annotations

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.graphs.topology import NoCTopology  # noqa: E402
from repro.simnoc import SimConfig, Simulator, build_synthetic_network  # noqa: E402
from repro.simnoc.engines import VectorEngine, jit  # noqa: E402

FLOOR = 8.0
ROUNDS = 5
#: The measured window; warmup and drain are a tenth and three tenths of it.
CYCLES = 600
MESH = NoCTopology.mesh(8, 8, link_bandwidth=1600.0)


def cycles_per_s(interpreted: bool) -> float:
    """Simulated cycles per host second of one vector run, inside ``run``."""
    config = SimConfig(
        warmup_cycles=CYCLES // 10,
        measure_cycles=CYCLES,
        drain_cycles=CYCLES * 3 // 10,
        seed=7,
    )
    sim = Simulator(build_synthetic_network(MESH, config, "uniform", 0.30))
    saved = os.environ.get("REPRO_NO_JIT")
    if interpreted:
        os.environ["REPRO_NO_JIT"] = "1"
    try:
        start = time.perf_counter()
        VectorEngine().run(sim)
        elapsed = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_JIT", None)
        else:
            os.environ["REPRO_NO_JIT"] = saved
    return config.total_cycles / elapsed


def main() -> int:
    backend, reason = jit.resolve_backend()
    if backend is None or backend.name == "py":
        print(f"bench-smoke skipped: no compiled kernel rung here ({reason})")
        return 0
    compiled, interpreted = [], []
    for _ in range(ROUNDS):
        compiled.append(cycles_per_s(interpreted=False))
        interpreted.append(cycles_per_s(interpreted=True))
    best_compiled, best_interpreted = max(compiled), max(interpreted)
    ratio = best_compiled / best_interpreted
    print(
        f"vector ({backend.name}) {best_compiled:,.0f} vs interpreted sweep "
        f"{best_interpreted:,.0f} simulated cycles/s at saturation, best of "
        f"{ROUNDS}: {ratio:.1f}x (floor {FLOOR:g}x)"
    )
    if ratio < FLOOR:
        print(
            f"FAIL: the compiled vector rung is below {FLOOR:g}x the "
            "interpreted sweep"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
