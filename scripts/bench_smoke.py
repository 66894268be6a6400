#!/usr/bin/env python3
"""CI floor on the compiled kernel rung, read from the benchmark of record.

Runs ``benchmarks/e2e/run.py --smoke --trace --workload sim_saturation`` into
a temporary directory and reads its engine-ladder probe: at saturation the
compiled ``vector`` rung must advance at least ``FLOOR`` times the simulated
cycles per host second of the ``cycle`` engine.  The smoke size reads
9.8–10.8x on the 2-CPU bench host (18–25x before the object router stopped
re-resolving every head's route each cycle) and the interpreted sweep
~1.3–1.9x, so losing the backend fails loudly.
Skips, saying why, where no compiled rung resolves (``REPRO_NO_JIT=1``, no
numba and no ``cc``).

Exits non-zero when the floor is broken or the benchmark fails.  Run via
``make bench-smoke``; wired into ``make check``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.simnoc.engines import jit  # noqa: E402

FLOOR = 8.0
RUNG = "simnoc.engine.{}.cycles_per_s.saturation"


def main() -> int:
    backend, reason = jit.resolve_backend()
    if backend is None or backend.name == "py":
        print(f"bench-smoke skipped: no compiled kernel rung here ({reason})")
        return 0
    with tempfile.TemporaryDirectory() as out:
        result = os.path.join(out, "result.json")
        subprocess.run(
            [
                sys.executable,
                os.path.join(REPO, "benchmarks", "e2e", "run.py"),
                "--smoke", "--trace", "--workload", "sim_saturation",
                "--output", result,
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(result) as handle:
            metrics = json.load(handle)["workloads"]["sim_saturation"]["metrics"]
    vector, cycle = (metrics[RUNG.format(name)]["value"] for name in ("vector", "cycle"))
    ratio = vector / cycle
    print(
        f"vector ({backend.name}) {vector:,.0f} vs cycle {cycle:,.0f} simulated "
        f"cycles/s at saturation: {ratio:.1f}x (floor {FLOOR:g}x)"
    )
    if ratio < FLOOR:
        print(f"FAIL: the compiled vector rung is below {FLOOR:g}x the cycle engine")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
