"""Benchmark suite configuration.

Every bench regenerates one table/figure of the paper (or an ablation) by
calling the same ``run_*`` functions the CLI uses, wrapped in
pytest-benchmark for timing.  Each bench also asserts the paper's *shape* on
the produced table, so ``pytest benchmarks/ --benchmark-only`` doubles as
the reproduction check.

Benches run once per invocation (``rounds=1``) — the workloads are
deterministic end-to-end algorithm runs, not microbenchmarks.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark ``func`` with a single round/iteration and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
