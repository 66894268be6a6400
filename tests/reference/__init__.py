"""The seed's scalar kernels, kept as oracles the tests compare against.

Production code under ``src/`` has one path per kernel and cannot select
any of these at run time.  ``tests/properties/test_seed_oracles.py`` calls
them directly, or substitutes them with ``monkeypatch`` at the import sites
of a whole algorithm (NMAP, the annealer, min-path routing) and demands the
identical trajectory.  Two oracles stay in ``src/`` because production
falls back to them on partial mappings: ``comm_cost_reference`` and the
per-pair ``swap_cost_delta`` (``repro.metrics.comm_cost``).
"""

from tests.reference.mapping import per_pair_swap_deltas, quadrant_outgoing
from tests.reference.simnoc import every_port_step, seed_cycle_loop

__all__ = [
    "every_port_step",
    "per_pair_swap_deltas",
    "quadrant_outgoing",
    "seed_cycle_loop",
]
