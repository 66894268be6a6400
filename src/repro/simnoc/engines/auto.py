"""The ``auto`` engine: always the vector engine.

``auto`` is a policy, not a backend.  Measured on every host class this
repository benches (PERFORMANCE.md, "The engine ladder"), the vector
engine — compiled, or interpreted under ``REPRO_NO_JIT=1`` — was at least
as fast as the object-model engine it replaced from a near-idle network
to saturation.  Both router models a run can name flatten, so there is
no load threshold and no fallback: ``auto`` runs ``vector``, which every
other engine name also runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simnoc.engines.base import get_engine, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.network import Network
    from repro.simnoc.simulator import Simulator


def resolve_auto_engine(network: "Network") -> str:
    """The engine name ``auto`` delegates to for this built network."""
    return "vector"


@register_engine("auto")
class AutoEngine:
    """Dispatcher: always ``vector``."""

    name = "auto"

    def run(self, sim: "Simulator") -> None:
        get_engine(resolve_auto_engine(sim.network)).run(sim)
