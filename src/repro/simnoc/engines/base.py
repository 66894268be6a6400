"""Engine protocol and registry.

An engine is a strategy object: ``run(sim)`` drives ``sim.network`` from
cycle 0 to ``sim.config.total_cycles`` and leaves the run's results as
columns where the report builder reads them: ``sim.packet_log`` and
``sim.carried``.  The ``sim`` argument is the
:class:`repro.simnoc.simulator.Simulator` acting as the run context — it
owns the network, the config, the optional trace recorder, the global
packet-id counter and the report builder.  A traffic source is polled or
replayed ahead of time, so it must be open-loop: it never reads network
state (:class:`repro.simnoc.models.TrafficSource`).

Engines self-register with :func:`register_engine`; surfaces resolve them
by name so ``engine="vector"`` can flow from a CLI flag all the way down
without any dispatch tables in between.  One class may file under several
names: ``cycle``, ``event`` and ``sharded`` are
:class:`~repro.simnoc.engines.vector.VectorEngine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.simulator import Simulator


@runtime_checkable
class Engine(Protocol):
    """What a simulation backend must implement."""

    name: str

    def run(self, sim: "Simulator") -> None:
        """Advance the network through the configured cycle window.

        Raises:
            SimulationError: on detected deadlock.
        """
        ...


def _load_engines() -> None:
    import repro.simnoc.engines.auto  # noqa: F401
    import repro.simnoc.engines.vector  # noqa: F401


ENGINES = Registry("engine", SimulationError, _load_engines)

#: ``@register_engine(name)`` on an engine class.
register_engine = ENGINES.register
#: All registered engine names, sorted.
list_engines = ENGINES.names


def get_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``."""
    return ENGINES.get(name)()
