"""Engine protocol and registry.

An engine is a strategy object: ``run(sim)`` drives ``sim.network`` from
cycle 0 to ``sim.config.total_cycles``, mutating the network's components
and leaving the run's packets on ``sim`` — objects appended to
``sim.all_packets`` and delivered into the NIs, or, from the compiled
kernel, the columns of ``sim.packet_log``.  The ``sim``
argument is the :class:`repro.simnoc.simulator.Simulator` acting as the run
context — it owns the network, the config, the optional trace recorder, the
global packet-id counter and the report builder.

Engines self-register with :func:`register_engine`; surfaces resolve them
by name so ``engine="event"`` can flow from a CLI flag all the way down
without any dispatch tables in between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError

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


_ENGINES: dict[str, Callable[[], Engine]] = {}


def register_engine(name: str) -> Callable[[type], type]:
    """Class decorator registering an engine under ``name``."""

    def decorate(cls: type) -> type:
        if name in _ENGINES:
            raise SimulationError(f"engine {name!r} is already registered")
        _ENGINES[name] = cls
        return cls

    return decorate


def get_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``.

    Raises:
        SimulationError: for unknown names; the message lists valid ones.
    """
    _ensure_engines_loaded()
    try:
        return _ENGINES[name]()
    except KeyError:
        raise SimulationError(
            f"unknown engine {name!r}; known: {', '.join(list_engines())}"
        ) from None


def list_engines() -> tuple[str, ...]:
    """All registered engine names, sorted."""
    _ensure_engines_loaded()
    return tuple(sorted(_ENGINES))


def _ensure_engines_loaded() -> None:
    """Import the engine modules so their decorators have run."""
    import repro.simnoc.engines.auto  # noqa: F401
    import repro.simnoc.engines.cycle  # noqa: F401
    import repro.simnoc.engines.event  # noqa: F401
    import repro.simnoc.engines.sharded  # noqa: F401
    import repro.simnoc.engines.vector  # noqa: F401
