"""Typed per-algorithm option dataclasses for the mapper registry.

Every mapping algorithm exposes its knobs as a frozen dataclass whose field
names match the algorithm function's keyword arguments, so the registry can
invoke ``fn(app, topology, **asdict(options))`` uniformly.  Options are
checked when they are built (not when they run), which is what lets a
queued batch fail fast on a typo instead of minutes into a fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Literal

from repro.codec import Payload
from repro.errors import ApiError

#: Objectives the cost-driven mappers (NMAP, annealing) can optimize.
#: ``"comm-cost"`` is Equation 7 on the pristine fabric; ``"resilience"``
#: is the expected Equation-7 cost over the single-link-failure ensemble
#: (see :mod:`repro.faults.resilience`).
Objective = Literal["comm-cost", "resilience"]


@dataclass(frozen=True)
class MapperOptions(Payload):
    """Base class for per-algorithm options: subclasses declare the
    algorithm's keyword arguments as fields (:mod:`repro.codec` checks
    their types and bounds) and :meth:`validate` any further rule."""

    @property
    def seedable(self) -> bool:
        """True when the algorithm is stochastic (has a ``seed`` field)."""
        return any(f.name == "seed" for f in fields(self))


@dataclass(frozen=True)
class NmapOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.nmap.nmap_single_path`."""

    improve: bool = True
    max_passes: int | None = field(default=None, metadata={"ge": 1})
    objective: Objective = "comm-cost"


@dataclass(frozen=True)
class NmapSplitOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.nmap_split.nmap_with_splitting`.

    The quadrant mode (NMAPTM vs NMAPTA) is part of the mapper *name*
    (``nmap-tm`` / ``nmap-ta``), not an option, so responses stay
    self-describing.
    """

    improve: bool = True


@dataclass(frozen=True)
class PmapOptions(MapperOptions):
    """PMAP has no tunable knobs; the empty options keep the API uniform."""


@dataclass(frozen=True)
class GmapOptions(MapperOptions):
    """GMAP has no tunable knobs; the empty options keep the API uniform."""


def check_partitioner(name: str) -> None:
    """Raise :class:`ApiError` unless ``name`` is ``auto`` or registered."""
    from repro.partition import list_partitioners

    if name != "auto" and name not in list_partitioners():
        raise ApiError(
            "partitioner must be 'auto' or one of "
            f"{', '.join(list_partitioners())}, got {name!r}"
        )


@dataclass(frozen=True)
class HmapOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.hmap.hmap` (partition-aware mapper)."""

    regions: int | None = field(default=None, metadata={"ge": 1})
    partitioner: str = "auto"
    refine: bool = True

    def validate(self) -> None:
        check_partitioner(self.partitioner)


@dataclass(frozen=True)
class PbbOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.pbb.pbb` (the paper's runtime budget)."""

    max_queue: int = field(default=2000, metadata={"ge": 1})
    tight_bounds: bool | None = None


@dataclass(frozen=True)
class AnnealingOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.annealing.annealing_mapping`."""

    seed: int = 1
    #: NaN and ±inf are out of bounds: an annealer started from either
    #: makes no move.
    initial_temperature: float | None = field(default=None, metadata={"gt": 0})
    cooling: float = field(default=0.95, metadata={"gt": 0, "lt": 1})
    moves_per_temperature: int | None = field(default=None, metadata={"ge": 1})
    min_temperature_fraction: float = field(default=1e-4, metadata={"gt": 0})
    objective: Objective = "comm-cost"
