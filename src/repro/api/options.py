"""Typed per-algorithm option dataclasses for the mapper registry.

Every mapping algorithm exposes its knobs as a frozen dataclass whose field
names match the algorithm function's keyword arguments, so the registry can
invoke ``fn(app, topology, **asdict(options))`` uniformly.  Options are
validated when a request is built (not when it runs), which is what lets a
queued batch fail fast on a typo instead of minutes into a fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from repro.errors import ApiError

#: Accepted runtime types per annotation token (bool is checked first and
#: excluded from int, since bool subclasses int).
_ANNOTATION_TYPES: dict[str, tuple[type, ...]] = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
}

#: Objectives the cost-driven mappers (NMAP, annealing) can optimize.
#: ``"comm-cost"`` is Equation 7 on the pristine fabric; ``"resilience"``
#: is the expected Equation-7 cost over the single-link-failure ensemble
#: (see :mod:`repro.faults.resilience`).
MAPPER_OBJECTIVES = ("comm-cost", "resilience")


def _check_objective(cls_name: str, objective: str) -> None:
    if objective not in MAPPER_OBJECTIVES:
        raise ApiError(
            f"{cls_name}.objective must be one of "
            f"{', '.join(MAPPER_OBJECTIVES)}, got {objective!r}"
        )


def _finite_positive(value: float) -> bool:
    """NaN and ±inf fail: an annealer started from either makes no move."""
    return math.isfinite(value) and value > 0


def _check_field_type(cls_name: str, name: str, annotation: str, value: Any) -> None:
    """Validate one option value against its field annotation string.

    Annotations here are always simple unions of ``bool``/``int``/``float``
    and ``None`` (stringified by ``from __future__ import annotations``).

    Raises:
        ApiError: when the value's type does not match.
    """
    tokens = {token.strip() for token in annotation.split("|")}
    if value is None:
        if "None" in tokens:
            return
        raise ApiError(f"{cls_name}.{name} must not be None")
    for token in tokens - {"None"}:
        expected = _ANNOTATION_TYPES.get(token)
        if expected is None:
            return  # unknown annotation: leave validation to validate()
        if isinstance(value, expected) and not (
            token != "bool" and isinstance(value, bool)
        ):
            return
    raise ApiError(
        f"{cls_name}.{name} expects {annotation}, got {value!r} "
        f"({type(value).__name__})"
    )


@dataclass(frozen=True)
class MapperOptions:
    """Base class for per-algorithm options.

    Subclasses declare the algorithm's keyword arguments as fields and may
    override :meth:`validate` for range checks.  ``to_dict``/``from_dict``
    give the JSON round-trip used by :class:`repro.api.specs.MapRequest`.
    """

    def validate(self) -> None:
        """Raise :class:`ApiError` on out-of-range values."""

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MapperOptions":
        """Build and validate options from a plain dictionary.

        Raises:
            ApiError: on unknown keys or values rejected by ``validate``.
        """
        if not isinstance(payload, dict):
            raise ApiError(f"{cls.__name__} payload must be a dict, got {payload!r}")
        by_name = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(by_name))
        if unknown:
            raise ApiError(
                f"unknown {cls.__name__} option(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(by_name)) or '(none)'}"
            )
        for name, value in payload.items():
            _check_field_type(cls.__name__, name, str(by_name[name].type), value)
        options = cls(**payload)
        options.validate()
        return options

    @property
    def seedable(self) -> bool:
        """True when the algorithm is stochastic (has a ``seed`` field)."""
        return any(f.name == "seed" for f in fields(self))


@dataclass(frozen=True)
class NmapOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.nmap.nmap_single_path`."""

    improve: bool = True
    max_passes: int | None = None
    objective: str = "comm-cost"

    def validate(self) -> None:
        if self.max_passes is not None and self.max_passes < 1:
            raise ApiError(f"max_passes must be >= 1, got {self.max_passes}")
        _check_objective(type(self).__name__, self.objective)


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

    regions: int | None = None
    partitioner: str = "auto"
    refine: bool = True

    def validate(self) -> None:
        if self.regions is not None and self.regions < 1:
            raise ApiError(f"regions must be >= 1, got {self.regions}")
        check_partitioner(self.partitioner)


@dataclass(frozen=True)
class PbbOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.pbb.pbb` (the paper's runtime budget)."""

    max_queue: int = 2000
    tight_bounds: bool | None = None

    def validate(self) -> None:
        if self.max_queue < 1:
            raise ApiError(f"max_queue must be >= 1, got {self.max_queue}")


@dataclass(frozen=True)
class AnnealingOptions(MapperOptions):
    """Knobs of :func:`repro.mapping.annealing.annealing_mapping`."""

    seed: int = 1
    initial_temperature: float | None = None
    cooling: float = 0.95
    moves_per_temperature: int | None = None
    min_temperature_fraction: float = 1e-4
    objective: str = "comm-cost"

    def validate(self) -> None:
        _check_objective(type(self).__name__, self.objective)
        if not (0.0 < self.cooling < 1.0):
            raise ApiError(f"cooling must be in (0, 1), got {self.cooling}")
        if self.initial_temperature is not None and not _finite_positive(
            self.initial_temperature
        ):
            raise ApiError(
                "initial_temperature must be finite and positive, "
                f"got {self.initial_temperature}"
            )
        if self.moves_per_temperature is not None and self.moves_per_temperature < 1:
            raise ApiError(
                f"moves_per_temperature must be >= 1, got {self.moves_per_temperature}"
            )
        if not _finite_positive(self.min_temperature_fraction):
            raise ApiError(
                "min_temperature_fraction must be finite and positive, "
                f"got {self.min_temperature_fraction}"
            )
