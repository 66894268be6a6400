"""The mapper registry: one catalogue of mapping algorithms for all surfaces.

Algorithms self-register with the :func:`register_mapper` decorator on
their defining function; the CLI, the experiment runner, the benchmarks
and the batch engine all resolve them here.  :mod:`repro.mapping` imports
*us* to register, so the registry imports it lazily, on the first lookup.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.api.options import MapperOptions
from repro.errors import ApiError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graphs.core_graph import CoreGraph
    from repro.graphs.topology import NoCTopology
    from repro.mapping.base import MappingResult


@dataclass(frozen=True)
class MapperEntry:
    """One registered mapping algorithm.

    Attributes:
        name: public registry key (e.g. ``"nmap-tm"``).
        fn: the algorithm callable ``fn(app, topology, **kwargs)``.
        options_type: dataclass of user-tunable keyword arguments.
        fixed: keyword arguments pinned by the registration (e.g. the
            quadrant mode that distinguishes ``nmap-tm`` from ``nmap-ta``).
        summary: one-line description for ``list-mappers`` output.
    """

    name: str
    fn: Callable[..., "MappingResult"]
    options_type: type[MapperOptions]
    fixed: tuple[tuple[str, Any], ...]
    summary: str

    def default_options(self) -> MapperOptions:
        return self.options_type()

    @property
    def seedable(self) -> bool:
        """True when the algorithm accepts a ``seed`` option."""
        return self.options_type().seedable

    def options_from_dict(self, payload: dict[str, Any] | None) -> MapperOptions:
        """Validated options from a JSON-style dict (None -> defaults)."""
        if payload is None:
            return self.options_type()
        return self.options_type.from_dict(payload)

    def coerce_options(self, options: MapperOptions | None) -> MapperOptions:
        """The options to run with: defaults for None, else ``options`` itself
        (checked when it was built) when it is this entry's type.

        Raises:
            ApiError: when ``options`` is of another mapper's type.
        """
        if options is None:
            return self.options_type()
        if type(options) is not self.options_type:
            raise ApiError(
                f"mapper {self.name!r} takes {self.options_type.__name__}, "
                f"got {type(options).__name__}"
            )
        return options

    def run(
        self,
        app: "CoreGraph",
        topology: "NoCTopology",
        options: MapperOptions | None = None,
    ) -> "MappingResult":
        """Invoke the algorithm with validated options."""
        opts = self.coerce_options(options)
        kwargs = opts.to_dict()
        kwargs.update(self.fixed)
        return self.fn(app, topology, **kwargs)


def _load_mappers() -> None:
    import repro.mapping  # noqa: F401  (registration side effect)


#: Presentation order is the paper's: NMAP variants first, then the
#: compared baselines, then extensions; unlisted names follow sorted.
MAPPERS = Registry(
    "mapper",
    ApiError,
    _load_mappers,
    order=("nmap", "nmap-tm", "nmap-ta", "pmap", "gmap", "pbb", "annealing", "hmap"),
)


def register_mapper(
    name: str,
    *,
    options: type[MapperOptions],
    fixed: dict[str, Any] | None = None,
    summary: str = "",
) -> Callable[[Callable[..., "MappingResult"]], Callable[..., "MappingResult"]]:
    """Function-decorator factory registering a mapping algorithm.

    The decorated function is returned unchanged, so the plain functional
    API (``nmap_single_path(app, mesh)``) keeps working.
    """

    def entry(fn: Callable[..., "MappingResult"]) -> MapperEntry:
        doc = (fn.__doc__ or "").strip().splitlines()
        return MapperEntry(
            name=name,
            fn=fn,
            options_type=options,
            fixed=tuple(sorted((fixed or {}).items())),
            summary=summary or (doc[0] if doc else ""),
        )

    return MAPPERS.register(name, entry)


#: All registered mapper names, in presentation order.
list_mappers = MAPPERS.names
#: The :class:`MapperEntry` under a name; ``ApiError`` listing the known
#: names when there is none.
get_mapper = MAPPERS.get


def mapper_entries() -> list[MapperEntry]:
    """All registered entries, in :func:`list_mappers` order."""
    return [MAPPERS.get(name) for name in list_mappers()]


def parse_option_assignments(pairs: Iterable[str]) -> dict[str, Any]:
    """Parse CLI-style ``key=value`` strings into an options payload.

    Values are decoded as JSON when possible (``3``, ``0.95``, ``true``,
    ``null``) and fall back to bare strings; ``none`` is accepted as an
    alias for ``null`` so shell users need no quoting tricks.

    Raises:
        ApiError: on entries without ``=``.
    """
    payload: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ApiError(f"mapper option must look like key=value, got {pair!r}")
        lowered = raw.strip().lower()
        if lowered in {"none", "null"}:
            payload[key] = None
        elif lowered == "true":
            payload[key] = True
        elif lowered == "false":
            payload[key] = False
        else:
            try:
                payload[key] = json.loads(raw)
            except json.JSONDecodeError:
                payload[key] = raw
    return payload


def with_seed(options: MapperOptions, seed: int) -> MapperOptions:
    """A copy of ``options`` with its ``seed`` field replaced.

    Raises:
        ApiError: when the options carry no seed (deterministic algorithm).
    """
    if not options.seedable:
        raise ApiError(
            f"{type(options).__name__} has no seed — the algorithm is deterministic"
        )
    return dataclasses.replace(options, seed=seed)
