"""Shared experiment plumbing: result tables, rendering, batch fan-out."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api import MapRequest, MapResponse, MapperOptions, TopologySpec, run_batch
from repro.errors import ApiError, ReproError
from repro.graphs.core_graph import CoreGraph
from repro.graphs.topology import NoCTopology


@dataclass
class ExperimentTable:
    """A rendered-ready experiment result.

    Attributes:
        title: what the table reproduces (e.g. ``"Figure 3"``).
        headers: column names.
        rows: one list per row; cells may be str/int/float.
        notes: provenance notes (parameters, substitutions) appended under
            the table.
    """

    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list[Any]:
        """All cells of the named column."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_by_key(self, key: Any) -> list[Any]:
        """The row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise ReproError(f"no row with key {key!r} in {self.title}")

    def render(self) -> str:
        return render_table(self.title, self.headers, self.rows, self.notes)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.2f}".rstrip("0").rstrip(".")
    return str(cell)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: Sequence[str] = (),
) -> str:
    """Plain-text table with aligned columns (the CLI's output)."""
    cells = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

    lines = [title, "=" * len(title), format_row(headers)]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in cells)
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def map_grid(
    apps: Sequence[str | dict],
    mappers: Sequence[str],
    *,
    options: dict[str, MapperOptions] | None = None,
    topologies: Sequence[TopologySpec] = (TopologySpec(),),
    price_bandwidth: bool = False,
    workers: int | None = None,
) -> dict[tuple[int, str, str], MapResponse]:
    """Fan one request per (app x topology x mapper) over the batch engine.

    This is the shared shape of every comparison experiment: instead of
    nested inline loops, each experiment declares its grid and indexes the
    responses by ``(app_position, topology.describe(), mapper)``.  The
    default ``auto`` topology with unset bandwidth reproduces the paper's
    regime (smallest fitting mesh, every routing feasible).

    Args:
        apps: app names or inline core-graph payloads.
        mappers: registry names to run.
        options: optional per-mapper typed options (e.g. PBB's queue bound).
        topologies: topology specs to cross with the apps.
        price_bandwidth: also compute min feasible link bandwidths.
        workers: thread count for :func:`repro.api.run_batch`.

    Raises:
        ApiError: when two topologies share a description (the response key
            would silently collide — e.g. a bandwidth-only sweep; run those
            as separate grids or directly through ``run_batch``).
    """
    descriptions = [topology.describe() for topology in topologies]
    if len(set(descriptions)) != len(descriptions):
        raise ApiError(
            f"map_grid topologies must be distinguishable by describe(), "
            f"got {descriptions}"
        )
    requests = [
        MapRequest(
            app=app,
            mapper=mapper,
            topology=topology,
            options=(options or {}).get(mapper),
            price_bandwidth=price_bandwidth,
        )
        for app in apps
        for topology in topologies
        for mapper in mappers
    ]
    responses = run_batch(requests, workers=workers)
    keys = [
        (position, topology.describe(), mapper)
        for position in range(len(apps))
        for topology in topologies
        for mapper in mappers
    ]
    return dict(zip(keys, responses))


def mesh_for_app(app: CoreGraph, link_bandwidth: float) -> NoCTopology:
    """The experiment convention: smallest near-square mesh fitting the app."""
    return NoCTopology.smallest_mesh_for(app.num_cores, link_bandwidth=link_bandwidth)


def generous_link_bandwidth(app: CoreGraph) -> float:
    """A uniform link capacity loose enough that any routing is feasible.

    Figure 3 compares costs "with the same bandwidth constraints for all
    algorithms"; using the app's total bandwidth guarantees every algorithm
    operates in the feasible regime, so the comparison is purely about cost.
    """
    return app.total_bandwidth()
