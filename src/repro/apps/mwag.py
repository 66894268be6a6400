"""Multi-Window Application with Graphics core graph (16 cores).

The MWA workload (see :mod:`repro.apps.mwa`) extended with a graphics
renderer whose frame buffer joins the blender — the chip-set variant
Jaspers et al. call "multi-window with graphics".  The graphics plane runs
at 192 MB/s (RGB at display rate).  The graph is a reconstruction.
"""

from __future__ import annotations

from repro.apps.mwa import MWA_FLOWS
from repro.graphs.core_graph import CoreGraph

#: Additional flows for the graphics plane.
MWAG_EXTRA_FLOWS: tuple[tuple[str, str, float], ...] = (
    ("gfx_render", "gfx_mem", 192.0),
    ("gfx_mem", "blend", 192.0),
)

MWAG_FLOWS: tuple[tuple[str, str, float], ...] = MWA_FLOWS + MWAG_EXTRA_FLOWS


def mwag() -> CoreGraph:
    """The 16-core Multi-Window Application with Graphics core graph."""
    return CoreGraph.from_flows(MWAG_FLOWS, name="mwag")
