"""Multi-Window Application core graph (14 cores).

Jaspers et al. chip-set workload: two independently scaled video windows
plus a background layer are composited by a blender, with a zoom path and a
display buffer in front of the display controller.  Bandwidths (MB/s):
128 MB/s raw inputs, 96 MB/s after horizontal scaling, 64 MB/s after
vertical scaling, 196-256 MB/s on the composited display path.
The graph is a reconstruction.
"""

from __future__ import annotations

from repro.graphs.core_graph import CoreGraph

#: (src, dst, MB/s) for the 14-core Multi-Window Application.
MWA_FLOWS: tuple[tuple[str, str, float], ...] = (
    ("inp1", "mem1", 128.0),
    ("mem1", "hs1", 96.0),
    ("hs1", "vs1", 96.0),
    ("vs1", "blend", 64.0),
    ("inp2", "mem2", 128.0),
    ("mem2", "hs2", 96.0),
    ("hs2", "vs2", 96.0),
    ("vs2", "blend", 64.0),
    ("bg_mem", "blend", 196.0),
    ("mem1", "blend", 32.0),
    ("blend", "zoom", 64.0),
    ("zoom", "disp_mem", 64.0),
    ("blend", "disp_mem", 256.0),
    ("disp_mem", "disp_ctrl", 256.0),
    ("disp_ctrl", "disp", 256.0),
)


def mwa() -> CoreGraph:
    """The 14-core Multi-Window Application core graph."""
    return CoreGraph.from_flows(MWA_FLOWS, name="mwa")
