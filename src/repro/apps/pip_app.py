"""Picture-In-Picture application core graph (8 cores).

One of the four high-end video applications from the Jaspers et al.
chip-set (Table 1 of their TCE'99 paper): a main video window and an
inset window share the display pipeline.  The inset branch is scaled down
(horizontal + vertical scalers) and merged by the juggler (compositor)
before display.  Bandwidths (MB/s) follow standard-definition video rates:
128 MB/s full streams, 64 MB/s scaled streams.  The graph is a
reconstruction.
"""

from __future__ import annotations

from repro.graphs.core_graph import CoreGraph

#: (src, dst, MB/s) for the 8-core PIP application.
PIP_FLOWS: tuple[tuple[str, str, float], ...] = (
    ("inp", "inp_mem", 128.0),
    ("inp_mem", "hs", 64.0),
    ("hs", "vs", 64.0),
    ("vs", "pip_mem", 64.0),
    ("pip_mem", "juggler", 64.0),
    ("inp_mem", "juggler", 128.0),
    ("juggler", "disp_ctrl", 128.0),
    ("disp_ctrl", "disp", 128.0),
)


def pip() -> CoreGraph:
    """The 8-core Picture-In-Picture core graph."""
    return CoreGraph.from_flows(PIP_FLOWS, name="pip")
