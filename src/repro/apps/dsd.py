"""Dual Screen Display core graph (16 cores).

Jaspers et al. chip-set workload: one input stream is split toward two
complete display pipelines (scalers, mixers, display buffers and
controllers), with an on-screen-display plane overlaid on both screens.
Bandwidths (MB/s): 256 MB/s shared input, 128 MB/s per-screen streams,
96 MB/s after scaling, 160 MB/s composited outputs, 32 MB/s OSD planes.
The graph is a reconstruction.
"""

from __future__ import annotations

from repro.graphs.core_graph import CoreGraph

#: (src, dst, MB/s) for the 16-core Dual Screen Display.
DSD_FLOWS: tuple[tuple[str, str, float], ...] = (
    ("inp", "split", 256.0),
    ("split", "mem_a", 128.0),
    ("mem_a", "hs_a", 128.0),
    ("hs_a", "vs_a", 96.0),
    ("vs_a", "mix_a", 96.0),
    ("mix_a", "dmem_a", 160.0),
    ("dmem_a", "disp_a", 160.0),
    ("split", "mem_b", 128.0),
    ("mem_b", "hs_b", 128.0),
    ("hs_b", "vs_b", 96.0),
    ("vs_b", "mix_b", 96.0),
    ("mix_b", "dmem_b", 160.0),
    ("dmem_b", "disp_b", 160.0),
    ("osd", "osd_mem", 32.0),
    ("osd_mem", "mix_a", 32.0),
    ("osd_mem", "mix_b", 32.0),
)


def dsd() -> CoreGraph:
    """The 16-core Dual Screen Display core graph."""
    return CoreGraph.from_flows(DSD_FLOWS, name="dsd")
