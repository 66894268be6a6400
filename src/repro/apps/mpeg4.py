"""MPEG-4 decoder core graph (14 cores).

Reconstruction of the Van der Tol / Jaspers MPEG-4 decoder used in the
paper's evaluation: a hub-and-spoke structure around the shared SDRAM (the
distinctive feature of this workload — one memory core concentrates close
to half the traffic) with the decoding pipeline (VLD -> IDCT -> motion
compensation -> up-sampling -> display) and the RISC/media-CPU control
cluster on the side.  Bandwidths are in MB/s and follow the magnitudes
reported in the MPEG-4 mapping literature (the 910 MB/s SDRAM reference
fetch dominating).  The graph is a reconstruction.
"""

from __future__ import annotations

from repro.graphs.core_graph import CoreGraph

#: (src, dst, MB/s) for the 14-core MPEG-4 decoder.
MPEG4_FLOWS: tuple[tuple[str, str, float], ...] = (
    ("demux", "vld", 60.0),
    ("demux", "au_dec", 1.0),
    ("vld", "idct", 250.0),
    ("vld", "sdram", 32.0),
    ("idct", "mc", 400.0),
    ("sdram", "mc", 910.0),
    ("mc", "sdram", 600.0),
    ("mc", "upsamp", 500.0),
    ("sdram", "upsamp", 173.0),
    ("upsamp", "disp", 670.0),
    ("risc", "sdram", 500.0),
    ("sdram", "risc", 250.0),
    ("risc", "sram1", 300.0),
    ("sram1", "risc", 300.0),
    ("risc", "sram2", 200.0),
    ("sram2", "risc", 200.0),
    ("med_cpu", "sdram", 60.0),
    ("rast", "sdram", 640.0),
    ("au_dec", "adsp", 1.0),
    ("adsp", "sdram", 1.0),
)


def mpeg4() -> CoreGraph:
    """The 14-core MPEG-4 decoder core graph."""
    return CoreGraph.from_flows(MPEG4_FLOWS, name="mpeg4")
