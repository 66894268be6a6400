"""Application core graphs used in the paper's evaluation (§7).

Six video-processing applications (Figure 3/4, Table 1) plus the DSP filter
design (Figure 5, Table 3):

* :func:`vopd` — Video Object Plane Decoder, 16 cores (Figure 1/2a; edge
  bandwidths encoded verbatim from the figure).
* :func:`mpeg4` — MPEG-4 decoder, 14 cores (Van der Tol / Jaspers
  structure; a reconstruction).
* :func:`pip` — Picture-In-Picture, 8 cores.
* :func:`mwa` — Multi-Window Application, 14 cores.
* :func:`mwag` — Multi-Window Application with Graphics, 16 cores.
* :func:`dsd` — Dual Screen Display, 16 cores.
* :func:`dsp_filter` — the 6-core DSP filter of Figure 5(a).

:data:`VIDEO_APPS` lists the six video graphs in the paper's order;
:func:`get_app` resolves any application by name.
"""

from repro.apps.registry import VIDEO_APPS, all_apps, get_app
from repro.apps.dsd import dsd
from repro.apps.dsp import dsp_filter
from repro.apps.mpeg4 import mpeg4
from repro.apps.mwa import mwa
from repro.apps.mwag import mwag
from repro.apps.pip_app import pip
from repro.apps.vopd import vopd

__all__ = [
    "VIDEO_APPS",
    "all_apps",
    "dsd",
    "dsp_filter",
    "get_app",
    "mpeg4",
    "mwa",
    "mwag",
    "pip",
    "vopd",
]
