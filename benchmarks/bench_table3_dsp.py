"""Table 3 bench: DSP NoC design figures.

Shape asserted: the component figures match the paper's ×pipes values
verbatim; single min-path provisioning is exactly 600 MB/s; split-traffic
provisioning is the 2x3-mesh optimum of 400 MB/s (paper reports 200; a cut
bound rules that out on this mesh).
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments.table3 import run_table3


def test_table3_dsp_design(benchmark):
    table = run_once(benchmark, run_table3)
    print()
    print(table.render())
    assert table.row_by_key("NI area (mm2)")[1] == 0.6
    assert table.row_by_key("switch area (mm2, 5x5)")[1] == 1.08
    assert table.row_by_key("switch delay (cycles)")[1] == 7
    assert table.row_by_key("packet size (B)")[1] == 64
    assert table.row_by_key("minp BW (MB/s)")[1] == pytest.approx(600.0)
    assert table.row_by_key("split BW (MB/s)")[1] == pytest.approx(400.0)
    assert table.row_by_key("switches instantiated")[1] == 6
