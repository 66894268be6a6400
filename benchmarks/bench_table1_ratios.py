"""Table 1 bench: cost ratio (cstr) and bandwidth ratio (bwr) vs NMAP-split.

Shape asserted: NMAP is never worse on cost (cstr >= 1 per app) and the
average bandwidth ratio is in the paper's ~2x class (paper: 2.13; our
stronger GMAP/PBB baselines pull cstr below the paper's 1.47).
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.table1 import run_table1


def test_table1_ratios(benchmark):
    table = run_once(benchmark, run_table1)
    print()
    print(table.render())
    average_row = table.row_by_key("avg")
    cstr_avg, bwr_avg = average_row[1], average_row[2]
    for row in table.rows[:-1]:
        assert row[1] >= 0.99, f"{row[0]}: NMAP lost on cost"
    assert cstr_avg >= 1.0
    assert bwr_avg >= 1.5  # paper: 2.13
