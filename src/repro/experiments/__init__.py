"""Experiment harness: one module per table/figure of the paper (§7).

Every module exposes ``run_*`` returning a structured result and a
``render`` helper producing the text table printed by the CLI.  The
benchmarks under ``benchmarks/`` call the same ``run_*`` functions, so the
bench suite regenerates exactly what the CLI prints.

| Paper artifact | Module |
|---|---|
| Figure 3 (comm cost, 4 algorithms x 6 apps) | :mod:`repro.experiments.fig3` |
| Figure 4 (min bandwidth, 7 schemes x 6 apps) | :mod:`repro.experiments.fig4` |
| Table 1 (cost & bandwidth ratios)            | :mod:`repro.experiments.table1` |
| Table 2 (PBB vs NMAP on random graphs)       | :mod:`repro.experiments.table2` |
| Figure 5c (latency vs link bandwidth)        | :mod:`repro.experiments.fig5c` |
| Table 3 (DSP NoC design figures)             | :mod:`repro.experiments.table3` |
| §5 ILP-gap claim (heuristic within ~10%)     | :mod:`repro.experiments.ilp_gap` |
"""

from repro.experiments.common import ExperimentTable, render_table

__all__ = ["ExperimentTable", "render_table"]
