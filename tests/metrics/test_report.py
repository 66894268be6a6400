"""Unit tests for the one-stop mapping report."""

from __future__ import annotations

import sys

import pytest

from repro.errors import MappingError
from repro.graphs.commodities import build_commodities
from repro.mapping.base import Mapping
from repro.metrics.bandwidth import min_bandwidth_min_path
from repro.metrics.report import evaluate_mapping
from repro.routing import min_path
from repro.routing.tables import table_overhead_ratio


@pytest.fixture
def vopd_report(mesh4x4):
    from repro.apps import vopd
    from repro.mapping import nmap_single_path

    app = vopd()
    mesh = mesh4x4.with_uniform_bandwidth(10000.0)
    mapping = nmap_single_path(app, mesh).mapping
    return evaluate_mapping(mapping)


class TestEvaluateMapping:
    def test_metrics_consistent(self, vopd_report):
        report = vopd_report
        assert report.comm_cost > 0
        assert report.avg_hops == pytest.approx(report.comm_cost / 4028.0)
        # bandwidth ordering mirrors Figure 4
        assert report.min_bw_split_all_paths <= report.min_bw_split_min_paths + 1e-6
        assert report.min_bw_split_min_paths <= report.min_bw_min_path + 1e-6

    def test_split_saving_factor(self, vopd_report):
        assert vopd_report.split_saving_factor == pytest.approx(
            vopd_report.min_bw_min_path / vopd_report.min_bw_split_all_paths
        )
        assert vopd_report.split_saving_factor > 1.0

    def test_table_overhead_under_claim(self, vopd_report):
        assert 0.0 < vopd_report.table_overhead_ratio < 0.10

    def test_xy_deadlock_free(self, vopd_report):
        assert vopd_report.xy_deadlock_free

    def test_render_mentions_everything(self, vopd_report):
        text = vopd_report.render()
        for fragment in ("comm cost", "min BW", "energy", "deadlock", "4x4 mesh"):
            assert fragment in text

    def test_incomplete_mapping_rejected(self, tiny_graph, mesh2x2):
        with pytest.raises(MappingError):
            evaluate_mapping(Mapping(tiny_graph, mesh2x2, {"a": 0}))

    def test_energy_positive(self, vopd_report):
        assert vopd_report.energy_mw > 0

    def test_one_min_path_routing_serves_both_fields(self, monkeypatch, mesh4x4):
        """The table overhead and the min-path bandwidth read one routing:
        a VOPD NMAP report routes once, and both fields are what routing
        each afresh gives."""
        from repro.apps import vopd
        from repro.mapping import nmap_single_path

        mapping = nmap_single_path(vopd(), mesh4x4.with_uniform_bandwidth(10000.0)).mapping
        fresh = min_path.min_path_routing(
            mapping.topology, build_commodities(mapping.core_graph, mapping)
        )
        calls = []
        original = min_path.min_path_routing

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "min_path_routing", None) is original:
                monkeypatch.setattr(module, "min_path_routing", counted)
        report = evaluate_mapping(mapping)
        assert len(calls) == 1
        monkeypatch.undo()
        assert report.table_overhead_ratio == table_overhead_ratio(fresh)
        assert report.min_bw_min_path == min_bandwidth_min_path(mapping)[0]
