"""Package-level tests: exports, error hierarchy, cross-module wiring."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    BandwidthError,
    DesignError,
    GraphError,
    MappingError,
    ReproError,
    RoutingError,
    SimulationError,
    SolverError,
)

#: The thirteen ``repro.*`` subpackages (api, apps, ... simnoc).
SUBPACKAGES = sorted(
    init.parent.name for init in Path(repro.__file__).parent.glob("*/__init__.py")
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [GraphError, MappingError, RoutingError, SolverError, SimulationError, DesignError],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, ReproError)

    def test_bandwidth_is_routing_error(self):
        assert issubclass(BandwidthError, RoutingError)

    def test_one_catch_all(self):
        try:
            raise GraphError("boom")
        except ReproError as exc:
            assert "boom" in str(exc)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_setup_py_reads_the_package_version(self, monkeypatch):
        import setuptools

        declared = {}
        monkeypatch.setattr(setuptools, "setup", declared.update)
        root = Path(repro.__file__).resolve().parents[2]
        runpy.run_path(str(root / "setup.py"))
        assert declared["version"] == repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        import repro.apps as apps
        import repro.graphs as graphs
        import repro.mapping as mapping
        import repro.metrics as metrics
        import repro.routing as routing
        import repro.simnoc as simnoc

        for module in (apps, graphs, mapping, metrics, routing, simnoc):
            for name in module.__all__:
                assert getattr(module, name) is not None, f"{module.__name__}.{name}"


class TestColdStart:
    def test_an_nmap_request_loads_neither_scipy_nor_networkx(self):
        """The LP solver and the graph exports import their heavy
        dependencies where they use them: ``import repro.api`` plus an
        unpriced NMAP mapping pays for neither."""
        script = (
            "import sys\n"
            "from repro.api import MapRequest, run\n"
            "assert run(MapRequest(app='vopd', price_bandwidth=False)).feasible\n"
            "print([m for m in ('scipy', 'networkx') if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            check=True,
        )
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_every_subpackage_imports_first(self, subpackage):
        """No subpackage needs another imported before it: ``repro.metrics``
        used to reach ``repro.api`` through ``repro.mapping`` and come back
        to itself half-initialised."""
        result = subprocess.run(
            [sys.executable, "-c", f"import repro.{subpackage}"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert result.returncode == 0, result.stderr


class TestCrossModuleWiring:
    def test_network_bandwidth_scale(self, mesh3x3):
        """bandwidth_scale must multiply every source's injection rate."""
        from repro.graphs.commodities import Commodity
        from repro.routing.min_path import min_path_routing
        from repro.simnoc import SimConfig
        from repro.simnoc.network import build_network

        commodities = [Commodity(0, "a", "b", 0, 8, 400.0)]
        routing = min_path_routing(mesh3x3, commodities)
        config = SimConfig()
        base = build_network(mesh3x3, commodities, routing, config)
        scaled = build_network(
            mesh3x3, commodities, routing, config, bandwidth_scale=0.5
        )
        assert scaled.sources[0].rate == pytest.approx(base.sources[0].rate * 0.5)

    def test_experiment_cli_topology(self, capsys):
        from repro.cli import main

        assert main(["experiment", "topology"]) == 0
        assert "torus" in capsys.readouterr().out

    def test_mapping_result_routing_consistency(self, mesh4x4):
        """The routing attached to an NMAP result prices the same mapping."""
        from repro.apps import dsd
        from repro.graphs.commodities import build_commodities
        from repro.mapping import nmap_single_path
        from repro.metrics.comm_cost import comm_cost

        app = dsd()
        mesh = mesh4x4.with_uniform_bandwidth(app.total_bandwidth())
        result = nmap_single_path(app, mesh)
        assert result.routing.total_flow() == pytest.approx(comm_cost(result.mapping))
        commodities = build_commodities(app, result.mapping)
        assert {c.index for c in commodities} == set(result.routing.paths)
