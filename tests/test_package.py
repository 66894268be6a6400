"""Package-level tests: exports, error hierarchy, cross-module wiring."""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import re
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

    def test_src_reads_only_the_three_jit_switches(self):
        """Every ``REPRO_*`` environment switch in ``src/`` picks a kernel
        rung (kill, pin, cache dir); a test instrument belongs in the tests.

        Any string constant that is a ``REPRO_*`` name counts, a bare
        ``"REPRO_"`` prefix (an f-string or a concatenation) included.
        """
        read = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"REPRO_[A-Z0-9_]*", node.value):
                        read.add(node.value)
        assert read == {"REPRO_NO_JIT", "REPRO_JIT", "REPRO_JIT_CACHE"}


class TestNoKnobWithoutACaller:
    """The service's and the JIT ladder's options, pinned by name.

    Per-client quotas, priority shedding, ``--no-recover`` and a numba rung
    went because nothing outside the tests used them; bringing one back
    (or adding another) takes an edit here.
    """

    @staticmethod
    def flags(command: str) -> set[str]:
        from repro.cli import build_parser

        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        } - {"-h", "--help"}

    def test_service_config_fields(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert [field.name for field in fields(ServiceConfig)] == [
            "host", "port", "store_root", "queue_limit", "workers", "executor",
            "timeout", "store_max_bytes", "result_ttl", "journal_path",
        ]

    def test_serve_and_submit_flags(self):
        assert self.flags("serve") == {
            "--host", "--port", "--store", "--queue-limit", "--workers",
            "--executor", "--timeout", "--journal", "--store-max-bytes",
            "--result-ttl",
        }
        assert self.flags("submit") == {
            "--url", "--json", "--app", "--algorithm", "--topology",
            "--link-bw", "--seed", "--mapper-opt", "--no-wait", "--stream",
            "--timeout", "--retries",
        }

    def test_the_service_reads_no_repro_header(self):
        service = Path(repro.__file__).parent / "service"
        for path in service.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    assert not node.value.lower().startswith("x-repro"), path

    def test_jit_ladder_rungs(self):
        from repro.simnoc.engines import jit

        assert list(jit.RUNGS) == ["c", "py"]
        assert [row["name"] for row in jit.available_backends()] == ["c"]


class TestNoImplementationBehindAnAlias:
    """The object-model (``cycle``), event and sharded engines and the
    replica executor left ``src/``; their names stayed, on ``vector`` and
    ``serial``, and the object model is the test oracle under
    ``tests/reference``.  A second implementation behind any of them takes
    an edit here."""

    def test_engine_names_and_the_event_alias(self):
        from repro.simnoc.engines import VectorEngine, get_engine, list_engines

        assert list_engines() == ("auto", "cycle", "event", "sharded", "vector")
        assert type(get_engine("event")) is type(get_engine("cycle")) is VectorEngine

    def test_the_sharded_alias(self):
        from repro.simnoc.engines import VectorEngine, get_engine

        assert type(get_engine("sharded")) is type(get_engine("vector")) is VectorEngine

    def test_four_names_resolve_to_one_class(self):
        from repro.simnoc.engines import get_engine

        names = ("cycle", "event", "sharded", "vector")
        assert len({type(get_engine(name)) for name in names}) == 1

    def test_batch_executors(self):
        from repro.api.engine import BATCH_EXECUTORS

        assert BATCH_EXECUTORS == ("serial", "thread", "process", "replica")

    def test_the_event_engine_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.simnoc.engines.event")

    def test_the_sharded_engine_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.simnoc.engines.sharded")

    @pytest.mark.parametrize(
        "module",
        [
            "repro.simnoc.engines.cycle",
            "repro.simnoc.router",
            "repro.simnoc.vc_router",
            "repro.simnoc.ni",
        ],
    )
    def test_the_object_model_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_no_src_module_imports_tests(self):
        """The oracle lives under ``tests/``; nothing shipped may reach it."""
        offenders = []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(name == "tests" or name.startswith("tests.") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


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

    def test_lps_and_a_faulted_simulation_load_neither_scipy_nor_networkx(self):
        """Priced NMAP, NMAPTA and NMAPTM, both split searches on links
        below pip's total traffic (their MCF1 / MCF2 programs), the
        single-path ILP and a simulation with a failed link (the deadlock
        re-check) load scipy's HiGHS core by path and search a plain
        adjacency: the only scipy modules loaded are that core's, and
        networkx stays out."""
        script = (
            "import sys\n"
            "from repro.api import FaultSpec, MapRequest, SimRequest, execute_map, run\n"
            "from repro.api import TopologySpec\n"
            "from repro.graphs.commodities import build_commodities\n"
            "from repro.routing.ilp import ilp_single_path_routing\n"
            "for mapper in ('nmap', 'nmap-ta', 'nmap-tm'):\n"
            "    assert run(MapRequest(app='pip', mapper=mapper)).min_bw_split > 0\n"
            "bound = TopologySpec.parse('auto', link_bandwidth=700.0)\n"
            "for mapper in ('nmap-ta', 'nmap-tm'):\n"
            "    stats = run(MapRequest(app='pip', mapper=mapper, topology=bound,\n"
            "                           price_bandwidth=False)).stats\n"
            "    assert stats['mcf1_solved'] + stats['mcf2_solved'] > 1\n"
            "topology, result = execute_map(MapRequest(app='pip', price_bandwidth=False))\n"
            "commodities = build_commodities(result.mapping.core_graph, result.mapping)\n"
            "assert ilp_single_path_routing(topology, commodities)[0] > 0\n"
            "sim = SimRequest(map_request=MapRequest(app='pip'), measure_cycles=300,\n"
            "                 faults=FaultSpec(failed_links=((3, 4),)))\n"
            "assert run(sim).packets_delivered > 0\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] in ('scipy', 'networkx')]\n"
            "print([m for m in loaded if not m.startswith('scipy.optimize._highspy._core')])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_src_imports_scipy_and_networkx_only_in_the_graph_exports(self):
        """An ``ast`` walk: outside ``if TYPE_CHECKING:`` blocks, ``src/``
        imports scipy or networkx only inside the lazy public exports that
        hand back a networkx graph."""
        importers = set()

        def walk(node, function, path):
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            for name in names:
                if name.partition(".")[0] in ("scipy", "networkx"):
                    importers.add((path, function, name))
            for child in ast.iter_child_nodes(node):
                walk(child, function, path)

        root = Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            walk(tree, None, path.relative_to(root).as_posix())
        assert importers == {
            ("graphs/core_graph.py", "to_networkx", "networkx"),
            ("graphs/topology.py", "to_networkx", "networkx"),
            ("routing/deadlock.py", "channel_dependency_graph", "networkx"),
        }

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
