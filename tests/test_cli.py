"""CLI tests (argument handling and end-to-end subcommands)."""

from __future__ import annotations

import argparse
import json
from dataclasses import fields

import pytest

from repro.cli import build_parser, main
from repro.service import ServiceConfig


class TestListApps:
    def test_lists_all(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        for name in ("vopd", "mpeg4", "dsp", "pip"):
            assert name in out


class TestMap:
    def test_map_builtin_app(self, capsys):
        assert main(["map", "--app", "dsp"]) == 0
        out = capsys.readouterr().out
        assert "comm cost" in out
        assert "filter" in out

    def test_map_explicit_mesh(self, capsys):
        assert main(["map", "--app", "pip", "--topology", "mesh:4x2"]) == 0
        assert "4x2" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["banana", "4x2"])
    def test_map_bad_topology(self, spec, capsys):
        assert main(["map", "--app", "pip", "--topology", spec]) == 2
        assert "error" in capsys.readouterr().err

    def test_map_unknown_app(self, capsys):
        assert main(["map", "--app", "nonexistent"]) == 2

    def test_map_writes_json_and_dot(self, tmp_path, capsys):
        out_json = tmp_path / "mapping.json"
        out_dot = tmp_path / "mapping.dot"
        code = main(
            [
                "map", "--app", "dsp",
                "--out-json", str(out_json),
                "--out-dot", str(out_dot),
            ]
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["kind"] == "map-response"
        assert payload["app_name"] == "dsp"
        assert len(payload["placement"]) == 6
        assert "digraph" in out_dot.read_text()

    def test_map_from_json_file(self, tmp_path, capsys, tiny_graph):
        from repro.graphs.io import save_core_graph

        path = tmp_path / "custom.json"
        save_core_graph(tiny_graph, path)
        assert main(["map", "--app", str(path)]) == 0
        assert "tiny" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["pmap", "gmap", "pbb", "nmap-ta"])
    def test_algorithms(self, algorithm, capsys):
        assert main(["map", "--app", "pip", "--algorithm", algorithm]) == 0


    def test_map_torus_topology(self, capsys):
        assert main(["map", "--app", "vopd", "--topology", "torus:4x4"]) == 0
        out = capsys.readouterr().out
        assert "torus:4x4" in out
        assert "feasible    : True" in out

    def test_map_seed_rejected_for_deterministic(self, capsys):
        assert main(["map", "--app", "pip", "--algorithm", "pmap", "--seed", "3"]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_map_seed_for_annealing(self, capsys):
        assert main(
            ["map", "--app", "pip", "--algorithm", "annealing", "--seed", "3"]
        ) == 0

    def test_mapper_opt(self, capsys):
        assert main(
            ["map", "--app", "pip", "--algorithm", "pbb",
             "--mapper-opt", "max_queue=50"]
        ) == 0

    def test_mapper_opt_unknown_key(self, capsys):
        code = main(
            ["map", "--app", "pip", "--algorithm", "pbb", "--mapper-opt", "queue=50"]
        )
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_mapper_opt_mistyped_value(self, capsys):
        code = main(
            ["map", "--app", "pip", "--algorithm", "annealing",
             "--mapper-opt", "cooling=fast"]
        )
        assert code == 2
        assert "cooling" in capsys.readouterr().err

    def test_out_json_is_map_response(self, tmp_path):
        from repro.api import MapResponse

        out_json = tmp_path / "response.json"
        assert main(
            ["map", "--app", "pip", "--topology", "torus:3x3",
             "--out-json", str(out_json)]
        ) == 0
        response = MapResponse.from_dict(json.loads(out_json.read_text()))
        assert response.topology.kind == "torus"
        assert response.feasible


class TestListMappers:
    def test_lists_all_advertised(self, capsys):
        assert main(["list-mappers"]) == 0
        out = capsys.readouterr().out
        for name in ("nmap", "nmap-tm", "nmap-ta", "pmap", "gmap", "pbb", "annealing", "hmap"):
            assert name in out
        assert "cooling" in out  # options are shown


class TestPartition:
    def test_partition_summary(self, capsys):
        assert main(["partition", "--topology", "mesh:8x8", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "shards      : 4" in out
        assert "edge cut" in out
        assert "balance" in out

    def test_partition_json_round_trips(self, capsys):
        from repro.partition import PartitionSpec

        assert (
            main([
                "partition", "--topology", "torus:4x4",
                "--shards", "2", "--method", "round-robin", "--json",
            ])
            == 0
        )
        spec = PartitionSpec.from_dict(json.loads(capsys.readouterr().out))
        assert spec.num_shards == 2
        assert spec.method == "round-robin"

    def test_partition_out_json(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert (
            main([
                "partition", "--topology", "mesh:4x4",
                "--shards", "2", "--out-json", str(target),
            ])
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["num_shards"] == 2

    def test_partition_rejects_auto_topology(self, capsys):
        assert main(["partition", "--topology", "auto", "--shards", "2"]) == 2
        assert "explicit dimensions" in capsys.readouterr().err

    def test_partition_unknown_method(self, capsys):
        assert (
            main([
                "partition", "--topology", "mesh:4x4",
                "--shards", "2", "--method", "kl",
            ])
            == 2
        )
        assert "unknown partitioner" in capsys.readouterr().err

    def test_list_engines_shows_partitioners(self, capsys):
        assert main(["list-engines"]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        for name in ("metis", "greedy-edge", "round-robin"):
            assert name in out


class TestSimulate:
    def test_simulate_dsp(self, capsys):
        assert main(["simulate", "--app", "dsp", "--cycles", "3000"]) == 0
        out = capsys.readouterr().out
        assert "latency mean" in out
        assert "hottest link" in out

    def test_simulate_torus(self, capsys):
        assert main(
            ["simulate", "--app", "pip", "--topology", "torus:3x3",
             "--cycles", "2000", "--sim-seed", "2"]
        ) == 0
        assert "latency mean" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["event", "vector", "auto"])
    def test_simulate_fast_engines_match_cycle(self, engine, capsys):
        assert main(["simulate", "--app", "dsp", "--cycles", "2000",
                     "--engine", "cycle"]) == 0
        cycle_out = capsys.readouterr().out
        assert main(["simulate", "--app", "dsp", "--cycles", "2000",
                     "--engine", engine]) == 0
        fast_out = capsys.readouterr().out
        # Identical numbers, different engine banner.
        assert cycle_out.splitlines()[1:] == fast_out.splitlines()[1:]
        assert f"{engine} / trace" in fast_out

    def test_simulate_vector_engine_at_high_load(self, capsys):
        assert main(
            ["simulate", "--app", "vopd", "--cycles", "2000",
             "--traffic", "uniform", "--injection-rate", "0.25",
             "--engine", "vector"]
        ) == 0
        out = capsys.readouterr().out
        assert "vector / uniform @ 0.25" in out
        assert "worst flow" in out

    def test_simulate_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--app", "dsp", "--engine", "warp"])
        assert "--engine" in capsys.readouterr().err

    def test_simulate_synthetic_traffic_with_vcs(self, capsys):
        assert main(
            ["simulate", "--app", "vopd", "--cycles", "2000",
             "--traffic", "uniform", "--injection-rate", "0.05",
             "--engine", "event", "--vcs", "2", "--vc-depth", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "uniform @ 0.05" in out
        assert "2 VCs" in out
        assert "worst flow" in out

    def test_simulate_synthetic_requires_rate(self, capsys):
        assert main(
            ["simulate", "--app", "dsp", "--cycles", "2000",
             "--traffic", "uniform"]
        ) == 2
        assert "injection_rate" in capsys.readouterr().err

    def test_simulate_out_json_round_trips(self, tmp_path):
        out_path = tmp_path / "sim.json"
        assert main(
            ["simulate", "--app", "dsp", "--cycles", "2000",
             "--engine", "event", "--out-json", str(out_path)]
        ) == 0
        from repro.api import SimResponse

        payload = json.loads(out_path.read_text())
        response = SimResponse.from_dict(payload)
        assert response.per_flow
        assert response.request.options.engine == "event"


class TestDesign:
    def test_design_prints_netlist(self, capsys):
        assert main(["design", "--app", "dsp"]) == 0
        out = capsys.readouterr().out
        assert "SC_MODULE" in out
        assert "total_area_mm2" in out

    def test_design_writes_file(self, tmp_path, capsys):
        out = tmp_path / "noc.cpp"
        assert main(["design", "--app", "dsp", "--out", str(out)]) == 0
        assert "xpipes_switch" in out.read_text()


class TestCompare:
    def test_compare_table(self, capsys):
        assert main(["compare", "--app", "pip", "--algorithms", "gmap", "nmap"]) == 0
        out = capsys.readouterr().out
        assert "gmap" in out and "nmap" in out
        assert "minBW(split)" in out

    def test_compare_includes_annealing(self, capsys):
        assert main(
            ["compare", "--app", "dsp", "--algorithms", "annealing"]
        ) == 0
        assert "annealing" in capsys.readouterr().out

    def test_compare_out_json(self, tmp_path, capsys):
        from repro.api import MapResponse

        out_json = tmp_path / "compare.json"
        assert main(
            ["compare", "--app", "pip", "--algorithms", "gmap", "nmap",
             "--out-json", str(out_json)]
        ) == 0
        payload = json.loads(out_json.read_text())
        responses = [MapResponse.from_dict(entry) for entry in payload]
        assert [r.request.mapper for r in responses] == ["gmap", "nmap"]
        assert all(r.min_bw_split is not None for r in responses)

    def test_compare_seed_applies_only_to_stochastic(self, capsys):
        assert main(
            ["compare", "--app", "pip", "--seed", "5",
             "--algorithms", "pmap", "annealing"]
        ) == 0
        out = capsys.readouterr().out
        assert "pmap" in out and "annealing" in out

    def test_compare_process_executor_matches_threads(self, capsys):
        args = ["compare", "--app", "pip", "--algorithms", "gmap", "nmap",
                "--workers", "2"]
        assert main(args + ["--executor", "thread"]) == 0
        thread_out = capsys.readouterr().out
        assert main(args + ["--executor", "process"]) == 0
        process_out = capsys.readouterr().out
        assert process_out == thread_out

    def test_compare_rejects_unknown_executor(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--app", "pip", "--executor", "fiber"])
        assert "--executor" in capsys.readouterr().err


class TestServe:
    def test_every_service_config_field_is_a_serve_flag(self):
        """A field no deployment can set is an option nobody uses."""
        subcommands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        renamed = {"store": "store_root", "journal": "journal_path"}
        flags = {
            renamed.get(action.dest, action.dest)
            for action in subcommands.choices["serve"]._actions
            if action.dest != "help"
        }
        assert flags == {field.name for field in fields(ServiceConfig)}


class TestExperiment:
    def test_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "minp BW" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])
