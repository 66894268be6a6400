"""Tier-1 smoke test of the benchmark: ``run.py --smoke`` end to end.

Traced smoke runs of all five workloads (tiny sizes, one timed round, one
set-up) must measure every per-layer metric ``BENCHMARK.json`` declares for
the layers the workload enters, fail no operation, write well-formed spans
and leave no server behind — also on a host without a compiled kernel
(``REPRO_NO_JIT=1``).  One untraced run covers the end-to-end metrics, the
repeated set-ups and ``--compare``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: run label -> (extra arguments, workloads, extra environment)
RUNS = {
    "in_process": (["--trace"], WORKLOADS[:3], {}),
    "service": (["--trace"], WORKLOADS[3:], {}),
    "no_jit": (["--trace"], ["sim_saturation"], {"REPRO_NO_JIT": "1"}),
    "untraced": ([], ["map_suite"], {}),
}
TRACED = [(label, name) for label in ("in_process", "service", "no_jit") for name in RUNS[label][1]]


def _serve_processes() -> set[str]:
    """Pids of live ``repro.cli serve`` processes whose store is under ``out/``."""
    scratch = str(HERE / "out").encode()
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"repro.cli\0serve" in command and scratch in command:
                found.add(entry.name)
    return found


def _run(*arguments) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, arguments)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The ``RUNS``, started together; per label its output directory and result."""
    before = _serve_processes()
    started = {}
    for label, (extra, names, environment) in RUNS.items():
        directory = tmp_path_factory.mktemp(label)
        selection = [arg for name in names for arg in ("--workload", name)]
        command = [sys.executable, str(HERE / "run.py"), "--smoke", *extra, *selection]
        started[label] = directory, subprocess.Popen(
            command + ["--output", str(directory / "result.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, **environment),
        )
    runs = {}
    for label, (directory, process) in started.items():
        stdout, stderr = process.communicate(timeout=600)
        assert process.returncode == 0, stdout[-4000:] + stderr[-4000:]
        runs[label] = {
            "directory": directory,
            "contract": [
                json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')
            ],
            "workloads": json.loads((directory / "result.json").read_text())["workloads"],
        }
    runs["leaked"] = _serve_processes() - before
    return runs


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("label,workload", TRACED)
def test_every_per_layer_metric_is_measured_and_nothing_failed(smoke, label, workload):
    record = smoke[label]["workloads"][workload]
    assert record["failures"] == []
    assert record["attempted"] >= 1
    never_entered = set(record["not_applicable"])
    assert never_entered < PER_LAYER
    for metric in SPEC["per_layer"]:
        entry = record["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if metric["name"] in never_entered:
            assert entry["value"] == 0
    fingerprint = record["fingerprint"]
    assert {"jit_rung", "jit_reason", "partitioner_rung", "store_filesystem"} <= set(fingerprint)
    # Times and rates of the layers a workload enters are never 0.
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert values["trace.round_wall_s"] > 0 and values["request.latency_p50_ms"] > 0
    assert values["cli.cold_start_s"] > 0 and values["api.batch.process_singleton_ms"] > 0
    if workload == "map_suite":
        assert values["mapping.nmap.busy_share"] > 0 and values["mapping.pbb.maps_per_s"] > 0
    elif workload in ("sim_saturation", "sim_sweep"):
        on_kernel = fingerprint["jit_rung"] != "none"
        assert (values["simnoc.flatten_share"] > 0) == on_kernel
        assert (values["simnoc.kernel_flit_hops_per_s"] > 0) == on_kernel
        if workload == "sim_saturation":
            assert (values["simnoc.engine_vector_share"] > 0) == (not on_kernel)
        assert values["simnoc.report_share"] > 0 and values["simnoc.cycles_per_s"] > 0
    else:
        assert values["service.submit_share"] > 0 and values["service.complete_share"] > 0
        assert values["service.journal.accepted"] > 0


def test_the_no_jit_run_had_no_compiled_kernel(smoke):
    fingerprint = smoke["no_jit"]["workloads"]["sim_saturation"]["fingerprint"]
    assert fingerprint["jit_rung"] == "none"


@pytest.mark.parametrize("label", ["in_process", "service", "no_jit"])
def test_traced_contract_line_per_workload(smoke, label):
    contract = smoke[label]["contract"]
    assert len(contract) == len(RUNS[label][1])
    for line in contract:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == PER_LAYER


def test_untraced_run_reports_the_end_to_end_metrics(smoke):
    (line,) = smoke["untraced"]["contract"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == END_TO_END
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    record = smoke["untraced"]["workloads"]["map_suite"]
    # ``setup_s`` is the median of fresh set-ups in processes of their own.
    assert len(record["setup_samples_s"]) == 3
    assert min(record["setup_samples_s"]) <= line["metrics"]["setup_s"]["value"]
    assert line["metrics"]["setup_s"]["value"] <= max(record["setup_samples_s"])


def test_compare_passes_a_run_against_itself_and_flags_what_differs(smoke, tmp_path):
    result = smoke["untraced"]["directory"] / "result.json"
    same = _run("--compare", result, result)
    rows = [line.split() for line in same.stdout.splitlines() if line.startswith("map_suite")]
    assert {row[1] for row in rows} == END_TO_END
    assert "regressed" not in same.stdout and "differ" not in same.stdout
    # Set-up samples taken while the other smoke runs load the host may spread
    # wider than the bound; that is the one verdict a self-comparison can get.
    assert same.returncode == (1 if "unresolved" in same.stdout else 0)

    document = json.loads(result.read_text())
    slower = copy.deepcopy(document)
    slower["workloads"]["map_suite"]["metrics"]["requests_per_s"]["value"] *= 0.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    regressed = _run("--compare", result, tmp_path / "slower.json")
    assert regressed.returncode == 1
    (row,) = [line for line in regressed.stdout.splitlines() if "requests_per_s" in line]
    assert row.endswith("regressed") and "-0.500" in row

    partial = copy.deepcopy(document)
    del partial["workloads"]["map_suite"]["metrics"]["peak_rss_mb"]
    (tmp_path / "partial.json").write_text(json.dumps(partial))
    refused = _run("--compare", result, tmp_path / "partial.json")
    assert refused.returncode == 1 and "metrics differ" in refused.stdout

    recount = copy.deepcopy(document)
    recount["workloads"]["map_suite"]["exact"]["mapping.comm_cost_sum"] += 1
    (tmp_path / "recount.json").write_text(json.dumps(recount))
    refused = _run("--compare", result, tmp_path / "recount.json")
    assert refused.returncode == 1 and "exact counts differ" in refused.stdout

    (tmp_path / "empty.json").write_text(json.dumps(dict(document, workloads={})))
    refused = _run("--compare", result, tmp_path / "empty.json")
    assert refused.returncode == 1 and "workloads differ" in refused.stdout


@pytest.mark.parametrize("label,workload", TRACED)
def test_spans_are_well_formed(smoke, label, workload):
    trace = smoke[label]["directory"] / f"trace-{workload}.json"
    spans = json.loads(trace.read_text())["spans"]
    assert spans
    by_id = {span["id"]: span for span in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["request_id"] is not None
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["request_id"] == span["request_id"]
            child_time[parent["id"]] += span["end"] - span["start"]
    for span in spans:
        # Self time is non-negative up to clock granularity.
        assert span["end"] - span["start"] - child_time[span["id"]] >= -1e-6


def test_no_server_outlives_the_run(smoke):
    assert smoke["leaked"] == set()
