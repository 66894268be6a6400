#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--output PATH]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload is measured in a child process of its own (``child.py``);
this process only spawns children, times their set-up from outside, prints
every metric by name with its unit and, as the last line per workload, the
JSON object ``BENCHMARK.json``'s contract asks for.  Exits non-zero when
any operation failed.  ``BENCHMARK.json`` at the repo root is the single
declaration of metric names, units, directions and bounds; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import host_facts, percentile, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one timed round")
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    # Set by this script when it starts a child of itself.
    parser.add_argument("--phase", choices=("setup", "full"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.size = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(spec["run_seconds"])
    return args


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import child

    args.workload = args.workload[0]
    print(json.dumps(child.measure(args, args.workdir)))
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def spawn_child(name: str, phase: str, workdir: Path, args: argparse.Namespace) -> dict:
    """Run one child to completion and return the JSON document it printed."""
    (workdir / "tmp").mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        # A fresh, empty JIT cache: set-up always holds exactly one compile.
        REPRO_JIT_CACHE=str(workdir / "jit"),
        TMPDIR=str(workdir / "tmp"),
    )
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--phase", phase, "--workdir", str(workdir),
        "--t0", repr(time.time()),
    ] + (["--smoke"] if args.smoke else [])
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if process.poll() is None:
            # SIGTERM first: the child's handler unwinds its ``finally``
            # blocks, which stop the server it started.
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    if process.returncode != 0:
        raise SystemExit(f"{name}: child exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace, spec: dict, out: Path) -> dict:
    """Measure one workload; returns its record for the result file.

    A traced run's spans go to ``out / trace-<workload>.json``.
    """
    scratch = HERE / "out" / f"run-{os.getpid()}-{name}"
    phases = ["setup"] * (0 if args.trace else SETUP_SAMPLES - 1) + ["full"]
    try:
        documents = [
            spawn_child(name, phase, scratch / f"{index}-{phase}", args)
            for index, phase in enumerate(phases)
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = documents[-1]
    spans = record.pop("spans")
    if args.trace:
        (out / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": args.seed, "spans": spans})
        )
    record["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    setups = [document["setup_s"] for document in documents[:-1]]
    setups.append(record["metrics"]["setup_s"])
    record["metrics"]["setup_s"] = percentile(setups, 0.5)
    record["setup_samples_s"] = setups

    declared = {metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]}
    undeclared = sorted(set(record["metrics"]) - declared)
    if undeclared:
        raise SystemExit(f"{name}: metrics not in BENCHMARK.json: {undeclared}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A layer this workload never enters (layers.py says which) did no work:
    # its share, rate and count are 0.  Anything else must have been measured.
    never_entered = set(record["not_applicable"]) if args.trace else set()
    missing = sorted(
        {m["name"] for m in wanted} - set(record["metrics"]) - never_entered
    )
    if missing:
        raise SystemExit(f"{name}: declared metrics not measured: {missing}")
    contradicted = sorted(never_entered & set(record["metrics"]))
    if contradicted:
        raise SystemExit(f"{name}: measured, but layers.py says never entered: {contradicted}")
    record["metrics"] = {
        metric["name"]: {
            "value": record["metrics"].get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    return record


def print_workload(name: str, record: dict) -> None:
    failed = len(record["failures"])
    print(
        f"== {name}: {record['rounds']} timed rounds, "
        f"{record['attempted']} operations, {failed} failed; "
        f"rates and latencies in {record['clock']}"
    )
    for metric, entry in record["metrics"].items():
        line = f"  {metric:<48} {entry['value']:>16.6g} {entry['unit']}"
        stats = record["spread"].get(metric)
        if stats:
            line += (
                f"   [min {stats['min']:.5g}  q1 {stats['q1']:.5g}  "
                f"q3 {stats['q3']:.5g}  max {stats['max']:.5g}  n={stats['n']}]"
            )
        print(line)
    raw = ", ".join(f"{name} {value:.5g}" for name, value in record["wall_clock"].items())
    print(f"  as the wall clock read them: {raw}")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": record["attempted"],
                "failed": failed,
                "metrics": record["metrics"],
            }
        ),
        flush=True,
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _relative_iqr(record: dict, key: str) -> float | None:
    """Recorded spread (IQR / median) of ``key`` within one run, if it has samples."""
    if key == "setup_s":
        stats = spread(record["setup_samples_s"])
    else:
        stats = record["spread"].get(key)
    if not stats or stats["n"] < 2:
        return None
    return (stats["q3"] - stats["q1"]) / stats["median"]


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Per metric x workload: both values, the relative change, bound, verdict.

    ``regressed``: B is worse than A by more than the bound.  ``unresolved``:
    the spread recorded inside either run (IQR / median over its timed rounds,
    or its set-up samples) is wider than the bound, so the difference cannot
    be told from noise; ``peak_rss_mb`` has one sample per run and no spread.
    Both files must hold the same workloads and metrics, and every hash and
    exact count must be equal.  Exit code 1 unless every row is ``ok``.
    """
    a, b = (json.loads(path.read_text())["workloads"] for path in (path_a, path_b))
    if set(a) != set(b):
        print(f"workloads differ: {sorted(a)} vs {sorted(b)}")
        return 1
    bad = 0
    print(f"{'workload':<15} {'metric':<18} {'A':>12} {'B':>12} {'(B-A)/A':>9} {'bound':>6}  verdict")
    for name in a:
        if set(a[name]["metrics"]) != set(b[name]["metrics"]):
            bad += 1
            print(f"{name:<15} metrics differ: {sorted(set(a[name]['metrics']) ^ set(b[name]['metrics']))}")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in a[name]["metrics"]:
                continue  # a traced result file holds no end-to-end metrics
            value_a = a[name]["metrics"][key]["value"]
            value_b = b[name]["metrics"][key]["value"]
            if value_a <= 0:
                bad += 1
                print(f"{name:<15} {key:<18} {value_a:>12.5g} {value_b:>12.5g}  no base to compare with")
                continue
            change = (value_b - value_a) / value_a
            worse = change if metric["better"] == "lower" else -change
            spreads = [_relative_iqr(side[name], key) for side in (a, b)]
            if any(s is not None and s > metric["bound"] for s in spreads):
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(
                f"{name:<15} {key:<18} {value_a:>12.5g} {value_b:>12.5g} "
                f"{change:>+9.3f} {metric['bound']:>6}  {verdict}"
            )
        if a[name]["exact"] != b[name]["exact"] or a[name]["sha256"] != b[name]["sha256"]:
            bad += 1
            print(f"{name:<15} exact counts differ: {a[name]['exact']} vs {b[name]['exact']}")
    return 1 if bad else 0


def main() -> int:
    # A terminated run must still unwind its ``finally`` blocks: they stop
    # the child, the ``repro serve`` process it started, and drop the scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    args = parse_args(spec)
    if args.compare:
        return compare(*args.compare, spec)
    if not SRC.is_dir():
        print(f"{SRC} is missing: nothing to benchmark", file=sys.stderr)
        return 2
    if args.phase:
        return child_main(args)

    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    host = host_facts()
    output = args.output or HERE / "out" / f"result-{'traced' if args.trace else 'untraced'}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec, output.parent)
        print_workload(name, results[name])
    output.write_text(
        json.dumps(
            {
                "host": host,
                "seed": args.seed,
                "seconds": args.seconds,
                "size": args.size,
                "traced": bool(args.trace),
                "workloads": results,
            },
            indent=1,
        )
    )
    return 1 if any(record["failures"] for record in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
