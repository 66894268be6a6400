#!/usr/bin/env python3
"""Paired benchmark runs: a base git ref against the working tree.

    python3 scripts/bench_pairs.py --base REF --workload NAME [--pairs 10]

Exports both sides into one temporary directory the same way — ``REF`` by
``git archive``, the working tree as the files git would track (tracked plus
untracked-and-not-ignored, so no ``__pycache__/`` and no ``benchmarks/e2e/out/``
left by earlier sessions: a tree that imports from stale ``.pyc`` files reads
better on ``setup_s`` for a change that never touched set-up) — then runs the
unmodified ``benchmarks/e2e/run.py --workload NAME --trace 0`` in each copy,
alternating which side goes first, and reads the result files ``run.py``
writes.

An **A/A leg** runs first: ``REF`` against a second export of ``REF``, paired
and alternated the same way, ``--pairs`` times.  The two
sides are one program, so whatever separates them is the instrument: per
end-to-end metric it prints both medians, the pairs won / tied / lost and the
metric's *A/A spread* — the larger of the distance between the two sides'
medians and the interquartile distance of all the leg's runs pooled.  No
metric whose A/B medians differ by less than its A/A spread is called a gain.

Then the A/B leg.  Per end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians and quartiles, the pairs won / tied / lost, every pair as
``base>tree``, and a verdict; a last row gives each run's ``host.slowdown``
in the same pair order — the calibrated ``requests_per_s`` over the one the
wall clock read, which is the slowdown the calibration loop divided out
(1.0 on a host at its nominal speed, and on the wall-clock service
workloads) — so a busy hour shows in the table.  Verdicts:

* ``gain`` — the rule for claiming one in a small sandbox (the
  ``choosing-metrics`` guide, section 8): the working tree wins at least
  nine tenths of all pairs, ties counting for neither side, and the medians
  differ by more than the distance between the base's own quartiles — and
  by more than the A/A spread;
* ``inside A/A spread`` — that rule was met, but two copies of the base
  read as far apart, so the word is withheld;
* ``regressed`` — the working tree's median is worse than the base's by
  more than the metric's bound;
* ``no gain shown`` — anything else.

Exits 1 when a run fails an operation, or when the two sides disagree on a
hash or an exact count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(tree: Path, workload: str, seconds: float | None, output: Path) -> dict:
    """One untraced ``run.py`` of ``workload`` in ``tree``; its result record."""
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--trace", "0", "--output", str(output),
    ]  # fmt: skip
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{tree}: run.py exited {done.returncode}\n{done.stdout}\n{done.stderr}"
        )
    return json.loads(output.read_text())["workloads"][workload]


def export_base(ref: str, target: Path) -> None:
    """``git archive REF`` unpacked at ``target``."""
    target.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", ref], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def export_tree(target: Path) -> None:
    """The working tree as ``git add -A`` would see it, copied to ``target``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        capture_output=True, check=True,
    )  # fmt: skip
    for name in filter(None, listed.stdout.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is listed too
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_leg(
    scratch: Path, first: str, second: str, pairs: int, workload: str,
    seconds: float | None,
) -> dict[str, list[dict]]:  # fmt: skip
    """``pairs`` paired runs of the two exported sides, alternating the order."""
    records: dict[str, list[dict]] = {first: [], second: []}
    for pair in range(pairs):
        for side in (first, second) if pair % 2 == 0 else (second, first):
            output = scratch / f"{first}-{second}-{side}-{pair}.json"
            records[side].append(run_side(scratch / side, workload, seconds, output))
            print(f"{first}/{second} pair {pair + 1}/{pairs}: {side} done", file=sys.stderr)
    return records


def metric_values(records: dict[str, list[dict]], name: str) -> list[list[float]]:
    return [[r["metrics"][name]["value"] for r in side] for side in records.values()]


def won_tied_lost(sign: int, old: list[float], new: list[float]) -> tuple[int, int, int]:
    diffs = [sign * (b - a) for a, b in zip(old, new)]
    won, lost = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    return won, len(diffs) - won - lost, lost


def aa_spread(first: list[float], second: list[float]) -> float:
    """How far apart two sets of runs of one program read (see the module doc)."""
    pooled_q1, _median, pooled_q3 = quartiles(first + second)
    return max(abs(quartiles(second)[1] - quartiles(first)[1]), pooled_q3 - pooled_q1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, help="run length (default: BENCHMARK.json's)"
    )
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export_base(args.base, scratch / "base")
        export_base(args.base, scratch / "base2")
        export_tree(scratch / "tree")
        floor = run_leg(scratch, "base", "base2", args.pairs, args.workload, args.seconds)
        records = run_leg(scratch, "base", "tree", args.pairs, args.workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload}: A/A leg, {args.pairs} pairs, base {args.base} vs a second export of it")
    print(f"{'metric':<16} {'base':>10} {'base2':>10} {'A/A spread':>11}  won/tied/lost")
    spreads: dict[str, float] = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        first, second = metric_values(floor, name)
        spreads[name] = aa_spread(first, second)
        won, tied, lost = won_tied_lost(sign, first, second)
        print(
            f"{name:<16} {quartiles(first)[1]:>10.5g} {quartiles(second)[1]:>10.5g} "
            f"{spreads[name]:>11.5g}  {won}/{tied}/{lost}"
        )

    print(f"{args.workload}: {args.pairs} pairs, base {args.base} vs working tree")
    header = f"{'metric':<16} {'side':<5} {'q1':>10} {'median':>10} {'q3':>10}"
    print(f"{header}  won/tied/lost  verdict")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base, tree = metric_values(records, name)
        won, tied, lost = won_tied_lost(sign, base, tree)
        base_q1, base_median, base_q3 = quartiles(base)
        tree_q1, tree_median, tree_q3 = quartiles(tree)
        better_by = sign * (tree_median - base_median)
        if won >= 0.9 * args.pairs and better_by > base_q3 - base_q1:
            verdict = "gain" if better_by > spreads[name] else "inside A/A spread"
        elif -better_by > metric["bound"] * base_median:
            verdict = "regressed"
        else:
            verdict = "no gain shown"
        print(f"{name:<16} base  {base_q1:>10.5g} {base_median:>10.5g} {base_q3:>10.5g}")
        print(
            f"{'':<16} tree  {tree_q1:>10.5g} {tree_median:>10.5g} {tree_q3:>10.5g}"
            f"  {won}/{tied}/{lost:<9}  {verdict}"
        )
        print(f"{'':<16} pairs " + "  ".join(f"{b:.5g}>{t:.5g}" for b, t in zip(base, tree)))

    rate = "requests_per_s"
    slowdowns = (
        [r["metrics"][rate]["value"] / r["wall_clock"][rate] for r in side]
        for side in (records["base"], records["tree"])
    )
    print(
        f"{'host.slowdown':<16} pairs "
        + "  ".join(f"{b:.3g}>{t:.3g}" for b, t in zip(*slowdowns))
    )

    everything = [r for leg in (floor, records) for side in leg.values() for r in side]
    failed = sum(len(record["failures"]) for record in everything)
    first = everything[0]
    agree = all(
        (record["sha256"], record["exact"]) == (first["sha256"], first["exact"])
        for record in everything
    )
    print(f"operations failed: {failed}; hashes and exact counts agree: {agree}")
    return 1 if failed or not agree else 0


if __name__ == "__main__":
    sys.exit(main())
