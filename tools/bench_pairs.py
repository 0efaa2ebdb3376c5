"""Alternating benchmark pairs between two checkouts, written as BENCH_<workload>_{parent,change}.json.

    python3 tools/bench_pairs.py --workload sep --parent ../parent --change . \\
        --seeds 1001-1010 --seconds 10 --parent-source "abc1234" --change-source "working tree"

For each seed the script runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, each run a fresh
interpreter with the checkout as its working directory.  The parent runs
first at odd seeds and the change first at even seeds, so a drift of the
machine's speed during the session loads both sides alike.  Python writes
no bytecode (``PYTHONDONTWRITEBYTECODE=1``), so on fresh copies without
``__pycache__`` every run compiles its checkout's sources alike.

The two files go to ``--out`` (the current directory by default), one per
side, each ``{workload, side, source, command, pairs, runs}`` with one
``{seed, result, classes}`` per run: ``result`` is the JSON object on the
last line of ``run.py``'s output and ``classes`` the per-class summary
(operations, UNDECIDED count, p50 latency) of the line before it.  A
summary goes to standard output: per end-to-end metric the two medians,
the pairs the change won, the parent's interquartile range, whether the
change's median is worse than the parent's by more than the metric's
bound, and whether a claimed gain would pass (nine tenths of the pairs
won and a median gap wider than the parent's interquartile range); then
each side's failed operations and UNDECIDED share, and each class's
median p50 over the classes either side ran ("-" on a side that never
ran it).  The valid workloads and the directions and bounds of the
metrics are read from the change's ``BENCHMARK.json``.

Before the timed runs, ``tools/work_counts.py``'s ``run_side`` counts the
work of the workload's first round at the first seed, once in each
checkout.  Each BENCH file stores its side's per-class counts under
``counts``, and the metric table is followed by ``work_counts``' "N of M
counts differ" line.  This script imports nothing from ``perfbench``
(only the counting interpreter imports its workloads), and nothing in
either checkout is written except what ``run.py`` itself writes there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

_SPEC = importlib.util.spec_from_file_location("work_counts", Path(__file__).with_name("work_counts.py"))
work_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work_counts)


def parse_seeds(text: str) -> list[int]:
    """'1001-1010' or '1,2,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of run.py in ``checkout``: its result object and per-class summary."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=30 * seconds + 300)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    details = json.loads(lines[-2])
    classes = {k: {f: c[f] for f in ("ops", "undecided", "failed", "p50_ms")} for k, c in details["classes"].items()}
    return {"seed": seed, "result": json.loads(lines[-1]), "classes": classes}


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return q[0], q[2]


def verdict(spec: dict, par: list[float], chg: list[float]) -> dict:
    """One end-to-end metric's pair runs judged against its ``BENCHMARK.json`` entry.

    ``regressed``: the change's median is worse than the parent's by more
    than ``bound``, a fraction of the parent's median.  ``claim``: the
    change won at least nine tenths of the pairs, ties counting for
    neither side, and its median is better by more than the parent's
    interquartile range.
    """
    lower = spec["better"] == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    mp, mc = statistics.median(par), statistics.median(chg)
    q1, q3 = quartiles(par)
    better = (mc < mp) if lower else (mc > mp)
    limit = mp * (1.0 + spec["bound"]) if lower else mp * (1.0 - spec["bound"])
    return {"parent": mp, "change": mc, "won": won, "pairs": len(par), "iqr": (q1, q3),
            "regressed": (mc > limit) if lower else (mc < limit),
            "claim": 10 * won >= 9 * len(par) and better and abs(mc - mp) > q3 - q1}


def class_p50s(runs: dict) -> dict:
    """Each class either side ran, to each side's median p50 over the runs that ran it (None for none)."""
    table = {}
    for cls in sorted({cls for side in SIDES for r in runs[side] for cls in r["classes"]}):
        p50 = [[r["classes"][cls]["p50_ms"] for r in runs[side] if cls in r["classes"]] for side in SIDES]
        table[cls] = [statistics.median(v) if v else None for v in p50]
    return table


def summarize(runs: dict, bench: dict, counts: dict | None = None) -> None:
    """The metric table, how many of ``counts`` (``run_side``'s, per side) differ, the failures and the class table."""
    print(f"{'metric':18s} {'parent':>10s} {'change':>10s} {'move':>8s} {'won':>6s} {'parent IQR':>21s}"
          f"  {'worse > bound':>13s}  claim passes")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        v = verdict(spec, *([r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES))
        mp, mc, (q1, q3) = v["parent"], v["change"], v["iqr"]
        move = (mc / mp - 1.0) * 100 if mp else float("nan")
        print(f"{name:18s} {mp:10.4g} {mc:10.4g} {move:+7.1f}% {v['won']:>3d}/{v['pairs']:<2d} "
              f"{q1:10.4g}-{q3:<10.4g}  {str(v['regressed']):>13s}  {v['claim']}")
    if counts is not None:
        print(work_counts.differ(work_counts.rows(counts["parent"], counts["change"])))
    for side in SIDES:
        attempted = sum(r["result"]["attempted"] for r in runs[side])
        failed = sum(r["result"]["failed"] for r in runs[side])
        ops = sum(c["ops"] for r in runs[side] for c in r["classes"].values())
        undecided = sum(c["undecided"] for r in runs[side] for c in r["classes"].values())
        print(f"{side}: {attempted} attempted, {failed} failed, undecided share {undecided / max(ops, 1):.3f}")
    print(f"{'class':24s} {'parent p50 ms':>14s} {'change p50 ms':>14s}")
    for cls, p50 in class_p50s(runs).items():
        cells = ["-" if v is None else f"{v:.3f}" for v in p50]
        print(f"{cls:24s} {cells[0]:>14s} {cells[1]:>14s}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload named in the change's BENCHMARK.json")
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent tree")
    p.add_argument("--change", required=True, type=Path, help="checkout of the changed tree")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1001-1010 or 1,2,5")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--out", type=Path, default=Path("."), help="directory for the two BENCH files")
    p.add_argument("--parent-source", required=True, help="what the parent tree is, e.g. its commit")
    p.add_argument("--change-source", required=True, help="what the changed tree is")
    p.add_argument("--machine", default="", help="hardware note for the files' pairs line")
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        p.error(f"argument --workload: invalid choice: {args.workload!r} (choose from {', '.join(workloads)})")
    # counted first, so that a checkout the counting interpreter cannot run fails before the timed runs
    counts = {side: work_counts.run_side(checkouts[side], [args.workload], args.seeds[0]) for side in SIDES}
    runs = {side: [] for side in SIDES}
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload, seed, args.seconds))
            r = runs[side][-1]["result"]["metrics"]
            print(f"seed {seed} {side:6s} " + " ".join(f"{k}={v['value']:.4g}" for k, v in r.items()), flush=True)
    seeds = args.seeds
    pairs = (f"{len(seeds)} pairs, seeds {','.join(map(str, seeds))}: the parent ran first at odd seeds and the "
             f"change first at even seeds; each run a fresh interpreter that writes no bytecode")
    if args.machine:
        pairs += f"; {args.machine}"
    command = f"python3 perfbench/run.py --workload {args.workload} --seed <seed> --seconds {args.seconds:g} --trace 0"
    sources = {"parent": args.parent_source, "change": args.change_source}
    args.out.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        doc = {"workload": args.workload, "side": side, "source": sources[side],
               "command": command, "pairs": pairs, "runs": runs[side], "counts": counts[side][args.workload]}
        path = args.out / f"BENCH_{args.workload}_{side}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    summarize(runs, bench, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
