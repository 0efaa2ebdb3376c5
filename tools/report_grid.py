"""Compare the ``verify`` reports of two checkouts over a grid of arguments.

    python3 tools/report_grid.py --parent ../parent --change . --suites C2,T1 \\
        --dims 2x2,2x3,3x3 --seeds 1-3 --tols 1e-9,0.05 --trials 40

The grid is every ``verify SUITE N M --trials T --seed S --tol TOL`` over
the given suites, dims, seeds and tols, in that nesting order.  Each
checkout runs the whole grid in one fresh interpreter with its own
``src/`` first on ``PYTHONPATH`` (the interpreter checks that it imported
``mapcones`` from there) and writes no bytecode.  Each run calls
``mapcones.cli.main`` with the run's argv and records its standard
output, standard error and exit code.

The script prints, per suite, the sha256 over the suite's runs on each
side, then the argv of every run whose output, error text or exit code
differs between the sides.  It exits 0 when no run differs and 1
otherwise.  Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")

#: Runs the argv lists read from standard input through ``mapcones.cli.main``
#: and writes one result per run to standard output, as a JSON list.
_WORKER = """
import contextlib, io, json, sys
from pathlib import Path
import mapcones
from mapcones.cli import main

src = Path(sys.argv[1]).resolve()
if src not in Path(mapcones.__file__).resolve().parents:
    sys.exit(f"mapcones imported from {mapcones.__file__}, not from {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append({"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code})
json.dump(results, sys.stdout)
"""


def parse_list(text: str) -> list[str]:
    """'C2,T1' as ['C2', 'T1']."""
    return [part for part in text.split(",") if part]


def parse_seeds(text: str) -> list[int]:
    """'1-3' or '1,2,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in parse_list(text):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_dims(text: str) -> list[tuple[int, int]]:
    """'2x2,2x3' as [(2, 2), (2, 3)]."""
    dims = []
    for part in parse_list(text):
        n, sep, m = part.partition("x")
        if not sep:
            raise argparse.ArgumentTypeError(f"dims must read NxM, got {part!r}")
        dims.append((int(n), int(m)))
    return dims


def grid(suites, dims, seeds, tols, trials: int) -> list[list[str]]:
    """The argv of every ``verify`` run, suites outermost and tols innermost."""
    return [["verify", suite, str(n), str(m), "--trials", str(trials), "--seed", str(seed), "--tol", tol]
            for suite, (n, m), seed, tol in itertools.product(suites, dims, seeds, tols)]


def run_side(checkout: Path, argvs: list[list[str]]) -> list[dict]:
    """Every run of the grid in one interpreter against ``checkout/src``."""
    src = checkout / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _WORKER, str(src)], cwd=checkout, env=env,
                          input=json.dumps(argvs), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the grid's interpreter exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def _record(result: dict) -> bytes:
    return (json.dumps([result["argv"], result["stdout"], result["stderr"], result["code"]]) + "\n").encode()


def digests(results: list[dict]) -> dict[str, str]:
    """Each suite, in grid order, to the sha256 over its runs' argv, output, error text and exit code."""
    hashes = {}
    for result in results:
        hashes.setdefault(result["argv"][1], hashlib.sha256()).update(_record(result))
    return {suite: h.hexdigest() for suite, h in hashes.items()}


def differences(parent: list[dict], change: list[dict]) -> list[list[str]]:
    """The argv of each run whose output, error text or exit code differs between the sides."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        raise ValueError("the two sides ran different grids")
    return [p["argv"] for p, c in zip(parent, change) if _record(p) != _record(c)]


def summarize(results: dict) -> int:
    """Print the per-suite digests and the differing runs; 1 if any run differs, else 0."""
    sums = {side: digests(results[side]) for side in SIDES}
    runs = Counter(result["argv"][1] for result in results["parent"])
    print(f"{'suite':6s} {'runs':>5s}  side    sha256")
    for suite, count in runs.items():
        for side in SIDES:
            print(f"{suite:6s} {count:5d}  {side:6s}  {sums[side][suite]}")
    diff = differences(results["parent"], results["change"])
    print(f"{len(diff)} of {len(results['parent'])} runs differ")
    for argv in diff:
        print("  " + " ".join(argv))
    return 1 if diff else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent tree")
    p.add_argument("--change", required=True, type=Path, help="checkout of the changed tree")
    p.add_argument("--suites", required=True, type=parse_list, help="e.g. C2,T1,T6")
    p.add_argument("--dims", required=True, type=parse_dims, help="e.g. 2x2,2x3,3x3")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-3 or 1,2,5")
    p.add_argument("--tols", required=True, type=parse_list, help="e.g. 1e-9,0.05")
    p.add_argument("--trials", required=True, type=int)
    args = p.parse_args(argv)
    argvs = grid(args.suites, args.dims, args.seeds, args.tols, args.trials)
    results = {side: run_side(getattr(args, side).resolve(), argvs) for side in SIDES}
    return summarize(results)


if __name__ == "__main__":
    sys.exit(main())
