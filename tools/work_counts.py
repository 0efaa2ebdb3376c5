"""Compare the work counts of the benchmark's first rounds in two checkouts.

    python3 tools/work_counts.py --parent ../parent --change . --workloads e-in,e-out --seed 1

Each checkout runs in one fresh interpreter that imports ``mapcones`` from
the checkout's ``src/`` (it checks that it did) and the workloads from its
``perfbench/``, builds the first round of each workload at ``--seed`` and
runs every operation of it once.  Per operation class it counts, over the
operations of that class:

* the calls of ``np.linalg.eigh``, ``eigvalsh``, ``solve`` and
  ``cholesky`` and of ``np.einsum`` made while the operation runs;
* the calls of ``check_hermitian`` (the Hermiticity gate) and
  ``apply_second``, through every ``mapcones`` module that binds them;
* ``schur``, the Schur matrices that ``sdp._Schur`` assembles;
* ``iterations``, ``solves`` and ``sweeps``, summed from the ``info`` of
  each verdict (the harness's CLI operations return no verdict).

The script prints every nonzero count on each side and their difference,
then how many differ, and exits 0.  The harness writes its check files
into a temporary directory; nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("e-in", "e-out", "harness", "sep")

#: Runs the first round of each workload named in argv[3] (comma-separated)
#: at seed argv[2] against the checkout argv[1], and writes the counts per
#: workload and operation class to standard output as JSON.
_WORKER = """
import functools, json, sys, tempfile
from pathlib import Path

root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import mapcones
import mapcones.sdp
import workloads

if root / "src" not in Path(mapcones.__file__).resolve().parents:
    sys.exit(f"mapcones imported from {mapcones.__file__}, not from {root / 'src'}")
tally = {}


def counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tally[name] = tally.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


for name in ("eigh", "eigvalsh", "solve", "cholesky"):
    setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
np.einsum = counted("einsum", np.einsum)
for name, owner in (("check_hermitian", mapcones.linalg), ("apply_second", mapcones.choi)):
    fn = getattr(owner, name)
    wrapper = counted(name, fn)
    for key, mod in list(sys.modules.items()):
        if key.partition(".")[0] == "mapcones" and getattr(mod, name, None) is fn:
            setattr(mod, name, wrapper)
schur = getattr(mapcones.sdp, "_Schur", None)
if schur is not None:
    schur.__init__ = counted("schur", schur.__init__)
result = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in sys.argv[3].split(","):
        wl = workloads.make(name, int(sys.argv[2]), str(Path(tmp) / name))
        wl.setup()
        classes = result[name] = {}
        for op in wl.round(0):
            tally.clear()
            verdict = op.run()
            counts = dict(tally)
            for key in ("iterations", "solves", "sweeps"):
                value = getattr(verdict, "info", {}).get(key)
                if value is not None:
                    counts[key] = int(value)
            total = classes.setdefault(op.cls, {})
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        wl.cleanup()
json.dump(result, sys.stdout)
"""


def parse_workloads(text: str) -> list[str]:
    """'e-in,sep' as ['e-in', 'sep']; every name must be a workload."""
    names = [part for part in text.split(",") if part]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(f"workloads must be among {','.join(WORKLOADS)}, got {text!r}")
    return names


def run_side(checkout: Path, names: list[str], seed: int) -> dict:
    """The counts of one checkout, per workload, operation class and count."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _WORKER, str(checkout), str(seed), ",".join(names)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the counting interpreter exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def rows(parent: dict, change: dict) -> list[tuple[str, str, str, int, int]]:
    """(workload, class, count, parent, change) for every count nonzero on either side, in parent order."""
    out = []
    for name in dict.fromkeys([*parent, *change]):
        p, c = parent.get(name, {}), change.get(name, {})
        for cls in dict.fromkeys([*p, *c]):
            pc, cc = p.get(cls, {}), c.get(cls, {})
            for key in sorted(set(pc) | set(cc)):
                out.append((name, cls, key, pc.get(key, 0), cc.get(key, 0)))
    return out


def summarize(results: dict) -> int:
    """Print both sides and their difference for every count, then how many differ; 0."""
    table = rows(results["parent"], results["change"])
    print(f"{'workload':8s} {'class':32s} {'count':16s} {'parent':>7s} {'change':>7s} {'diff':>6s}")
    for name, cls, key, p, c in table:
        print(f"{name:8s} {cls:32s} {key:16s} {p:7d} {c:7d} {c - p:+6d}")
    moved = sum(p != c for *_, p, c in table)
    print(f"{moved} of {len(table)} counts differ")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent tree")
    p.add_argument("--change", required=True, type=Path, help="checkout of the changed tree")
    p.add_argument("--workloads", type=parse_workloads, default=list(WORKLOADS), help="e.g. e-in,e-out (default: all)")
    p.add_argument("--seed", type=int, default=1, help="the workloads' seed (default: 1)")
    args = p.parse_args(argv)
    results = {side: run_side(getattr(args, side).resolve(), args.workloads, args.seed) for side in SIDES}
    return summarize(results)


if __name__ == "__main__":
    sys.exit(main())
