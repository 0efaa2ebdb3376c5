"""Golden transcripts of the command line: exact stdout, stderr and exit code.

Each case runs ``main`` in a fresh directory that holds a fixed corpus of
matrix files, and compares its exit code, every line it prints to stdout
and stderr, and the sha256 of every file it writes, with the record in
``cli_golden.json``.  The corpus covers the 11 ``check`` cones with IN,
OUT and UNDECIDED answers, the ``pair``, ``witness``, ``random`` and
``verify`` commands, and the 64 / 65 / 66 error exits.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from mapcones.choi import identity_map, swap_operator
from mapcones.cli import main
from mapcones.fixtures import nondecomposable_map, ppt_entangled_state
from mapcones.io import save_matrix
from mapcones.linalg import Dims, frob, partial_transpose

GOLDEN = Path(__file__).with_name("cli_golden.json")
TOL = 1e-9


def _band(x):
    """x shifted by -5 tol (1 + ||x||_F) I: a zero margin moved into the band."""
    return x - 5.0 * TOL * (1.0 + frob(x)) * np.eye(len(x))


def _mixture(seed, p):
    """p times a random rank-3 state plus 1 - p times I/9, at 3x3."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    r = g @ g.conj().T
    return p * r / np.trace(r).real + (1.0 - p) * np.eye(9) / 9


def write_corpus(directory: Path) -> None:
    swap = swap_operator(2)
    skew = np.eye(4, dtype=complex)
    skew[0, 1], skew[1, 0] = 0.5, -0.5
    files = {
        "id3.json": (3, 3, identity_map(3).choi),
        "lam.json": (3, 3, nondecomposable_map().choi),
        "eye4.json": (2, 2, np.eye(4)),
        "eye9.json": (3, 3, np.eye(9)),
        "neg4.json": (2, 2, -np.eye(4)),
        "zero4.json": (2, 2, np.zeros((4, 4))),
        "skew.json": (2, 2, skew),
        "ppt_ent.json": (3, 3, ppt_entangled_state()[0]),
        # least eigenvalue in the band: UNDECIDED for cp, psd, p and f
        "band.json": (2, 2, _band(swap + np.eye(4))),
        # lam* of the e cone and the product-vector minimum in the band
        "eband.json": (2, 2, _band(partial_transpose(swap, Dims(2, 2)))),
        # in the separable ball around I/9
        "ball.json": (3, 3, _mixture(3, 0.15)),
        # PPT, neither dephased nor in the ball, not detected: UNDECIDED
        "mixed.json": (3, 3, _mixture(0, 0.4)),
    }
    for name, (n, m, mat) in files.items():
        save_matrix(directory / name, n, m, mat)
    text = (directory / "id3.json").read_text()
    (directory / "trunc.json").write_text(text[:40])


CASES = [
    # check: IN, OUT and UNDECIDED on each cone
    "check id3.json cp",
    "check lam.json cp",
    "check band.json cp",
    "check eye4.json cop",
    "check id3.json cop",
    "check eye4.json p",
    "check id3.json p",
    "check band.json p",
    "check id3.json d",
    "check lam.json d",
    "check eband.json d",
    "check eye4.json s",
    "check eye9.json s",
    "check ball.json s",
    "check id3.json s",
    "check ppt_ent.json s",
    "check mixed.json s",
    "check lam.json pos",
    "check neg4.json pos",
    "check eband.json pos",
    "check lam.json pos --restarts 3 --seed 5",
    "check eye4.json psd",
    "check lam.json psd",
    "check band.json psd",
    "check ppt_ent.json f",
    "check id3.json f",
    "check band.json f",
    "check id3.json e",
    "check lam.json e",
    "check eband.json e",
    "check ball.json sep",
    "check ppt_ent.json sep",
    "check mixed.json sep",
    "check ppt_ent.json blockpos",
    "check neg4.json blockpos",
    "check eband.json blockpos",
    "check band.json cp --tol 1e-7",
    # check: error exits
    "check missing.json cp",
    "check trunc.json cp",
    "check eye4.json nosuchcone",
    "check skew.json psd",
    "check skew.json e",
    "check skew.json cp",
    "check zero4.json sep",
    "check zero4.json s",
    "check lam.json sep",
    "check eye4.json cp --tol nan",
    "check",
    # pair
    "pair id3.json lam.json",
    "pair eye4.json eye4.json",
    "pair eye4.json id3.json",
    "pair missing.json id3.json",
    "pair skew.json skew.json",
    "pair eye4.json eye4.json --tol 0",
    # witness
    "witness lam.json --out w.json",
    "witness lam.json",
    "witness id3.json",
    "witness eband.json",
    "witness missing.json",
    "witness skew.json",
    # random
    "random cp 2 2 r.json --seed 7",
    "random d 2 3 r.json",
    "random psd 2 2 r.json",
    "random nosuchcone 2 2 r.json",
    "random cp 0 2 r.json",
    # verify
    "verify L4 2 2 --trials 2 --seed 1",
    "verify l15 2 3 --trials 3 --format markdown",
    "verify T13 3 3 --trials 2 --format markdown",
    "verify T99 2 2",
    "verify T1 2 3 --trials 2",
    "verify T6 3 3 --trials 0",
    "verify L8 2 2 --tol -1",
]


@contextlib.contextmanager
def _cwd(directory: Path):
    """Run the block in ``directory``, then return to the previous working directory."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_case(argv: list, directory: Path) -> dict:
    """Run ``main(argv)`` in ``directory`` and return its transcript."""
    write_corpus(directory)
    before = {p.name for p in directory.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    with _cwd(directory), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = sorted(p for p in directory.iterdir() if p.name not in before)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
    }


def _recorded() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert list(_recorded()) == CASES


@pytest.mark.parametrize("case", CASES)
def test_cli_transcript(case, tmp_path):
    assert run_case(case.split(), tmp_path) == _recorded()[case]


#: a map cone and the operator cone its Choi matrices fill: ``check``
#: prints one verdict for both on every file
TWINS = [("cp", "psd"), ("p", "f"), ("s", "sep"), ("pos", "blockpos"), ("d", "e")]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory)
    return directory


def _check(directory: Path, name: str, cone: str) -> tuple:
    """Exit code, the text after ``cone @ n x m:`` and stderr of ``check name cone``."""
    out, err = io.StringIO(), io.StringIO()
    with _cwd(directory), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", name, cone])
    return code, out.getvalue().rstrip("\n").partition(":")[2], err.getvalue()


@pytest.mark.parametrize("map_cone, op_cone", TWINS)
def test_twin_cones_print_one_verdict(corpus, map_cone, op_cone):
    for path in sorted(corpus.iterdir()):
        assert _check(corpus, path.name, map_cone) == _check(corpus, path.name, op_cone), path.name
