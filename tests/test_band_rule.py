"""One margin-and-band rule: every verdict comes from ``linalg.classify``.

A margin m at scale s is IN when m >= -tol s, OUT when m <= -10 tol s and
UNDECIDED between.  The planted instances below put a least eigenvalue
(or a product-vector value) at -0.5, -5 and -20 times tol * scale, one in
each region, and every oracle that reads such a margin must answer with
that region's verdict.  The e cone's IN edge is tol * scale / sqrt(nm),
so its planted margins sit at -0.1, -5 and -20 times tol * scale.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import mapcones
import mapcones.cones as cones_mod
import mapcones.linalg as linalg_mod
import mapcones.theorems as theorems_mod
from mapcones.choi import identity_map, map_from_choi, swap_operator, transpose_map
from mapcones.cli import main
from mapcones.cones import (
    Status,
    classify,
    in_E,
    in_F,
    in_P,
    in_S,
    is_block_positive,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
    is_ppt_state,
    is_separable,
    pm_k_membership,
    project_F,
    witness_search,
)
from mapcones.io import save_matrix
from mapcones.linalg import Dims, frob, is_psd, partial_transpose
from mapcones.theorems import TheoremReport, ksharp_membership, verify

TOL = 1e-9
D22 = Dims(2, 2)
SWAP = swap_operator(2)
#: multiple of tol * scale planted as the margin, and the verdict it must get
REGIONS = [(-0.5, Status.IN), (-5.0, Status.UNDECIDED), (-20.0, Status.OUT)]
REGION_IDS = ["in", "band", "out"]


def planted(base, k):
    """base shifted so that its least eigenvalue is k * TOL * (1 + ||base||_F).

    The shift moves ||.||_F by a relative 1e-8, far inside the factor of
    two that separates each planted multiple from the region edges.
    """
    b = base - np.linalg.eigvalsh(base)[0] * np.eye(len(base))
    return b + k * TOL * (1.0 + frob(b)) * np.eye(len(b))


class TestClassify:
    @pytest.mark.parametrize(
        "margin,status",
        [(0.0, Status.IN), (-1.0, Status.IN), (-1.5, Status.UNDECIDED), (-9.9, Status.UNDECIDED),
         (-10.0, Status.OUT), (-1e6, Status.OUT), (np.inf, Status.IN), (-np.inf, Status.OUT)],
    )
    def test_regions(self, margin, status):
        # tol * scale = 1: the IN edge is -1, the OUT edge -10
        assert classify(margin, 2.0, 0.5) is status

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            classify(0.0, 1.0, tol)


@pytest.mark.parametrize("k,status", REGIONS, ids=REGION_IDS)
class TestPlantedMargins:
    """Planted least eigenvalues give IN, UNDECIDED and OUT in turn."""

    def test_is_cp(self, k, status):
        v = is_cp(map_from_choi(2, 2, planted(SWAP, k)), TOL)
        assert v.status is status
        assert v.info["min_eig"] / (TOL * (1 + frob(planted(SWAP, k)))) == pytest.approx(k, rel=1e-6)

    def test_is_cop(self, k, status):
        choi = partial_transpose(planted(SWAP, k), D22)
        assert is_cop(map_from_choi(2, 2, choi), TOL).status is status

    def test_in_P(self, k, status):
        # the cp side is clearly IN (least eigenvalue about 1); the cop side is planted
        choi = partial_transpose(planted(SWAP, k), D22)
        assert is_cp(map_from_choi(2, 2, choi), TOL).status is Status.IN
        assert in_P(map_from_choi(2, 2, choi), TOL).status is status

    def test_in_F(self, k, status):
        v = in_F(partial_transpose(planted(SWAP, k), D22), D22, TOL)
        assert v.status is status

    def test_pm_k_membership(self, k, status):
        v = pm_k_membership(planted(SWAP, k), D22, [transpose_map(2), identity_map(2)], TOL)
        assert v.status is status
        assert v.heuristic == (status is Status.IN)

    def test_ksharp_membership(self, k, status):
        beta = map_from_choi(2, 2, planted(SWAP, k))
        v = ksharp_membership(beta, [identity_map(2)], TOL)
        assert v.status is status
        assert v.heuristic == (status is Status.IN)

    def test_check_cp_exit_code(self, k, status, tmp_path):
        path = tmp_path / "phi.json"
        save_matrix(path, 2, 2, planted(SWAP, k))
        assert main(["check", str(path), "cp"]) == {Status.IN: 0, Status.OUT: 1, Status.UNDECIDED: 2}[status]

    def test_is_separable_planted_in_partial_transpose(self, k, status):
        # PT(rho) = y / Tr y has the planted least eigenvalue; rho itself is
        # a state with least eigenvalue about 1/4
        y = planted((SWAP + np.eye(4)) / 4, k)
        rho = partial_transpose(y, D22) / np.trace(y).real
        assert is_separable(rho, D22, TOL).status is status

    def test_is_block_positive_planted_product_value(self, k, status):
        # <xi (x) eta| SWAP |xi (x) eta> = |<xi, eta>|^2 has minimum 0 over
        # product vectors, though SWAP has eigenvalue -1; the shift plants it
        x = SWAP + k * TOL * (1.0 + frob(SWAP)) * np.eye(4)
        v = is_block_positive(x, D22, tol=TOL)
        assert v.status is status
        assert v.info["best"] == pytest.approx(k * TOL * (1.0 + frob(SWAP)), rel=1e-6)
        assert v.heuristic == (status is Status.IN)


#: the e cone's planted multiples, each with its verdict, the solve's stop and the exit code of ``check``
E_REGIONS = [(-0.1, Status.IN, "in", 0), (-5.0, Status.UNDECIDED, "gap", 2), (-20.0, Status.OUT, "out", 1)]


@pytest.mark.parametrize("k,status,stop,code", E_REGIONS, ids=REGION_IDS)
@pytest.mark.parametrize("n", [2, 3])
class TestPlantedEMargins:
    """SWAP + k tol scale I has the e-cone margin lam* = k tol scale.

    SWAP = PT(n |phi+><phi+|) lies in E, and the PPT state
    PT(I - |phi+><phi+|) / (n^2 - 1) pairs to 0 with it, so lam*(SWAP) = 0.
    The solve's ``in`` edge is tol * scale / sqrt(nm), where the spectral
    cones' edge is tol * scale, so k = -0.5 is no IN point for it.
    """

    @staticmethod
    def planted(n, k):
        s = swap_operator(n)
        return s + k * TOL * (1.0 + frob(s)) * np.eye(n * n)

    def test_in_E(self, n, k, status, stop, code):
        v = in_E(self.planted(n, k), Dims(n, n), TOL)
        assert (v.status, v.info["stop"]) == (status, stop)
        assert (v.info["iterations"] == 0) == (status is Status.IN)

    def test_is_decomposable(self, n, k, status, stop, code):
        assert is_decomposable(map_from_choi(n, n, self.planted(n, k)), TOL).status is status

    @pytest.mark.parametrize("cone", ["e", "d"])
    def test_check_exit_code(self, n, k, status, stop, code, cone, tmp_path):
        path = tmp_path / "x.json"
        save_matrix(path, n, n, self.planted(n, k))
        assert main(["check", str(path), cone]) == code


@pytest.mark.parametrize("k,status", REGIONS, ids=REGION_IDS)
def test_check_margin_planted(k, status):
    """A suite margin that must be IN passes, is UNDECIDED in the band, and fails OUT."""
    scale = 3.0
    report = TheoremReport("T13", 2, 2, 1, 1, TOL)
    report.check_margin(0, "planted", k * TOL * scale, scale, TOL)
    assert report.checks == 1
    assert report.undecided == (status is Status.UNDECIDED)
    assert [f["violation"] for f in report.failures] == ([-k * TOL * scale] if status is Status.OUT else [])


def test_band_pairing_is_undecided_in_a_suite(monkeypatch):
    """T13 counts a pairing planted in the band as UNDECIDED, not as a failure."""

    def planted_pairing(a, b):
        return -5.0 * TOL * (1.0 + frob(a) * frob(b))

    monkeypatch.setattr(theorems_mod, "trace_pairing", planted_pairing)
    report = verify("T13", D22, trials=4, seed=1)
    assert (report.checks, report.undecided, report.failures) == (8, 8, [])


#: every public oracle, on an input where it would otherwise return a verdict
ORACLES = {
    "is_cp": lambda tol: is_cp(map_from_choi(2, 2, -np.eye(4)), tol),
    "is_cop": lambda tol: is_cop(identity_map(3), tol),
    "in_P": lambda tol: in_P(map_from_choi(2, 2, np.eye(4)), tol),
    "in_F": lambda tol: in_F(np.eye(4), D22, tol),
    "is_ppt_state": lambda tol: is_ppt_state(np.eye(4) / 4, D22, tol),
    "is_separable": lambda tol: is_separable(np.eye(4) / 4, D22, tol),
    "in_S": lambda tol: in_S(map_from_choi(2, 2, np.eye(4)), tol),
    "is_block_positive": lambda tol: is_block_positive(-np.eye(4), D22, tol=tol),
    "is_positive_map": lambda tol: is_positive_map(identity_map(2), tol=tol),
    "pm_k_membership": lambda tol: pm_k_membership(-np.eye(4), D22, [identity_map(2)], tol),
    "ksharp_membership": lambda tol: ksharp_membership(identity_map(2), [identity_map(2)], tol),
    "in_E": lambda tol: in_E(-np.eye(4), D22, tol),
    "is_decomposable": lambda tol: is_decomposable(identity_map(2), tol),
    "witness_search": lambda tol: witness_search(-np.eye(4), D22, tol),
    "project_F": lambda tol: project_F(-np.eye(4), D22, tol),
    "is_psd": lambda tol: is_psd(-np.eye(4), tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_reject_invalid_tol(oracle, tol):
    with pytest.raises(ValueError, match="tol"):
        ORACLES[oracle](tol)


#: the band multiplier as written at a hand-made band site
BAND_SITE = re.compile(r"10(\.0)?\s*\*\s*(tol|thr|cfg\.tol)")


def test_classify_defined_once():
    """``classify`` and ``Status`` are defined in ``linalg`` alone, and ``cones`` re-exports the same objects."""
    src = Path(mapcones.__file__).parent
    defs = [
        (path.name, node.name) for path in sorted(src.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ("classify", "Status")
    ]
    assert sorted(defs) == [("linalg.py", "Status"), ("linalg.py", "classify")]
    assert cones_mod.classify is linalg_mod.classify
    assert cones_mod.Status is linalg_mod.Status is mapcones.Status
    assert {"classify", "Status"} <= set(cones_mod.__all__)


def test_band_multiplier_only_in_classify():
    """No module states the band's OUT edge outside ``linalg.classify``."""
    src = Path(mapcones.__file__).parent
    (fn,) = [
        node for node in ast.parse((src / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "classify"
    ]
    inside_classify = range(fn.lineno, fn.end_lineno + 1)
    sites = []
    for path in sorted(src.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if BAND_SITE.search(line) and not (path.name == "linalg.py" and lineno in inside_classify):
                sites.append(f"{path.name}:{lineno}: {line.strip()}")
    assert sites == []


def test_dykstra_config_named_only_by_its_shim():
    """``DykstraConfig`` survives only as the deprecated shim in ``cones`` and its re-export.

    Every other library module and every demo passes ``tol`` itself, so
    deleting the shim touches ``cones.py`` and ``__init__.py`` alone.
    """
    src = Path(mapcones.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    paths = [p for p in sorted(src.glob("*.py")) if p.name not in ("cones.py", "__init__.py")]
    paths += sorted(demos.glob("*.py"))
    assert [p.name for p in paths if "DykstraConfig" in p.read_text()] == []


#: per module, the functions that may compare against ``tol`` itself: the band
#: rule, its argument check and the Hermiticity gate in ``linalg``, the Dykstra
#: stop of ``project_F`` and ``in_S``'s trace gate in ``cones``
TOL_COMPARISONS_ALLOWED = {
    "linalg.py": {"classify", "_check_tol", "check_hermitian"},
    "sdp.py": set(),
    "cones.py": {"project_F", "in_S"},
    "theorems.py": set(),
}


def _names_tol(node):
    """Whether ``tol`` is an operand of the expression, outside any call's arguments."""
    if isinstance(node, ast.Call):
        return False
    if (isinstance(node, ast.Name) and node.id == "tol") or (isinstance(node, ast.Attribute) and node.attr == "tol"):
        return True
    return any(_names_tol(child) for child in ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", sorted(TOL_COMPARISONS_ALLOWED))
def test_tol_compared_only_by_the_band_rule(module):
    """Every verdict-level threshold and solver stop goes through ``classify``.

    A comparison that names ``tol`` restates the band by hand, and may
    count a margin in the band as a pass or a failure instead of UNDECIDED.
    """
    tree = ast.parse((Path(mapcones.__file__).parent / module).read_text())
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in TOL_COMPARISONS_ALLOWED[module]:
            allowed.update(range(fn.lineno, fn.end_lineno + 1))
    sites = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and _names_tol(node) and node.lineno not in allowed
    ]
    assert sites == []
