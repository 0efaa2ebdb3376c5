"""One Hermiticity gate per input at every public entry point.

Each operator, Choi matrix and sample list that enters the library
through a public entry point passes ``check_hermitian`` exactly once:
the ``check`` command on every cone, ``pm_k_membership``,
``ksharp_membership`` and ``theorem1_conditions`` with samples.  Sample
lists are gated in ``cones._sample_stack``, so a map that is not
Hermiticity preserving is rejected, never symmetrized, in every role.
The ``verify`` suites' gate calls are pinned per suite.
"""

import sys

import numpy as np
import pytest

import mapcones.linalg as linalg_mod
from _helpers import suite_call_counts
from mapcones.choi import identity_map, map_from_choi, max_entangled_projector
from mapcones.cli import main
from mapcones.cones import ConeId, pm_k_membership
from mapcones.io import save_matrix
from mapcones.linalg import Dims
from mapcones.sampling import cone_generator_pool
from mapcones.theorems import ksharp_membership, theorem1_conditions

D22 = Dims(2, 2)
#: the unnormalized maximally entangled projector, a cp Choi matrix at 2x2
P = max_entangled_projector(2)
#: P + 0.3i I, the Choi matrix of a map that is not Hermiticity preserving
NOT_HP = map_from_choi(2, 2, P + 0.3j * np.eye(4))


def _spy_gates(monkeypatch) -> list:
    """Patch every ``mapcones`` binding of ``check_hermitian``; gated inputs are appended to the list returned."""
    gated = []
    original = linalg_mod.check_hermitian

    def spy(x, tol=1e-9):
        gated.append(np.array(x))
        return original(x, tol)

    bindings = [m for name, m in list(sys.modules.items())
                if name.partition(".")[0] == "mapcones" and getattr(m, "check_hermitian", None) is original]
    assert {"mapcones.linalg", "mapcones.choi", "mapcones.cones", "mapcones.theorems"} <= {m.__name__ for m in bindings}
    for mod in bindings:
        monkeypatch.setattr(mod, "check_hermitian", spy)
    return gated


def _as_stack(x) -> np.ndarray:
    x = np.asarray(x)
    return x.reshape(-1, *x.shape[-2:])


def _assert_each_gated_once(gated: list, inputs: list) -> None:
    assert len(gated) == len(inputs)
    for x in inputs:
        assert sum(np.array_equal(_as_stack(g), _as_stack(x)) for g in gated) == 1


def _pool(cone=ConeId.MAP_CP):
    return cone_generator_pool(cone, D22, 4, 1)


def _check(cone):
    def case(tmp_path):
        x = P + 0.5 * np.eye(4)
        path = tmp_path / "x.json"
        save_matrix(path, 2, 2, x)
        return lambda: main(["check", str(path), cone]), [x]

    return case


def _pm_k(tmp_path):
    pool = _pool()
    return lambda: pm_k_membership(P, D22, pool), [P, [a.choi for a in pool]]


def _ksharp(tmp_path):
    beta, pool = identity_map(2), _pool()
    return lambda: ksharp_membership(beta, pool), [beta.choi, [a.choi for a in pool]]


def _theorem1(cone):
    def case(tmp_path):
        phi, pool = map_from_choi(2, 2, P + 0.5 * np.eye(4)), _pool(cone)
        return lambda: theorem1_conditions(phi, cone, samples=pool), [phi.choi, [a.choi for a in pool]]

    return case


#: public entry points, each as case(tmp_path) -> (call, the inputs it must gate once);
#: the p cone is left out of theorem1_conditions, whose condition (ii) for it is
#: in_E's verdict, and in_E gates its operator as every public oracle does
ENTRIES = {
    **{f"check {c.value}": _check(c.value) for c in ConeId},
    "pm_k_membership": _pm_k,
    "ksharp_membership": _ksharp,
    **{f"theorem1_conditions {c.value}": _theorem1(c)
       for c in (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_S, ConeId.MAP_POS)},
}


@pytest.mark.parametrize("case", list(ENTRIES.values()), ids=list(ENTRIES))
def test_each_input_is_gated_once(case, tmp_path, monkeypatch):
    call, inputs = case(tmp_path)
    gated = _spy_gates(monkeypatch)
    call()
    _assert_each_gated_once(gated, inputs)


CALLS = {
    "ksharp beta": lambda: ksharp_membership(NOT_HP, _pool()),
    "ksharp sample": lambda: ksharp_membership(identity_map(2), _pool()[:2] + [NOT_HP]),
    "pm_k sample": lambda: pm_k_membership(P, D22, [NOT_HP]),
    "theorem1 sample": lambda: theorem1_conditions(identity_map(2), ConeId.MAP_CP, samples=[NOT_HP]),
}


@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_a_map_that_is_not_hermiticity_preserving_raises(call):
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        call()


#: ``check_hermitian`` calls of ``verify(suite, 3x3 unless named, 10 trials, seed 7)``,
#: counted through every ``mapcones`` module that binds it, in the run that
#: ``tests/test_theorems.py::TestStackedSuiteCounts`` reads its other counts from.
#: One re-gate remains, by design: ``in_E``, the only way into the e-cone
#: decision, gates the p cone's matrices again in T1, T12 and T18.  C19's are
#: ``in_E``'s gates of its raw draws and ``omega_eval``'s of its three witness
#: identities.
SUITE_GATES = {
    "C2": 1, "C2/2x3": 1, "C19": 13, "L4": 0, "L5": 0, "L8": 2, "L10": 0, "L15": 1,
    "L16": 15, "L17": 1, "T1": 11, "T6": 3, "T12": 3, "T13": 4, "T18": 8,
}


@pytest.mark.parametrize("tid", list(SUITE_GATES))
def test_suite_gate_calls(tid):
    passed, counts = suite_call_counts(tid)
    assert passed
    assert counts["check_hermitian"] == SUITE_GATES[tid]
