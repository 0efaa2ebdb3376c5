"""The separability and block-positivity oracles' cheap paths against eager references.

``reference_dephased`` and ``reference_detection`` are the eager
``_dephased`` (every product term built, ``np.kron`` for U (x) V) and the
candidate-by-candidate ``_positive_map_detection`` that the code in
``mapcones.cones`` replaced.  ``_separable`` now computes the dephasing
residual first and builds the ``SeparableDecomposition`` only for an IN,
the 3 (x) 3 detection runs both candidates as one stack, and
``is_block_positive`` draws its start vectors once per
(n, restarts, seed).  Every certificate and value must stay bit-equal,
and ``TestSepWorkCounts`` pins the work the cheap paths skip.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import mapcones.cones as cones_mod
from _helpers import random_hermitian, rng
from mapcones import fixtures
from mapcones.choi import adjoint, apply_second
from mapcones.cones import (
    SeparableDecomposition,
    Status,
    _dephased,
    _operator,
    _positive_map_detection,
    _seesaw_starts,
    _start_vectors,
    _swap_factors,
    classify,
    is_block_positive,
    is_separable,
)
from mapcones.fixtures import ppt_entangled_state
from mapcones.linalg import Dims, frob, hermitian_part, partial_trace
from test_cones import SEP_DIMS, _dephased_family, _local_unitary

FAMILIES = ["pure-product", "mixed-product", "maximally-mixed", "classical"]


def reference_dephased(rho, d):
    u = np.linalg.eigh(hermitian_part(partial_trace(rho, d, 2)))[1]
    v = np.linalg.eigh(hermitian_part(partial_trace(rho, d, 1)))[1]
    uv = np.kron(u, v)
    weights = (uv.conj() * (rho @ uv)).sum(axis=0).real
    keep = np.flatnonzero(weights > 0)
    fit = (uv[:, keep] * weights[keep]) @ uv[:, keep].conj().T
    i, j = np.divmod(keep, d.m)
    return SeparableDecomposition(
        weights=weights[keep],
        left=tuple(np.outer(u[:, k], u[:, k].conj()) for k in i),
        right=tuple(np.outer(v[:, k], v[:, k].conj()) for k in j),
        residual=frob(rho - fit),
    )


def reference_detection(rho, d, tol):
    n, m = d
    candidates = []
    if m == 3:
        candidates.append((rho, Dims(n, 3), False))
    if n == 3:
        candidates.append((_swap_factors(rho, d), Dims(m, 3), True))
    lam = fixtures.nondecomposable_map()
    for mat, dd, swapped in candidates:
        y = hermitian_part(apply_second(lam, mat, dd))
        w, u = np.linalg.eigh(y)
        if classify(float(w[0]), 1.0 + frob(y), tol) is Status.OUT:
            v = u[:, :1].copy()
            wit = hermitian_part(apply_second(adjoint(lam), v @ v.conj().T, dd))
            if swapped:
                wit = _swap_factors(wit, Dims(dd.n, 3))
            return wit, float(w[0])
    return None


def assert_same_decomposition(dec, ref):
    assert isinstance(dec, SeparableDecomposition)
    assert np.array_equal(dec.weights, ref.weights)
    assert len(dec.left) == len(ref.left) and len(dec.right) == len(ref.right)
    assert all(np.array_equal(a, b) for a, b in zip(dec.left, ref.left))
    assert all(np.array_equal(a, b) for a, b in zip(dec.right, ref.right))
    assert dec.residual == ref.residual


def _sep_instances(cls, rounds=4):
    """The benchmark's sep instances of one class, rounds 0..rounds-1 at seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import instances
    finally:
        sys.path.pop(0)
    base = instances.fixture_choi()
    return [i for r in range(rounds) for i in instances.sep_round(1, r, base) if i.cls == cls]


class TestDephasedResidualFirst:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", SEP_DIMS, ids=str)
    def test_dephased_in_matches_eager_reference(self, d, family):
        # the states of tests/test_cones.py's dephased families, with their seeds
        g = rng(400 + 10 * d.total + len(family))
        rho = _dephased_family(family, g, d)
        u = _local_unitary(g, d)
        for x in (rho, u @ rho @ u.conj().T):
            v = is_separable(x, d)
            assert v.status is Status.IN and v.info == {"regime": "dephased"}
            # the oracle decomposes the gated state, the Hermitian part of x
            assert_same_decomposition(v.certificate, reference_dephased(_operator(x, d, 1e-9)[0], d))

    @pytest.mark.parametrize("d", SEP_DIMS, ids=str)
    def test_residual_and_terms_match_off_the_in_branch(self, d):
        # generic mixtures, whose residual is not IN: the residual is the eager one,
        # and the terms it would have built still match
        g = rng(430 + d.total)
        for _ in range(5):
            x = random_hermitian(g, d.total)
            rho = x @ x + np.eye(d.total)
            rho /= np.trace(rho).real
            ref = reference_dephased(rho, d)
            dephasing = _dephased(rho, d)
            assert classify(-dephasing.residual, 1.0 + frob(rho), 1e-9) is not Status.IN
            assert dephasing.residual == ref.residual
            assert_same_decomposition(dephasing.decomposition(), ref)


class TestCachedStarts:
    @pytest.mark.parametrize("n, count, seed", [(2, 1, 0), (2, 20, 0), (3, 20, 0), (4, 20, 5), (4, 3, 1), (3, 7, 11)])
    def test_starts_equal_a_fresh_draw_and_are_read_only(self, n, count, seed):
        starts = _seesaw_starts(n, count, seed)
        fresh = _start_vectors(n, count, np.random.default_rng(np.random.SeedSequence((seed, 0xB10C))))
        assert np.array_equal(starts, fresh)
        assert not starts.flags.writeable
        with pytest.raises(ValueError):
            starts[0, 0] = 2.0
        assert _seesaw_starts(n, count, seed) is starts

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_repeated_calls_are_identical(self, n):
        g = rng(440 + n)
        x = random_hermitian(g, n * n) + 0.5 * np.eye(n * n)
        _seesaw_starts.cache_clear()
        for seed in (0, 3):
            cold = is_block_positive(x, Dims(n, n), seed=seed)
            warm = is_block_positive(x, Dims(n, n), seed=seed)
            assert cold.status is warm.status and cold.info == warm.info
            assert np.array_equal(cold.certificate.xi, warm.certificate.xi)
            assert np.array_equal(cold.certificate.eta, warm.certificate.eta)
            assert cold.certificate.value == warm.certificate.value == cold.info["best"]


class TestStackedDetection:
    def test_shipped_state_gives_the_reference_witness(self):
        # the shipped state is caught by the second candidate only, its swap by the first only
        rho, d = ppt_entangled_state()
        for x in (rho, _swap_factors(rho, d)):
            det, ref = _positive_map_detection(x, d, 1e-9), reference_detection(x, d, 1e-9)
            assert det is not None and ref is not None
            assert np.array_equal(det[0], ref[0]) and det[1] == ref[1]

    def test_rotated_shipped_state_matches_the_reference(self):
        # under a generic local unitary the detector mostly misses: both sides must agree on it
        rho, d = ppt_entangled_state()
        g = rng(450)
        for _ in range(10):
            u = _local_unitary(g, d)
            x = u @ rho @ u.conj().T
            det, ref = _positive_map_detection(x, d, 1e-9), reference_detection(x, d, 1e-9)
            assert (det is None) == (ref is None)
            if det is not None:
                assert np.array_equal(det[0], ref[0]) and det[1] == ref[1]

    @pytest.mark.parametrize("d", [Dims(3, 3), Dims(3, 4), Dims(4, 3), Dims(3, 2), Dims(2, 4)], ids=str)
    def test_random_operators_match_the_reference(self, d):
        # not PSD, so a candidate fires: both at 3x3, one at 3x4, 4x3 and 3x2, none at 2x4
        g = rng(460 + d.total)
        for _ in range(5):
            x = random_hermitian(g, d.total) + 0.1 * np.eye(d.total)
            det, ref = _positive_map_detection(x, d, 1e-9), reference_detection(x, d, 1e-9)
            assert (det is None) == (ref is None)
            if det is not None:
                assert np.array_equal(det[0], ref[0]) and det[1] == ref[1]

    def test_benchmark_mixtures_are_not_detected(self):
        insts = _sep_instances("mixture/3x3")
        assert insts
        for inst in insts:
            assert _positive_map_detection(inst.x, Dims(3, 3), 1e-9) is None
            assert reference_detection(inst.x, Dims(3, 3), 1e-9) is None


def _spy(counts):
    """spy(name, f): f, counting its calls in counts[name]."""

    def spy(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return counted

    return spy


class TestSepWorkCounts:
    """Work the cheap paths skip, as deterministic call counts.

    A rotated 3x3 product mixture passes the PPT test and fails the
    dephasing and the ball, so it runs every step of ``is_separable``.
    Before the residual came first, each such call built 2nm = 18
    ``np.outer`` terms and one ``SeparableDecomposition`` that it dropped,
    and its detection made 2 ``eigh`` calls instead of 1.  Before the
    start vectors were cached, every ``is_block_positive`` call built its
    own ``np.random.default_rng``.
    """

    def test_undecided_mixture_builds_no_terms(self, monkeypatch):
        inst = _sep_instances("mixture/3x3", rounds=1)[0]
        counts = dict.fromkeys(("outer", "decomposition", "eigh", "detection_eigh"), 0)
        spy = _spy(counts)

        def detection(*args):
            before = counts["eigh"]
            out = _positive_map_detection(*args)
            counts["detection_eigh"] += counts["eigh"] - before
            return out

        monkeypatch.setattr(np, "outer", spy("outer", np.outer))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        monkeypatch.setattr(cones_mod, "SeparableDecomposition", spy("decomposition", SeparableDecomposition))
        monkeypatch.setattr(cones_mod, "_positive_map_detection", detection)
        v = is_separable(inst.x, Dims(3, 3))
        assert v.status is Status.UNDECIDED and v.info == {"ppt": "passed"}
        # eigh: the PPT test 1, the two marginals 2, the detection 1
        assert counts == {"outer": 0, "decomposition": 0, "eigh": 4, "detection_eigh": 1}

    def test_dephased_in_builds_its_terms_once(self, monkeypatch):
        counts = dict.fromkeys(("outer", "decomposition"), 0)
        spy = _spy(counts)
        monkeypatch.setattr(np, "outer", spy("outer", np.outer))
        monkeypatch.setattr(cones_mod, "SeparableDecomposition", spy("decomposition", SeparableDecomposition))
        v = is_separable(np.eye(9) / 9, Dims(3, 3))
        assert v.info == {"regime": "dephased"}
        assert counts == {"outer": 18, "decomposition": 1}

    def test_one_seed_builds_one_generator(self, monkeypatch):
        x = random_hermitian(rng(470), 9) + np.eye(9)
        calls = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or default_rng(*a))
        _seesaw_starts.cache_clear()
        for _ in range(4):
            is_block_positive(x, Dims(3, 3), seed=2)
        assert len(calls) == 1
        is_block_positive(x, Dims(3, 3), seed=3)
        assert len(calls) == 2
