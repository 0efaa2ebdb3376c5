"""The batched product-vector kernels against their loop-based references.

``reference_seesaw_once`` and ``reference_product_candidates`` are the
sequential see-saw and the list-based dictionary that the array code in
``mapcones.cones`` replaced; ``reference_fit_rnorm`` is the NNLS fit over
the real and imaginary parts of every entry (2 (nm)^2 rows).
"""

import numpy as np
import pytest
from scipy.optimize import nnls

from _helpers import random_hermitian, random_psd, rng
from mapcones.cones import (
    ProductVectorCert,
    SeparableDecomposition,
    Status,
    _decomposition_fit,
    _hermitian_coordinates,
    _product_candidates,
    _seesaw,
    _start_vectors,
    is_block_positive,
    is_positive_map,
    is_separable,
)
from mapcones.fixtures import nondecomposable_map, ppt_entangled_state
from mapcones.linalg import Dims, frob, hermitian_part, partial_trace, tensor

DIMS = [Dims(3, 3), Dims(2, 4), Dims(3, 4), Dims(4, 4)]


def reference_seesaw_once(x4, xi, iters=60):
    val = np.inf
    eta = None
    for _ in range(iters):
        a = np.einsum("i,irjs,j->rs", xi.conj(), x4, xi)
        w, u = np.linalg.eigh(hermitian_part(a))
        eta = u[:, 0]
        b = np.einsum("r,irjs,s->ij", eta.conj(), x4, eta)
        w2, u2 = np.linalg.eigh(hermitian_part(b))
        xi = u2[:, 0]
        if w2[0] > val - 1e-15 * (1.0 + abs(val)):
            val = min(val, float(w2[0]))
            break
        val = float(w2[0])
    return xi, eta, val


def reference_starts(n, restarts, rng_):
    starts = []
    for r in range(max(restarts, 1)):
        if r < n:
            xi = np.eye(n, dtype=np.complex128)[:, r]
        else:
            xi = rng_.normal(size=n) + 1j * rng_.normal(size=n)
            xi = xi / np.linalg.norm(xi)
        starts.append(xi)
    return starts


def reference_block_positive_status(x, d, restarts=20, tol=1e-9, seed=0):
    n, m = d
    scale = 1.0 + frob(x)
    rng_ = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB10C)))
    best = np.inf
    for xi in reference_starts(n, restarts, rng_):
        best = min(best, reference_seesaw_once(x.reshape(n, m, n, m), xi)[2])
        if best < -10 * tol * scale:
            break
    return Status.OUT if best < -tol * scale else Status.IN


def reference_product_candidates(rho, d, rng_):
    n, m = d
    lv = np.linalg.eigh(hermitian_part(partial_trace(rho, d, 2)))[1]
    rv = np.linalg.eigh(hermitian_part(partial_trace(rho, d, 1)))[1]

    def units(dim):
        return [np.eye(dim, dtype=np.complex128)[:, [k]] for k in range(dim)]

    lefts = [lv[:, [k]] for k in range(n)] + units(n)
    rights = [rv[:, [k]] for k in range(m)] + units(m)
    for base in (lv, np.eye(n, dtype=np.complex128)):
        for i in range(n):
            for j in range(i + 1, n):
                for ph in (1.0, 1j):
                    lefts.append((base[:, [i]] + ph * base[:, [j]]) / np.sqrt(2))
    for base in (rv, np.eye(m, dtype=np.complex128)):
        for i in range(m):
            for j in range(i + 1, m):
                for ph in (1.0, 1j):
                    rights.append((base[:, [i]] + ph * base[:, [j]]) / np.sqrt(2))
    pairs = [(a, b) for a in lefts for b in rights]
    for _ in range(max(4 * (n * m) ** 2 - len(pairs), 0)):
        a = rng_.normal(size=(n, 1)) + 1j * rng_.normal(size=(n, 1))
        b = rng_.normal(size=(m, 1)) + 1j * rng_.normal(size=(m, 1))
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return pairs


def reference_fit_rnorm(rho, pairs):
    cols = []
    for a, b in pairs:
        v = np.kron(a @ a.conj().T, b @ b.conj().T).ravel()
        cols.append(np.concatenate([v.real, v.imag]))
    mat = np.array(cols).T
    target = np.concatenate([rho.ravel().real, rho.ravel().imag])
    return nnls(mat, target, maxiter=10 * mat.shape[1])[1]


def random_state(g, d, rank=0):
    rho = random_psd(g, d.total, rank)
    return rho / np.trace(rho).real


def separable_mixture(g, d, terms=5):
    rho = sum(tensor(random_psd(g, d.n, 1), random_psd(g, d.m, 1)) for _ in range(terms))
    return rho / np.trace(rho).real


class TestDictionary:
    @pytest.mark.parametrize("d", DIMS)
    def test_bitwise_equal_to_reference_pairs(self, d):
        rho = random_state(rng(300 + d.total), d)
        a, b = _product_candidates(rho, d)
        ref = reference_product_candidates(rho, d, rng(0))
        assert a.shape == (4 * d.total**2, d.n) and b.shape == (4 * d.total**2, d.m)
        assert np.array_equal(a, np.array([p[:, 0] for p, _ in ref]))
        assert np.array_equal(b, np.array([q[:, 0] for _, q in ref]))

    def test_coordinates_preserve_the_inner_product(self):
        g = rng(310)
        for k in (1, 4, 9, 16):
            x, y = random_hermitian(g, k), random_hermitian(g, k)
            dot = _hermitian_coordinates(x) @ _hermitian_coordinates(y)
            assert _hermitian_coordinates(x).shape == (k * k,)
            assert dot == pytest.approx(np.trace(x @ y).real, abs=1e-12)

    @pytest.mark.parametrize("d", DIMS)
    def test_fit_residual_matches_full_formulation(self, d):
        g = rng(320 + d.total)
        for rho in (random_state(g, d), separable_mixture(g, d)):
            _, info = _decomposition_fit(rho, d, 1e-9)
            ref = reference_fit_rnorm(rho, reference_product_candidates(rho, d, rng(0)))
            assert info["dictionary"] == 4 * d.total**2
            assert abs(info["fit_residual"] - ref) <= 1e-12 * (1 + frob(rho))


class TestBatchedSeesaw:
    def test_start_vectors_bitwise_equal_to_reference(self):
        for n, restarts in ((2, 20), (4, 20), (3, 1), (3, 2)):
            ref = reference_starts(n, restarts, rng(330))
            assert np.array_equal(_start_vectors(n, restarts, rng(330)), np.array(ref))

    @pytest.mark.parametrize("d", [Dims(2, 2), Dims(3, 3), Dims(2, 4), Dims(4, 4)])
    def test_rows_match_sequential_restarts(self, d):
        g = rng(340 + d.total)
        for shift in (0.0, 1.0, 4.0):
            x = random_hermitian(g, d.total) + shift * np.eye(d.total)
            x4 = x.reshape(d.n, d.m, d.n, d.m)
            starts = _start_vectors(d.n, 20, rng(341))
            _, _, val, sweeps = _seesaw(x4, starts, -np.inf)
            ref = [reference_seesaw_once(x4, xi)[2] for xi in starts]
            assert 1 <= sweeps <= 60
            assert np.allclose(val, ref, rtol=0, atol=1e-10)
            assert is_block_positive(x, d).status is reference_block_positive_status(x, d)

    @pytest.mark.parametrize("d", [Dims(3, 3), Dims(4, 4)])
    def test_planted_negative_direction_out(self, d):
        g = rng(350 + d.total)
        v = np.kron(random_psd(g, d.n, 1)[:, 0], random_psd(g, d.m, 1)[:, 0])
        v /= np.linalg.norm(v)
        x = random_psd(g, d.total)
        x -= ((v.conj() @ x @ v).real + 0.5) * np.outer(v, v.conj())
        verdict = is_block_positive(x, d)
        assert verdict.status is Status.OUT
        cert = verdict.certificate
        assert isinstance(cert, ProductVectorCert) and cert.value < 0
        vec = np.kron(cert.xi, cert.eta)
        assert (vec.conj() @ x @ vec).real == pytest.approx(cert.value, abs=1e-10)


class TestSolverInfo:
    def test_block_positive_out_reports_sweeps_and_restart(self):
        v = is_block_positive(-np.eye(4), Dims(2, 2), restarts=5)
        assert v.status is Status.OUT
        assert v.info["sweeps"] == 1 and v.info["restart"] == 0

    def test_positive_map_in_reports_sweeps_and_restart(self):
        v = is_positive_map(nondecomposable_map(), restarts=12)
        assert v.status is Status.IN and v.heuristic
        assert 1 <= v.info["sweeps"] <= 60
        assert 0 <= v.info["restart"] < 12
        assert v.info["best"] == v.certificate.value

    def test_separable_in_by_fit_reports_fit(self):
        v = is_separable(np.eye(9) / 9, Dims(3, 3))
        assert v.status is Status.IN
        assert isinstance(v.certificate, SeparableDecomposition)
        assert v.info["dictionary"] == 324
        assert v.info["fit_residual"] == v.certificate.residual

    def test_separable_out_by_detection_reports_fit(self):
        w, d = ppt_entangled_state()
        v = is_separable(w, d)
        assert v.status is Status.OUT and "detection_value" in v.info
        assert v.info["dictionary"] == 324
        assert v.info["fit_residual"] > 1e-9

    def test_separable_undecided_reports_fit(self):
        v = is_separable(separable_mixture(rng(360), Dims(3, 3)), Dims(3, 3))
        assert v.status is Status.UNDECIDED
        assert v.info["dictionary"] == 324
        assert v.info["fit_residual"] > 1e-9
