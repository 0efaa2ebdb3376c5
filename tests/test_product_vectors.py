"""The batched see-saw against its loop-based reference.

``reference_seesaw_once`` and ``reference_starts`` are the sequential
see-saw and its start vectors that the array code in ``mapcones.cones``
replaced, and the ``einsum`` contractions in ``TestSeesawContractions``
are the half-step forms that its matrix products replaced.
"""

import numpy as np
import pytest

from _helpers import random_complex, random_hermitian, random_psd, rng
from mapcones.cones import (
    ProductVectorCert,
    Status,
    _forms,
    _halfstep_layouts,
    _seesaw,
    _start_vectors,
    is_block_positive,
    is_positive_map,
)
from mapcones.fixtures import nondecomposable_map
from mapcones.linalg import Dims, frob, hermitian_part


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
            _, _, val, sweeps = _seesaw(x4, starts, lambda v: False)
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


#: non-square dims catch a layout whose factors are swapped
CONTRACTION_DIMS = [Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(4, 2), Dims(3, 3), Dims(4, 4)]


class TestSeesawContractions:
    @pytest.mark.parametrize("d", CONTRACTION_DIMS)
    def test_half_steps_match_einsum(self, d):
        g = rng(360 + 10 * d.n + d.m)
        x4 = random_hermitian(g, d.total).reshape(d.n, d.m, d.n, d.m)
        on_first, on_second = _halfstep_layouts(x4)
        xi = random_complex(g, (7, d.n))
        eta = random_complex(g, (7, d.m))
        a = _forms(xi, on_first, d.m)
        b = _forms(eta, on_second, d.n)
        ref_a = np.einsum("ki,irjs,kj->krs", xi.conj(), x4, xi)
        ref_b = np.einsum("kr,irjs,ks->kij", eta.conj(), x4, eta)
        assert a.shape == ref_a.shape and b.shape == ref_b.shape
        assert np.abs(a - ref_a).max() <= 1e-13 * np.abs(ref_a).max()
        assert np.abs(b - ref_b).max() <= 1e-13 * np.abs(ref_b).max()

    @pytest.mark.parametrize("d", [Dims(2, 3), Dims(4, 2), Dims(3, 3)])
    def test_two_eigh_per_sweep_and_no_einsum(self, d, monkeypatch):
        calls = {"eigh": 0, "einsum": 0}
        eigh, einsum = np.linalg.eigh, np.einsum

        def counting_eigh(a):
            calls["eigh"] += 1
            return eigh(a)

        def counting_einsum(*args, **kwargs):
            calls["einsum"] += 1
            return einsum(*args, **kwargs)

        x = random_hermitian(rng(370 + d.total), d.total) + np.eye(d.total)
        starts = _start_vectors(d.n, 20, rng(371))
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        sweeps = _seesaw(x.reshape(d.n, d.m, d.n, d.m), starts, lambda v: False)[3]
        assert sweeps >= 2
        assert calls == {"eigh": 2 * sweeps, "einsum": 0}


class TestSolverInfo:
    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            is_block_positive(np.eye(4), Dims(2, 2), restarts=restarts)
        with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
            is_positive_map(nondecomposable_map(), restarts=restarts)

    def test_block_positive_out_reports_sweeps_and_restart(self):
        v = is_block_positive(-np.eye(4), Dims(2, 2), restarts=5)
        assert v.status is Status.OUT
        assert v.info["sweeps"] == 1 and set(v.info) == {"restarts", "sweeps", "best"}

    def test_positive_map_in_reports_sweeps_and_restart(self):
        v = is_positive_map(nondecomposable_map(), restarts=12)
        assert v.status is Status.IN and v.heuristic
        assert 1 <= v.info["sweeps"] <= 60
        assert set(v.info) == {"restarts", "sweeps", "best"}
        assert v.info["best"] == v.certificate.value
