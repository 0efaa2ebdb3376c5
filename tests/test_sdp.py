"""The interior-point solver behind the e cone: its Newton systems and its optimum.

``_Schur`` assembles the HKM Schur complement as a real symmetric matrix
in Hermitian coordinates.  The reference here is the operator it
replaces, applied matrix-free through the constraint map and its
adjoint: s1 = herm(X1 (u0 I + PT U) W1) gives
(Tr s1, PT(s1) + herm(X2 U W2)).  Non-square dimensions catch a PT
index map that mixes up the two factors.  The blocked assembly is also
checked entry for entry against the one-pair-at-a-time loop it replaced,
on the upper block triangle that it computes.  ``_Start``, the closed-form
solve of the first step, is checked against the same operator at the
start point.  Every bracket the solve returns is checked to be
certified, a step that ends on its predictor to leave a strictly
feasible iterate, each forced breakdown to leave ``in_E`` UNDECIDED,
and a labelled corpus that mirrors the benchmark's
e-in and e-out families to keep its labels at a pinned amount of work.
Each corpus certificate passes its own ``problem()`` check, fails it once
one field is mutated, and gets the same accept-or-reject answer from the
benchmark's independent validator, ``perfbench/certs.py``.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from _helpers import brute_partial_transpose, random_complex, random_hermitian, random_psd, rng
from mapcones.cones import Decomposition, FWitness, Status, dykstra_feasibility, in_E
from mapcones.fixtures import nondecomposable_map
from mapcones.linalg import Dims, frob, partial_transpose
from mapcones import sdp
from mapcones.sdp import _Schur, _Start, _plan, _rotate


def herm(a):
    return (a + a.conj().T) / 2


def reference_schur(x1, w1, x2, w2, d, u0, u):
    s1 = herm(x1 @ (u0 * np.eye(d.total) + partial_transpose(u, d)) @ w1)
    return np.trace(s1).real, partial_transpose(s1, d) + herm(x2 @ u @ w2)


def positive_definite(g, k):
    a = random_complex(g, (k, k))
    return a @ a.conj().T + 0.1 * np.eye(k)


def reference_full(x1, w1, x2, w2, d):
    """The Schur matrix assembled one pair of basis rows at a time, as it was before blocks."""
    nm = d.total
    a, b = np.triu_indices(nm, 1)
    units = np.concatenate((np.arange(nm) * (nm + 1), np.column_stack((a * nm + b, b * nm + a)).ravel()))
    pt = partial_transpose(np.arange(nm * nm).reshape(nm, nm), d).ravel()[units]
    blocks = [(x1, w1.T, *np.divmod(pt, nm)), (x2, w2.T, *np.divmod(units, nm))]

    def coords(u):
        v = u.ravel()[units]
        v[nm:] = _rotate(v[nm:], -1)
        return v.real

    full = np.empty((nm * nm + 1,) * 2)
    full[0, 0] = np.trace(x1 @ w1).real
    full[0, 1:] = full[1:, 0] = coords(partial_transpose(x1 @ w1, d))
    starts = [0, *range(nm, nm * nm, 2)]
    for lo, hi in zip(starts, starts[1:] + [nm * nm]):
        s = sum(np.take(x[p[lo:hi]], p, 1) * np.take(wt[q[lo:hi]], q, 1) for x, wt, p, q in blocks)
        if lo >= nm:
            s = _rotate(s, -1)
        s[:, nm:] = _rotate(s[:, nm:].T, 1).T
        full[lo + 1 : hi + 1, 1:] = s.real
    return full


@pytest.mark.parametrize(
    "n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 4), (4, 5), (2, 5), (5, 5)]
)
def test_blocked_assembly_matches_the_pairwise_loop(n, m):
    # each block of 2nm rows is computed from its own columns onward, bit
    # for bit as the pairwise loop computes it; the strict lower block
    # triangle is the transpose of the upper one
    d = Dims(n, m)
    g = rng(500 + 10 * n + m)
    args = [positive_definite(g, d.total) for _ in range(4)]
    full, ref = _Schur(*args, d).full, reference_full(*args, d)
    assert np.array_equal(full[0], ref[0]) and np.array_equal(full[:, 0], ref[:, 0])
    bounds = _plan(d).bounds
    assert bounds == (0, *range(d.total, d.total**2, 2 * d.total), d.total**2)
    for lo, hi in zip(bounds, bounds[1:]):
        assert np.array_equal(full[lo + 1 : hi + 1, lo + 1 :], ref[lo + 1 : hi + 1, lo + 1 :])
        assert np.array_equal(full[hi + 1 :, lo + 1 : hi + 1], full[lo + 1 : hi + 1, hi + 1 :].T)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (4, 5), (5, 5)])
def test_pair_units_are_each_others_transposes(n, m):
    # the plan reads W^T through the partner's index: for each pair of
    # basis units, and in both PSD blocks, p of one unit is q of the other
    d = Dims(n, m)
    nm = d.total
    a, b = np.triu_indices(nm, 1)
    units = np.concatenate((np.arange(nm) * (nm + 1), np.column_stack((a * nm + b, b * nm + a)).ravel()))
    pt = partial_transpose(np.arange(nm * nm).reshape(nm, nm), d).ravel()[units]
    for block in (pt, units):
        p, q = np.divmod(block, nm)
        assert np.array_equal(p[:nm], q[:nm])
        assert np.array_equal(p[nm::2], q[nm + 1 :: 2]) and np.array_equal(q[nm::2], p[nm + 1 :: 2])


def test_plan_is_cached_per_dims_and_read_only():
    plan = _plan(Dims(2, 3))
    assert _plan(Dims(2, 3)) is plan
    other = _plan(Dims(3, 2))
    assert np.array_equal(plan.units, other.units)  # same nm, so the same units
    arrays = [*plan.diag, *(index for *_, index in plan.pairs)]
    others = [*other.diag, *(index for *_, index in other.pairs)]
    assert not all(np.array_equal(a, b) for a, b in zip(arrays, others))
    for arr in (plan.units, *arrays):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


@pytest.mark.parametrize("n,m", [(4, 4), (5, 5)])
def test_plan_stays_near_the_matrix_size(n, m):
    # one index array per quadrant and PSD block, W read through the
    # partner's: the plan is about the size of the Schur matrix it fills
    d = Dims(n, m)
    g = rng(700 + 10 * n + m)
    schur = _Schur(*[positive_definite(g, d.total) for _ in range(4)], d)
    plan = _plan(d)
    index_bytes = sum(arr.nbytes for arr in (plan.units, *plan.diag, *(index for *_, index in plan.pairs)))
    assert index_bytes <= 1.25 * schur.full.nbytes


@pytest.mark.parametrize("n,m", [(4, 4), (5, 5)])
def test_assembly_workspace_stays_small(n, m):
    # the blocks add a few 2nm x (nm)^2 temporaries to the matrix itself;
    # one (nm)^2 x (nm)^2 complex temporary would be about 7 times the matrix
    d = Dims(n, m)
    g = rng(600 + 10 * n + m)
    args = [positive_definite(g, d.total) for _ in range(4)]
    _plan(d)  # built once per Dims and kept, so not part of a step's workspace
    tracemalloc.start()
    try:
        schur = _Schur(*args, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * schur.full.nbytes


@pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 2), (3, 4)])
def test_solve_inverts_the_matrix_free_operator(n, m):
    d = Dims(n, m)
    g = rng(100 + 10 * n + m)
    for _ in range(3):
        x1, w1, x2, w2 = (positive_definite(g, d.total) for _ in range(4))
        schur = _Schur(x1, w1, x2, w2, d)
        assert np.allclose(schur.full, schur.full.T, rtol=0, atol=1e-12 * np.abs(schur.full).max())
        u0, u = float(g.normal()), random_hermitian(g, d.total)
        b0, b = reference_schur(x1, w1, x2, w2, d, u0, u)
        v0, v = schur.solve(b0, b)
        assert abs(v0 - u0) <= 1e-10 * abs(u0)
        assert frob(v - u) <= 1e-10 * frob(u)
        assert frob(v - v.conj().T) == 0.0


@pytest.mark.parametrize("n,m", [(2, 4), (4, 2)])
def test_u0_row_and_column(n, m):
    # (u0, U) = (1, 0) alone exercises the trace row and column of the matrix
    d = Dims(n, m)
    g = rng(7 * n + m)
    x1, w1, x2, w2 = (positive_definite(g, d.total) for _ in range(4))
    b0, b = reference_schur(x1, w1, x2, w2, d, 1.0, np.zeros((d.total, d.total)))
    v0, v = _Schur(x1, w1, x2, w2, d).solve(b0, b)
    assert abs(v0 - 1.0) <= 1e-10
    assert frob(v) <= 1e-10


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4)])
def test_start_solves_the_first_system_in_closed_form(n, m):
    # the first iterate X1 = X2 = I/nm, Y = tI of every solve, so W2 = I/t
    d = Dims(n, m)
    nm = d.total
    g = rng(700 + 10 * n + m)
    t = 1 / np.sqrt(nm)
    x, w2 = np.eye(nm) / nm, np.eye(nm) / t
    for _ in range(3):
        z1 = positive_definite(g, nm)
        w1 = np.linalg.inv(z1)
        # (u0, U) = (1, 0) exercises the u0 row alone
        for u0, u in [(float(g.normal()), random_hermitian(g, nm)), (1.0, np.zeros((nm, nm)))]:
            b0, b = reference_schur(x, w1, x, w2, d, u0, u)
            v0, v = _Start(z1, t, d).solve(b0, b)
            assert abs(v0 - u0) <= 1e-10 * abs(u0)
            assert frob(v - u) <= 1e-10 * max(frob(u), 1.0)
            assert frob(v - v.conj().T) == 0.0


def test_first_step_assembles_nothing(monkeypatch):
    # k Newton steps build k - 1 Schur matrices and make 2 (k - 1) dense
    # solves, minus one when the last step ends on its predictor; the
    # fixture's last step does so in both modes
    built, solves = [], []

    class Spy(sdp._Schur):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = 0
            built.append(self)

        def solve(self, b0, b):
            self.calls += 1
            return super().solve(b0, b)

    def counted_solve(a, b):
        solves.append(1)
        return real_solve(a, b)

    real_solve = np.linalg.solve
    monkeypatch.setattr(sdp, "_Schur", Spy)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    x = nondecomposable_map().choi
    for optimum in (False, True):
        built.clear()
        solves.clear()
        res = sdp.solve(x, Dims(3, 3), 1e-9, optimum)
        assert res.iterations >= 2
        assert len(built) == res.iterations - 1
        assert [s.calls for s in built] == [2] * (res.iterations - 2) + [1]
        assert len(solves) == 2 * (res.iterations - 1) - 1 == res.solves


def _fixture_perturbations(count):
    """The fixture plus 0.5% Hermitian noise, drawn as in the perturbation test of test_cones."""
    base = nondecomposable_map().choi
    g = rng(77)
    for k in range(count):
        h = random_hermitian(g, 9)
        yield pytest.param(Dims(3, 3), base + 0.005 * frob(base) / frob(h) * h, id=f"perturbed-{k}")


def _rotated_embeddings(n, m, count):
    """(P (x) Q) C (P (x) Q)* for the fixture C and Haar-random isometries P, Q from C^3."""
    base = nondecomposable_map().choi
    g = rng(300 + 10 * n + m)
    for k in range(count):
        p = unitary_group.rvs(n, random_state=g)[:, :3]
        q = unitary_group.rvs(m, random_state=g)[:, :3]
        pq = np.kron(p, q)
        yield pytest.param(Dims(n, m), pq @ base @ pq.conj().T, id=f"rotated-{n}x{m}-{k}")


@pytest.mark.parametrize(
    "d,x", [*_fixture_perturbations(20), *_rotated_embeddings(3, 4, 2), *_rotated_embeddings(4, 4, 2)]
)
def test_optimum_solve_closes_the_bracket(d, x):
    feas = dykstra_feasibility(x, d, 1e-9, optimum=True)
    assert feas.stop == "gap"
    assert feas.upper - feas.lower <= 1e-8
    assert feas.w is not None and feas.upper < 0


def step_bound(nm, tol):
    """Newton steps a solve stays below: the first gap is under 4 ||x|| and
    ``_SLOW_STEPS`` forces a halving of the best gap every third step."""
    return 3 * (np.log2(4 * np.sqrt(nm) / tol) + 1)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
def test_steps_stay_below_the_bound_at_the_boundary(n, m):
    # x - lam* I has lam* = 0 up to the accuracy of lam*, the hardest case
    # for a sign decision; the shifts put lam* just on either side of it
    d = Dims(n, m)
    g = rng(400 + 10 * n + m)
    for _ in range(2):
        x = random_hermitian(g, d.total)
        feas = dykstra_feasibility(x, d, optimum=True)
        x0 = x - (feas.lower + feas.upper) / 2 * np.eye(d.total)
        for shift in (0.0, 1e-10, -1e-10):
            y = x0 + shift * frob(x0) * np.eye(d.total)
            for tol in (1e-9, 1e-13, 1e-300):
                for optimum in (False, True):
                    res = dykstra_feasibility(y, d, tol, optimum)
                    assert res.stop in ("in", "out", "gap", "breakdown")
                    assert res.iterations < step_bound(d.total, tol), (tol, optimum, res.iterations)


#: the fixture map's optimum over trace-one PPT witnesses is -S_STAR
S_STAR = 2 / np.sqrt(3) - 1
CERT_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


def _shifted_draws(n, m):
    """Random Hermitian x moved so that lam* lies at each of several offsets from zero.

    The offsets reach the ``"out"``, ``"gap"`` and ``"in"`` stops, and the
    largest makes x PSD, which stops before any step.
    """
    d = Dims(n, m)
    nm = d.total
    g = rng(800 + 10 * n + m)
    for _ in range(2):
        x = random_hermitian(g, nm)
        opt = sdp.solve(x, d, 1e-9, optimum=True)
        x0 = x - (opt.lower + opt.upper) / 2 * np.eye(nm)
        for offset in (-0.3, -1e-3, -1e-10, 0.0, 1e-10, 1e-3, 0.3, 10.0):
            yield x0 + offset * frob(x0) * np.eye(nm)


@pytest.mark.parametrize("n,m", CERT_DIMS)
def test_every_bracket_is_certified(n, m):
    # x - lower I - PT(y) is ||x|| (Z1 - lambda_min(Z1) I) for the final dual
    # iterate, PSD up to rounding, whichever way the solve stopped
    d = Dims(n, m)
    stops = set()
    for x in _shifted_draws(n, m):
        for optimum in (False, True):
            res = sdp.solve(x, d, 1e-9, optimum)
            stops.add(res.stop)
            slack = x - res.lower * np.eye(d.total) - brute_partial_transpose(res.y, d)
            assert np.linalg.eigvalsh(slack)[0] >= -1e-12 * (1 + frob(x))
            assert res.lower <= res.upper
    assert {"in", "out", "gap"} <= stops


@pytest.mark.parametrize("n,m", CERT_DIMS)
def test_a_step_that_ends_on_its_predictor_is_strictly_feasible(monkeypatch, n, m):
    # a step that made one Schur solve (closed-form or dense) took no corrector
    calls, ended = [], []

    def counted(f):
        def solve(self, b0, b):
            calls.append(1)
            return f(self, b0, b)

        return solve

    for cls in (sdp._Schur, sdp._Start):
        monkeypatch.setattr(cls, "solve", counted(cls.solve))
    real_step = sdp._newton_step

    def step(xs, point, d, settled, schur=None):
        before = len(calls)
        out = real_step(xs, point, d, settled, schur)
        if out is not None and len(calls) - before == 1:
            ended.append((xs, out[0], settled(out[0])))
        return out

    monkeypatch.setattr(sdp, "_newton_step", step)
    d = Dims(n, m)
    for x in _shifted_draws(n, m):
        for optimum in (False, True):
            sdp.solve(x, d, 1e-9, optimum)
    assert ended
    for xs, p, stop in ended:
        assert stop in ("in", "out", "gap")
        for a in (p.x1, brute_partial_transpose(p.x1, d), p.y, p.z1):
            assert np.linalg.eigvalsh(a)[0] > 0
        assert abs(np.trace(p.x1).real - 1.0) <= 1e-12
        assert frob(p.z1 - (xs - p.y0 * np.eye(d.total) - brute_partial_transpose(p.y, d))) <= 1e-12


def _nan_solve(self, b0, b):
    return float("nan"), np.full_like(b, np.nan)


def _singular(*args):
    raise np.linalg.LinAlgError("singular Schur matrix")


def _nan_corrector(monkeypatch):
    # the first Schur solve of a step gives its predictor, the second its corrector
    calls, solve = [], _Schur.solve

    def every_second(self, b0, b):
        calls.append(None)
        return _nan_solve(self, b0, b) if len(calls) % 2 == 0 else solve(self, b0, b)

    monkeypatch.setattr(_Schur, "solve", every_second)


#: a forced failure of each kind and the Newton step that it ends
BREAKDOWNS = {
    "short step": (lambda mp: mp.setattr(sdp, "_MIN_STEP", 2.0), 1),
    "factorization": (lambda mp: mp.setattr(_Schur, "__init__", _singular), 2),
    "non-finite predictor": (lambda mp: mp.setattr(_Start, "solve", _nan_solve), 1),
    "non-finite corrector": (_nan_corrector, 2),
}


@pytest.mark.parametrize("force, step", list(BREAKDOWNS.values()), ids=list(BREAKDOWNS))
def test_a_breakdown_is_undecided(monkeypatch, force, step):
    # the shipped map is OUT, but no iterate before the failure is a
    # witness, so the failed solve must give no verdict either way
    force(monkeypatch)
    v = in_E(nondecomposable_map().choi, Dims(3, 3), 1e-9)
    assert (v.info["stop"], v.info["iterations"]) == ("breakdown", step)
    assert v.status is Status.UNDECIDED
    assert v.certificate is None


def _isometry(g, k):
    """The first three columns of a Haar-random k x k unitary."""
    return unitary_group.rvs(k, random_state=g)[:, :3]


def _labelled_corpus():
    """Seeded (id, dims, x, label) mirroring the benchmark's e-in and e-out families.

    The fixture C embedded by Haar isometries and shifted by s I is
    decomposable exactly when s > S_STAR; the low-rank A + PT(B), plus
    mu Tr/nm I and scaled to trace nm, are decomposable by construction.
    """
    base = nondecomposable_map().choi
    g = rng(900)
    corpus = []
    for n, m in ((3, 3), (3, 4), (4, 4)):
        for factor in (0.3, 0.7, 0.9, 1.1, 1.3, 2.0):
            pq = np.kron(_isometry(g, n), _isometry(g, m))
            x = pq @ base @ pq.conj().T + factor * S_STAR * np.eye(n * m)
            label = Status.IN if factor > 1 else Status.OUT
            corpus.append((f"fixture-{n}x{m}-{factor}", Dims(n, m), x, label))
    for n, m in ((2, 4), (3, 3), (4, 4)):
        d = Dims(n, m)
        for mu in (0.1, 0.01):
            a = random_psd(g, d.total, int(g.integers(1, 4)))
            b = random_psd(g, d.total, int(g.integers(1, 4)))
            x = a + brute_partial_transpose(b, d)
            x = x + mu * np.trace(x).real / d.total * np.eye(d.total)
            corpus.append((f"lowrank-{n}x{m}-{mu}", d, x * d.total / np.trace(x).real, Status.IN))
    return corpus


#: Newton steps and dense Schur solves over the whole corpus; a change that
#: makes a decision cost more work moves them.  Before steps could end on
#: their predictor and the lower bound read y0 + lambda_min(Z1), the
#: corpus took 78 steps and 108 solves.
CORPUS_STEPS = 74
CORPUS_SOLVES = 86


@pytest.fixture(scope="module")
def corpus_verdicts():
    return [(d, x, label, in_E(x, d)) for _, d, x, label in _labelled_corpus()]


def test_corpus_keeps_its_labels(corpus_verdicts):
    # each certificate re-validated with plain spectra and the loop partial transpose
    for d, x, label, v in corpus_verdicts:
        assert v.status is label
        scale = 1 + frob(x)
        if label is Status.IN:
            a, b = v.certificate.a, v.certificate.b
            assert np.linalg.eigvalsh(a)[0] >= -1e-9 * (1 + frob(a))
            assert np.linalg.eigvalsh(b)[0] >= -1e-9 * (1 + frob(b))
            assert frob(x - a - brute_partial_transpose(b, d)) <= 1e-9 * scale
        else:
            w = v.certificate.w
            assert np.linalg.eigvalsh(w)[0] >= -1e-9 * (1 + frob(w))
            assert np.linalg.eigvalsh(brute_partial_transpose(w, d))[0] >= -1e-9 * (1 + frob(w))
            assert abs(np.trace(w).real - 1.0) <= 1e-9
            assert np.trace(w @ x).real <= -10 * 1e-9 * scale


def test_corpus_work_counts(corpus_verdicts):
    steps = sum(v.info["iterations"] for *_, v in corpus_verdicts)
    solves = sum(v.info["solves"] for *_, v in corpus_verdicts)
    assert (steps, solves) == (CORPUS_STEPS, CORPUS_SOLVES)


TOL = 1e-9


def _mutations(d, x, cert):
    """(label, operator, certificate, reason) for one-field mutations of a corpus certificate.

    Each reason is the first check that ``problem()`` finds failing: the
    residual before the spectra of a decomposition, and the pairing before
    the spectra and the trace of a witness.  The stored number (the
    residual, the value) is checked last, against the re-derived one.
    """
    nm = d.total
    eye = np.eye(nm)
    scale = 1 + frob(x)
    if isinstance(cert, Decomposition):
        a, b, res = cert.a, cert.b, cert.residual
        # a - shift I has least eigenvalue -1e-4 scale, far past the band
        shift = np.linalg.eigvalsh(a)[0] + 1e-4 * scale
        yield "a shifted past the band", x, Decomposition(a - shift * eye, b, res), "decomposition residual"
        yield "b perturbed off the residual", x, Decomposition(a, b + shift * eye, res), "decomposition residual"
        # PT(I) = I, so the sum and the residual stay; a is no longer PSD
        yield "shift moved from a to b", x, Decomposition(a - shift * eye, b + shift * eye, res), \
            "decomposition part not PSD"
        yield "residual stale", x, Decomposition(a, b, res + 1e-4 * scale), \
            "decomposition residual does not re-derive"
        return
    w, value = cert.w, cert.value
    yield "w negated", x, FWitness(-w, value), "witness inside the band"
    yield "w negated against -x", -x, FWitness(-w, value), "witness not PPT"
    yield "w scaled by 1.1", x, FWitness(1.1 * w, value), "witness trace"
    yield "value stale", x, FWitness(w, value - 1e-4 * scale), "witness value does not re-derive"
    # Tr w = 1, so x + s I pairs with w to value + s: here -5 tol scale, inside the band
    s = -value - 5 * TOL * (1 + frob(x - value * eye))
    yield "x shifted into the band", x + s * eye, cert, "witness inside the band"
    yield "x shifted past zero", x - 2 * value * eye, cert, "witness inside the band"


def test_mutated_certificates_fail_problem(corpus_verdicts):
    for d, x, _, v in corpus_verdicts:
        assert v.certificate.problem(x, d, TOL) is None
        for label, xm, cert, reason in _mutations(d, x, v.certificate):
            assert cert.problem(xm, d, TOL) == reason, label


def _load_certs():
    """``perfbench/certs.py``, loaded by path; it imports nothing from mapcones."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "certs.py"
    text = path.read_text()
    assert "import mapcones" not in text and "from mapcones" not in text
    spec = importlib.util.spec_from_file_location("perfbench_certs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_problem_agrees_with_the_benchmark_validator(corpus_verdicts):
    # certs.f_witness accepts a value in the band by design, so only witness
    # values at least 100 tol scale from the band take part; the unmutated
    # decompositions sit at the IN edge, where both validators read
    # -tol scale (certs adds 1e-12 scale to the residual's).  The stale
    # residual stays out: certs.decomposition re-derives the residual and
    # never reads the stored one
    certs = _load_certs()
    skipped = 0
    for d, x, _, v in corpus_verdicts:
        mutations = _mutations(d, x, v.certificate)
        cases = [(x, v.certificate), *((xm, cert) for label, xm, cert, _ in mutations if label != "residual stale")]
        for xm, cert in cases:
            if isinstance(cert, FWitness):
                value, s = np.trace(cert.w @ xm).real, TOL * (1 + frob(xm))
                if -110 * s < value < 99 * s:
                    skipped += 1
                    continue
                independent = certs.f_witness(xm, d.n, d.m, cert)
            else:
                independent = certs.decomposition(xm, d.n, d.m, cert)
            assert (cert.problem(xm, d, TOL) is None) == (independent is None), (d, independent)
    # only the shifts into the band, one per witness
    assert skipped == sum(v.status is Status.OUT for *_, v in corpus_verdicts)
