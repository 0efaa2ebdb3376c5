"""A primal-dual interior-point solver for the margin of the ``e`` cone.

For a Hermitian x on C^n (x) C^m the semidefinite program

    lam* = min { Tr(x X1) : X1, X2 PSD, Tr X1 = 1, PT(X1) = X2 }
         = max { y0 : Z1 = x - y0 I - PT(Y) PSD, Z2 = Y PSD }

is the first level of the Doherty-Parrilo-Spedalieri hierarchy.  The
primal minimizes over trace-one PPT operators; the dual says that
x - lam* I = Z1 + PT(Y) lies in the cone E = {A + PT(B) : A, B PSD}.  So x
is in E exactly when lam* >= 0, and a trace-one PPT X1 with
Tr(x X1) < 0 is a witness that it is not.

The solver keeps both iterates feasible: X1 has trace one and X2 is
PT(X1), and Z1 is recomputed from (y0, Y).  So every iterate brackets
the optimum, y0 + lambda_min(Z1) <= lam* <= Tr(x X1), the lower end
being the largest y0 that Y admits, and ``solve`` stops as soon as the
bracket settles the sign (or closes).  Steps follow the HKM direction
with Mehrotra's predictor-corrector (Helmberg, Rendl, Vanderbei and
Wolkowicz 1996), and a step ends on its predictor iterate, without a
corrector, when the bracket there already stops the solve.  Each
Newton system has (nm)^2 + 1 real unknowns, the coordinates of
(dy0, dY) in an orthonormal Hermitian basis.  The first step starts at
X1 = X2 = I/nm, Y = tI, where the system is diagonal in the eigenbasis
of Z1 and is solved in closed form from one nm x nm ``eigh``.  From the
second step on, the Schur matrix is assembled from Kronecker-structured
entries of the iterates, in row blocks of whole pairs of basis rows
(2nm rows, merged while a block holds at most 8192 entries), each block
only from its own columns onward, the strict lower block triangle being
the transpose of the upper one.  The index work for each ``Dims`` is one
flat index per quadrant of a block and per PSD block, computed once and
cached, about 1.1 times the size of the matrix from 4x4 on; the change
of basis is taken as real combinations of the gathered entries, rounded
as the two ``_rotate`` passes round them.  The matrix is solved exactly
with ``np.linalg.solve``, twice per step or once when the step ends on
its predictor: O((nm)^6) flops for each solve, O((nm)^4) memory for the
matrix, its LU copy and the cached plan, and a workspace of a few
complex temporaries of one block beyond them.  The four Cholesky factors
of a step are taken in one stacked call, and so are the four eigenvalue
problems of each step length, which keeps every iterate strictly inside
the cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .linalg import Dims, Status, classify, hermitian_part, partial_transpose

__all__ = ["Bracket", "solve"]

#: fraction of the largest feasible step taken
_STEP = 0.95
#: 1 / sqrt 2, the weight of each unit in an off-diagonal basis element
_RSQRT2 = 0.5**0.5
#: a step shorter than this (in both spaces) is a breakdown
_MIN_STEP = 1e-8
#: Newton steps in a row that may fail to halve the best gap before a breakdown
_SLOW_STEPS = 2
#: pair row blocks of the Schur matrix are merged while they hold at most this many entries
_BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class Bracket:
    """Final iterate of ``solve`` and the bounds it certifies.

    ``lower`` is the largest y0 that the PSD ``y`` admits: x - lower I - PT(y)
    is PSD, being Z1 - lambda_min(Z1) I for the final dual iterate
    x = Z1 + y0 I + PT(y).  ``upper`` is Tr(x w) for the trace-one PPT
    operator ``w``; lower <= lam* <= upper.
    ``iterations`` counts the Newton steps and ``solves`` the dense Schur
    solves they made.  ``stop`` is ``"in"``, ``"out"``, ``"gap"`` or
    ``"breakdown"``.
    """

    lower: float
    upper: float
    y: np.ndarray
    w: np.ndarray
    iterations: int
    solves: int
    stop: str


def _rotate(y: np.ndarray, sign: int) -> np.ndarray:
    """Q^H y (sign -1) or Q^T y (sign 1) on rows that hold |a><b| and |b><a| in turn.

    Each pair of rows becomes the pair for (|a><b| + |b><a|)/sqrt 2 and
    i(|a><b| - |b><a|)/sqrt 2, the columns of Q.
    """
    u, l = y[0::2], y[1::2]
    out = np.empty_like(y)
    out[0::2] = (u + l) * _RSQRT2
    out[1::2] = (u - l) * (sign * 1j * _RSQRT2)
    return out


class _Plan(NamedTuple):
    """The index work of ``_Schur`` that depends on the dimensions alone.

    ``units`` lists the matrix units of the basis.  Each index array holds
    flat positions of entries X[p_i, p_j] in the stack (X1, X2), with axes
    (PSD block, quadrant, row, column) and its quadrants in partner order:
    ``diag`` holds the diagonal-unit rows against the diagonal columns (one
    quadrant) and against the pair columns (u, l), and ``pairs`` the row
    blocks ``(lo, hi, index)`` of whole pairs against the columns from
    ``lo`` on, by pair (uu, ul, lu, ll).  The matrix is mirrored below its
    block diagonal at ``bounds``.
    """

    units: np.ndarray
    diag: tuple[np.ndarray, np.ndarray]
    pairs: tuple[tuple[int, int, np.ndarray], ...]
    bounds: tuple[int, ...]


@lru_cache(maxsize=None)
def _plan(d: Dims) -> _Plan:
    """The ``_Plan`` of ``d``, built once; its arrays are read-only.

    The two units of a pair are each other's transposes, as units in
    block 2 and as PT-relabelled units in block 1 (PT commutes with the
    transpose).  So unit i = |p_i><q_i| has q_i = p_i' for its partner i'
    (i' = i for a diagonal unit), and W^T[q_i, q_j] sits in W^T where
    X[p_i', p_j'] sits in X: the quadrants of an index array, read in
    reverse order, index W^T.
    """
    nm = d.total
    a, b = np.triu_indices(nm, 1)
    units = np.concatenate((np.arange(nm) * (nm + 1), np.column_stack((a * nm + b, b * nm + a)).ravel()))
    pt = partial_transpose(np.arange(nm * nm).reshape(nm, nm), d).ravel()[units]
    p = np.stack((pt, units)) // nm  # unit i is |p_i><q_i|, relabelled in block 1
    row = (p + [[0], [nm]]) * nm  # the flat position of X[p_i, 0] in the stack

    def index(lo, hi, start, row_pairs):
        idx = row[:, lo:hi, None] + p[:, None, start:]  # (block, row, column)
        if row_pairs:  # rows and columns as (pair, u/l), then the quadrants first
            idx = idx.reshape(2, (hi - lo) // 2, 2, -1, 2).transpose(0, 2, 4, 1, 3).reshape(2, 4, (hi - lo) // 2, -1)
        else:  # columns as (pair, u/l), then u/l first
            idx = idx.reshape(2, hi - lo, -1, 2).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(idx)

    diag = ((row[:, :nm, None] + p[:, None, :nm])[:, None], index(0, nm, nm, False))
    # the diagonal units, then 2nm rows (nm whole pairs) at a time, those
    # merged while a block holds at most _BLOCK_ENTRIES entries of the matrix
    bounds = (0, *range(nm, nm * nm, 2 * nm), nm * nm)
    spans, lo, hi = [], nm, nm
    for end in bounds[2:]:
        if hi > lo and (end - lo) * (nm * nm - lo) > _BLOCK_ENTRIES:
            spans.append((lo, hi))
            lo = hi
        hi = end
    spans.append((lo, hi))
    pairs = tuple((lo, hi, index(lo, hi, lo, True)) for lo, hi in spans if hi > lo)
    for arr in (units, *diag, *(idx for _, _, idx in pairs)):
        arr.setflags(write=False)
    return _Plan(units, diag, pairs, bounds)


def _column_pass(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """(a_u + a_l) / sqrt 2 and (b_u - b_l) / sqrt 2 over the first (u/l) axis, into out.

    These are the real parts of ``_rotate``'s column pass, rounded as it
    rounds them, for a = Re s and b = Im s reversed on that axis.
    """
    np.add(a[0], a[1], out=out[0])
    np.subtract(b[0], b[1], out=out[1])
    out *= _RSQRT2


class _Schur:
    """The HKM Schur complement u -> A(sym(X A*(u) Z^-1)) at one iterate, assembled.

    The constraint map is A(X1, X2) = (Tr X1, PT(X1) - X2) and its adjoint
    A*(u0, U) = (u0 I + PT(U), -U).  Vectors are pairs (u0, U) with U
    Hermitian, held as u0 followed by the coordinates Re Tr(E_i U) of U in
    an orthonormal Hermitian basis: the units |a><a|, then
    (|a><b| + |b><a|)/sqrt 2 and i(|a><b| - |b><a|)/sqrt 2 in turn for
    each a < b.  Q has this basis as its columns, over the matrix units
    listed in ``units``.  The U block is Re(Q^H S Q), the real symmetric
    matrix of Re Tr(F_i X F_j W) summed over both PSD blocks, with
    W = Z^-1, F = PT(E) in block 1 and F = E in block 2.  S has the
    entries X[a, p] W[q, b] of U -> X U W between the units |a><b| and
    |p><q|, and PT maps |a1 a2><b1 b2| to |a1 b2><b1 a2|, so block 1 is
    the same formula read on relabelled units.

    Each row block of S is gathered with one flat index per factor from
    ``_plan``, and Re(Q^H S Q) is taken as real combinations of its
    entries, pair rows first, then pair columns, in the order and rounding
    of the two ``_rotate`` passes, so every entry equals theirs.
    """

    def __init__(self, x1, w1, x2, w2, d: Dims):
        nm = d.total
        self.nm = nm
        plan = _plan(d)
        self.units = plan.units
        full = self.full = np.empty((nm * nm + 1,) * 2)
        xw = x1 @ w1
        full[0, 0] = np.trace(xw).real
        full[0, 1:] = full[1:, 0] = self.coords(partial_transpose(xw, d))
        xs, wts = np.stack((x1, x2)).ravel(), np.stack((w1.T, w2.T)).ravel()

        def gather(index):
            # entry (i, j) of S is X[p_i, p_j] W^T[q_i, q_j], summed over the
            # two blocks.  Each product has two contiguous operands: numpy's
            # complex multiply may round strided ones differently.  A block's
            # temporaries stay below 128 KB up to 4x4, where a larger one
            # would cost the allocator fresh pages on every assembly.
            s = []
            for block in index:
                x, wt = xs[block], wts[block]
                for k in range(len(x)):
                    x[k] *= wt[-1 - k]
                s.append(x)
            return s[0] + s[1]

        dd, dp = plan.diag
        full[1 : nm + 1, 1 : nm + 1] = gather(dd)[0].real
        s = gather(dp)
        _column_pass(s.real, s.imag[::-1], full[1 : nm + 1, nm + 1 :].reshape(nm, -1, 2).transpose(2, 0, 1))
        for lo, hi, index in plan.pairs:
            s = gather(index)
            # the row pass: (s_u + s_l) / sqrt 2 and (s_u - s_l) (-i / sqrt 2)
            su, sd = s[:2] + s[2:], s[:2] - s[2:]
            su.view(np.float64)[...] *= _RSQRT2
            sd.view(np.float64)[...] *= _RSQRT2
            out = full[lo + 1 : hi + 1, lo + 1 :].reshape(s.shape[1], 2, -1, 2).transpose(1, 3, 0, 2)
            _column_pass(su.real, su.imag[::-1], out[0])
            _column_pass(sd.imag, sd.real, out[1])
        for lo, hi in zip(plan.bounds, plan.bounds[1:]):
            full[hi + 1 :, lo + 1 : hi + 1] = full[lo + 1 : hi + 1, hi + 1 :].T

    def coords(self, u: np.ndarray) -> np.ndarray:
        """The coordinates Re Tr(E_i u) of u in the basis."""
        v = u.ravel()[self.units]
        v[self.nm :] = _rotate(v[self.nm :], -1)
        return v.real

    def solve(self, b0: float, b: np.ndarray) -> tuple[float, np.ndarray]:
        """The exact solution (u0, U) of the Schur system with right-hand side (b0, b)."""
        nm = self.nm
        sol = np.linalg.solve(self.full, np.concatenate(([b0], self.coords(b))))
        v = sol[1:].astype(np.complex128)
        sym, asym = sol[nm + 1 :: 2], 1j * sol[nm + 2 :: 2]
        v[nm::2], v[nm + 1 :: 2] = (sym + asym) * _RSQRT2, (sym - asym) * _RSQRT2
        u = np.empty(nm * nm, dtype=np.complex128)
        u[self.units] = v
        return float(sol[0]), u.reshape(nm, nm)


class _Start:
    """The Schur system at the start X1 = X2 = I/nm, Y = tI, solved in closed form.

    There W2 = I/t, and with V = PT(U) and H1 = (u0 W1 + herm(V W1))/nm
    the system reads Tr H1 = b0 and H1 + V/(nm t) = PT(B).  In the
    eigenbasis E of Z1, with w = 1/eig(Z1), V~ = E^H V E and
    B~ = E^H PT(B) E, the second equation is entrywise
    u0 w_i [i = j] + D_ij V~_ij = nm B~_ij, D_ij = (w_i + w_j)/2 + 1/t,
    and the trace of H1 then fixes u0:
    u0 = nm t (b0 - sum_i r_i B~_ii) / sum_i r_i with r_i = w_i / D_ii.
    """

    def __init__(self, z1, t: float, d: Dims):
        lam, self.e = np.linalg.eigh(z1)
        self.w = 1.0 / lam
        self.den = (self.w[:, None] + self.w) / 2 + 1.0 / t
        self.t = t
        self.d = d

    def solve(self, b0: float, b: np.ndarray) -> tuple[float, np.ndarray]:
        """The solution (u0, U) of the Schur system with right-hand side (b0, b)."""
        e, w, den = self.e, self.w, self.den
        nm = len(w)
        bt = nm * (e.conj().T @ partial_transpose(b, self.d) @ e)
        r = w / np.diagonal(den)
        u0 = float(self.t * (nm * b0 - r @ np.diagonal(bt).real) / r.sum())
        bt[np.diag_indices(nm)] -= u0 * w
        return u0, partial_transpose(hermitian_part(e @ (bt / den) @ e.conj().T), self.d)


class _Point(NamedTuple):
    """An iterate of ``solve`` and the bracket lower <= lam* <= upper it certifies, for x / ||x||."""

    x1: np.ndarray
    y0: float
    y: np.ndarray
    z1: np.ndarray
    lower: float
    upper: float


def _point(xs, x1, y0, y, d: Dims) -> _Point:
    """The iterate (X1, y0, Y) with Z1 = xs - y0 I - PT(Y) and its bracket."""
    z1 = hermitian_part(xs - y0 * np.eye(len(x1)) - partial_transpose(y, d))
    return _Point(x1, y0, y, z1, y0 + float(np.linalg.eigvalsh(z1)[0]), float(np.trace(xs @ x1).real))


def solve(x: np.ndarray, d: Dims, tol: float, optimum: bool = False) -> Bracket:
    """Bracket lam* for a Hermitian x until its sign is settled.

    Every iterate (X1, y0, Y) certifies lower = y0 + lambda_min(Z1) <= lam*
    <= upper = Tr(x X1): x - lower I - PT(Y) = Z1 - lambda_min(Z1) I is
    PSD, so ``lower`` is the largest y0 that Y admits.  ``classify``
    reads each threshold at scale = 1 + ||x||_F.  The loop stops with

    * ``"in"`` once it puts sqrt(nm) * min(lower, 0) IN: the PSD pair
      (x - PT(Y) - min(lower, 0) I, Y) then decomposes x up to that
      residual;
    * ``"out"`` once it puts upper OUT and upper <= lower / 2, so that
      the witness is clear of the band and at least half as deep as the
      optimum (skipped when ``optimum`` is set);
    * ``"gap"`` once it puts -sqrt(nm) * (upper - lower) IN;
    * ``"breakdown"`` when a factorization fails, a direction is not
      finite, a step is too short, or three steps in a row leave the gap
      above half its best value (a stall near a degenerate optimum).

    The first three tests are also made on each step's predictor
    iterate, and a step ends there when one of them fires, without its
    corrector.  ``solves`` counts the dense Schur solves: 2 (k - 1) for
    k Newton steps, one fewer when the last step ends on its predictor.

    The dual points (lambda_min(x), 0) and (lambda_min(PT x),
    PT(x) - lambda_min(PT x) I) are feasible, so a PSD or co-PSD x stops
    with ``"in"`` before any step.

    The last rule (``_SLOW_STEPS``) is also what bounds the loop.  The
    first gap is below 4 in units of ||x||, and ``"gap"`` fires at the
    latest once it is below tol / sqrt(nm).  Unless the loop stops, every
    third step at the latest halves the best gap, so a solve takes fewer
    than 3 (log2(4 sqrt(nm) / tol) + 1) Newton steps: about 106 at
    tol = 1e-9 and nm = 25.
    """
    d = Dims(*d)
    nm = d.total
    root = np.sqrt(nm)
    norm = float(np.linalg.norm(x))
    scale = 1.0 + norm
    eye = np.eye(nm)
    pt_x = partial_transpose(x, d)
    # both spectra from one batched eigvalsh, each bit for bit its own call's
    lo_x, lo_pt = np.linalg.eigvalsh(np.array([x, pt_x]))[:, 0].tolist()
    w = eye / nm
    upper = float(np.trace(x).real) / nm
    if classify(max(lo_x, lo_pt) * root, scale, tol) is Status.IN:
        if lo_x >= lo_pt:
            return Bracket(lo_x, upper, np.zeros_like(x), w, 0, 0, "in")
        return Bracket(lo_pt, upper, pt_x - lo_pt * eye, w, 0, 0, "in")

    # work on x / ||x||: every quantity below is of order one
    xs = x / norm
    t = 1.0 / root
    point = _point(xs, w.astype(np.complex128), lo_x / norm - 2 * t, t * eye.astype(np.complex128), d)

    # the bracket is in units of ||x||; ``classify`` reads it back in x's units
    def settled(p: _Point) -> Optional[str]:
        if classify(root * norm * min(p.lower, 0.0), scale, tol) is Status.IN:
            return "in"
        if not optimum and classify(norm * p.upper, scale, tol) is Status.OUT and p.upper <= p.lower / 2:
            return "out"
        if classify(-root * norm * (p.upper - p.lower), scale, tol) is Status.IN:
            return "gap"
        return None

    it = solves = 0
    best, slow = np.inf, 0
    while True:
        stop = settled(point)
        if stop:
            break
        gap = point.upper - point.lower
        best, slow = (gap, 0) if gap <= best / 2 else (best, slow + 1)
        if slow > _SLOW_STEPS:
            stop = "breakdown"
            break
        it += 1
        try:
            step = _newton_step(xs, point, d, settled, _Start(point.z1, t, d) if it == 1 else None)
        except np.linalg.LinAlgError:
            stop = "breakdown"
            break
        if step is None:
            stop = "breakdown"
            break
        point, made = step
        solves += made
    x1 = point.x1
    return Bracket(float(point.lower * norm), float(np.trace(x @ x1).real), point.y * norm, x1, it, solves, stop)


def _newton_step(xs, point: _Point, d: Dims, settled, schur=None):
    """One Mehrotra predictor-corrector step: the next point and the dense solves it made.

    None when a direction is not finite or the corrector's step is too
    short.  The step ends on its predictor iterate, one solve early, when
    that iterate passes the same checks and ``settled`` stops the loop
    there.  ``schur`` solves the step's Schur system; by default it is
    assembled, and only then are its solves dense.
    """
    x1, y0, y, z1 = point.x1, point.y0, point.y, point.z1
    nm = len(x1)
    eye = np.eye(nm)
    x2 = partial_transpose(x1, d)
    dense = int(schur is None)
    # inverse Cholesky factors of x1, x2, z1 and y; LinAlgError unless all are positive definite
    linv = np.linalg.inv(np.linalg.cholesky(np.stack((x1, x2, z1, y))))
    linv_h = linv.conj().swapaxes(-1, -2)
    w1, w2 = linv_h[2] @ linv[2], linv_h[3] @ linv[3]
    mu = float(np.trace(x1 @ z1).real + np.trace(x2 @ y).real) / (2 * nm)
    if schur is None:
        schur = _Schur(x1, w1, x2, w2, d)

    def direction(g1, g2):
        b = g2 - partial_transpose(g1, d)
        u0, u = schur.solve(1.0 - float(np.trace(g1).real), b)
        dz1 = -(u0 * eye + partial_transpose(u, d))
        dx1 = g1 - x1 - hermitian_part(x1 @ dz1 @ w1)
        return u0, u, dx1, dz1

    def lengths(dx1, dx2, dz1, du):
        # the largest alpha with Z + alpha dZ PSD is -1 / lambda_min(L^-1 dZ L^-H) when that is negative
        lo = np.linalg.eigvalsh(linv @ np.stack((dx1, dx2, dz1, du)) @ linv_h)[:, 0].tolist()
        top = [np.inf if v >= 0.0 else -1.0 / v for v in lo]
        return min(1.0, _STEP * min(top[:2])), min(1.0, _STEP * min(top[2:]))

    def advance(ap, ad, u0, u, dx1):
        x1n = hermitian_part(x1 + ap * dx1)
        x1n /= np.trace(x1n).real
        return _point(xs, x1n, y0 + ad * u0, hermitian_part(y + ad * u), d)

    zero = np.zeros_like(x1)
    u0, u, dx1, dz1 = direction(zero, zero)
    if not (np.all(np.isfinite(dx1)) and np.all(np.isfinite(dz1))):
        return None
    dx2 = partial_transpose(dx1, d)
    ap, ad = lengths(dx1, dx2, dz1, u)
    if max(ap, ad) >= _MIN_STEP:
        predictor = advance(ap, ad, u0, u, dx1)
        if settled(predictor):
            return predictor, dense
    mu_aff = float(
        np.trace((x1 + ap * dx1) @ (z1 + ad * dz1)).real + np.trace((x2 + ap * dx2) @ (y + ad * u)).real
    ) / (2 * nm)
    sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3
    g1 = hermitian_part((sigma * mu * eye - dx1 @ dz1) @ w1)
    g2 = hermitian_part((sigma * mu * eye - dx2 @ u) @ w2)
    u0, u, dx1, dz1 = direction(g1, g2)
    if not (np.all(np.isfinite(dx1)) and np.all(np.isfinite(dz1))):
        return None
    ap, ad = lengths(dx1, partial_transpose(dx1, d), dz1, u)
    if max(ap, ad) < _MIN_STEP:
        return None
    return advance(ap, ad, u0, u, dx1), 2 * dense
