"""Membership oracles for cones of maps and of bipartite operators.

Map cones (acting on ``MapRep``):

* ``cp``   completely positive: Choi matrix PSD
* ``cop``  copositive: partially transposed Choi matrix PSD
* ``p``    both of the above (the PPT-state cone of maps)
* ``d``    decomposable: a sum of a cp map and a cop map
* ``s``    entanglement breaking: separable Choi matrix
* ``pos``  positive: block-positive Choi matrix (heuristic IN only)

Operator cones (acting on arrays with declared ``Dims``):

* ``psd``       positive semidefinite
* ``f``         PSD with PSD partial transpose (unnormalized PPT cone)
* ``e``         sums A + PT(B) with A, B PSD (the dual cone of ``f``)
* ``sep``       separable
* ``blockpos``  block-positive (heuristic IN only)

Verdicts are IN / OUT / UNDECIDED.  Every OUT carries a certificate that
re-validates independently of the search that produced it: an eigenvector
of a negative eigenvalue, a trace-one PPT witness w with Tr(w x) < 0, or
a product vector pair.  IN verdicts carry certificates where the cone
admits them (decompositions, spectra, separable mixtures).  Memberships
that cannot be certified either way within the iteration budget come
back UNDECIDED rather than forced; values within ten times the tolerance
of a decision threshold are treated as boundary cases.

The ``e`` cone is an intersection of a product PSD cone with an affine
subspace whose projections are closed-form; membership is a feasibility
question, answered by plain alternating projections between the two
(``dykstra_feasibility``, a name kept for API stability).  When the
problem is infeasible the limiting gap between the two sets is itself
(up to sign and scale) a PPT witness, which seeds the
projected-subgradient witness search.  The ``f`` cone is an intersection
of two spectrally projectable cones; ``project_F`` needs the nearest
point of it and so uses Dykstra's scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import fixtures
from .choi import (
    MapRep,
    adjoint,
    apply_second,
    omega_eval,
)
from .linalg import (
    Dims,
    as_operator,
    check_hermitian,
    eig_hermitian,
    frob,
    hermitian_part,
    is_psd,
    partial_trace,
    partial_transpose,
    trace_pairing,
)

__all__ = [
    "Status",
    "ConeId",
    "Verdict",
    "DykstraConfig",
    "MinEigCert",
    "PptSpectra",
    "Decomposition",
    "FWitness",
    "ProductVectorCert",
    "SeparableDecomposition",
    "FeasibilityResult",
    "psd_project",
    "is_cp",
    "is_cop",
    "in_P",
    "in_F",
    "is_ppt_state",
    "dykstra_feasibility",
    "project_F",
    "in_E",
    "is_decomposable",
    "witness_search",
    "is_separable",
    "in_S",
    "is_block_positive",
    "is_positive_map",
    "pm_k_membership",
]


class Status(Enum):
    IN = "IN"
    OUT = "OUT"
    UNDECIDED = "UNDECIDED"


class ConeId(Enum):
    """Tags for the map cones and operator cones handled by this module."""

    MAP_CP = "cp"
    MAP_COP = "cop"
    MAP_P = "p"
    MAP_D = "d"
    MAP_S = "s"
    MAP_POS = "pos"
    OP_PSD = "psd"
    OP_F = "f"
    OP_E = "e"
    OP_SEP = "sep"
    OP_BLOCKPOS = "blockpos"

    @property
    def is_map_cone(self) -> bool:
        return self.name.startswith("MAP_")


@dataclass(frozen=True)
class MinEigCert:
    """A negative-eigenvalue certificate: value and unit eigenvector."""

    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class PptSpectra:
    """Minimum eigenvalues of an operator and of its partial transpose."""

    min_eig: float
    min_eig_pt: float


@dataclass(frozen=True)
class Decomposition:
    """A decomposition x ~ a + PT(b) with a, b PSD and the residual norm."""

    a: np.ndarray
    b: np.ndarray
    residual: float


@dataclass(frozen=True)
class FWitness:
    """A trace-one PPT operator w with Tr(w x) = value < 0."""

    w: np.ndarray
    value: float


@dataclass(frozen=True)
class ProductVectorCert:
    """Unit vectors xi, eta with <xi (x) eta| x |xi (x) eta> = value."""

    xi: np.ndarray
    eta: np.ndarray
    value: float


@dataclass(frozen=True)
class SeparableDecomposition:
    """Nonnegative combination of product states reproducing a state."""

    weights: np.ndarray
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: object = None
    heuristic: bool = False
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status is Status.IN


@dataclass(frozen=True)
class DykstraConfig:
    """Iteration policy for the alternating-projection engines.

    Used by the plain alternating projections of ``dykstra_feasibility``
    and by Dykstra's scheme in ``project_F``; the name is kept for API
    stability.  ``tol`` is relative (thresholds scale with 1 + ||x||_F);
    ``stall_window`` is the number of iterations without relative residual
    improvement after which a feasibility run stops and reports its gap
    estimate.
    """

    tol: float = 1e-9
    max_iters: int = 20000
    stall_window: int = 500

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters <= 0 or self.stall_window <= 0:
            raise ValueError(f"invalid config {self}")


def psd_project(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    h = hermitian_part(x)
    w, u = np.linalg.eigh(h)
    if w[0] >= 0.0:
        return h
    w = np.maximum(w, 0.0)
    return (u * w) @ u.conj().T


def _min_eig_cert(x: np.ndarray, tol: float) -> tuple[bool, MinEigCert]:
    spectrum = eig_hermitian(x, tol)
    lo = float(spectrum.eigenvalues[-1])
    ok = lo >= -tol * (1.0 + frob(x))
    return ok, MinEigCert(lo, spectrum.eigenvectors[:, -1].copy())


# ---------------------------------------------------------------------------
# spectral cones
# ---------------------------------------------------------------------------


def is_cp(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Complete positivity: the Choi matrix is PSD."""
    c = phi.hermitian_choi(tol)
    ok, cert = _min_eig_cert(c, tol)
    if ok:
        return Verdict(Status.IN, cert, info={"min_eig": cert.value})
    return Verdict(Status.OUT, cert, info={"min_eig": cert.value})


def is_cop(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Copositivity: the partially transposed Choi matrix is PSD."""
    c = phi.hermitian_choi(tol)
    ok, cert = _min_eig_cert(partial_transpose(c, phi.d), tol)
    status = Status.IN if ok else Status.OUT
    return Verdict(status, cert, info={"min_eig_pt": cert.value})


def in_P(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Membership in the cone of maps that are both cp and cop."""
    v_cp = is_cp(phi, tol)
    if v_cp.status is Status.OUT:
        return Verdict(Status.OUT, v_cp.certificate, info={"failed": "cp", **v_cp.info})
    v_cop = is_cop(phi, tol)
    if v_cop.status is Status.OUT:
        return Verdict(Status.OUT, v_cop.certificate, info={"failed": "cop", **v_cop.info})
    spectra = PptSpectra(v_cp.info["min_eig"], v_cop.info["min_eig_pt"])
    return Verdict(Status.IN, spectra)


def in_F(x: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """The PPT cone: x PSD and PT(x) PSD."""
    x = check_hermitian(as_operator(x), tol)
    ok1, c1 = _min_eig_cert(x, tol)
    ok2, c2 = _min_eig_cert(partial_transpose(x, Dims(*d)), tol)
    spectra = PptSpectra(c1.value, c2.value)
    if ok1 and ok2:
        return Verdict(Status.IN, spectra)
    cert = c1 if not ok1 else c2
    return Verdict(Status.OUT, cert, info={"spectra": spectra})


def is_ppt_state(rho: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """PPT test for a density operator (trace must equal 1 within 1e-9)."""
    rho = as_operator(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"not a density operator: trace = {tr}")
    return in_F(rho, d, tol)


# ---------------------------------------------------------------------------
# alternating-projection feasibility for the decomposable-operator cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the split-feasibility run for x ~ A + PT(B), A, B PSD.

    ``stop`` says why the run ended: ``"converged"`` (residual within
    tolerance), ``"stalled"`` (no relative improvement over a stall
    window) or ``"max_iters"`` (iteration budget spent).  ``gap`` is an
    estimate of the limiting separation direction when the problem looks
    infeasible; negated and normalized it is a PPT witness candidate.
    ``gap`` is None when the run converged or ran out of iterations
    within ten times the tolerance.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float
    iterations: int
    converged: bool
    gap: Optional[np.ndarray] = None
    stop: str = "converged"


def dykstra_feasibility(x: np.ndarray, d: Dims, cfg: DykstraConfig = DykstraConfig()) -> FeasibilityResult:
    """Search for A, B PSD with A + PT(B) = x by alternating projections.

    Plain alternating projections (no Dykstra corrections) between the
    affine set {(A, B): A + PT(B) = x} and the product cone PSD x PSD:
    membership needs some point of the intersection, not the nearest one.
    The name is kept for API stability; ``project_F``, which does need
    the nearest point, still uses Dykstra's scheme.

    When the run stalls or exhausts its budget, the last difference
    between the affine point and its cone projection has the form
    (w, PT(w)) with w and PT(w) negative semidefinite and Tr(w x) > 0;
    it is returned as the gap direction.
    """
    d = Dims(*d)
    x = hermitian_part(as_operator(x))
    scale = 1.0 + frob(x)
    a = psd_project(x)
    b = np.zeros_like(x)
    r = x - a

    best = np.inf
    window_best = np.inf
    stop = "max_iters"
    for it in range(1, cfg.max_iters + 1):
        a_aff = a + r / 2
        b_aff = b + partial_transpose(r, d) / 2
        a = psd_project(a_aff)
        b = psd_project(b_aff)
        r = x - a - partial_transpose(b, d)
        res = frob(r)
        best = min(best, res)
        if res <= cfg.tol * scale:
            return FeasibilityResult(a, b, res, it, True)
        if it % cfg.stall_window == 0:
            if best > 0.99 * window_best:
                stop = "stalled"
                break
            window_best = best
    if stop == "max_iters" and best <= 10 * cfg.tol * scale:
        # ran out of iterations while still improving slowly
        return FeasibilityResult(a, b, best, it, False, stop=stop)

    w = hermitian_part(((a_aff - a) + partial_transpose(b_aff - b, d)) / 2)
    gap = None if frob(w) <= 1e-14 * scale else w
    return FeasibilityResult(a, b, res, it, False, gap, stop)


def _pt_psd_project(x: np.ndarray, d: Dims) -> np.ndarray:
    return partial_transpose(psd_project(partial_transpose(x, d)), d)


def project_F(x: np.ndarray, d: Dims, cfg: DykstraConfig = DykstraConfig()) -> np.ndarray:
    """Nearest point of the PPT cone, by Dykstra between its two halves."""
    d = Dims(*d)
    y = hermitian_part(as_operator(x))
    scale = 1.0 + frob(y)
    p1 = np.zeros_like(y)
    p2 = np.zeros_like(y)
    for it in range(1, cfg.max_iters + 1):
        t1 = y + p1
        y1 = psd_project(t1)
        p1 = t1 - y1
        t2 = y1 + p2
        y2 = _pt_psd_project(t2, d)
        p2 = t2 - y2
        gap = frob(y1 - y2)
        y = y2
        if gap <= 0.1 * cfg.tol * scale:
            lo = float(np.linalg.eigvalsh(hermitian_part(y))[0])
            if lo >= -cfg.tol * (1.0 + frob(y)):
                return hermitian_part(y)
    raise RuntimeError(
        f"projection onto the PPT cone did not converge in {cfg.max_iters} iterations"
    )


def _project_f_trace(y: np.ndarray, d: Dims, cycles: int, target_trace: float = 1.0) -> np.ndarray:
    """Approximate projection onto the PPT cone intersected with a trace plane."""
    nm = y.shape[0]
    eye = np.eye(nm)
    p1 = np.zeros_like(y)
    p2 = np.zeros_like(y)
    for _ in range(cycles):
        t1 = y + p1
        y1 = psd_project(t1)
        p1 = t1 - y1
        t2 = y1 + p2
        y2 = _pt_psd_project(t2, d)
        p2 = t2 - y2
        y = y2 + (target_trace - float(np.trace(y2).real)) / nm * eye
    return y


def witness_search(
    x: np.ndarray,
    d: Dims,
    cfg: DykstraConfig = DykstraConfig(),
    restarts: int = 3,
    seed: int = 0,
    feasibility: Optional[FeasibilityResult] = None,
) -> Optional[FWitness]:
    """Search for a trace-one PPT operator w with Tr(w x) < -tol * scale.

    Minimizes the linear functional w -> Tr(x w) over the compact set
    {w PPT, Tr w = 1} by projected subgradient descent with diminishing
    steps.  Starting points: the negated gap direction of a feasibility
    run (when the decomposition problem looks infeasible), the projected
    negative of x, and seeded random Hermitian directions.  The best
    iterate is re-projected at tight tolerance and returned only if its
    certificate re-validates; absence of a witness is a legitimate
    outcome, not an error.
    """
    d = Dims(*d)
    x = check_hermitian(as_operator(x), cfg.tol)
    scale = 1.0 + frob(x)
    nm = d.total
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x57F1)))

    inits: list[np.ndarray] = []
    feas = feasibility
    if feas is None:
        probe_cfg = replace(cfg, max_iters=min(cfg.max_iters, 3000))
        feas = dykstra_feasibility(x, d, probe_cfg)
    if feas.gap is not None:
        inits.append(-feas.gap)
    inits.append(-x)
    while len(inits) < max(restarts, 1) + 1:
        g = rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm))
        inits.append(hermitian_part(g))

    grad_scale = max(frob(x), 1e-12)
    best_w = None
    best_val = np.inf
    iters = max(200, min(cfg.max_iters // 10, 1200))
    cycles = 5
    if feas.converged:
        # a converged decomposition rules out any valid witness: run a
        # short confirmation sweep only (a wrong candidate cannot pass the
        # certificate validation below, so shortening loses nothing)
        iters = 60
        inits = inits[:1]
        cycles = 4
    clear_cut = -max(1e3 * cfg.tol * scale, 1e-4 * scale)
    for w0 in inits[: max(restarts, 1) + 1]:
        w = _project_f_trace(hermitian_part(w0), d, cycles=12)
        local_best = np.inf
        since_improve = 0
        for k in range(1, iters + 1):
            val = float(trace_pairing(w, x).real)
            if val < local_best - 1e-15 * scale:
                local_best = val
                since_improve = 0
                if val < best_val:
                    best_val = val
                    best_w = w.copy()
            else:
                since_improve += 1
            # clear violations do not need further polishing here; the
            # final tight projection below settles the certificate
            if best_val < clear_cut and k >= 25:
                break
            if since_improve > 200:
                break
            step = 0.7 / (grad_scale * np.sqrt(k))
            w = _project_f_trace(w - step * x, d, cycles=cycles)
        if best_val < clear_cut:
            break

    if best_w is None or best_val >= -0.5 * cfg.tol * scale:
        return None
    w = _project_f_trace(best_w, d, cycles=300)
    w = hermitian_part(w + (1.0 - float(np.trace(w).real)) / nm * np.eye(nm))
    # feasibility repair: optimal points sit on the cone boundary, where
    # the projection leaves eigenvalues a hair negative; mixing with the
    # maximally mixed state clears them at negligible cost in the value
    lo = float(np.linalg.eigvalsh(w)[0])
    lo_pt = float(np.linalg.eigvalsh(partial_transpose(w, d))[0])
    worst = min(lo, lo_pt, 0.0)
    if worst < 0.0:
        theta = min(-worst * nm / (1.0 - worst * nm), 0.01)
        w = hermitian_part((1.0 - theta) * w + theta * np.eye(nm) / nm)
        lo = float(np.linalg.eigvalsh(w)[0])
        lo_pt = float(np.linalg.eigvalsh(partial_transpose(w, d))[0])
    value = float(trace_pairing(w, x).real)
    if value >= -cfg.tol * scale:
        return None
    wtol = cfg.tol * (1.0 + frob(w))
    if lo < -wtol or lo_pt < -wtol or abs(float(np.trace(w).real) - 1.0) > 1e-9:
        return None
    return FWitness(w, value)


def in_E(
    x: np.ndarray,
    d: Dims,
    cfg: DykstraConfig = DykstraConfig(),
    restarts: int = 3,
    seed: int = 0,
) -> Verdict:
    """Membership in the cone of sums A + PT(B) with A, B PSD.

    IN comes with the decomposition, OUT with a PPT witness w such that
    Tr(w x) < 0, and boundary or exhausted runs come back UNDECIDED.
    ``info`` carries the feasibility run's residual, iterations and stop
    reason on every status.
    """
    d = Dims(*d)
    x = check_hermitian(as_operator(x), cfg.tol)
    scale = 1.0 + frob(x)
    feas = dykstra_feasibility(x, d, cfg)
    info = {"residual": feas.residual, "iterations": feas.iterations, "stop": feas.stop}
    if feas.converged and feas.residual <= cfg.tol * scale:
        cert = Decomposition(feas.a, feas.b, feas.residual)
        return Verdict(Status.IN, cert, info=info)
    wit = witness_search(x, d, cfg, restarts=restarts, seed=seed, feasibility=feas)
    if wit is not None and wit.value <= -10 * cfg.tol * scale:
        return Verdict(Status.OUT, wit, info=info)
    info["witness_value"] = None if wit is None else wit.value
    return Verdict(Status.UNDECIDED, info=info)


def is_decomposable(
    phi: MapRep,
    cfg: DykstraConfig = DykstraConfig(),
    restarts: int = 3,
    seed: int = 0,
) -> Verdict:
    """Decomposability of a map: its Choi matrix lies in the ``e`` cone.

    An OUT verdict reports, alongside the witness w, the violation value
    Tr(C w), which for square dimensions equals n times the maximally
    entangled state applied to (id (x) phi*)(w).
    """
    c = phi.hermitian_choi(cfg.tol)
    v = in_E(c, phi.d, cfg, restarts=restarts, seed=seed)
    if v.status is Status.OUT and isinstance(v.certificate, FWitness):
        info = dict(v.info)
        info["violation"] = v.certificate.value
        if phi.n == phi.m:
            y = apply_second(adjoint(phi), v.certificate.w, phi.d)
            info["violation_omega"] = phi.n * omega_eval(y, phi.n, tol=1e-6)
        return Verdict(Status.OUT, v.certificate, info=info)
    return v


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

_EXACT_PPT_DIMS = {(2, 2), (2, 3)}


def _swap_factors(x: np.ndarray, d: Dims) -> np.ndarray:
    n, m = d
    return x.reshape(n, m, n, m).transpose(1, 0, 3, 2).reshape(n * m, n * m)


def _product_candidates(rho: np.ndarray, d: Dims, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Candidate pure product factors for a separable decomposition."""
    n, m = d
    left = partial_trace(rho, d, 2)
    right = partial_trace(rho, d, 1)
    lv = np.linalg.eigh(hermitian_part(left))[1]
    rv = np.linalg.eigh(hermitian_part(right))[1]

    def units(dim):
        return [np.eye(dim, dtype=np.complex128)[:, [k]] for k in range(dim)]

    lefts = [lv[:, [k]] for k in range(n)] + units(n)
    rights = [rv[:, [k]] for k in range(m)] + units(m)
    # phase combinations capture off-diagonal coherences of the marginals
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
    extra = 4 * (n * m) ** 2 - len(pairs)
    for _ in range(max(extra, 0)):
        a = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        b = rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1))
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return pairs


def _decomposition_fit(rho: np.ndarray, d: Dims, tol: float, rng: np.random.Generator) -> Optional[SeparableDecomposition]:
    """Nonnegative least-squares fit of rho by sampled product states."""
    from scipy.optimize import nnls

    pairs = _product_candidates(rho, d, rng)
    cols = []
    for a, b in pairs:
        pa = a @ a.conj().T
        pb = b @ b.conj().T
        v = np.kron(pa, pb).ravel()
        cols.append(np.concatenate([v.real, v.imag]))
    mat = np.array(cols).T
    target = np.concatenate([rho.ravel().real, rho.ravel().imag])
    try:
        weights, rnorm = nnls(mat, target, maxiter=10 * mat.shape[1])
    except RuntimeError:
        return None
    if rnorm > tol * (1.0 + frob(rho)):
        return None
    keep = weights > 1e-14
    return SeparableDecomposition(
        weights=weights[keep],
        left=tuple(a @ a.conj().T for (a, _), k in zip(pairs, keep) if k),
        right=tuple(b @ b.conj().T for (_, b), k in zip(pairs, keep) if k),
        residual=float(rnorm),
    )


def _positive_map_detection(rho: np.ndarray, d: Dims, tol: float) -> Optional[tuple[np.ndarray, float]]:
    """Try the shipped non-decomposable map as an entanglement detector.

    Returns a block-positive witness W and Tr(W rho) < 0 when the map,
    applied to either factor of dimension 3, breaks positivity.
    """
    n, m = d
    candidates = []
    if m == 3:
        candidates.append((rho, Dims(n, 3), False))
    if n == 3:
        candidates.append((_swap_factors(rho, d), Dims(m, 3), True))
    lam = fixtures.nondecomposable_map()
    for mat, dd, swapped in candidates:
        y = hermitian_part(apply_second(lam, mat, dd))
        w_eig, u = np.linalg.eigh(y)
        if w_eig[0] < -tol * (1.0 + frob(y)):
            v = u[:, [0]]
            wit = hermitian_part(apply_second(adjoint(lam), v @ v.conj().T, dd))
            if swapped:
                wit = _swap_factors(wit, Dims(dd.n, 3))
            return wit, float(w_eig[0])
    return None


def is_separable(rho: np.ndarray, d: Dims, tol: float = 1e-9, seed: int = 0) -> Verdict:
    """Separability of a density operator.

    At 2 (x) 2 and 2 (x) 3 the PPT condition is exact and decides the
    question.  Elsewhere: a failed PPT test is a certified OUT, a
    successful nonnegative product-state fit is a certified IN, a
    positive-map detection is a certified OUT, and anything else is
    UNDECIDED.
    """
    d = Dims(*d).validate()
    rho = as_operator(rho)
    if rho.shape != (d.total, d.total):
        raise ValueError(f"state shape {rho.shape} does not match dims {d}")
    rho = check_hermitian(rho, tol)
    ok, lo = is_psd(rho, tol)
    if not ok:
        raise ValueError(f"not a state: minimum eigenvalue {lo:.3e}")
    if abs(complex(np.trace(rho)) - 1.0) > 1e-9:
        raise ValueError(f"not a state: trace = {complex(np.trace(rho)):.12f}")

    ppt = in_F(rho, d, tol)
    if ppt.status is Status.OUT:
        return Verdict(Status.OUT, ppt.certificate, info=ppt.info)
    if tuple(sorted(d)) in _EXACT_PPT_DIMS:
        return Verdict(Status.IN, ppt.certificate, info={"regime": "ppt-exact"})

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5E9A)))
    dec = _decomposition_fit(rho, d, tol, rng)
    if dec is not None:
        return Verdict(Status.IN, dec)
    det = _positive_map_detection(rho, d, tol)
    if det is not None:
        wit, value = det
        return Verdict(Status.OUT, wit, info={"detection_value": value})
    return Verdict(Status.UNDECIDED, info={"ppt": "passed"})


def in_S(phi: MapRep, tol: float = 1e-9, seed: int = 0) -> Verdict:
    """Entanglement-breaking cone: the normalized Choi matrix is separable."""
    c = phi.hermitian_choi(tol)
    tr = float(np.trace(c).real)
    if tr <= tol:
        raise ValueError(f"Choi trace {tr:.3e} is not positive")
    return is_separable(c / tr, phi.d, tol, seed)


# ---------------------------------------------------------------------------
# block positivity (see-saw over product vectors)
# ---------------------------------------------------------------------------


def _seesaw_once(x4: np.ndarray, xi: np.ndarray, iters: int = 60) -> tuple[np.ndarray, np.ndarray, float]:
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


def is_block_positive(
    x: np.ndarray,
    d: Dims,
    restarts: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> Verdict:
    """Block positivity: <xi (x) eta| x |xi (x) eta> >= 0 for product vectors.

    See-saw minimization over product vectors: with one factor fixed the
    optimal other factor is a minimal eigenvector.  A negative value is a
    certified OUT; survival of all restarts is only a heuristic IN, since
    the problem has no efficient exact certificate in general.
    """
    d = Dims(*d)
    n, m = d
    x = check_hermitian(as_operator(x), tol)
    if x.shape != (d.total, d.total):
        raise ValueError(f"operator shape {x.shape} does not match dims {d}")
    scale = 1.0 + frob(x)
    x4 = x.reshape(n, m, n, m)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB10C)))

    best = np.inf
    best_pair = None
    for r in range(max(restarts, 1)):
        if r < n:
            xi = np.eye(n, dtype=np.complex128)[:, r]
        else:
            xi = rng.normal(size=n) + 1j * rng.normal(size=n)
            xi = xi / np.linalg.norm(xi)
        xi, eta, val = _seesaw_once(x4, xi)
        if val < best:
            best = val
            best_pair = (xi, eta)
        if best < -10 * tol * scale:
            break
    cert = ProductVectorCert(best_pair[0], best_pair[1], best)
    if best < -tol * scale:
        return Verdict(Status.OUT, cert, info={"restarts": restarts})
    return Verdict(Status.IN, cert, heuristic=True, info={"restarts": restarts, "best": best})


def is_positive_map(
    phi: MapRep,
    restarts: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> Verdict:
    """Positivity of a map, via block positivity of its Choi matrix.

    An OUT certificate (xi, eta) means the PSD input conj(xi) conj(xi)*
    is mapped to an operator with <eta| . |eta> < 0.
    """
    return is_block_positive(phi.hermitian_choi(tol), phi.d, restarts, tol, seed)


# ---------------------------------------------------------------------------
# sampled membership for generic map cones
# ---------------------------------------------------------------------------


def pm_k_membership(
    x: np.ndarray,
    d: Dims,
    k_samples: Sequence[MapRep],
    tol: float = 1e-9,
) -> Verdict:
    """Sampled test of (id (x) alpha)(x) >= 0 over the given cone samples.

    OUT with the violating sample index is exact; IN is only relative to
    the samples and flagged heuristic.
    """
    if len(k_samples) == 0:
        raise ValueError("need at least one cone sample")
    d = Dims(*d)
    x = check_hermitian(as_operator(x), tol)
    worst = np.inf
    for idx, alpha in enumerate(k_samples):
        y = hermitian_part(apply_second(alpha, x, d))
        lo = float(np.linalg.eigvalsh(y)[0])
        margin = lo + tol * (1.0 + frob(y))
        if margin < 0.0:
            _, cert = _min_eig_cert(y, tol)
            return Verdict(
                Status.OUT, cert, info={"violating_sample": idx, "min_eig": lo}
            )
        worst = min(worst, lo)
    return Verdict(Status.IN, heuristic=True, info={"worst_min_eig": worst})
