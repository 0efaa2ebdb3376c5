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

Each map cone runs the code of its operator twin (cp/psd, p/f, s/sep,
pos/blockpos, d/e): the Choi matrix is gated once and handed to the
operator core, and ``check psd`` runs ``is_cp``.  The spectral oracles
``is_cp``, ``is_cop`` and ``in_F`` (with ``in_P``) are each the stack of
one of a private core that decides a whole stack of gated matrices at
once, which the randomized suites call on all their trials.  The cores
of ``is_cp`` and ``is_cop`` make one batched ``eigh``, since all their
verdicts carry an eigenvector.  The PPT core, sampled membership and the
positive-map detection of ``is_separable`` classify from one batched
``eigvalsh`` and run at most one batched ``eigh`` more, over just the
matrices whose verdict carries a ``MinEigCert`` (or, for the detection,
a witness built from one).

Verdicts are IN / OUT / UNDECIDED.  Each test reads a margin (a least
eigenvalue, a product-vector value, a PPT witness value Tr(w x)), and
``classify`` alone turns it into a verdict: IN at margin >= -tol * scale,
OUT at margin <= -10 tol * scale, UNDECIDED between.  Every OUT carries a
certificate that re-validates independently of the search that produced
it: an eigenvector of a negative eigenvalue, a trace-one PPT witness w
with Tr(w x) < 0, or a product vector pair.  IN verdicts carry
certificates where the cone admits them (decompositions, spectra,
separable mixtures, a distance within the separable ball around I/D).
Memberships that cannot be certified either way come back UNDECIDED
rather than forced.  Every certificate's ``describe()`` gives the text
that the ``check`` command prints for it.  Every operator oracle reads its
input through one gate, ``_operator``: valid dims, finite entries, shape
(nm, nm) and Hermitian within tol.  ``classify`` and ``Status`` are
defined in ``linalg``, so that ``sdp`` reads them too, and re-exported here.

The ``e`` cone is decided by one semidefinite program, the first level
of the Doherty-Parrilo-Spedalieri hierarchy: lam* = min Tr(w x) over
trace-one PPT operators w, so that x is in ``e`` exactly when lam* >= 0.
``dykstra_feasibility`` solves it with the primal-dual interior-point
method of ``sdp``, whose iterates bracket lam* from both sides and stop
once the sign is settled; the dual iterate gives the decomposition, the
primal one the PPT witness, and each is kept only when its own
``problem()`` check passes.  Each Newton step after the first assembles
a dense system of (nm)^2 + 1 unknowns and solves it twice, or once when
the step ends on its predictor: O((nm)^6) flops and O((nm)^4) memory.
README.md gives measured ``in_E`` times per size, with the method that
produced them.  ``project_F`` is Dykstra's projection onto the ``f``
cone.  ``perfbench/spans.py`` and ``perfbench/test_labels.py`` reference
it, ``dykstra_feasibility``, ``witness_search``, ``psd_project`` and
``DykstraConfig``, which keep these names until ROADMAP item 0b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import fixtures, sdp
from .choi import MapRep, adjoint, apply_second
from .linalg import (
    Dims,
    Status,
    _check_tol,
    as_operator,
    check_hermitian,
    classify,
    frob,
    frobs,
    hermitian_part,
    partial_trace,
    partial_transpose,
    trace_pairing,
)

__all__ = [
    "Status",
    "classify",
    "ConeId",
    "Verdict",
    "DykstraConfig",
    "MinEigCert",
    "PptSpectra",
    "Decomposition",
    "FWitness",
    "ProductVectorCert",
    "SeparableDecomposition",
    "SeparableBall",
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


class _UnknownName(ValueError):
    """An unknown cone or theorem name; the CLI exits 66 on it."""


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
    """A least eigenvalue and a unit eigenvector of it.

    OUT verdicts of ``is_cp``, ``is_cop``, ``in_F`` / ``in_P``,
    ``pm_k_membership`` and ``ksharp_membership`` carry one, and so do
    UNDECIDED verdicts of the first three; the value is then negative.
    IN verdicts of ``is_cp`` and ``is_cop`` carry one too, with a value
    ``classify`` puts IN.  IN verdicts of ``in_F`` / ``in_P`` carry only
    the two values (``PptSpectra``), and the sampled tests' IN and
    UNDECIDED verdicts no certificate (``info["worst_min_eig"]``).
    """

    value: float
    vector: np.ndarray

    def describe(self) -> str:
        return f"min eigenvalue {self.value:.12g}"


@dataclass(frozen=True)
class PptSpectra:
    """Minimum eigenvalues of an operator and of its partial transpose."""

    min_eig: float
    min_eig_pt: float

    def describe(self) -> str:
        return f"min eig {self.min_eig:.12g}, min eig after PT {self.min_eig_pt:.12g}"


@dataclass(frozen=True)
class Decomposition:
    """A decomposition x ~ a + PT(b) with a, b PSD and the residual norm."""

    a: np.ndarray
    b: np.ndarray
    residual: float

    def describe(self) -> str:
        return f"decomposition residual {self.residual:.12g}"

    def problem(self, x: np.ndarray, d: Dims, tol: float) -> Optional[str]:
        """None when the re-derived residual ||x - a - PT(b)||_F is IN and a, b are PSD, else the reason.

        The residual, which needs no eigensolve, is checked first, and the
        stored ``residual`` last: ``classify`` must put its distance from
        the re-derived one IN.
        """
        scale = 1.0 + frob(x)
        residual = frob(x - self.a - partial_transpose(self.b, d))
        if classify(-residual, scale, tol) is not Status.IN:
            return "decomposition residual"
        if not _psd_within((self.a, self.b), tol):
            return "decomposition part not PSD"
        if classify(-abs(residual - self.residual), scale, tol) is not Status.IN:
            return "decomposition residual does not re-derive"
        return None


@dataclass(frozen=True)
class FWitness:
    """A trace-one PPT operator w with Tr(w x) = value < 0."""

    w: np.ndarray
    value: float

    def describe(self) -> str:
        return f"PPT witness with pairing {self.value:.12g}"

    def problem(self, x: np.ndarray, d: Dims, tol: float) -> Optional[str]:
        """None when the re-derived Tr(w x) is OUT, w and PT(w) PSD and Tr w = 1, else the reason.

        The pairing, which needs no eigensolve, is checked first, and the
        stored ``value`` last: ``classify`` must put its distance from the
        re-derived Tr(w x) IN.
        """
        scale = 1.0 + frob(x)
        value = float(trace_pairing(self.w, x).real)
        if classify(value, scale, tol) is not Status.OUT:
            return "witness inside the band"
        if not _psd_within((self.w, partial_transpose(self.w, d)), tol):
            return "witness not PPT"
        if abs(float(np.trace(self.w).real) - 1.0) > 1e-9:
            return "witness trace"
        if classify(-abs(value - self.value), scale, tol) is not Status.IN:
            return "witness value does not re-derive"
        return None


@dataclass(frozen=True)
class ProductVectorCert:
    """Unit vectors xi, eta with <xi (x) eta| x |xi (x) eta> = value."""

    xi: np.ndarray
    eta: np.ndarray
    value: float

    def describe(self) -> str:
        return f"product-vector value {self.value:.12g}"


@dataclass(frozen=True)
class SeparableDecomposition:
    """Nonnegative combination of product states reproducing a state."""

    weights: np.ndarray
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    residual: float

    def describe(self) -> str:
        return f"separable decomposition of {len(self.weights)} terms, residual {self.residual:.12g}"


@dataclass(frozen=True)
class SeparableBall:
    """||rho - I/D||_F = distance within radius = 1/sqrt(D(D-1)), D = nm.

    Every state in that ball around the maximally mixed state is
    separable (Gurvits and Barnum, PRA 66, 062311 (2002)).
    """

    distance: float
    radius: float

    def describe(self) -> str:
        return f"separable ball: distance {self.distance:.12g} <= radius {self.radius:.12g}"


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
    """Deprecated: pass ``tol`` itself.  Only ``dykstra_feasibility`` accepts one."""

    tol: float = 1e-9


def psd_project(x: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    h = hermitian_part(x)
    w, u = np.linalg.eigh(h)
    if w[0] >= 0.0:
        return h
    w = np.maximum(w, 0.0)
    return (u * w) @ u.conj().T


def _operator(x, d: Dims, tol: float) -> tuple[np.ndarray, Dims]:
    """The operator oracles' entry gate: x as a Hermitian (nm, nm) array, d as ``Dims``.

    Raises ValueError for dims below 1, a non-finite entry, any shape
    other than (nm, nm), or x not Hermitian within tol.
    """
    d = Dims(*d).validate()
    x = as_operator(x)
    if x.shape != (d.total, d.total):
        raise ValueError(f"operator shape {x.shape} does not match dims {d}")
    return check_hermitian(x, tol), d


def _psd_within(xs: Sequence[np.ndarray], tol: float) -> bool:
    """``classify`` puts the least eigenvalue of each Hermitian x of ``xs`` IN, at scale 1 + ||x||_F.

    The matrices share one shape, and one batched ``eigvalsh`` gives
    every least eigenvalue, each bit for bit what x alone gives.
    """
    lows = np.linalg.eigvalsh(np.array(xs))[:, 0].tolist()
    return all(classify(lo, 1.0 + frob(x), tol) is Status.IN for lo, x in zip(lows, xs))


def _scales(y: np.ndarray) -> list[float]:
    """The classification scale 1 + ||y||_F of each matrix y of a stack."""
    return [1.0 + frob(yk) for yk in y]


def _least_values(y: np.ndarray, scales: list[float], tol: float) -> tuple[list[float], list[Status]]:
    """The least eigenvalue of each Hermitian y of a (k, N, N) stack and ``classify``'s status for it at its scale.

    All k values come from one batched ``eigvalsh``: the statuses of
    ``_least_eigs`` without its eigenvectors.
    """
    lows = np.linalg.eigvalsh(y)[:, 0].tolist()
    return lows, [classify(lo, s, tol) for lo, s in zip(lows, scales)]


def _least_eigs(y: np.ndarray, scales: list[float], tol: float) -> list[tuple[Status, MinEigCert]]:
    """``classify`` on the least eigenvalue of each Hermitian y of a (k, N, N) stack, at its scale.

    All k spectra come from one batched ``eigh``, and each certificate
    carries the eigenvector of its value.
    """
    w, u = np.linalg.eigh(y)
    return [
        (classify(lo, s, tol), MinEigCert(lo, vk.copy()))
        for lo, s, vk in zip(w[:, 0].tolist(), scales, u[:, :, 0])
    ]


def _hermitian_spectra(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian parts h of a stack of images and their eigenvalues, from one batched ``eigvalsh``."""
    h = hermitian_part(images)
    return h, np.linalg.eigvalsh(h)


def _sampled_least_eigs(h: np.ndarray, w: np.ndarray, tol: float) -> list[Verdict]:
    """``classify`` on the least eigenvalue of each Hermitian image of a stack of groups, given its eigenvalues.

    ``h`` is a stack of Hermitian images whose last three axes are
    (samples, N, N), any axes before them indexing the groups, and ``w``
    their eigenvalues, as ``_hermitian_spectra`` returns them.  Each
    image is classified at its own scale 1 + ||image||_F, and each
    group, in C order, gets one verdict: OUT at the first image
    ``classify`` puts OUT (``violating_sample``), else UNDECIDED if some
    image is, else IN, heuristic as it holds only for these samples.
    Only an OUT carries a vector: one batched ``eigh`` over the first OUT
    image of every OUT group gives their ``MinEigCert``, bit for bit what
    each image alone gives.  An IN or UNDECIDED group reports its least
    value ``worst_min_eig``, read from ``w``.
    """
    h, lows = h.reshape(-1, *h.shape[-3:]), w[..., 0].reshape(-1, w.shape[-2])
    status = [
        [classify(lo, 1.0 + s, tol) for lo, s in zip(lk, sk)]
        for lk, sk in zip(lows.tolist(), frobs(h).tolist())
    ]
    first_out = {g: st.index(Status.OUT) for g, st in enumerate(status) if Status.OUT in st}
    certs = {}
    if first_out:
        vals, vecs = np.linalg.eigh(h[list(first_out), list(first_out.values())])
        certs = {g: MinEigCert(lo, v.copy()) for g, lo, v in zip(first_out, vals[:, 0].tolist(), vecs[:, :, 0])}
    out = []
    for g, st in enumerate(status):
        if g in certs:
            out.append(Verdict(Status.OUT, certs[g], info={"violating_sample": first_out[g], "min_eig": certs[g].value}))
            continue
        verdict = Status.UNDECIDED if Status.UNDECIDED in st else Status.IN
        out.append(Verdict(verdict, heuristic=verdict is Status.IN, info={"worst_min_eig": float(lows[g].min())}))
    return out


def _sample_stack(samples: Sequence[MapRep], n: int, k: Optional[int] = None) -> np.ndarray:
    """The (len(samples), nk, nk) stack of the Choi matrices of cone samples M_n -> M_k.

    ``k`` defaults to the first sample's output dim, so only a caller
    that passes ``k`` may pass no samples.  Raises ValueError for an
    empty list without ``k``, a sample that does not map M_n to M_k, or
    one that fails ``check_hermitian`` at 1e-9, which only validates.
    """
    if k is None:
        if len(samples) == 0:
            raise ValueError("need at least one cone sample")
        k = samples[0].m
    for alpha in samples:
        if alpha.n != n:
            raise ValueError(f"map input dim {alpha.n} does not match second factor {n}")
        if alpha.m != k:
            raise ValueError(f"map output dim {alpha.m} does not match common output dim {k}")
    stack = np.array([a.choi for a in samples], dtype=np.complex128).reshape(-1, n * k, n * k)
    check_hermitian(stack)
    return stack


# ---------------------------------------------------------------------------
# spectral cones
# ---------------------------------------------------------------------------


def is_cp(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Complete positivity: the Choi matrix is PSD."""
    return _cp_stack(phi.hermitian_choi(tol)[None], phi.d, tol)[0]


def _cp_stack(c: np.ndarray, d: Dims, tol: float) -> list[Verdict]:
    """``is_cp`` on each gated Choi matrix of a (k, nm, nm) stack."""
    return [Verdict(s, cert, info={"min_eig": cert.value}) for s, cert in _least_eigs(c, _scales(c), tol)]


def is_cop(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Copositivity: the partially transposed Choi matrix is PSD."""
    return _cop_stack(phi.hermitian_choi(tol)[None], phi.d, tol)[0]


def _cop_stack(c: np.ndarray, d: Dims, tol: float) -> list[Verdict]:
    """``is_cop`` on each gated Choi matrix of a (k, nm, nm) stack."""
    pt = partial_transpose(c, d)
    return [Verdict(s, cert, info={"min_eig_pt": cert.value}) for s, cert in _least_eigs(pt, _scales(pt), tol)]


def in_P(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Maps both cp and cop: ``in_F``'s verdict on the gated Choi matrix."""
    return _ppt_stack(phi.hermitian_choi(tol)[None], phi.d, tol)[0]


def in_F(x: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """The PPT cone: x PSD and PT(x) PSD."""
    x, d = _operator(x, d, tol)
    return _ppt_stack(x[None], d, tol)[0]


def _ppt_stack(x: np.ndarray, d: Dims, tol: float) -> list[Verdict]:
    """``in_F`` on each matrix of a (k, nm, nm) stack that has passed the gate.

    The least eigenvalues of every x and PT(x) come from one batched
    ``eigvalsh``, each classified at scale 1 + its own norm.  A pair that
    both values put IN is IN, with those values as its ``PptSpectra``.
    Every other pair's verdict carries a ``MinEigCert``, so all of them
    go through one ``_least_eigs`` together, whose batched ``eigh`` gives
    their statuses, certificates and ``info["spectra"]``: bit for bit
    what a stack of only those pairs gives.  An NPT pair so costs one
    ``eigvalsh`` more than an ``eigh`` alone would.
    """
    k = len(x)
    y = np.concatenate([x, partial_transpose(x, d)])
    scales = _scales(y)
    lows, status = _least_values(y, scales, tol)
    rest = [j for j in range(k) if not (status[j] is Status.IN and status[k + j] is Status.IN)]
    verdicts = {}
    if rest:
        idx = rest + [k + j for j in rest]
        both = _least_eigs(y if len(rest) == k else y[idx], [scales[i] for i in idx], tol)
        verdicts = dict(zip(rest, map(_ppt_verdict, both[: len(rest)], both[len(rest) :])))
    return [verdicts[j] if j in verdicts else Verdict(Status.IN, PptSpectra(lows[j], lows[k + j])) for j in range(k)]


def _ppt_verdict(on_x: tuple[Status, MinEigCert], on_pt: tuple[Status, MinEigCert]) -> Verdict:
    """``in_F``'s verdict from the ``_least_eigs`` of x and of PT(x)."""
    (s1, c1), (s2, c2) = on_x, on_pt
    spectra = PptSpectra(c1.value, c2.value)
    if s1 is Status.IN and s2 is Status.IN:
        return Verdict(Status.IN, spectra)
    status = Status.OUT if Status.OUT in (s1, s2) else Status.UNDECIDED
    return Verdict(status, c1 if s1 is status else c2, info={"spectra": spectra})


def _check_unit_trace(rho: np.ndarray) -> None:
    """The state oracles' trace gate: raise unless Tr rho = 1 within 1e-9."""
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"not a state: trace = {tr:.12f}")


def is_ppt_state(rho: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """PPT test for a density operator (trace must equal 1 within 1e-9)."""
    rho, d = _operator(rho, d, tol)
    _check_unit_trace(rho)
    return _ppt_stack(rho[None], d, tol)[0]


# ---------------------------------------------------------------------------
# the decomposable-operator cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the interior-point solve of lam* = max{lam : x - lam I in E}.

    ``lower <= lam* <= upper`` is the bracket certified by the final
    iterate, and ``stop`` is why the solve ended: ``"in"``, ``"out"``,
    ``"gap"`` or ``"breakdown"`` (see ``sdp.solve``).
    ``a`` and ``b`` are the PSD pair a = x - PT(Y) - min(lower, 0) I,
    b = Y of the final dual iterate, and ``residual`` is
    ||x - a - PT(b)||_F; ``converged`` means that the solve stopped
    ``"in"`` and ``Decomposition.problem`` passes this pair.  ``upper``
    is Tr(w x) for the final trace-one PPT operator w, and ``w`` is kept
    only when ``FWitness.problem`` passes it, so ``classify`` puts
    ``upper`` OUT whenever ``w`` is set.  ``iterations`` counts the Newton
    steps and ``solves`` the dense Schur solves they made.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float
    iterations: int
    converged: bool
    stop: str
    lower: float
    upper: float
    w: Optional[np.ndarray] = None
    solves: int = 0


def dykstra_feasibility(x: np.ndarray, d: Dims, tol: float = 1e-9, optimum: bool = False) -> FeasibilityResult:
    """Decide x ~ A + PT(B) with A, B PSD by one primal-dual interior-point solve.

    ``sdp.solve`` brackets lam* = min{Tr(w x) : w PPT, Tr w = 1} and stops
    once the sign is settled, or, with ``optimum``, once the bracket has
    closed.  x passes the ``_operator`` gate first, so a non-Hermitian x
    raises.  The decomposition of an ``"in"`` stop is kept only when
    ``Decomposition.problem`` passes it, and the witness only when
    ``FWitness.problem`` does, which drops a witness whose value lies in
    the band.  A certificate that fails its check is not used, and an
    ``"in"`` or ``"out"`` stop becomes ``"breakdown"``, so a numerical
    failure of the solve can cost a decision but never produce a wrong
    one.  It takes a deprecated ``DykstraConfig`` in place of ``tol``;
    both names stay while ``perfbench`` references them.
    """
    tol = tol.tol if isinstance(tol, DykstraConfig) else tol
    _check_tol(tol)
    x, d = _operator(x, d, tol)
    bracket = sdp.solve(x, d, tol, optimum)
    b = bracket.y
    a = hermitian_part(x - partial_transpose(b, d)) - min(bracket.lower, 0.0) * np.eye(d.total)
    residual = frob(x - a - partial_transpose(b, d))
    converged = bracket.stop == "in" and Decomposition(a, b, residual).problem(x, d, tol) is None
    w = hermitian_part(bracket.w / np.trace(bracket.w).real)
    upper = float(trace_pairing(w, x).real)
    if FWitness(w, upper).problem(x, d, tol) is not None:
        w = None
    stop = bracket.stop
    if (stop == "in" and not converged) or (stop == "out" and w is None):
        stop = "breakdown"
    return FeasibilityResult(
        a, b, residual, bracket.iterations, converged, stop, bracket.lower, upper, w, bracket.solves
    )


#: Dykstra sweeps ``project_F`` runs before it gives up
_PROJECT_F_SWEEPS = 20000


def _pt_psd_project(x: np.ndarray, d: Dims) -> np.ndarray:
    return partial_transpose(psd_project(partial_transpose(x, d)), d)


def project_F(x: np.ndarray, d: Dims, tol: float = 1e-9) -> np.ndarray:
    """Nearest point of the PPT cone, by Dykstra between its two halves."""
    _check_tol(tol)
    d = Dims(*d)
    y = hermitian_part(as_operator(x))
    scale = 1.0 + frob(y)
    p1 = np.zeros_like(y)
    p2 = np.zeros_like(y)
    for _ in range(_PROJECT_F_SWEEPS):
        t1 = y + p1
        y1 = psd_project(t1)
        p1 = t1 - y1
        t2 = y1 + p2
        y2 = _pt_psd_project(t2, d)
        p2 = t2 - y2
        gap = frob(y1 - y2)
        y = y2
        if gap <= 0.1 * tol * scale:
            lo = float(np.linalg.eigvalsh(hermitian_part(y))[0])
            if classify(lo, 1.0 + frob(y), tol) is Status.IN:
                return hermitian_part(y)
    raise RuntimeError(
        f"projection onto the PPT cone did not converge in {_PROJECT_F_SWEEPS} iterations"
    )


def witness_search(x: np.ndarray, d: Dims, tol: float = 1e-9) -> Optional[FWitness]:
    """The optimal trace-one PPT operator w against x, if ``classify`` puts Tr(w x) OUT.

    Runs the ``in_E`` solve on to the optimum and returns its witness,
    which ``FWitness.problem`` has passed; so only OUT witnesses come
    back, and None when x is decomposable within tolerance, the optimum
    lies in the band or the solve found no witness that passes.
    """
    feas = dykstra_feasibility(x, d, tol, optimum=True)
    return None if feas.w is None else FWitness(feas.w, feas.upper)


def in_E(x: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """Membership in the cone of sums A + PT(B) with A, B PSD.

    IN comes with the decomposition, OUT with a PPT witness w whose value
    Tr(w x) ``classify`` puts OUT, and everything else (a bracket that
    closed inside the band, a broken-down solve) is UNDECIDED.  ``info``
    carries, on every status, the solve's ``iterations`` and dense Schur
    ``solves``, the decomposition ``residual``, the ``stop`` reason and
    the certified bracket ``lower <= lam* <= upper``.  Both certificates
    come checked from ``dykstra_feasibility``.
    """
    feas = dykstra_feasibility(x, d, tol)
    info = {
        "iterations": feas.iterations,
        "solves": feas.solves,
        "residual": feas.residual,
        "stop": feas.stop,
        "lower": feas.lower,
        "upper": feas.upper,
    }
    if feas.converged:
        return Verdict(Status.IN, Decomposition(feas.a, feas.b, feas.residual), info=info)
    if feas.w is not None:
        return Verdict(Status.OUT, FWitness(feas.w, feas.upper), info=info)
    return Verdict(Status.UNDECIDED, info=info)


def is_decomposable(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Decomposability of a map: ``in_E``'s verdict on its Choi matrix C.

    An OUT witness w has the value Tr(C w), which for square dimensions
    equals n times the maximally entangled state applied to
    (id (x) phi*)(w); the C19 suite checks that identity on every witness.
    """
    return in_E(phi.choi, phi.d, tol)


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

_EXACT_PPT_DIMS = {(2, 2), (2, 3)}


def _swap_factors(x: np.ndarray, d: Dims) -> np.ndarray:
    n, m = d
    return x.reshape(n, m, n, m).transpose(1, 0, 3, 2).reshape(n * m, n * m)


class _Dephasing(NamedTuple):
    """rho dephased in the product U (x) V of its marginals' eigenbases.

    ``residual`` is ||rho - sum_k w_k L_k (x) R_k||_F over the kept terms,
    and ``keep`` indexes the product basis vectors with positive weight.
    """

    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    keep: np.ndarray
    residual: float

    def decomposition(self) -> SeparableDecomposition:
        """The kept terms as a ``SeparableDecomposition``: weights and the projectors onto the basis vectors."""
        i, j = np.divmod(self.keep, len(self.v))
        return SeparableDecomposition(
            weights=self.weights[self.keep],
            left=tuple(np.outer(self.u[:, k], self.u[:, k].conj()) for k in i),
            right=tuple(np.outer(self.v[:, k], self.v[:, k].conj()) for k in j),
            residual=self.residual,
        )


def _dephased(rho: np.ndarray, d: Dims) -> _Dephasing:
    """rho dephased in the product of its marginals' eigenbases, residual first.

    With U, V the eigenvectors of the two marginals, the weights are the
    diagonal of (U (x) V)* rho (U (x) V) and the factors the projectors
    onto the basis vectors; terms without positive weight are dropped.
    The residual is the off-diagonal norm plus what was dropped, computed
    from the fit before any product term exists: ``_separable`` builds the
    decomposition (``_Dephasing.decomposition``) only for an IN.  U (x) V
    is one broadcast product of the same single multiplies ``np.kron``
    makes.
    """
    n, m = d
    marginals = [hermitian_part(partial_trace(rho, d, 2)), hermitian_part(partial_trace(rho, d, 1))]
    # marginals of one size are one stack through one eigh
    u, v = np.linalg.eigh(np.array(marginals))[1] if n == m else (np.linalg.eigh(a)[1] for a in marginals)
    uv = (u[:, None, :, None] * v[None, :, None, :]).reshape(n * m, n * m)
    weights = (uv.conj() * (rho @ uv)).sum(axis=0).real
    keep = np.flatnonzero(weights > 0)
    fit = (uv[:, keep] * weights[keep]) @ uv[:, keep].conj().T
    return _Dephasing(u, v, weights, keep, frob(rho - fit))


def _positive_map_detection(rho: np.ndarray, d: Dims, tol: float) -> Optional[tuple[np.ndarray, float]]:
    """Try the shipped non-decomposable map as an entanglement detector.

    Returns a block-positive witness W and Tr(W rho) < 0 when the map,
    applied to either factor of dimension 3, breaks positivity by a
    least eigenvalue that ``classify`` puts OUT; the second factor is
    tried first.  Both candidates exist only at 3 (x) 3, where they are
    one stack through one ``apply_second`` and one batched ``eigvalsh``;
    ``eigh`` runs only on the first image put OUT, whose eigenvector
    builds the witness.
    """
    n, m = d
    candidates = []
    if m == 3:
        candidates.append((rho, False))
    if n == 3:
        candidates.append((_swap_factors(rho, d), True))
    if not candidates:
        return None
    dd = Dims(n if m == 3 else m, 3)
    lam = fixtures.nondecomposable_map()
    images = hermitian_part(apply_second(lam, np.array([mat for mat, _ in candidates]), dd))
    status = _least_values(images, _scales(images), tol)[1]
    if Status.OUT not in status:
        return None
    idx = status.index(Status.OUT)
    w, u = np.linalg.eigh(images[idx])
    v = u[:, 0].copy()[:, None]
    wit = hermitian_part(apply_second(adjoint(lam), v @ v.conj().T, dd))
    if candidates[idx][1]:
        wit = _swap_factors(wit, dd)
    return wit, float(w[0])


def is_separable(rho: np.ndarray, d: Dims, tol: float = 1e-9) -> Verdict:
    """Separability of a density operator.

    At 2 (x) 2 and 2 (x) 3 the PPT condition is exact and decides the
    question (UNDECIDED in its band; ``info["regime"]`` is
    ``"ppt-exact"``).  Elsewhere a failed PPT test is a certified OUT, and
    two closed-form certificates give IN:

    * ``"dephased"``: rho is diagonal in the product of its marginals'
      eigenbases, and the certificate is that diagonal as a
      ``SeparableDecomposition`` whose residual ``classify`` puts IN,
      built only once the residual, which needs no term, is IN;
    * ``"ball"``: rho lies in the Gurvits-Barnum ball
      ||rho - I/D||_F <= 1/sqrt(D(D-1)) of separable states, D = nm, and
      the certificate is the ``SeparableBall`` of that distance.

    Otherwise a positive-map detection is a certified OUT and anything
    else is UNDECIDED.
    """
    return _separable(*_operator(rho, d, tol), tol)


def _separable(rho: np.ndarray, d: Dims, tol: float) -> Verdict:
    """``is_separable`` on a rho that has passed the ``_operator`` gate."""
    scale = 1.0 + frob(rho)
    # the state check reads rho's least eigenvalue from the PPT test's spectra
    ppt = _ppt_stack(rho[None], d, tol)[0]
    spectra = ppt.certificate if ppt.status is Status.IN else ppt.info["spectra"]
    if classify(spectra.min_eig, scale, tol) is not Status.IN:
        raise ValueError(f"not a state: minimum eigenvalue {spectra.min_eig:.3e}")
    _check_unit_trace(rho)
    if ppt.status is not Status.IN:
        return ppt
    if tuple(sorted(d)) in _EXACT_PPT_DIMS:
        return Verdict(Status.IN, ppt.certificate, info={"regime": "ppt-exact"})

    dephasing = _dephased(rho, d)
    if classify(-dephasing.residual, scale, tol) is Status.IN:
        return Verdict(Status.IN, dephasing.decomposition(), info={"regime": "dephased"})
    dim = d.total
    ball = SeparableBall(frob(rho - np.eye(dim) / dim), (dim * (dim - 1)) ** -0.5)
    if classify(ball.radius - ball.distance, scale, tol) is Status.IN:
        return Verdict(Status.IN, ball, info={"regime": "ball"})
    det = _positive_map_detection(rho, d, tol)
    if det is not None:
        wit, value = det
        return Verdict(Status.OUT, wit, info={"detection_value": value})
    return Verdict(Status.UNDECIDED, info={"ppt": "passed"})


def in_S(phi: MapRep, tol: float = 1e-9) -> Verdict:
    """Entanglement-breaking cone: ``is_separable``'s verdict on C / Tr C, C the gated Choi matrix.

    Raises ValueError unless Tr C is above ``tol``.
    """
    c = phi.hermitian_choi(tol)
    tr = float(np.trace(c).real)
    if tr <= tol:
        raise ValueError(f"Choi trace {tr:.3e} is not above tol = {tol!r}")
    # c is exactly Hermitian, so c / tr is the matrix the gate would return
    return _separable(c / tr, phi.d, tol)


# ---------------------------------------------------------------------------
# block positivity (see-saw over product vectors)
# ---------------------------------------------------------------------------


def _start_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """See-saw start vectors as rows: the unit vectors, then seeded random unit vectors."""
    units = np.eye(n, dtype=np.complex128)[:count]
    g = rng.normal(size=(max(count - n, 0), 2, n))
    drawn = [v / np.linalg.norm(v) for v in g[:, 0] + 1j * g[:, 1]]
    return np.concatenate([units, np.reshape(drawn, (-1, n))])


@lru_cache(maxsize=64)
def _seesaw_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """``is_block_positive``'s start vectors, drawn once per (n, restarts, seed) and read-only.

    They depend on nothing else, so repeated calls share one array, which
    ``_seesaw`` copies before it descends.
    """
    starts = _start_vectors(n, restarts, np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xB10C))))
    starts.flags.writeable = False
    return starts


def _halfstep_layouts(x4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two layouts of x that the see-saw's half-steps multiply against.

    ``x4`` is x as (n, m, n, m) with axes (i, r, j, s).  The first layout
    has rows i and columns (j, r, s), the second rows r and columns
    (s, i, j), so that each half-step is a ``_forms`` over one of them.
    """
    n, m = x4.shape[:2]
    return (
        x4.transpose(0, 2, 1, 3).reshape(n, n * m * m),
        x4.transpose(1, 3, 0, 2).reshape(m, m * n * n),
    )


def _forms(v: np.ndarray, layout: np.ndarray, q: int) -> np.ndarray:
    """<v_k| x |v_k> on one factor for every row v_k: a (k, q, q) stack.

    ``layout`` is one of ``_halfstep_layouts``, with the contracted
    factor's bra index as rows.  One BLAS product contracts the bras of
    all rows, and one batched vector-matrix product their kets.
    """
    k, p = v.shape
    t = (v.conj() @ layout).reshape(k, p, q * q)
    return (v[:, None, :] @ t).reshape(k, q, q)


#: See-saw sweeps ``_seesaw`` runs at most
_SEESAW_SWEEPS = 60


def _seesaw(x4: np.ndarray, xi: np.ndarray, stop: Callable[[float], bool]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """See-saw descent from every row of ``xi`` at once.

    ``x4`` is the operator reshaped to (n, m, n, m) and ``xi`` holds start
    vectors as rows.  A sweep takes, for each active row, the minimal
    eigenvector eta of <xi| x |xi> and then the minimal eigenvector xi of
    <eta| x |eta>, one batched ``eigh`` per half-step.  Each half-step
    forms its stack with one matrix product against a layout of x built
    once per call (``_halfstep_layouts``) and one batched product with
    the active rows.  A row freezes when its value stops improving.  The
    batch stops when every row is frozen, after ``_SEESAW_SWEEPS`` sweeps, or once
    ``stop`` holds for the least value; values never increase, so that
    row would end no higher.  Returns the rows of xi and eta,
    their values <xi (x) eta| x |xi (x) eta> and the number of sweeps run.
    """
    n, m = x4.shape[:2]
    on_first, on_second = _halfstep_layouts(x4)
    xi = np.array(xi, dtype=np.complex128)
    eta = np.zeros((len(xi), m), dtype=np.complex128)
    val = np.full(len(xi), np.inf)
    active = np.arange(len(xi))
    sweeps = 0
    while active.size and sweeps < _SEESAW_SWEEPS:
        sweeps += 1
        # Hermitian forms up to rounding; eigh reads only their lower triangles
        e = np.linalg.eigh(_forms(xi[active], on_first, m))[1][:, :, 0]
        w, u = np.linalg.eigh(_forms(e, on_second, n))
        eta[active] = e
        xi[active] = u[:, :, 0]
        new, old = w[:, 0], val[active]
        if sweeps == 1:  # no previous value to compare with
            frozen = np.zeros(active.size, dtype=bool)
        else:
            frozen = new > old - 1e-15 * (1.0 + np.abs(old))
        val[active] = np.where(frozen, np.minimum(old, new), new)
        if stop(float(val.min())):
            break
        active = active[~frozen]
    return xi, eta, val, sweeps


def is_block_positive(
    x: np.ndarray,
    d: Dims,
    restarts: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> Verdict:
    """Block positivity: <xi (x) eta| x |xi (x) eta> >= 0 for product vectors.

    See-saw minimization over product vectors: with one factor fixed the
    optimal other factor is a minimal eigenvector.  The ``restarts`` start
    vectors (the unit vectors, then seeded random ones, drawn once per
    (n, restarts, seed) and shared by later calls) descend as one batch of
    at most 60 sweeps, which stops early once ``classify`` puts
    some value OUT.  Such a value is a certified OUT, a best value in the
    band is UNDECIDED, and survival of all restarts is only a heuristic
    IN, since the problem has no efficient exact certificate in general.
    ``info`` carries the number of ``sweeps`` run and the least value
    ``best``.  Raises ValueError for ``restarts < 1`` or ``seed < 0``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    x, d = _operator(x, d, tol)
    n, m = d
    scale = 1.0 + frob(x)
    x4 = x.reshape(n, m, n, m)
    xi, eta, val, sweeps = _seesaw(x4, _seesaw_starts(n, restarts, seed), lambda v: classify(v, scale, tol) is Status.OUT)
    r = int(np.argmin(val))
    best = float(val[r])
    cert = ProductVectorCert(xi[r], eta[r], best)
    info = {"restarts": restarts, "sweeps": sweeps, "best": best}
    status = classify(best, scale, tol)
    return Verdict(status, cert, heuristic=status is Status.IN, info=info)


def is_positive_map(
    phi: MapRep,
    restarts: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> Verdict:
    """Positivity of a map: ``is_block_positive``'s verdict on its Choi matrix.

    An OUT certificate (xi, eta) means the PSD input conj(xi) conj(xi)*
    is mapped to an operator with <eta| . |eta> < 0.  Raises ValueError
    for ``restarts < 1`` or ``seed < 0``.
    """
    return is_block_positive(phi.choi, phi.d, restarts, tol, seed)


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

    Every sample maps M_m, the second factor of ``d``, to one common M_k;
    raises ValueError for no samples or a sample that breaks this rule or
    fails ``_sample_stack``'s Hermiticity gate.  All samples are applied
    in one ``apply_second`` on their Choi stack and classified from one
    batched ``eigvalsh``; only an OUT runs ``eigh``, on the violating
    image alone.  OUT names the first violating sample's index and is
    exact; IN is only relative to the samples and flagged heuristic.
    """
    x, d = _operator(x, d, tol)
    chois = _sample_stack(k_samples, d.m)
    return _sampled_least_eigs(*_hermitian_spectra(apply_second(chois, x, d)), tol)[0]
