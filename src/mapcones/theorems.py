"""Randomized verification suites for the duality structure of map cones.

Each suite draws seeded random instances, computes both sides of a
duality statement through independent code paths, and records every
disagreement beyond tolerance.  The four dual-cone conditions

    (i)    nonnegative pairing against the generators of the primal cone,
    (ii)   membership of the Choi matrix in the partner operator cone,
    (iii)  positivity of the induced functional on transformed probes,
    (iv)   complete positivity of all compositions with cone elements,

are computed exactly for the cp / cop / p / d cones via the closed-form
operator oracles (PSD, PT-PSD, the ``f`` spectra, and ``cones.in_E`` for
the ``e`` cone), and by sampling plus certificate-guided adversarial
probes for everything else.  Every ``e``-cone decision is the status of
one ``in_E`` call, whose OUT certificate is the PPT witness the suite
builds its probes from.  Quantities within ten times the tolerance of a
decision threshold mark the trial UNDECIDED; such trials are excluded
from pass/fail accounting rather than silently counted as passes.

Reports are pure functions of (theorem id, dims, trials, seed, tol):
identical arguments produce byte-identical serialized reports.  Wall
time is tracked on the report object but never serialized.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import fixtures
from .choi import (
    MapRep,
    adjoint,
    adjoint_choi,
    apply_map,
    apply_second,
    compose_left,
    dual_functional,
    identity_map,
    map_from_action,
    map_from_choi,
    omega_eval,
    pairing,
    transpose_conj,
    transpose_map,
    trpi_eval,
)
from .cones import (
    ConeId,
    DykstraConfig,
    Status,
    in_E,
    in_F,
    is_separable,
    pm_k_membership,
    witness_search,
)
from .linalg import (
    Dims,
    both_transpose,
    frob,
    full_transpose,
    hermitian_part,
    partial_transpose,
    trace_pairing,
)
from .sampling import (
    cone_generator_pool,
    k_t,
    kd_generators,
    random_cone_choi,
    random_hermitian,
    random_psd,
    random_unit_vector,
    sample_map,
    substream,
)

__all__ = [
    "Theorem1Conditions",
    "TheoremReport",
    "ksharp_membership",
    "theorem1_conditions",
    "verify",
    "emit_report",
    "SUPPORTED_THEOREMS",
]

_CONCRETE = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_P, ConeId.MAP_D)


# ---------------------------------------------------------------------------
# K-sharp membership
# ---------------------------------------------------------------------------


def ksharp_membership(
    beta: MapRep,
    k_samples: Sequence[MapRep],
    tol: float = 1e-9,
) -> "object":
    """Sampled test that beta . alpha* is completely positive for all alpha.

    OUT with the violating sample is exact; IN is relative to the sample
    set and flagged heuristic.  Square dimensions only.
    """
    from .cones import MinEigCert, Verdict

    if beta.n != beta.m:
        raise ValueError("sharp-cone membership needs square dimensions")
    if len(k_samples) == 0:
        raise ValueError("need at least one cone sample")
    worst = np.inf
    for idx, alpha in enumerate(k_samples):
        comp = compose_left(beta, adjoint(alpha))
        c = hermitian_part(comp.choi)
        w, u = np.linalg.eigh(c)
        lo = float(w[0])
        if lo < -tol * (1.0 + frob(c)):
            cert = MinEigCert(lo, u[:, 0].copy())
            return Verdict(Status.OUT, cert, info={"violating_sample": idx})
        worst = min(worst, lo)
    return Verdict(Status.IN, heuristic=True, info={"worst_min_eig": worst})


# ---------------------------------------------------------------------------
# the four dual-cone conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Conditions:
    """The four dual-cone condition booleans plus boundary accounting."""

    dual_pairing: bool
    choi_membership: bool
    functional_positivity: bool
    compositions_cp: bool
    boundary: bool
    margins: dict

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.dual_pairing,
            self.choi_membership,
            self.functional_positivity,
            self.compositions_cp,
        )

    @property
    def agree(self) -> bool:
        t = self.as_tuple()
        return all(v == t[0] for v in t)


def _witness_map(w: np.ndarray, d: Dims) -> MapRep:
    """The cone-p map whose induced functional has density w.

    For w in the PPT cone the map with Choi matrix w^T is both cp and
    cop; its adjoint composed with transpose conjugation is again in the
    p cone and violates positivity on any operator pairing negatively
    with w.  This is the constructive route around the Hahn-Banach step.
    """
    beta = map_from_choi(d.n, d.m, both_transpose(w, d))
    return transpose_conj(adjoint(beta))


def _min_eigs(x) -> np.ndarray:
    """Least eigenvalue of the Hermitian part, matrix by matrix over leading axes."""
    return np.linalg.eigvalsh(hermitian_part(x))[..., 0]


def _min_eig(x) -> float:
    return float(_min_eigs(x))


def _least(values) -> float:
    """Smallest entry of an array; +inf when it is empty."""
    return float(np.min(values, initial=np.inf))


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a b) for one matrix a against a stack b (leading axes kept)."""
    return np.einsum("ij,...ji->...", a, b)


def _pairings(c: np.ndarray, chois: np.ndarray) -> np.ndarray:
    """``pairing`` of a Hermitian Choi matrix c with each of a stack of Choi matrices."""
    return _traces(c, hermitian_part(chois)).real


def _choi_stack(maps: Sequence[MapRep], k: int) -> np.ndarray:
    """The k x k Choi matrices of ``maps`` stacked along a leading axis."""
    return np.array([a.choi for a in maps], dtype=np.complex128).reshape(-1, k, k)


def _bottom_projectors(y: np.ndarray) -> np.ndarray:
    """v v* for the bottom eigenvector v of the Hermitian part of each matrix in a stack."""
    v = np.linalg.eigh(hermitian_part(y))[1][..., :1]
    return v @ v.conj().swapaxes(-1, -2)


def theorem1_conditions(
    phi: MapRep,
    cone: ConeId,
    samples: Optional[Sequence[MapRep]] = None,
    tol: float = 1e-9,
    n_probes: int = 8,
    seed: int = 0,
    kd_samples: Optional[Sequence[MapRep]] = None,
) -> Theorem1Conditions:
    """Evaluate the four dual-cone conditions for one map and one cone.

    ``samples`` are elements of the cone acting on the second factor
    (square maps on M_m); when omitted a small seeded pool with the
    canonical elements is drawn.  For the cp / cop / p / d cones the
    verdicts are exact: spectral for the first three families and via
    ``cones.in_E`` for the p cone.

    Each condition runs over the whole pool at once: the samples' Choi
    matrices are stacked, ``apply_second`` and ``adjoint_choi`` act on the
    stack, and one batched eigensolver call serves every sample.  Random
    probes are drawn sample-major, then repetition.
    """
    if not cone.is_map_cone:
        raise ValueError(f"{cone} is not a map cone")
    c = phi.hermitian_choi(tol)
    d = phi.d
    nm = d.total
    sq = Dims(d.m, d.m)
    scale = 1.0 + frob(c)
    thr = tol * scale
    band = 10.0 * thr
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x7101)))

    if samples is None:
        samples = cone_generator_pool(cone, d, 8, seed)
    if kd_samples is None:
        kd_samples = kd_generators(samples)

    if cone is ConeId.MAP_P:
        return _theorem1_p_cone(phi, c, samples, tol, n_probes)

    pool = _choi_stack(samples, sq.total)
    pool_t = both_transpose(pool, sq)
    kd = _choi_stack(kd_samples, sq.total)

    # (ii) membership of the Choi matrix in the partner operator cone
    if cone in _PARTNER:
        m2 = _kpositivity_margin(_PARTNER[cone], c, d)
    else:
        # generic cone: sampled membership through the transposed samples
        m2 = _least(_min_eigs(apply_second(pool_t, c, d)))

    # (i) pairing against generators alpha . psi of the primal cone: per
    # alpha, the adversarial psi (bottom of (id (x) alpha*)(C)) and reps
    # random trace-one psi
    reps = max(n_probes // max(len(kd), 1), 1)
    adv = _bottom_projectors(apply_second(adjoint_choi(kd, sq), c, d))
    rand = np.array([random_psd(rng, nm) for _ in range(len(kd) * reps)])
    rand = rand.reshape(len(kd), reps, nm, nm)
    rand /= np.trace(rand, axis1=-2, axis2=-1).real[..., None, None]
    psi = np.concatenate([adv[:, None], rand], axis=1)
    m1 = _least(_pairings(c, apply_second(kd[:, None], psi, d)))

    # (iii) positivity of the induced functional on transformed probes:
    # per alpha, the adversarial probe and two random rank-one ones
    func = dual_functional(phi)
    adv = _bottom_projectors(apply_second(pool, func.density, d))
    vv = np.array([random_unit_vector(rng, nm) for _ in range(2 * len(pool))])
    vv = vv.reshape(len(pool), 2, nm)
    rand = vv[..., :, None] * vv.conj()[..., None, :]
    probe = np.concatenate([adv[:, None], rand], axis=1)
    probes = apply_second(adjoint_choi(pool, sq)[:, None], probe, d)
    m3 = _least(_traces(func.density, probes).real)

    # (iv) complete positivity of the compositions alpha^t . phi
    m4 = _least(_min_eigs(apply_second(pool_t, phi.choi, d)))

    margins = {"i": float(m1), "ii": float(m2), "iii": float(m3), "iv": float(m4)}
    boundary = any(abs(v) <= band for v in margins.values())
    return Theorem1Conditions(
        m1 >= -thr, m2 >= -thr, m3 >= -thr, m4 >= -thr, boundary, margins
    )


def _theorem1_p_cone(
    phi: MapRep,
    c,
    samples: Sequence[MapRep],
    tol: float,
    n_probes: int,
) -> Theorem1Conditions:
    """The p-cone instance, decided by ``cones.in_E``.

    Both the Choi matrix and its full transpose go through ``in_E``; an
    UNDECIDED or a disagreement marks the trial as boundary.  Condition
    (i) pairs against PPT Choi samples and the OUT witness, condition
    (iii) evaluates the induced functional on probes built from the
    constructive violating map, and condition (iv) checks sampled
    compositions against the transposed verdict.  The PPT samples serve
    as Choi matrices of maps M_n -> M_m, so n = m is required.
    """
    d = phi.d
    n, m = d
    if n != m:
        raise ValueError("the p-cone instance needs square dimensions")
    scale = 1.0 + frob(c)
    thr = tol * scale
    band = 10.0 * thr
    cfg = DykstraConfig(tol=tol)

    v_c = in_E(c, d, cfg)
    v_t = in_E(both_transpose(c, d), d, cfg)

    margins: dict[str, float] = {
        "residual": float(v_c.info["residual"]),
        "residual_t": float(v_t.info["residual"]),
    }
    if v_c.status is Status.UNDECIDED or v_c.status is not v_t.status:
        return Theorem1Conditions(False, False, False, False, True, margins)
    out = v_c.status is Status.OUT
    pool = _choi_stack(samples, m * m)
    probe_maps = pool[: max(n_probes, 2)]
    comp_maps = probe_maps
    if out:
        wit = _witness_map(v_t.certificate.w, d)
        probe_maps = np.concatenate([probe_maps, wit.choi[None]])
        comp_wit = transpose_conj(_witness_map(v_c.certificate.w, d))
        comp_maps = np.concatenate([comp_maps, comp_wit.choi[None]])

    # (i): pairings with PPT Choi matrices (the Chois of p-positive maps)
    g = pool / np.trace(pool, axis1=-2, axis2=-1).real[:, None, None]
    m1 = _least(_pairings(c, g))
    if out:
        m1 = min(m1, pairing(phi, map_from_choi(n, m, v_c.certificate.w), tol=np.inf))
    b1 = m1 >= -thr

    # (iii): functional positivity on (id (x) alpha*)(probe) constructions
    func = dual_functional(phi)
    m3 = float(func(v_t.certificate.w).real) if out else np.inf
    adv = _bottom_projectors(apply_second(probe_maps, func.density, d))
    probes = apply_second(adjoint_choi(probe_maps, d), adv, d)
    m3 = min(m3, _least(_traces(func.density, probes).real))
    b3 = m3 >= -thr

    # (iv): sampled compositions, sharpened by the transposed-run verdict
    m4 = _least(_min_eigs(apply_second(both_transpose(comp_maps, d), phi.choi, d)))
    b4 = (m4 >= -thr) and not out

    b2 = not out
    margins.update({"i": float(m1), "iii": float(m3), "iv": float(m4)})
    boundary = any(abs(margins[k]) <= band for k in ("i", "iii", "iv"))
    return Theorem1Conditions(b1, b2, b3, b4, boundary, margins)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class TheoremReport:
    """Outcome of one verification suite.

    ``failures`` lists every check that exceeded its tolerance beyond
    the boundary band; ``undecided`` counts excluded boundary trials.
    ``elapsed`` is informational only and never serialized, keeping
    reports byte-identical across runs with identical arguments.
    """

    theorem: str
    n: int
    m: int
    trials: int
    seed: int
    tol: float
    failures: list = field(default_factory=list)
    undecided: int = 0
    checks: int = 0
    worst_violation: float = 0.0
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0

    def record_failure(self, trial: int, check: str, violation: float) -> None:
        violation = float(abs(violation))
        self.failures.append(
            {"trial": int(trial), "check": check, "violation": violation}
        )
        self.worst_violation = max(self.worst_violation, violation)

    def histogram(self) -> dict:
        buckets: dict[str, int] = {}
        for f in self.failures:
            v = f["violation"]
            if v <= 0:
                key = "0"
            else:
                key = f"1e{int(np.floor(np.log10(v)))}"
            buckets[key] = buckets.get(key, 0) + 1
        return dict(sorted(buckets.items()))

    def to_dict(self) -> dict:
        return {
            "schema": "mapcones-theorem-report/1",
            "theorem": self.theorem,
            "dims": {"n": self.n, "m": self.m},
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "status": "PASS" if self.passed else "FAIL",
            "checks": self.checks,
            "undecided": self.undecided,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "violation_histogram": self.histogram(),
            "notes": self.notes,
        }


def emit_report(report: TheoremReport, fmt: str = "json") -> str:
    """Serialize a report deterministically as JSON or markdown."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        d = report.to_dict()
        lines = [
            f"# {d['status']}: {d['theorem']} at {d['dims']['n']} x {d['dims']['m']}",
            "",
            f"- trials: {d['trials']}  (checks: {d['checks']}, undecided: {d['undecided']})",
            f"- seed: {d['seed']}, tol: {d['tol']!r}",
            f"- worst violation: {d['worst_violation']!r}",
        ]
        for note in d["notes"]:
            lines.append(f"- note: {note}")
        if d["failures"]:
            lines += ["", "| trial | check | violation |", "| --- | --- | --- |"]
            for f in d["failures"]:
                lines.append(f"| {f['trial']} | {f['check']} | {f['violation']!r} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# shared suite helpers
# ---------------------------------------------------------------------------


#: The cone that families 1-4 of ``_random_map`` and ``_operator_sample`` draw from.
_FAMILY_CONES = {1: ConeId.MAP_CP, 2: ConeId.MAP_COP, 3: ConeId.MAP_D, 4: ConeId.MAP_P}


def _random_map(rng: np.random.Generator, d: Dims, family: int) -> MapRep:
    """Mixed families of Hermitian-Choi maps, normalized to ||C||_F = n."""
    n, m = d
    nm = d.total
    k = family % 6
    if k == 0:
        c = random_hermitian(rng, nm)
    elif k in _FAMILY_CONES:
        c = random_cone_choi(_FAMILY_CONES[k], d, rng)
    else:
        c = random_hermitian(rng, nm) + 0.5 * random_psd(rng, nm)
    return map_from_choi(n, m, c * (n / max(frob(c), 1e-12)))


def _general_map(rng: np.random.Generator, d: Dims) -> MapRep:
    """A generic (not Hermiticity-preserving) linear map."""
    nm = d.total
    g = rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm))
    return map_from_choi(d.n, d.m, g)


def _fixture_perturbation(rng: np.random.Generator, eps: float = 0.005) -> MapRep:
    lam = fixtures.nondecomposable_map()
    h = random_hermitian(rng, 9)
    c = lam.choi + eps * frob(lam.choi) / max(frob(h), 1e-12) * h
    return map_from_choi(3, 3, c)


def _operator_sample(rng: np.random.Generator, d: Dims, family: int) -> np.ndarray:
    """Mixed Hermitian operators: generic, PSD, PT-PSD, e-cone, f-cone."""
    k = family % 5
    x = random_hermitian(rng, d.total) if k == 0 else random_cone_choi(_FAMILY_CONES[k], d, rng)
    return x / max(frob(x), 1e-12)


def _dual_side_choi(rng: np.random.Generator, cone: ConeId, d: Dims) -> np.ndarray:
    """A random trace-one Choi matrix in P(M, K^t), the dual-side operator cone."""
    x = random_cone_choi(_PARTNER[cone], d, rng)
    return x / float(np.trace(x).real)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_L4(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Transpose-conjugation identities of maps and their functionals."""
    idtol = 1e-12
    n, m = d
    for trial in range(trials):
        rng = substream(seed, 0x104, trial)
        phi = _general_map(rng, d) if trial % 2 else _random_map(rng, d, trial)
        c = phi.choi
        scale = 1.0 + frob(c)
        via_action = map_from_action(
            n, m, lambda e: full_transpose(apply_map(phi, full_transpose(e)))
        )
        r1 = frob(via_action.choi - both_transpose(c, d)) / scale
        r2 = frob(via_action.choi - full_transpose(c)) / scale
        report.checks += 2
        if r1 > idtol:
            report.record_failure(trial, "choi-of-transpose-conj vs t(x)t route", r1)
        if r2 > idtol:
            report.record_failure(trial, "choi-of-transpose-conj vs full transpose", r2)
        f = dual_functional(phi)
        ft = dual_functional(transpose_conj(phi))
        for k in range(20):
            x = rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape)
            den = 1.0 + frob(c) * frob(x)
            v1 = abs(ft(x) - f(both_transpose(x, d))) / den
            v2 = abs(ft(x) - f(full_transpose(x))) / den
            report.checks += 2
            if v1 > idtol:
                report.record_failure(trial, f"functional t(x)t identity probe {k}", v1)
            if v2 > idtol:
                report.record_failure(trial, f"functional transpose identity probe {k}", v2)


def _suite_L5(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Transposed-cone membership carried by t (x) t on operators."""
    idtol = 1e-11
    for trial in range(trials):
        rng = substream(seed, 0x105, trial)
        cone = _CONCRETE[trial % 4]
        pool = cone_generator_pool(cone, d, 4, seed + trial)
        x = _operator_sample(rng, d, trial)
        xt = both_transpose(x, d)
        scale = 1.0 + frob(x)
        for idx, alpha in enumerate(pool):
            lo_a = _min_eig(apply_second(transpose_conj(alpha), x, d))
            lo_b = _min_eig(apply_second(alpha, xt, d))
            report.checks += 1
            if abs(lo_a - lo_b) > idtol * scale:
                report.record_failure(
                    trial, f"{cone.value} sample {idx} spectral transport", abs(lo_a - lo_b)
                )
        va = pm_k_membership(x, d, k_t(pool), tol)
        vb = pm_k_membership(xt, d, pool, tol)
        report.checks += 1
        if va.status != vb.status:
            margin = min(
                abs(va.info.get("worst_min_eig", va.info.get("min_eig", 0.0))),
                abs(vb.info.get("worst_min_eig", vb.info.get("min_eig", 0.0))),
            )
            if margin <= 10 * tol * scale:
                report.undecided += 1
            else:
                report.record_failure(trial, "membership verdicts disagree", margin)


def _suite_L8(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The maximally entangled state criterion for complete positivity."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    n = d.n
    idtol = 1e-12
    for trial in range(trials):
        rng = substream(seed, 0x108, trial)
        phi = _random_map(rng, d, trial)
        c = phi.hermitian_choi(tol)
        scale = 1.0 + frob(c)
        adj = adjoint(phi)
        # bridge identity on random probes
        for k in range(8):
            x = random_psd(rng, n * n)
            lhs = float(trace_pairing(c, x).real)
            rhs = n * omega_eval(hermitian_part(apply_second(adj, x, d)), n)
            report.checks += 1
            den = 1.0 + frob(c) * frob(x)
            if abs(lhs - rhs) / den > idtol:
                report.record_failure(trial, f"pairing bridge probe {k}", abs(lhs - rhs) / den)
        # sign equivalence with an adversarial probe included
        w_eig, u = np.linalg.eigh(c)
        lo = float(w_eig[0])
        if abs(lo) <= 10 * tol * scale:
            report.undecided += 1
            continue
        best = np.inf
        probes = [np.outer(u[:, 0], u[:, 0].conj())]
        probes += [random_psd(rng, n * n, rank=1) for _ in range(16)]
        for x in probes:
            best = min(best, n * omega_eval(hermitian_part(apply_second(adj, x, d)), n))
        report.checks += 1
        cp_in = lo >= 0
        probe_in = best >= -10 * tol * scale
        if cp_in != probe_in:
            report.record_failure(trial, "cp sign vs entangled-state probe sign", abs(best))


def _suite_L10(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Positivity and factorization of the multiplication functional."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    idtol = 1e-12
    nm = d.total
    for trial in range(trials):
        rng = substream(seed, 0x10A, trial)
        g = rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm))
        val = trpi_eval(g @ g.conj().T, d)
        report.checks += 1
        if val.real < -idtol * (1.0 + frob(g) ** 2) or abs(val.imag) > idtol * (1.0 + frob(g) ** 2):
            report.record_failure(trial, "positivity on y y*", abs(min(val.real, 0.0)) + abs(val.imag))
        phi = _general_map(rng, d)
        f = dual_functional(phi)
        lifted = transpose_conj(adjoint(phi))
        for k in range(6):
            x = rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm))
            lhs = f(x)
            rhs = trpi_eval(apply_second(lifted, x, d), d)
            den = 1.0 + frob(phi.choi) * frob(x)
            report.checks += 1
            if abs(lhs - rhs) / den > idtol:
                report.record_failure(trial, f"factorization probe {k}", abs(lhs - rhs) / den)


def _suite_L15(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The PPT cone as the meet of the cp and cop instances."""
    ident = identity_map(d.m)
    trans = transpose_map(d.m)
    for trial in range(trials):
        rng = substream(seed, 0x10F, trial)
        x = _operator_sample(rng, d, trial)
        scale = 1.0 + frob(x)
        v = in_F(x, d, tol)
        va = pm_k_membership(x, d, [ident], tol)
        vb = pm_k_membership(x, d, [trans], tol)
        spectra = (
            _min_eig(x),
            _min_eig(partial_transpose(x, d)),
        )
        report.checks += 1
        if min(abs(s) for s in spectra) <= 10 * tol * scale:
            report.undecided += 1
            continue
        joint_in = va.status is Status.IN and vb.status is Status.IN
        if (v.status is Status.IN) != joint_in:
            report.record_failure(trial, "meet-of-cones equivalence", min(abs(s) for s in spectra))


def _suite_L16(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The decomposable-operator cone as the p-cone membership set."""
    cfg = DykstraConfig(tol=tol)
    pool = cone_generator_pool(ConeId.MAP_P, d, 4, seed)
    for trial in range(trials):
        rng = substream(seed, 0x110, trial)
        if trial % 2 == 0:
            x = random_psd(rng, d.total) + partial_transpose(random_psd(rng, d.total), d)
            x /= frob(x)
            scale = 1.0 + frob(x)
            v = in_E(x, d, cfg)
            report.checks += 1
            if v.status is not Status.IN:
                report.record_failure(trial, "constructed decomposition not recovered", v.info["residual"])
            for idx, alpha in enumerate(pool):
                lo = _min_eig(apply_second(alpha, x, d))
                report.checks += 1
                if lo < -tol * scale:
                    report.record_failure(trial, f"p-cone sample {idx} broke membership", abs(lo))
        else:
            x = random_hermitian(rng, d.total)
            x /= frob(x)
            v = in_E(x, d, cfg)
            if v.status is Status.UNDECIDED:
                report.undecided += 1
                continue
            if v.status is Status.OUT:
                # alpha_w maps M_m to M_n, so its Choi matrix has dims (m, n)
                alpha_w = _witness_map(v.certificate.w, d)
                lo = _min_eig(apply_second(alpha_w, x, d))
                report.checks += 1
                if lo >= 0.0:
                    report.record_failure(trial, "constructive violating map failed", lo)
                v = in_F(alpha_w.choi * (d.n / np.trace(alpha_w.choi).real), alpha_w.d, 1e-7)
                report.checks += 1
                if v.status is not Status.IN:
                    report.record_failure(trial, "violating map left the p cone", 1.0)


def _suite_L17(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """PPT Choi matrices exactly represent the p-positive maps."""
    ident = identity_map(d.m)
    trans = transpose_map(d.m)
    d_pool = cone_generator_pool(ConeId.MAP_D, d, 6, seed)
    for trial in range(trials):
        rng = substream(seed, 0x111, trial)
        if trial % 2 == 0:
            phi = sample_map(ConeId.MAP_P, d, rng)
            v = in_F(phi.choi, d, tol)
            report.checks += 1
            if v.status is not Status.IN:
                report.record_failure(trial, "p-cone sample without PPT Choi", 1.0)
            for idx, alpha in enumerate(d_pool):
                lo = _min_eig(apply_second(alpha, phi.choi, d))
                report.checks += 1
                if lo < -tol * (1.0 + frob(phi.choi)):
                    report.record_failure(trial, f"d-cone sample {idx} broke f-membership", abs(lo))
        else:
            x = random_hermitian(rng, d.total)
            x /= frob(x)
            scale = 1.0 + frob(x)
            spectra = (_min_eig(x), _min_eig(partial_transpose(x, d)))
            if min(abs(s) for s in spectra) <= 10 * tol * scale:
                report.undecided += 1
                continue
            in_f = in_F(x, d, tol).status is Status.IN
            detected = (
                _min_eig(apply_second(ident, x, d)) < -tol * scale
                or _min_eig(apply_second(trans, x, d)) < -tol * scale
            )
            report.checks += 1
            if in_f == detected:
                report.record_failure(trial, "canonical detectors disagree with f", min(abs(s) for s in spectra))


def _suite_T1(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Four-way agreement of the dual-cone conditions on random maps."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    pools = {}
    kd_pools = {}
    for cone in _CONCRETE:
        count = 16 if cone is ConeId.MAP_P else 12
        pools[cone] = cone_generator_pool(cone, d, count, seed + 17)
        kd_pools[cone] = kd_generators(pools[cone])
    for trial in range(trials):
        rng = substream(seed, 0x201, trial)
        phi = _random_map(rng, d, trial)
        for cone in _CONCRETE:
            conds = theorem1_conditions(
                phi,
                cone,
                samples=pools[cone],
                tol=tol,
                seed=seed + 1000 * trial,
                kd_samples=kd_pools[cone],
            )
            report.checks += 1
            if conds.boundary:
                report.undecided += 1
                continue
            if not conds.agree:
                pattern = "".join("T" if b else "F" for b in conds.as_tuple())
                margin = min(
                    abs(v) for k, v in conds.margins.items() if k in ("i", "ii", "iii", "iv")
                )
                report.record_failure(trial, f"{cone.value} pattern {pattern}", margin)


def _suite_T6(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Double-dual consistency: primal and dual-characterized samples pair >= 0."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    cp_pool = cone_generator_pool(ConeId.MAP_CP, d, 6, seed + 3)
    pools = {c: cone_generator_pool(c, d, 8, seed + 5) for c in _CONCRETE}
    kd_pools = {c: kd_generators(pools[c]) for c in _CONCRETE}
    for trial in range(trials):
        rng = substream(seed, 0x206, trial)
        cone = _CONCRETE[trial % 4]
        # primal-side member of the K-positive cone
        if trial % 2 == 0:
            alpha = kd_pools[cone][int(rng.integers(len(kd_pools[cone])))]
            psi = cp_pool[int(rng.integers(len(cp_pool)))]
            member = compose_left(alpha, psi)
        else:
            member = map_from_choi(d.n, d.m, d.n * _dual_side_choi(rng, _PARTNER[cone], d))
        dual = map_from_choi(d.n, d.m, d.n * _dual_side_choi(rng, cone, d))
        val = pairing(member, dual)
        val2 = pairing(dual, member)
        scale = 1.0 + frob(member.choi) * frob(dual.choi)
        report.checks += 2
        if val < -tol * scale:
            report.record_failure(trial, f"{cone.value} forward pairing", abs(val))
        if val2 < -tol * scale:
            report.record_failure(trial, f"{cone.value} reverse pairing", abs(val2))
        if trial % 4 == 3 and cone is not ConeId.MAP_D:
            # a map outside the primal cone must be caught by a dual
            # sample built from its own escape certificate (skipped for
            # K = d, whose escape needs the feasibility engine and is
            # exercised by the C19 and T18 suites)
            phi = _random_map(rng, d, trial)
            margin = _kpositivity_margin(cone, phi.hermitian_choi(tol), d)
            if margin >= 0 or abs(margin) <= 10 * tol * (1 + frob(phi.choi)):
                report.undecided += 1
                continue
            caught = _certificate_pairing(phi, cone, d, tol)
            report.checks += 1
            if caught >= -tol * (1 + frob(phi.choi)):
                report.record_failure(trial, f"{cone.value} escape not caught", abs(margin))


#: For K-positivity, the membership cone of the Choi matrix is the
#: partner's operator cone: cp maps have PSD Chois, cop maps PT-PSD
#: Chois, p-positive maps PPT Chois, d-positive maps decomposable Chois.
_PARTNER = {
    ConeId.MAP_CP: ConeId.MAP_CP,
    ConeId.MAP_COP: ConeId.MAP_COP,
    ConeId.MAP_P: ConeId.MAP_D,
    ConeId.MAP_D: ConeId.MAP_P,
}


def _kpositivity_margin(cone: ConeId, c: np.ndarray, d: Dims) -> float:
    """Spectral margin of K-positivity of a map with Choi matrix c.

    K-positive maps have Choi matrices in {PSD, PT-PSD, the f cone} for
    K in {cp, cop, p}; the d instance has no spectral form.
    """
    if cone is ConeId.MAP_CP:
        return _min_eig(c)
    if cone is ConeId.MAP_COP:
        return _min_eig(partial_transpose(c, d))
    if cone is ConeId.MAP_P:
        return min(_min_eig(c), _min_eig(partial_transpose(c, d)))
    raise ValueError(f"no spectral K-positivity margin for {cone}")


def _certificate_pairing(phi: MapRep, cone: ConeId, d: Dims, tol: float) -> float:
    """Best pairing of phi against certificate-derived dual-side elements.

    The candidates are rank-one (or partially transposed rank-one)
    Choi matrices taken from the negative eigenspaces; each lies in the
    dual-side cone P(M, K^t) of the instance that uses it.
    """
    c = phi.hermitian_choi(tol)
    vals = []
    if cone in (ConeId.MAP_CP, ConeId.MAP_P):
        w, u = np.linalg.eigh(c)
        v = u[:, [0]]
        vals.append(pairing(phi, map_from_choi(d.n, d.m, v @ v.conj().T), tol=np.inf))
    if cone in (ConeId.MAP_COP, ConeId.MAP_P):
        pt = hermitian_part(partial_transpose(c, d))
        w2, u2 = np.linalg.eigh(pt)
        v2 = u2[:, [0]]
        vals.append(
            pairing(phi, map_from_choi(d.n, d.m, partial_transpose(v2 @ v2.conj().T, d)), tol=np.inf)
        )
    return min(vals)


def _suite_T12(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Sharp-cone duality for transpose-invariant cones, square case."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    cfg = DykstraConfig(tol=tol)
    pools = {c: cone_generator_pool(c, d, 8, seed + 11) for c in _CONCRETE}
    for trial in range(trials):
        rng = substream(seed, 0x20C, trial)
        cone = _CONCRETE[trial % 4]
        beta = _random_map(rng, d, trial + 1)
        c = beta.hermitian_choi(tol)
        scale = 1.0 + frob(c)
        # closed-form membership in K-sharp
        if cone is ConeId.MAP_P:  # sharp cone is d
            v = in_E(c, d, cfg)
            undecided = v.status is Status.UNDECIDED
            closed = v.status is Status.IN
        else:
            margin = _kpositivity_margin(_PARTNER[cone], c, d)
            undecided = abs(margin) <= 10 * tol * scale
            closed = margin >= -tol * scale
        if undecided:
            report.undecided += 1
            continue
        samples = list(pools[cone])
        if cone is ConeId.MAP_P and not closed:
            cb = hermitian_part(adjoint(beta).choi)
            wit = witness_search(cb, d, cfg)
            if wit is not None:
                samples.append(adjoint(map_from_choi(d.n, d.m, wit.w)))
        verdict = ksharp_membership(beta, samples, tol)
        report.checks += 1
        if (verdict.status is Status.IN) != closed:
            report.record_failure(trial, f"{cone.value} sharp membership mismatch", 1.0)
        # transpose symmetry of sharp membership through the adjoint
        if cone is not ConeId.MAP_P:
            adj = adjoint(beta)
            a = _kpositivity_margin(_PARTNER[cone], hermitian_part(adj.choi), d)
            b = _kpositivity_margin(_PARTNER[cone], hermitian_part(transpose_conj(adj).choi), d)
            report.checks += 1
            if min(abs(a), abs(b)) <= 10 * tol * scale:
                report.undecided += 1
            elif (a >= 0) != (b >= 0):
                report.record_failure(trial, f"{cone.value} transpose symmetry", min(abs(a), abs(b)))


def _suite_T13(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Nonnegative pairing between the p cone and the decomposable cone."""
    for trial in range(trials):
        rng = substream(seed, 0x20D, trial)
        phi = sample_map(ConeId.MAP_P, d, rng)
        psi = sample_map(ConeId.MAP_D, d, rng)
        scale = 1.0 + frob(phi.choi) * frob(psi.choi)
        v1 = pairing(phi, psi)
        v2 = pairing(psi, phi)
        report.checks += 2
        if v1 < -tol * scale:
            report.record_failure(trial, "p against d pairing", abs(v1))
        if v2 < -tol * scale:
            report.record_failure(trial, "d against p pairing", abs(v2))
    if d == (3, 3):
        lam = fixtures.nondecomposable_map()
        w_state, _ = fixtures.ppt_entangled_state()
        val = pairing(lam, map_from_choi(3, 3, w_state))
        report.checks += 1
        report.notes.append(f"fixture pairing value {val!r}")
        if not val < -1e-6:
            report.record_failure(trials, "fixture violation missing", abs(val))


def _suite_T18(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The sharp dual of the p cone is the decomposable cone."""
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    cfg = DykstraConfig(tol=tol)
    p_pool = cone_generator_pool(ConeId.MAP_P, d, 16, seed + 7)
    for trial in range(trials):
        rng = substream(seed, 0x212, trial)
        # exact inclusion direction: decomposable . p-adjoint stays cp
        beta = sample_map(ConeId.MAP_D, d, rng)
        alpha = p_pool[trial % len(p_pool)]
        comp = compose_left(beta, adjoint(alpha))
        lo = _min_eig(comp.choi)
        report.checks += 1
        if lo < -tol * (1.0 + frob(comp.choi)):
            report.record_failure(trial, "d-sample composition left cp", abs(lo))
        # agreement of the sampled sharp test with decomposability
        if trial % 3 == 0:
            if trial % 6 == 0:
                cand = _fixture_perturbation(rng) if d == (3, 3) else _random_map(rng, d, trial)
            else:
                cand = _random_map(rng, d, trial)
            c = cand.hermitian_choi(tol)
            v = in_E(c, d, cfg)
            if v.status is Status.UNDECIDED:
                report.undecided += 1
                continue
            decomposable = v.status is Status.IN
            samples = list(p_pool)
            if not decomposable:
                cb = hermitian_part(adjoint(cand).choi)
                wit = witness_search(cb, d, cfg)
                if wit is not None:
                    samples.append(adjoint(map_from_choi(d.n, d.m, wit.w)))
            verdict = ksharp_membership(cand, samples, tol)
            report.checks += 1
            if (verdict.status is Status.IN) != decomposable:
                report.record_failure(trial, "sharp test vs decomposability", 1.0)


def _suite_C2(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The positive-maps instance, with the separability condition."""
    exact = tuple(sorted(d)) in {(2, 2), (2, 3)}
    pool = cone_generator_pool(ConeId.MAP_POS, d, 10, seed + 19)
    kd_pool = kd_generators(pool)
    families = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_S, ConeId.MAP_POS)
    for trial in range(trials):
        rng = substream(seed, 0x2C2, trial)
        phi = sample_map(families[trial % len(families)], d, rng)
        c = phi.hermitian_choi(tol)
        scale = 1.0 + frob(c)
        conds = theorem1_conditions(
            phi, ConeId.MAP_POS, samples=pool, tol=tol, seed=seed + trial, kd_samples=kd_pool
        )
        report.checks += 1
        if conds.boundary:
            report.undecided += 1
            continue
        if not conds.agree:
            pattern = "".join("T" if b else "F" for b in conds.as_tuple())
            report.record_failure(trial, f"conditions pattern {pattern}", 1.0)
            continue
        if exact:
            spectra = (_min_eig(c), _min_eig(partial_transpose(c, d)))
            if min(abs(s) for s in spectra) <= 10 * tol * scale:
                report.undecided += 1
                continue
            density = hermitian_part(both_transpose(c, d))
            report.checks += 1
            if _min_eig(density) < -tol * scale:
                # the functional is not even a state, hence not separable
                sep_in = False
            else:
                sep = is_separable(density / float(np.trace(density).real), d, tol)
                if sep.status is Status.UNDECIDED:
                    report.undecided += 1
                    continue
                sep_in = sep.status is Status.IN
            if sep_in != conds.choi_membership:
                report.record_failure(trial, "separability vs membership", min(abs(s) for s in spectra))


def _certificate_problem(v, x: np.ndarray, d: Dims, tol: float) -> Optional[str]:
    """Re-derive an ``in_E`` certificate with plain eigenvalue checks; None when it holds."""
    scale = 1.0 + frob(x)

    def psd(a):
        return _min_eig(a) >= -tol * (1.0 + frob(a))

    cert = v.certificate
    if v.status is Status.IN:
        if not (psd(cert.a) and psd(cert.b)):
            return "decomposition part not PSD"
        if frob(x - cert.a - partial_transpose(cert.b, d)) > tol * scale:
            return "decomposition residual"
        return None
    w = cert.w
    if not (psd(w) and psd(partial_transpose(w, d))):
        return "witness not PPT"
    if abs(float(np.trace(w).real) - 1.0) > 1e-9:
        return "witness trace"
    if float(trace_pairing(w, x).real) > -10 * tol * scale:
        return "witness inside the band"
    return None


def _suite_C19(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Decomposability matches the absence of a PPT witness.

    ``in_E`` answers with a decomposition (IN) or a PPT witness (OUT);
    the suite re-derives that certificate independently (the spectra of
    both parts and the residual, or the spectra of w and PT(w), its trace
    and its pairing with the Choi matrix) and checks the violation-value
    identity on every witness.
    """
    if d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    cfg = DykstraConfig(tol=tol)
    idtol = 1e-12
    for trial in range(trials):
        rng = substream(seed, 0x2D3, trial)
        k = trial % 3
        if k == 0:
            phi = sample_map(ConeId.MAP_D, d, rng)
        elif k == 1 and d == (3, 3):
            phi = _fixture_perturbation(rng)
        else:
            phi = _random_map(rng, d, trial)
        c = phi.hermitian_choi(tol)
        v = in_E(c, d, cfg)
        if v.status is Status.UNDECIDED:
            report.undecided += 1
            continue
        problem = _certificate_problem(v, c, d, tol)
        report.checks += 1
        if problem is not None:
            report.record_failure(trial, f"certificate re-validation: {problem}", 1.0)
        if v.status is Status.OUT and problem is None:
            w = v.certificate.w
            lhs = float(trace_pairing(c, w).real)
            rhs = d.n * omega_eval(hermitian_part(apply_second(adjoint(phi), w, d)), d.n)
            report.checks += 1
            den = 1.0 + frob(c) * frob(w)
            if abs(lhs - rhs) / den > idtol:
                report.record_failure(trial, "violation value identity", abs(lhs - rhs) / den)


SUPPORTED_THEOREMS = {
    "T1": _suite_T1,
    "T6": _suite_T6,
    "T12": _suite_T12,
    "T13": _suite_T13,
    "T18": _suite_T18,
    "C2": _suite_C2,
    "C19": _suite_C19,
    "L4": _suite_L4,
    "L5": _suite_L5,
    "L8": _suite_L8,
    "L10": _suite_L10,
    "L15": _suite_L15,
    "L16": _suite_L16,
    "L17": _suite_L17,
}


def verify(
    theorem_id: str,
    d: Dims,
    trials: int,
    seed: int,
    tol: float = 1e-9,
) -> TheoremReport:
    """Run one verification suite and return its report.

    The report is a pure function of the arguments; rerunning with the
    same arguments reproduces it exactly (the wall-time attribute is
    informational and excluded from serialization).  Raises ValueError
    for an unknown id, invalid dims, ``trials < 1`` or a ``tol`` that is
    not finite and positive.
    """
    theorem_id = theorem_id.upper()
    if theorem_id not in SUPPORTED_THEOREMS:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; supported: {sorted(SUPPORTED_THEOREMS)}"
        )
    d = Dims(*d).validate()
    if int(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    report = TheoremReport(theorem_id, d.n, d.m, int(trials), int(seed), float(tol))
    start = time.perf_counter()
    SUPPORTED_THEOREMS[theorem_id](report, d, int(trials), int(seed), float(tol))
    report.elapsed = time.perf_counter() - start
    return report
