"""Randomized verification suites for the duality structure of map cones.

Each suite draws seeded random instances, computes both sides of a
duality statement through independent code paths, and records every
disagreement beyond tolerance.  The four dual-cone conditions

    (i)    nonnegative pairing against the generators of the primal cone,
    (ii)   membership of the Choi matrix in the partner operator cone,
    (iii)  positivity of the induced functional on transformed probes,
    (iv)   complete positivity of all compositions with cone elements,

are computed exactly for the cp / cop / p / d cones via the partner
operator oracles (PSD, PT-PSD, ``cones.in_E`` for the ``e`` cone, and the
``f`` spectra), and by sampling plus one certificate-guided adversarial
probe per sample for everything else.  T1 and C2 draw every trial's map
first and evaluate the four conditions for all of them at once, over a
(trials x pool) stack.  L5, L8, L10, L15, L17 and T6 do the same for
their own checks: every trial's inputs are drawn first, each stack
passes one Hermiticity gate, and each check is one ``apply_second`` and
one batched eigensolver call over the (trials x probes or pool) stack,
whose verdicts come from the stacked cores of the oracles the suite
cross-checks (``in_F``, ``pm_k_membership``'s ``_sampled_least_eigs``
and the spectral oracles).  The cores of ``in_F`` and of sampled
membership classify from eigenvalues alone and run ``eigh`` only on the
matrices whose verdict carries a ``MinEigCert``.  L4 draws its maps and
probes first as well, and forms the action route of every map of a run
of trials with one batched product.  Every ``e``-cone decision is the
status of one ``in_E`` call, whose OUT certificate is the PPT witness the
suite builds its probes from; T1's p cone adds that witness, as a p-cone
map, to the map's own samples, and T12 and T18 add it itself to the
p-cone samples of their shared sharp check.  Every margin becomes IN, OUT or
UNDECIDED through ``cones.classify``; a trial that compares a margin
``classify`` puts in the band is counted UNDECIDED and excluded from
pass/fail accounting rather than silently counted as a pass.

The suites hold their maps, draws and generator pools as Choi stacks,
the pools from ``sampling._generator_pool_chois``.  ``MapRep`` appears
only in the public wrappers ``theorem1_conditions`` and
``ksharp_membership``, which convert once, and in T13's fixture note,
which tests ``pairing``.

Reports are pure functions of (theorem id, dims, trials, seed, tol):
identical arguments produce byte-identical serialized reports.  Wall
time is tracked on the report object but never serialized.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import fixtures
from .choi import (
    DualFunctional,
    MapRep,
    adjoint_choi,
    apply_second,
    map_from_choi,
    matrix_unit,
    omega_eval,
    pairing,
    trpi_eval,
)
from .cones import (
    _EXACT_PPT_DIMS,
    ConeId,
    Status,
    Verdict,
    _check_tol,
    _cop_stack,
    _cp_stack,
    _hermitian_spectra,
    _ppt_stack,
    _sample_stack,
    _sampled_least_eigs,
    _separable,
    _UnknownName,
    classify,
    in_E,
    in_F,
)
from .linalg import (
    Dims,
    both_transpose,
    check_hermitian,
    frob,
    frobs,
    full_transpose,
    hermitian_part,
    partial_transpose,
    trace_pairing,
)
from .sampling import (
    _canonical_chois,
    _complex_normals,
    _generator_pool_chois,
    _gram,
    _normals,
    _random_cone_chois,
    _sample_chois,
    random_hermitian,
    random_psd,
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

#: Condition (ii) for K asks that the Choi matrix lie in the operator cone of
#: K's partner, which ``_partner_test`` decides: PSD for cp, PT-PSD for cop,
#: the ``e`` cone (decomposable) for p and the ``f`` cone (PPT) for d.
_PARTNER = {
    ConeId.MAP_CP: ConeId.MAP_CP,
    ConeId.MAP_COP: ConeId.MAP_COP,
    ConeId.MAP_P: ConeId.MAP_D,
    ConeId.MAP_D: ConeId.MAP_P,
}

_CONCRETE = tuple(_PARTNER)


# ---------------------------------------------------------------------------
# K-sharp membership
# ---------------------------------------------------------------------------


def ksharp_membership(
    beta: MapRep,
    k_samples: Sequence[MapRep],
    tol: float = 1e-9,
) -> Verdict:
    """Sampled test that beta . alpha* is completely positive for all alpha.

    Every sample maps M_n, beta's input space, to one common M_k; raises
    ValueError for no samples, a sample that breaks this rule, or beta or
    a sample that is not Hermiticity preserving.  OUT with the violating
    sample is exact; IN is relative to the sample set and flagged
    heuristic.  Square dimensions only.  This wraps ``_ksharp_stack`` on
    beta's own (gated, not symmetrized) Choi matrix and the samples' stack.
    """
    n = beta.n
    if n != beta.m:
        raise ValueError("sharp-cone membership needs square dimensions")
    beta.hermitian_choi(tol)
    return _ksharp_stack(beta.choi, _sample_stack(k_samples, n), n, tol)


def _ksharp_stack(beta_choi: np.ndarray, pool: np.ndarray, n: int, tol: float) -> Verdict:
    """``ksharp_membership`` of the map with Choi matrix beta_choi on M_n, against a pool of Choi matrices.

    The pool is a (samples, nk, nk) stack of maps M_n -> M_k.  The Choi
    matrices of every beta . alpha* come from one ``apply_second`` on the
    stacked adjoints.
    """
    k = pool.shape[-1] // n
    images = apply_second(beta_choi, adjoint_choi(pool, Dims(n, k)), Dims(k, n))
    return _sampled_least_eigs(*_hermitian_spectra(images), tol)[0]


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

    @property
    def pattern(self) -> str:
        """The four booleans as T/F letters, e.g. ``"TTFT"``."""
        return "".join("T" if b else "F" for b in self.as_tuple())


def _witness_choi(w: np.ndarray, d: Dims) -> np.ndarray:
    """The Choi matrix, of dims (m, n), of the cone-p map whose induced functional has density w.

    For w in the PPT cone the map with Choi matrix w^T is both cp and
    cop; its adjoint composed with transpose conjugation is again in the
    p cone and violates positivity on any operator pairing negatively
    with w.  This is the constructive route around the Hahn-Banach step.
    """
    return both_transpose(adjoint_choi(both_transpose(w, d), d), Dims(d.m, d.n))


def _min_eigs(x) -> np.ndarray:
    """Least eigenvalue of the Hermitian part, matrix by matrix over leading axes."""
    return np.linalg.eigvalsh(hermitian_part(x))[..., 0]


def _partner_test(cone: ConeId, c: np.ndarray, d: Dims, tol: float) -> tuple[np.ndarray, list, list]:
    """Margins, statuses and PPT witnesses (or None) of condition (ii) for each of a stack of gated Choi matrices.

    For cp, cop and d the margins are the least eigenvalues of C, PT(C)
    or both, classified at 1 + ||C||_F.  For p they are ``cones.in_E``'s
    certified lower bound on IN and witness value on OUT, with its
    statuses and the OUT maps' witnesses w.
    """
    if cone is ConeId.MAP_P:
        verdicts = [in_E(ck, d, tol) for ck in c]
        witnesses = [v.certificate.w if v.status is Status.OUT else None for v in verdicts]
        margins = np.array([v.info["lower" if w is None else "upper"] for v, w in zip(verdicts, witnesses)])
        return margins, [v.status for v in verdicts], witnesses
    if cone is ConeId.MAP_CP:
        margins = _min_eigs(c)
    elif cone is ConeId.MAP_COP:
        margins = _min_eigs(partial_transpose(c, d))
    elif cone is ConeId.MAP_D:
        margins = np.minimum(_min_eigs(c), _min_eigs(partial_transpose(c, d)))
    else:
        raise ValueError(f"no exact test of condition (ii) for {cone}")
    return margins, [classify(float(m), 1.0 + frob(ck), tol) for m, ck in zip(margins, c)], [None] * len(c)


#: Entries (complex128) of the largest stack of images, (maps x pool) in
#: ``_theorem1_stack`` and (trials x probes or pool) in a suite, that is
#: built at once, 1 MiB; longer runs go in chunks.
_STACK_ENTRIES = 1 << 16


def _runs(count: int, entries: int) -> list[slice]:
    """Consecutive runs over ``count`` items, each of at most ``_STACK_ENTRIES // entries`` (at least one).

    ``entries`` is the size of one item's stack of images.
    """
    step = max(1, _STACK_ENTRIES // entries)
    return [slice(start, start + step) for start in range(0, count, step)]


def _in_runs(count: int, entries: int, f) -> np.ndarray:
    """``f(run)`` for each of ``_runs(count, entries)``, concatenated along the first axis."""
    parts = [f(run) for run in _runs(count, entries)]
    return np.concatenate(parts) if parts else np.empty(0)


def theorem1_conditions(
    phi: MapRep,
    cone: ConeId,
    samples: Optional[Sequence[MapRep]] = None,
    tol: float = 1e-9,
    seed: int = 0,
) -> Theorem1Conditions:
    """Evaluate the four dual-cone conditions for one map and one cone.

    ``samples`` are elements of the cone acting on the second factor:
    every sample maps M_m to M_m, else ValueError.  An empty list is
    allowed, and every condition read from the samples then has an
    infinite margin.  When omitted a small seeded pool with the
    canonical elements is drawn.  For the cp / cop / p / d cones
    condition (ii) is exact: spectral for cp, cop and d, and
    ``cones.in_E``'s verdict for the p cone, whose OUT witness joins the
    samples.  ``margins`` holds the four margins i, ii, iii and iv.  This
    is ``_theorem1_stack`` on a stack of one map and the samples' Choi
    stack; the suites call it on all their trials at once.
    """
    if not cone.is_map_cone:
        raise ValueError(f"{cone} is not a map cone")
    d = phi.d
    pool = _generator_pool_chois(cone, d, 8, [seed])[0] if samples is None else _sample_stack(samples, d.m, d.m)
    return _theorem1_stack(phi.choi[None], phi.hermitian_choi(tol)[None], d, cone, pool, tol)[0]


def _sample_margins(
    c: np.ndarray, density: np.ndarray, samples: np.ndarray, d: Dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i), (iii) and (iv) for each of a (maps, nm, nm) stack of gated Choi matrices, against its samples.

    ``samples`` holds Choi matrices of cone elements alpha on M_m, as a
    (samples,) or (maps, samples) stack, and ``density`` the maps'
    functional densities (t (x) t)(raw).  Since (i)_alpha = (iii)_alpha =
    lambda_min(Y_alpha) (see ``_theorem1_stack``), one ``eigvalsh`` over
    the (maps x samples) stack of Y gives (iv) and each map's worst
    sample, one ``eigh`` over the maps' worst images gives psi, and (i)
    and (iii) are paired at that sample only.  No samples give infinite
    margins.
    """
    if samples.shape[-3] == 0:
        return np.full((3, len(c)), np.inf)
    sq = Dims(d.m, d.m)
    y = hermitian_part(apply_second(both_transpose(samples, sq), c[:, None], d))
    lows = np.linalg.eigvalsh(y)[..., 0]
    maps = np.arange(len(c))
    worst = np.argmin(lows, axis=-1)
    v = np.linalg.eigh(y[maps, worst])[1][..., :1]
    psi = v @ v.conj().swapaxes(-1, -2)
    alpha_adj = adjoint_choi(np.broadcast_to(samples, lows.shape + samples.shape[-2:])[maps, worst], sq)

    # (i) pairing against the primal cone's generator (t . alpha* . t) . psi
    m1 = [trace_pairing(ck, zk).real for ck, zk in zip(c, apply_second(both_transpose(alpha_adj, sq), psi, d))]
    # (iii) positivity of the induced functional, whose density is
    # C_{t.phi.t}, at the rank-one probe alpha*(conj(psi))
    probes = apply_second(alpha_adj, psi.conj(), d)
    m3 = [trace_pairing(fk, pk).real for fk, pk in zip(density, probes)]
    # (iv) complete positivity of the compositions alpha^t . phi
    return np.array(m1), np.array(m3), lows[maps, worst]


def _theorem1_stack(
    raw: np.ndarray, chois: np.ndarray, d: Dims, cone: ConeId, pool: np.ndarray, tol: float
) -> list[Theorem1Conditions]:
    """The four dual-cone conditions for each of a (maps, nm, nm) stack of Choi matrices, against one pool.

    The pool is a (samples, m^2, m^2) stack of Choi matrices of
    Hermiticity-preserving cone elements on M_m: a library draw, or a
    sample list that passed ``_sample_stack``'s gate.  ``chois`` is the
    caller's gate of ``raw``.  For each sample alpha the image
    Y_alpha = (id (x) alpha^t)(C) carries every condition read from the
    samples, as (i)_alpha = (iii)_alpha = (iv)_alpha = lambda_min(Y_alpha):

    - (i) pairs C with t . alpha* . t, the adjoint of alpha^t, applied
      to the bottom projector psi of Y;
    - (ii) is ``_partner_test`` on C for the cp, cop, p and d cones (an
      UNDECIDED ``in_E`` verdict marks the map as boundary), and (iv)
      for a cone without a partner (pos, s);
    - (iii) evaluates the induced functional, whose density is the full
      transpose of C, at alpha*(conj(psi)): (id (x) alpha)((t (x) t) C)
      is the full transpose of Y, so conj(psi) is its bottom projector;
    - (iv) is the least eigenvalue of Y: the Choi matrix of
      alpha^t . phi is (id (x) alpha^t)(raw), and for a
      Hermiticity-preserving alpha its Hermitian part is Y up to
      rounding.

    So ``_sample_margins`` makes one ``eigvalsh`` over the (maps x pool)
    stack of Y, which gives (iv) and each map's worst sample, and one
    ``eigh`` over the maps' worst images.  (i) and (iii) are paired at
    the worst sample only, map by map, so every margin is bit for bit
    the one a stack of one gives.

    An OUT map of the p cone gets one more sample of its own: the partner
    test's PPT witness w as the p-cone map t . (map of w^T)* . t, whose
    Choi matrix on M_m is the adjoint of (t (x) t)(w), and at whose image
    (i), (iii) and (iv) are negative.  These samples form a (maps, 1)
    stack next to the shared (maps x pool) one, read the same way.  The
    p cone's samples serve as Choi matrices of maps M_n -> M_m, so it
    needs n = m.  Maps are taken in chunks of at most ``_STACK_ENTRIES``
    stack entries, so memory does not grow with the number of maps.
    """
    if cone is ConeId.MAP_P and d.n != d.m:
        raise ValueError("the p-cone instance needs square dimensions")
    out = []
    for run in _runs(len(raw), max(len(pool), 1) * d.total**2):
        c, r = chois[run], raw[run]

        density = both_transpose(r, d)
        m1, m3, m4 = _sample_margins(c, density, pool, d)
        # (ii) membership of the Choi matrix in the partner operator cone;
        # for a cone without one, sampled membership through the transposed samples
        m2, s2, witnesses = _partner_test(cone, c, d, tol) if cone in _PARTNER else (m4, None, ())
        # an OUT map's witness joins that map's samples
        outs = [k for k, w in enumerate(witnesses) if w is not None]
        if outs:
            w = adjoint_choi(both_transpose(np.array([witnesses[k] for k in outs]), d), d)
            at_w = _sample_margins(c[outs], density[outs], w[:, None], d)
            for m, g in zip((m1, m3, m4), at_w):
                m[outs] = np.minimum(m[outs], g)

        for k, ck in enumerate(c):
            margins = {"i": float(m1[k]), "ii": float(m2[k]), "iii": float(m3[k]), "iv": float(m4[k])}
            scale = 1.0 + frob(ck)
            status = [classify(v, scale, tol) for v in margins.values()]
            if s2 is not None:
                status[1] = s2[k]
            out.append(Theorem1Conditions(*(s is Status.IN for s in status), Status.UNDECIDED in status, margins))
    return out


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

    def check(self, trial: int, label: str, violation: float, failed: Optional[bool]) -> None:
        """Count one check: a failure when ``failed``, UNDECIDED when it is None.

        ``violation`` is read only for a failure.
        """
        self.checks += 1
        if failed is None:
            self.undecided += 1
        elif failed:
            self.record_failure(trial, label, violation)

    def check_margin(self, trial: int, label: str, margin: float, scale: float, tol: float) -> None:
        """Count one check of a margin that must be IN, decided by ``classify``.

        OUT is a failure with violation ``abs(margin)``, and a margin in
        the band counts as UNDECIDED.
        """
        status = classify(margin, scale, tol)
        self.check(trial, label, abs(margin), None if status is Status.UNDECIDED else status is Status.OUT)

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


#: The cone that families 1-4 of ``_random_map_chois`` and ``_operator_samples`` draw from.
_FAMILY_CONES = {1: ConeId.MAP_CP, 2: ConeId.MAP_COP, 3: ConeId.MAP_D, 4: ConeId.MAP_P}


def _gaussian_stack(rngs: Sequence[np.random.Generator], count: int, k: int) -> np.ndarray:
    """``count`` draws of normal((k, k)) + 1j normal((k, k)) from each generator, in stream order.

    The result has shape (len(rngs), count, k, k).
    """
    return _complex_normals(_normals(rngs, 2 * count * k * k), k)


def _hermitian_stack(rngs: Sequence[np.random.Generator], k: int) -> np.ndarray:
    """``random_hermitian(rng, k)`` drawn once from each generator, as a (len(rngs), k, k) stack."""
    return hermitian_part(_gaussian_stack(rngs, 1, k)[:, 0])


def _random_map(rng: np.random.Generator, d: Dims, family: int) -> MapRep:
    """Mixed families of Hermitian-Choi maps, normalized to ||C||_F = n."""
    return map_from_choi(d.n, d.m, _random_map_chois(d, [rng], [family])[0])


def _random_map_chois(d: Dims, rngs: Sequence[np.random.Generator], families: Sequence[int]) -> np.ndarray:
    """The Choi matrix of ``_random_map(rng, d, family)`` for each generator and family, as a stack.

    The generators of each family draw as one stack, in their own stream order.
    """
    nm = d.total

    def draw(k, part):
        if k == 0:
            return _hermitian_stack(part, nm)
        if k in _FAMILY_CONES:
            return _random_cone_chois(_FAMILY_CONES[k], d, part)
        g = _gaussian_stack(part, 2, nm)
        return hermitian_part(g[:, 0]) + 0.5 * _gram(g[:, 1])

    c = np.array(_grouped([f % 6 for f in families], rngs, draw), dtype=np.complex128).reshape(len(rngs), nm, nm)
    return c * np.array([d.n / max(frob(ck), 1e-12) for ck in c])[:, None, None]


def _fixture_perturbation(rng: np.random.Generator) -> np.ndarray:
    """The shipped map's Choi matrix plus a random Hermitian matrix of relative norm 0.005."""
    lam = fixtures.nondecomposable_map().choi
    h = random_hermitian(rng, 9)
    return lam + 0.005 * frob(lam) / max(frob(h), 1e-12) * h


def _operator_samples(d: Dims, rngs: Sequence[np.random.Generator], families: Sequence[int]) -> np.ndarray:
    """Mixed Hermitian operators of unit norm, one per generator, drawn as one stack per family.

    Family k mod 5 is generic, PSD, PT-PSD, e-cone or f-cone.
    """

    def draw(k, part):
        return _hermitian_stack(part, d.total) if k == 0 else _random_cone_chois(_FAMILY_CONES[k], d, part)

    x = np.array(_grouped([f % 5 for f in families], rngs, draw), dtype=np.complex128).reshape(len(rngs), d.total, d.total)
    return x / np.array([max(frob(xk), 1e-12) for xk in x])[:, None, None]


def _dual_side_chois(cones: Sequence[ConeId], d: Dims, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """A random trace-one Choi matrix in P(M, K^t), the dual-side operator cone of K = cones[k].

    Matrix k is drawn from rngs[k]; the draws run as one stack per partner cone.
    """
    partners = [_PARTNER[c] for c in cones]
    x = np.array(_grouped(partners, rngs, lambda cone, part: _random_cone_chois(cone, d, part)), dtype=np.complex128)
    x = x.reshape(len(rngs), d.total, d.total)
    return x / x.trace(axis1=1, axis2=2).real[:, None, None]


def _grouped(keys: Sequence, items: Sequence, draw) -> list:
    """``draw(key, items)`` once per distinct key (a cone, a family), over the items of that key.

    The keys are taken in the order they first appear, and the results
    come back in the order of ``items``: entry k is drawn for
    ``keys[k]`` from ``items[k]``.
    """
    out = [None] * len(items)
    for key in dict.fromkeys(keys):
        idx = [k for k, c in enumerate(keys) if c == key]
        for k, x in zip(idx, draw(key, [items[k] for k in idx])):
            out[k] = x
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_L4(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Transpose-conjugation identities of maps and their functionals.

    Each substream gives its trial's map, a generic one (not Hermiticity
    preserving) on odd trials, then 20 probes.  For a run of trials the
    odd maps, the even maps and then the probes are drawn as one stack
    each.  The action route, t . phi . t on every matrix unit for every
    map of the run, is one batched product: block (i, j) of its Choi
    matrix is phi(e_ji)^T.  The functionals' pairings, the
    ``trace_pairing`` that ``DualFunctional`` makes, and the norms run
    trial by trial.
    """
    idtol = 1e-12
    n, m = d
    nm = d.total
    # row (i, j) is the matrix unit e_ji, flattened
    units = np.array([matrix_unit(j, i, n).ravel() for i in range(n) for j in range(n)])
    for run in _runs(trials, 20 * nm * nm):
        idx = range(trials)[run]
        rngs = [substream(seed, 0x104, trial) for trial in idx]
        even, odd = slice(run.start % 2, None, 2), slice(1 - run.start % 2, None, 2)
        c = np.empty((len(idx), nm, nm), dtype=np.complex128)
        c[odd] = _gaussian_stack(rngs[odd], 1, nm)[:, 0]
        c[even] = _random_map_chois(d, rngs[even], idx[even])
        x = _gaussian_stack(rngs, 20, nm)
        # phi(e_ji)[r, s] = sum_ab (e_ji)_ab C4[a, r, b, s], apply_map's contraction
        images = units @ c.reshape(-1, n, m, n, m).swapaxes(-3, -2).reshape(-1, n * n, m * m)
        via_action = images.reshape(-1, n, n, m, m).transpose(0, 1, 4, 2, 3).reshape(c.shape)
        # the functional of phi has density C_{t.phi.t} = (t (x) t)(C), that of t . phi . t has C
        density, cf = both_transpose(c, d), full_transpose(c)
        xb, xf = both_transpose(x, d), full_transpose(x)
        for k, trial in enumerate(idx):
            norm = frob(c[k])
            r1 = frob(via_action[k] - density[k]) / (1.0 + norm)
            r2 = frob(via_action[k] - cf[k]) / (1.0 + norm)
            report.check(trial, "choi-of-transpose-conj vs t(x)t route", r1, r1 > idtol)
            report.check(trial, "choi-of-transpose-conj vs full transpose", r2, r2 > idtol)
            ft = trace_pairing(c[k], x[k])
            den = 1.0 + norm * frobs(x[k])
            v1 = np.abs(ft - trace_pairing(density[k], xb[k])) / den
            v2 = np.abs(ft - trace_pairing(density[k], xf[k])) / den
            for p in range(len(v1)):
                report.check(trial, f"functional t(x)t identity probe {p}", v1[p], v1[p] > idtol)
                report.check(trial, f"functional transpose identity probe {p}", v2[p], v2[p] > idtol)


def _suite_L5(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Transposed-cone membership carried by t (x) t on operators.

    Every trial's operator sample (the first draw of its substream, one
    stack per family) and pool (one stack per cone) are drawn first.  For
    a run of trials, t . alpha . t on x and alpha on t(x)t over each
    trial's pool are one ``apply_second``, and one batched ``eigvalsh``
    of their Hermitian parts gives both the spectral-transport gaps and
    the two membership verdicts of every trial, which one
    ``_sampled_least_eigs`` call reads as two groups per trial; its one
    ``eigh`` runs on the first OUT image of each OUT group.
    """
    idtol = 1e-11
    sq = Dims(d.m, d.m)
    # every trial's pool of Choi matrices, the generator pool of its cone for seed + trial, one
    # stacked draw per cone; no cone here has more than 4 canonical elements, so every pool holds 4
    cones = [_CONCRETE[trial % 4] for trial in range(trials)]
    seeds = [seed + trial for trial in range(trials)]
    chois = np.array(_grouped(cones, seeds, lambda c, part: _generator_pool_chois(c, d, 4, part)))
    # row 0: t . alpha . t on x; row 1: alpha on t(x)t
    alphas = np.stack([both_transpose(chois, sq), chois], axis=1)
    x = _operator_samples(d, [substream(seed, 0x105, trial) for trial in range(trials)], range(trials))
    xs = np.stack([x, both_transpose(x, d)], axis=1)[:, :, None]
    for run in _runs(trials, 2 * chois.shape[1] * d.total**2):
        h, w = _hermitian_spectra(apply_second(alphas[run], xs[run], d))
        # (t . alpha . t)(x) >= 0 and alpha(t(x)t) >= 0 over the pool, from the same spectra:
        # rows 0 and 1 of each trial are its two groups
        verdicts = _sampled_least_eigs(h, w, tol)
        for trial, wk, va, vb in zip(range(trials)[run], w, verdicts[::2], verdicts[1::2]):
            scale = 1.0 + frob(x[trial])
            for idx, gap in enumerate(np.abs(wk[0, :, 0] - wk[1, :, 0])):
                report.check(trial, f"{cones[trial].value} sample {idx} spectral transport", gap, gap > idtol * scale)
            margin = min(abs(v.info.get("worst_min_eig", v.info.get("min_eig", 0.0))) for v in (va, vb))
            failed = None if Status.UNDECIDED in (va.status, vb.status) else va.status != vb.status
            report.check(trial, "membership verdicts disagree", margin, failed)


def _suite_L8(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The maximally entangled state criterion for complete positivity.

    Each substream gives its trial's map, then 8 random PSD probes; the
    maps are drawn as one stack per family, then the probes as one
    stack.  The Choi matrices pass one gate and one batched ``eigh``; for
    a run of trials the adjoints act on all probes in one ``apply_second``,
    whose images ``omega_eval`` gates.  The pairings run trial by trial.
    """
    n = d.n
    idtol = 1e-12
    rngs = [substream(seed, 0x108, trial) for trial in range(trials)]
    raw = _random_map_chois(d, rngs, range(trials))
    x = _gram(_gaussian_stack(rngs, 8, n * n))
    c = check_hermitian(raw, tol)
    # the adversarial rank-one probe, the bottom eigenvector u of C:
    # v* C v >= lambda_min(C) for every unit v
    w_eig, u = np.linalg.eigh(c)
    probes = np.concatenate([x, (u[:, :, :1] * u[:, None, :, 0].conj())[:, None]], axis=1)
    adj = adjoint_choi(raw, d)
    rhs = _in_runs(trials, probes[0].size, lambda run: n * omega_eval(apply_second(adj[run, None], probes[run], d), n))
    for trial, ck in enumerate(c):
        scale = 1.0 + frob(ck)
        err = np.abs(trace_pairing(ck, x[trial]).real - rhs[trial, :-1]) / (1.0 + frob(ck) * frobs(x[trial]))
        for k in range(len(err)):
            report.check(trial, f"pairing bridge probe {k}", err[k], err[k] > idtol)
        best = rhs[trial, -1]
        cp, probe = classify(w_eig[trial, 0], scale, tol), classify(best, scale, tol)
        if Status.UNDECIDED in (cp, probe):
            report.undecided += 1
            continue
        report.check(trial, "cp sign vs entangled-state probe sign", abs(best), cp is not probe)


def _suite_L10(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Positivity and factorization of the multiplication functional.

    Each substream gives y, then a general map's Choi matrix, then 6
    probes: all of them are drawn first as one stack.  The y y* of every
    trial are one batched product, and for a run of trials the lifted
    maps act on all probes in one ``apply_second``.  The functionals,
    whose densities are transposed as one stack, run trial by trial.
    """
    idtol = 1e-12
    nm = d.total
    g = _gaussian_stack([substream(seed, 0x10A, trial) for trial in range(trials)], 8, nm)
    y, choi, x = g[:, 0], g[:, 1], g[:, 2:]
    val = trpi_eval(_gram(y), d)
    lifted = both_transpose(adjoint_choi(choi, d), d)
    rhs = _in_runs(trials, x[0].size, lambda run: trpi_eval(apply_second(lifted[run, None], x[run], d), d))
    # dual_functional(phi) has density C_{t . phi . t}
    density = both_transpose(choi, d)
    for trial in range(trials):
        v = complex(val[trial])
        bound = idtol * (1.0 + frob(y[trial]) ** 2)
        violation = abs(min(v.real, 0.0)) + abs(v.imag)
        report.check(trial, "positivity on y y*", violation, v.real < -bound or abs(v.imag) > bound)
        lhs = DualFunctional(d, density[trial])(x[trial])
        err = np.abs(lhs - rhs[trial]) / (1.0 + frob(choi[trial]) * frobs(x[trial]))
        for k in range(len(err)):
            report.check(trial, f"factorization probe {k}", err[k], err[k] > idtol)


def _suite_L15(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The PPT cone as the meet of the cp and cop instances.

    Every trial's operator sample (the first draw of its substream, one
    stack per family) passes one gate.  ``in_F``'s verdicts come from
    its stacked core, and the two ``pm_k_membership`` verdicts, against
    the identity and against the transpose, from one batched ``eigvalsh``
    over the images of a run of trials and one ``_sampled_least_eigs``
    call on them, two groups per trial.
    """
    x = _operator_samples(d, [substream(seed, 0x10F, trial) for trial in range(trials)], range(trials))
    xs = check_hermitian(x, tol)
    v = _ppt_stack(xs, d, tol)
    # the d cone's canonical elements: the Choi matrices of the identity and the transpose
    detectors = _canonical_chois(ConeId.MAP_D, d)[:, None]
    for run in _runs(trials, 2 * d.total**2):
        verdicts = _sampled_least_eigs(*_hermitian_spectra(apply_second(detectors, xs[run, None, None], d)), tol)
        for trial, va, vb in zip(range(trials)[run], verdicts[::2], verdicts[1::2]):
            joint_in = va.status is Status.IN and vb.status is Status.IN
            undecided = Status.UNDECIDED in (v[trial].status, va.status, vb.status)
            failed = None if undecided else (v[trial].status is Status.IN) != joint_in
            report.check(trial, "meet-of-cones equivalence", _ppt_gap(x[trial], d) if failed else 0.0, failed)


def _suite_L16(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The decomposable-operator cone as the p-cone membership set."""
    pool = _generator_pool_chois(ConeId.MAP_P, d, 4, [seed])[0]
    for trial in range(trials):
        rng = substream(seed, 0x110, trial)
        if trial % 2 == 0:
            x = random_psd(rng, d.total) + partial_transpose(random_psd(rng, d.total), d)
            x /= frob(x)
            scale = 1.0 + frob(x)
            v = in_E(x, d, tol)
            failed = v.status is not Status.IN
            report.check(trial, "constructed decomposition not recovered", v.info["residual"], failed)
            for idx, lo in enumerate(_min_eigs(apply_second(pool, x, d))):
                report.check_margin(trial, f"p-cone sample {idx} broke membership", lo, scale, tol)
        else:
            x = random_hermitian(rng, d.total)
            x /= frob(x)
            v = in_E(x, d, tol)
            if v.status is Status.UNDECIDED:
                report.undecided += 1
                continue
            if v.status is Status.OUT:
                # alpha_w maps M_m to M_n, so its Choi matrix has dims (m, n)
                alpha_w = _witness_choi(v.certificate.w, d)
                lo = float(_min_eigs(apply_second(alpha_w, x, d)))
                report.check(trial, "constructive violating map failed", lo, lo >= 0.0)
                v = in_F(alpha_w * (d.n / np.trace(alpha_w).real), Dims(d.m, d.n), 1e-7)
                report.check(trial, "violating map left the p cone", 1.0, v.status is not Status.IN)


def _suite_L17(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """PPT Choi matrices exactly represent the p-positive maps.

    Each substream gives one draw: a p-cone map on even trials, a
    Hermitian operator on odd ones, each kind drawn as one stack.  All
    of them pass one gate and ``in_F``'s stacked core; the d-cone pool
    acts on the even trials, and the canonical detectors on the odd
    ones, in one ``apply_second`` and one batched ``eigvalsh`` per run.
    """
    # the d cone's canonical elements: the Choi matrices of the identity and the transpose
    detectors = _canonical_chois(ConeId.MAP_D, d)
    d_pool = _generator_pool_chois(ConeId.MAP_D, d, 6, [seed])[0]
    rngs = [substream(seed, 0x111, trial) for trial in range(trials)]
    ops = np.empty((trials, d.total, d.total), dtype=np.complex128)
    ops[::2] = _sample_chois(ConeId.MAP_P, d, rngs[::2])
    x = _hermitian_stack(rngs[1::2], d.total)
    ops[1::2] = x / np.array([frob(xk) for xk in x])[:, None, None]
    v = _ppt_stack(check_hermitian(ops, tol), d, tol)

    def least(pool, part):
        return _in_runs(len(part), len(pool) * d.total**2, lambda run: _min_eigs(apply_second(pool, part[run, None], d)))

    lows = {0: least(d_pool, ops[::2]), 1: least(detectors, ops[1::2])}
    for trial in range(trials):
        scale = 1.0 + frob(ops[trial])
        lo = lows[trial % 2][trial // 2]
        if trial % 2 == 0:
            report.check(trial, "p-cone sample without PPT Choi", 1.0, v[trial].status is not Status.IN)
            for idx, lo_k in enumerate(lo):
                report.check_margin(trial, f"d-cone sample {idx} broke f-membership", lo_k, scale, tol)
            continue
        found = [classify(lo_k, scale, tol) for lo_k in lo]
        if Status.UNDECIDED in (v[trial].status, *found):
            report.undecided += 1
            continue
        failed = (v[trial].status is Status.IN) == (Status.OUT in found)
        gap = _ppt_gap(ops[trial], d) if failed else 0.0
        report.check(trial, "canonical detectors disagree with f", gap, failed)


def _suite_T1(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Four-way agreement of the dual-cone conditions on random maps.

    Every trial's map is drawn first, from its own substream, and each
    cone's conditions run once over all of them, gated once, through
    ``_theorem1_stack``; the checks are then recorded trial by trial.
    """
    raw = _random_map_chois(d, [substream(seed, 0x201, trial) for trial in range(trials)], range(trials))
    c = check_hermitian(raw, tol)
    results = {k: _theorem1_stack(raw, c, d, k, _generator_pool_chois(k, d, 12, [seed + 17])[0], tol) for k in _CONCRETE}
    for trial in range(trials):
        for cone in _CONCRETE:
            conds = results[cone][trial]
            failed = None if conds.boundary else not conds.agree
            report.check(trial, f"{cone.value} pattern {conds.pattern}", min(map(abs, conds.margins.values())), failed)


def _suite_T6(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Double-dual consistency: primal and dual-characterized samples pair >= 0.

    Every trial's draws come first, each kind as one stack: the even
    trials' members are composed in one ``apply_second``, and every
    member, dual sample and escape map passes one gate per stack.  The
    escape maps are decided by each spectral oracle's stacked core, one
    batched ``eigh`` per escape cone (for p, one ``eigvalsh`` and one
    ``eigh`` over the maps it does not put IN).  The pairings run trial
    by trial.
    """
    sq = Dims(d.m, d.m)
    cp_pool = _generator_pool_chois(ConeId.MAP_CP, d, 6, [seed + 3])[0]
    rngs = [substream(seed, 0x206, trial) for trial in range(trials)]
    cones = [_CONCRETE[trial % 4] for trial in range(trials)]
    # the generators t . alpha* . t of the pools of the cones the even trials
    # pick from, cp and p (each pool is drawn from its own seeded streams)
    pick_cones = dict.fromkeys(cones[::2])
    kd_pools = {c: both_transpose(adjoint_choi(_generator_pool_chois(c, d, 8, [seed + 5])[0], sq), sq) for c in pick_cones}
    # each substream gives, in order: the even trials' pool picks or the odd
    # trials' member draw, then the dual sample, then the escape check's map;
    # each kind of draw runs over all trials as one stack
    picks = [(int(rng.integers(len(kd_pools[cone]))), int(rng.integers(len(cp_pool)))) for rng, cone in zip(rngs[::2], cones[::2])]
    member_chois = _dual_side_chois([_PARTNER[c] for c in cones[1::2]], d, rngs[1::2])
    dual_chois = _dual_side_chois(cones, d, rngs)
    # a map outside a primal cone must be caught by a dual sample built
    # from its own escape certificate.  The pairing trials of every fourth
    # trial are K = d, whose escape needs the feasibility engine (the C19
    # and T18 suites exercise it), so the escape cone takes cp, cop and p
    # in turn from its own counter
    escape_trials = range(3, trials, 4)
    escapes = [_CONCRETE[(trial // 4) % 3] for trial in escape_trials]
    phis = _random_map_chois(d, [rngs[trial] for trial in escape_trials], escape_trials)

    # primal-side members of the K-positive cone: t . alpha* . t composed with a cp sample
    alphas = np.array([kd_pools[cone][a] for cone, (a, _) in zip(cones[::2], picks)]).reshape(-1, sq.total, sq.total)
    members = np.empty((trials, d.total, d.total), dtype=np.complex128)
    cps = cp_pool[[p for _, p in picks]]
    members[::2] = _in_runs(len(picks), d.total**2, lambda run: apply_second(alphas[run], cps[run], d))
    members[1::2] = d.n * member_chois
    duals = d.n * dual_chois
    # pairing gates at its default tol, the escape oracles at the suite's
    gated_members, gated_duals = check_hermitian(members, 1e-9), check_hermitian(duals, 1e-9)
    gated_phis = check_hermitian(phis, tol)
    verdicts = _grouped(escapes, list(gated_phis), lambda cone, part: _SPECTRAL_ORACLE[cone](np.array(part), d, tol))

    for trial, cone in enumerate(cones):
        val = float(trace_pairing(gated_members[trial], gated_duals[trial]).real)
        val2 = float(trace_pairing(gated_duals[trial], gated_members[trial]).real)
        scale = 1.0 + frob(members[trial]) * frob(duals[trial])
        report.check_margin(trial, f"{cone.value} forward pairing", val, scale, tol)
        report.check_margin(trial, f"{cone.value} reverse pairing", val2, scale, tol)
        if trial % 4 == 3:
            escape, v = escapes[trial // 4], verdicts[trial // 4]
            # only a map that classify puts OUT has an escape to catch; a map
            # inside the cone records nothing, and one in the band is UNDECIDED
            if v.status is Status.UNDECIDED:
                report.undecided += 1
            if v.status is not Status.OUT:
                continue
            # dual-side elements from the certificate's eigenvector u: u u*
            # lies in P(M, K^t) unless K = cop, PT(u u*) unless K = cp
            u = v.certificate.vector[:, None]
            rank_one = u @ u.conj().T
            duals_k = []
            if escape is not ConeId.MAP_COP:
                duals_k.append(rank_one)
            if escape is not ConeId.MAP_CP:
                duals_k.append(partial_transpose(rank_one, d))
            # the pairings with the map, ungated: trace pairings of the Hermitian parts
            best = min(float(trace_pairing(gated_phis[trial // 4], hermitian_part(y)).real) for y in duals_k)
            caught = classify(best, 1 + frob(phis[trial // 4]), tol)
            failed = None if caught is Status.UNDECIDED else caught is Status.IN
            report.check(trial, f"{escape.value} escape not caught", abs(v.certificate.value), failed)


#: The stacked core of each spectral cone's exact oracle (``is_cp``, ``is_cop``,
#: ``in_P``) on gated Choi matrices; its OUT certificate is a ``MinEigCert``.
_SPECTRAL_ORACLE = {ConeId.MAP_CP: _cp_stack, ConeId.MAP_COP: _cop_stack, ConeId.MAP_P: _ppt_stack}


def _ppt_gap(x: np.ndarray, d: Dims) -> float:
    """The smaller distance from zero of the least eigenvalues of x and PT(x)."""
    return min(abs(float(_min_eigs(x))), abs(float(_min_eigs(partial_transpose(x, d)))))


def _sharp_check(
    report: TheoremReport, trial: int, label: str, cone: ConeId, beta: np.ndarray, c: np.ndarray, pool: np.ndarray,
    d: Dims, tol: float,
) -> Optional[float]:
    """Check the sampled K-sharp test of beta, against K's samples ``pool``, with K's partner test on c, beta's gate.

    Returns the partner margin, or None when an UNDECIDED partner verdict
    counts the trial UNDECIDED.  An OUT verdict's PPT witness w (the p
    cone's, whose sharp cone is d) joins the pool: beta . map(w)* is not cp.
    """
    (margin,), (closed,), (w,) = _partner_test(cone, c[None], d, tol)
    if closed is Status.UNDECIDED:
        report.undecided += 1
        return None
    if w is not None:
        pool = np.concatenate([pool, w[None]])
    verdict = _ksharp_stack(beta, pool, d.n, tol)
    failed = None if verdict.status is Status.UNDECIDED else (verdict.status is Status.IN) != (closed is Status.IN)
    report.check(trial, label, 1.0, failed)
    return float(margin)


def _suite_T12(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Sharp-cone duality for transpose-invariant cones, square case; the maps pass one gate, as a stack."""
    pools = {c: _generator_pool_chois(c, d, 8, [seed + 11])[0] for c in _CONCRETE}
    # each trial's map is the only draw of its substream: all trials' maps are one stack
    betas = _random_map_chois(d, [substream(seed, 0x20C, t) for t in range(trials)], [t + 1 for t in range(trials)])
    for trial, (beta, c) in enumerate(zip(betas, check_hermitian(betas, tol))):
        cone = _CONCRETE[trial % 4]
        a = _sharp_check(report, trial, f"{cone.value} sharp membership mismatch", cone, beta, c, pools[cone], d, tol)
        # transpose symmetry: beta* has beta's partner margin, and its gate is adjoint_choi(c), an entry permutation
        if a is not None and cone is not ConeId.MAP_P:
            scale = 1.0 + frob(c)
            b = float(_partner_test(cone, adjoint_choi(c, d)[None], d, tol)[0][0])
            sa, sb = classify(a, scale, tol), classify(b, scale, tol)
            failed = None if Status.UNDECIDED in (sa, sb) else sa is not sb
            report.check(trial, f"{cone.value} transpose symmetry", min(abs(a), abs(b)), failed)


def _suite_T13(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Nonnegative pairing between the p cone and the decomposable cone.

    As in T6, each stack passes one gate at ``pairing``'s default tol and
    each trial pairs the gated matrices as ``pairing`` would.
    """
    # each trial's substream draws its p map, then its d map: all p maps first, then all d maps
    rngs = [substream(seed, 0x20D, trial) for trial in range(trials)]
    phis, psis = _sample_chois(ConeId.MAP_P, d, rngs), _sample_chois(ConeId.MAP_D, d, rngs)
    for trial, (phi, psi) in enumerate(zip(check_hermitian(phis, 1e-9), check_hermitian(psis, 1e-9))):
        scale = 1.0 + frob(phis[trial]) * frob(psis[trial])
        v1 = float(trace_pairing(phi, psi).real)
        v2 = float(trace_pairing(psi, phi).real)
        report.check_margin(trial, "p against d pairing", v1, scale, tol)
        report.check_margin(trial, "d against p pairing", v2, scale, tol)
    if d == (3, 3):
        lam = fixtures.nondecomposable_map()
        w_state, _ = fixtures.ppt_entangled_state()
        val = pairing(lam, map_from_choi(3, 3, w_state))
        report.notes.append(f"fixture pairing value {val!r}")
        report.check(trials, "fixture violation missing", abs(val), not val < -1e-6)


def _suite_T18(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The sharp dual of the p cone is the decomposable cone."""
    p_pool = _generator_pool_chois(ConeId.MAP_P, d, 16, [seed + 7])[0]
    # each trial's d map comes first in its substream, so all of them are one stack
    rngs = [substream(seed, 0x212, trial) for trial in range(trials)]
    betas = _sample_chois(ConeId.MAP_D, d, rngs)
    for trial, (rng, beta) in enumerate(zip(rngs, betas)):
        # exact inclusion direction: decomposable . p-adjoint stays cp
        comp = apply_second(beta, adjoint_choi(p_pool[trial % len(p_pool)], d), d)
        report.check_margin(trial, "d-sample composition left cp", float(_min_eigs(comp)), 1.0 + frob(comp), tol)
        # agreement of the sampled sharp test with decomposability
        if trial % 3 == 0:
            if trial % 6 == 0 and d == (3, 3):
                cand = _fixture_perturbation(rng)
            else:
                cand = _random_map_chois(d, [rng], [trial])[0]
            c = check_hermitian(cand, tol)
            _sharp_check(report, trial, "sharp test vs decomposability", ConeId.MAP_P, cand, c, p_pool, d, tol)


def _suite_C2(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """The positive-maps instance, with the separability condition.

    Every trial's map is drawn first, from its own substream, and the
    conditions run once over all of them, gated once, through
    ``_theorem1_stack``.  At the PPT-exact dims the least eigenvalues of
    C and PT(C) of every trial come from one batched ``eigvalsh``.  The
    state density (t (x) t)(C) of a gated C is conj(C), whose spectrum is
    C's, so it is a state exactly when C is PSD, and ``is_separable``'s
    core ``_separable`` decides it ungated.  Checks are recorded trial by trial.
    """
    exact = tuple(sorted(d)) in _EXACT_PPT_DIMS
    pool = _generator_pool_chois(ConeId.MAP_POS, d, 10, [seed + 19])[0]
    families = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_S, ConeId.MAP_POS)
    cones = [families[trial % len(families)] for trial in range(trials)]
    rngs = [substream(seed, 0x2C2, trial) for trial in range(trials)]
    raw = np.array(_grouped(cones, rngs, lambda cone, part: _sample_chois(cone, d, part)))
    c = check_hermitian(raw, tol)
    results = _theorem1_stack(raw, c, d, ConeId.MAP_POS, pool, tol)
    if exact:
        spectra = _min_eigs(np.stack([c, partial_transpose(c, d)], axis=1))
    for trial, conds in enumerate(results):
        failed = None if conds.boundary else not conds.agree
        report.check(trial, f"conditions pattern {conds.pattern}", 1.0, failed)
        if conds.boundary or not conds.agree or not exact:
            continue
        scale = 1.0 + frob(c[trial])
        lo, lo_pt = spectra[trial]
        if any(classify(s, scale, tol) is Status.UNDECIDED for s in (lo, lo_pt)):
            report.undecided += 1
            continue
        # a functional that is not even a state (OUT) is not separable
        sep = classify(lo, scale, tol)
        if sep is Status.IN:
            state = c[trial].conj()
            sep = _separable(state / float(np.trace(state).real), d, tol).status
        failed = None if sep is Status.UNDECIDED else (sep is Status.IN) != conds.choi_membership
        report.check(trial, "separability vs membership", min(abs(lo), abs(lo_pt)), failed)


def _suite_C19(report: TheoremReport, d: Dims, trials: int, seed: int, tol: float) -> None:
    """Decomposability matches the absence of a PPT witness.

    ``in_E`` gates the draw and answers with a decomposition (IN) or a
    PPT witness (OUT); the suite runs that certificate's own ``problem()``
    check on the gated Choi matrix once more (the residual and the spectra
    of both parts, or the pairing, the spectra of w and PT(w) and its
    trace) and checks the violation-value identity on every witness w,
    where ``omega_eval`` gates the raw adjoint's image of w.
    """
    idtol = 1e-12
    rngs = [substream(seed, 0x2D3, trial) for trial in range(trials)]
    # the d maps of every third trial, the first draw of their substreams, as one stack
    d_chois = _sample_chois(ConeId.MAP_D, d, rngs[::3])
    for trial, rng in enumerate(rngs):
        k = trial % 3
        if k == 0:
            raw = d_chois[trial // 3]
        elif k == 1 and d == (3, 3):
            raw = _fixture_perturbation(rng)
        else:
            raw = _random_map_chois(d, [rng], [trial])[0]
        v = in_E(raw, d, tol)
        if v.status is Status.UNDECIDED:
            report.undecided += 1
            continue
        c = hermitian_part(raw)
        problem = v.certificate.problem(c, d, tol)
        report.check(trial, f"certificate re-validation: {problem}", 1.0, problem is not None)
        if v.status is Status.OUT and problem is None:
            w = v.certificate.w
            lhs = float(trace_pairing(c, w).real)
            rhs = d.n * omega_eval(apply_second(adjoint_choi(raw, d), w, d), d.n)
            err = abs(lhs - rhs) / (1.0 + frob(c) * frob(w))
            report.check(trial, "violation value identity", err, err > idtol)


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

#: The suites that need n = m; ``verify`` rejects other dimensions for them.
_SQUARE_ONLY = frozenset({"T1", "T6", "T12", "T18", "C19", "L8", "L10"})


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
    informational and excluded from serialization).  Raises TypeError
    for ``trials`` or ``seed`` that is not an integer, such as a float,
    and ValueError for an unknown id, invalid dims, ``trials < 1``,
    ``seed < 0``, a ``tol`` that is not finite and positive, or n != m for
    a suite in ``_SQUARE_ONLY``.
    """
    if theorem_id.upper() not in SUPPORTED_THEOREMS:
        raise _UnknownName(
            f"unknown theorem {theorem_id!r}; supported: {', '.join(sorted(SUPPORTED_THEOREMS))}"
        )
    theorem_id = theorem_id.upper()
    d = Dims(*d).validate()
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_tol(tol)
    if theorem_id in _SQUARE_ONLY and d.n != d.m:
        raise ValueError("this suite needs square dimensions")
    report = TheoremReport(theorem_id, d.n, d.m, trials, seed, float(tol))
    start = time.perf_counter()
    SUPPORTED_THEOREMS[theorem_id](report, d, trials, seed, float(tol))
    report.elapsed = time.perf_counter() - start
    return report
