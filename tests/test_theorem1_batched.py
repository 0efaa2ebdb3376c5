"""The batched Theorem 1 kernels against per-sample reference loops.

``theorem1_conditions`` evaluates each condition over the stacked sample
pool.  The references below are the per-sample loops it replaced, kept
verbatim apart from their names: one ``apply_second`` / ``adjoint`` /
``compose_left`` and one eigensolver call per sample.  Both must give
the same margins (within 1e-12 of the scale), the same booleans and
boundary flag, and leave every random generator they create in the same
state, so that suite reports built on them stay byte-identical.
"""

import numpy as np
import pytest

import mapcones.theorems as theorems_mod
from mapcones.choi import (
    MapRep,
    adjoint,
    apply_second,
    compose_left,
    dual_functional,
    map_from_choi,
    pairing,
    transpose_conj,
)
from mapcones.cones import ConeId, DykstraConfig, Status, in_E
from mapcones.linalg import Dims, both_transpose, frob, hermitian_part
from mapcones.sampling import (
    cone_generator_pool,
    k_t,
    kd_generators,
    random_psd,
    random_unit_vector,
    substream,
)
from mapcones.theorems import Theorem1Conditions, theorem1_conditions


def _min_eig(x) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(x))[0])


def reference_conditions(phi, cone, samples=None, tol=1e-9, n_probes=8, seed=0, kd_samples=None):
    """Per-sample loops of the four conditions (the pre-batching code)."""
    c = phi.hermitian_choi(tol)
    d = phi.d
    n, m = d
    scale = 1.0 + frob(c)
    thr = tol * scale
    band = 10.0 * thr
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x7101)))

    if samples is None:
        samples = cone_generator_pool(cone, d, 8, seed)
    if kd_samples is None:
        kd_samples = kd_generators(samples)

    if cone is ConeId.MAP_P:
        return reference_p_cone(phi, c, samples, tol, n_probes)

    if cone in theorems_mod._PARTNER:
        m2 = theorems_mod._kpositivity_margin(theorems_mod._PARTNER[cone], c, d)
    else:
        m2 = np.inf
        for alpha in k_t(samples):
            m2 = min(m2, _min_eig(apply_second(alpha, c, d)))

    m1 = np.inf
    for alpha in kd_samples:
        z = hermitian_part(apply_second(adjoint(alpha), c, d))
        w_eig, u = np.linalg.eigh(z)
        v = u[:, [0]]
        psi_adv = map_from_choi(n, m, v @ v.conj().T)
        m1 = min(m1, pairing(phi, compose_left(alpha, psi_adv), tol=np.inf))
        for _ in range(max(n_probes // max(len(kd_samples), 1), 1)):
            cpsi = random_psd(rng, n * m)
            cpsi /= np.trace(cpsi).real
            psi = map_from_choi(n, m, cpsi)
            m1 = min(m1, pairing(phi, compose_left(alpha, psi), tol=np.inf))

    func = dual_functional(phi)
    m3 = np.inf
    for alpha in samples:
        y = hermitian_part(apply_second(alpha, func.density, d))
        w_eig, u = np.linalg.eigh(y)
        v = u[:, [0]]
        probe = apply_second(adjoint(alpha), v @ v.conj().T, d)
        m3 = min(m3, float(func(probe).real))
        for _ in range(2):
            vv = random_unit_vector(rng, n * m)
            probe = apply_second(adjoint(alpha), np.outer(vv, vv.conj()), d)
            m3 = min(m3, float(func(probe).real))

    m4 = np.inf
    for alpha in samples:
        comp = compose_left(transpose_conj(alpha), phi)
        m4 = min(m4, _min_eig(comp.choi))

    margins = {"i": float(m1), "ii": float(m2), "iii": float(m3), "iv": float(m4)}
    boundary = any(abs(v) <= band for v in margins.values())
    return Theorem1Conditions(m1 >= -thr, m2 >= -thr, m3 >= -thr, m4 >= -thr, boundary, margins)


def reference_p_cone(phi, c, samples, tol, n_probes):
    d = phi.d
    n, m = d
    scale = 1.0 + frob(c)
    thr = tol * scale
    band = 10.0 * thr
    cfg = DykstraConfig(tol=tol)

    v_c = in_E(c, d, cfg)
    v_t = in_E(both_transpose(c, d), d, cfg)

    margins = {
        "residual": float(v_c.info["residual"]),
        "residual_t": float(v_t.info["residual"]),
    }
    if v_c.status is Status.UNDECIDED or v_c.status is not v_t.status:
        return Theorem1Conditions(False, False, False, False, True, margins)
    out = v_c.status is Status.OUT

    m1 = np.inf
    for alpha in samples:
        g = alpha.choi / float(np.trace(alpha.choi).real)
        m1 = min(m1, pairing(phi, map_from_choi(n, m, g), tol=np.inf))
    if out:
        m1 = min(m1, pairing(phi, map_from_choi(n, m, v_c.certificate.w), tol=np.inf))
    b1 = m1 >= -thr

    func = dual_functional(phi)
    m3 = np.inf
    probe_maps = list(samples[: max(n_probes, 2)])
    if out:
        probe_maps.append(theorems_mod._witness_map(v_t.certificate.w, d))
        m3 = min(m3, float(func(v_t.certificate.w).real))
    for alpha in probe_maps:
        y = hermitian_part(apply_second(alpha, func.density, d))
        w_eig, u = np.linalg.eigh(y)
        v = u[:, [0]]
        probe = apply_second(adjoint(alpha), v @ v.conj().T, d)
        m3 = min(m3, float(func(probe).real))
    b3 = m3 >= -thr

    m4 = np.inf
    comp_maps = list(samples[: max(n_probes, 2)])
    if out:
        comp_maps.append(transpose_conj(theorems_mod._witness_map(v_c.certificate.w, d)))
    for alpha in comp_maps:
        comp = compose_left(transpose_conj(alpha), phi)
        m4 = min(m4, _min_eig(comp.choi))
    b4 = (m4 >= -thr) and not out

    b2 = not out
    margins.update({"i": float(m1), "iii": float(m3), "iv": float(m4)})
    boundary = any(abs(margins[k]) <= band for k in ("i", "iii", "iv"))
    return Theorem1Conditions(b1, b2, b3, b4, boundary, margins)


def _traced_call(monkeypatch, fn, *args, **kwargs):
    """Run fn, returning its result and the final states of the generators it created."""
    made = []
    original = np.random.default_rng

    def recording(*a, **k):
        g = original(*a, **k)
        made.append(g)
        return g

    monkeypatch.setattr(np.random, "default_rng", recording)
    try:
        result = fn(*args, **kwargs)
    finally:
        monkeypatch.setattr(np.random, "default_rng", original)
    return result, [g.bit_generator.state for g in made]


CONES = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_S, ConeId.MAP_POS, ConeId.MAP_P)
DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 3))


def _phi(d: Dims, seed: int) -> MapRep:
    # the suites' own map families, one per seed (generic, cp, cop, d, p, mixed)
    return theorems_mod._random_map(substream(seed, 0x7E51), d, seed)


@pytest.mark.parametrize("d", DIMS, ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.value)
def test_batched_conditions_match_reference(monkeypatch, cone, d):
    if cone is ConeId.MAP_P and d.n != d.m:
        # the PPT samples are m x m maps paired as n x m Choi matrices
        for seed in range(1, 6):
            for fn in (theorem1_conditions, reference_conditions):
                with pytest.raises(ValueError):
                    fn(_phi(d, seed), cone, seed=seed)
        return
    for seed in (0,) + tuple(range(1, 6)):
        phi = _phi(d, seed)
        scale = 1.0 + frob(phi.choi)
        got, got_states = _traced_call(monkeypatch, theorem1_conditions, phi, cone, seed=seed)
        ref, ref_states = _traced_call(monkeypatch, reference_conditions, phi, cone, seed=seed)
        assert got.as_tuple() == ref.as_tuple(), (seed, got.margins, ref.margins)
        assert got.boundary == ref.boundary
        assert got.margins.keys() == ref.margins.keys()
        for key, val in ref.margins.items():
            assert abs(got.margins[key] - val) <= 1e-12 * scale, (seed, key, got.margins[key], val)
        assert got_states == ref_states


@pytest.mark.parametrize("cone", (ConeId.MAP_CP, ConeId.MAP_D, ConeId.MAP_P), ids=lambda c: c.value)
def test_batched_conditions_match_reference_on_suite_pools(monkeypatch, cone):
    # T1's pool sizes (16 for p, 12 otherwise) with precomputed kd pools
    d = Dims(3, 3)
    pool = cone_generator_pool(cone, d, 16 if cone is ConeId.MAP_P else 12, 40)
    kd_pool = kd_generators(pool)
    for seed in range(1, 4):
        phi = _phi(d, seed + 6)
        kwargs = dict(samples=pool, kd_samples=kd_pool, seed=seed)
        got, got_states = _traced_call(monkeypatch, theorem1_conditions, phi, cone, **kwargs)
        ref, ref_states = _traced_call(monkeypatch, reference_conditions, phi, cone, **kwargs)
        assert got.as_tuple() == ref.as_tuple()
        assert got.boundary == ref.boundary
        for key, val in ref.margins.items():
            assert abs(got.margins[key] - val) <= 1e-12 * (1.0 + frob(phi.choi))
        assert got_states == ref_states


def test_empty_pool_gives_infinite_margins():
    phi = _phi(Dims(2, 2), 1)
    got = theorem1_conditions(phi, ConeId.MAP_S, samples=[], kd_samples=[])
    ref = reference_conditions(phi, ConeId.MAP_S, samples=[], kd_samples=[])
    assert got.margins == ref.margins
    assert got.as_tuple() == ref.as_tuple()


@pytest.mark.parametrize("cone", (ConeId.MAP_S, ConeId.MAP_POS), ids=lambda c: c.value)
def test_random_probes_paired_in_draw_order(monkeypatch, cone):
    # The adversarial probe of each sample is the minimizer over that
    # sample's probes, so the random probes never set a margin and their
    # order is invisible above.  Serving the top eigenvector in place of
    # the bottom one (in both codes) lets the random probes decide the
    # margins of (i) and (iii), which then match only when every draw
    # meets the sample it was drawn for.
    eigh = np.linalg.eigh

    def top_first(a):
        w, u = eigh(a)
        return w[..., ::-1], u[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", top_first)
    d = Dims(3, 3)
    for seed in range(1, 4):
        phi = _phi(d, seed)
        got = theorem1_conditions(phi, cone, seed=seed, n_probes=16)
        ref = reference_conditions(phi, cone, seed=seed, n_probes=16)
        for key in ("i", "iii"):
            assert abs(got.margins[key] - ref.margins[key]) <= 1e-12 * (1.0 + frob(phi.choi))
