"""The batched Theorem 1 kernels against per-sample reference loops.

``theorem1_conditions`` evaluates each condition over the stacked sample
pool.  The references below are the per-sample loops it replaced, kept
verbatim apart from their names: one ``apply_second`` / ``adjoint`` /
``compose_left`` and one eigensolver call per sample.  Both must give
the same margins (within 1e-12 of the scale), the same booleans and
boundary flag, so that suite reports built on them stay byte-identical.

The references still pair every sample against random probes as well as
the adversarial one; ``theorem1_conditions`` keeps only the adversarial
probe.  Equal margins therefore also show that the random probes never
set one.  For cp, cop and d the reference reads (ii) from its own
``eigvalsh`` of C and PT(C); for the p cone it takes (ii) from ``in_E``
and adds an OUT map's witness, as a p-cone map, to the samples of the
loops.  Its boundary flag uses ``classify``'s band.  The table of (ii) is
also checked against the public oracle of each partner cone.

``theorem1_conditions`` is the stack of one of ``_theorem1_stack``, which
the suites call on all their trials at once.  The last tests require the
stacked core to give every map bit for bit what its stack of one gives,
also when the stack is cut into chunks.

The stacked core reads every sampled condition from one image stack
Y = (id (x) alpha^t)(C): one ``eigvalsh`` over it gives (iv) and each
map's worst sample, and one ``eigh`` over the maps' worst images gives
the projector at which (i) and (iii) are paired.  The tests after those
pin the identities this rests on, (i) = (iii) = (iv) map by map, and
keep the routes it replaced, one image stack per condition, as
references.
"""

import numpy as np
import pytest

import mapcones.theorems as theorems_mod
from mapcones.choi import (
    MapRep,
    adjoint,
    adjoint_choi,
    apply_second,
    compose_left,
    depolarizing_map,
    dual_functional,
    identity_map,
    map_from_choi,
    pairing,
    transpose_conj,
    transpose_map,
)
from mapcones.cones import ConeId, Status, in_E, in_P, is_cop, is_cp, is_decomposable
from mapcones.linalg import Dims, both_transpose, check_hermitian, frob, hermitian_part, partial_transpose, trace_pairing
from mapcones.sampling import (
    _generator_pool_chois,
    cone_generator_pool,
    k_t,
    kd_generators,
    random_psd,
    random_unit_vector,
    substream,
)
from mapcones.cli import main
from mapcones.fixtures import nondecomposable_map
from mapcones.theorems import (
    Theorem1Conditions,
    _min_eigs,
    _theorem1_stack,
    _witness_choi,
    theorem1_conditions,
)


def _min_eig(x) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(x))[0])


def _witness_map(w, d):
    """The cone-p map t . beta* . t for the map beta with Choi matrix w^T, whose functional has density w."""
    return transpose_conj(adjoint(map_from_choi(d.n, d.m, both_transpose(w, d))))


def _bottom_projectors(y):
    """v v* for the bottom eigenvector v of the Hermitian part of each matrix in a stack."""
    v = np.linalg.eigh(hermitian_part(y))[1][..., :1]
    return v @ v.conj().swapaxes(-1, -2)


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

    verdict = None
    if cone is ConeId.MAP_P:
        # in_E decides (ii); an OUT witness, as a p-cone map, is one more sample
        if n != m:
            raise ValueError("the p-cone instance needs square dimensions")
        verdict = in_E(c, d, tol)
        m2 = verdict.info["upper" if verdict.status is Status.OUT else "lower"]
        if verdict.status is Status.OUT:
            witness = transpose_conj(_witness_map(verdict.certificate.w, d))
            samples = list(samples) + [witness]
            kd_samples = list(kd_samples) + kd_generators([witness])
    elif cone in (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D):
        # the Choi matrix is PSD (cp), PT-PSD (cop) or PPT (d)
        lo, lo_pt = _min_eig(c), _min_eig(partial_transpose(c, d))
        m2 = {ConeId.MAP_CP: lo, ConeId.MAP_COP: lo_pt, ConeId.MAP_D: min(lo, lo_pt)}[cone]
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
    # classify's band: IN at m >= -thr, OUT at m <= -band, boundary between
    boundary = any(-band < v < -thr for v in margins.values())
    b2 = m2 >= -thr
    if verdict is not None:
        boundary = verdict.status is Status.UNDECIDED or any(-band < margins[k] < -thr for k in ("i", "iii", "iv"))
        b2 = verdict.status is Status.IN
    return Theorem1Conditions(m1 >= -thr, b2, m3 >= -thr, m4 >= -thr, boundary, margins)


CONES = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_S, ConeId.MAP_POS, ConeId.MAP_P)
DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 3))


def _phi(d: Dims, seed: int) -> MapRep:
    # the suites' own map families, one per seed (generic, cp, cop, d, p, mixed)
    return theorems_mod._random_map(substream(seed, 0x7E51), d, seed)


@pytest.mark.parametrize("d", DIMS, ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.value)
def test_batched_conditions_match_reference(cone, d):
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
        got = theorem1_conditions(phi, cone, seed=seed)
        ref = reference_conditions(phi, cone, seed=seed)
        assert got.as_tuple() == ref.as_tuple(), (seed, got.margins, ref.margins)
        assert got.boundary == ref.boundary
        assert got.margins.keys() == ref.margins.keys()
        for key, val in ref.margins.items():
            assert abs(got.margins[key] - val) <= 1e-12 * scale, (seed, key, got.margins[key], val)


@pytest.mark.parametrize("cone", (ConeId.MAP_CP, ConeId.MAP_D, ConeId.MAP_P), ids=lambda c: c.value)
def test_batched_conditions_match_reference_on_suite_pools(cone):
    # T1's pool size; the reference gets the kd pool precomputed,
    # theorem1_conditions builds it from the pool
    d = Dims(3, 3)
    pool = cone_generator_pool(cone, d, 12, 40)
    kd_pool = kd_generators(pool)
    for seed in range(1, 4):
        phi = _phi(d, seed + 6)
        got = theorem1_conditions(phi, cone, samples=pool, seed=seed)
        ref = reference_conditions(phi, cone, samples=pool, kd_samples=kd_pool, seed=seed)
        assert got.as_tuple() == ref.as_tuple()
        assert got.boundary == ref.boundary
        for key, val in ref.margins.items():
            assert abs(got.margins[key] - val) <= 1e-12 * (1.0 + frob(phi.choi))


@pytest.mark.parametrize(
    "phi,cone",
    [(identity_map(2), ConeId.MAP_CP), (identity_map(3), ConeId.MAP_CP), (transpose_map(2), ConeId.MAP_COP)],
    ids=["id2-cp", "id3-cp", "t2-cop"],
)
def test_maps_on_the_edge_of_their_cone_are_not_boundary(phi, cone):
    # every margin is 0 (or -0.0): IN, and outside classify's band
    for conds in (theorem1_conditions(phi, cone), reference_conditions(phi, cone)):
        assert all(abs(v) <= 1e-12 for v in conds.margins.values()), conds.margins
        assert conds.pattern == "TTTT"
        assert not conds.boundary


#: Each concrete cone's (ii) against the public oracle of its partner cone.
PARTNER_ORACLES = {
    ConeId.MAP_CP: is_cp,
    ConeId.MAP_COP: is_cop,
    ConeId.MAP_P: is_decomposable,
    ConeId.MAP_D: in_P,
}


def _oracle_maps():
    for n in (2, 3):
        yield from (identity_map(n), transpose_map(n), depolarizing_map(n, n))
    yield nondecomposable_map()
    for n in (2, 3):
        d = Dims(n, n)
        # T1's 40 trial maps at seed 1
        raw = theorems_mod._random_map_chois(d, [substream(1, 0x201, trial) for trial in range(40)], range(40))
        yield from (map_from_choi(n, n, c) for c in raw)


@pytest.mark.parametrize("cone", tuple(PARTNER_ORACLES), ids=lambda c: c.value)
def test_condition_ii_is_the_partner_oracle(cone):
    # the table is read through theorem1_conditions, not through _PARTNER
    statuses = set()
    for phi in _oracle_maps():
        conds = theorem1_conditions(phi, cone)
        status = PARTNER_ORACLES[cone](phi).status
        statuses.add(status)
        assert conds.choi_membership == (status is Status.IN), (phi.d, conds.margins)
        if status is Status.UNDECIDED:
            assert conds.boundary
    assert {Status.IN, Status.OUT} <= statuses


def test_empty_pool_gives_infinite_margins():
    phi = _phi(Dims(2, 2), 1)
    got = theorem1_conditions(phi, ConeId.MAP_S, samples=[])
    ref = reference_conditions(phi, ConeId.MAP_S, samples=[], kd_samples=[])
    assert got.margins == ref.margins
    assert got.as_tuple() == ref.as_tuple()



STACK_CONES = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_POS, ConeId.MAP_S)
STACK_DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3), Dims(2, 4))


def _stack(phis, cone, pool):
    """``_theorem1_stack`` on the Choi stacks of the maps, gated once, and the pool."""
    d = phis[0].d
    pool = np.array([a.choi for a in pool]).reshape(-1, d.m * d.m, d.m * d.m)
    raw = np.array([phi.choi for phi in phis])
    return _theorem1_stack(raw, check_hermitian(raw), d, cone, pool, 1e-9)


def _assert_bit_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert (g.as_tuple(), g.boundary) == (r.as_tuple(), r.boundary)
        assert g.margins == r.margins


@pytest.mark.parametrize("d", STACK_DIMS, ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("cone", STACK_CONES, ids=lambda c: c.value)
def test_stack_is_bit_equal_to_stacks_of_one(cone, d, monkeypatch):
    pool = cone_generator_pool(cone, d, 8, 5)
    phis = [_phi(d, seed) for seed in range(10)]
    ones = [theorem1_conditions(phi, cone, samples=pool) for phi in phis]
    _assert_bit_equal(_stack(phis, cone, pool), ones)
    # a budget of three maps' stacks cuts the ten maps into chunks of 3, 3, 3 and 1
    monkeypatch.setattr(theorems_mod, "_STACK_ENTRIES", 3 * len(pool) * d.total**2)
    _assert_bit_equal(_stack(phis, cone, pool), ones)


@pytest.mark.parametrize("d", (Dims(2, 2), Dims(3, 3)), ids=lambda d: f"{d.n}x{d.m}")
def test_p_cone_stack_is_bit_equal_to_stacks_of_one(d, monkeypatch):
    pool = cone_generator_pool(ConeId.MAP_P, d, 8, 5)
    phis = [_phi(d, seed) for seed in range(10)]
    ones = [theorem1_conditions(phi, ConeId.MAP_P, samples=pool) for phi in phis]
    # the witness samples of the OUT maps ride in every chunk
    assert {"TTTT", "FFFF"} <= {o.pattern for o in ones}
    _assert_bit_equal(_stack(phis, ConeId.MAP_P, pool), ones)
    monkeypatch.setattr(theorems_mod, "_STACK_ENTRIES", 3 * len(pool) * d.total**2)
    _assert_bit_equal(_stack(phis, ConeId.MAP_P, pool), ones)


@pytest.mark.parametrize("cone", (ConeId.MAP_S, ConeId.MAP_POS), ids=lambda c: c.value)
def test_stack_on_the_empty_pool(cone):
    phis = [_phi(Dims(2, 3), seed) for seed in range(10)]
    got = _stack(phis, cone, [])
    _assert_bit_equal(got, [theorem1_conditions(phi, cone, samples=[]) for phi in phis])
    assert all(g.margins["i"] == g.margins["iv"] == np.inf for g in got)


def test_non_hermitian_map_in_a_stack_raises_its_own_error():
    d = Dims(2, 3)
    good = [_phi(d, seed) for seed in range(4)]
    g = np.random.default_rng(3).normal(size=(6, 6))
    # the first bad map deviates less than the second, whose message a
    # single gate of the whole stack would carry
    bad = [map_from_choi(2, 3, good[0].choi + s * g) for s in (1e-3, 1e-1)]
    with pytest.raises(ValueError) as single:
        theorem1_conditions(bad[0], ConeId.MAP_POS)
    assert "matrix is not Hermitian" in str(single.value)
    pool = cone_generator_pool(ConeId.MAP_POS, d, 8, 0)
    for cone in (ConeId.MAP_POS, ConeId.MAP_CP):
        with pytest.raises(ValueError) as stacked:
            _stack(good[:2] + bad + good[2:], cone, pool)
        assert str(stacked.value) == str(single.value)


def test_non_hermitian_sample_raises_the_gates_error():
    # the shared readings of (iii) and (iv) hold for Hermiticity-preserving
    # samples only, so the pool passes the gate at its default tol
    g = np.random.default_rng(5).normal(size=(4, 4))
    bad = map_from_choi(2, 2, identity_map(2).choi + 1e-3 * g)
    with pytest.raises(ValueError) as gate:
        check_hermitian(bad.choi)
    assert "matrix is not Hermitian" in str(gate.value)
    for cone in (ConeId.MAP_CP, ConeId.MAP_POS, ConeId.MAP_S, ConeId.MAP_P):
        pool = cone_generator_pool(cone, Dims(2, 2), 4, 1)
        with pytest.raises(ValueError) as got:
            theorem1_conditions(_phi(Dims(2, 2), 1), cone, samples=pool[:2] + [bad] + pool[2:], tol=0.05)
        assert str(got.value) == str(gate.value)


POOL_DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3), Dims(4, 4))


@pytest.mark.parametrize("d", POOL_DIMS, ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.value)
def test_adjoint_of_the_dual_generators_is_the_transpose_conjugate(cone, d):
    # both are index permutations of the pool, so they agree entry for entry
    sq = Dims(d.m, d.m)
    pool = _generator_pool_chois(cone, d, 8, [3])[0]
    kd_adj = adjoint_choi(both_transpose(adjoint_choi(pool, sq), sq), sq)
    assert np.array_equal(kd_adj, both_transpose(pool, sq))


def _replaced_routes(raw, d, pool):
    """The (ii), (iii) and (iv) margins as ``_theorem1_stack`` formed them from their own images."""
    sq = Dims(d.m, d.m)
    pool_t = both_transpose(pool, sq)
    density = both_transpose(raw, d)
    probe = _bottom_projectors(apply_second(pool, density[:, None], d))
    probes = apply_second(adjoint_choi(pool, sq), probe, d)
    m2 = np.min(_min_eigs(apply_second(pool_t, hermitian_part(raw)[:, None], d)), axis=-1, initial=np.inf)
    m3 = [np.min(trace_pairing(fk, pk).real, initial=np.inf) for fk, pk in zip(density, probes)]
    m4 = np.min(_min_eigs(apply_second(pool_t, raw[:, None], d)), axis=-1, initial=np.inf)
    return m2, m3, m4


#: The generic-cone pools of C2 and T1: (cone, size, seed offset).
SUITE_POOLS = {
    "C2": (ConeId.MAP_POS, 10, 19),
    "T1/cp": (ConeId.MAP_CP, 12, 17),
    "T1/cop": (ConeId.MAP_COP, 12, 17),
    "T1/d": (ConeId.MAP_D, 12, 17),
}


@pytest.mark.parametrize("d", (Dims(3, 3), Dims(2, 3)), ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("pool_id", sorted(SUITE_POOLS))
def test_shared_spectrum_matches_the_replaced_routes_on_suite_pools(pool_id, d):
    cone, size, offset = SUITE_POOLS[pool_id]
    seed = 3
    pool = _generator_pool_chois(cone, d, size, [seed + offset])[0]
    # T1's 40 trial maps, every family of _random_map
    raw = theorems_mod._random_map_chois(d, [substream(seed, 0x201, trial) for trial in range(40)], range(40))
    m2, m3, m4 = _replaced_routes(raw, d, pool)
    for k, conds in enumerate(_theorem1_stack(raw, check_hermitian(raw), d, cone, pool, 1e-9)):
        scale = 1.0 + frob(hermitian_part(raw[k]))
        assert abs(conds.margins["iii"] - m3[k]) <= 1e-12 * scale, k
        assert abs(conds.margins["iv"] - m4[k]) <= 1e-12 * scale, k
        if cone not in theorems_mod._PARTNER:
            assert abs(conds.margins["ii"] - m2[k]) <= 1e-12 * scale, k


def test_long_runs_stay_within_the_stack_budget(monkeypatch, capsys):
    sizes = []
    original = theorems_mod.apply_second

    def spy(alpha, x, d):
        out = original(alpha, x, d)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(theorems_mod, "apply_second", spy)
    assert main(["verify", "C2", "3", "3", "--trials", "200"]) == 0
    capsys.readouterr()
    # the pool has 10 maps on M_3, so one trial's stack holds 10 * 81 entries
    assert max(sizes) <= theorems_mod._STACK_ENTRIES
    assert max(sizes) > 10 * 81


def _suite_pool_stack(pool_id, d, seed=3):
    """T1's 40 trial maps at ``seed`` and the suite pool ``pool_id`` at ``d``."""
    cone, size, offset = SUITE_POOLS[pool_id]
    pool = _generator_pool_chois(cone, d, size, [seed + offset])[0]
    raw = theorems_mod._random_map_chois(d, [substream(seed, 0x201, trial) for trial in range(40)], range(40))
    return raw, cone, pool


@pytest.mark.parametrize("d", (Dims(3, 3), Dims(2, 3)), ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("pool_id", sorted(SUITE_POOLS))
def test_eigenvectors_are_taken_once_per_map(pool_id, d, monkeypatch):
    raw, cone, pool = _suite_pool_stack(pool_id, d)
    shapes = []
    original = np.linalg.eigh

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    _theorem1_stack(raw, check_hermitian(raw), d, cone, pool, 1e-9)
    # the 40 maps fit one run; only each map's worst image is decomposed
    assert shapes == [(len(raw), d.total, d.total)]


@pytest.mark.parametrize("d", (Dims(2, 3), Dims(3, 3), Dims(4, 4)), ids=lambda d: f"{d.n}x{d.m}")
@pytest.mark.parametrize("pool_id", sorted(SUITE_POOLS))
def test_pairings_equal_the_least_eigenvalue(pool_id, d):
    # (i)_alpha = (iii)_alpha = lambda_min(Y_alpha) at every sample, so at the worst one too
    raw, cone, pool = _suite_pool_stack(pool_id, d)
    c = check_hermitian(raw)
    for ck, conds in zip(c, _theorem1_stack(raw, c, d, cone, pool, 1e-9)):
        bound = 1e-13 * (1.0 + frob(ck))
        assert abs(conds.margins["i"] - conds.margins["iv"]) <= bound, conds.margins
        assert abs(conds.margins["iii"] - conds.margins["iv"]) <= bound, conds.margins


@pytest.mark.parametrize("d", (Dims(2, 2), Dims(3, 3)), ids=lambda d: f"{d.n}x{d.m}")
def test_witness_sample_is_the_folded_witness_choi(d, monkeypatch):
    witnesses, samples = [], []
    partner, margins = theorems_mod._partner_test, theorems_mod._sample_margins

    def partner_spy(*args):
        out = partner(*args)
        witnesses.extend(w for w in out[2] if w is not None)
        return out

    def margins_spy(c, density, s, d):
        samples.append(s)
        return margins(c, density, s, d)

    monkeypatch.setattr(theorems_mod, "_partner_test", partner_spy)
    monkeypatch.setattr(theorems_mod, "_sample_margins", margins_spy)
    _stack([_phi(d, seed) for seed in range(10)], ConeId.MAP_P, cone_generator_pool(ConeId.MAP_P, d, 8, 5))
    # the shared pool, then the OUT maps' witnesses as a (maps, 1) stack
    assert len(samples) == 2 and witnesses
    assert samples[1].shape == (len(witnesses), 1, d.m**2, d.m**2)
    for w, sample in zip(witnesses, samples[1][:, 0]):
        assert np.array_equal(sample, both_transpose(_witness_choi(w, d), d))
