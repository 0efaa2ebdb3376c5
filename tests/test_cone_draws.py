"""Cone draws through ``random_cone_choi``, checked against the earlier constructions.

The reference functions below are the constructions ``sample_map`` and
the suite helpers used before every cp/cop/d/p draw went through
``random_cone_choi``; there the p cone was drawn by projecting a random
Hermitian matrix onto the PPT cone with ``project_F``.  Every draw other
than a p draw must stay bitwise equal, and a p draw must consume exactly
the randomness the projection-based draw consumed.

Every draw is now one matrix of a stacked draw over several generators.
A stack must equal, bit for bit, the per-draw construction applied to
each generator in turn (``_reference_draw``, whose p draw is the shifted
Hermitian matrix and whose pos draw conjugates the shipped map through
``compose_left``), and take from each generator the same numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapcones.theorems as theorems_mod
from mapcones import fixtures
from mapcones.choi import compose_left, map_from_choi
from mapcones.cones import (
    ConeId,
    Status,
    in_P,
    is_cop,
    is_cp,
    is_decomposable,
    project_F,
)
from mapcones.linalg import Dims, frob, partial_transpose
from mapcones.sampling import (
    ConeSampler,
    _sample_chois,
    random_cone_choi,
    random_hermitian,
    random_psd,
    sample_map,
    substream,
)

DIMS = [Dims(2, 2), Dims(2, 3), Dims(3, 3)]
SEEDS = range(4)
CP, COP, P, D, S, POS = (ConeId(c) for c in ("cp", "cop", "p", "d", "s", "pos"))


def _reference_normalize(choi, n):
    return choi * (n / float(np.trace(choi).real))


def _reference_conjugated_fixture(rng):
    """x -> a L(b x b*) a* for the shipped map L and near-identity a, b, one map at a time."""

    def conj_map(a):
        return map_from_choi(3, 3, np.multiply.outer(a.T, a.T.conj()).reshape(9, 9))

    lam = fixtures.nondecomposable_map()
    a = np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return compose_left(conj_map(a), compose_left(lam, conj_map(b)))


def _reference_sample_choi(cone, d, rng):
    """The earlier ``sample_map`` body, as a normalized Choi matrix.

    Only the first attempt is kept: the earlier code retried a p draw whose
    projection vanished, which none of the draws here does.
    """
    n, m = d
    nm = d.total
    if cone is CP:
        choi = random_psd(rng, nm)
    elif cone is COP:
        choi = partial_transpose(random_psd(rng, nm), d)
    elif cone is P:
        choi = project_F(random_hermitian(rng, nm), d)
    elif cone is D:
        choi = random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
    elif cone is S:
        choi = np.zeros((nm, nm), dtype=np.complex128)
        for _ in range(nm):
            choi += np.kron(random_psd(rng, n), random_psd(rng, m))
    else:
        base = random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
        choi = _reference_normalize(base, n)
        if n == m == 3:
            lam = _reference_conjugated_fixture(rng)
            lam_choi = _reference_normalize(lam.choi.copy(), n)
            t = rng.uniform(0.3, 0.9)
            choi = (1 - t) * choi + t * lam_choi
    return _reference_normalize(choi, n)


def _reference_shifted_p(rng, d):
    """The per-draw p construction: a random Hermitian G shifted until G and PT(G) are PSD."""
    nm = d.total
    g = random_hermitian(rng, nm)
    low = min(np.linalg.eigvalsh(g)[0], np.linalg.eigvalsh(partial_transpose(g, d))[0])
    return g + (max(0.0, -low) + 0.05 * frob(g) / np.sqrt(nm)) * np.eye(nm)


def _reference_draw(cone, d, rng):
    """One ``sample_map`` Choi matrix, built draw by draw."""
    if cone is P:
        return _reference_normalize(_reference_shifted_p(rng, d), d.n)
    return _reference_sample_choi(cone, d, rng)


def _reference_random_map_choi(rng, d, family):
    """The earlier ``theorems._random_map`` Choi matrix."""
    n = d.n
    nm = d.total
    k = family % 6
    if k == 0:
        c = random_hermitian(rng, nm)
    elif k == 1:
        c = random_psd(rng, nm)
    elif k == 2:
        c = partial_transpose(random_psd(rng, nm), d)
    elif k == 3:
        c = random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
    elif k == 4:
        c = project_F(random_hermitian(rng, nm), d)
        if frob(c) < 1e-8:
            c = random_psd(rng, nm)
        c = c + 0.05 * frob(c) * np.eye(nm)
    else:
        c = random_hermitian(rng, nm) + 0.5 * random_psd(rng, nm)
    return c * (n / max(frob(c), 1e-12))


def _reference_operator_sample(rng, d, family):
    """The earlier ``theorems._operator_sample``."""
    nm = d.total
    k = family % 5
    if k == 0:
        x = random_hermitian(rng, nm)
    elif k == 1:
        x = random_psd(rng, nm)
    elif k == 2:
        x = partial_transpose(random_psd(rng, nm), d)
    elif k == 3:
        x = random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
    else:
        x = project_F(random_hermitian(rng, nm), d)
        if frob(x) < 1e-8:
            x = random_psd(rng, nm)
    return x / max(frob(x), 1e-12)


def _reference_dual_side_choi(rng, cone, d):
    """The earlier ``theorems._dual_side_choi``, one draw at a time."""
    nm = d.total
    if cone is CP:
        x = random_psd(rng, nm)
    elif cone is COP:
        x = partial_transpose(random_psd(rng, nm), d)
    elif cone is P:
        x = random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
    else:
        x = project_F(random_hermitian(rng, nm), d)
        if frob(x) < 1e-8:
            x = np.eye(nm, dtype=np.complex128)
    return x / max(float(np.trace(x).real), 1e-12)


def _ppt_margin(c, d):
    return min(np.linalg.eigvalsh(c)[0], np.linalg.eigvalsh(partial_transpose(c, d))[0])


def _operator_sample(rng, d, family):
    """One operator sample, the stack of one of ``theorems._operator_samples``."""
    return theorems_mod._operator_samples(d, [rng], [family])[0]


def _pair(seed, tag):
    return substream(seed, tag), substream(seed, tag)


def _same_next_draw(a, b):
    return np.array_equal(a.normal(size=5), b.normal(size=5))


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("cone", [CP, COP, D, S, POS])
    @pytest.mark.parametrize("d", DIMS)
    def test_sample_map(self, cone, d):
        for seed in SEEDS:
            new, old = _pair(seed, 0x31)
            assert np.array_equal(sample_map(cone, d, new).choi, _reference_sample_choi(cone, d, old))
            assert _same_next_draw(new, old)

    @pytest.mark.parametrize("family", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("d", DIMS)
    def test_random_map(self, family, d):
        for seed in SEEDS:
            new, old = _pair(seed, 0x32)
            phi = theorems_mod._random_map(new, d, family)
            assert np.array_equal(phi.choi, _reference_random_map_choi(old, d, family))
            assert _same_next_draw(new, old)

    @pytest.mark.parametrize("family", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", DIMS)
    def test_operator_sample(self, family, d):
        for seed in SEEDS:
            new, old = _pair(seed, 0x33)
            x = _operator_sample(new, d, family)
            assert np.array_equal(x, _reference_operator_sample(old, d, family))
            assert _same_next_draw(new, old)

    @pytest.mark.parametrize("cone", [CP, COP, P])
    @pytest.mark.parametrize("d", DIMS)
    def test_dual_side_choi(self, cone, d):
        news = [substream(seed, 0x34) for seed in SEEDS]
        xs = theorems_mod._dual_side_chois([cone] * len(news), d, news)
        for seed, new, x in zip(SEEDS, news, xs):
            old = substream(seed, 0x34)
            assert np.array_equal(x, _reference_dual_side_choi(old, cone, d))
            assert _same_next_draw(new, old)


class TestPDrawRandomness:
    """A p draw consumes the randomness of the projection-based draw it replaced."""

    @pytest.mark.parametrize("d", [Dims(2, 2), Dims(2, 3)])
    def test_next_draw_unchanged(self, d):
        for seed in SEEDS:
            new, old = _pair(seed, 0x35)
            sample_map(P, d, new)
            _reference_sample_choi(P, d, old)
            assert _same_next_draw(new, old)

            new, old = _pair(seed, 0x36)
            theorems_mod._random_map(new, d, 4)
            _reference_random_map_choi(old, d, 4)
            assert _same_next_draw(new, old)

            new, old = _pair(seed, 0x37)
            _operator_sample(new, d, 4)
            _reference_operator_sample(old, d, 4)
            assert _same_next_draw(new, old)

            new, old = _pair(seed, 0x38)
            theorems_mod._dual_side_chois([D], d, [new])
            _reference_dual_side_choi(old, D, d)
            assert _same_next_draw(new, old)


STACK_DIMS = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3), Dims(2, 4), Dims(3, 4)]


class TestStackedDraws:
    """A stacked draw is, bit for bit, one draw per generator."""

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("d", STACK_DIMS, ids=str)
    @pytest.mark.parametrize("cone", [CP, COP, P, D, S, POS], ids=lambda c: c.value)
    def test_stack_equals_single_draws(self, cone, d, k):
        def rngs():
            return [substream(9, 0x39, i) for i in range(k)]

        stacked, refs = rngs(), rngs()
        chois = _sample_chois(cone, d, stacked)
        assert chois.shape == (k, d.total, d.total)
        singles = [sample_map(cone, d, rng).choi for rng in rngs()]
        for c, single, rng, ref in zip(chois, singles, stacked, refs):
            assert np.array_equal(c, single)
            assert np.array_equal(c, _reference_draw(cone, d, ref))
            assert _same_next_draw(rng, ref)

    @pytest.mark.parametrize("cone", [CP, COP, P, D, S, POS], ids=lambda c: c.value)
    def test_take_equals_draws(self, cone):
        sampler = ConeSampler(cone, Dims(3, 3), seed=4)
        taken = sampler.take(5, start=3)
        assert len(taken) == 5
        for i, phi in enumerate(taken):
            assert np.array_equal(phi.choi, sampler.draw(3 + i).choi)
        assert sampler.take(0) == []

    @pytest.mark.parametrize("d", STACK_DIMS, ids=str)
    def test_p_draw_is_the_shifted_hermitian(self, d):
        # random_cone_choi is a stack of one; its unnormalized p draw, bit for bit
        for seed in SEEDS:
            new, old = _pair(seed, 0x3B)
            assert np.array_equal(random_cone_choi(P, d, new), _reference_shifted_p(old, d))
            assert _same_next_draw(new, old)


_ORACLE = {CP: is_cp, COP: is_cop, P: in_P, D: is_decomposable}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    cone=st.sampled_from([CP, COP, D, P]),
)
def test_draws_pass_their_own_oracle(n, m, seed, cone):
    d = Dims(n, m)
    c = random_cone_choi(cone, d, substream(seed, 0x3A))
    assert _ORACLE[cone](map_from_choi(n, m, c)).status is Status.IN
    if cone is P:
        # 0.05 / (sqrt(nm) (1.05 + sqrt(nm))) >= 2.4e-3 for nm <= 16
        assert _ppt_margin(c, d) >= 1e-3 * frob(c)


def test_non_concrete_cone_rejected():
    with pytest.raises(ValueError):
        random_cone_choi(S, Dims(2, 2), substream(0, 0))
