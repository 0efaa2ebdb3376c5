"""Sampler invariants: every draw passes its own cone's oracle."""

import numpy as np
import pytest

import mapcones.sampling as sampling_mod
from mapcones import fixtures
from mapcones.choi import adjoint, depolarizing_map, identity_map, transpose_conj, transpose_map
from mapcones.cones import (
    ConeId,
    Status,
    in_F,
    in_P,
    in_S,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
)
from mapcones.linalg import Dims, frob
from mapcones.sampling import (
    ConeSampler,
    _conj_choi,
    _generator_pool_chois,
    _random_cone_chois,
    _sample_chois,
    cone_generator_pool,
    k_t,
    kd_generators,
    random_density,
    random_pure_entangled_state,
    random_pure_product_state,
    random_separable_mixture,
    sample_map,
    substream,
)

D22 = Dims(2, 2)
D33 = Dims(3, 3)


class TestSamplerInvariants:
    @pytest.mark.parametrize("d", [D22, Dims(2, 3), D33])
    def test_cp_samples(self, d):
        for k in range(4):
            phi = ConeSampler(ConeId.MAP_CP, d, seed=1).draw(k)
            assert is_cp(phi).status is Status.IN
            assert np.trace(phi.choi).real == pytest.approx(d.n)

    @pytest.mark.parametrize("d", [D22, Dims(2, 3), D33])
    def test_cop_samples(self, d):
        for k in range(4):
            phi = ConeSampler(ConeId.MAP_COP, d, seed=2).draw(k)
            assert is_cop(phi).status is Status.IN

    @pytest.mark.parametrize("d", [D22, D33])
    def test_p_samples(self, d):
        for k in range(4):
            phi = ConeSampler(ConeId.MAP_P, d, seed=3).draw(k)
            assert in_P(phi).status is Status.IN

    @pytest.mark.parametrize("d", [D22, D33])
    def test_d_samples(self, d):
        for k in range(3):
            phi = ConeSampler(ConeId.MAP_D, d, seed=4).draw(k)
            assert is_decomposable(phi).status is Status.IN

    def test_s_samples_exact_regime(self):
        for d in (D22, Dims(2, 3)):
            for k in range(3):
                phi = ConeSampler(ConeId.MAP_S, d, seed=5).draw(k)
                assert in_S(phi).status is Status.IN

    def test_s_samples_ppt_everywhere(self):
        for k in range(3):
            phi = ConeSampler(ConeId.MAP_S, D33, seed=6).draw(k)
            assert in_F(phi.choi, D33).status is Status.IN
            assert in_S(phi).status is not Status.OUT

    def test_pos_samples_no_violation(self):
        for k in range(3):
            phi = ConeSampler(ConeId.MAP_POS, D33, seed=7).draw(k)
            assert is_positive_map(phi, restarts=10, seed=k).status is Status.IN

    def test_operator_cone_rejected(self):
        with pytest.raises(ValueError):
            sample_map(ConeId.OP_PSD, D22, 0)


#: the public samplers, each called on a cone and dims
SAMPLERS = {
    "sample_map": lambda cone, d: sample_map(cone, d, 0),
    "draw": lambda cone, d: ConeSampler(cone, d, 0).draw(0),
    "take": lambda cone, d: ConeSampler(cone, d, 0).take(2),
    "cone_generator_pool": lambda cone, d: cone_generator_pool(cone, d, 4, 0),
}


@pytest.mark.parametrize("call", list(SAMPLERS.values()), ids=list(SAMPLERS))
class TestInputGate:
    """Every sampler runs ``sample_map``'s gate before it draws."""

    @pytest.mark.parametrize("cone", [ConeId.OP_PSD, ConeId.OP_E], ids=lambda c: c.value)
    def test_operator_cone_raises(self, call, cone):
        with pytest.raises(ValueError, match="is not a map cone"):
            call(cone, D22)

    @pytest.mark.parametrize("d", [Dims(0, 2), Dims(2, 0)], ids=str)
    def test_invalid_dims_raise(self, call, d):
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            call(ConeId.MAP_CP, d)


class TestDeterminism:
    def test_same_seed_same_draw(self):
        a = ConeSampler(ConeId.MAP_CP, D33, seed=11).draw(5)
        b = ConeSampler(ConeId.MAP_CP, D33, seed=11).draw(5)
        assert frob(a.choi - b.choi) == 0.0

    def test_different_indices_differ(self):
        s = ConeSampler(ConeId.MAP_CP, D33, seed=11)
        assert frob(s.draw(0).choi - s.draw(1).choi) > 1e-3

    def test_substream_stability(self):
        a = substream(9, 1, 2).normal(size=4)
        b = substream(9, 1, 2).normal(size=4)
        assert np.array_equal(a, b)


class TestGeneratorTransforms:
    def test_identity_and_transpose_fixed(self):
        for gen in (identity_map(3), transpose_map(3)):
            (kd,) = kd_generators([gen])
            (kt,) = k_t([gen])
            assert frob(kd.choi - gen.choi) <= 1e-13
            assert frob(kt.choi - gen.choi) <= 1e-13

    def test_cp_closed_under_dual_transform(self):
        for k in range(4):
            phi = ConeSampler(ConeId.MAP_CP, D33, seed=13).draw(k)
            dual = transpose_conj(adjoint(phi))
            assert is_cp(dual).status is Status.IN

    def test_pool_contains_canonical(self):
        pool = cone_generator_pool(ConeId.MAP_D, D33, 6, seed=1)
        assert frob(pool[0].choi - identity_map(3).choi) == 0.0
        assert frob(pool[1].choi - transpose_map(3).choi) == 0.0
        assert len(pool) == 6

    def test_pool_keeps_every_canonical_element(self):
        # a count below the number of canonical elements still returns all of them
        pool = cone_generator_pool(ConeId.MAP_POS, D33, 1, seed=1)
        lam = fixtures.nondecomposable_map().choi
        expected = [identity_map(3).choi, transpose_map(3).choi, lam * (3 / np.trace(lam).real)]
        assert len(pool) == 3
        for phi, c in zip(pool, expected):
            assert np.array_equal(phi.choi, c)
        assert len(cone_generator_pool(ConeId.MAP_D, D33, 0, seed=1)) == 2


MAP_CONES = [ConeId(c) for c in ("cp", "cop", "p", "d", "s", "pos")]


def _reference_canonical(cone, d):
    """The canonical elements of a pool, built from the public maps."""
    n, m = d
    lam = fixtures.nondecomposable_map().choi
    return {
        ConeId.MAP_CP: [identity_map(m).choi] if n == m else [],
        ConeId.MAP_COP: [transpose_map(m).choi],
        ConeId.MAP_P: [depolarizing_map(m, m).choi],
        ConeId.MAP_S: [depolarizing_map(m, m).choi],
        ConeId.MAP_D: [identity_map(m).choi, transpose_map(m).choi],
        ConeId.MAP_POS: [identity_map(m).choi, transpose_map(m).choi] + ([lam * (3 / np.trace(lam).real)] if m == 3 else []),
    }[cone]


class TestGeneratorPoolChois:
    """Each seed's slice of a pool stack is the canonical Choi matrices, then ``ConeSampler.take``."""

    @pytest.mark.parametrize("count", [0, 1, "canonical", 8, 16])
    @pytest.mark.parametrize("d", [D22, Dims(2, 3), Dims(3, 2), D33], ids=str)
    @pytest.mark.parametrize("cone", MAP_CONES, ids=lambda c: c.value)
    def test_slices_equal_the_reference(self, cone, d, count):
        canonical = _reference_canonical(cone, d)
        count = len(canonical) if count == "canonical" else count
        seeds = [0, 3, 11]
        m2 = d.m * d.m
        pools = _generator_pool_chois(cone, d, count, seeds)
        assert pools.shape == (len(seeds), max(count, len(canonical)), m2, m2)
        for seed, pool in zip(seeds, pools):
            drawn = [phi.choi for phi in ConeSampler(cone, Dims(d.m, d.m), seed).take(max(count - len(canonical), 0))]
            ref = canonical + drawn
            assert len(pool) == len(ref)
            for got, want in zip(pool, ref):
                assert np.array_equal(got, want)
        assert _generator_pool_chois(cone, d, count, []).shape == (0,) + pools.shape[1:]


class TestEmptyStacks:
    """A stacked draw over no generators is an empty stack of the draw's shape."""

    @pytest.mark.parametrize("d", [D22, Dims(2, 3), D33], ids=str)
    @pytest.mark.parametrize("cone", MAP_CONES, ids=lambda c: c.value)
    def test_empty_draws(self, cone, d):
        assert _sample_chois(cone, d, []).shape == (0, d.total, d.total)
        if cone in sampling_mod._CLOSED_FORM:
            assert _random_cone_chois(cone, d, []).shape == (0, d.total, d.total)


class TestStackedDrawCounts:
    """A stacked draw makes the same kernel calls whatever the number of draws."""

    @staticmethod
    def spied(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("count", [2, 5, 16])
    def test_p_pool_reads_two_spectra(self, monkeypatch, count):
        calls = self.spied(monkeypatch, np.linalg, "eigvalsh")
        assert len(cone_generator_pool(ConeId.MAP_P, D33, count, seed=2)) == count
        assert len(calls) == 2

    @pytest.mark.parametrize("count", [1, 4, 9])
    def test_pos_stack_conjugates_with_two_products(self, monkeypatch, count):
        calls = self.spied(monkeypatch, sampling_mod, "apply_second")
        assert len(ConeSampler(ConeId.MAP_POS, D33, seed=3).take(count)) == count
        assert len(calls) == 2


class TestStateGenerators:
    def test_product_state_is_state(self):
        g = substream(1, 2)
        rho = random_pure_product_state(g, Dims(2, 3))
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert in_F(rho, Dims(2, 3)).status is Status.IN

    def test_entangled_state_fails_ppt(self):
        g = substream(2, 3)
        for _ in range(5):
            rho = random_pure_entangled_state(g, Dims(2, 3))
            v = in_F(rho, Dims(2, 3))
            assert v.status is Status.OUT

    def test_separable_mixture_is_ppt(self):
        g = substream(3, 4)
        rho = random_separable_mixture(g, D22)
        assert in_F(rho, D22).status is Status.IN

    def test_density_has_unit_trace_and_its_rank(self):
        rho = random_density(substream(4, 5), 4, rank=2)
        w = np.linalg.eigvalsh(rho)
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert w[0] >= -1e-12 and np.sum(w > 1e-12) == 2

    @pytest.mark.parametrize("d", [Dims(1, 3), Dims(2, 1)], ids=["1x3", "2x1"])
    def test_entangled_state_needs_two_factors_of_dimension_two(self, d):
        with pytest.raises(ValueError, match="both factors of dimension >= 2"):
            random_pure_entangled_state(substream(5, 6), d)


class TestConjChoi:
    @staticmethod
    def loop_form(a):
        """Reference: block (i, j) is np.outer(a[:, i], conj(a[:, j]))."""
        k = a.shape[0]
        blocks = np.zeros((k * k, k * k), dtype=np.complex128)
        for i in range(k):
            for j in range(k):
                blocks[i * k : (i + 1) * k, j * k : (j + 1) * k] = np.outer(a[:, i], a[:, j].conj())
        return blocks

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bitwise_equal_to_loop_form(self, k):
        g = np.random.default_rng(80 + k)
        for _ in range(20):
            a = np.eye(k) + 0.25 * (g.normal(size=(k, k)) + 1j * g.normal(size=(k, k)))
            assert np.array_equal(_conj_choi(a), self.loop_form(a))
