"""Tests for the Choi-matrix map calculus."""

import numpy as np
import pytest

from _helpers import random_complex, random_psd, rng
from mapcones.choi import (
    MapRep,
    adjoint,
    adjoint_choi,
    apply_map,
    apply_second,
    compose_left,
    depolarizing_map,
    dual_functional,
    identity_map,
    map_from_action,
    map_from_choi,
    matrix_unit,
    max_entangled_projector,
    omega_eval,
    pairing,
    swap_operator,
    transpose_conj,
    transpose_map,
    trpi_eval,
)
from mapcones.linalg import Dims, both_transpose, frob, full_transpose, tensor


def random_map(g, n, m):
    return map_from_choi(n, m, random_complex(g, (n * m, n * m)))


def random_hermitian_map(g, n, m):
    c = random_complex(g, (n * m, n * m))
    return map_from_choi(n, m, (c + c.conj().T) / 2)


class TestMapFromAction:
    def test_identity_gives_max_entangled(self):
        phi = map_from_action(3, 3, lambda e: e)
        assert np.array_equal(phi.choi, max_entangled_projector(3))

    def test_transpose_gives_swap(self):
        phi = map_from_action(3, 3, lambda e: e.T)
        # evaluate the action on all units and compare blockwise
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                expected += tensor(matrix_unit(i, j, 3), matrix_unit(j, i, 3))
        assert np.array_equal(phi.choi, expected)
        assert np.array_equal(phi.choi, swap_operator(3))

    def test_depolarizing_blocks(self):
        phi = depolarizing_map(2, 3)
        c = phi.choi
        for i in range(2):
            for j in range(2):
                blk = c[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3]
                expected = np.eye(3) / 3 if i == j else np.zeros((3, 3))
                assert np.array_equal(blk, expected)

    def test_rejects_wrong_output_shape(self):
        with pytest.raises(ValueError):
            map_from_action(2, 3, lambda e: e)


class TestApply:
    def test_identity(self):
        g = rng(21)
        a = random_complex(g, (3, 3))
        assert np.allclose(apply_map(identity_map(3), a), a, atol=1e-15)

    def test_transpose_on_unit(self):
        out = apply_map(transpose_map(2), matrix_unit(0, 1, 2))
        assert np.array_equal(out, matrix_unit(1, 0, 2))

    def test_round_trips_action(self):
        g = rng(22)
        blocks = {(i, j): random_complex(g, (3, 3)) for i in range(3) for j in range(3)}

        def action(e):
            i, j = np.argwhere(e)[0]
            return blocks[(i, j)]

        phi = map_from_action(3, 3, action)
        for _ in range(100):
            a = random_complex(g, (3, 3))
            expected = sum(a[i, j] * blocks[(i, j)] for i in range(3) for j in range(3))
            assert frob(apply_map(phi, a) - expected) <= 1e-13 * (1 + frob(expected))

    def test_linear(self):
        g = rng(23)
        phi = random_map(g, 2, 3)
        a, b = random_complex(g, (2, 2)), random_complex(g, (2, 2))
        lhs = apply_map(phi, 2 * a - 1j * b)
        rhs = 2 * apply_map(phi, a) - 1j * apply_map(phi, b)
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestApplySecondBatch:
    def test_map_stack_on_one_operator(self):
        g = rng(35)
        alphas = [random_map(g, 3, 2) for _ in range(5)]
        x = random_complex(g, (6, 6))
        d = Dims(2, 3)
        got = apply_second(np.array([a.choi for a in alphas]), x, d)
        assert got.shape == (5, 4, 4)
        for k, a in enumerate(alphas):
            assert frob(got[k] - apply_second(a, x, d)) <= 1e-14 * (1 + frob(got[k]))

    def test_broadcast_maps_against_operator_stack(self):
        g = rng(36)
        alphas = [random_map(g, 2, 2) for _ in range(3)]
        xs = random_complex(g, (3, 4, 4, 4))
        d = Dims(2, 2)
        got = apply_second(np.array([a.choi for a in alphas])[:, None], xs, d)
        assert got.shape == (3, 4, 4, 4)
        for k, a in enumerate(alphas):
            for r in range(4):
                ref = apply_second(a, xs[k, r], d)
                assert frob(got[k, r] - ref) <= 1e-14 * (1 + frob(ref))

    def test_single_map_on_operator_stack(self):
        g = rng(37)
        alpha = random_map(g, 3, 3)
        xs = random_complex(g, (2, 9, 9))
        got = apply_second(alpha, xs, Dims(3, 3))
        for k in range(2):
            assert np.allclose(got[k], apply_second(alpha, xs[k], Dims(3, 3)), atol=1e-14)

    def test_rejects_mismatched_shapes(self):
        g = rng(38)
        with pytest.raises(ValueError):
            apply_second(random_complex(g, (2, 8, 8)), random_complex(g, (6, 6)), Dims(2, 3))
        with pytest.raises(ValueError):
            apply_second(identity_map(3), random_complex(g, (2, 4, 4)), Dims(2, 3))
        with pytest.raises(ValueError):
            apply_second(identity_map(3), np.full((6, 6), np.nan), Dims(2, 3))


def einsum_apply_second(alpha, x, d):
    """Reference form of id (x) alpha: out[i u, j v] = sum_rs x[i r, j s] alpha[r u, s v]."""
    n, m = d
    k = alpha.shape[-1] // m
    x4 = x.reshape(x.shape[:-2] + (n, m, n, m))
    a4 = alpha.reshape(alpha.shape[:-2] + (m, k, m, k))
    out = np.einsum("...irjs,...rusv->...iujv", x4, a4)
    return out.reshape(out.shape[:-4] + (n * k, n * k))


class TestApplySecondAgainstEinsum:
    """The one-``matmul`` form against the einsum contraction, to 1e-13 relative."""

    @pytest.mark.parametrize(
        "maps,ops,n,m,k",
        [
            ((), (), 3, 3, 3),  # a single map on a single operator
            ((7,), (), 3, 3, 3),  # K maps on one operator
            ((), (7,), 3, 3, 3),  # one map on K operators
            ((7,), (7,), 3, 3, 3),  # K maps on K operators
            ((5,), (), 2, 3, 2),  # non-square maps M_3 -> M_2
            ((5, 1), (1, 4), 2, 3, 2),  # broadcast, non-square
            ((), (4,), 2, 3, 4),  # one map M_3 -> M_4 on a stack
        ],
    )
    def test_matches_einsum(self, maps, ops, n, m, k):
        g = rng(50 + n + m + k + len(maps) + 2 * len(ops))
        alpha = random_complex(g, maps + (m * k, m * k))
        x = random_complex(g, ops + (n * m, n * m))
        d = Dims(n, m)
        got = apply_second(alpha, x, d)
        ref = einsum_apply_second(alpha, x, d)
        assert got.shape == ref.shape
        assert frob(got - ref) <= 1e-13 * frob(ref)
        if not maps:
            via_rep = apply_second(map_from_choi(m, k, alpha), x, d)
            assert np.array_equal(via_rep, got)

    def test_stack_entries_equal_single_calls(self):
        g = rng(57)
        alphas = random_complex(g, (6, 9, 9))
        xs = random_complex(g, (6, 9, 9))
        got = apply_second(alphas, xs, Dims(3, 3))
        for j in range(6):
            assert np.array_equal(got[j], apply_second(alphas[j], xs[j], Dims(3, 3)))

    def test_rejects_non_finite_in_stack(self):
        xs = random_complex(rng(58), (3, 9, 9))
        xs[1, 2, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            apply_second(identity_map(3), xs, Dims(3, 3))


class TestCompose:
    def test_identity_neutral(self):
        g = rng(24)
        phi = random_map(g, 2, 3)
        out = compose_left(identity_map(3), phi)
        assert np.allclose(out.choi, phi.choi, atol=1e-15)

    def test_transpose_squares_to_identity(self):
        t = transpose_map(3)
        assert np.allclose(compose_left(t, t).choi, identity_map(3).choi, atol=1e-15)

    def test_blockwise_matches_pointwise(self):
        g = rng(25)
        alpha = random_map(g, 2, 2)
        phi = random_map(g, 2, 2)
        comp = compose_left(alpha, phi)
        for _ in range(20):
            a = random_complex(g, (2, 2))
            lhs = apply_map(comp, a)
            rhs = apply_map(alpha, apply_map(phi, a))
            assert frob(lhs - rhs) <= 1e-13 * (1 + frob(rhs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_left(identity_map(2), identity_map(3))


class TestTransposeConj:
    def test_identity_fixed(self):
        assert np.array_equal(transpose_conj(identity_map(3)).choi, identity_map(3).choi)

    def test_transpose_fixed(self):
        assert np.array_equal(transpose_conj(transpose_map(3)).choi, transpose_map(3).choi)

    def test_equals_full_transpose_of_choi(self):
        g = rng(26)
        phi = random_map(g, 2, 3)
        assert np.max(np.abs(transpose_conj(phi).choi - full_transpose(phi.choi))) <= 1e-15

    def test_matches_action_route(self):
        g = rng(27)
        phi = random_map(g, 3, 2)
        via_action = map_from_action(
            3, 2, lambda e: apply_map(phi, e.T).T
        )
        assert np.allclose(transpose_conj(phi).choi, via_action.choi, atol=1e-14)


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.allclose(adjoint(identity_map(3)).choi, identity_map(3).choi, atol=0)

    def test_conjugation_map(self):
        g = rng(28)
        v = random_complex(g, (3, 3))
        phi = map_from_action(3, 3, lambda e: v @ e @ v.conj().T)
        expected = map_from_action(3, 3, lambda e: v.conj().T @ e @ v)
        assert np.allclose(adjoint(phi).choi, expected.choi, atol=1e-13)

    def test_defining_identity(self):
        g = rng(29)
        phi = random_map(g, 2, 3)
        adj = adjoint(phi)
        for _ in range(20):
            a = random_complex(g, (2, 2))
            b = random_complex(g, (3, 3))
            lhs = np.trace(apply_map(phi, a) @ b)
            rhs = np.trace(a @ apply_map(adj, b))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_involution(self):
        g = rng(30)
        phi = random_map(g, 2, 3)
        assert frob(adjoint(adjoint(phi)).choi - phi.choi) <= 1e-13 * (1 + frob(phi.choi))

    def test_matches_choi_axis_permutation(self):
        # pins the permutation convention: the four block axes reversed
        # (the trace-rule reference is test_matches_entrywise_trace_rule)
        g = rng(31)
        phi = random_map(g, 2, 3)
        c4 = phi.choi.reshape(2, 3, 2, 3)
        rearranged = c4.transpose(3, 2, 1, 0).reshape(6, 6)
        assert np.allclose(adjoint(phi).choi, rearranged, atol=1e-13)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (1, 4), (4, 1)])
    def test_matches_entrywise_trace_rule(self, n, m):
        # reference: phi*(b)_ji = Tr(phi(e_ij) b), one map_from_action
        # callback per matrix unit of M_m
        g = rng(33 + n + 5 * m)
        phi = random_map(g, n, m)
        c4 = phi.choi.reshape(n, m, n, m)
        ref = map_from_action(m, n, lambda b: np.einsum("irjs,sr->ij", c4, b).T)
        adj = adjoint(phi)
        assert adj.d == (m, n)
        assert frob(adj.choi - ref.choi) <= 1e-14 * (1 + frob(ref.choi))

    def test_stack_matches_per_map(self):
        g = rng(34)
        maps = [random_map(g, 2, 3) for _ in range(4)]
        stack = np.array([p.choi for p in maps]).reshape(2, 2, 6, 6)
        got = adjoint_choi(stack, Dims(2, 3))
        for k, p in enumerate(maps):
            assert np.array_equal(got.reshape(4, 6, 6)[k], adjoint(p).choi)

    def test_commutes_with_transpose_conj(self):
        g = rng(32)
        phi = random_map(g, 3, 3)
        a = adjoint(transpose_conj(phi)).choi
        b = transpose_conj(adjoint(phi)).choi
        assert frob(a - b) <= 1e-13 * (1 + frob(a))


class TestDualFunctional:
    def test_value_at_max_entangled(self):
        # for the identity map the functional at p sums Tr(e_ij e_ij^T)
        # over all matrix units, which the direct loop evaluates to n^2
        # (consistent with Tr(p^2) = n^2, since p^2 = n p with Tr p = n)
        n = 3
        f = dual_functional(identity_map(n))
        expected = sum(
            np.trace(matrix_unit(i, j, n) @ matrix_unit(i, j, n).T)
            for i in range(n)
            for j in range(n)
        )
        assert expected == pytest.approx(n * n)
        assert f(max_entangled_projector(n)) == pytest.approx(expected)

    def test_two_formulas_agree(self):
        g = rng(33)
        phi = random_map(g, 2, 3)
        f = dual_functional(phi)
        for _ in range(20):
            a = random_complex(g, (2, 2))
            b = random_complex(g, (3, 3))
            lhs = f(tensor(a, b))
            rhs = np.trace(apply_map(phi, a) @ b.T)
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))

    def test_positive_on_psd_for_cp_map(self):
        g = rng(34)
        c = random_psd(g, 9)
        phi = map_from_choi(3, 3, c / np.trace(c).real)
        f = dual_functional(phi)
        for _ in range(10):
            x = random_psd(g, 9)
            v = f(x)
            assert v.real >= -1e-12 * (1 + frob(x))
            assert abs(v.imag) <= 1e-12 * (1 + frob(x))


class TestStackedFunctionals:
    """``DualFunctional``, ``omega_eval`` and ``trpi_eval`` on stacks equal their per-matrix calls."""

    def test_dual_functional_stack(self):
        g = rng(60)
        f = dual_functional(random_map(g, 2, 3))
        xs = random_complex(g, (4, 5, 6, 6))
        vals = f(xs)
        assert vals.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert vals[idx] == f(xs[idx])
        assert isinstance(f(xs[0, 0]), complex)

    def test_omega_eval_stack(self):
        g = rng(61)
        xs = random_complex(g, (7, 9, 9))
        xs = (xs + xs.conj().swapaxes(-1, -2)) / 2
        vals = omega_eval(xs, 3)
        assert vals.shape == (7,)
        for j in range(7):
            assert vals[j] == omega_eval(xs[j], 3)
        assert isinstance(omega_eval(xs[0], 3), float)

    def test_trpi_eval_stack(self):
        g = rng(62)
        xs = random_complex(g, (2, 3, 9, 9))
        vals = trpi_eval(xs, Dims(3, 3))
        assert vals.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert vals[idx] == trpi_eval(xs[idx], Dims(3, 3))
        assert isinstance(trpi_eval(xs[0, 0], Dims(3, 3)), complex)

    def test_one_non_finite_matrix_rejects_the_stack(self):
        g = rng(63)
        xs = random_complex(g, (5, 9, 9))
        xs = (xs + xs.conj().swapaxes(-1, -2)) / 2
        xs[3, 0, 0] = np.nan
        f = dual_functional(random_map(g, 3, 3))
        for call in (f, lambda x: omega_eval(x, 3), lambda x: trpi_eval(x, Dims(3, 3))):
            with pytest.raises(ValueError, match="non-finite"):
                call(xs)

    def test_one_non_hermitian_matrix_rejects_omega(self):
        g = rng(64)
        xs = random_complex(g, (5, 9, 9))
        xs = (xs + xs.conj().swapaxes(-1, -2)) / 2
        omega_eval(xs, 3)
        xs[2] += 1e-3 * random_complex(g, (9, 9))
        with pytest.raises(ValueError, match="not Hermitian"):
            omega_eval(xs, 3)

    def test_stack_shape_gates(self):
        g = rng(65)
        f = dual_functional(random_map(g, 3, 3))
        with pytest.raises(ValueError):
            f(random_complex(g, (2, 4, 4)))
        with pytest.raises(ValueError):
            omega_eval(np.stack([np.eye(6)] * 2), 2)
        with pytest.raises(ValueError):
            trpi_eval(random_complex(g, (2, 4, 4)), Dims(3, 3))
        with pytest.raises(ValueError):
            f(np.ones(9))


class TestPairing:
    def test_identity_with_itself(self):
        # p^2 = n p, so the pairing of the identity with itself is n^2
        for n in (2, 3):
            p = max_entangled_projector(n)
            assert np.allclose(p @ p, n * p, atol=1e-14)
            assert pairing(identity_map(n), identity_map(n)) == pytest.approx(n * n)

    def test_self_pairing_nonnegative(self):
        g = rng(35)
        phi = random_hermitian_map(g, 2, 2)
        assert pairing(phi, phi) >= 0

    def test_cp_cp_nonnegative_and_symmetric(self):
        g = rng(36)
        for _ in range(10):
            a = map_from_choi(2, 2, random_psd(g, 4))
            b = map_from_choi(2, 2, random_psd(g, 4))
            v = pairing(a, b)
            assert v >= -1e-12
            assert v == pytest.approx(pairing(b, a), abs=1e-12)

    def test_real_bilinearity(self):
        g = rng(85)
        a = random_hermitian_map(g, 2, 2)
        b = random_hermitian_map(g, 2, 2)
        c = random_hermitian_map(g, 2, 2)
        combo = map_from_choi(2, 2, 1.5 * a.choi - 0.3 * b.choi)
        lhs = pairing(combo, c)
        rhs = 1.5 * pairing(a, c) - 0.3 * pairing(b, c)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_non_hermitian(self):
        g = rng(37)
        with pytest.raises(ValueError):
            pairing(random_map(g, 2, 2), identity_map(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing(identity_map(2), identity_map(3))


class TestOmega:
    def test_on_max_entangled(self):
        for n in (2, 3):
            assert omega_eval(max_entangled_projector(n), n) == pytest.approx(n)

    def test_on_identity(self):
        for n in (2, 3):
            assert omega_eval(np.eye(n * n), n) == pytest.approx(1.0)

    def test_product_formula(self):
        # omega(a (x) b) = Tr(a b^T) / n, checked against an entry loop
        g = rng(38)
        n = 3
        a = random_complex(g, (n, n))
        a = (a + a.conj().T) / 2
        b = random_complex(g, (n, n))
        b = (b + b.conj().T) / 2
        x = tensor(a, b)
        direct = sum(a[i, j] * b[i, j] for i in range(n) for j in range(n)) / n
        assert omega_eval(x, n) == pytest.approx(direct.real, abs=1e-12)
        assert omega_eval(x, n) == pytest.approx(np.trace(a @ b.T).real / n, abs=1e-12)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            omega_eval(np.eye(6), 2)


class TestTrPi:
    def test_product_formula(self):
        g = rng(39)
        a, b = random_complex(g, (3, 3)), random_complex(g, (3, 3))
        val = trpi_eval(tensor(a, b), Dims(3, 3))
        assert val == pytest.approx(complex(np.trace(b.T @ a)), abs=1e-12)

    def test_positive_on_squares(self):
        g = rng(40)
        for _ in range(10):
            y = random_complex(g, (9, 9))
            val = trpi_eval(y @ y.conj().T, Dims(3, 3))
            assert val.real >= -1e-12 * (1 + frob(y) ** 2)
            assert abs(val.imag) <= 1e-12 * (1 + frob(y) ** 2)

    def test_factorizes_the_dual_functional(self):
        g = rng(41)
        phi = random_map(g, 3, 3)
        f = dual_functional(phi)
        lifted = transpose_conj(adjoint(phi))
        for _ in range(10):
            x = random_complex(g, (9, 9))
            lhs = f(x)
            rhs = trpi_eval(apply_second(lifted, x, Dims(3, 3)), Dims(3, 3))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + frob(x) * frob(phi.choi))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            trpi_eval(np.eye(6), Dims(2, 3))


class TestDualTransposeIdentities:
    def test_functional_transpose_composition(self):
        g = rng(42)
        d = Dims(2, 3)
        phi = random_map(g, 2, 3)
        f = dual_functional(phi)
        ft = dual_functional(transpose_conj(phi))
        for _ in range(20):
            x = random_complex(g, (6, 6))
            den = 1 + frob(phi.choi) * frob(x)
            assert abs(ft(x) - f(both_transpose(x, d))) <= 1e-12 * den
            assert abs(ft(x) - f(full_transpose(x))) <= 1e-12 * den

    def test_choi_of_transpose_conj_routes(self):
        g = rng(43)
        d = Dims(2, 3)
        phi = random_map(g, 2, 3)
        tc = transpose_conj(phi).choi
        assert frob(tc - both_transpose(phi.choi, d)) == 0.0
        assert np.max(np.abs(tc - full_transpose(phi.choi))) <= 1e-15

    def test_choi_criterion_bridge(self):
        # Tr(C x) = n * omega((id (x) phi*)(x)) for square maps
        g = rng(44)
        n = 3
        phi = random_hermitian_map(g, n, n)
        adj = adjoint(phi)
        for _ in range(10):
            x = random_psd(g, n * n)
            lhs = np.trace(phi.choi @ x).real
            y = apply_second(adj, x, Dims(n, n))
            rhs = n * omega_eval((y + y.conj().T) / 2, n)
            assert abs(lhs - rhs) <= 1e-12 * (1 + frob(phi.choi) * frob(x))


class TestMapRepValidation:
    def test_shape_gate(self):
        with pytest.raises(ValueError):
            MapRep(Dims(2, 3), np.eye(5))

    def test_choi_read_only(self):
        phi = identity_map(2)
        with pytest.raises(ValueError):
            phi.choi[0, 0] = 5.0

    def test_apply_second_changes_dims(self):
        g = rng(45)
        alpha = map_from_choi(3, 2, random_complex(g, (6, 6)))
        x = random_complex(g, (6, 6))
        out = apply_second(alpha, x, Dims(2, 3))
        assert out.shape == (4, 4)
