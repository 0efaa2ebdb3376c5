"""Tests for the bipartite linear-algebra substrate."""

import warnings

import numpy as np
import pytest

from _helpers import (
    brute_full_transpose_via_factors,
    brute_kron,
    brute_partial_transpose,
    random_complex,
    random_hermitian,
    random_psd,
    rng,
)
from mapcones.choi import matrix_unit, max_entangled_projector, swap_operator
from mapcones.linalg import (
    Dims,
    as_operator,
    as_operators,
    both_transpose,
    check_hermitian,
    conj_transpose,
    frob,
    frobs,
    full_transpose,
    hs_inner,
    is_psd,
    partial_trace,
    partial_transpose,
    tensor,
    trace_pairing,
)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_unit_bookkeeping(self):
        out = tensor(matrix_unit(0, 1, 2), matrix_unit(1, 0, 2))
        expected = np.zeros((4, 4))
        expected[0 * 2 + 1, 1 * 2 + 0] = 1.0
        assert np.array_equal(out, expected)

    def test_against_brute_force(self):
        g = rng(11)
        a = random_complex(g, (2, 2))
        b = random_complex(g, (2, 2))
        assert np.max(np.abs(tensor(a, b) - brute_kron(a, b))) <= 1e-15


class TestPartialTranspose:
    def test_product_case(self):
        g = rng(5)
        a = random_complex(g, (2, 2))
        b = random_complex(g, (3, 3))
        out = partial_transpose(tensor(a, b), Dims(2, 3))
        assert np.allclose(out, tensor(a, b.T), atol=1e-15)

    def test_swap_spectrum(self):
        # PT of the maximally entangled projector is the swap operator,
        # whose square is the identity and whose trace is n: eigenvalues
        # are +1 and -1 with multiplicities n(n+1)/2 and n(n-1)/2
        for n in (2, 3, 4):
            p = max_entangled_projector(n)
            s = partial_transpose(p, Dims(n, n))
            assert np.allclose(s, swap_operator(n), atol=0)
            assert np.allclose(s @ s, np.eye(n * n), atol=1e-15)
            assert abs(np.trace(s) - n) <= 1e-15
            w = np.sort(np.linalg.eigvalsh(s))
            expected = np.sort([-1.0] * (n * (n - 1) // 2) + [1.0] * (n * (n + 1) // 2))
            assert np.allclose(w, expected, atol=1e-12)

    def test_involution_exact(self):
        g = rng(7)
        x = random_complex(g, (6, 6))
        d = Dims(2, 3)
        assert np.array_equal(partial_transpose(partial_transpose(x, d), d), x)

    def test_preserves_trace_and_norm(self):
        g = rng(8)
        x = random_complex(g, (6, 6))
        d = Dims(3, 2)
        y = partial_transpose(x, d)
        assert abs(np.trace(x) - np.trace(y)) <= 1e-14
        assert abs(frob(x) - frob(y)) <= 1e-14

    def test_linear(self):
        g = rng(9)
        d = Dims(2, 2)
        x, y = random_complex(g, (4, 4)), random_complex(g, (4, 4))
        lhs = partial_transpose(1.5 * x + 2j * y, d)
        rhs = 1.5 * partial_transpose(x, d) + 2j * partial_transpose(y, d)
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_against_entry_permutation(self):
        g = rng(10)
        x = random_complex(g, (6, 6))
        d = Dims(2, 3)
        assert np.array_equal(partial_transpose(x, d), brute_partial_transpose(x, d))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5), Dims(2, 3))


class TestFullAndBothTranspose:
    def test_product_case(self):
        g = rng(12)
        a, b = random_complex(g, (2, 2)), random_complex(g, (3, 3))
        out = both_transpose(tensor(a, b), Dims(2, 3))
        assert np.allclose(out, tensor(a.T, b.T), atol=1e-15)

    def test_equals_full_transpose(self):
        g = rng(13)
        x = random_complex(g, (6, 6))
        d = Dims(2, 3)
        assert np.max(np.abs(both_transpose(x, d) - full_transpose(x))) <= 1e-15
        assert np.array_equal(both_transpose(x, d), brute_full_transpose_via_factors(x, d))

    def test_max_entangled_projector_invariant(self):
        p = max_entangled_projector(3)
        assert np.array_equal(both_transpose(p, Dims(3, 3)), p)

    def test_conj_transpose(self):
        g = rng(14)
        x = random_complex(g, (3, 4))
        assert np.array_equal(conj_transpose(x), x.conj().T)


class TestPartialTrace:
    def test_product_case(self):
        g = rng(15)
        a, b = random_complex(g, (2, 2)), random_complex(g, (3, 3))
        x = tensor(a, b)
        d = Dims(2, 3)
        assert np.allclose(partial_trace(x, d, 2), np.trace(b) * a, atol=1e-14)
        assert np.allclose(partial_trace(x, d, 1), np.trace(a) * b, atol=1e-14)

    def test_max_entangled_projector(self):
        p = max_entangled_projector(3)
        assert np.allclose(partial_trace(p, Dims(3, 3), 1), np.eye(3), atol=0)

    def test_trace_consistency(self):
        g = rng(16)
        x = random_complex(g, (6, 6))
        d = Dims(2, 3)
        for factor in (1, 2):
            assert abs(np.trace(partial_trace(x, d, factor)) - np.trace(x)) <= 1e-14

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), Dims(2, 2), 3)


class TestIsPsd:
    def test_identity(self):
        ok, lo = is_psd(np.eye(3))
        assert ok and abs(lo - 1.0) <= 1e-14

    def test_indefinite_diagonal(self):
        ok, lo = is_psd(np.diag([1.0, -0.5]))
        assert not ok and abs(lo + 0.5) <= 1e-14

    def test_partial_transpose_of_entangled_projector(self):
        p = max_entangled_projector(2)
        ok, lo = is_psd(partial_transpose(p, Dims(2, 2)))
        assert not ok and abs(lo + 1.0) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_psd_and_pt_psd_agree_on_product_positives(self):
        g = rng(18)
        for _ in range(10):
            x = tensor(random_psd(g, 2), random_psd(g, 3))
            d = Dims(2, 3)
            assert is_psd(x)[0]
            assert is_psd(partial_transpose(x, d))[0]


class TestInnerProducts:
    def test_hs_identity(self):
        assert hs_inner(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_trace_pairing_units(self):
        assert trace_pairing(matrix_unit(0, 1, 2), matrix_unit(1, 0, 2)) == pytest.approx(1.0)

    def test_trace_cyclicity(self):
        g = rng(19)
        a, b = random_complex(g, (4, 4)), random_complex(g, (4, 4))
        assert trace_pairing(a, b) == pytest.approx(trace_pairing(b, a), abs=1e-13)

    def test_hs_positive(self):
        g = rng(20)
        a = random_complex(g, (3, 3))
        v = hs_inner(a, a)
        assert v.real >= 0 and abs(v.imag) <= 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            trace_pairing(np.eye(2), np.eye(3))


class TestValidation:
    def test_rejects_non_finite(self):
        x = np.eye(2)
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            as_operator(x)

    def test_hermitian_gate_rejects_overflowing_norm(self):
        with pytest.raises(ValueError):
            check_hermitian(1e155 * np.eye(4))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            as_operator(np.ones(4))


class TestStacks:
    """Leading axes index a stack: each matrix is treated as it is alone."""

    def test_as_operators(self):
        x = random_complex(rng(70), (3, 4, 4))
        assert as_operators(x).shape == (3, 4, 4)
        assert as_operators(x[0]).shape == (4, 4)
        x[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            as_operators(x)
        with pytest.raises(ValueError):
            as_operators(np.ones(4))
        with pytest.raises(ValueError):
            as_operator(np.ones((2, 4, 4)))

    def test_frobs(self):
        x = random_complex(rng(71), (2, 3, 5, 5))
        got = frobs(x)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert got[idx] == pytest.approx(frob(x[idx]), rel=1e-15)
        assert frobs(np.eye(4)) == pytest.approx(2.0, rel=1e-15)

    def test_full_transpose_and_trace_pairing(self):
        g = rng(72)
        a = random_complex(g, (4, 4))
        xs = random_complex(g, (5, 4, 4))
        assert np.array_equal(full_transpose(xs)[3], full_transpose(xs[3]))
        vals = trace_pairing(a, xs)
        assert vals.shape == (5,)
        for j in range(5):
            assert vals[j] == trace_pairing(a, xs[j])

    def test_hermitian_gate_per_matrix(self):
        g = rng(73)
        xs = random_hermitian(g, 6)[None] + np.zeros((4, 1, 1))
        h = check_hermitian(xs)
        assert np.array_equal(h[1], check_hermitian(xs[1]))
        xs[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(xs)
        big = np.stack([np.eye(4), 1e155 * np.eye(4)])
        with pytest.raises(ValueError, match="not finite"):
            check_hermitian(big)

    @staticmethod
    def _gate_messages(stack, k):
        """The stacked gate's error and matrix k's own one, with every warning an error."""
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (stack, stack[k]):
                with pytest.raises(ValueError) as err:
                    check_hermitian(x)
                messages.append(str(err.value))
        return messages

    def test_hermitian_gate_names_the_first_failing_matrix(self):
        g = rng(74)
        xs = random_hermitian(g, 5)[None] + np.zeros((3, 1, 1))
        skew = random_complex(g, (5, 5))
        # matrix 1 deviates less than matrix 2, whose deviation is the stack's largest
        xs[1] += 1e-6 * skew
        xs[2] += 1e-3 * skew
        stacked, single = self._gate_messages(xs, 1)
        assert "not Hermitian" in single
        assert stacked == single

    @pytest.mark.parametrize("huge", [1e155 * np.eye(4), 1e155 * random_complex(rng(75), (4, 4)),
                                      np.diag([np.inf, 1.0, 1.0, 1.0])])
    def test_hermitian_gate_takes_norm_and_deviation_in_stack_order(self, huge):
        skew = np.eye(4, dtype=np.complex128)
        skew[0, 1] = 1e-3
        for stack, kind in ((np.stack([skew, huge]), "not Hermitian"), (np.stack([huge, skew]), "not finite")):
            stacked, single = self._gate_messages(stack, 0)
            assert kind in single
            assert stacked == single
