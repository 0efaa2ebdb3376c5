"""Dense complex linear algebra on bipartite operator spaces.

Operators live on C^n (x) C^m with the composite index convention

    (i, r)  ->  i * m + r,

i.e. the first tensor factor indexes m x m blocks and the second factor
indexes entries inside a block.  ``numpy.kron`` realizes exactly this
convention, and every partial operation below (partial transpose, partial
trace, blockwise map application) is written against it.  All inputs and
outputs are plain complex ``numpy`` arrays; nothing here mutates its
arguments.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Dims",
    "HermSpectrum",
    "as_operator",
    "frob",
    "tensor",
    "full_transpose",
    "conj_transpose",
    "partial_transpose",
    "both_transpose",
    "partial_trace",
    "eig_hermitian",
    "is_psd",
    "hs_inner",
    "trace_pairing",
    "hermitian_part",
    "check_hermitian",
]

#: Relative tolerance used by default for Hermiticity and PSD gates.
DEFAULT_TOL = 1e-9


class Dims(NamedTuple):
    """Dimensions of a bipartite operator space: first factor n, second m."""

    n: int
    m: int

    @property
    def total(self) -> int:
        return self.n * self.m

    def validate(self) -> "Dims":
        if self.n < 1 or self.m < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")
        return self


class HermSpectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted in nonincreasing order;
    ``eigenvectors`` is unitary with the k-th column the eigenvector of
    the k-th eigenvalue, so that  x = U diag(w) U*.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_operator(x) -> np.ndarray:
    """Validate and convert to a 2-D complex array with finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def frob(x: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(x))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b in the composite index convention."""
    return np.kron(a, b)


def full_transpose(x: np.ndarray) -> np.ndarray:
    """Plain transpose without conjugation."""
    return x.T.copy()


def conj_transpose(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose x*."""
    return x.conj().T.copy()


def _blocks(x: np.ndarray, d: Dims) -> np.ndarray:
    """View x as an (..., n, m, n, m) array of blocks; validates the shape.

    Leading axes of x, if any, index a stack of operators.
    """
    n, m = d
    if x.shape[-2:] != (n * m, n * m):
        raise ValueError(f"operator shape {x.shape} does not match dims {d}")
    return x.reshape(x.shape[:-2] + (n, m, n, m))


def partial_transpose(x: np.ndarray, d: Dims) -> np.ndarray:
    """Transpose the second tensor factor: blocks X_ij -> X_ij^T.

    This is the action of id (x) t; it is a linear involution that
    preserves trace and Frobenius norm but not positivity.  Leading axes
    of x index a stack and are kept.
    """
    return _blocks(x, d).swapaxes(-3, -1).reshape(x.shape)


def both_transpose(x: np.ndarray, d: Dims) -> np.ndarray:
    """Transpose both tensor factors, t (x) t.

    Computed factor by factor; equals ``full_transpose`` on every
    composite operator (asserted in the test suite, not assumed here).
    Leading axes of x index a stack and are kept.
    """
    # first-factor transpose: blocks X_ij -> X_ji, then transpose each block
    return partial_transpose(_blocks(x, d).swapaxes(-4, -2).reshape(x.shape), d)


def partial_trace(x: np.ndarray, d: Dims, factor: int) -> np.ndarray:
    """Trace out one tensor factor.

    factor=1 removes the first factor:  Tr_1(x) = sum_i X_ii   (m x m).
    factor=2 removes the second factor: Tr_2(x)_ij = Tr(X_ij)  (n x n).
    """
    b = _blocks(x, d)
    if factor == 1:
        return np.einsum("iris->rs", b)
    if factor == 2:
        return np.einsum("irjr->ij", b)
    raise ValueError(f"factor must be 1 or 2, got {factor}")


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x*) / 2, matrix by matrix over any leading axes."""
    return (x + x.conj().swapaxes(-1, -2)) / 2


def check_hermitian(x: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return the Hermitian part of x; raise if x is not Hermitian within tol.

    The gate is relative: ||x - x*||_F <= tol * (1 + ||x||_F).  A norm that
    overflows to infinity is rejected too, since every threshold scaled by
    it would become infinite.
    """
    with np.errstate(over="ignore"):
        norm = frob(x)
    if not np.isfinite(norm):
        raise ValueError("matrix norm is not finite: entries too large to gate")
    dev = frob(x - x.conj().T)
    if dev > tol * (1.0 + norm):
        raise ValueError(
            f"matrix is not Hermitian: ||x - x*||_F = {dev:.3e} exceeds tolerance"
        )
    return hermitian_part(x)


def eig_hermitian(x: np.ndarray, tol: float = DEFAULT_TOL) -> HermSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues nonincreasing.

    The input is validated against the Hermiticity gate and symmetrized
    before factorization.  Raises ValueError for non-Hermitian input and
    propagates LinAlgError if the factorization fails to converge.
    """
    h = check_hermitian(as_operator(x), tol)
    w, u = np.linalg.eigh(h)
    return HermSpectrum(w[::-1].copy(), u[:, ::-1].copy())


def is_psd(x: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Test positive semidefiniteness of a Hermitian matrix.

    Returns (verdict, min_eigenvalue) where the verdict is True iff the
    smallest eigenvalue is >= -tol * (1 + ||x||_F).  Non-Hermitian input
    beyond the gate is rejected, not symmetrized away: a non-Hermitian
    matrix at a positivity check signals a caller bug.
    """
    x = as_operator(x)
    spectrum = eig_hermitian(x, tol)
    lo = float(spectrum.eigenvalues[-1])
    return lo >= -tol * (1.0 + frob(x)), lo


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a* b)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_pairing(a: np.ndarray, b: np.ndarray) -> complex:
    """Bilinear trace pairing Tr(a b)."""
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return complex(np.einsum("ij,ji->", a, b))
