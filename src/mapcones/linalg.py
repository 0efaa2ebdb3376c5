"""Dense complex linear algebra on bipartite operator spaces.

Operators live on C^n (x) C^m with the composite index convention

    (i, r)  ->  i * m + r,

i.e. the first tensor factor indexes m x m blocks and the second factor
indexes entries inside a block.  ``numpy.kron`` realizes exactly this
convention, and every partial operation below (partial transpose, partial
trace, blockwise map application) is written against it.  All inputs and
outputs are plain complex ``numpy`` arrays; nothing here mutates its
arguments.  ``classify`` is the one boundary-band rule: the oracles, the
suites, the stops of ``sdp.solve`` and ``is_psd`` all decide through it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Dims",
    "as_operator",
    "as_operators",
    "frob",
    "frobs",
    "tensor",
    "full_transpose",
    "conj_transpose",
    "partial_transpose",
    "both_transpose",
    "partial_trace",
    "is_psd",
    "hs_inner",
    "trace_pairing",
    "hermitian_part",
    "check_hermitian",
]

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


def as_operator(x) -> np.ndarray:
    """Validate and convert to a 2-D complex array with finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return as_operators(a)


def as_operators(x) -> np.ndarray:
    """Validate and convert to a complex array of matrices with finite entries.

    Axes before the last two index a stack; a single matrix is the case
    without them.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def frob(x: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(x))


def frobs(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the leading axes of x."""
    r = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    r = r.reshape(x.shape[:-2] + (2 * x.shape[-2] * x.shape[-1],))
    return np.sqrt((r * r).sum(axis=-1))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b in the composite index convention."""
    return np.kron(a, b)


def full_transpose(x: np.ndarray) -> np.ndarray:
    """Plain transpose without conjugation, matrix by matrix over leading axes."""
    return x.swapaxes(-1, -2).copy()


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


def check_hermitian(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Return the Hermitian part of x; raise if x is not Hermitian within tol.

    The gate is relative: ||x - x*||_F <= tol * (1 + ||x||_F).  ``tol``
    must be positive; ``tol = inf`` skips the gate.  A norm that
    overflows to infinity is rejected too, since every threshold scaled by
    it would become infinite.  Leading axes of x index a stack, and every
    matrix of it must pass; the first matrix that fails, in stack order,
    raises the error that gating it alone raises.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = frobs(x)
        dev = frobs(x - x.conj().swapaxes(-1, -2))
        bad = ~np.isfinite(norm) | (dev > tol * (1.0 + norm))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        if not np.isfinite(norm.flat[k]):
            raise ValueError("matrix norm is not finite: entries too large to gate")
        raise ValueError(
            f"matrix is not Hermitian: ||x - x*||_F = {dev.flat[k]:.3e} exceeds tolerance"
        )
    return hermitian_part(x)


class Status(Enum):
    IN = "IN"
    OUT = "OUT"
    UNDECIDED = "UNDECIDED"


#: ``classify`` answers OUT for margins at or below -_OUT_BAND * tol * scale.
_OUT_BAND = 10.0


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def classify(margin: float, scale: float, tol: float) -> Status:
    """IN at margin >= -tol * scale, OUT at margin <= -10 tol * scale, UNDECIDED between.

    ``scale`` is 1 + ||x||_F for an operator x.  Raises ValueError unless
    ``tol`` is finite and positive.
    """
    _check_tol(tol)
    if margin >= -tol * scale:
        return Status.IN
    if margin <= -_OUT_BAND * tol * scale:
        return Status.OUT
    return Status.UNDECIDED


def is_psd(x: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Test positive semidefiniteness of a Hermitian matrix.

    Returns (verdict, min_eigenvalue), the verdict True iff ``classify``
    puts the smallest eigenvalue IN at scale 1 + ||x||_F.  Non-Hermitian
    input beyond the gate is rejected, not symmetrized away: a
    non-Hermitian matrix at a positivity check signals a caller bug.
    """
    x = as_operator(x)
    lo = float(np.linalg.eigh(check_hermitian(x, tol))[0][0])
    return classify(lo, 1.0 + frob(x), tol) is Status.IN, lo


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a* b)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_pairing(a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """Bilinear trace pairing Tr(a b).

    Leading axes of b index a stack, paired one by one with the matrix a
    into an array of values; a single b gives a complex number.
    """
    if b.ndim < 2 or a.shape[1] != b.shape[-2] or a.shape[0] != b.shape[-1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    v = np.einsum("ij,...ji->...", a, b)
    return complex(v) if v.ndim == 0 else v
