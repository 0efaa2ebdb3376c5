"""Linear maps between matrix algebras, stored as Choi matrices.

A map phi: M_n -> M_m is represented by its nm x nm Choi matrix

    C_phi = sum_ij e_ij (x) phi(e_ij),

whose (i, j) block of size m x m is phi(e_ij).  The Choi matrix is the
single canonical representation; the action of phi, its adjoint, its
transpose conjugate t . phi . t, compositions, and the functional it
induces on the composite space are all derived from it.

The unnormalized maximally entangled projector p = sum_ij e_ij (x) e_ij
and the matrix units are generated per dimension and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import (
    Dims,
    as_operator,
    as_operators,
    both_transpose,
    check_hermitian,
    trace_pairing,
)

__all__ = [
    "MapRep",
    "DualFunctional",
    "matrix_unit",
    "max_entangled_projector",
    "swap_operator",
    "map_from_action",
    "map_from_choi",
    "identity_map",
    "transpose_map",
    "depolarizing_map",
    "apply_map",
    "apply_second",
    "compose_left",
    "transpose_conj",
    "adjoint",
    "adjoint_choi",
    "dual_functional",
    "pairing",
    "omega_eval",
    "trpi_eval",
]


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    """Matrix unit e_ij in M_dim."""
    e = np.zeros((dim, dim), dtype=np.complex128)
    e[i, j] = 1.0
    return e


@lru_cache(maxsize=64)
def max_entangled_projector(n: int) -> np.ndarray:
    """The rank-1 operator p = sum_ij e_ij (x) e_ij on C^n (x) C^n.

    Unnormalized: p = v v* for v = sum_i |ii>, with Tr(p) = n and p^2 = n p.
    """
    v = np.zeros(n * n, dtype=np.complex128)
    v[:: n + 1] = 1.0
    p = np.outer(v, v.conj())
    p.flags.writeable = False
    return p


@lru_cache(maxsize=64)
def swap_operator(n: int) -> np.ndarray:
    """The swap sum_ij e_ij (x) e_ji, which is the partial transpose of p."""
    s = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    s.flags.writeable = False
    return s


@dataclass(frozen=True)
class MapRep:
    """A linear map M_n -> M_m held as its Choi matrix.

    ``choi`` has shape (n*m, n*m); block (i, j) equals the value of the
    map on the matrix unit e_ij.  The Choi matrix is Hermitian exactly
    when the map is Hermiticity-preserving; cone membership oracles
    enforce that gate when they need it.
    """

    d: Dims
    choi: np.ndarray

    def __post_init__(self):
        d = Dims(*self.d).validate()
        c = as_operator(self.choi)
        if c.shape != (d.total, d.total):
            raise ValueError(
                f"Choi matrix shape {c.shape} does not match dims {d}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "choi", c)

    @property
    def n(self) -> int:
        return self.d.n

    @property
    def m(self) -> int:
        return self.d.m

    def hermitian_choi(self, tol: float = 1e-9) -> np.ndarray:
        """Choi matrix after the Hermiticity gate; raises if it fails."""
        return check_hermitian(self.choi, tol)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        return apply_map(self, a)


def map_from_choi(n: int, m: int, choi: np.ndarray) -> MapRep:
    """Wrap an (n*m) x (n*m) matrix as the Choi matrix of a map M_n -> M_m."""
    return MapRep(Dims(n, m), choi)


def map_from_action(n: int, m: int, action: Callable[[np.ndarray], np.ndarray]) -> MapRep:
    """Build a map from its action on matrix units.

    ``action`` must return an m x m array for every e_ij; block (i, j) of
    the resulting Choi matrix is action(e_ij).
    """
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            blk = np.asarray(action(matrix_unit(i, j, n)), dtype=np.complex128)
            if blk.shape != (m, m):
                raise ValueError(
                    f"action returned shape {blk.shape} on e_{i}{j}, expected {(m, m)}"
                )
            choi[i * m : (i + 1) * m, j * m : (j + 1) * m] = blk
    return MapRep(Dims(n, m), choi)


def identity_map(n: int) -> MapRep:
    """The identity on M_n; its Choi matrix is p."""
    return MapRep(Dims(n, n), max_entangled_projector(n))


def transpose_map(n: int) -> MapRep:
    """The transpose on M_n; its Choi matrix is the swap."""
    return MapRep(Dims(n, n), swap_operator(n))


def depolarizing_map(n: int, m: int) -> MapRep:
    """x -> Tr(x) I_m / m, which is both completely positive and copositive."""
    choi = np.kron(np.eye(n), np.eye(m) / m).astype(np.complex128)
    return MapRep(Dims(n, m), choi)


def apply_map(phi: MapRep, a: np.ndarray) -> np.ndarray:
    """Evaluate phi(a) = sum_ij a_ij * block_ij(C_phi)."""
    a = as_operator(a)
    n, m = phi.d
    if a.shape != (n, n):
        raise ValueError(f"argument shape {a.shape} does not match input dim {n}")
    c4 = phi.choi.reshape(n, m, n, m)
    return np.einsum("ij,irjs->rs", a, c4)


def apply_second(alpha: MapRep | np.ndarray, x: np.ndarray, d: Dims) -> np.ndarray:
    """Apply id (x) alpha to an operator on C^n (x) C^m, blockwise.

    alpha maps M_m -> M_k, so the result lives on C^n (x) C^k.  The map
    is applied block by block; the full superoperator is never formed.

    The contraction out[i u, j v] = sum_rs x[i r, j s] alpha[r u, s v] is
    one matrix product of realigned operators: x with rows (i, j) and
    columns (r, s), times the Choi matrix of alpha with rows (r, s) and
    columns (u, v), gives out with rows (i, j) and columns (u, v), and one
    axis swap puts it back on C^n (x) C^k.

    Batched form: ``alpha`` may also be an array of Choi matrices of maps
    M_m -> M_k with shape (..., mk, mk), and ``x`` may carry leading axes,
    shape (..., nm, nm).  The leading axes of both broadcast against each
    other (numpy rules) in the one ``matmul``, so K maps applied to K
    operators, or one map to a stack, cost a single call; a single map
    on a single operator is the case without leading axes.
    """
    n, m = Dims(*d)
    x = as_operators(x)
    if x.shape[-2:] != (n * m, n * m):
        raise ValueError(f"operator shape {x.shape} does not match dims {d}")
    if isinstance(alpha, MapRep):
        if alpha.n != m:
            raise ValueError(f"map input dim {alpha.n} does not match second factor {m}")
        a = alpha.choi
    else:
        a = np.asarray(alpha, dtype=np.complex128)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] % m:
            raise ValueError(
                f"Choi stack shape {a.shape} does not fit maps on M_{m}"
            )
    k = a.shape[-1] // m
    xr = x.reshape(x.shape[:-2] + (n, m, n, m)).swapaxes(-3, -2)
    ar = a.reshape(a.shape[:-2] + (m, k, m, k)).swapaxes(-3, -2)
    out = xr.reshape(x.shape[:-2] + (n * n, m * m)) @ ar.reshape(a.shape[:-2] + (m * m, k * k))
    out = out.reshape(out.shape[:-2] + (n, n, k, k)).swapaxes(-3, -2)
    return out.reshape(out.shape[:-4] + (n * k, n * k))


def compose_left(alpha: MapRep, phi: MapRep) -> MapRep:
    """Composition alpha . phi, via C_{alpha . phi} = (id (x) alpha)(C_phi)."""
    if alpha.n != phi.m:
        raise ValueError(
            f"cannot compose: alpha acts on M_{alpha.n} but phi outputs M_{phi.m}"
        )
    choi = apply_second(alpha, phi.choi, phi.d)
    return MapRep(Dims(phi.n, alpha.m), choi)


def transpose_conj(phi: MapRep) -> MapRep:
    """The map t . phi . t, whose Choi matrix is (t (x) t)(C_phi)."""
    return MapRep(phi.d, both_transpose(phi.choi, phi.d))


def adjoint_choi(c: np.ndarray, d: Dims) -> np.ndarray:
    """Choi matrix of phi* from the Choi matrix c of phi: M_n -> M_m.

    The adjoint for Tr(phi(a) b) = Tr(a phi*(b)) has the Choi tensor
    C4[i, r, j, s] read backwards: its entry [s, j, r, i] is C4[i, r, j, s],
    a pure axis permutation.  Leading axes of c index a stack of maps of
    dims d and are kept.
    """
    n, m = Dims(*d)
    if c.shape[-2:] != (n * m, n * m):
        raise ValueError(f"Choi shape {c.shape} does not match dims {d}")
    c4 = c.reshape(c.shape[:-2] + (n, m, n, m))
    return c4.swapaxes(-4, -1).swapaxes(-3, -2).reshape(c.shape)


def adjoint(phi: MapRep) -> MapRep:
    """Adjoint phi* for the pairing Tr(phi(a) b) = Tr(a phi*(b)).

    Defined as the axis permutation of the Choi tensor in
    ``adjoint_choi``.  The entrywise trace rule phi*(b)_ji = Tr(phi(e_ij) b)
    is the reference it is tested against.
    """
    n, m = phi.d
    return MapRep(Dims(m, n), adjoint_choi(phi.choi, phi.d))


@dataclass(frozen=True)
class DualFunctional:
    """The functional induced on M_n (x) M_m by a map phi: M_n -> M_m.

    On product operators it evaluates as  a (x) b -> Tr(phi(a) b^T); its
    density operator is the Choi matrix of t . phi . t, so that the value
    at any x is the trace pairing of that density with x.  A stack of
    operators (leading axes) gives one value per matrix.
    """

    d: Dims
    density: np.ndarray

    def __call__(self, x: np.ndarray) -> complex | np.ndarray:
        x = as_operators(x)
        if x.shape[-2:] != self.density.shape:
            raise ValueError(
                f"operator shape {x.shape} does not match functional on {self.density.shape}"
            )
        return trace_pairing(self.density, x)


def dual_functional(phi: MapRep) -> DualFunctional:
    """The functional with density C_{t . phi . t}."""
    return DualFunctional(phi.d, transpose_conj(phi).choi)


def pairing(phi: MapRep, psi: MapRep, tol: float = 1e-9) -> float:
    """Trace pairing Tr(C_phi C_psi) of two Hermiticity-preserving maps.

    Symmetric and real; both Choi matrices must pass the Hermiticity gate.
    """
    if phi.d != psi.d:
        raise ValueError(f"dimension mismatch: {phi.d} vs {psi.d}")
    a = phi.hermitian_choi(tol)
    b = psi.hermitian_choi(tol)
    return float(trace_pairing(a, b).real)


def omega_eval(x: np.ndarray, n: int, tol: float = 1e-9) -> float | np.ndarray:
    """The maximally entangled state omega(x) = Tr(p x) / n on M_n (x) M_n.

    Leading axes of x index a stack; every matrix of it must pass the
    Hermiticity gate, and the result holds one value per matrix.
    """
    x = as_operators(x)
    if x.shape[-2:] != (n * n, n * n):
        raise ValueError(f"operator shape {x.shape}, expected {(n * n, n * n)}")
    x = check_hermitian(x, tol)
    return trace_pairing(max_entangled_projector(n), x).real / n


def trpi_eval(x: np.ndarray, d: Dims) -> complex | np.ndarray:
    """Trace of the multiplication functional a (x) b -> b^T a.

    Requires n = m.  On the block decomposition this is
    sum_ij (X_ij)_ij; it is positive on operators of the form y y*.
    Leading axes of x index a stack, with one value per matrix.
    """
    n, m = Dims(*d)
    if n != m:
        raise ValueError(f"square factors required, got {d}")
    x = as_operators(x)
    if x.shape[-2:] != (n * m, n * m):
        raise ValueError(f"operator shape {x.shape} does not match dims {d}")
    v = np.einsum("...iijj->...", x.reshape(x.shape[:-2] + (n, m, n, m)))
    return complex(v) if v.ndim == 0 else v
