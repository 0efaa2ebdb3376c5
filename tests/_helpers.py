"""Shared oracles and generators for the test suite.

Oracles here are deliberately naive (explicit loops over indices) so
they stay independent of the vectorized implementations they check.
"""

import functools
import sys
from types import MappingProxyType

import numpy as np
import pytest

import mapcones.choi as choi_mod
import mapcones.linalg as linalg_mod
from mapcones.linalg import Dims
from mapcones.theorems import verify


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def brute_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-loop Kronecker product under the composite index convention."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for r in range(rb):
                for s in range(cb):
                    out[i * rb + r, j * cb + s] = a[i, j] * b[r, s]
    return out


def brute_partial_transpose(x: np.ndarray, d: Dims) -> np.ndarray:
    """Entry permutation oracle for the second-factor transpose."""
    n, m = d
    out = np.zeros_like(x)
    for i in range(n):
        for j in range(n):
            for r in range(m):
                for s in range(m):
                    out[i * m + r, j * m + s] = x[i * m + s, j * m + r]
    return out


def brute_full_transpose_via_factors(x: np.ndarray, d: Dims) -> np.ndarray:
    """Transpose both factors by explicit index swaps."""
    n, m = d
    out = np.zeros_like(x)
    for i in range(n):
        for j in range(n):
            for r in range(m):
                for s in range(m):
                    out[j * m + s, i * m + r] = x[i * m + r, j * m + s]
    return out


def random_hermitian(g: np.random.Generator, k: int) -> np.ndarray:
    a = g.normal(size=(k, k)) + 1j * g.normal(size=(k, k))
    return (a + a.conj().T) / 2


def random_psd(g: np.random.Generator, k: int, rank: int = 0) -> np.ndarray:
    r = rank if rank else k
    a = g.normal(size=(k, r)) + 1j * g.normal(size=(k, r))
    return a @ a.conj().T


def random_complex(g: np.random.Generator, shape) -> np.ndarray:
    return g.normal(size=shape) + 1j * g.normal(size=shape)


#: the calls counted by ``suite_call_counts``
SUITE_COUNTED = ("einsum", "apply_second", "functional", "eigvalsh", "eigh", "check_hermitian")


@functools.lru_cache(maxsize=None)
def suite_call_counts(tid: str) -> tuple[bool, MappingProxyType]:
    """Run ``verify(suite, 3x3 unless named as "suite/NxM", 10 trials, seed 7)`` once and count its calls.

    ``apply_second`` and ``check_hermitian`` are counted through every
    ``mapcones`` module that binds them.  The run is cached, so the tests
    that pin different counts of one suite share a single ``verify`` run.
    Returns whether the run passed and the count of each name in
    ``SUITE_COUNTED``.
    """
    counts = dict.fromkeys(SUITE_COUNTED, 0)

    def spy(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name, f in (("apply_second", choi_mod.apply_second), ("check_hermitian", linalg_mod.check_hermitian)):
            counted = spy(name, f)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.partition(".")[0] == "mapcones" and getattr(mod, name, None) is f:
                    mp.setattr(mod, name, counted)
        mp.setattr(choi_mod.DualFunctional, "__call__", spy("functional", choi_mod.DualFunctional.__call__))
        mp.setattr(np, "einsum", spy("einsum", np.einsum))
        mp.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
        mp.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        suite, _, dims = tid.partition("/")
        passed = verify(suite, Dims(*map(int, (dims or "3x3").split("x"))), 10, 7).passed
    return passed, MappingProxyType(counts)
