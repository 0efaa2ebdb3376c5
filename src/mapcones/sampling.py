"""Seeded generators of cone elements and probe operators.

Every sampler is a pure function of (seed, index): substreams derive
from ``numpy.random.SeedSequence`` with entropy (seed, stream tag,
index), so independent draws can run concurrently and reproduce exactly.
Choi matrices of sampled maps are trace-normalized to Tr C = n, the same
scale as the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fixtures
from .choi import (
    MapRep,
    adjoint,
    compose_left,
    depolarizing_map,
    identity_map,
    map_from_choi,
    transpose_conj,
    transpose_map,
)
from .cones import ConeId
from .linalg import Dims, frob, hermitian_part, partial_transpose

__all__ = [
    "ConeSampler",
    "sample_map",
    "random_cone_choi",
    "cone_generator_pool",
    "kd_generators",
    "k_t",
    "random_hermitian",
    "random_psd",
    "random_unit_vector",
    "random_density",
    "random_pure_product_state",
    "random_pure_entangled_state",
    "random_separable_mixture",
    "substream",
]

_STREAM = {
    "cp": 0x11,
    "cop": 0x12,
    "p": 0x13,
    "d": 0x14,
    "s": 0x15,
    "pos": 0x16,
    "probe": 0x21,
}


def substream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Deterministic child stream for (seed, tag, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag, index)))


def _rng_of(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return substream(int(seed_or_rng), 0)


def random_hermitian(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return scale * hermitian_part(g)


def random_psd(rng: np.random.Generator, k: int, rank: Optional[int] = None) -> np.ndarray:
    r = k if rank is None else max(1, min(rank, k))
    g = rng.normal(size=(k, r)) + 1j * rng.normal(size=(k, r))
    return g @ g.conj().T


def random_unit_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, k: int, rank: Optional[int] = None) -> np.ndarray:
    rho = random_psd(rng, k, rank)
    return rho / np.trace(rho).real


def random_pure_product_state(rng: np.random.Generator, d: Dims) -> np.ndarray:
    a = random_unit_vector(rng, d.n)
    b = random_unit_vector(rng, d.m)
    v = np.kron(a, b)
    return np.outer(v, v.conj())


def random_pure_entangled_state(rng: np.random.Generator, d: Dims, min_weight: float = 0.15) -> np.ndarray:
    """A pure state with at least two Schmidt coefficients >= min_weight.

    Constructed directly in Schmidt form on random orthonormal bases, so
    the Schmidt rank is >= 2 by construction, bounded away from product
    states.
    """
    k = min(d.n, d.m)
    if k < 2:
        raise ValueError("entangled states need both factors of dimension >= 2")
    weights = rng.dirichlet(np.ones(k))
    # force two dominant coefficients away from zero
    order = np.argsort(weights)[::-1]
    weights[order[1]] = max(weights[order[1]], min_weight)
    weights /= weights.sum()
    ua = np.linalg.qr(rng.normal(size=(d.n, d.n)) + 1j * rng.normal(size=(d.n, d.n)))[0]
    ub = np.linalg.qr(rng.normal(size=(d.m, d.m)) + 1j * rng.normal(size=(d.m, d.m)))[0]
    v = np.zeros(d.total, dtype=np.complex128)
    for i in range(k):
        v += np.sqrt(weights[i]) * np.kron(ua[:, i], ub[:, i])
    return np.outer(v, v.conj())


def random_separable_mixture(rng: np.random.Generator, d: Dims, terms: Optional[int] = None) -> np.ndarray:
    """A convex mixture of random pure product states."""
    t = terms if terms is not None else 2 * d.total
    w = rng.dirichlet(np.ones(t))
    rho = np.zeros((d.total, d.total), dtype=np.complex128)
    for i in range(t):
        rho += w[i] * random_pure_product_state(rng, d)
    return rho


def _normalize_choi(choi: np.ndarray, n: int) -> np.ndarray:
    tr = float(np.trace(choi).real)
    if tr <= 1e-12:
        raise ValueError("degenerate draw: nonpositive trace")
    return choi * (n / tr)


def random_cone_choi(cone: ConeId, d: Dims, rng: np.random.Generator) -> np.ndarray:
    """An unnormalized Choi matrix of a random map in the cp, cop, d or p cone.

    cp draws a Wishart matrix, cop its partial transpose, and d the sum
    of one of each.  p shifts a random Hermitian G by
    ``(max(0, -lambda_min G, -lambda_min PT G) + 0.05 ||G||_F / sqrt(nm)) I``,
    so both G and PT(G) become PSD with room to spare: the draw lies
    strictly inside the PPT cone, with
    ``min(lambda_min C, lambda_min PT C) >= 0.05 / (sqrt(nm) (1.05 + sqrt(nm))) ||C||_F``.
    """
    d = Dims(*d)
    nm = d.total
    if cone is ConeId.MAP_CP:
        return random_psd(rng, nm)
    if cone is ConeId.MAP_COP:
        return partial_transpose(random_psd(rng, nm), d)
    if cone is ConeId.MAP_D:
        return random_psd(rng, nm) + partial_transpose(random_psd(rng, nm), d)
    if cone is ConeId.MAP_P:
        g = random_hermitian(rng, nm)
        low = min(np.linalg.eigvalsh(g)[0], np.linalg.eigvalsh(partial_transpose(g, d))[0])
        shift = max(0.0, -low) + 0.05 * frob(g) / np.sqrt(nm)
        return g + shift * np.eye(nm)
    raise ValueError(f"no closed-form sampler for {cone}")


def sample_map(cone: ConeId, d: Dims, seed_or_rng) -> MapRep:
    """Draw a random element of a map cone, normalized to Tr C = n.

    The cp, cop, d and p cones draw through ``random_cone_choi``, whose
    p samples lie strictly inside the PPT cone.  Entanglement breaking
    maps come from product-form Choi matrices, and positive maps from a
    decomposable draw, mixed at 3 x 3 with a conjugated copy of the
    shipped non-decomposable map.  Every construction has a positive
    trace, so no draw is retried.
    """
    d = Dims(*d).validate()
    if not cone.is_map_cone:
        raise ValueError(f"{cone} is not a map cone")
    rng = _rng_of(seed_or_rng)
    n, m = d
    nm = d.total
    if cone is ConeId.MAP_S:
        choi = np.zeros((nm, nm), dtype=np.complex128)
        for _ in range(nm):
            choi += np.kron(random_psd(rng, n), random_psd(rng, m))
    elif cone is ConeId.MAP_POS:
        choi = _normalize_choi(random_cone_choi(ConeId.MAP_D, d, rng), n)
        if n == m == 3:
            lam = _conjugated_fixture(rng)
            lam_choi = _normalize_choi(lam.choi.copy(), n)
            t = rng.uniform(0.3, 0.9)
            choi = (1 - t) * choi + t * lam_choi
    else:
        choi = random_cone_choi(cone, d, rng)
    return map_from_choi(n, m, _normalize_choi(choi, n))


def _conjugated_fixture(rng: np.random.Generator) -> MapRep:
    """x -> a L(b x b*) a* for the shipped map L and random near-identity a, b.

    Two-sided conjugation by completely positive rank-one maps keeps the
    sample inside the cone of positive maps while varying it.
    """
    lam = fixtures.nondecomposable_map()
    a = np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    left = map_from_choi(3, 3, _conj_choi(a))
    right = map_from_choi(3, 3, _conj_choi(b))
    return compose_left(left, compose_left(lam, right))


def _conj_choi(a: np.ndarray) -> np.ndarray:
    """Choi matrix of x -> a x a*: block (i, j) is the outer product of columns i and j.

    Entry [(i, r), (j, s)] is the one product a[r, i] conj(a[s, j]).
    """
    k = a.shape[0]
    return np.multiply.outer(a.T, a.T.conj()).reshape(k * k, k * k)


@dataclass(frozen=True)
class ConeSampler:
    """Deterministic stream of samples from one cone.

    ``draw(k)`` is a pure function of (cone, d, seed, k); distinct
    indices use independent substreams.
    """

    cone: ConeId
    d: Dims
    seed: int

    def draw(self, index: int) -> MapRep:
        rng = substream(self.seed, _STREAM[self.cone.value], index)
        return sample_map(self.cone, self.d, rng)

    def take(self, count: int, start: int = 0) -> list[MapRep]:
        return [self.draw(start + i) for i in range(count)]


def cone_generator_pool(cone: ConeId, d: Dims, count: int, seed: int) -> list[MapRep]:
    """Cone samples prefixed by the canonical elements of the cone.

    The canonical elements (identity for cp, transpose for cop, both for
    d, the trace map for p and s, and additionally the shipped
    non-decomposable map for pos at 3 x 3) pin the extreme directions
    that random draws essentially never land on.
    """
    d = Dims(*d)
    n, m = d
    canonical: list[MapRep] = []
    if cone is ConeId.MAP_CP:
        canonical = [identity_map(m)] if n == m else []
    elif cone is ConeId.MAP_COP:
        canonical = [transpose_map(m)]
    elif cone is ConeId.MAP_P:
        canonical = [depolarizing_map(m, m)]
    elif cone is ConeId.MAP_D:
        canonical = [identity_map(m), transpose_map(m)]
    elif cone is ConeId.MAP_S:
        canonical = [depolarizing_map(m, m)]
    elif cone is ConeId.MAP_POS:
        canonical = [identity_map(m), transpose_map(m)]
        if m == 3:
            lam = fixtures.nondecomposable_map()
            canonical.append(map_from_choi(3, 3, _normalize_choi(lam.choi.copy(), 3)))
    sampler = ConeSampler(cone, Dims(m, m), seed)
    pool = canonical + sampler.take(max(count - len(canonical), 0))
    return pool[:count] if count >= len(canonical) else pool


def kd_generators(k_samples: Sequence[MapRep]) -> list[MapRep]:
    """Elementwise t . alpha* . t, the generator transform of the dual side."""
    return [transpose_conj(adjoint(a)) for a in k_samples]


def k_t(k_samples: Sequence[MapRep]) -> list[MapRep]:
    """Elementwise transpose conjugation t . alpha . t."""
    return [transpose_conj(a) for a in k_samples]
