"""Seeded generators of cone elements and probe operators.

Every sampler is a pure function of (seed, index): substreams derive
from ``numpy.random.SeedSequence`` with entropy (seed, stream tag,
index), so independent draws can run concurrently and reproduce exactly.
Choi matrices of sampled maps are trace-normalized to Tr C = n, the same
scale as the identity map.

The map-cone draws run as stacks: ``_sample_chois`` draws one map from
each of several generators at once.  Each generator gives up exactly
the numbers, in the same order, that a single draw takes (consecutive
``normal`` calls become one), and the arithmetic is the single draw's,
applied over the stack: one batched ``matmul`` for the Gram products,
batched partial transposes and spectra, broadcast Kronecker products.
Every matrix of a stack is therefore bit for bit the draw its generator
gives alone, and a stack over no generators has shape (0, nm, nm).
Generator pools are Choi stacks too, as the suites in ``theorems`` take
them.  ``MapRep`` appears only at the public edge: ``sample_map``,
``ConeSampler.take`` and ``cone_generator_pool`` wrap the matrices of
one stacked draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fixtures
from .choi import (
    MapRep,
    adjoint,
    apply_second,
    map_from_choi,
    max_entangled_projector,
    swap_operator,
    transpose_conj,
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


def _normals(rngs: Sequence[np.random.Generator], size: int) -> np.ndarray:
    """``size`` normals from each generator, as rows of a (k, size) array.

    One call takes from a generator exactly the numbers, in the same
    order, that consecutive ``normal`` calls of the same total size take.
    """
    if len(rngs) == 1:
        return rngs[0].normal(size=(1, size))
    return np.array([rng.normal(size=size) for rng in rngs]).reshape(len(rngs), size)


def _complex_normals(x: np.ndarray, k: int) -> np.ndarray:
    """Complex k x k Gaussians read from the last axis of x, a multiple of 2 k^2 long.

    Each run of 2 k^2 normals becomes ``normal((k, k)) + 1j * normal((k, k))``
    in stream order, so the result has shape ``x.shape[:-1] + (count, k, k)``.
    """
    x = x.reshape(x.shape[:-1] + (x.shape[-1] // (2 * k * k), 2, k, k))
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _gram(g: np.ndarray) -> np.ndarray:
    """g g* for each matrix over the leading axes of g, in one batched ``matmul``."""
    return g @ g.conj().swapaxes(-1, -2)


def _normalize_choi(choi: np.ndarray, n: int) -> np.ndarray:
    """Scale each Choi matrix of a (k, nm, nm) stack to trace n."""
    tr = choi.trace(axis1=1, axis2=2).real
    if (tr <= 1e-12).any():
        raise ValueError("degenerate draw: nonpositive trace")
    return choi * (n / tr)[:, None, None]


#: The cones ``random_cone_choi`` draws from.
_CLOSED_FORM = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_P)


def _gaussians(cone: ConeId) -> int:
    """Complex nm x nm Gaussian matrices per draw of ``random_cone_choi``.

    One Wishart factor for cp and cop, two for d, one Hermitian matrix for p.
    """
    return 2 if cone is ConeId.MAP_D else 1


def _cone_chois(cone: ConeId, d: Dims, x: np.ndarray) -> np.ndarray:
    """``random_cone_choi`` of each row of normals x, as a (k, nm, nm) stack."""
    nm = d.total
    g = _complex_normals(x, nm)
    if cone is ConeId.MAP_P:
        h = hermitian_part(g[:, 0])
        low = np.minimum(np.linalg.eigvalsh(h)[:, 0], np.linalg.eigvalsh(partial_transpose(h, d))[:, 0])
        shift = [max(0.0, -lo) + 0.05 * frob(a) / np.sqrt(nm) for lo, a in zip(low, h)]
        return h + np.multiply.outer(shift, np.eye(nm))
    w = _gram(g)
    if cone is ConeId.MAP_CP:
        return w[:, 0]
    if cone is ConeId.MAP_COP:
        return partial_transpose(w[:, 0], d)
    return w[:, 0] + partial_transpose(w[:, 1], d)


def _random_cone_chois(cone: ConeId, d: Dims, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``random_cone_choi`` drawn once from each generator, as a (k, nm, nm) stack."""
    if cone not in _CLOSED_FORM:
        raise ValueError(f"no closed-form sampler for {cone}")
    d = Dims(*d)
    return _cone_chois(cone, d, _normals(rngs, 2 * _gaussians(cone) * d.total**2))


def random_cone_choi(cone: ConeId, d: Dims, rng: np.random.Generator) -> np.ndarray:
    """An unnormalized Choi matrix of a random map in the cp, cop, d or p cone.

    cp draws a Wishart matrix, cop its partial transpose, and d the sum
    of one of each.  p shifts a random Hermitian G by
    ``(max(0, -lambda_min G, -lambda_min PT G) + 0.05 ||G||_F / sqrt(nm)) I``,
    so both G and PT(G) become PSD with room to spare: the draw lies
    strictly inside the PPT cone, with
    ``min(lambda_min C, lambda_min PT C) >= 0.05 / (sqrt(nm) (1.05 + sqrt(nm))) ||C||_F``.
    """
    return _random_cone_chois(cone, d, [rng])[0]


def _sample_chois(cone: ConeId, d: Dims, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``sample_map``'s Choi matrix drawn once from each generator, as a (k, nm, nm) stack.

    Each generator gives up exactly the numbers a single draw takes, in
    the same order, and every product, spectrum and sum is the one a
    single draw computes, so each matrix of the stack is bit for bit that
    draw.  The arithmetic runs over the whole stack: one ``matmul`` for
    the Gram products, one ``eigvalsh`` per spectrum of the p shift, one
    broadcast product for the Kronecker terms of the s cone (added in
    the same order), and at 3 x 3 two ``apply_second`` calls that
    conjugate the shipped map for the pos cone.
    """
    n, m = d
    nm = d.total
    if cone is ConeId.MAP_S:
        x = _normals(rngs, nm * 2 * (n * n + m * m)).reshape(len(rngs), nm, 2 * (n * n + m * m))
        a = _gram(_complex_normals(x[..., : 2 * n * n], n)[:, :, 0])
        b = _gram(_complex_normals(x[..., 2 * n * n :], m)[:, :, 0])
        terms = (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(len(rngs), nm, nm, nm)
        choi = np.zeros((len(rngs), nm, nm), dtype=np.complex128)
        for j in range(nm):
            choi += terms[:, j]
    elif cone is ConeId.MAP_POS:
        size = 4 * nm * nm
        fixture = n == m == 3
        x = _normals(rngs, size + 36 * fixture)
        choi = _normalize_choi(_cone_chois(ConeId.MAP_D, d, x[:, :size]), n)
        if fixture:
            t = np.array([rng.uniform(0.3, 0.9) for rng in rngs])[:, None, None]
            choi = (1 - t) * choi + t * _normalize_choi(_conjugated_fixtures(x[:, size:]), n)
    else:
        choi = _cone_chois(cone, d, _normals(rngs, 2 * _gaussians(cone) * nm * nm))
    return _normalize_choi(choi, n)


def _conjugated_fixtures(x: np.ndarray) -> np.ndarray:
    """Choi matrices of x -> a L(b x b*) a* for the shipped map L, one per row of 36 normals.

    a and b are near-identity, I + 0.25 G for complex Gaussian G, drawn
    in that order.  Two-sided conjugation by completely positive rank-one
    maps keeps the sample inside the cone of positive maps while varying it.
    """
    ab = np.eye(3) + 0.25 * _complex_normals(x, 3)
    conj = _conj_choi(ab)
    d = Dims(3, 3)
    return apply_second(conj[:, 0], apply_second(fixtures.nondecomposable_map(), conj[:, 1], d), d)


def _conj_choi(a: np.ndarray) -> np.ndarray:
    """Choi matrix of x -> a x a*: block (i, j) is the outer product of columns i and j.

    Entry [(i, r), (j, s)] is the one product a[r, i] conj(a[s, j]).
    Leading axes of a index a stack of matrices.
    """
    k = a.shape[-1]
    at = a.swapaxes(-1, -2)
    return (at[..., None, None] * at.conj()[..., None, None, :, :]).reshape(a.shape[:-2] + (k * k, k * k))


def sample_map(cone: ConeId, d: Dims, seed_or_rng) -> MapRep:
    """Draw a random element of a map cone, normalized to Tr C = n.

    The cp, cop, d and p cones draw through ``random_cone_choi``, whose
    p samples lie strictly inside the PPT cone.  Entanglement breaking
    maps come from product-form Choi matrices, and positive maps from a
    decomposable draw, mixed at 3 x 3 with a conjugated copy of the
    shipped non-decomposable map.  Every construction has a positive
    trace, so no draw is retried.  This is the stacked draw of
    ``ConeSampler.take`` for a single generator.
    """
    return _sample_maps(cone, d, [_rng_of(seed_or_rng)])[0]


def _map_cone_dims(cone: ConeId, d: Dims) -> Dims:
    """The samplers' input gate: d as valid ``Dims``; ValueError unless cone is a map cone."""
    d = Dims(*d).validate()
    if not cone.is_map_cone:
        raise ValueError(f"{cone} is not a map cone")
    return d


def _sample_maps(cone: ConeId, d: Dims, rngs: Sequence[np.random.Generator]) -> list[MapRep]:
    """``sample_map`` drawn once from each generator, through one stacked draw."""
    d = _map_cone_dims(cone, d)
    return [map_from_choi(d.n, d.m, c) for c in _sample_chois(cone, d, rngs)]


@dataclass(frozen=True)
class ConeSampler:
    """Deterministic stream of samples from one cone.

    ``draw(k)`` is a pure function of (cone, d, seed, k); distinct
    indices use independent substreams.  ``take`` draws a run of indices
    as one stack, bit for bit the maps ``draw`` gives one at a time.
    """

    cone: ConeId
    d: Dims
    seed: int

    def _rngs(self, indices) -> list[np.random.Generator]:
        _map_cone_dims(self.cone, self.d)
        tag = _STREAM[self.cone.value]
        return [substream(self.seed, tag, i) for i in indices]

    def draw(self, index: int) -> MapRep:
        return sample_map(self.cone, self.d, self._rngs([index])[0])

    def take(self, count: int, start: int = 0) -> list[MapRep]:
        return _sample_maps(self.cone, self.d, self._rngs(range(start, start + count)))


def _canonical_chois(cone: ConeId, d: Dims) -> np.ndarray:
    """The Choi matrices of the canonical elements that prefix a generator pool of the map cone at dims d."""
    n, m = d
    if cone is ConeId.MAP_CP:
        canonical = [max_entangled_projector(m)] if n == m else []
    elif cone is ConeId.MAP_COP:
        canonical = [swap_operator(m)]
    elif cone is ConeId.MAP_P or cone is ConeId.MAP_S:
        canonical = [np.eye(m * m) / m]  # the trace map x -> Tr(x) I / m
    else:  # d and pos
        canonical = [max_entangled_projector(m), swap_operator(m)]
        if cone is ConeId.MAP_POS and m == 3:
            canonical.append(_normalize_choi(fixtures.nondecomposable_map().choi[None], 3)[0])
    return np.array(canonical, dtype=np.complex128).reshape(-1, m * m, m * m)


def _generator_pool_chois(cone: ConeId, d: Dims, count: int, seeds: Sequence[int]) -> np.ndarray:
    """``cone_generator_pool`` for each seed as one (len(seeds), size, m^2, m^2) Choi stack, from one stacked draw."""
    d = _map_cone_dims(cone, d)
    sq = Dims(d.m, d.m)
    canonical = _canonical_chois(cone, d)
    k = max(count - len(canonical), 0)
    rngs = [r for seed in seeds for r in ConeSampler(cone, sq, seed)._rngs(range(k))]
    draws = _sample_chois(cone, sq, rngs).reshape(len(seeds), k, sq.total, sq.total)
    return np.concatenate([np.broadcast_to(canonical, (len(seeds),) + canonical.shape), draws], axis=1)


def cone_generator_pool(cone: ConeId, d: Dims, count: int, seed: int) -> list[MapRep]:
    """Cone samples prefixed by the canonical elements of the cone.

    The canonical elements (identity for cp, transpose for cop, both for
    d, the trace map for p and s, and additionally the shipped
    non-decomposable map for pos at 3 x 3) pin the extreme directions
    that random draws essentially never land on.  A pool never drops a
    canonical element: it holds max(count, number of canonical elements)
    maps, the canonical ones first and then ``count`` minus their number
    samples, drawn as one stack.  This wraps ``_generator_pool_chois``
    for one seed.
    """
    d = Dims(*d)
    return [map_from_choi(d.m, d.m, c) for c in _generator_pool_chois(cone, d, count, [seed])[0]]


def kd_generators(k_samples: Sequence[MapRep]) -> list[MapRep]:
    """Elementwise t . alpha* . t, the generator transform of the dual side."""
    return [transpose_conj(adjoint(a)) for a in k_samples]


def k_t(k_samples: Sequence[MapRep]) -> list[MapRep]:
    """Elementwise transpose conjugation t . alpha . t."""
    return [transpose_conj(a) for a in k_samples]
