"""Seeded instance generators for the benchmark workloads.

Every instance is a pure function of (workload seed, round, slot) and
carries the label it was built with (IN or OUT), its margin (the ``s`` or
``mu`` of the construction), and the data that certifies the label:

* the fixture family is the shipped non-decomposable map's Choi matrix C,
  embedded into n x m by isometries and turned by local unitaries, plus
  ``s * I``.  With ``S_STAR = 0.1547`` the fixture's optimum
  ``min Tr(w C)`` over trace-one PPT ``w``, it is decomposable for
  ``s > S_STAR`` and not for ``s < S_STAR``; the local frame ``(P, Q)``
  carries a decomposition found once (IN) or the optimal witness (OUT)
  over to the instance;
* low-rank decomposable operators ``A + PT(B) + mu * Tr/nm * I`` carry
  their decomposition;
* two-sided conjugations ``Ad_a . L . Ad_b`` of the shipped map L carry
  the local operator ``M`` with ``C' = M C M*``;
* separability and block-positivity instances carry their product
  mixture, their block-positive witness or their planted product vector.

``perfbench/test_labels.py`` checks all of these at one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import mapcones
import mapcones.choi
from certs import ptranspose

#: The fixture map's optimum over trace-one PPT witnesses, to the digits
#: the margins are stated in (the engine certifies -0.1539).
S_STAR = 0.1547

E_IN_FIXTURE_S = (1.1, 1.3, 2.0)
E_IN_LOWRANK_MU = (0.1, 0.01)
E_OUT_FIXTURE_S = (0.3, 0.7, 0.9)
FIXTURE_DIMS = ((3, 3), (3, 4), (4, 4))
LOWRANK_DIMS = ((3, 3), (2, 4), (4, 4))
CONJUGATIONS_PER_ROUND = 3
SEP_MIXTURE_DIMS = ((3, 3), (2, 4), (3, 4), (4, 4))
NPT_DIMS = ((3, 3), (2, 4))
BLOCKPOS_DIMS = ((3, 3), (4, 4))

#: Seed of the warm-up instances, which do not depend on the workload seed.
WARMUP_SEED = 0x3A3A
#: Seed of the low-rank spectra and of the conjugating matrices.  They
#: depend on the round and slot but not on the workload seed, which only
#: turns them by local unitaries.  The e engine's iteration counts do not
#: change under local unitaries, so every seed meets the same difficulty
#: and a run's figures do not hinge on which hard draws it happened to get.
SHAPE_SEED = 0x5A9E


@dataclass
class Instance:
    cls: str
    label: str
    margin: dict
    n: int
    m: int
    x: np.ndarray
    entry: str
    meta: dict = field(default_factory=dict)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *tags)))


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng: np.random.Generator, k: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(k, rank)) + 1j * rng.normal(size=(k, rank))
    return g @ g.conj().T


def unit(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def fixture_choi() -> np.ndarray:
    return mapcones.nondecomposable_map().choi.copy()


def conj_choi(a: np.ndarray) -> np.ndarray:
    """Choi matrix of x -> a x a*, i.e. (I (x) a) |Omega><Omega| (I (x) a)*."""
    k = a.shape[0]
    v = np.kron(np.eye(k), a) @ np.eye(k).ravel().astype(np.complex128)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# the e-cone families
# ---------------------------------------------------------------------------


def fixture_instance(rng, s_factor: float, n: int, m: int, base: np.ndarray) -> Instance:
    """(P (x) Q) C (P (x) Q)* + s I, with P = U J_n, Q = V J_m isometries."""
    p = haar_unitary(rng, n)[:, :3] if n > 3 else haar_unitary(rng, 3)
    q = haar_unitary(rng, m)[:, :3] if m > 3 else haar_unitary(rng, 3)
    s = s_factor * S_STAR
    pq = np.kron(p, q)
    x = pq @ base @ pq.conj().T + s * np.eye(n * m)
    label = "IN" if s_factor > 1 else "OUT"
    return Instance(
        f"fixture/{n}x{m}", label, {"s": s, "s_factor": s_factor}, n, m, x,
        "is_decomposable", {"p": p, "q": q, "s": s},
    )


def lowrank_instance(shape, frame, mu: float, n: int, m: int) -> Instance:
    """L (A + PT(B)) L* + mu * Tr/nm * I, L = U (x) V; A, B of rank 1..3 drawn from ``shape``."""
    nm = n * m
    a = random_psd(shape, nm, int(shape.integers(1, 4)))
    b = random_psd(shape, nm, int(shape.integers(1, 4)))
    u, v = haar_unitary(frame, n), haar_unitary(frame, m)
    uv, uvb = np.kron(u, v), np.kron(u, v.conj())
    a, b = uv @ a @ uv.conj().T, uvb @ b @ uvb.conj().T
    x = a + ptranspose(b, n, m)
    shift = mu * np.trace(x).real / nm
    x = x + shift * np.eye(nm)
    norm = nm / np.trace(x).real
    return Instance(
        f"lowrank/{n}x{m}", "IN", {"mu": mu}, n, m, x * norm, "is_decomposable",
        {"a": (a + shift * np.eye(nm)) * norm, "b": b * norm},
    )


def conjugation_instance(shape, frame, base: np.ndarray) -> Instance:
    """Choi matrix of Ad_a . L . Ad_b, built with compose_left, trace 3.

    a = V a0 and b = b0 W with a0, b0 near the identity drawn from
    ``shape`` and V, W unitaries drawn from ``frame``.
    """
    while True:
        a = np.eye(3) + 0.25 * (shape.normal(size=(3, 3)) + 1j * shape.normal(size=(3, 3)))
        b = np.eye(3) + 0.25 * (shape.normal(size=(3, 3)) + 1j * shape.normal(size=(3, 3)))
        if np.linalg.cond(a) < 10 and np.linalg.cond(b) < 10:
            break
    a, b = haar_unitary(frame, 3) @ a, b @ haar_unitary(frame, 3)
    choi = mapcones.choi  # called through the module, so a traced set-up sees these calls
    lam = choi.map_from_choi(3, 3, base)
    ad_a, ad_b = choi.map_from_choi(3, 3, conj_choi(a)), choi.map_from_choi(3, 3, conj_choi(b))
    phi = choi.compose_left(ad_a, choi.compose_left(lam, ad_b))
    norm = 3.0 / np.trace(phi.choi).real
    return Instance(
        "conjugation/3x3", "OUT", {"norm": norm}, 3, 3, phi.choi * norm, "is_decomposable",
        {"m_op": np.kron(b.T, a), "norm": norm},
    )


def e_in_round(seed: int, r: int, base: np.ndarray) -> list[Instance]:
    """One of each (family, dims, margin) in seeded order; every third via in_E."""
    specs = [("fixture", f, d) for d in FIXTURE_DIMS for f in E_IN_FIXTURE_S]
    specs += [("lowrank", mu, d) for d in LOWRANK_DIMS for mu in E_IN_LOWRANK_MU]
    order = rng_for(seed, 0xE1, r).permutation(len(specs))
    out = []
    for pos, k in enumerate(order):
        fam, param, (n, m) = specs[k]
        rng = rng_for(seed, 0xE1, r, int(k))
        if fam == "fixture":
            inst = fixture_instance(rng, param, n, m, base)
        else:
            inst = lowrank_instance(rng_for(SHAPE_SEED, 0xE1, r, int(k)), rng, param, n, m)
        if pos % 3 == 2:
            inst.entry = "in_E"
        out.append(inst)
    return out


def e_out_round(seed: int, r: int, base: np.ndarray) -> list[Instance]:
    specs = [("fixture", f, d) for d in FIXTURE_DIMS for f in E_OUT_FIXTURE_S]
    specs += [("conjugation", None, (3, 3))] * CONJUGATIONS_PER_ROUND
    order = rng_for(seed, 0xE0, r).permutation(len(specs))
    out = []
    for k in order:
        fam, param, (n, m) = specs[k]
        rng = rng_for(seed, 0xE0, r, int(k))
        if fam == "fixture":
            out.append(fixture_instance(rng, param, n, m, base))
        else:
            out.append(conjugation_instance(rng_for(SHAPE_SEED, 0xE0, r, int(k)), rng, base))
    return out


def e_in_warmups(base: np.ndarray) -> list[Instance]:
    rng = rng_for(WARMUP_SEED, 0xE1)
    out = [fixture_instance(rng, max(E_IN_FIXTURE_S), n, m, base) for n, m in FIXTURE_DIMS]
    out += [lowrank_instance(rng, rng, max(E_IN_LOWRANK_MU), n, m) for n, m in LOWRANK_DIMS]
    out[-1].entry = "in_E"
    return out


def e_out_warmups(base: np.ndarray) -> list[Instance]:
    rng = rng_for(WARMUP_SEED, 0xE0)
    out = [fixture_instance(rng, min(E_OUT_FIXTURE_S), n, m, base) for n, m in FIXTURE_DIMS]
    return out + [conjugation_instance(rng, rng, base)]


# ---------------------------------------------------------------------------
# separability and block positivity
# ---------------------------------------------------------------------------


def mixture_instance(rng, n: int, m: int) -> Instance:
    """A convex mixture of 2nm random pure product states (separable)."""
    terms = 2 * n * m
    w = rng.dirichlet(np.ones(terms))
    xs = [unit(rng, n) for _ in range(terms)]
    ys = [unit(rng, m) for _ in range(terms)]
    rho = np.zeros((n * m, n * m), dtype=np.complex128)
    for wk, a, b in zip(w, xs, ys):
        v = np.kron(a, b)
        rho += wk * np.outer(v, v.conj())
    return Instance(f"mixture/{n}x{m}", "IN", {}, n, m, rho, "is_separable", {"weights": w, "xs": xs, "ys": ys})


def ppt_entangled_instance(rng) -> Instance:
    """(U (x) V) rho (U (x) V)* for the shipped PPT entangled state rho."""
    rho, _ = mapcones.ppt_entangled_state()
    u = np.kron(haar_unitary(rng, 3), haar_unitary(rng, 3))
    return Instance("ppt-entangled/3x3", "OUT", {}, 3, 3, u @ rho @ u.conj().T, "is_separable", {"local": u})


def npt_pure_instance(rng, n: int, m: int) -> Instance:
    """A pure state with two Schmidt coefficients >= 0.15: its PT has eigenvalue -sqrt(l1 l2)."""
    k = min(n, m)
    lam = rng.dirichlet(np.ones(k))
    lam[np.argsort(lam)[-2]] = max(lam[np.argsort(lam)[-2]], 0.15)
    lam /= lam.sum()
    ua, ub = haar_unitary(rng, n), haar_unitary(rng, m)
    v = sum(np.sqrt(lam[i]) * np.kron(ua[:, i], ub[:, i]) for i in range(k))
    top = np.sort(lam)[-2:]
    return Instance(
        f"npt-pure/{n}x{m}", "OUT", {"neg_pt": -float(np.sqrt(top[0] * top[1]))}, n, m,
        np.outer(v, v.conj()), "is_separable",
    )


def positive_choi(rng, n: int, base: np.ndarray) -> tuple[np.ndarray, dict]:
    """Choi matrix of (1 - t) D + t L' on M_n, n in {3, 4}: D decomposable, L' a conjugated fixture."""
    nn = n * n
    a, b = random_psd(rng, nn, nn), random_psd(rng, nn, nn)
    dec = a + ptranspose(b, n, n)
    dec *= n / np.trace(dec).real
    lam = conjugation_instance(rng, rng, base)
    j = np.eye(n, 3)
    lam_x = np.kron(j, j) @ lam.x @ np.kron(j, j).T
    t = rng.uniform(0.3, 0.9)
    return (1 - t) * dec + t * lam_x, {"t": t}


def blockpos_in_instance(rng, n: int, base: np.ndarray) -> Instance:
    x, meta = positive_choi(rng, n, base)
    return Instance(f"blockpos-in/{n}x{n}", "IN", meta, n, n, x, "is_block_positive")


def blockpos_out_instance(rng, n: int, base: np.ndarray, depth: float = 0.5) -> Instance:
    """A positive Choi matrix minus (1 + depth) of its |00> weight, turned by U (x) V."""
    y, _ = positive_choi(rng, n, base)
    c = (1 + depth) * y[0, 0].real
    y = y.copy()
    y[0, 0] -= c
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    uv = np.kron(u, v)
    value = -depth * (c / (1 + depth))
    return Instance(
        f"blockpos-out/{n}x{n}", "OUT", {"planted": value}, n, n, uv @ y @ uv.conj().T,
        "is_block_positive", {"xi": u[:, 0], "eta": v[:, 0], "value": value},
    )


def sep_specs() -> list[tuple]:
    specs = [("mixture", d) for d in SEP_MIXTURE_DIMS]
    specs += [("ppt-entangled", (3, 3))]
    specs += [("npt-pure", d) for d in NPT_DIMS]
    specs += [("blockpos-in", d) for d in BLOCKPOS_DIMS]
    specs += [("blockpos-out", d) for d in BLOCKPOS_DIMS]
    return specs


def sep_instance(rng, spec, base) -> Instance:
    fam, (n, m) = spec
    if fam == "mixture":
        return mixture_instance(rng, n, m)
    if fam == "ppt-entangled":
        return ppt_entangled_instance(rng)
    if fam == "npt-pure":
        return npt_pure_instance(rng, n, m)
    if fam == "blockpos-in":
        return blockpos_in_instance(rng, n, base)
    return blockpos_out_instance(rng, n, base)


def sep_round(seed: int, r: int, base: np.ndarray) -> list[Instance]:
    specs = sep_specs()
    order = rng_for(seed, 0x5E, r).permutation(len(specs))
    return [sep_instance(rng_for(seed, 0x5E, r, int(k)), specs[k], base) for k in order]


def sep_warmups(base: np.ndarray) -> list[Instance]:
    return [sep_instance(rng_for(WARMUP_SEED, 0x5E, k), spec, base) for k, spec in enumerate(sep_specs())]
