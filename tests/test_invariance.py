"""Verdicts that must not move under the symmetries of the cones.

The PSD cone (``is_cp`` on a Choi matrix), the PPT cone ``f``, its
dual ``e`` and the separable states are each invariant under local
unitaries U (x) V, under swapping the two factors, under t (x) t (the
full transpose) and under positive scaling.  The draws keep every margin
at least 1e-3 ||x||_F away from the band, so rounding cannot move a
verdict and any change is a fault of the oracle.  Separability is
checked on separable states at 3x3 and 2x4, drawn so that one of its
certificates holds in every frame: products and classical states, whose
dephased residual is zero up to rounding (their marginal eigenvalues are
distinct with probability one), and states at most 0.9 radii from I/D.
Block positivity is checked on operators whose least product-vector
value is far from the band either way: a PSD operator pushed down to
-0.5 ||x||_F along one product vector (OUT), and a decomposable Choi
matrix plus 0.05 I (IN, since a decomposable operator is block
positive).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from mapcones.choi import map_from_choi
from mapcones.cones import (
    ConeId,
    Status,
    _swap_factors,
    dykstra_feasibility,
    in_E,
    in_F,
    is_block_positive,
    is_cp,
    is_separable,
)
from mapcones.linalg import Dims, both_transpose, frob, partial_transpose, tensor
from mapcones.sampling import random_cone_choi, random_hermitian, random_psd

TOL = 1e-9
DIMS = [Dims(1, 3), Dims(3, 1), Dims(1, 4), Dims(2, 2), Dims(2, 3), Dims(3, 2)]
FAMILIES = [None, ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_D, ConeId.MAP_P]
SEP_DIMS = [Dims(3, 3), Dims(2, 4)]
#: SEP_DIMS in either factor order, as swapping the factors turns 2x4 into 4x2
SEP_SHAPES = {(3, 3), (2, 4)}
SEP_FAMILIES = ["product", "classical", "near-I/D"]


def separable_state(family, d, rng):
    """A separable state whose least eigenvalue is at least 0.1 / nm."""
    nm = d.total
    if family == "product":
        a, b = random_psd(rng, d.n), random_psd(rng, d.m)
        rho = tensor(a + frob(a) * np.eye(d.n), b + frob(b) * np.eye(d.m))
    elif family == "classical":
        rho = np.diag(rng.uniform(0.2, 1.0, nm)).astype(complex)
    else:
        h = random_hermitian(rng, nm)
        h -= np.trace(h) / nm * np.eye(nm)
        rho = np.eye(nm) / nm + rng.uniform(0.0, 0.9) / np.sqrt(nm * (nm - 1)) * h / frob(h)
    return rho / np.trace(rho).real


def verdicts(x, d):
    out = (
        is_cp(map_from_choi(d.n, d.m, x), TOL).status,
        in_F(x, d, TOL).status,
        in_E(x, d, TOL).status,
    )
    if tuple(sorted(d)) in SEP_SHAPES:
        out += (is_separable(x / np.trace(x).real, d, TOL).status,)
    return out


def clear_of_band(x, d) -> bool:
    """Whether the cp, f and e margins all lie at least 1e-3 ||x||_F from the band.

    The e margin is lam*, bracketed by the solve run on to the optimum:
    its lower end is certified by the dual iterate, its upper end by the
    re-validated witness.
    """
    gap = 1e-3 * frob(x) + 10 * TOL * (1.0 + frob(x))
    lo = np.linalg.eigvalsh(x)[0]
    lo_f = min(lo, np.linalg.eigvalsh(partial_transpose(x, d))[0])
    feas = dykstra_feasibility(x, d, TOL, optimum=True)
    e_clear = feas.lower >= gap or (feas.w is not None and feas.upper <= -gap)
    return abs(lo) >= gap and abs(lo_f) >= gap and e_clear


CASES = [(d, f) for d in DIMS for f in FAMILIES] + [(d, f) for d in SEP_DIMS for f in SEP_FAMILIES]


@settings(derandomize=True, max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    case=st.sampled_from(CASES),
    shift=st.floats(-0.4, 0.4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-3, 3),
)
def test_verdicts_invariant(case, shift, seed, k):
    d, family = case
    rng = np.random.default_rng(seed)
    nm = d.total
    if family in SEP_FAMILIES:
        x = separable_state(family, d, rng)
    else:
        base = random_hermitian(rng, nm) if family is None else random_cone_choi(family, d, rng)
        x = base / frob(base) + shift / np.sqrt(nm) * np.eye(nm)
    x /= frob(x)
    assume(clear_of_band(x, d))
    expected = verdicts(x, d)
    assert Status.UNDECIDED not in expected

    u = np.kron(unitary_group.rvs(d.n, random_state=rng) if d.n > 1 else np.eye(1),
                unitary_group.rvs(d.m, random_state=rng) if d.m > 1 else np.eye(1))
    assert verdicts(u @ x @ u.conj().T, d) == expected
    assert verdicts(_swap_factors(x, d), Dims(d.m, d.n)) == expected
    assert verdicts(both_transpose(x, d), d) == expected
    assert verdicts(10.0**k * x, d) == expected


BP_DIMS = [Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(4, 2), Dims(3, 3), Dims(3, 4)]


def block_positivity_case(family, d, rng):
    """A unit-norm operator that is OUT ("planted") or IN ("decomposable") clear of the band."""
    if family == "planted":
        x = random_psd(rng, d.total)
        x /= frob(x)
        v = np.kron(random_psd(rng, d.n, 1)[:, 0], random_psd(rng, d.m, 1)[:, 0])
        v /= np.linalg.norm(v)
        x -= ((v.conj() @ x @ v).real + 0.5) * np.outer(v, v.conj())
    else:
        x = random_cone_choi(ConeId.MAP_D, d, rng)
        x = x / frob(x) + 0.05 * np.eye(d.total)
    return x / frob(x)


@pytest.mark.parametrize("family, expected", [("planted", Status.OUT), ("decomposable", Status.IN)])
@pytest.mark.parametrize("d", BP_DIMS)
def test_block_positivity_invariant(d, family, expected):
    for seed in range(15):
        rng = np.random.default_rng([seed, d.n, d.m])
        x = block_positivity_case(family, d, rng)
        u = np.kron(unitary_group.rvs(d.n, random_state=rng), unitary_group.rvs(d.m, random_state=rng))
        for y, dy in (
            (x, d),
            (u @ x @ u.conj().T, d),
            (_swap_factors(x, d), Dims(d.m, d.n)),
            (both_transpose(x, d), d),
            (1e3 * x, d),
        ):
            assert is_block_positive(y, dy, tol=TOL).status is expected
