"""Reference instances: a positive non-decomposable map and a PPT entangled state.

The map is the classical positive map on M_3

    L(x) = diag(x11 + x33, x22 + x11, x33 + x22) - x,

which is positive but neither completely positive nor copositive nor a
sum of the two.  Its companion is the state

    rho_a = (2 P+ + a S+ + (5 - a) S-) / 7,      a = 3/2,

where P+ is the normalized maximally entangled projector and S+, S- are
the uniform mixtures of |i, i+1> x <i, i+1| and |i+1, i> x <i+1, i|.  For
1 <= a < 2 the state is PPT yet entangled, and the pairing with the
map's Choi matrix is exactly (a - 2)/7, so the state certifies that the
map is not decomposable with margin 1/14.

Both instances also ship as JSON files under ``mapcones/data``; the
recipe regenerating and re-validating them lives in the test suite
(five-seed feasibility runs at tolerance 1e-11 must all agree OUT).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .choi import MapRep, map_from_action, max_entangled_projector
from .linalg import Dims

__all__ = [
    "nondecomposable_map_action",
    "nondecomposable_map",
    "ppt_entangled_state",
    "bell_phased_family",
    "FIXTURE_PAIRING",
]

#: Exact pairing Tr(C w) of the fixture map with the fixture state: (3/2 - 2)/7.
FIXTURE_PAIRING = -1.0 / 14.0


def nondecomposable_map_action(x: np.ndarray) -> np.ndarray:
    """Action of the positive non-decomposable map on M_3."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (3, 3):
        raise ValueError(f"expected a 3 x 3 matrix, got shape {x.shape}")
    out = -x.copy()
    out[0, 0] = x[0, 0] + x[2, 2]
    out[1, 1] = x[1, 1] + x[0, 0]
    out[2, 2] = x[2, 2] + x[1, 1]
    return out


@lru_cache(maxsize=1)
def nondecomposable_map() -> MapRep:
    """The positive non-decomposable map on M_3, as a Choi-matrix map.

    Built once and shared: a ``MapRep`` is frozen and its Choi matrix is
    read-only.
    """
    return map_from_action(3, 3, nondecomposable_map_action)


def bell_phased_family(a: float) -> np.ndarray:
    """The state (2 P+ + a S+ + (5 - a) S-) / 7 on C^3 (x) C^3.

    PPT exactly for 1 <= a <= 4; separable exactly for 2 <= a <= 3.
    """
    p_plus = max_entangled_projector(3) / 3
    # S+ and S- are diagonal: 1/3 at |i, i+1> = 1, 5, 6 and at |i+1, i> = 3, 7, 2
    s_plus = np.diag([0, 1, 0, 0, 0, 1, 1, 0, 0]) / 3
    s_minus = np.diag([0, 0, 1, 1, 0, 0, 0, 1, 0]) / 3
    return (2 * p_plus + a * s_plus + (5 - a) * s_minus) / 7


def ppt_entangled_state() -> tuple[np.ndarray, Dims]:
    """The PPT entangled companion state (family member a = 3/2)."""
    return bell_phased_family(1.5), Dims(3, 3)
