"""PPT witnesses: certifying that an operator is not a cp + cop sum.

The dual description of the decomposable-operator cone says an operator
x fails to decompose as A + PT(B) with A, B PSD exactly when some PPT
operator w with Tr w = 1 has Tr(w x) < 0.  The most violating such w
solves a semidefinite program; its primal-dual interior-point solve
brackets the optimum lam* = min Tr(w x) from both sides, the dual side
by a decomposition of x - lower * I and the primal side by a PPT w.
"""

import numpy as np

from mapcones import (
    Dims,
    bell_phased_family,
    in_F,
    map_from_choi,
    nondecomposable_map,
    pairing,
    ppt_entangled_state,
    witness_search,
)
from mapcones.cones import dykstra_feasibility

d = Dims(3, 3)
lam = nondecomposable_map()

print("== The decomposition fails on the shipped map ==")
feas = dykstra_feasibility(lam.choi.copy(), d)
print(f"converged: {feas.converged} (stop {feas.stop!r}) after {feas.iterations} Newton steps")
print(f"bracket: {feas.lower:+.6f} <= lam* <= {feas.upper:+.6f}; the sign is settled, so the solve stops")

print("\n== Witness extraction ==")
wit = witness_search(lam.choi.copy(), d)
print(f"witness value Tr(w C) = {wit.value:+.9f}, the optimum -(2/sqrt 3 - 1) = {1 - 2 / np.sqrt(3):+.9f}")
print(f"witness is PPT: {in_F(wit.w, d).status.value}, trace = {np.trace(wit.w).real:.12f}")

print("\n== The hand-built companion state does the same job ==")
w_state, _ = ppt_entangled_state()
print(f"shipped PPT entangled state: Tr(w C) = {np.trace(w_state @ lam.choi).real:+.6f} (exactly -1/14)")
print(f"the optimized witness is at least as violating: {wit.value:+.6f} <= {-1/14:+.6f}")

print("\n== Sweeping the state family ==")
print("family (2 P+ + a S+ + (5-a) S-)/7: pairing with the map is (a-2)/7")
for a in (1.0, 1.5, 2.0, 3.0, 4.0, 4.5):
    rho = bell_phased_family(a)
    ppt = in_F(rho, d).status.value
    val = pairing(lam, map_from_choi(3, 3, rho))
    print(f"  a = {a:3.1f}: PPT {ppt:3s}   pairing {val:+.6f}")
print("PPT holds on 1 <= a <= 4; negative pairing on a < 2 certifies both")
print("the entanglement of those states and the non-decomposability of the map.")

print("\n== Witnesses vanish on decomposable inputs ==")
rng = np.random.default_rng(7)
g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
x = g @ g.conj().T
print("witness_search on a PSD operator:", witness_search(x, d))
