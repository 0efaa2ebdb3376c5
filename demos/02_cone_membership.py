"""Cone membership oracles with certificates.

Every verdict is IN / OUT / UNDECIDED; OUT always carries a certificate
that can be re-checked independently (an eigenvector, a witness, or a
product vector), and IN carries one where the cone admits it.
"""

import numpy as np

from mapcones import (
    ConeId,
    Dims,
    depolarizing_map,
    identity_map,
    in_F,
    in_P,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
    is_separable,
    nondecomposable_map,
    pm_k_membership,
    transpose_map,
)
from mapcones.linalg import partial_transpose
from mapcones.sampling import ConeSampler, random_separable_mixture, substream

d = Dims(3, 3)

print("== Spectral map cones ==")
for name, phi in [
    ("identity", identity_map(3)),
    ("transpose", transpose_map(3)),
    ("depolarizing", depolarizing_map(3, 3)),
    ("shipped positive non-decomposable map", nondecomposable_map()),
]:
    cp = is_cp(phi).status.value
    cop = is_cop(phi).status.value
    p = in_P(phi).status.value
    print(f"{name:40s} cp: {cp:3s}  cop: {cop:3s}  p: {p}")

print("\n== Certificates re-validate ==")
v = is_cp(transpose_map(3))
vec = v.certificate.vector
quad = (vec.conj() @ transpose_map(3).choi @ vec).real
print(f"transpose map is not cp; certificate eigenvector gives <v|C|v> = {quad:+.3f}")

print("\n== Operator cones ==")
rng = substream(0, 1)
rho = random_separable_mixture(rng, d)
print("separable mixture is PPT:", in_F(rho, d).status.value)
pure = np.zeros((9, 9), dtype=complex)
from mapcones import max_entangled_projector

pure = max_entangled_projector(3) / 3
print("maximally entangled state is PPT:", in_F(pure, d).status.value)

print("\n== Decomposability via one interior-point solve ==")
phi = ConeSampler(ConeId.MAP_D, d, seed=4).draw(0)
v = is_decomposable(phi)
print(f"a cp + cop sum: {v.status.value}, decomposition residual {v.certificate.residual:.2e}")
print(f"  stop {v.info['stop']!r} after {v.info['iterations']} Newton steps, "
      f"margin bracket [{v.info['lower']:+.4f}, {v.info['upper']:+.4f}]")
lam = nondecomposable_map()
v = is_decomposable(lam)
print(f"the shipped map: {v.status.value}, witness pairing {v.certificate.value:+.6f}")
print(f"  stop {v.info['stop']!r} after {v.info['iterations']} Newton steps, "
      f"margin bracket [{v.info['lower']:+.4f}, {v.info['upper']:+.4f}]")

print("\n== Positivity is heuristic-IN only ==")
v = is_positive_map(lam, restarts=12)
print(f"see-saw over product vectors found no violation: {v.status.value} (heuristic={v.heuristic})")

print("\n== Sampled membership for generator-described cones ==")
x = partial_transpose(pure, d)
v = pm_k_membership(x, d, [identity_map(3)])
print("swap/3 against {identity}:", v.status.value, "(min eig %.3f)" % v.info.get("min_eig", v.info.get("worst_min_eig")))
v = pm_k_membership(x, d, [transpose_map(3)])
print("swap/3 against {transpose}:", v.status.value)

print("\n== Separability ==")
rho22 = random_separable_mixture(substream(1, 2), Dims(2, 2))
print("2x2 separable mixture:", is_separable(rho22, Dims(2, 2)).status.value, "(PPT is exact at 2x2 and 2x3)")
print("3x3 maximally mixed:", is_separable(np.eye(9) / 9, d).status.value, "(explicit product decomposition)")
