"""Independent re-validation of mapcones verdicts and reports.

Plain numpy only: nothing here imports mapcones, so a change that loosened
a check inside the library cannot loosen the benchmark's verdict on it.
Certificates are read by attribute name (duck typing), which keeps this
module free of the library's classes.

Every check returns ``None`` when the certificate holds and a short
reason string when it does not.  Tolerances are relative, as in the
library: a threshold ``tol`` on an operator ``x`` means
``tol * (1 + ||x||_F)``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9
#: slack for re-deriving a quantity the library already computed
REDERIVE = 1e-8


def scale(x: np.ndarray) -> float:
    return 1.0 + float(np.linalg.norm(x))


def ptranspose(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Transpose of the second tensor factor, index convention (i, r) -> i*m + r."""
    return x.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


def min_eig(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])


def _hermitian(x: np.ndarray) -> bool:
    return float(np.linalg.norm(x - x.conj().T)) <= TOL * scale(x)


def _psd(x: np.ndarray) -> bool:
    return _hermitian(x) and min_eig(x) >= -TOL * scale(x)


def f_witness(x: np.ndarray, n: int, m: int, cert) -> str | None:
    """A trace-one PPT w with Tr(w x) = value clearly below zero."""
    w = np.asarray(cert.w, dtype=np.complex128)
    if w.shape != x.shape:
        return "witness shape"
    if not _psd(w):
        return "witness not PSD"
    if not _psd(ptranspose(w, n, m)):
        return "witness partial transpose not PSD"
    if abs(np.trace(w).real - 1.0) > TOL:
        return "witness trace is not 1"
    val = float(np.einsum("ij,ji->", w, x).real)
    if abs(val - float(cert.value)) > REDERIVE * scale(x):
        return "witness value does not re-derive"
    if val >= -TOL * scale(x):
        return "witness value not negative"
    return None


def decomposition(x: np.ndarray, n: int, m: int, cert) -> str | None:
    """x = a + PT(b) with a, b PSD, to the library tolerance."""
    a = np.asarray(cert.a, dtype=np.complex128)
    b = np.asarray(cert.b, dtype=np.complex128)
    if a.shape != x.shape or b.shape != x.shape:
        return "decomposition shape"
    if not _psd(a) or not _psd(b):
        return "decomposition part not PSD"
    res = float(np.linalg.norm(x - a - ptranspose(b, n, m)))
    if res > TOL * scale(x) + 1e-12 * scale(x):
        return f"decomposition residual {res:.3e} too large"
    return None


def min_eig_cert(ops: list[np.ndarray], cert) -> str | None:
    """A unit vector v with v* y v = value < 0 for one of the candidate operators y."""
    v = np.asarray(cert.vector, dtype=np.complex128).ravel()
    if abs(float(np.linalg.norm(v)) - 1.0) > REDERIVE:
        return "eigenvector not unit"
    for y in ops:
        if v.shape[0] != y.shape[0]:
            continue
        val = float(np.vdot(v, y @ v).real)
        if abs(val - float(cert.value)) <= REDERIVE * scale(y) and val < -TOL * scale(y):
            return None
    return "negative direction does not re-derive"


def product_vector(x: np.ndarray, n: int, m: int, cert) -> tuple[str | None, float]:
    """Re-derive <xi (x) eta| x |xi (x) eta>; returns (problem, value)."""
    xi = np.asarray(cert.xi, dtype=np.complex128).ravel()
    eta = np.asarray(cert.eta, dtype=np.complex128).ravel()
    if xi.shape != (n,) or eta.shape != (m,):
        return "product vector shape", np.nan
    if abs(np.linalg.norm(xi) - 1.0) > REDERIVE or abs(np.linalg.norm(eta) - 1.0) > REDERIVE:
        return "product vector not unit", np.nan
    v = np.kron(xi, eta)
    val = float(np.vdot(v, x @ v).real)
    if abs(val - float(cert.value)) > REDERIVE * scale(x):
        return "product-vector value does not re-derive", val
    return None, val


def separable_decomposition(rho: np.ndarray, n: int, m: int, cert) -> str | None:
    """rho = sum_k w_k L_k (x) R_k with w_k >= 0 and L_k, R_k pure states."""
    weights = np.asarray(cert.weights, dtype=float)
    if len(cert.left) != len(weights) or len(cert.right) != len(weights):
        return "separable decomposition lengths"
    if np.any(weights < 0):
        return "negative weight"
    total = np.zeros_like(rho)
    for wk, lk, rk in zip(weights, cert.left, cert.right):
        for f, k in ((lk, n), (rk, m)):
            f = np.asarray(f, dtype=np.complex128)
            if f.shape != (k, k) or not _psd(f) or abs(np.trace(f).real - 1.0) > REDERIVE:
                return "factor is not a state"
        total += wk * np.kron(lk, rk)
    res = float(np.linalg.norm(rho - total))
    if res > TOL * scale(rho) + 1e-12 * scale(rho):
        return f"separable residual {res:.3e} too large"
    return None


def block_positive_spot_check(w: np.ndarray, n: int, m: int, seed: int = 0) -> str | None:
    """No negative value of w on the basis product vectors or 64 seeded random ones.

    Block positivity has no efficient exact test, so this check can only
    reject an operator, never prove it block positive.
    """
    rng = np.random.default_rng(seed)
    vecs = [np.kron(np.eye(n)[i], np.eye(m)[r]) for i in range(n) for r in range(m)]
    for _ in range(64):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        vecs.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    for v in vecs:
        if float(np.vdot(v, w @ v).real) < -TOL * scale(w):
            return "not block positive"
    return None


def detection_witness(rho: np.ndarray, n: int, m: int, w) -> str | None:
    """A Hermitian w with Tr(w rho) < 0 that passes the block-positivity spot check."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != rho.shape or not _hermitian(w):
        return "detection witness shape or Hermiticity"
    if float(np.einsum("ij,ji->", w, rho).real) >= -TOL * scale(w):
        return "detection witness does not separate"
    return block_positive_spot_check(w, n, m)


def report(text: str) -> tuple[str | None, dict]:
    """A serialized theorem report must parse and say PASS."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON", {}
    if obj.get("status") != "PASS":
        return f"report status {obj.get('status')!r}", obj
    if not isinstance(obj.get("checks"), int) or not isinstance(obj.get("undecided"), int):
        return "report counts missing", obj
    return None, obj


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
