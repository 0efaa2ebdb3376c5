"""The eigenvalue-first spectral cores against plain ``np.linalg.eigh`` references.

``cones._ppt_stack``, ``cones._sampled_least_eigs`` and
``cones._positive_map_detection`` classify from one batched ``eigvalsh``
and run ``eigh`` only on the matrices whose verdict carries a vector.
The references below decide every matrix from its own ``eigh``, as the
cores did before.  Every OUT and UNDECIDED certificate must be the
reference's bit for bit, value and vector; every value an IN verdict
reports must lie within 1e-12 (1 + ||y||_F) of the reference's.  The
inputs are the benchmark's sep instances (read from
``perfbench/instances.py``), the ``check`` corpus of
``tests/test_cli_golden.py``, and the stacks that L5, L15 and L17 hand
to the cores.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import mapcones.cones as cones_mod
import mapcones.theorems as theorems_mod
from mapcones.choi import apply_second, identity_map, transpose_map
from mapcones.cones import MinEigCert, PptSpectra, Status, Verdict, classify
from mapcones.io import load_matrix
from mapcones.linalg import Dims, frob, frobs, hermitian_part, partial_transpose
from test_cli_golden import write_corpus

TOL = 1e-9


def _sep_instances():
    """Every sep instance of rounds 0-2 at seed 1 of the benchmark, gated."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import instances
    finally:
        sys.path.pop(0)
    base = instances.fixture_choi()
    return _gated((i.x, Dims(i.n, i.m)) for r in range(3) for i in instances.sep_round(1, r, base))


def _gated(ops):
    """The (matrix, dims) pairs that pass the operator gate, gated."""
    out = []
    for x, d in ops:
        try:
            out.append(cones_mod._operator(x, d, TOL))
        except ValueError:
            continue
    return out


def _corpus(tmp_path):
    """The gated matrices of the ``check`` corpus; files the gate rejects are left out."""
    write_corpus(tmp_path)
    # trunc.json is cut off mid-file
    files = [path for path in sorted(tmp_path.glob("*.json")) if path.name != "trunc.json"]
    return _gated(load_matrix(path)[::-1] for path in files)


def _captured(core, tid, dims, seeds=(1, 2), tols=(TOL, 0.05)):
    """The arguments every call of ``core`` in ``theorems`` gets during L5, L15 or L17 runs."""
    calls = []
    original = getattr(theorems_mod, core)

    def spy(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems_mod, core, spy)
        for d in dims:
            for seed in seeds:
                for tol in tols:
                    theorems_mod.verify(tid, d, 10, seed, tol)
    return calls


# ---------------------------------------------------------------------------
# references: one eigh per matrix
# ---------------------------------------------------------------------------


def _ref_least(y, tol):
    w, u = np.linalg.eigh(y)
    return classify(float(w[0]), 1.0 + frob(y), tol), MinEigCert(float(w[0]), u[:, 0].copy())


def _ref_ppt(x, d, tol):
    (s1, c1), (s2, c2) = _ref_least(x, tol), _ref_least(partial_transpose(x, d), tol)
    spectra = PptSpectra(c1.value, c2.value)
    if s1 is Status.IN and s2 is Status.IN:
        return Verdict(Status.IN, spectra)
    status = Status.OUT if Status.OUT in (s1, s2) else Status.UNDECIDED
    return Verdict(status, c1 if s1 is status else c2, info={"spectra": spectra})


def _ref_sampled(h, tol):
    spectra = [np.linalg.eigh(hk) for hk in h]
    status = [classify(float(w[0]), 1.0 + s, tol) for (w, _), s in zip(spectra, frobs(h))]
    if Status.OUT in status:
        idx = status.index(Status.OUT)
        w, u = spectra[idx]
        cert = MinEigCert(float(w[0]), u[:, 0].copy())
        return Verdict(Status.OUT, cert, info={"violating_sample": idx, "min_eig": cert.value})
    verdict = Status.UNDECIDED if Status.UNDECIDED in status else Status.IN
    return Verdict(verdict, heuristic=verdict is Status.IN, info={"worst_min_eig": min(float(w[0]) for w, _ in spectra)})


def _ref_detection(rho, d, tol):
    n, m = d
    candidates = []
    if m == 3:
        candidates.append((rho, False))
    if n == 3:
        candidates.append((cones_mod._swap_factors(rho, d), True))
    dd = Dims(n if m == 3 else m, 3)
    lam = cones_mod.fixtures.nondecomposable_map()
    for mat, swapped in candidates:
        status, cert = _ref_least(hermitian_part(apply_second(lam, mat, dd)), tol)
        if status is Status.OUT:
            v = cert.vector[:, None]
            wit = hermitian_part(apply_second(cones_mod.adjoint(lam), v @ v.conj().T, dd))
            return (cones_mod._swap_factors(wit, dd) if swapped else wit), cert.value
    return None


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _bits(value):
    return np.float64(value).tobytes()


def _same_cert(got, ref):
    assert _bits(got.value) == _bits(ref.value)
    assert got.vector.tobytes() == ref.vector.tobytes()


def _assert_matches(got, ref, scale):
    """OUT and UNDECIDED verdicts bit for bit, IN values within 1e-12 scale."""
    assert got.status is ref.status
    assert got.heuristic == ref.heuristic
    if isinstance(ref.certificate, MinEigCert):
        _same_cert(got.certificate, ref.certificate)
        spectra = (got.info.get("spectra"), ref.info.get("spectra"))
        if spectra[1] is not None:
            assert [_bits(v) for v in (spectra[0].min_eig, spectra[0].min_eig_pt)] == \
                [_bits(v) for v in (spectra[1].min_eig, spectra[1].min_eig_pt)]
        assert got.info.keys() == ref.info.keys()
        assert got.info.get("violating_sample") == ref.info.get("violating_sample")
        return
    if isinstance(ref.certificate, PptSpectra):
        pairs = zip((got.certificate.min_eig, got.certificate.min_eig_pt), (ref.certificate.min_eig, ref.certificate.min_eig_pt))
    else:
        assert got.certificate is None and got.info.keys() == ref.info.keys() == {"worst_min_eig"}
        pairs = [(got.info["worst_min_eig"], ref.info["worst_min_eig"])]
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * scale


class _Calls:
    """Counts of ``eigh`` and ``eigvalsh`` calls while a core runs."""

    def __init__(self, mp):
        self.counts = {"eigh": 0, "eigvalsh": 0}
        for name in self.counts:
            mp.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, f):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return f(*args, **kwargs)

        return counted


def _ppt_cases(source, tmp_path):
    """(stack, dims, tol) triples the PPT core decides in one call."""
    if source == "sep":
        ops = _sep_instances()
        return [(x[None], d, tol) for x, d in ops for tol in (TOL, 0.05)]
    if source == "corpus":
        return [(x[None], d, tol) for x, d in _corpus(tmp_path) for tol in (TOL, 0.05)]
    dims = [Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(2, 4)]
    return _captured("_ppt_stack", source, dims)


def _sampled_cases(source, tmp_path):
    """(h, w, tol) triples the sampled core decides in one call: one group, or L5's and L15's runs of them."""
    if source in ("L5", "L15"):
        dims = [Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(2, 4)]
        return _captured("_sampled_least_eigs", source, dims)
    ops = _sep_instances() if source == "sep" else _corpus(tmp_path)
    out = []
    for x, d in ops:
        chois = np.array([identity_map(d.m).choi, transpose_map(d.m).choi])
        h, w = cones_mod._hermitian_spectra(apply_second(chois, x, d))
        out += [(h, w, tol) for tol in (TOL, 0.05)]
    return out


CASES = [("ppt", s) for s in ("sep", "corpus", "L15", "L17")]
CASES += [("sampled", s) for s in ("sep", "corpus", "L5", "L15")]
CASES += [("detection", s) for s in ("sep", "corpus")]


@pytest.mark.parametrize("core,source", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_core_matches_the_eigh_reference(core, source, tmp_path):
    seen = set()
    if core == "ppt":
        for x, d, tol in _ppt_cases(source, tmp_path):
            with pytest.MonkeyPatch.context() as mp:
                calls = _Calls(mp)
                got = cones_mod._ppt_stack(x, d, tol)
            assert calls.counts == {"eigh": int(any(v.status is not Status.IN for v in got)), "eigvalsh": 1}
            assert len(got) == len(x)
            for xk, v in zip(x, got):
                _assert_matches(v, _ref_ppt(xk, d, tol), 1.0 + frob(xk))
                seen.add(v.status)
    elif core == "sampled":
        for h, w, tol in _sampled_cases(source, tmp_path):
            with pytest.MonkeyPatch.context() as mp:
                calls = _Calls(mp)
                got = cones_mod._sampled_least_eigs(h, w, tol)
            assert calls.counts == {"eigh": int(any(v.status is Status.OUT for v in got)), "eigvalsh": 0}
            groups = h.reshape(-1, *h.shape[-3:])
            assert len(got) == len(groups)
            for hk, v in zip(groups, got):
                _assert_matches(v, _ref_sampled(hk, tol), 1.0 + max(frobs(hk)))
                seen.add(v.status)
    else:
        ops = _sep_instances() if source == "sep" else _corpus(tmp_path)
        for x, d in ops:
            if 3 not in d:
                continue
            for tol in (TOL, 0.05):
                with pytest.MonkeyPatch.context() as mp:
                    calls = _Calls(mp)
                    got = cones_mod._positive_map_detection(x, d, tol)
                ref = _ref_detection(x, d, tol)
                assert calls.counts == {"eigh": int(ref is not None), "eigvalsh": 1}
                seen.add(Status.IN if ref is None else Status.OUT)
                if ref is None:
                    assert got is None
                    continue
                assert got[0].tobytes() == ref[0].tobytes() and _bits(got[1]) == _bits(ref[1])
    # every source reaches verdicts with and without a vector; the
    # detection has no band, so None stands for IN there
    assert seen == ({Status.IN, Status.OUT} if core == "detection" else set(Status))
