"""Checks on the benchmark itself: construction labels, the tracer, BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  Every label of
one seed's instances is certified here with plain numpy (``certs``): OUT by
a witness carried over from the fixture's optimum, IN by a decomposition
known at construction or found once.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import certs
import instances as I
import workloads
from mapcones import Dims, dykstra_feasibility, witness_search
from mapcones.cones import DykstraConfig

SEED = 1
S0 = min(I.E_IN_FIXTURE_S) * I.S_STAR


@pytest.fixture(scope="module")
def base():
    """Fixture Choi matrix, its optimal witness, and a decomposition of C + S0 I found once."""
    c = I.fixture_choi()
    wit = witness_search(c, Dims(3, 3))
    feas = dykstra_feasibility(c + S0 * np.eye(9), Dims(3, 3), DykstraConfig())
    assert feas.converged
    return SimpleNamespace(c=c, w=wit.w, value=wit.value, a=feas.a, b=feas.b)


def _witness(x, n, m, w):
    return certs.f_witness(x, n, m, SimpleNamespace(w=w, value=float(np.einsum("ij,ji->", w, x).real)))


def _certify(inst, base) -> None:
    n, m, x = inst.n, inst.m, inst.x
    fam = inst.cls.split("/")[0]
    if fam == "fixture":
        p, q, s = inst.meta["p"], inst.meta["q"], inst.meta["s"]
        pq = np.kron(p, q)
        if inst.label == "IN":
            proj = np.kron(p @ p.conj().T, q @ q.conj().T)
            a = pq @ base.a @ pq.conj().T + S0 * (np.eye(n * m) - proj) + (s - S0) * np.eye(n * m)
            pqb = np.kron(p, q.conj())
            b = pqb @ base.b @ pqb.conj().T
            assert certs.decomposition(x, n, m, SimpleNamespace(a=a, b=b)) is None
        else:
            w = pq @ base.w @ pq.conj().T
            assert _witness(x, n, m, w) is None
            assert np.einsum("ij,ji->", w, x).real == pytest.approx(base.value + s, abs=1e-9)
    elif fam == "lowrank":
        assert certs.decomposition(x, n, m, SimpleNamespace(a=inst.meta["a"], b=inst.meta["b"])) is None
    elif fam == "conjugation":
        mo, norm = inst.meta["m_op"], inst.meta["norm"]
        assert np.allclose(x, norm * mo @ base.c @ mo.conj().T, atol=1e-12)
        inv = np.linalg.inv(mo)
        w = inv.conj().T @ base.w @ inv
        assert _witness(x, n, m, w / np.trace(w).real) is None
    elif fam == "mixture":
        mix = inst.meta
        left = tuple(np.outer(a, a.conj()) for a in mix["xs"])
        right = tuple(np.outer(b, b.conj()) for b in mix["ys"])
        cert = SimpleNamespace(weights=mix["weights"], left=left, right=right)
        assert certs.separable_decomposition(x, n, m, cert) is None
    elif fam == "ppt-entangled":
        local = inst.meta["local"]
        w = local @ base.c @ local.conj().T  # block positive: the shipped map is positive
        assert np.einsum("ij,ji->", w, x).real == pytest.approx(-1 / 14, abs=1e-12)
        assert certs.detection_witness(x, n, m, w) is None
        assert certs.min_eig(certs.ptranspose(x, n, m)) >= -1e-12
    elif fam == "npt-pure":
        assert certs.min_eig(certs.ptranspose(x, n, m)) == pytest.approx(inst.margin["neg_pt"], abs=1e-9)
        assert inst.margin["neg_pt"] < -0.1
    elif fam == "blockpos-in":
        assert certs.block_positive_spot_check(x, n, m) is None
    elif fam == "blockpos-out":
        cert = SimpleNamespace(**{k: inst.meta[k] for k in ("xi", "eta", "value")})
        problem, value = certs.product_vector(x, n, m, cert)
        assert problem is None and value < -0.01
    else:
        raise AssertionError(f"unknown family {fam}")


def test_fixture_optimum_certified(base):
    assert round(base.value, 4) <= -0.1539  # the engine reaches -0.15388
    assert _witness(base.c, 3, 3, base.w) is None


@pytest.mark.parametrize("round_fn", [I.e_in_round, I.e_out_round, I.sep_round])
def test_round_labels(base, round_fn):
    for inst in round_fn(SEED, 0, base.c):
        _certify(inst, base)


@pytest.mark.parametrize("warmup_fn", [I.e_in_warmups, I.e_out_warmups, I.sep_warmups])
def test_warmup_labels(base, warmup_fn):
    for inst in warmup_fn(base.c):
        _certify(inst, base)


def test_instances_repeat_for_a_seed(base):
    a = I.e_out_round(SEED, 3, base.c)
    b = I.e_out_round(SEED, 3, base.c)
    assert [i.cls for i in a] == [i.cls for i in b]
    assert all(np.array_equal(i.x, j.x) for i, j in zip(a, b))


def test_harness_files_are_in_their_cones(tmp_path):
    wl = workloads.make("harness", SEED, str(tmp_path / "files"))
    wl.setup()
    try:
        assert all(expect == 0 for _, expect in wl.files.values())
    finally:
        wl.cleanup()


def test_traced_counts_repeat(base):
    """The tracer's counts on the same operations are identical run to run."""
    import run
    from spans import Tracer

    ops = [workloads.OracleOp(i) for i in I.e_out_round(SEED, 0, base.c)[:3]]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            records = run.run_phase(None, run.Calibrator(), rounds=1, premade=[ops], tracer=tracer).records
        finally:
            tracer.uninstall()
        assert not any(r.failed for r in records)
        totals = tracer.totals()
        counts.append((totals["linalg.eigh"][0], sum(tracer.iterations), totals["cones.witness_search"][0]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0
    import mapcones.cones

    assert not hasattr(mapcones.cones.dykstra_feasibility, "__wrapped__")


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(e["name"], e["unit"], e["better"]) for e in spec["end_to_end"]] == run.END_TO_END
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
