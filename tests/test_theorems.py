"""Verification-suite machinery: conditions, sharp cones, reports."""

import json

import numpy as np
import pytest

import mapcones.theorems as theorems_mod
from _helpers import random_psd, rng
from mapcones.choi import identity_map, map_from_choi, transpose_map
from mapcones.cones import (
    ConeId,
    DykstraConfig,
    Status,
    in_E,
)
from mapcones.fixtures import nondecomposable_map
from mapcones.linalg import Dims, frob, partial_transpose
from mapcones.sampling import ConeSampler, cone_generator_pool, sample_map
from mapcones.theorems import (
    SUPPORTED_THEOREMS,
    emit_report,
    ksharp_membership,
    theorem1_conditions,
    verify,
)

D33 = Dims(3, 3)


class TestKsharp:
    def test_identity_sample_reduces_to_cp(self):
        g = rng(80)
        for k in range(4):
            c = random_psd(g, 9) if k % 2 else (lambda h: (h + h.conj().T) / 2)(
                g.normal(size=(9, 9)) + 1j * g.normal(size=(9, 9))
            )
            phi = map_from_choi(3, 3, c)
            v = ksharp_membership(phi, [identity_map(3)])
            from mapcones.cones import is_cp

            assert (v.status is Status.IN) == (is_cp(phi).status is Status.IN)

    def test_cp_passes_cp_samples(self):
        pool = ConeSampler(ConeId.MAP_CP, D33, seed=21).take(6)
        for k in range(3):
            beta = ConeSampler(ConeId.MAP_CP, D33, seed=22).draw(k)
            assert ksharp_membership(beta, pool).status is Status.IN

    def test_decomposable_passes_p_samples(self):
        pool = cone_generator_pool(ConeId.MAP_P, D33, 8, seed=23)
        for k in range(3):
            beta = ConeSampler(ConeId.MAP_D, D33, seed=24).draw(k)
            assert ksharp_membership(beta, pool).status is Status.IN

    def test_square_only(self):
        with pytest.raises(ValueError):
            ksharp_membership(sample_map(ConeId.MAP_CP, Dims(2, 3), 0), [identity_map(3)])


class TestTheorem1Conditions:
    def test_cp_map_in_cp_dual(self):
        phi = ConeSampler(ConeId.MAP_CP, D33, seed=31).draw(0)
        conds = theorem1_conditions(phi, ConeId.MAP_CP, seed=1)
        assert conds.as_tuple() == (True, True, True, True)
        assert not conds.boundary

    def test_identity_map_fails_d_instance(self):
        # the Choi matrix of the identity is the entangled projector,
        # which is not PPT, so all four conditions must be false at once
        conds = theorem1_conditions(identity_map(3), ConeId.MAP_D, seed=2)
        assert conds.as_tuple() == (False, False, False, False)
        assert not conds.boundary

    def test_transpose_map_in_cop_dual(self):
        conds = theorem1_conditions(transpose_map(3), ConeId.MAP_COP, seed=3)
        assert conds.as_tuple() == (True, True, True, True)

    def test_decomposable_in_p_dual(self):
        phi = ConeSampler(ConeId.MAP_D, D33, seed=32).draw(1)
        conds = theorem1_conditions(phi, ConeId.MAP_P, seed=4)
        assert conds.as_tuple() == (True, True, True, True)
        assert not conds.boundary

    def test_fixture_fails_p_dual(self):
        conds = theorem1_conditions(nondecomposable_map(), ConeId.MAP_P, seed=5)
        assert conds.as_tuple() == (False, False, False, False)
        assert not conds.boundary

    def test_cp_map_fails_d_instance_when_not_ppt(self):
        # a generic cp map has full-rank non-PPT Choi matrix
        g = rng(81)
        c = random_psd(g, 9)
        phi = map_from_choi(3, 3, 3 * c / np.trace(c).real)
        if np.linalg.eigvalsh(partial_transpose(phi.choi, D33))[0] < -1e-6:
            conds = theorem1_conditions(phi, ConeId.MAP_D, seed=6)
            assert conds.agree and conds.as_tuple()[0] is False

    def test_rejects_operator_cone(self):
        with pytest.raises(ValueError):
            theorem1_conditions(identity_map(2), ConeId.OP_PSD)


#: At most this share of a smoke suite's checks may be UNDECIDED, so no
#: suite can pass by excluding its trials.
SMOKE_UNDECIDED_FRACTION = 0.1


def _passes_decided(report) -> None:
    assert report.passed, report.failures
    assert report.checks > 0
    assert report.undecided <= SMOKE_UNDECIDED_FRACTION * report.checks, (report.undecided, report.checks)


class TestVerifySmoke:
    @pytest.mark.parametrize("tid", ["L4", "L5", "L8", "L10", "L15"])
    def test_identity_suites_pass(self, tid):
        _passes_decided(verify(tid, D33, trials=12, seed=7))

    @pytest.mark.parametrize("tid", ["L16", "L17"])
    def test_cone_suites_pass(self, tid):
        _passes_decided(verify(tid, D33, trials=8, seed=8))

    def test_t1_small(self):
        _passes_decided(verify("T1", D33, trials=6, seed=9))

    def test_t1_p_cone_trials_decided_at_2x2(self):
        # p-cone samples lie strictly inside the PPT cone, so T1's p-cone
        # checks stay clear of the boundary band
        assert verify("T1", Dims(2, 2), trials=12, seed=1).undecided == 0

    def test_t6_small(self):
        _passes_decided(verify("T6", D33, trials=12, seed=10))

    def test_t12_small(self):
        _passes_decided(verify("T12", D33, trials=8, seed=11))

    def test_t13_has_fixture_note(self):
        report = verify("T13", D33, trials=10, seed=12)
        _passes_decided(report)
        assert any("fixture pairing value" in n for n in report.notes)

    def test_t18_small(self):
        _passes_decided(verify("T18", D33, trials=9, seed=13))

    def test_c2_at_2x2(self):
        _passes_decided(verify("C2", Dims(2, 2), trials=10, seed=14))

    def test_c19_small(self):
        _passes_decided(verify("C19", D33, trials=6, seed=15))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify("T99", D33, trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # a run with no trials would report PASS on zero checks
        with pytest.raises(ValueError, match="trials"):
            verify("T6", D33, trials=trials, seed=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tol_not_finite_positive_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify("T6", D33, trials=2, seed=0, tol=tol)

    def test_all_supported_ids_have_suites(self):
        assert set(SUPPORTED_THEOREMS) == {
            "T1", "T6", "T12", "T13", "T18", "C2", "C19",
            "L4", "L5", "L8", "L10", "L15", "L16", "L17",
        }


class TestReports:
    def test_deterministic_bytes(self):
        a = verify("L4", Dims(2, 2), trials=4, seed=3)
        b = verify("L4", Dims(2, 2), trials=4, seed=3)
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "markdown") == emit_report(b, "markdown")

    def test_json_round_trips(self):
        report = verify("L4", Dims(2, 2), trials=2, seed=3)
        obj = json.loads(emit_report(report, "json"))
        assert obj["status"] == "PASS"
        assert obj["theorem"] == "L4"
        assert obj["dims"] == {"n": 2, "m": 2}
        assert "elapsed" not in obj

    def test_pass_header_in_markdown(self):
        report = verify("L4", Dims(2, 2), trials=2, seed=3)
        text = emit_report(report, "markdown")
        assert text.startswith("# PASS: L4")

    def test_failure_entries_round_trip(self):
        report = verify("L4", Dims(2, 2), trials=2, seed=3)
        report.record_failure(1, "synthetic check", 2.5e-7)
        obj = json.loads(emit_report(report, "json"))
        assert obj["status"] == "FAIL"
        assert obj["failures"] == [
            {"trial": 1, "check": "synthetic check", "violation": 2.5e-7}
        ]
        assert obj["worst_violation"] == 2.5e-7
        assert obj["violation_histogram"] == {"1e-7": 1}

    def test_failures_empty_iff_worst_below_tol(self):
        report = verify("L4", Dims(2, 2), trials=2, seed=3)
        assert report.passed and report.worst_violation <= report.tol

    def test_unknown_format(self):
        report = verify("L4", Dims(2, 2), trials=1, seed=3)
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


def _certificate_holds(v, x, d: Dims, cfg: DykstraConfig) -> bool:
    """Reference: re-derive an in_E certificate with plain numpy spectra."""
    scale = 1.0 + frob(x)

    def psd(a):
        return np.linalg.eigvalsh(a)[0] >= -cfg.tol * (1.0 + frob(a))

    cert = v.certificate
    if v.status is Status.IN:
        res = frob(x - cert.a - partial_transpose(cert.b, d))
        return psd(cert.a) and psd(cert.b) and res <= cfg.tol * scale
    w = cert.w
    return (
        psd(w)
        and psd(partial_transpose(w, d))
        and abs(np.trace(w).real - 1.0) <= 1e-9
        and np.trace(w @ x).real == pytest.approx(cert.value, abs=1e-12)
        and cert.value <= -10 * cfg.tol * scale
    )


class TestEDecisionPath:
    """The e-engine suites decide through ``in_E``, whose certificates re-derive."""

    RUNS = [
        ("T1", Dims(2, 2), 6, 1),
        ("T12", D33, 8, 11),
        ("T18", D33, 9, 13),
        ("C19", D33, 6, 15),
        ("L16", Dims(2, 2), 8, 1),
    ]

    @pytest.mark.parametrize("tid,d,trials,seed", RUNS, ids=[r[0] for r in RUNS])
    def test_in_E_calls_match_reference(self, monkeypatch, tid, d, trials, seed):
        calls = []

        def spy(x, dd, cfg):
            v = in_E(x, dd, cfg)
            calls.append((x.copy(), dd, cfg, v))
            return v

        monkeypatch.setattr(theorems_mod, "in_E", spy)
        verify(tid, d, trials=trials, seed=seed)
        assert calls
        for x, dd, cfg, v in calls:
            assert {"iterations", "residual", "stop", "lower", "upper"} <= set(v.info)
            if v.status is not Status.UNDECIDED:
                assert _certificate_holds(v, x, dd, cfg)


class TestNonSquareDims:
    @pytest.mark.parametrize("tid", sorted(SUPPORTED_THEOREMS))
    def test_passes_or_needs_square(self, tid):
        # L16's OUT trials build a map M_m -> M_n, whose Choi matrix has
        # dims (m, n); checked against (n, m) it failed every odd trial
        try:
            report = verify(tid, Dims(2, 3), trials=4, seed=1)
        except ValueError as exc:
            assert str(exc) == "this suite needs square dimensions"
        else:
            assert report.passed, report.failures
