"""Verification-suite machinery: conditions, sharp cones, reports."""

import json

import numpy as np
import pytest

import mapcones.cones as cones_mod
import mapcones.theorems as theorems_mod
from _helpers import SUITE_COUNTED, random_psd, rng, suite_call_counts
from mapcones.choi import adjoint, adjoint_choi, identity_map, map_from_choi, transpose_map
from mapcones.cones import (
    ConeId,
    Status,
    Verdict,
    classify,
    in_E,
    pm_k_membership,
)
from mapcones.fixtures import nondecomposable_map
from mapcones.linalg import Dims, frob, partial_transpose
from mapcones.sampling import ConeSampler, cone_generator_pool, sample_map, substream
from mapcones.theorems import (
    SUPPORTED_THEOREMS,
    TheoremReport,
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

    def test_fixture_p_margins_are_out_at_the_witness(self):
        # (i), (iii) and (iv) read the image of in_E's witness sample, and
        # (ii) is the witness value
        phi = nondecomposable_map()
        conds = theorem1_conditions(phi, ConeId.MAP_P)
        assert conds.pattern == "FFFF"
        assert list(conds.margins) == ["i", "ii", "iii", "iv"]
        scale = 1.0 + frob(phi.choi)
        assert all(classify(v, scale, 1e-9) is Status.OUT for v in conds.margins.values())
        assert conds.margins["ii"] == in_E(phi.hermitian_choi(1e-9), D33).certificate.value

    def test_undecided_e_verdict_marks_the_p_trial_boundary(self, monkeypatch):
        def undecided(x, d, tol):
            return Verdict(Status.UNDECIDED, info=in_E(x, d, tol).info)

        monkeypatch.setattr(theorems_mod, "in_E", undecided)
        # without an OUT witness, (i), (iii) and (iv) read the pool alone
        for phi in (nondecomposable_map(), ConeSampler(ConeId.MAP_D, D33, seed=32).draw(1)):
            conds = theorem1_conditions(phi, ConeId.MAP_P, seed=4)
            assert conds.boundary and conds.pattern == "TFTT"
            assert list(conds.margins) == ["i", "ii", "iii", "iv"]

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


#: Each entry point that takes cone samples, on sample lists that break
#: the rule that every sample maps the second factor M_n to one common M_k
#: (for ``theorem1_conditions``, M_m to M_m), and the start of its error.
BAD_SAMPLES = {
    "pm_k-mixed-outputs": (
        lambda: pm_k_membership(np.eye(4), Dims(2, 2), [identity_map(2), map_from_choi(2, 3, np.eye(6))]),
        "map output dim 3",
    ),
    "ksharp-mixed-outputs": (
        lambda: ksharp_membership(identity_map(2), [identity_map(2), map_from_choi(2, 3, np.eye(6))]),
        "map output dim 3",
    ),
    "theorem1-mixed-outputs": (
        lambda: theorem1_conditions(
            identity_map(2), ConeId.MAP_CP, samples=[identity_map(2), map_from_choi(2, 3, np.eye(6))]
        ),
        "map output dim 3",
    ),
    # a 9x9 Choi matrix cannot be read as a map on M_2
    "theorem1-2x2-wrong-input": (
        lambda: theorem1_conditions(identity_map(2), ConeId.MAP_CP, samples=[identity_map(3)]),
        "map input dim 3",
    ),
    # a 16x16 Choi matrix of M_2 -> M_8 has the size of one of M_4 -> M_4
    "theorem1-2x4-wrong-input": (
        lambda: theorem1_conditions(
            map_from_choi(2, 4, np.eye(8)), ConeId.MAP_CP, samples=[map_from_choi(2, 8, np.eye(16))]
        ),
        "map input dim 2",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SAMPLES))
def test_sample_lists_that_break_the_rule_are_rejected(case):
    call, message = BAD_SAMPLES[case]
    with pytest.raises(ValueError, match=f"^{message} "):
        call()


def test_only_theorem1_conditions_takes_no_samples():
    for call in (lambda: pm_k_membership(np.eye(4), Dims(2, 2), []), lambda: ksharp_membership(identity_map(2), [])):
        with pytest.raises(ValueError, match="^need at least one cone sample$"):
            call()
    margins = theorem1_conditions(identity_map(2), ConeId.MAP_POS, samples=[]).margins
    assert margins["i"] == margins["iv"] == np.inf


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

    def test_t6_escape_check_runs_for_every_spectral_cone(self, monkeypatch):
        # every fourth trial checks an escape, its cone cp, cop and p in turn
        looked_up = []

        class Spy(dict):
            def __getitem__(self, cone):
                looked_up.append(cone)
                return super().__getitem__(cone)

        monkeypatch.setattr(theorems_mod, "_SPECTRAL_ORACLE", Spy(theorems_mod._SPECTRAL_ORACLE))
        _passes_decided(verify("T6", D33, trials=12, seed=10))
        assert looked_up == [ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_P]

    def test_t6_in_escape_map_leaves_undecided_unchanged(self, monkeypatch):
        # an escape map inside its cone has no escape to catch: it records
        # no check and counts nothing, while one in the band counts UNDECIDED
        reports = {}
        for status in (Status.IN, Status.UNDECIDED):
            forced = {cone: (lambda s: lambda c, d, tol: [cones_mod.Verdict(s) for _ in c])(status)
                      for cone in theorems_mod._SPECTRAL_ORACLE}
            monkeypatch.setattr(theorems_mod, "_SPECTRAL_ORACLE", forced)
            reports[status] = verify("T6", D33, trials=12, seed=10)
        # trials 3, 7 and 11 check escapes, and none of the 24 pairing checks is UNDECIDED
        assert reports[Status.IN].checks == reports[Status.UNDECIDED].checks == 24
        assert reports[Status.IN].undecided == 0
        assert reports[Status.UNDECIDED].undecided == 3

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

    def test_unknown_id_names_the_id_as_given(self):
        # the CLI prints this message, so the library and the CLI cannot drift apart
        supported = ", ".join(sorted(SUPPORTED_THEOREMS))
        with pytest.raises(cones_mod._UnknownName, match=f"^unknown theorem 't99'; supported: {supported}$"):
            verify("t99", D33, trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        # a run with no trials would report PASS on zero checks
        with pytest.raises(ValueError, match="trials"):
            verify("T6", D33, trials=trials, seed=0)

    @pytest.mark.parametrize("trials, seed", [(2.7, 0), (2, 1.9)])
    def test_float_trials_or_seed_rejected(self, trials, seed):
        # int() would truncate them and run a suite the caller did not ask for
        with pytest.raises(TypeError):
            verify("L4", Dims(2, 2), trials, seed)

    def test_numpy_integers_accepted(self):
        report = verify("L4", Dims(2, 2), np.int64(2), np.int64(3))
        assert emit_report(report, "json") == emit_report(verify("L4", Dims(2, 2), 2, 3), "json")

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

    def test_zero_violation_bucket_and_markdown_failure_table(self):
        report = TheoremReport("L4", 2, 2, 2, 0, 1e-9)
        report.record_failure(0, "exact miss", 0.0)
        report.record_failure(1, "synthetic check", 2.5e-7)
        assert report.histogram() == {"0": 1, "1e-7": 1}
        lines = emit_report(report, "markdown").splitlines()
        assert lines[0] == "# FAIL: L4 at 2 x 2"
        assert lines[-4:] == [
            "| trial | check | violation |",
            "| --- | --- | --- |",
            "| 0 | exact miss | 0.0 |",
            "| 1 | synthetic check | 2.5e-07 |",
        ]

    def test_check_counts_failures_and_undecided(self):
        report = TheoremReport("L4", 2, 2, 4, 0, 1e-9)
        report.check(0, "passes", 5.0, False)
        report.check(1, "fails", -2.5e-7, True)
        report.check(2, "in the band", 5.0, None)
        report.check(3, "nan margin", 5.0, np.nan > 1e-12)
        assert (report.checks, report.undecided) == (4, 1)
        assert report.failures == [{"trial": 1, "check": "fails", "violation": 2.5e-7}]

    def test_failures_empty_iff_worst_below_tol(self):
        report = verify("L4", Dims(2, 2), trials=2, seed=3)
        assert report.passed and report.worst_violation <= report.tol

    def test_unknown_format(self):
        report = verify("L4", Dims(2, 2), trials=1, seed=3)
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


def _certificate_holds(v, x, d: Dims, tol: float) -> bool:
    """Reference: re-derive an in_E certificate with plain numpy spectra."""
    scale = 1.0 + frob(x)

    def psd(a):
        return np.linalg.eigvalsh(a)[0] >= -tol * (1.0 + frob(a))

    cert = v.certificate
    if v.status is Status.IN:
        res = frob(x - cert.a - partial_transpose(cert.b, d))
        return psd(cert.a) and psd(cert.b) and res <= tol * scale
    w = cert.w
    return (
        psd(w)
        and psd(partial_transpose(w, d))
        and abs(np.trace(w).real - 1.0) <= 1e-9
        and np.trace(w @ x).real == pytest.approx(cert.value, abs=1e-12)
        and cert.value <= -10 * tol * scale
    )


class TestEDecisionPath:
    """The e-engine suites decide through ``in_E``, whose certificates re-derive."""

    RUNS = [
        ("T1", Dims(2, 2), 6, 1),
        ("T12", D33, 12, 11),  # trial 10 is T12's first non-decomposable p-cone trial
        ("T18", D33, 9, 13),
        ("C19", D33, 6, 15),
        ("L16", Dims(2, 2), 8, 1),
    ]

    def test_t1_solves_each_p_cone_map_once(self, monkeypatch):
        calls = []

        def spy(x, dd, tol):
            calls.append(x)
            return in_E(x, dd, tol)

        monkeypatch.setattr(theorems_mod, "in_E", spy)
        assert verify("T1", D33, trials=40, seed=1).passed
        assert len(calls) == 40

    @pytest.mark.parametrize("tid,d,trials,seed", RUNS, ids=[r[0] for r in RUNS])
    def test_in_E_calls_match_reference(self, monkeypatch, tid, d, trials, seed):
        calls = []

        def spy(x, dd, tol):
            v = in_E(x, dd, tol)
            calls.append((x.copy(), dd, tol, v))
            return v

        monkeypatch.setattr(theorems_mod, "in_E", spy)
        verify(tid, d, trials=trials, seed=seed)
        # every run re-derives a witness as well as a decomposition
        assert Status.OUT in {v.status for *_, v in calls}
        for x, dd, tol, v in calls:
            assert {"iterations", "residual", "stop", "lower", "upper"} <= set(v.info)
            if v.status is not Status.UNDECIDED:
                assert _certificate_holds(v, x, dd, tol)


class TestStackedSuiteCounts:
    """Each trial evaluates its probes and pool samples as one stack.

    The call counts of one ``verify`` run at 3x3 (10 trials, seed 7) are
    pinned, so a per-probe or per-sample loop coming back shows up as a
    count that grows with the probe or pool size.  The run is shared with
    ``tests/test_entry_gates.py::test_suite_gate_calls``, which pins its
    ``check_hermitian`` count.  ``CHANGES.md`` records how each row
    reached its value.
    """

    COUNTS = {
        # suite[/dims, 3x3 when omitted]: (einsum, apply_second, functional, eigvalsh, eigh)
        "L4": (30, 0, 0, 2, 0),
        "L5": (0, 1, 0, 5, 1),
        "L8": (11, 1, 0, 2, 1),
        "L10": (12, 1, 10, 0, 0),
        "L15": (0, 1, 0, 4, 2),
        "L16": (20, 10, 0, 72, 5),
        "L17": (0, 2, 0, 5, 1),
        "T6": (22, 1, 0, 4, 2),
        "T1": (104, 15, 0, 63, 9),
        "T12": (4, 10, 0, 43, 4),
        "T13": (21, 0, 0, 2, 0),
        "T18": (8, 14, 0, 46, 4),
        "C2": (20, 7, 0, 1, 1),
        "C2/2x3": (20, 5, 0, 10, 4),
        "C19": (29, 3, 0, 91, 7),
    }

    @pytest.mark.parametrize("tid", sorted(COUNTS))
    def test_counts(self, tid):
        passed, counts = suite_call_counts(tid)
        assert passed
        assert tuple(counts[name] for name in SUITE_COUNTED if name != "check_hermitian") == self.COUNTS[tid]


class TestSharpWitnessSample:
    """T12 and T18 sample ``in_E``'s own witness instead of a second solve."""

    # T12's first non-decomposable p-cone trial is trial 10
    @pytest.mark.parametrize("tid,trials,seed", [("T18", 9, 13), ("T12", 12, 11)])
    def test_no_optimum_solve(self, monkeypatch, tid, trials, seed):
        calls = []
        original = cones_mod.dykstra_feasibility

        def spy(x, d, tol=1e-9, optimum=False):
            feas = original(x, d, tol, optimum)
            calls.append((optimum, feas.stop))
            return feas

        monkeypatch.setattr(cones_mod, "dykstra_feasibility", spy)
        verify(tid, D33, trials=trials, seed=seed)
        # some trial is non-decomposable, so the sharp test needed a witness
        assert "out" in {stop for _, stop in calls}
        assert not any(optimum for optimum, _ in calls)

    @staticmethod
    def _nondecomposable():
        yield nondecomposable_map()
        for d in (Dims(2, 2), D33):
            for seed in range(6):
                phi = theorems_mod._random_map(substream(seed, 0x5A), d, 0)
                if in_E(phi.hermitian_choi(1e-9), d).status is Status.OUT:
                    yield phi

    def test_adjoint_of_witness_is_a_witness_for_the_adjoint(self):
        count = 0
        for phi in self._nondecomposable():
            d = phi.d
            c = phi.hermitian_choi(1e-9)
            w = in_E(c, d).certificate.w
            wa = adjoint_choi(w, d)
            assert abs(np.trace(wa) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(wa)[0] >= -1e-12
            assert np.linalg.eigvalsh(partial_transpose(wa, d))[0] >= -1e-12
            value = np.trace(c @ w).real
            assert abs(np.trace(adjoint(phi).choi @ wa).real - value) <= 1e-12
            pool = cone_generator_pool(ConeId.MAP_P, d, 8, 5)
            v = ksharp_membership(phi, pool + [map_from_choi(d.n, d.m, w)])
            assert v.status is Status.OUT
            count += 1
        assert count >= 6


@pytest.mark.parametrize("d", [Dims(2, 2), D33])
def test_T12_transpose_symmetry_catches_a_wrong_adjoint(monkeypatch, d):
    """T12 compares beta's partner margin with that of its adjoint, so an adjoint that moves the spectrum fails."""
    monkeypatch.setattr(
        theorems_mod, "adjoint_choi", lambda c, dd: partial_transpose(adjoint_choi(c, dd), Dims(dd.m, dd.n))
    )
    report = verify("T12", d, trials=8, seed=1)
    assert {f["check"] for f in report.failures} >= {"cp transpose symmetry", "cop transpose symmetry"}


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

    def test_square_check_follows_the_argument_checks(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify("T1", Dims(2, 3), trials=0, seed=1)
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            verify("T1", Dims(2, 3), trials=1, seed=1, tol=np.nan)
