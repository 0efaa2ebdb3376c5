"""Tests for the cone membership oracles and certificate validity."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import unitary_group

from _helpers import brute_partial_transpose, random_complex, random_hermitian, random_psd, rng
from mapcones.choi import (
    adjoint,
    apply_second,
    identity_map,
    map_from_action,
    map_from_choi,
    max_entangled_projector,
    swap_operator,
    transpose_map,
)
from mapcones.cones import (
    Decomposition,
    FWitness,
    MinEigCert,
    SeparableBall,
    SeparableDecomposition,
    Status,
    dykstra_feasibility,
    in_E,
    in_F,
    in_P,
    in_S,
    is_block_positive,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
    is_ppt_state,
    is_separable,
    pm_k_membership,
    project_F,
    psd_project,
    witness_search,
)
from mapcones.fixtures import nondecomposable_map, ppt_entangled_state
from mapcones.linalg import Dims, frob, is_psd, partial_transpose, tensor

D22 = Dims(2, 2)
D23 = Dims(2, 3)
D33 = Dims(3, 3)
TOL = 1e-9
#: the fixture map's optimum over trace-one PPT witnesses is -S_STAR
S_STAR = 2 / np.sqrt(3) - 1


def _e_in_round2_lowrank_3x3():
    """The lowrank/3x3/mu=0.01 instance of the benchmark's e-in round 2 at seed 1."""
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import instances
    finally:
        sys.path.pop(0)
    (inst,) = [
        i for i in instances.e_in_round(1, 2, instances.fixture_choi())
        if i.cls == "lowrank/3x3" and i.margin["mu"] == 0.01
    ]
    return inst.x


def conjugation_map(a):
    k = a.shape[0]
    return map_from_action(k, k, lambda e: a @ e @ a.conj().T)


class TestSpectralCones:
    def test_identity_is_cp(self):
        v = is_cp(identity_map(3))
        assert v.status is Status.IN

    def test_transpose_not_cp_with_witness(self):
        v = is_cp(transpose_map(3))
        assert v.status is Status.OUT
        cert = v.certificate
        assert isinstance(cert, MinEigCert)
        assert cert.value == pytest.approx(-1.0, abs=1e-12)
        # the certificate eigenvector reproduces the negative value
        quad = (cert.vector.conj() @ swap_operator(3) @ cert.vector).real
        assert quad == pytest.approx(-1.0, abs=1e-10)

    def test_conjugation_is_cp(self):
        g = rng(50)
        v = is_cp(conjugation_map(random_complex(g, (3, 3))))
        assert v.status is Status.IN

    def test_transpose_is_cop(self):
        assert is_cop(transpose_map(3)).status is Status.IN

    def test_identity_not_cop(self):
        v = is_cop(identity_map(3))
        assert v.status is Status.OUT
        assert v.certificate.value == pytest.approx(-1.0, abs=1e-12)

    def test_transposed_conjugation_is_cop(self):
        g = rng(51)
        a = random_complex(g, (3, 3))
        phi = map_from_action(3, 3, lambda e: a @ e.T @ a.conj().T)
        assert is_cop(phi).status is Status.IN

    def test_cp_iff_cop_after_transpose_composition(self):
        g = rng(52)
        from mapcones.choi import compose_left

        for _ in range(5):
            c = random_hermitian(g, 9)
            phi = map_from_choi(3, 3, c)
            t_phi = compose_left(transpose_map(3), phi)
            assert is_cp(phi).status == is_cop(t_phi).status


class TestOverflowingScale:
    def test_oracles_reject_infinite_norm(self):
        # ||x||_F overflows to inf, which would make every threshold -inf
        # and every oracle answer IN
        phi = map_from_choi(2, 2, -1e155 * np.eye(4))
        for oracle in (is_cp, is_decomposable):
            with pytest.raises(ValueError):
                oracle(phi)
        with pytest.raises(ValueError):
            in_F(phi.choi, D22)


class TestPCone:
    def test_depolarizing_in_p(self):
        from mapcones.choi import depolarizing_map

        assert in_P(depolarizing_map(3, 3)).status is Status.IN

    def test_identity_out(self):
        # the Choi matrix of id on M_2 is PSD and its partial transpose is
        # the swap, so the certificate is the swap's eigenvector at -1
        phi = identity_map(2)
        v = in_P(phi)
        assert v.status is Status.OUT
        cert = v.certificate
        assert isinstance(cert, MinEigCert)
        assert cert.value == pytest.approx(-1.0, abs=1e-12)
        pt = partial_transpose(phi.choi, D22)
        assert np.allclose(pt @ cert.vector, -cert.vector, atol=1e-12)

    def test_convexity(self):
        g = rng(53)
        a = project_F(random_hermitian(g, 9), D33)
        b = project_F(random_hermitian(g, 9), D33)
        phi = map_from_choi(3, 3, 0.3 * a + 0.7 * b)
        assert in_P(phi).status is Status.IN


class TestFCone:
    def test_maximally_mixed(self):
        v = is_ppt_state(np.eye(6) / 6, D23)
        assert v.status is Status.IN

    def test_pure_entangled(self):
        n = 3
        rho = max_entangled_projector(n) / n
        v = is_ppt_state(rho, D33)
        assert v.status is Status.OUT
        # PT spectrum of p/n contains -1/n
        assert v.certificate.value == pytest.approx(-1.0 / n, abs=1e-12)

    def test_separable_mixture(self):
        g = rng(54)
        rho = np.zeros((6, 6), dtype=complex)
        for _ in range(8):
            rho += tensor(random_psd(g, 2), random_psd(g, 3))
        rho /= np.trace(rho).real
        assert is_ppt_state(rho, D23).status is Status.IN

    def test_trace_gate(self):
        with pytest.raises(ValueError):
            is_ppt_state(np.eye(4), D22)

    def test_one_trace_gate_for_both_state_oracles(self):
        messages = []
        for oracle in (is_ppt_state, is_separable):
            with pytest.raises(ValueError) as err:
                oracle(np.eye(4) / 2, D22)
            messages.append(str(err.value))
        assert messages == ["not a state: trace = 2.000000000000+0.000000000000j"] * 2

    def test_hermiticity_gate_before_trace_gate(self):
        # neither Hermitian nor of trace one: the Hermiticity error comes first
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            is_ppt_state(np.triu(np.ones((4, 4))), D22)

    def test_non_hermitian_rejected(self):
        g = rng(55)
        with pytest.raises(ValueError):
            in_F(random_complex(g, (4, 4)), D22)


class TestDykstraFeasibility:
    def test_psd_converges_immediately(self):
        # a PSD x is its own decomposition (x, 0): the feasible dual point
        # (lambda_min(x), 0) settles it before any Newton step
        g = rng(56)
        x = random_psd(g, 9)
        res = dykstra_feasibility(x, D33, TOL)
        assert res.converged and res.stop == "in" and res.w is None
        assert res.iterations == 0
        assert frob(res.b) <= 1e-8 * (1 + frob(x))

    def test_constructed_instance(self):
        g = rng(57)
        x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), D33)
        res = dykstra_feasibility(x, D33, TOL)
        assert res.converged
        assert res.residual <= TOL * (1 + frob(x))
        assert is_psd(res.a)[0] and is_psd(res.b)[0]

    def test_stall_and_budget_stops(self):
        # the solve ends on a settled sign or on a closed bracket; the
        # bracket holds at every stop
        x = nondecomposable_map().choi.copy()
        res = dykstra_feasibility(x, D33, TOL)
        assert res.stop == "out" and not res.converged and res.w is not None
        assert res.iterations <= 10
        assert res.upper <= res.lower / 2 < 0
        res = dykstra_feasibility(x, D33, TOL, optimum=True)
        assert res.stop == "gap" and res.lower <= -S_STAR <= res.upper

    def test_infeasible_reports_gap(self):
        # a non-decomposable x comes back with a trace-one PPT operator w
        # pairing negatively with it: the primal side of the bracket
        g = rng(58)
        x = random_hermitian(g, 9)
        x /= frob(x)
        res = dykstra_feasibility(x, D33, TOL)
        assert not res.converged and res.w is not None
        w = res.w
        assert np.linalg.eigvalsh(w)[0] >= -1e-9 * (1 + frob(w))
        assert np.linalg.eigvalsh(partial_transpose(w, D33))[0] >= -1e-9 * (1 + frob(w))
        assert abs(np.trace(w).real - 1.0) <= 1e-9
        assert np.trace(w @ x).real == pytest.approx(res.upper, abs=1e-12)
        assert res.lower <= res.upper < 0


class TestProjectF:
    def test_fixed_point(self):
        w, d = ppt_entangled_state()
        assert frob(project_F(w, d, TOL) - w) <= 1e-7

    def test_lands_in_f(self):
        g = rng(59)
        for k in range(5):
            x = random_hermitian(g, 9)
            y = project_F(x, D33, TOL)
            v = in_F(y, D33, tol=1e-8)
            assert v.status is Status.IN, f"draw {k}: {v.certificate}"

    def test_projection_of_member_is_identity(self):
        g = rng(60)
        x = random_psd(g, 4)
        x = (x + partial_transpose(x, D22)) / 2
        y = project_F(x, D22, TOL)
        if in_F(x, D22).status is Status.IN:
            assert frob(y - x) <= 1e-7 * (1 + frob(x))


class TestInE:
    def test_psd_in(self):
        g = rng(61)
        x = random_psd(g, 9)
        v = in_E(x, D33, TOL)
        assert v.status is Status.IN
        assert isinstance(v.certificate, Decomposition)

    def test_pt_of_psd_in(self):
        g = rng(62)
        x = partial_transpose(random_psd(g, 9), D33)
        v = in_E(x, D33, TOL)
        assert v.status is Status.IN

    def test_decomposition_certificate_revalidates(self):
        g = rng(63)
        x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), D33)
        v = in_E(x, D33, TOL)
        assert v.status is Status.IN
        cert = v.certificate
        assert is_psd(cert.a, tol=1e-8)[0] and is_psd(cert.b, tol=1e-8)[0]
        resid = frob(x - cert.a - partial_transpose(cert.b, D33))
        assert resid <= TOL * (1 + frob(x))

    @pytest.mark.parametrize("dims, seed", [((2, 4), 6), ((4, 4), 2)])
    def test_lowrank_interior_point_in(self, dims, seed):
        # A + PT(B) + 0.01 Tr/nm I with A, B of rank 1..3: interior points
        # close to the boundary, slow for the feasibility loop, which must
        # still reach a decomposition within its default budget
        d = Dims(*dims)
        nm = d.total
        g = rng(seed)

        def low_rank_psd():
            k = int(g.integers(1, 4))
            f = g.normal(size=(nm, k)) + 1j * g.normal(size=(nm, k))
            return f @ f.conj().T

        x = low_rank_psd() + partial_transpose(low_rank_psd(), d)
        x = x + 0.01 * np.trace(x).real / nm * np.eye(nm)
        x *= nm / np.trace(x).real
        v = in_E(x, d, TOL)
        assert v.status is Status.IN
        cert = v.certificate
        assert isinstance(cert, Decomposition)
        assert is_psd(cert.a, tol=1e-8)[0] and is_psd(cert.b, tol=1e-8)[0]
        resid = frob(x - cert.a - partial_transpose(cert.b, d))
        assert resid <= TOL * (1 + frob(x))

    def test_solver_stats_on_every_status(self):
        lam = nondecomposable_map()
        cases = [
            (np.eye(9), Status.IN, "in"),
            (lam.choi.copy(), Status.OUT, "out"),
            (lam.choi + S_STAR * (1 - 1e-7) * np.eye(9), Status.UNDECIDED, "gap"),
        ]
        for x, status, stop in cases:
            v = in_E(x, D33, TOL)
            assert v.status is status
            assert v.info["stop"] == stop
            assert v.info["iterations"] >= 0
            assert v.info["residual"] >= 0.0
            assert v.info["lower"] <= v.info["upper"]

    def test_band_gap_is_one_sign_solve(self, monkeypatch):
        # lam* = -1.5e-8 lies inside the band: the bracket closes there and
        # in_E answers UNDECIDED from one sign solve, not an optimum solve
        import mapcones.cones as cones_mod

        lam = nondecomposable_map()
        s = S_STAR * (1 - 1e-7)
        x = lam.choi + s * np.eye(9)
        calls = []
        solve = cones_mod.sdp.solve

        def counting(x, d, tol, optimum):
            calls.append(optimum)
            return solve(x, d, tol, optimum)

        monkeypatch.setattr(cones_mod.sdp, "solve", counting)
        v = in_E(x, D33, TOL)
        assert v.status is Status.UNDECIDED
        assert v.info["stop"] == "gap"
        assert v.info["lower"] <= s - S_STAR <= v.info["upper"]
        assert v.info["upper"] - v.info["lower"] <= TOL * (1 + frob(x))
        assert calls == [False]

    def test_band_witness_is_dropped(self):
        # the optimum solve closes on a witness of value about -1.5e-8,
        # which the band makes UNDECIDED, so no witness comes back
        x = nondecomposable_map().choi + S_STAR * (1 - 1e-7) * np.eye(9)
        assert witness_search(x, D33, TOL) is None
        feas = dykstra_feasibility(x, D33, TOL, optimum=True)
        assert feas.w is None and feas.stop == "gap"
        assert feas.lower <= -S_STAR * 1e-7 <= feas.upper < 0

    @pytest.mark.parametrize("stop", ["in", "out"])
    def test_failed_certificate_is_a_breakdown(self, monkeypatch, stop):
        # a solve that claims "in" with a non-PSD dual y, or "out" with a
        # non-PPT w, costs the decision: in_E is UNDECIDED, never IN or OUT
        import mapcones.cones as cones_mod
        from mapcones.sdp import Bracket

        phi = max_entangled_projector(2) / 2  # PSD, trace one, PT(phi) has eigenvalue -1/2
        if stop == "in":
            x = np.eye(4)
            bracket = Bracket(0.25, 0.25, -0.5 * np.eye(4), np.eye(4) / 4, 1, 1, "in")
            reason = "decomposition part not PSD"
        else:
            x = 0.1 * np.eye(4) - phi
            bracket = Bracket(-1.0, -0.9, np.zeros((4, 4)), phi, 1, 1, "out")
            reason = "witness not PPT"
        monkeypatch.setattr(cones_mod.sdp, "solve", lambda *args: bracket)
        feas = dykstra_feasibility(x, D22, TOL)
        if stop == "in":
            assert Decomposition(feas.a, feas.b, feas.residual).problem(x, D22, TOL) == reason
        else:
            assert FWitness(bracket.w, feas.upper).problem(x, D22, TOL) == reason
        v = in_E(x, D22, TOL)
        assert v.status is Status.UNDECIDED and v.certificate is None
        assert v.info["stop"] == "breakdown"

    @pytest.mark.parametrize(
        "dims, seed", [((2, 4), 3), ((4, 4), 4), ((4, 4), 5), ((3, 3), None)]
    )
    def test_low_margin_interior_points_decided(self, dims, seed):
        # interior points that plain alternating projections left UNDECIDED
        # after 20,000 iterations; the last one is e-in round 2
        # lowrank/3x3/mu=0.01 at seed 1
        d = Dims(*dims)
        nm = d.total
        if seed is None:
            x = _e_in_round2_lowrank_3x3()
        else:
            g = rng(seed)

            def low_rank_psd():
                k = int(g.integers(1, 4))
                f = g.normal(size=(nm, k)) + 1j * g.normal(size=(nm, k))
                return f @ f.conj().T

            x = low_rank_psd() + partial_transpose(low_rank_psd(), d)
            x = x + 0.01 * np.trace(x).real / nm * np.eye(nm)
            x *= nm / np.trace(x).real
        start = time.perf_counter()
        v = in_E(x, d, TOL)
        elapsed = time.perf_counter() - start
        assert v.status is Status.IN
        a, b = v.certificate.a, v.certificate.b
        scale = 1 + np.linalg.norm(x)
        assert np.linalg.eigvalsh(a)[0] >= -1e-9 * (1 + np.linalg.norm(a))
        assert np.linalg.eigvalsh(b)[0] >= -1e-9 * (1 + np.linalg.norm(b))
        assert np.linalg.norm(x - a - brute_partial_transpose(b, d)) <= 1e-9 * scale
        assert elapsed < 1.0

    def test_choi_fixture_out_with_witness(self):
        lam = nondecomposable_map()
        v = in_E(lam.choi.copy(), D33, TOL)
        assert v.status is Status.OUT
        w = v.certificate
        assert isinstance(w, FWitness)
        assert in_F(w.w, D33).status is Status.IN
        assert abs(np.trace(w.w).real - 1.0) <= 1e-9
        assert w.value < -1e-6
        assert np.trace(w.w @ lam.choi).real == pytest.approx(w.value, abs=1e-10)


class TestIsDecomposable:
    def test_cp_cop_and_sums(self):
        g = rng(64)
        cp_choi = random_psd(g, 9)
        cop_choi = partial_transpose(random_psd(g, 9), D33)
        for c in (cp_choi, cop_choi, cp_choi + cop_choi):
            assert is_decomposable(map_from_choi(3, 3, c), TOL).status is Status.IN

    def test_identity_in(self):
        v = is_decomposable(identity_map(3), TOL)
        assert v.status is Status.IN
        # decomposition is essentially (p, 0)
        assert frob(v.certificate.b) <= 1e-7

    def test_fixture_out_and_omega_identity(self):
        # the witness value Tr(C w) is n omega((id (x) lam*)(w)), with
        # n omega(y) = sum_ij y[ii, jj] for the maximally entangled vector
        lam = nondecomposable_map()
        v = is_decomposable(lam, TOL)
        assert v.status is Status.OUT
        y = apply_second(adjoint(lam), v.certificate.w, lam.d)
        diag = np.arange(lam.n) * (lam.n + 1)
        n_omega = y[np.ix_(diag, diag)].sum().real
        assert v.certificate.value == pytest.approx(n_omega, abs=1e-12)
        assert v.certificate.value < -1e-6

    @pytest.mark.parametrize("phi", [identity_map(3), nondecomposable_map()], ids=["in", "out"])
    def test_choi_gated_once(self, phi, monkeypatch):
        # in_E's gate returns the Hermitian part is_decomposable used to
        # pass it, bit for bit, since hermitian_part is idempotent
        import mapcones.choi as choi_mod
        import mapcones.cones as cones_mod

        gated = []
        for mod in (choi_mod, cones_mod):
            def spy(x, tol=1e-9, original=mod.check_hermitian):
                gated.append(x.shape == phi.choi.shape and np.array_equal(x, phi.choi))
                return original(x, tol)

            monkeypatch.setattr(mod, "check_hermitian", spy)
        is_decomposable(phi, TOL)
        assert gated.count(True) == 1

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            is_decomposable(map_from_choi(2, 2, np.triu(np.ones((4, 4)))), TOL)


#: calls that must run the Hermiticity gate once: in_S and in_P gate the
#: Choi matrix and hand it to the operator cores, is_ppt_state gates once
ONE_GATE = {
    "in_S ppt-exact": lambda: in_S(map_from_choi(2, 3, np.eye(6)), TOL),
    "in_S ppt OUT": lambda: in_S(identity_map(3), TOL),
    "in_S dephased": lambda: in_S(map_from_choi(3, 3, np.eye(9)), TOL),
    "in_S detected": lambda: in_S(map_from_choi(3, 3, ppt_entangled_state()[0]), TOL),
    "in_P": lambda: in_P(identity_map(2), TOL),
    "is_ppt_state": lambda: is_ppt_state(np.eye(6) / 6, D23, TOL),
}


@pytest.mark.parametrize("call", list(ONE_GATE.values()), ids=list(ONE_GATE))
def test_hermiticity_gate_runs_once(call, monkeypatch):
    import mapcones.choi as choi_mod
    import mapcones.cones as cones_mod

    gated = []
    for mod in (choi_mod, cones_mod):
        def spy(x, tol=1e-9, original=mod.check_hermitian):
            gated.append(x.shape)
            return original(x, tol)

        monkeypatch.setattr(mod, "check_hermitian", spy)
    call()
    assert len(gated) == 1


class TestWitnessSearch:
    def test_none_for_psd(self):
        g = rng(65)
        x = random_psd(g, 9)
        assert witness_search(x, D33, TOL) is None

    def test_fixture_witness_found_and_valid(self):
        lam = nondecomposable_map()
        w = witness_search(lam.choi.copy(), D33, TOL)
        assert w is not None
        assert w.value < -1e-6
        assert in_F(w.w, D33).status is Status.IN
        assert abs(np.trace(w.w).real - 1.0) <= 1e-9

    def test_converged_probe_skips_search(self, monkeypatch):
        # a converged decomposition rules out every witness, so the search
        # ends with its one solve at the "in" stop and returns None
        import mapcones.cones as cones_mod

        g = rng(66)
        x = random_psd(g, 4) + partial_transpose(random_psd(g, 4), D22)
        original = cones_mod.dykstra_feasibility
        results = []

        def counting(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cones_mod, "dykstra_feasibility", counting)
        assert witness_search(x, D22, TOL) is None
        assert len(results) == 1
        assert results[0].converged and results[0].stop == "in" and results[0].w is None

    def test_witness_against_shipped_state(self):
        # the shipped PPT entangled state is itself a feasible point with
        # a negative objective, so the search must do at least as well
        lam = nondecomposable_map()
        w_state, _ = ppt_entangled_state()
        handmade = np.trace(w_state @ lam.choi).real
        w = witness_search(lam.choi.copy(), D33, TOL)
        assert w is not None
        assert w.value <= handmade + 1e-9


class TestFixtureOptimum:
    """Accuracy of the e-cone solve against the fixture's known optimum, numpy only."""

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 4)])
    def test_witness_search_reaches_the_optimum(self, n, m):
        # the isometric embedding J_n (x) J_m keeps the optimum: a trace-one
        # PPT w pulls back to a PPT operator of trace at most one
        j = np.kron(np.eye(n)[:, :3], np.eye(m)[:, :3])
        x = j @ nondecomposable_map().choi @ j.T
        wit = witness_search(x, Dims(n, m), TOL)
        assert wit.value == pytest.approx(-S_STAR, abs=1e-8)
        w = wit.w
        assert np.linalg.eigvalsh(w)[0] >= -1e-9 * (1 + np.linalg.norm(w))
        assert np.linalg.eigvalsh(brute_partial_transpose(w, Dims(n, m)))[0] >= -1e-9 * (1 + np.linalg.norm(w))
        assert abs(np.trace(w).real - 1.0) <= 1e-9
        assert np.trace(w @ x).real == pytest.approx(wit.value, abs=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_shift_across_the_optimum(self, sign):
        # C + s I is decomposable exactly when s >= S_STAR
        c = nondecomposable_map().choi
        x = c + S_STAR * (1 + sign * 1e-3) * np.eye(9)
        v = in_E(x, D33, TOL)
        scale = 1 + np.linalg.norm(x)
        if sign > 0:
            assert v.status is Status.IN
            a, b = v.certificate.a, v.certificate.b
            assert np.linalg.eigvalsh(a)[0] >= -1e-9 * (1 + np.linalg.norm(a))
            assert np.linalg.eigvalsh(b)[0] >= -1e-9 * (1 + np.linalg.norm(b))
            assert np.linalg.norm(x - a - brute_partial_transpose(b, D33)) <= 1e-9 * scale
        else:
            assert v.status is Status.OUT
            w = v.certificate.w
            assert np.linalg.eigvalsh(w)[0] >= -1e-9 * (1 + np.linalg.norm(w))
            assert np.linalg.eigvalsh(brute_partial_transpose(w, D33))[0] >= -1e-9 * (1 + np.linalg.norm(w))
            assert abs(np.trace(w).real - 1.0) <= 1e-9
            assert np.trace(w @ x).real <= -10 * 1e-9 * scale
        assert v.info["lower"] <= sign * 1e-3 * S_STAR <= v.info["upper"]


def test_library_does_not_load_scipy(tmp_path):
    # the library depends on numpy alone; importing scipy.optimize adds about 46 MB of resident memory
    path = str(tmp_path / "mixed.json")
    code = (
        "import sys, numpy as np\n"
        "import mapcones\n"
        "from mapcones import cli\n"
        "from mapcones.io import save_matrix\n"
        "g = np.random.default_rng(0)\n"
        "f = g.normal(size=(16, 16)) + 1j * g.normal(size=(16, 16))\n"
        "mapcones.is_decomposable(mapcones.map_from_choi(4, 4, f + f.conj().T))\n"
        "rho, d = mapcones.ppt_entangled_state()\n"
        "mapcones.is_separable(rho, d)\n"
        "v = g.normal(size=(16, 4)) + 1j * g.normal(size=(16, 4))\n"
        "mapcones.is_separable(v @ v.conj().T / np.linalg.norm(v) ** 2, mapcones.Dims(4, 4))\n"
        "mapcones.in_S(mapcones.map_from_choi(3, 3, np.eye(9)))\n"
        f"save_matrix({path!r}, 3, 3, np.eye(9))\n"
        f"assert cli.main(['check', {path!r}, 'sep']) == 0\n"
        "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


SEP_DIMS = [Dims(3, 3), Dims(2, 4), Dims(3, 4), Dims(4, 4)]


def _density(p):
    return p / np.trace(p).real


def _local_unitary(g, d):
    return np.kron(unitary_group.rvs(d.n, random_state=g), unitary_group.rvs(d.m, random_state=g))


def _dephased_family(family, g, d):
    if family == "pure-product":
        return tensor(_density(random_psd(g, d.n, 1)), _density(random_psd(g, d.m, 1)))
    if family == "mixed-product":
        return tensor(_density(random_psd(g, d.n)), _density(random_psd(g, d.m)))
    if family == "maximally-mixed":
        return np.eye(d.total) / d.total
    return np.diag(g.dirichlet(np.ones(d.total))).astype(complex)


def assert_separable_certificate(rho, d, cert, tol=1e-9):
    """Re-validate a SeparableDecomposition in plain numpy."""
    w = np.asarray(cert.weights)
    assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, abs=tol)
    assert len(cert.left) == len(cert.right) == len(w)
    total = np.zeros(rho.shape, dtype=complex)
    for wk, a, b in zip(w, cert.left, cert.right):
        for f, k in ((a, d.n), (b, d.m)):
            assert f.shape == (k, k) and frob(f - f.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(f) == pytest.approx([0.0] * (k - 1) + [1.0], abs=1e-12)
        total += wk * np.kron(a, b)
    residual = frob(rho - total)
    assert residual <= tol * (1 + frob(rho))
    assert residual == pytest.approx(cert.residual, abs=1e-14)


class TestSeparability:
    def test_product_state_in(self):
        g = rng(66)
        a = random_psd(g, 2, rank=1)
        b = random_psd(g, 2, rank=1)
        rho = tensor(a / np.trace(a).real, b / np.trace(b).real)
        assert is_separable(rho, D22).status is Status.IN

    def test_pure_entangled_out(self):
        rho = max_entangled_projector(2) / 2
        v = is_separable(rho, D22)
        assert v.status is Status.OUT

    def test_maximally_mixed_3x3_explicit_decomposition(self):
        v = is_separable(np.eye(9) / 9, D33)
        assert v.status is Status.IN
        dec = v.certificate
        # certificate reproduces the state
        fit = sum(
            wgt * tensor(a, b) for wgt, a, b in zip(dec.weights, dec.left, dec.right)
        )
        assert frob(fit - np.eye(9) / 9) <= 1e-8

    @pytest.mark.parametrize("family", ["pure-product", "mixed-product", "maximally-mixed", "classical"])
    @pytest.mark.parametrize("d", SEP_DIMS, ids=str)
    def test_dephased_in_under_local_unitaries(self, d, family):
        g = rng(400 + 10 * d.total + len(family))
        rho = _dephased_family(family, g, d)
        u = _local_unitary(g, d)
        for x in (rho, u @ rho @ u.conj().T):
            v = is_separable(x, d)
            assert v.status is Status.IN and v.info == {"regime": "dephased"}
            assert isinstance(v.certificate, SeparableDecomposition)
            assert_separable_certificate(x, d, v.certificate)

    def test_ball_around_maximally_mixed(self):
        ent, d = ppt_entangled_state()
        dim = d.total
        radius = 1 / np.sqrt(dim * (dim - 1))
        direction = (ent - np.eye(dim) / dim) / frob(ent - np.eye(dim) / dim)
        inside = np.eye(dim) / dim + radius * (1 - 1e-3) * direction
        outside = np.eye(dim) / dim + radius * (1 + 1e-3) * direction
        v = is_separable(inside, d)
        assert v.status is Status.IN and v.info == {"regime": "ball"}
        assert isinstance(v.certificate, SeparableBall)
        assert v.certificate.radius == pytest.approx(radius, rel=1e-15)
        assert v.certificate.distance == pytest.approx(frob(inside - np.eye(dim) / dim), rel=1e-12)
        assert v.certificate.distance < v.certificate.radius
        assert is_separable(outside, d).status is not Status.IN

    def test_ppt_entangled_state_never_in_under_local_unitaries(self):
        rho, d = ppt_entangled_state()
        v = is_separable(rho, d)
        assert v.status is Status.OUT and v.info["detection_value"] < 0
        g = rng(410)
        for _ in range(60):
            u = _local_unitary(g, d)
            assert is_separable(u @ rho @ u.conj().T, d).status is not Status.IN

    def test_generic_mixture_undecided(self):
        g = rng(420)
        rho = _density(sum(tensor(random_psd(g, 3, 1), random_psd(g, 3, 1)) for _ in range(5)))
        v = is_separable(rho, D33)
        assert v.status is Status.UNDECIDED and v.info == {"ppt": "passed"}

    def test_2x3_separable_mixture(self):
        g = rng(67)
        rho = np.zeros((6, 6), dtype=complex)
        for _ in range(10):
            rho += tensor(random_psd(g, 2, rank=1), random_psd(g, 3, rank=1))
        rho /= np.trace(rho).real
        assert is_separable(rho, D23).status is Status.IN

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            is_separable(np.diag([1.5, -0.5]).astype(complex), Dims(1, 2))
        with pytest.raises(ValueError):
            is_separable(np.eye(4), D22)

    def test_in_s_on_product_choi(self):
        g = rng(68)
        c = tensor(random_psd(g, 2), random_psd(g, 2))
        assert in_S(map_from_choi(2, 2, c)).status is Status.IN

    def test_in_s_identity_map_out(self):
        assert in_S(identity_map(2)).status is Status.OUT


class TestBlockPositive:
    def test_psd_heuristic_in(self):
        g = rng(69)
        v = is_block_positive(random_psd(g, 4), D22, restarts=6)
        assert v.status is Status.IN and v.heuristic

    def test_swap_no_violation_and_grid_oracle(self):
        # product expectation of the swap is |<conj(xi), eta>|^2 >= 0;
        # a coarse deterministic grid over product vectors at n = 2
        # confirms the minimum is ~0, so the see-saw must find nothing
        s = swap_operator(2)
        grid = np.linspace(0, np.pi, 9)
        best = np.inf
        for ta in grid:
            for pa in grid:
                for tb in grid:
                    for pb in grid:
                        xi = np.array([np.cos(ta), np.sin(ta) * np.exp(1j * pa)])
                        eta = np.array([np.cos(tb), np.sin(tb) * np.exp(1j * pb)])
                        v = np.kron(xi, eta)
                        best = min(best, (v.conj() @ s @ v).real)
        assert best >= -1e-12
        verdict = is_block_positive(s, D22, restarts=8)
        assert verdict.status is Status.IN and verdict.heuristic

    def test_negation_map_out(self):
        phi = map_from_action(2, 2, lambda e: -e)
        v = is_positive_map(phi, restarts=4)
        assert v.status is Status.OUT
        cert = v.certificate
        assert cert.value < 0
        # product-vector certificate revalidates against the Choi matrix
        vec = np.kron(cert.xi, cert.eta)
        quad = (vec.conj() @ phi.choi @ vec).real
        assert quad == pytest.approx(cert.value, abs=1e-10)

    def test_fixture_map_positive(self):
        assert is_positive_map(nondecomposable_map(), restarts=12).status is Status.IN


class TestPmKMembership:
    def test_identity_sample_reduces_to_psd(self):
        g = rng(70)
        for _ in range(5):
            x = random_hermitian(g, 4)
            v = pm_k_membership(x, D22, [identity_map(2)])
            assert (v.status is Status.IN) == is_psd(x)[0]

    def test_transpose_sample_reduces_to_pt_psd(self):
        g = rng(71)
        x = random_hermitian(g, 4)
        v = pm_k_membership(x, D22, [transpose_map(2)])
        assert (v.status is Status.IN) == is_psd(partial_transpose(x, D22))[0]

    def test_both_samples_reduce_to_f(self):
        g = rng(72)
        for k in range(6):
            x = random_hermitian(g, 4) if k % 2 else random_psd(g, 4)
            v = pm_k_membership(x, D22, [identity_map(2), transpose_map(2)])
            assert (v.status is Status.IN) == (in_F(x, D22).status is Status.IN)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            pm_k_membership(np.eye(4), D22, [])


#: every oracle that takes Dims, on an operator that passes its other input checks
DIMS_ORACLES = {
    "in_F": lambda d: in_F(np.eye(4), d),
    "in_E": lambda d: in_E(np.eye(4), d),
    "dykstra_feasibility": lambda d: dykstra_feasibility(np.eye(4), d),
    "witness_search": lambda d: witness_search(np.eye(4), d),
    "is_ppt_state": lambda d: is_ppt_state(np.eye(4) / 4, d),
    "is_separable": lambda d: is_separable(np.eye(4) / 4, d),
    "is_block_positive": lambda d: is_block_positive(np.eye(4), d),
    "pm_k_membership": lambda d: pm_k_membership(np.eye(4), d, [identity_map(2)]),
}


@pytest.mark.parametrize("dims", [(0, 0), (0, 3), (-2, -2), (-1, -9)])
@pytest.mark.parametrize("oracle", sorted(DIMS_ORACLES))
def test_degenerate_dims_rejected(oracle, dims):
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        DIMS_ORACLES[oracle](dims)


@pytest.mark.parametrize("oracle", sorted(DIMS_ORACLES))
def test_mis_shaped_operator_rejected(oracle, monkeypatch):
    # a 4x4 operator at dims (3, 3) fails the entry gate before any eigensolve
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the shape gate")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    with pytest.raises(ValueError, match="does not match dims"):
        DIMS_ORACLES[oracle]((3, 3))


def test_dykstra_feasibility_rejects_non_hermitian():
    x = np.eye(4, dtype=complex)
    x[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        dykstra_feasibility(x, D22)


class TestConeInclusions:
    def test_chain_on_random_instances(self):
        g = rng(73)
        for k in range(12):
            c = random_hermitian(g, 9) if k % 3 else random_psd(g, 9)
            phi = map_from_choi(3, 3, c)
            p_in = in_P(phi).status is Status.IN
            cp_in = is_cp(phi).status is Status.IN
            cop_in = is_cop(phi).status is Status.IN
            if p_in:
                assert cp_in and cop_in
            if cp_in or cop_in:
                assert is_decomposable(phi, TOL).status is Status.IN
            f_in = in_F(c, D33).status is Status.IN
            psd_in = is_psd(c)[0]
            if f_in:
                assert psd_in
            if psd_in:
                assert in_E(c, D33, TOL).status is Status.IN

    def test_psd_project_idempotent_and_psd(self):
        g = rng(74)
        x = random_hermitian(g, 6)
        y = psd_project(x)
        assert is_psd(y)[0]
        assert frob(psd_project(y) - y) <= 1e-12 * (1 + frob(y))

    def test_p_cone_chois_are_ppt_200(self):
        # membership in the p cone and the PPT property of the Choi
        # matrix are the same spectra through two code paths
        g = rng(76)
        agree = 0
        for k in range(200):
            c = random_hermitian(g, 9) if k % 2 else project_F(random_hermitian(g, 9), D33)
            phi = map_from_choi(3, 3, c)
            p_in = in_P(phi).status is Status.IN
            f_in = in_F(c, D33).status is Status.IN
            assert p_in == f_in
            agree += p_in
        assert agree >= 90  # the projected family keeps both verdicts populated


@pytest.mark.slow
class TestWitnessConsistencyUnderPerturbation:
    def test_fixture_and_50_perturbations(self):
        # non-decomposability and the existence of a PPT witness must
        # agree on the fixture and on small perturbations of it
        lam = nondecomposable_map()
        g = rng(77)
        base = lam.choi
        for k in range(50):
            h = random_hermitian(g, 9)
            c = base + 0.005 * frob(base) / frob(h) * h
            dec = in_E(c, D33, TOL)
            wit = witness_search(c, D33, TOL)
            assert dec.status is Status.OUT
            assert wit is not None and wit.value < -1e-6
            # the shipped companion state still certifies every perturbation
            w_state, _ = ppt_entangled_state()
            assert np.trace(w_state @ c).real < -1e-3


@pytest.mark.slow
class TestAgainstSdpOracle:
    """Independent interior-point check of the feasibility engine."""

    def test_in_e_matches_sdp(self):
        cvxpy = pytest.importorskip("cvxpy")
        g = rng(75)

        def pt_expr(w):
            rows = []
            for a in range(9):
                i, r = divmod(a, 3)
                row = []
                for b in range(9):
                    j, s = divmod(b, 3)
                    row.append(w[i * 3 + s, j * 3 + r])
                rows.append(cvxpy.hstack(row))
            return cvxpy.vstack(rows)

        def sdp_min(x):
            w = cvxpy.Variable((9, 9), hermitian=True)
            cons = [w >> 0, pt_expr(w) >> 0, cvxpy.trace(w) == 1]
            prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.real(cvxpy.trace(x @ w))), cons)
            prob.solve(solver=cvxpy.CLARABEL)
            return prob.value

        mismatches = 0
        for k in range(10):
            if k % 2:
                x = random_hermitian(g, 9)
            else:
                x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), D33)
            x /= frob(x)
            v = in_E(x, D33, TOL)
            truth = sdp_min(x)
            if v.status is Status.UNDECIDED:
                continue
            ours = v.status is Status.IN
            if ours != (truth >= -1e-7):
                mismatches += 1
        assert mismatches == 0
