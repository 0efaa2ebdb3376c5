"""Tests for the cone membership oracles and certificate validity."""

import numpy as np
import pytest

from _helpers import random_complex, random_hermitian, random_psd, rng
from mapcones.choi import (
    identity_map,
    map_from_action,
    map_from_choi,
    max_entangled_projector,
    swap_operator,
    transpose_map,
)
from mapcones.cones import (
    Decomposition,
    DykstraConfig,
    FWitness,
    MinEigCert,
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
CFG = DykstraConfig()


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
        v = in_P(identity_map(2))
        assert v.status is Status.OUT
        assert v.info["failed"] == "cop"

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

    def test_non_hermitian_rejected(self):
        g = rng(55)
        with pytest.raises(ValueError):
            in_F(random_complex(g, (4, 4)), D22)


class TestDykstraFeasibility:
    def test_psd_converges_immediately(self):
        g = rng(56)
        x = random_psd(g, 9)
        res = dykstra_feasibility(x, D33, CFG)
        assert res.converged and res.stop == "converged" and res.gap is None
        assert res.iterations <= 5
        assert frob(res.b) <= 1e-8 * (1 + frob(x))

    def test_constructed_instance(self):
        g = rng(57)
        x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), D33)
        res = dykstra_feasibility(x, D33, CFG)
        assert res.converged
        assert res.residual <= CFG.tol * (1 + frob(x))
        assert is_psd(res.a)[0] and is_psd(res.b)[0]

    def test_stall_and_budget_stops(self):
        x = nondecomposable_map().choi.copy()
        res = dykstra_feasibility(x, D33, CFG)
        assert res.stop == "stalled" and not res.converged and res.gap is not None
        res = dykstra_feasibility(x, D33, DykstraConfig(max_iters=7))
        assert res.stop == "max_iters" and res.iterations == 7 and res.gap is not None

    def test_infeasible_reports_gap(self):
        g = rng(58)
        x = random_hermitian(g, 9)
        x /= frob(x)
        res = dykstra_feasibility(x, D33, CFG)
        if not res.converged and res.gap is not None:
            w = -res.gap
            # the gap direction estimates (up to sign) a PPT operator
            # pairing negatively with x; exact feasibility is restored by
            # the witness polish, so only sanity-level bounds apply here
            scale = frob(w)
            assert np.linalg.eigvalsh(w)[0] >= -1e-4 * scale
            assert np.linalg.eigvalsh(partial_transpose(w, D33))[0] >= -1e-4 * scale
            assert np.trace(w @ x).real < 0


class TestProjectF:
    def test_fixed_point(self):
        w, d = ppt_entangled_state()
        assert frob(project_F(w, d, CFG) - w) <= 1e-7

    def test_lands_in_f(self):
        g = rng(59)
        for k in range(5):
            x = random_hermitian(g, 9)
            y = project_F(x, D33, CFG)
            v = in_F(y, D33, tol=1e-8)
            assert v.status is Status.IN, f"draw {k}: {v.certificate}"

    def test_projection_of_member_is_identity(self):
        g = rng(60)
        x = random_psd(g, 4)
        x = (x + partial_transpose(x, D22)) / 2
        y = project_F(x, D22, CFG)
        if in_F(x, D22).status is Status.IN:
            assert frob(y - x) <= 1e-7 * (1 + frob(x))


class TestInE:
    def test_psd_in(self):
        g = rng(61)
        x = random_psd(g, 9)
        v = in_E(x, D33, CFG)
        assert v.status is Status.IN
        assert isinstance(v.certificate, Decomposition)

    def test_pt_of_psd_in(self):
        g = rng(62)
        x = partial_transpose(random_psd(g, 9), D33)
        v = in_E(x, D33, CFG)
        assert v.status is Status.IN

    def test_decomposition_certificate_revalidates(self):
        g = rng(63)
        x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), D33)
        v = in_E(x, D33, CFG)
        assert v.status is Status.IN
        cert = v.certificate
        assert is_psd(cert.a, tol=1e-8)[0] and is_psd(cert.b, tol=1e-8)[0]
        resid = frob(x - cert.a - partial_transpose(cert.b, D33))
        assert resid <= CFG.tol * (1 + frob(x))

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
        v = in_E(x, d, CFG)
        assert v.status is Status.IN
        cert = v.certificate
        assert isinstance(cert, Decomposition)
        assert is_psd(cert.a, tol=1e-8)[0] and is_psd(cert.b, tol=1e-8)[0]
        resid = frob(x - cert.a - partial_transpose(cert.b, d))
        assert resid <= CFG.tol * (1 + frob(x))

    def test_solver_stats_on_every_status(self):
        lam = nondecomposable_map()
        cases = [
            (np.eye(9), CFG, Status.IN, "converged"),
            (lam.choi.copy(), CFG, Status.OUT, "stalled"),
            (lam.choi + 0.3 * np.eye(9), DykstraConfig(max_iters=5), Status.UNDECIDED, "max_iters"),
        ]
        for x, cfg, status, stop in cases:
            v = in_E(x, D33, cfg, seed=2)
            assert v.status is status
            assert v.info["stop"] == stop
            assert 1 <= v.info["iterations"] <= cfg.max_iters

    def test_band_max_iters_skips_witness_search(self, monkeypatch):
        # a low-rank sum that a loose budget leaves at max_iters within ten
        # times the tolerance: Tr(w x) >= -||r||_F for every trace-one PPT
        # w, so a witness search cannot succeed and must not run
        import mapcones.cones as cones_mod
        import mapcones.theorems as theorems_mod

        g = rng(0)

        def low_rank_psd():
            k = int(g.integers(1, 3))
            f = g.normal(size=(4, k)) + 1j * g.normal(size=(4, k))
            return f @ f.conj().T

        x = low_rank_psd() + partial_transpose(low_rank_psd(), D22)
        x *= 4 / np.trace(x).real
        cfg = DykstraConfig(tol=1e-5, max_iters=200)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return witness_search(*args, **kwargs)

        monkeypatch.setattr(cones_mod, "witness_search", counting)
        monkeypatch.setattr(theorems_mod, "witness_search", counting)
        v = in_E(x, D22, cfg)
        assert v.status is Status.UNDECIDED
        assert v.info["stop"] == "max_iters"
        assert cfg.tol * (1 + frob(x)) < v.info["residual"] <= 10 * cfg.tol * (1 + frob(x))
        assert theorems_mod._decide_e(x, D22, cfg, seed=0).membership is None
        assert calls == []

    def test_choi_fixture_out_with_witness(self):
        lam = nondecomposable_map()
        v = in_E(lam.choi.copy(), D33, CFG, seed=2)
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
            assert is_decomposable(map_from_choi(3, 3, c), CFG).status is Status.IN

    def test_identity_in(self):
        v = is_decomposable(identity_map(3), CFG)
        assert v.status is Status.IN
        # decomposition is essentially (p, 0)
        assert frob(v.certificate.b) <= 1e-7

    def test_fixture_out_and_omega_identity(self):
        lam = nondecomposable_map()
        v = is_decomposable(lam, CFG, seed=5)
        assert v.status is Status.OUT
        assert v.info["violation"] == pytest.approx(v.info["violation_omega"], abs=1e-12)
        assert v.info["violation"] < -1e-6


class TestWitnessSearch:
    def test_none_for_psd(self):
        g = rng(65)
        x = random_psd(g, 9)
        assert witness_search(x, D33, CFG, seed=1) is None

    def test_fixture_witness_found_and_valid(self):
        lam = nondecomposable_map()
        w = witness_search(lam.choi.copy(), D33, CFG, seed=1)
        assert w is not None
        assert w.value < -1e-6
        assert in_F(w.w, D33).status is Status.IN
        assert abs(np.trace(w.w).real - 1.0) <= 1e-9

    def test_witness_against_shipped_state(self):
        # the shipped PPT entangled state is itself a feasible point with
        # a negative objective, so the search must do at least as well
        lam = nondecomposable_map()
        w_state, _ = ppt_entangled_state()
        handmade = np.trace(w_state @ lam.choi).real
        w = witness_search(lam.choi.copy(), D33, CFG, seed=3)
        assert w is not None
        assert w.value <= handmade + 1e-9


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
                assert is_decomposable(phi, CFG, seed=k).status is Status.IN
            f_in = in_F(c, D33).status is Status.IN
            psd_in = is_psd(c)[0]
            if f_in:
                assert psd_in
            if psd_in:
                assert in_E(c, D33, CFG, seed=k).status is Status.IN

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
            dec = in_E(c, D33, CFG, seed=k)
            wit = witness_search(c, D33, CFG, seed=1000 + k)
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
            v = in_E(x, D33, CFG, seed=k)
            truth = sdp_min(x)
            if v.status is Status.UNDECIDED:
                continue
            ours = v.status is Status.IN
            if ours != (truth >= -1e-7):
                mismatches += 1
        assert mismatches == 0
