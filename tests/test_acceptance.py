"""Acceptance suite: each criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured runtimes.  Every tolerance is pinned here, not configured.
"""

import time

import numpy as np

from _helpers import random_psd
from mapcones.choi import (
    adjoint,
    apply_map,
    apply_second,
    compose_left,
    dual_functional,
    map_from_action,
    map_from_choi,
    omega_eval,
    pairing,
    transpose_conj,
)
from mapcones.cli import main
from mapcones.cones import (
    ConeId,
    Status,
    in_E,
    in_F,
    is_cp,
    is_separable,
)
from mapcones.fixtures import nondecomposable_map, ppt_entangled_state
from mapcones.linalg import (
    Dims,
    both_transpose,
    frob,
    full_transpose,
    hermitian_part,
    partial_transpose,
)
from mapcones.sampling import (
    ConeSampler,
    cone_generator_pool,
    random_pure_entangled_state,
    random_separable_mixture,
    substream,
)
from mapcones.theorems import verify

SEED = 20080923


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {name} ({elapsed:.1f}s, limit {limit:.0f}s){extra}")
    assert ok, f"criterion {num} failed: {name}{extra}"
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.1f}s >= {limit:.0f}s"


def test_criterion_1_transpose_conj_identities():
    t0 = time.perf_counter()
    tol = 1e-12
    failures = 0
    for n, m in ((2, 2), (2, 3), (3, 3)):
        d = Dims(n, m)
        for trial in range(200):
            g = substream(SEED, 0xA1, trial * 10 + n * 3 + m)
            c = g.normal(size=(n * m, n * m)) + 1j * g.normal(size=(n * m, n * m))
            phi = map_from_choi(n, m, c)
            scale = 1.0 + frob(c)
            via_action = map_from_action(
                n, m, lambda e: full_transpose(apply_map(phi, full_transpose(e)))
            )
            if frob(via_action.choi - both_transpose(c, d)) > tol * scale:
                failures += 1
            f = dual_functional(phi)
            ft = dual_functional(transpose_conj(phi))
            for _ in range(20):
                x = g.normal(size=(n * m, n * m)) + 1j * g.normal(size=(n * m, n * m))
                if abs(ft(x) - f(full_transpose(x))) > tol * (1.0 + frob(c) * frob(x)):
                    failures += 1
    _report(1, "transpose-conjugation identities", failures == 0, time.perf_counter() - t0, 10.0)


def test_criterion_2_entangled_state_cp_criterion():
    t0 = time.perf_counter()
    n = 3
    d = Dims(n, n)
    idtol = 1e-12
    boundary_gate = 1e-7
    mismatches = 0
    bridge_failures = 0
    checked = 0
    for trial in range(200):
        g = substream(SEED, 0xA2, trial)
        if trial % 2 == 0:
            c = random_psd(g, n * n)
        else:
            raw = g.normal(size=(n * n, n * n)) + 1j * g.normal(size=(n * n, n * n))
            c = hermitian_part(raw)
            c -= np.trace(c).real / (n * n) * np.eye(n * n)
        phi = map_from_choi(n, n, c)
        lo = float(np.linalg.eigvalsh(hermitian_part(c))[0])
        if abs(lo) <= boundary_gate:
            continue
        checked += 1
        adj = adjoint(phi)
        best = np.inf
        for _ in range(200):
            v = g.normal(size=n * n) + 1j * g.normal(size=n * n)
            v /= np.linalg.norm(v)
            x = np.outer(v, v.conj())
            y = hermitian_part(apply_second(adj, x, d))
            val = n * omega_eval(y, n)
            best = min(best, val)
            lhs = float(np.trace(c @ x).real)
            if abs(lhs - val) > idtol * (1.0 + frob(c) * frob(x)):
                bridge_failures += 1
        cp_in = is_cp(phi).status is Status.IN
        probes_in = best >= -boundary_gate
        if cp_in != probes_in:
            mismatches += 1
    ok = mismatches == 0 and bridge_failures == 0 and checked >= 190
    _report(
        2,
        "cp criterion via the maximally entangled state",
        ok,
        time.perf_counter() - t0,
        30.0,
        f"{checked} non-boundary maps",
    )


def test_criterion_3_theorem1_four_way_agreement():
    t0 = time.perf_counter()
    report = verify("T1", Dims(3, 3), trials=200, seed=SEED)
    detail = f"undecided {report.undecided}/{report.checks}"
    # a suite must not pass by excluding its trials as UNDECIDED
    ok = report.passed and report.undecided <= 0.01 * report.checks
    _report(3, "four-way dual-cone condition agreement", ok, time.perf_counter() - t0, 180.0, detail)


def test_criterion_4_duality_pairing():
    t0 = time.perf_counter()
    d = Dims(3, 3)
    p_sampler = ConeSampler(ConeId.MAP_P, d, seed=SEED + 1)
    d_sampler = ConeSampler(ConeId.MAP_D, d, seed=SEED + 2)
    failures = 0
    for trial in range(500):
        phi = p_sampler.draw(trial)
        psi = d_sampler.draw(trial)
        if pairing(phi, psi) < -1e-9 or pairing(psi, phi) < -1e-9:
            failures += 1
    lam = nondecomposable_map()
    w_state, _ = ppt_entangled_state()
    fixture_value = pairing(lam, map_from_choi(3, 3, w_state))
    ok = failures == 0 and fixture_value < 0 and abs(fixture_value) > 1e-6
    _report(
        4,
        "p-cone against decomposable-cone pairing",
        ok,
        time.perf_counter() - t0,
        120.0,
        f"fixture value {fixture_value:.6f}",
    )


def test_criterion_5_decomposability_certificates():
    t0 = time.perf_counter()
    d = Dims(3, 3)
    failures = 0
    for trial in range(100):
        g = substream(SEED, 0xA5, trial)
        x = random_psd(g, 9) + partial_transpose(random_psd(g, 9), d)
        v = in_E(x, d)
        if v.status is not Status.IN:
            failures += 1
            continue
        cert = v.certificate
        if cert.residual > 1e-9 * (1.0 + frob(x)):
            failures += 1
    lam = nondecomposable_map()
    v = in_E(lam.choi.copy(), d)
    fixture_ok = v.status is Status.OUT
    if fixture_ok:
        w = v.certificate.w
        fixture_ok = (
            in_F(w, d).status is Status.IN
            and abs(np.trace(w).real - 1.0) <= 1e-9
            and float(np.trace(lam.choi @ w).real) < -1e-6
        )
    _report(
        5,
        "decomposition certificates and fixture witness",
        failures == 0 and fixture_ok,
        time.perf_counter() - t0,
        180.0,
    )


def test_criterion_6_ppt_exact_regime():
    t0 = time.perf_counter()
    mis = 0
    for n, m in ((2, 2), (2, 3)):
        d = Dims(n, m)
        for trial in range(200):
            g = substream(SEED, 0xA6, trial * 4 + n + m)
            rho = random_separable_mixture(g, d)
            if in_F(rho, d).status is not Status.IN:
                mis += 1
                continue
            if is_separable(rho, d).status is not Status.IN:
                mis += 1
        for trial in range(50):
            g = substream(SEED, 0xA7, trial * 4 + n + m)
            rho = random_pure_entangled_state(g, d)
            if is_separable(rho, d).status is not Status.OUT:
                mis += 1
    _report(6, "PPT-exact separability regime", mis == 0, time.perf_counter() - t0, 60.0)


def test_criterion_7_decomposable_in_sharp_dual():
    t0 = time.perf_counter()
    d = Dims(3, 3)
    alphas = cone_generator_pool(ConeId.MAP_P, d, 32, seed=SEED + 3)
    adjoints = [adjoint(a) for a in alphas]
    beta_sampler = ConeSampler(ConeId.MAP_D, d, seed=SEED + 4)
    failures = 0
    for trial in range(100):
        beta = beta_sampler.draw(trial)
        for adj in adjoints:
            comp = compose_left(beta, adj)
            if is_cp(comp, tol=1e-9).status is not Status.IN:
                failures += 1
    _report(7, "decomposable compositions stay cp", failures == 0, time.perf_counter() - t0, 60.0)


def test_criterion_8_deterministic_reports(capsys):
    t0 = time.perf_counter()
    args = ["verify", "L8", "3", "3", "--trials", "25", "--seed", str(SEED), "--format", "json"]
    assert main(list(args)) == 0
    first = capsys.readouterr().out
    assert main(list(args)) == 0
    second = capsys.readouterr().out
    args_md = ["verify", "T13", "3", "3", "--trials", "20", "--seed", str(SEED), "--format", "markdown"]
    assert main(list(args_md)) == 0
    third = capsys.readouterr().out
    assert main(list(args_md)) == 0
    fourth = capsys.readouterr().out
    ok = first == second and first.encode() == second.encode() and third == fourth
    with capsys.disabled():
        _report(8, "byte-identical verification reports", ok, time.perf_counter() - t0, 60.0)
