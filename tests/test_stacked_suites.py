"""The stacked suites against per-trial references.

L4, L5, L8, L10, L15, L17 and T6 draw every trial's inputs first and
evaluate each check over all trials as one stack.  The references below
are the trial-by-trial loops they replaced, kept as they were apart
from the draws, which come from the single-draw helpers: one call of
the public ``in_F``, ``pm_k_membership``, ``omega_eval``, ``trpi_eval``,
``pairing`` and spectral oracles per trial, and L4's ``map_from_action``
route through ``apply_map``, with ``dual_functional`` and
``transpose_conj``.  Every check a suite
records (trial, label, margin and status) and its UNDECIDED count must
be bit for bit the reference's, also when the stacks are cut into
chunks.
"""

import numpy as np
import pytest

import mapcones.theorems as theorems_mod
from mapcones.choi import (
    adjoint,
    apply_map,
    apply_second,
    compose_left,
    dual_functional,
    identity_map,
    map_from_action,
    map_from_choi,
    omega_eval,
    pairing,
    transpose_conj,
    transpose_map,
    trpi_eval,
)
from mapcones.cli import main
from mapcones.cones import (
    ConeId,
    Status,
    _hermitian_spectra,
    _sampled_least_eigs,
    classify,
    in_F,
    in_P,
    is_cop,
    is_cp,
    pm_k_membership,
)
from mapcones.linalg import (
    Dims,
    both_transpose,
    check_hermitian,
    frob,
    frobs,
    full_transpose,
    hermitian_part,
    partial_transpose,
    trace_pairing,
)
from mapcones.sampling import (
    cone_generator_pool,
    kd_generators,
    random_hermitian,
    random_psd,
    sample_map,
    substream,
)
from mapcones.theorems import TheoremReport, _operator_samples, _random_map

CONCRETE = (ConeId.MAP_CP, ConeId.MAP_COP, ConeId.MAP_P, ConeId.MAP_D)


def _operator_sample(rng, d, family):
    """One operator sample, the stack of one of ``_operator_samples``."""
    return _operator_samples(d, [rng], [family])[0]


def _min_eigs(x):
    return np.linalg.eigvalsh(hermitian_part(x))[..., 0]


def _min_eig(x):
    return float(_min_eigs(x))


def _ppt_gap(x, d):
    return min(abs(_min_eig(x)), abs(_min_eig(partial_transpose(x, d))))


def _ref_L4(report, d, trials, seed, tol):
    n, m = d
    nm = d.total
    for trial in range(trials):
        rng = substream(seed, 0x104, trial)
        if trial % 2:
            phi = map_from_choi(n, m, rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm)))
        else:
            phi = _random_map(rng, d, trial)
        c = phi.choi
        scale = 1.0 + frob(c)
        via_action = map_from_action(n, m, lambda e: full_transpose(apply_map(phi, full_transpose(e))))
        r1 = frob(via_action.choi - both_transpose(c, d)) / scale
        r2 = frob(via_action.choi - full_transpose(c)) / scale
        report.check(trial, "choi-of-transpose-conj vs t(x)t route", r1, r1 > 1e-12)
        report.check(trial, "choi-of-transpose-conj vs full transpose", r2, r2 > 1e-12)
        f = dual_functional(phi)
        ft = dual_functional(transpose_conj(phi))
        g = rng.normal(size=(20, 2, nm, nm))
        x = g[:, 0] + 1j * g[:, 1]
        den = 1.0 + frob(c) * frobs(x)
        v1 = np.abs(ft(x) - f(both_transpose(x, d))) / den
        v2 = np.abs(ft(x) - f(full_transpose(x))) / den
        for k in range(len(x)):
            report.check(trial, f"functional t(x)t identity probe {k}", v1[k], v1[k] > 1e-12)
            report.check(trial, f"functional transpose identity probe {k}", v2[k], v2[k] > 1e-12)


def _ref_L5(report, d, trials, seed, tol):
    sq = Dims(d.m, d.m)
    for trial in range(trials):
        cone = CONCRETE[trial % 4]
        pool = cone_generator_pool(cone, d, 4, seed + trial)
        x = _operator_sample(substream(seed, 0x105, trial), d, trial)
        xt = both_transpose(x, d)
        scale = 1.0 + frob(x)
        chois = np.array([a.choi for a in pool])
        images = apply_second(np.stack([both_transpose(chois, sq), chois]), np.stack([x, xt])[:, None], d)
        h, w = _hermitian_spectra(images)
        for idx, gap in enumerate(np.abs(w[0, :, 0] - w[1, :, 0])):
            report.check(trial, f"{cone.value} sample {idx} spectral transport", gap, gap > 1e-11 * scale)
        va, vb = _sampled_least_eigs(h, w, tol)
        margin = min(abs(v.info.get("worst_min_eig", v.info.get("min_eig", 0.0))) for v in (va, vb))
        failed = None if Status.UNDECIDED in (va.status, vb.status) else va.status != vb.status
        report.check(trial, "membership verdicts disagree", margin, failed)


def _ref_L8(report, d, trials, seed, tol):
    n = d.n
    for trial in range(trials):
        rng = substream(seed, 0x108, trial)
        phi = _random_map(rng, d, trial)
        c = phi.hermitian_choi(tol)
        scale = 1.0 + frob(c)
        x = np.array([random_psd(rng, n * n) for _ in range(8)])
        w_eig, u = np.linalg.eigh(c)
        probes = np.concatenate([x, np.outer(u[:, 0], u[:, 0].conj())[None]])
        rhs = n * omega_eval(hermitian_part(apply_second(adjoint(phi), probes, d)), n)
        err = np.abs(trace_pairing(c, x).real - rhs[:-1]) / (1.0 + frob(c) * frobs(x))
        for k in range(len(x)):
            report.check(trial, f"pairing bridge probe {k}", err[k], err[k] > 1e-12)
        best = rhs[-1]
        cp, probe = classify(w_eig[0], scale, tol), classify(best, scale, tol)
        if Status.UNDECIDED in (cp, probe):
            report.undecided += 1
            continue
        report.check(trial, "cp sign vs entangled-state probe sign", abs(best), cp is not probe)


def _ref_L10(report, d, trials, seed, tol):
    nm = d.total
    for trial in range(trials):
        rng = substream(seed, 0x10A, trial)
        g = rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm))
        val = trpi_eval(g @ g.conj().T, d)
        bound = 1e-12 * (1.0 + frob(g) ** 2)
        violation = abs(min(val.real, 0.0)) + abs(val.imag)
        report.check(trial, "positivity on y y*", violation, val.real < -bound or abs(val.imag) > bound)
        phi = map_from_choi(d.n, d.m, rng.normal(size=(nm, nm)) + 1j * rng.normal(size=(nm, nm)))
        lifted = transpose_conj(adjoint(phi))
        g = rng.normal(size=(6, 2, nm, nm))
        x = g[:, 0] + 1j * g[:, 1]
        rhs = trpi_eval(apply_second(lifted, x, d), d)
        err = np.abs(dual_functional(phi)(x) - rhs) / (1.0 + frob(phi.choi) * frobs(x))
        for k in range(len(x)):
            report.check(trial, f"factorization probe {k}", err[k], err[k] > 1e-12)


def _ref_L15(report, d, trials, seed, tol):
    for trial in range(trials):
        x = _operator_sample(substream(seed, 0x10F, trial), d, trial)
        v = in_F(x, d, tol)
        va = pm_k_membership(x, d, [identity_map(d.m)], tol)
        vb = pm_k_membership(x, d, [transpose_map(d.m)], tol)
        joint_in = va.status is Status.IN and vb.status is Status.IN
        undecided = Status.UNDECIDED in (v.status, va.status, vb.status)
        failed = None if undecided else (v.status is Status.IN) != joint_in
        report.check(trial, "meet-of-cones equivalence", _ppt_gap(x, d) if failed else 0.0, failed)


def _ref_L17(report, d, trials, seed, tol):
    d_pool = np.array([a.choi for a in cone_generator_pool(ConeId.MAP_D, d, 6, seed)])
    detectors = np.array([identity_map(d.m).choi, transpose_map(d.m).choi])
    for trial in range(trials):
        rng = substream(seed, 0x111, trial)
        if trial % 2 == 0:
            phi = sample_map(ConeId.MAP_P, d, rng)
            v = in_F(phi.choi, d, tol)
            report.check(trial, "p-cone sample without PPT Choi", 1.0, v.status is not Status.IN)
            scale = 1.0 + frob(phi.choi)
            for idx, lo in enumerate(_min_eigs(apply_second(d_pool, phi.choi, d))):
                report.check_margin(trial, f"d-cone sample {idx} broke f-membership", lo, scale, tol)
        else:
            x = random_hermitian(rng, d.total)
            x /= frob(x)
            scale = 1.0 + frob(x)
            v = in_F(x, d, tol)
            found = [classify(lo, scale, tol) for lo in _min_eigs(apply_second(detectors, x, d))]
            if Status.UNDECIDED in (v.status, *found):
                report.undecided += 1
                continue
            failed = (v.status is Status.IN) == (Status.OUT in found)
            report.check(trial, "canonical detectors disagree with f", _ppt_gap(x, d) if failed else 0.0, failed)


def _ref_T6(report, d, trials, seed, tol):
    oracle = {ConeId.MAP_CP: is_cp, ConeId.MAP_COP: is_cop, ConeId.MAP_P: in_P}
    partner = {ConeId.MAP_CP: ConeId.MAP_CP, ConeId.MAP_COP: ConeId.MAP_COP, ConeId.MAP_P: ConeId.MAP_D, ConeId.MAP_D: ConeId.MAP_P}
    cp_pool = cone_generator_pool(ConeId.MAP_CP, d, 6, seed + 3)
    kd_pools = {c: kd_generators(cone_generator_pool(c, d, 8, seed + 5)) for c in CONCRETE}
    for trial in range(trials):
        rng = substream(seed, 0x206, trial)
        cone = CONCRETE[trial % 4]
        if trial % 2 == 0:
            a, p = int(rng.integers(len(kd_pools[cone]))), int(rng.integers(len(cp_pool)))
            member = compose_left(kd_pools[cone][a], cp_pool[p])
        else:
            member = map_from_choi(d.n, d.m, d.n * theorems_mod._dual_side_chois([partner[cone]], d, [rng])[0])
        dual = map_from_choi(d.n, d.m, d.n * theorems_mod._dual_side_chois([cone], d, [rng])[0])
        scale = 1.0 + frob(member.choi) * frob(dual.choi)
        report.check_margin(trial, f"{cone.value} forward pairing", pairing(member, dual), scale, tol)
        report.check_margin(trial, f"{cone.value} reverse pairing", pairing(dual, member), scale, tol)
        if trial % 4 == 3:
            escape = CONCRETE[(trial // 4) % 3]
            phi = _random_map(rng, d, trial)
            v = oracle[escape](phi, tol)
            if v.status is Status.UNDECIDED:
                report.undecided += 1
            if v.status is not Status.OUT:
                continue
            u = v.certificate.vector[:, None]
            rank_one = u @ u.conj().T
            duals = [y for y, keep in ((rank_one, escape is not ConeId.MAP_COP),
                                       (partial_transpose(rank_one, d), escape is not ConeId.MAP_CP)) if keep]
            best = min(pairing(phi, map_from_choi(d.n, d.m, y), tol=np.inf) for y in duals)
            caught = classify(best, 1 + frob(phi.choi), tol)
            failed = None if caught is Status.UNDECIDED else caught is Status.IN
            report.check(trial, f"{escape.value} escape not caught", abs(v.certificate.value), failed)


REFERENCES = {"L4": _ref_L4, "L5": _ref_L5, "L8": _ref_L8, "L10": _ref_L10, "L15": _ref_L15, "L17": _ref_L17, "T6": _ref_T6}
ALL_DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3), Dims(2, 4))
CASES = [(tid, d) for tid in REFERENCES for d in ALL_DIMS if d.n == d.m or tid not in theorems_mod._SQUARE_ONLY]


def _recorded(run, d, trials, seed, tol):
    """Every check a suite records, as (trial, label, margin, failed), and its UNDECIDED count."""
    report = TheoremReport("X", d.n, d.m, trials, seed, tol)
    calls = []
    check = TheoremReport.check

    def spy(self, trial, label, violation, failed):
        calls.append((trial, label, float(violation), failed))
        check(self, trial, label, violation, failed)

    TheoremReport.check = spy
    try:
        run(report, d, trials, seed, tol)
    finally:
        TheoremReport.check = check
    return calls, report.undecided


@pytest.mark.parametrize("entries", [None, 1, 1500], ids=["one-run", "runs-of-one", "short-runs"])
@pytest.mark.parametrize("trials", [1, 10])
@pytest.mark.parametrize("tid,d", CASES, ids=lambda v: str(v) if isinstance(v, str) else f"{v.n}x{v.m}")
def test_stacked_suite_is_bit_equal_to_the_per_trial_reference(tid, d, trials, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(theorems_mod, "_STACK_ENTRIES", entries)
    for seed in (1, 2):
        for tol in (1e-9, 0.05):
            got = _recorded(theorems_mod.SUPPORTED_THEOREMS[tid], d, trials, seed, tol)
            ref = _recorded(REFERENCES[tid], d, trials, seed, tol)
            assert got == ref


def test_t6_escape_checks_of_every_cone_are_bit_equal():
    # 12 trials reach the p escape of trial 11, which 10 trials never run
    labels = set()
    for seed in range(1, 6):
        got = _recorded(theorems_mod.SUPPORTED_THEOREMS["T6"], Dims(3, 3), 12, seed, 1e-9)
        assert got == _recorded(_ref_T6, Dims(3, 3), 12, seed, 1e-9)
        labels |= {label for _, label, _, _ in got[0] if "escape" in label}
    assert labels == {"cp escape not caught", "cop escape not caught", "p escape not caught"}


@pytest.mark.parametrize("tid", ["L8", "L10", "L17"])
def test_long_runs_stay_within_the_stack_budget(tid, monkeypatch, capsys):
    sizes = []
    original = theorems_mod.apply_second

    def spy(alpha, x, d):
        out = original(alpha, x, d)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(theorems_mod, "apply_second", spy)
    assert main(["verify", tid, "3", "3", "--trials", "200"]) == 0
    capsys.readouterr()
    assert max(sizes) <= theorems_mod._STACK_ENTRIES
    # more than one trial's stack of 81-entry images went in at once
    assert max(sizes) > 9 * 81


def test_l4_probe_stacks_stay_within_the_stack_budget(monkeypatch, capsys):
    sizes = []
    original = theorems_mod._gaussian_stack

    def spy(rngs, count, k):
        out = original(rngs, count, k)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(theorems_mod, "_gaussian_stack", spy)
    assert main(["verify", "L4", "3", "3", "--trials", "200"]) == 0
    capsys.readouterr()
    assert max(sizes) <= theorems_mod._STACK_ENTRIES
    # more than one trial's 20 probes of 81 entries were drawn at once
    assert max(sizes) > 20 * 81


def _bad_stack(x, tol):
    """x with trial 2 off Hermitian by a little and trial 5 by more, past tol."""
    g = np.random.default_rng(3).normal(size=x.shape[-2:])
    x = x.copy()
    x[2] += 1e3 * tol * (1 + frob(x[2])) * g / frob(g)
    x[5] += 1e5 * tol * (1 + frob(x[5])) * g / frob(g)
    return x


@pytest.mark.parametrize("tid,draw", [("L8", "_random_map_chois"), ("L15", "_operator_samples"),
                                      ("T6", "_random_map_chois")])
def test_non_hermitian_input_in_a_stack_raises_its_own_error(tid, draw, monkeypatch):
    d, tol = Dims(3, 3), 1e-9
    original = getattr(theorems_mod, draw)
    drawn = []

    def bad(*args):
        drawn.append(_bad_stack(original(*args), tol))
        return drawn[-1]

    monkeypatch.setattr(theorems_mod, draw, bad)
    trials = 24 if tid == "T6" else 8
    with pytest.raises(ValueError) as stacked:
        theorems_mod.verify(tid, d, trials, 1, tol)
    with pytest.raises(ValueError) as single:
        check_hermitian(drawn[-1][2], tol)
    assert "matrix is not Hermitian" in str(single.value)
    assert str(stacked.value) == str(single.value)


def test_frobs_of_an_empty_stack():
    assert frobs(np.zeros((0, 4, 4), dtype=np.complex128)).shape == (0,)
