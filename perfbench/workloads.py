"""The four benchmark workloads, as rounds of operations on mapcones' public API.

A round holds one operation per instance class (the harness: per suite and
per check cone) in a seeded order; the timed phase runs whole rounds, so
every run sees the same mix.  Each operation is judged by ``certs`` (plain
numpy) and by the label its instance was built with; the library's own
verdict is never taken on trust.
"""

from __future__ import annotations

import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

import numpy as np

import certs
import instances as inst_mod
import mapcones
import mapcones.choi
import mapcones.cli
import mapcones.cones
import mapcones.io
import mapcones.sampling
from mapcones import ConeId, Dims

WORKLOADS = ("e-in", "e-out", "harness", "sep")

#: Rounds replayed by a traced run; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"e-in": 1, "e-out": 2, "harness": 4, "sep": 16}

#: Suites that never call the e-cone engine (T1, T12, T18, C19 and L16 do).
HARNESS_SUITES = ("T6", "T13", "L4", "L5", "L8", "L10", "L15", "L17", "C2")
HARNESS_TRIALS = 10
CHECK_CONES = ("cp", "cop", "p", "f", "psd", "pos")
CHECK_FILES_PER_CONE = 8


@dataclass
class Record:
    cls: str
    label: str
    status: str
    latency: float
    reason: Optional[str] = None
    scaled: float = 0.0  # latency at the calibration kernel's reference speed
    depth: Optional[float] = None
    checks: int = 0
    undecided: int = 0
    report: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.reason is not None


# ---------------------------------------------------------------------------
# oracle operations (e-in, e-out, sep)
# ---------------------------------------------------------------------------


class OracleOp:
    def __init__(self, inst: inst_mod.Instance):
        self.inst = inst
        margin = ",".join(f"{k}={v:g}" for k, v in inst.margin.items() if k in ("s_factor", "mu"))
        self.cls = inst.cls + (f"/{margin}" if margin else "")
        self.label = inst.label

    def run(self):
        i = self.inst
        cones = mapcones.cones
        if i.entry == "is_decomposable":
            return cones.is_decomposable(mapcones.choi.map_from_choi(i.n, i.m, i.x))
        if i.entry == "in_E":
            return cones.in_E(i.x, Dims(i.n, i.m))
        if i.entry == "is_separable":
            return cones.is_separable(i.x, Dims(i.n, i.m))
        return cones.is_block_positive(i.x, Dims(i.n, i.m))

    def judge(self, v, latency: float) -> Record:
        i = self.inst
        status = v.status.value
        rec = Record(self.cls, self.label, status, latency)
        if status == "UNDECIDED":
            return rec
        if status != i.label:
            rec.reason = f"verdict {status} contradicts construction label {i.label}"
            return rec
        x, n, m, cert = i.x, i.n, i.m, v.certificate
        if i.entry in ("is_decomposable", "in_E"):
            if status == "IN":
                rec.reason = certs.decomposition(x, n, m, cert) if hasattr(cert, "b") else "IN without a decomposition"
            elif hasattr(cert, "w"):
                rec.reason = certs.f_witness(x, n, m, cert)
                rec.depth = -float(np.einsum("ij,ji->", cert.w, x).real) / certs.scale(x)
            else:
                rec.reason = "OUT without a PPT witness"
        elif i.entry == "is_separable":
            if status == "IN":
                ok = hasattr(cert, "weights")
                rec.reason = certs.separable_decomposition(x, n, m, cert) if ok else "IN without a separable decomposition"
            elif hasattr(cert, "vector"):
                rec.reason = certs.min_eig_cert([x, certs.ptranspose(x, n, m)], cert)
            elif isinstance(cert, np.ndarray):
                rec.reason = certs.detection_witness(x, n, m, cert)
            else:
                rec.reason = "OUT without a certificate"
        else:
            problem, val = certs.product_vector(x, n, m, cert)
            if problem is None and status == "OUT" and val >= -certs.TOL * certs.scale(x):
                problem = "product vector not negative"
            rec.reason = problem
        return rec


class OracleWorkload:
    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.base = None
        self.first = None
        self._round, self._warmups = {
            "e-in": (inst_mod.e_in_round, inst_mod.e_in_warmups),
            "e-out": (inst_mod.e_out_round, inst_mod.e_out_warmups),
            "sep": (inst_mod.sep_round, inst_mod.sep_warmups),
        }[name]

    def setup(self) -> None:
        self.base = inst_mod.fixture_choi()
        self.first = self.round(0)

    def warmups(self) -> list:
        return [OracleOp(i) for i in self._warmups(self.base)]

    def round(self, r: int) -> list:
        if r == 0 and self.first is not None:
            return self.first
        return [OracleOp(i) for i in self._round(self.seed, r, self.base)]

    def after(self, records: list, first_round: list) -> None:
        pass

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the CLI harness
# ---------------------------------------------------------------------------


class CliOp:
    def __init__(self, argv: list, cls: str, expect: int, label: str):
        self.argv = argv
        self.cls = cls
        self.expect = expect
        self.label = label

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mapcones.cli.main(self.argv)
        return code, out.getvalue()

    def judge(self, result, latency: float) -> Record:
        code, text = result
        rec = Record(self.cls, self.label, f"exit {code}", latency)
        if code != self.expect:
            rec.reason = f"exit code {code}, expected {self.expect}"
        if self.argv[0] == "verify":
            problem, obj = certs.report(text)
            rec.reason = rec.reason or problem
            rec.checks = int(obj.get("checks", 0))
            rec.undecided = int(obj.get("undecided", 0))
            rec.report = text
        return rec


def _expected_exit(cone: str, x: np.ndarray) -> int:
    """Exit code a check must give, from an independent spectral test (pos: by construction)."""
    n = m = 3
    lo = certs.min_eig(x)
    lo_pt = certs.min_eig(certs.ptranspose(x, n, m))
    thr = -certs.TOL * certs.scale(x)
    inside = {
        "cp": lo >= thr, "psd": lo >= thr, "cop": lo_pt >= thr,
        "p": lo >= thr and lo_pt >= thr, "f": lo >= thr and lo_pt >= thr, "pos": True,
    }[cone]
    return 0 if inside else 1


class HarnessWorkload:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.files: dict = {}
        self.first = None

    def setup(self) -> None:
        """Draw the check inputs with the library's samplers and write them through io."""
        os.makedirs(self.workdir, exist_ok=True)
        draw = {"cp": ConeId.MAP_CP, "cop": ConeId.MAP_COP, "p": ConeId.MAP_P, "f": ConeId.MAP_S,
                "psd": ConeId.MAP_CP, "pos": ConeId.MAP_POS}
        for ci, cone in enumerate(CHECK_CONES):
            for k in range(CHECK_FILES_PER_CONE):
                rng = inst_mod.rng_for(self.seed, 0xCF, ci, k)
                x = mapcones.sampling.sample_map(draw[cone], Dims(3, 3), rng).choi
                path = os.path.join(self.workdir, f"{cone}-{k}.json")
                mapcones.io.save_matrix(path, 3, 3, x)
                self.files[(cone, k)] = (path, _expected_exit(cone, x))
        self.first = self.round(0)

    def _verify_ops(self, suite_seed: int) -> list:
        ops = []
        for suite in HARNESS_SUITES:
            for n, m in ((3, 3), (2, 3)) if suite == "C2" else ((3, 3),):
                argv = ["verify", suite, str(n), str(m), "--trials", str(HARNESS_TRIALS), "--seed", str(suite_seed)]
                ops.append(CliOp(argv, f"verify/{suite}/{n}x{m}", 0, "PASS"))
        return ops

    def _check_ops(self, k: int) -> list:
        ops = []
        for cone in CHECK_CONES:
            path, expect = self.files[(cone, k % CHECK_FILES_PER_CONE)]
            ops.append(CliOp(["check", path, cone], f"check/{cone}", expect, "IN" if expect == 0 else "OUT"))
        return ops

    def warmups(self) -> list:
        return self._verify_ops(inst_mod.WARMUP_SEED) + self._check_ops(0)

    def round(self, r: int) -> list:
        if r == 0 and self.first is not None:
            return self.first
        suite_seed = int(inst_mod.rng_for(self.seed, 0xAA, r).integers(1, 2**31))
        ops = self._verify_ops(suite_seed) + self._check_ops(r)
        order = inst_mod.rng_for(self.seed, 0xAB, r).permutation(len(ops))
        return [ops[k] for k in order]

    def after(self, records: list, first_round: list) -> None:
        """Re-run the first round's suites: every report must repeat byte for byte."""
        for op, rec in zip(first_round, records):
            if op.argv[0] != "verify":
                continue
            _, text = op.run()
            if text != rec.report and rec.reason is None:
                rec.reason = "report not byte-identical on repeat"

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: str):
    if name == "harness":
        return HarnessWorkload(seed, workdir)
    return OracleWorkload(name, seed)
