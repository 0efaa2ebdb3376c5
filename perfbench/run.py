"""Benchmark runner for mapcones: one workload, one seed, one run.

    python3 perfbench/run.py --workload e-in --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it replays a fixed number of rounds twice, untraced and then
under the span tracer, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the set-up probes it starts,
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up probes (fresh interpreters) before and after the timed phase.
SETUP_PROBES = 4
#: Operations a timed phase completes at least, so that the tail percentile
#: (ten operations beyond it) lies above the median: two rounds on e-in.
MIN_OPS = 20
#: Busy seconds between two calibrations of the CPU's speed.
CALIBRATE_EVERY_S = 0.25

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
#: Printed with the end-to-end metrics but left out of BENCHMARK.json:
#: the first three are 0 (or undefined) on some workloads, which a relative
#: bound cannot compare; the raw figures are the unscaled measurements.
REPORTED = [
    ("fail_frac", "ratio", "lower"),
    ("undecided_frac", "ratio", "lower"),
    ("witness_depth_p50", "ratio", "higher"),
    ("raw_setup_s", "s", "lower"),
    ("raw_ops_per_s", "1/s", "higher"),
    ("raw_latency_p50_ms", "ms", "lower"),
    ("raw_latency_tail_ms", "ms", "lower"),
    ("calibration_ms", "ms", "lower"),
]

SUITES = ("T6", "T13", "L4", "L5", "L8", "L10", "L15", "L17", "C2")
LAYER_CALLS = ["linalg.eigh", "linalg.partial_transpose", "cones.dykstra_feasibility", "cones.witness_search",
               "cones.psd_project", "cones.project_F", "choi.adjoint", "choi.map_from_action", "choi.compose_left",
               "choi.apply_second", "sampling.sample_map"]
LAYER_SELF = ["linalg.eigh", "cones.dykstra_feasibility", "cones.witness_search", "cones.project_F",
              "cones.is_decomposable", "cones.in_E", "cones.is_separable", "scipy.optimize.nnls",
              "cones.is_block_positive", "choi.adjoint", "choi.compose_left", "choi.apply_second",
              "sampling.sample_map", "sampling.cone_generator_pool", "theorems.emit_report", "cli.main",
              "io.load_matrix", "io.save_matrix", "bench.op"]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = [(f"{n}.calls", "count") for n in LAYER_CALLS]
    out += [(f"{n}.self_s", "s") for n in LAYER_SELF]
    out += [("linalg.eigh.us_per_call", "us"), ("cones.dykstra_feasibility.iters", "count"),
            ("cones.dykstra_feasibility.iters_p50", "count"), ("cones.dykstra_feasibility.converged_frac", "ratio"),
            ("cones.witness_search.found_frac", "ratio"), ("cones.is_separable.in_frac", "ratio")]
    out += [(f"theorems.verify.{s}.s", "s") for s in SUITES]
    out += [("setup.import_s", "s"), ("setup.inputs_s", "s"), ("trace.ops", "count"), ("trace.wall_s", "s"),
            ("trace.layers_s", "s"), ("trace.unattributed_s", "s"), ("trace.unattributed_frac", "ratio"),
            ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"), ("trace.overhead_frac", "ratio")]
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("e-in", "e-out", "harness", "sep", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library() -> float:
    """Import mapcones from this checkout's src/; exits 2 if it is not there."""
    if not (SRC / "mapcones" / "__init__.py").is_file():
        print(f"error: no mapcones package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import mapcones

    elapsed = time.perf_counter() - start
    if Path(mapcones.__file__).resolve().parent != (SRC / "mapcones").resolve():
        print(f"error: imported mapcones from {mapcones.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "clients": 1,
        "loop": "closed",
    }


class Calibrator:
    """The CPU's current speed, from a fixed kernel: 300 x (eigh + matmul) of one 9x9 matrix.

    On a shared machine the same operation runs up to ~1.5x slower for
    stretches of seconds to minutes.  Every time is therefore also reported
    scaled by ``REF_S / kernel time``, the kernel timed right before and
    after it: a time at the speed where the kernel takes ``REF_S``.
    """

    REPS = 300
    REF_S = 0.008

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0).normal(size=(9, 9, 2))
        h = g[..., 0] + 1j * g[..., 1]
        self.h = h + h.conj().T
        self.eigh = np.linalg.eigh
        self.samples: list[float] = []

    def measure(self) -> float:
        h, eigh = self.h, self.eigh
        start = time.perf_counter()
        for _ in range(self.REPS):
            eigh(h)
            h @ h
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self, before: float, after: float) -> float:
        return self.REF_S / ((before + after) / 2)


def setup_probe(args) -> int:
    """Child mode: a fresh interpreter's set-up, reported against the monotonic clock."""
    import_s = import_library()
    import workloads

    workdir = OUT_DIR / f"probe-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, str(workdir))
    start = time.perf_counter()
    wl.setup()
    inputs_s = time.perf_counter() - start
    ready = time.monotonic()
    wl.cleanup()
    print(json.dumps({"ready": ready, "import_s": import_s, "inputs_s": inputs_s}))
    return 0


def measure_setup(args, cal: Calibrator, count: int) -> list[dict]:
    """Time ``count`` fresh interpreters from spawn to the end of set-up."""
    out = []
    for _ in range(count):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        before = cal.measure()
        spawned = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        after = cal.measure()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe["ready"] - spawned
        probe["scaled_setup_s"] = probe["setup_s"] * cal.factor(before, after)
        out.append(probe)
    return out


@dataclass
class Phase:
    records: list
    rounds: list
    wall: float

    @property
    def busy(self) -> float:
        return sum(r.latency for r in self.records)

    @property
    def scaled_busy(self) -> float:
        return sum(r.scaled for r in self.records)


def run_phase(wl, cal: Calibrator, seconds=None, rounds=None, premade=None, tracer=None) -> Phase:
    """Closed loop, one client: whole rounds until the busy time, at the
    reference speed, reaches ``seconds`` and MIN_OPS operations are done (or
    exactly ``rounds`` rounds).  The CPU's speed is sampled every
    CALIBRATE_EVERY_S of busy time."""
    from workloads import Record

    records, lists, pending = [], [], []
    busy = since = 0.0
    wall0 = time.perf_counter()
    last_cal = cal.measure()

    def settle(now: float) -> None:
        f = cal.factor(last_cal, now)
        for rec in pending:
            rec.scaled = rec.latency * f
        pending.clear()

    r = 0
    while (r < rounds) if rounds is not None else (len(records) < MIN_OPS or busy < seconds):
        ops = premade[r] if premade is not None else wl.round(r)
        lists.append(ops)
        for op in ops:
            if since >= CALIBRATE_EVERY_S:
                now = cal.measure()
                settle(now)
                last_cal, since = now, 0.0
            if tracer is not None:
                tracer.op = len(records)
                tracer.paused = False
            err = None
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.op"):
                        result = op.run()
                else:
                    result = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                err = exc
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            if err is None:
                try:
                    rec = op.judge(result, latency)
                except Exception as exc:  # a certificate that cannot even be read fails
                    rec = Record(op.cls, op.label, "INVALID", latency, reason=f"validator raised {exc!r}")
            else:
                rec = Record(op.cls, op.label, "ERROR", latency, reason=f"raised {type(err).__name__}: {err}")
            records.append(rec)
            pending.append(rec)
            busy += latency * cal.REF_S / last_cal
            since += latency
        r += 1
    settle(cal.measure())
    return Phase(records, lists, time.perf_counter() - wall0)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    With the few, unequal operations of a run, one order statistic jumps
    whenever two neighbours swap places; the weighted mean does not.
    """
    import numpy as np
    from scipy.special import betainc

    s = np.sort(values)
    n = len(s)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), s))


def tail_value(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten of the values beyond it, and its label.

    Below 20 values that percentile would not lie above the median, so the
    maximum is reported instead, labelled ``max``.
    """
    n = len(values)
    if n < 20:
        return max(values), "max"
    p = math.floor(100 * (n - 10) / n)
    return hd_quantile(values, p / 100), f"p{p}"


def end_to_end(phase: Phase, probes: list[dict], cal: Calibrator, peak_rss_mb: float) -> tuple[dict, dict]:
    records = phase.records
    n = len(records)
    raw = [r.latency for r in records]
    scaled = [r.scaled for r in records]
    tail, tail_p = tail_value(scaled)
    if any(r.checks for r in records):
        undecided = sum(r.undecided for r in records) / max(sum(r.checks for r in records), 1)
    else:
        undecided = sum(r.status == "UNDECIDED" for r in records) / n
    depths = [r.depth for r in records if r.depth is not None]
    m = {
        "setup_s": statistics.median(p["scaled_setup_s"] for p in probes),
        "ops_per_s": n / phase.scaled_busy,
        "latency_p50_ms": 1000 * hd_quantile(scaled, 0.5),
        "latency_tail_ms": 1000 * tail,
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": sum(r.failed for r in records) / n,
        "undecided_frac": undecided,
        "witness_depth_p50": statistics.median(depths) if depths else float("nan"),
        "raw_setup_s": statistics.median(p["setup_s"] for p in probes),
        "raw_ops_per_s": n / phase.busy,
        "raw_latency_p50_ms": 1000 * hd_quantile(raw, 0.5),
        "raw_latency_tail_ms": 1000 * tail_value(raw)[0],
        "calibration_ms": 1000 * statistics.median(cal.samples),
    }
    samples = {k: n for k in m}
    samples.update(setup_s=len(probes), raw_setup_s=len(probes), peak_rss_mb=1, witness_depth_p50=len(depths),
                   calibration_ms=len(cal.samples))
    return m, {"samples": samples, "tail_percentile": tail_p}


def per_class(records) -> dict:
    out: dict = {}
    for r in records:
        c = out.setdefault(r.cls, {"label": r.label, "ops": 0, "undecided": 0, "failed": 0, "lat": [], "depth": []})
        c["ops"] += 1
        c["undecided"] += r.status == "UNDECIDED"
        c["failed"] += r.failed
        c["lat"].append(r.scaled)
        if r.depth is not None:
            c["depth"].append(r.depth)
    for c in out.values():
        c["p50_ms"] = round(1000 * statistics.median(c.pop("lat")), 3)
        depth = c.pop("depth")
        if depth:
            c["depth_p50"] = round(statistics.median(depth), 6)
    return dict(sorted(out.items()))


def layer_metrics(tracer, probes, untraced: Phase, traced: Phase, wall: float) -> dict:
    totals = tracer.totals()
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = totals[name][0] if name in totals else 0
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = totals[name][2] if name in totals else 0.0
    eigh_calls = m["linalg.eigh.calls"]
    m["linalg.eigh.us_per_call"] = 1e6 * m["linalg.eigh.self_s"] / eigh_calls if eigh_calls else 0.0
    iters = tracer.iterations
    m["cones.dykstra_feasibility.iters"] = sum(iters)
    m["cones.dykstra_feasibility.iters_p50"] = statistics.median(iters) if iters else 0
    m["cones.dykstra_feasibility.converged_frac"] = sum(tracer.converged) / len(iters) if iters else 0.0
    m["cones.witness_search.found_frac"] = sum(tracer.found) / len(tracer.found) if tracer.found else 0.0
    sep = tracer.separable_in
    m["cones.is_separable.in_frac"] = sum(sep) / len(sep) if sep else 0.0
    suites = tracer.suite_seconds()
    for s in SUITES:
        m[f"theorems.verify.{s}.s"] = suites.get(s, 0.0)
    m["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    m["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
    layers = sum(rec[2] for name, rec in totals.items() if not name.startswith("bench."))
    n_ops = len(traced.records)
    m["trace.ops"] = n_ops
    m["trace.wall_s"] = wall
    m["trace.layers_s"] = layers
    m["trace.unattributed_s"] = wall - layers
    m["trace.unattributed_frac"] = (wall - layers) / wall
    m["trace.ops_per_s"] = n_ops / traced.scaled_busy
    m["trace.untraced_ops_per_s"] = n_ops / untraced.scaled_busy
    m["trace.overhead_frac"] = traced.scaled_busy / untraced.scaled_busy - 1.0
    return m


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':44s} {'value':>16s}  {'unit':6s} {'better':7s} {'n':>6s}")
    for name, value, unit, better, n in rows:
        shown = "-" if isinstance(value, float) and math.isnan(value) else f"{value:.6g}"
        print(f"  {name:44s} {shown:>16s}  {unit:6s} {better:7s} {n!s:>6s}")


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; one combined result line."""
    results = []
    for name in ("e-in", "e-out", "harness", "sep"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=str(ROOT))
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    import_library()
    from spans import Tracer

    import certs
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    cal = Calibrator()
    probes = measure_setup(args, cal, SETUP_PROBES)
    wl = workloads.make(args.workload, args.seed, str(OUT_DIR / f"{args.workload}-{os.getpid()}"))
    tracer = Tracer() if args.trace else None
    try:
        wall0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
            tracer.op = "setup"
            with tracer.span("bench.setup"):
                wl.setup()
            tracer.uninstall()
        else:
            wl.setup()
        setup_wall = time.perf_counter() - wall0
        for op in wl.warmups():
            op.run()
        if tracer is None:
            phase = run_phase(wl, cal, seconds=args.seconds)
            wl.after(phase.records, phase.rounds[0])
            records = phase.records
        else:
            rounds = workloads.TRACE_ROUNDS[args.workload]
            phase = run_phase(wl, cal, rounds=rounds)
            wl.after(phase.records, phase.rounds[0])
            tracer.install()
            try:
                traced = run_phase(wl, cal, rounds=rounds, premade=phase.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            records = phase.records + traced.records
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes += measure_setup(args, cal, SETUP_PROBES)
        if tracer is not None:
            layer = layer_metrics(tracer, probes, phase, traced, setup_wall + traced.wall)
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        wl.cleanup()

    e2e, extra = end_to_end(phase, probes, cal, peak_rss_mb)
    failed = sum(r.failed for r in records)
    reported = [r for r in records if r.report is not None]
    if reported:
        with open(OUT_DIR / f"reports-{args.workload}-seed{args.seed}.json", "w", encoding="ascii") as fh:
            json.dump([{"op": r.cls, "sha256": certs.sha256(r.report)} for r in reported], fh, indent=0)
    print(f"mapcones benchmark: workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    rows = [(name, e2e[name], unit, better, extra["samples"][name]) for name, unit, better in END_TO_END + REPORTED]
    print_table("end-to-end" + (" (untraced phase of the traced run)" if tracer else ""), rows)
    if tracer is not None:
        print_table("per-layer (traced phase)", [(n, layer[n], u, "", "") for n, u in per_layer_names()])
    details = {
        "workload": args.workload, "seed": args.seed, "env": env, "tail_percentile": extra["tail_percentile"],
        "failures": [f"{r.cls}: {r.reason}" for r in records if r.failed][:20],
        "classes": per_class(phase.records), "reports": len(reported),
        "reports_digest": certs.sha256("".join(certs.sha256(r.report) for r in reported)) if reported else None,
    }
    print(json.dumps(details, sort_keys=True))
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_names()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
