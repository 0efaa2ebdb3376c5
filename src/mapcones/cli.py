"""Command-line front end.

Subcommands:

    check    cone membership of a map or operator file, with certificate
    pair     trace pairing of two Choi matrices
    witness  PPT witness extraction against an operator
    random   draw a cone sample to a file
    verify   run a theorem verification suite

Exit codes: 0 IN / witness found / suite passed, 1 OUT / no witness,
2 UNDECIDED, 64 parse failure, 65 dimension error or invalid value (a
``--tol`` that is not finite and positive, ``--trials`` below 1), 66
unknown cone or theorem name, 70 internal error.  Every command honors
--seed; the default seed is the fixed constant 123456789 rather than
wall clock, so unseeded runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

import numpy as np

from .choi import map_from_choi, pairing
from .cones import (
    ConeId,
    DykstraConfig,
    Status,
    Verdict,
    in_E,
    in_F,
    in_P,
    in_S,
    is_block_positive,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
    is_psd,
    is_separable,
)
from .io import MapFileError, load_matrix, save_matrix
from .linalg import Dims, hermitian_part
from .sampling import sample_map, substream
from .theorems import SUPPORTED_THEOREMS, emit_report, verify

DEFAULT_SEED = 123456789

EXIT_IN = 0
EXIT_OUT = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_DIMS = 65
EXIT_NAME = 66
EXIT_INTERNAL = 70

_STATUS_EXIT = {Status.IN: EXIT_IN, Status.OUT: EXIT_OUT, Status.UNDECIDED: EXIT_UNDECIDED}


def _load(path: str) -> tuple[Dims, np.ndarray]:
    return load_matrix(path)


def _describe(v: Verdict) -> str:
    from .cones import (
        Decomposition,
        FWitness,
        MinEigCert,
        ProductVectorCert,
        PptSpectra,
        SeparableDecomposition,
    )

    parts = [v.status.value + (" (heuristic)" if v.heuristic else "")]
    c = v.certificate
    if isinstance(c, MinEigCert):
        parts.append(f"min eigenvalue {c.value:.12g}")
    elif isinstance(c, PptSpectra):
        parts.append(f"min eig {c.min_eig:.12g}, min eig after PT {c.min_eig_pt:.12g}")
    elif isinstance(c, Decomposition):
        parts.append(f"decomposition residual {c.residual:.12g}")
    elif isinstance(c, FWitness):
        parts.append(f"PPT witness with pairing {c.value:.12g}")
    elif isinstance(c, ProductVectorCert):
        parts.append(f"product-vector value {c.value:.12g}")
    elif isinstance(c, SeparableDecomposition):
        parts.append(f"separable decomposition of {len(c.weights)} terms, residual {c.residual:.12g}")
    for key, val in v.info.items():
        if isinstance(val, float):
            parts.append(f"{key}={val:.6g}")
        elif val is not None and not isinstance(val, (np.ndarray, dict, list)):
            parts.append(f"{key}={val}")
    return "; ".join(parts)


def _cmd_check(args) -> int:
    try:
        d, mat = _load(args.file)
    except MapFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cone = ConeId(args.cone)
    except ValueError:
        print(f"error: unknown cone {args.cone!r}", file=sys.stderr)
        return EXIT_NAME
    tol = args.tol
    cfg = DykstraConfig(tol=tol)
    try:
        if cone.is_map_cone:
            phi = map_from_choi(d.n, d.m, mat)
            if cone is ConeId.MAP_CP:
                v = is_cp(phi, tol)
            elif cone is ConeId.MAP_COP:
                v = is_cop(phi, tol)
            elif cone is ConeId.MAP_P:
                v = in_P(phi, tol)
            elif cone is ConeId.MAP_D:
                v = is_decomposable(phi, cfg)
            elif cone is ConeId.MAP_S:
                v = in_S(phi, tol)
            else:
                v = is_positive_map(phi, restarts=max(args.restarts, 10), tol=tol, seed=args.seed)
        else:
            if cone is ConeId.OP_PSD:
                ok, lo = is_psd(hermitian_part(mat), tol)
                v = Verdict(Status.IN if ok else Status.OUT, info={"min_eig": lo})
            elif cone is ConeId.OP_F:
                v = in_F(mat, d, tol)
            elif cone is ConeId.OP_E:
                v = in_E(mat, d, cfg)
            elif cone is ConeId.OP_SEP:
                rho = hermitian_part(mat)
                tr = float(np.trace(rho).real)
                if tr <= tol:
                    print("error: state trace is not positive", file=sys.stderr)
                    return EXIT_DIMS
                v = is_separable(rho / tr, d, tol)
            else:
                v = is_block_positive(mat, d, restarts=max(args.restarts, 10), tol=tol, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    print(f"{args.cone} @ {d.n} x {d.m}: {_describe(v)}")
    return _STATUS_EXIT[v.status]


def _cmd_pair(args) -> int:
    try:
        da, a = _load(args.file_a)
        db, b = _load(args.file_b)
    except MapFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if da != db:
        print(f"error: dimension mismatch {da} vs {db}", file=sys.stderr)
        return EXIT_DIMS
    try:
        val = pairing(map_from_choi(da.n, da.m, a), map_from_choi(db.n, db.m, b), tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    print(f"{val:.12g}")
    return EXIT_IN


def _cmd_witness(args) -> int:
    try:
        d, mat = _load(args.file)
    except MapFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        v = in_E(mat, d, DykstraConfig(tol=args.tol))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    # the witness is in_E's OUT certificate; IN means none exists
    if v.status is Status.IN:
        print("none")
        return EXIT_OUT
    if v.status is Status.UNDECIDED:
        print("undecided")
        return EXIT_UNDECIDED
    wit = v.certificate
    out = args.out or (args.file + ".witness.json")
    save_matrix(out, d.n, d.m, wit.w)
    print(f"witness written to {out}; violation {wit.value:.12g}")
    return EXIT_IN


def _cmd_random(args) -> int:
    try:
        cone = ConeId(args.cone)
    except ValueError:
        print(f"error: unknown cone {args.cone!r}", file=sys.stderr)
        return EXIT_NAME
    if not cone.is_map_cone:
        print(f"error: {args.cone!r} is not a samplable map cone", file=sys.stderr)
        return EXIT_NAME
    try:
        d = Dims(args.n, args.m).validate()
        phi = sample_map(cone, d, substream(args.seed, 0x0C11))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    save_matrix(args.out, d.n, d.m, phi.choi)
    print(f"{args.cone} sample at {d.n} x {d.m} written to {args.out}")
    return EXIT_IN


def _cmd_verify(args) -> int:
    if args.theorem.upper() not in SUPPORTED_THEOREMS:
        print(
            f"error: unknown theorem {args.theorem!r}; supported: {', '.join(sorted(SUPPORTED_THEOREMS))}",
            file=sys.stderr,
        )
        return EXIT_NAME
    try:
        report = verify(args.theorem, Dims(args.n, args.m), args.trials, args.seed, args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_IN if report.passed else EXIT_OUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcones",
        description="cone membership, duality pairings, witnesses, and duality checks for positive maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, restarts_default=3):
        p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed (fixed default)")
        p.add_argument(
            "--restarts", type=int, default=restarts_default, help="see-saw restarts (pos and blockpos only)"
        )

    cone_names = ", ".join(c.value for c in ConeId)
    p = sub.add_parser("check", help="cone membership of a map/operator file")
    p.add_argument("file")
    p.add_argument("cone", help=f"one of: {cone_names}")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pair", help="trace pairing of two Choi matrices")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("witness", help="search for a PPT witness against an operator")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="output path (default FILE.witness.json)")
    common(p)
    p.set_defaults(func=_cmd_witness)

    map_cone_names = ", ".join(c.value for c in ConeId if c.is_map_cone)
    p = sub.add_parser("random", help="draw a random cone element")
    p.add_argument("cone", help=f"one of: {map_cone_names}")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("theorem")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tol = getattr(args, "tol", None)
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        print(f"error: --tol must be a finite positive number, got {tol!r}", file=sys.stderr)
        return EXIT_DIMS
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
