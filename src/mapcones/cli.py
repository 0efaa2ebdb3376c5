"""Command-line front end.

Subcommands:

    check    cone membership of a map or operator file, with certificate
    pair     trace pairing of two Choi matrices
    witness  PPT witness extraction against an operator
    random   draw a cone sample to a file
    verify   run a theorem verification suite

Exit codes: 0 IN / witness found / suite passed (and ``--help``), 1 OUT
/ no witness, 2 UNDECIDED, 64 parse or usage error (an unreadable file,
a missing argument, an unknown option or a malformed value), 65
dimension error or invalid value (a ``--tol`` that is not finite and
positive, ``--trials`` or ``--restarts`` below 1), 66 unknown cone or
theorem name, 70 internal error.  The commands raise, and ``main``
alone maps each exception to its exit code.  Every ``--seed`` defaults
to the fixed constant 123456789 rather than wall clock, so unseeded
runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

import numpy as np

from .choi import map_from_choi, pairing
from .cones import (
    ConeId,
    Status,
    Verdict,
    _UnknownName,
    in_E,
    in_F,
    in_P,
    in_S,
    is_block_positive,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
)
from .io import MapFileError, load_matrix, save_matrix
from .linalg import Dims
from .sampling import sample_map, substream
from .theorems import emit_report, verify

DEFAULT_SEED = 123456789

EXIT_IN = 0
EXIT_OUT = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_DIMS = 65
EXIT_NAME = 66
EXIT_INTERNAL = 70

_STATUS_EXIT = {Status.IN: EXIT_IN, Status.OUT: EXIT_OUT, Status.UNDECIDED: EXIT_UNDECIDED}


def _cone(name: str) -> ConeId:
    try:
        return ConeId(name)
    except ValueError:
        raise _UnknownName(f"unknown cone {name!r}") from None


def _describe(v: Verdict) -> str:
    parts = [v.status.value + (" (heuristic)" if v.heuristic else "")]
    if hasattr(v.certificate, "describe"):
        parts.append(v.certificate.describe())
    for key, val in v.info.items():
        if hasattr(val, "describe"):
            parts.append(f"{key}: {val.describe()}")
        elif isinstance(val, float):
            parts.append(f"{key}={val:.6g}")
        elif val is not None and not isinstance(val, (np.ndarray, dict, list)):
            parts.append(f"{key}={val}")
    return "; ".join(parts)


#: The oracle ``check`` runs for each cone, as oracle(x, d, args): x is
#: the file's map for a map cone and its matrix for an operator cone.
#: ``psd`` and ``sep`` hold the operator as the Choi matrix of a map and
#: run the oracle of their map-cone twin, ``cp`` and ``s``.
_CHECKS = {
    ConeId.MAP_CP: lambda x, d, a: is_cp(x, a.tol),
    ConeId.MAP_COP: lambda x, d, a: is_cop(x, a.tol),
    ConeId.MAP_P: lambda x, d, a: in_P(x, a.tol),
    ConeId.MAP_D: lambda x, d, a: is_decomposable(x, a.tol),
    ConeId.MAP_S: lambda x, d, a: in_S(x, a.tol),
    ConeId.MAP_POS: lambda x, d, a: is_positive_map(x, restarts=a.restarts, tol=a.tol, seed=a.seed),
    ConeId.OP_PSD: lambda x, d, a: is_cp(map_from_choi(d.n, d.m, x), a.tol),
    ConeId.OP_F: lambda x, d, a: in_F(x, d, a.tol),
    ConeId.OP_E: lambda x, d, a: in_E(x, d, a.tol),
    ConeId.OP_SEP: lambda x, d, a: in_S(map_from_choi(d.n, d.m, x), a.tol),
    ConeId.OP_BLOCKPOS: lambda x, d, a: is_block_positive(x, d, restarts=a.restarts, tol=a.tol, seed=a.seed),
}


def _cmd_check(args) -> int:
    d, mat = load_matrix(args.file)
    cone = _cone(args.cone)
    x = map_from_choi(d.n, d.m, mat) if cone.is_map_cone else mat
    v = _CHECKS[cone](x, d, args)
    print(f"{args.cone} @ {d.n} x {d.m}: {_describe(v)}")
    return _STATUS_EXIT[v.status]


def _cmd_pair(args) -> int:
    da, a = load_matrix(args.file_a)
    db, b = load_matrix(args.file_b)
    if da != db:
        raise ValueError(f"dimension mismatch {da} vs {db}")
    print(f"{pairing(map_from_choi(da.n, da.m, a), map_from_choi(db.n, db.m, b), tol=args.tol):.12g}")
    return EXIT_IN


def _cmd_witness(args) -> int:
    d, mat = load_matrix(args.file)
    v = in_E(mat, d, args.tol)
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
    cone = _cone(args.cone)
    if not cone.is_map_cone:
        raise _UnknownName(f"{args.cone!r} is not a samplable map cone")
    d = Dims(args.n, args.m).validate()
    phi = sample_map(cone, d, substream(args.seed, 0x0C11))
    save_matrix(args.out, d.n, d.m, phi.choi)
    print(f"{args.cone} sample at {d.n} x {d.m} written to {args.out}")
    return EXIT_IN


def _cmd_verify(args) -> int:
    report = verify(args.theorem, Dims(args.n, args.m), args.trials, args.seed, args.tol)
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_IN if report.passed else EXIT_OUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcones",
        description="cone membership, duality pairings, witnesses, and duality checks for positive maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone_names = ", ".join(c.value for c in ConeId)
    p = sub.add_parser("check", help="cone membership of a map/operator file")
    p.add_argument("file")
    p.add_argument("cone", help=f"one of: {cone_names}")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed (fixed default)")
    p.add_argument("--restarts", type=int, default=10, help="see-saw restarts (pos and blockpos only)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pair", help="trace pairing of two Choi matrices")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("witness", help="search for a PPT witness against an operator")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="output path (default FILE.witness.json)")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
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


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_PARSE if exc.code else EXIT_IN
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"--tol must be a finite positive number, got {tol!r}")
        return args.func(args)
    except MapFileError as exc:
        return _error(exc, EXIT_PARSE)
    except _UnknownName as exc:
        return _error(exc, EXIT_NAME)
    except ValueError as exc:
        return _error(exc, EXIT_DIMS)
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
