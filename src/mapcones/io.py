"""JSON serialization for maps and composite operators.

The file format is a single JSON object

    {"n": 3, "m": 3, "choi": [[re, im], [re, im], ...]}

with the (n*m)^2 entries of the matrix in row-major order under the
composite index convention (i, r) -> i*m + r.  The same container holds
the Choi matrix of a map or a plain operator on the composite space.
Numbers are written with 17 significant digits, so write-then-read
round-trips every matrix of finite doubles bit-exactly while keeping
files diffable; writing raises the ``MapFileError`` reading would.
Reading names the first bad entry: one that is not a [re, im] pair of
JSON numbers, or one whose numbers are not finite doubles (NaN, an
infinity, or an integer too large for a double).
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from typing import Union

import numpy as np

from .linalg import Dims

__all__ = ["MapFileError", "dumps_matrix", "loads_matrix", "save_matrix", "load_matrix"]


class MapFileError(ValueError):
    """Raised when a matrix file fails to parse or validate."""


def _check_dims(n, m) -> None:
    """Raise unless n and m are positive integers (a bool is not one)."""
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1 for k in (n, m)):
        raise MapFileError(f"dimensions must be positive integers, got n={n!r} m={m!r}")


def dumps_matrix(n: int, m: int, matrix: np.ndarray) -> str:
    _check_dims(n, m)
    matrix = np.asarray(matrix, dtype=np.complex128)
    nm = n * m
    if matrix.shape != (nm, nm):
        raise MapFileError(f"matrix shape {matrix.shape} does not match dims ({n}, {m})")
    bad = np.flatnonzero(~np.isfinite(matrix))
    if bad.size:
        raise MapFileError(f"entry {bad[0]} is not finite")
    body = ",\n    ".join(f"[{v.real:.17g}, {v.imag:.17g}]" for v in matrix.ravel())
    # .17g writes a negative zero as -0, which JSON reads as the integer 0
    body = body.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")
    return f'{{\n  "n": {int(n)},\n  "m": {int(m)},\n  "choi": [\n    {body}\n  ]\n}}\n'


def loads_matrix(text: Union[str, bytes]) -> tuple[Dims, np.ndarray]:
    """The dims and matrix of a file's text; raises ``MapFileError`` naming what is wrong."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer with more digits than int() takes
        raise MapFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MapFileError("top-level value must be an object")
    for key in ("n", "m", "choi"):
        if key not in obj:
            raise MapFileError(f"missing field {key!r}")
    n, m = obj["n"], obj["m"]
    _check_dims(n, m)
    entries = obj["choi"]
    nm = n * m
    if not isinstance(entries, list) or len(entries) != nm * nm:
        raise MapFileError(
            f"expected {nm * nm} entries for dims ({n}, {m}), got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    # the pairs before the first bad entry, as doubles: a number there that is not finite is reported first
    bad = _first_bad_pair(entries)
    head = entries[:bad]
    try:
        x = np.fromiter(chain.from_iterable(head), dtype=np.float64, count=2 * bad)
    except OverflowError:
        x = np.fromiter(map(_double, chain.from_iterable(head)), dtype=np.float64, count=2 * bad)
    finite = np.isfinite(x.reshape(-1, 2)).all(axis=1)
    if not finite.all():
        raise MapFileError(f"entry {np.flatnonzero(~finite)[0]} is not finite")
    if bad < len(entries):
        raise MapFileError(f"entry {bad} must be a [re, im] pair of numbers")
    return Dims(n, m), x.view(np.complex128).reshape(nm, nm)


_NUMBERS = frozenset({int, float})


def _first_bad_pair(entries: list) -> int:
    """Index of the first entry that is not a [re, im] pair of numbers (a bool is not one); len(entries) if none is.

    JSON gives exactly these types, so a type scan over all entries at
    once decides a well-formed file; only a bad one is walked entry by entry.
    """
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        if set(map(type, chain.from_iterable(entries))) <= _NUMBERS:
            return len(entries)
    return next(
        idx for idx, pair in enumerate(entries)
        if type(pair) is not list or len(pair) != 2 or not {type(v) for v in pair} <= _NUMBERS
    )


def _double(v) -> float:
    """float(v), or inf for an integer too large for a double."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def save_matrix(path: Union[str, os.PathLike], n: int, m: int, matrix: np.ndarray) -> None:
    text = dumps_matrix(n, m, matrix)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path: Union[str, os.PathLike]) -> tuple[Dims, np.ndarray]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MapFileError(f"cannot read {path}: {exc}") from exc
    return loads_matrix(text)
