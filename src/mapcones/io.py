"""JSON serialization for maps and composite operators.

The file format is a single JSON object

    {"n": 3, "m": 3, "choi": [[re, im], [re, im], ...]}

with the (n*m)^2 entries of the matrix in row-major order under the
composite index convention (i, r) -> i*m + r.  The same container holds
the Choi matrix of a map or a plain operator on the composite space.
Numbers are written with 17 significant digits, so write-then-read
round-trips every double bit-exactly while keeping files diffable.
"""

from __future__ import annotations

import json
import math
import os
from typing import Union

import numpy as np

from .linalg import Dims

__all__ = ["MapFileError", "dumps_matrix", "loads_matrix", "save_matrix", "load_matrix"]


class MapFileError(ValueError):
    """Raised when a matrix file fails to parse or validate."""


def dumps_matrix(n: int, m: int, matrix: np.ndarray) -> str:
    matrix = np.asarray(matrix, dtype=np.complex128)
    nm = n * m
    if matrix.shape != (nm, nm):
        raise MapFileError(f"matrix shape {matrix.shape} does not match dims ({n}, {m})")
    entries = [
        [f"{v.real:.17g}", f"{v.imag:.17g}"] for v in matrix.ravel()
    ]
    body = ",\n    ".join("[" + ", ".join(pair) + "]" for pair in entries)
    return (
        "{\n"
        f'  "n": {int(n)},\n'
        f'  "m": {int(m)},\n'
        '  "choi": [\n    '
        + body
        + "\n  ]\n}\n"
    )


def loads_matrix(text: Union[str, bytes]) -> tuple[Dims, np.ndarray]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MapFileError("top-level value must be an object")
    for key in ("n", "m", "choi"):
        if key not in obj:
            raise MapFileError(f"missing field {key!r}")
    n, m = obj["n"], obj["m"]
    if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in (n, m)):
        raise MapFileError(f"dimensions must be positive integers, got n={n!r} m={m!r}")
    entries = obj["choi"]
    nm = n * m
    if not isinstance(entries, list) or len(entries) != nm * nm:
        raise MapFileError(
            f"expected {nm * nm} entries for dims ({n}, {m}), got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(nm * nm, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise MapFileError(f"entry {idx} must be a [re, im] pair of numbers")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MapFileError(f"entry {idx} is not finite")
        flat[idx] = complex(re, im)
    return Dims(n, m), flat.reshape(nm, nm)


def save_matrix(path: Union[str, os.PathLike], n: int, m: int, matrix: np.ndarray) -> None:
    text = dumps_matrix(n, m, matrix)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path: Union[str, os.PathLike]) -> tuple[Dims, np.ndarray]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise MapFileError(f"cannot read {path}: {exc}") from exc
    return loads_matrix(text)
