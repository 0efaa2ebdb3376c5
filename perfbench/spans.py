"""Outside-in span tracer over mapcones' public functions.

``Tracer.install`` replaces each traced function at every module binding
it can be called through (``mapcones.cones.dykstra_feasibility``,
``mapcones.theorems.dykstra_feasibility``, the package re-export, ...),
plus ``numpy.linalg.eigh``/``eigvalsh`` and ``scipy.optimize.nnls``;
``uninstall`` puts the originals back.  Nothing inside the library
changes.

Each call becomes a span with a name, start, end, parent and operation
id.  Coarse layers are kept span by span.  Kernels called inside solver
loops (``eigh``, ``partial_transpose``, ``psd_project``, ...) run tens of
thousands of times per operation, so their spans are folded into one
record per (parent span, name) holding the call count, total and self
time.  Self time is a span's duration minus the time its child spans
cover, so the self times of all spans add up to the time spent inside
traced operations.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, layer name, kept span by span).  numpy and scipy
#: kernels are counted only when a mapcones span encloses them, so the
#: benchmark's own numpy work is never attributed to a layer.
TARGETS = [
    ("numpy.linalg", "eigh", "linalg.eigh", False),
    ("numpy.linalg", "eigvalsh", "linalg.eigh", False),
    ("scipy.optimize", "nnls", "scipy.optimize.nnls", False),
    ("mapcones.linalg", "partial_transpose", "linalg.partial_transpose", False),
    ("mapcones.cones", "psd_project", "cones.psd_project", False),
    ("mapcones.cones", "dykstra_feasibility", "cones.dykstra_feasibility", True),
    ("mapcones.cones", "witness_search", "cones.witness_search", True),
    ("mapcones.cones", "project_F", "cones.project_F", False),
    ("mapcones.cones", "in_E", "cones.in_E", True),
    ("mapcones.cones", "is_decomposable", "cones.is_decomposable", True),
    ("mapcones.cones", "is_separable", "cones.is_separable", True),
    ("mapcones.cones", "is_block_positive", "cones.is_block_positive", True),
    ("mapcones.choi", "adjoint", "choi.adjoint", False),
    ("mapcones.choi", "map_from_action", "choi.map_from_action", False),
    ("mapcones.choi", "compose_left", "choi.compose_left", False),
    ("mapcones.choi", "apply_second", "choi.apply_second", False),
    ("mapcones.sampling", "sample_map", "sampling.sample_map", False),
    ("mapcones.sampling", "cone_generator_pool", "sampling.cone_generator_pool", True),
    ("mapcones.theorems", "verify", "theorems.verify", True),
    ("mapcones.theorems", "emit_report", "theorems.emit_report", True),
    ("mapcones.cli", "main", "cli.main", True),
    ("mapcones.io", "load_matrix", "io.load_matrix", True),
    ("mapcones.io", "save_matrix", "io.save_matrix", True),
]

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s, tag)
        self.folded: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.iterations: list[int] = []
        self.converged: list[bool] = []
        self.found: list[bool] = []
        self.separable_in: list[bool] = []
        self.op = None
        self.paused = False
        self._stack: list[list] = []  # frames, see _enter
        self._next = 1
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return 0

    def _enter(self, full: bool, library: bool) -> list:
        """Push a frame: [child seconds, span id (None when folded), parent id, library span]."""
        frame = [0.0, self._next if full else None, self._parent_id(), library]
        if full:
            self._next += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float, tag) -> None:
        self._stack.pop()
        dur = end - start
        self_s = dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] is not None:
            self.spans.append((frame[1], name, start, end, frame[2], self.op, self_s, tag))
        else:
            rec = self.folded[(frame[2], name)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += self_s

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (not a library span)."""
        frame = self._enter(True, False)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, perf_counter(), None)

    def _inside_library(self) -> bool:
        return bool(self._stack) and self._stack[-1][3]

    def _wrap(self, fn, name: str, full: bool, kernel: bool):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused or (kernel and not tracer._inside_library()):
                return fn(*args, **kwargs)
            frame = tracer._enter(full, True)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tag = str(args[0]).upper() if name == "theorems.verify" and args else None
                tracer._exit(frame, name, start, end, tag)
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "cones.dykstra_feasibility":
            self.iterations.append(int(result.iterations))
            self.converged.append(bool(result.converged))
        elif name == "cones.witness_search":
            self.found.append(result is not None)
        elif name == "cones.is_separable":
            self.separable_in.append(result.status.value == "IN")

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in numpy, scipy and mapcones modules."""
        if self._patched:
            return
        import scipy.optimize  # noqa: F401  (the nnls binding must exist to be wrapped)

        for mod_name, attr, name, full in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, full, not mod_name.startswith("mapcones"))
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == mod_name or mname == "mapcones" or mname.startswith("mapcones.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, total inclusive seconds, self seconds]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, _, _, self_s, _ in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += self_s
        for (_, name), (calls, total, self_s) in self.folded.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def suite_seconds(self) -> dict:
        out: dict = defaultdict(float)
        for _, name, start, end, _, _, _, tag in self.spans:
            if name == "theorems.verify":
                out[tag] += end - start
        return out

    def dump(self, path) -> None:
        """Write every span and folded record as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, start, end, parent, op, self_s, tag in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "self_s": self_s, "tag": tag}) + "\n")
            for (parent, name), (calls, total, self_s) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "parent": parent, "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")
