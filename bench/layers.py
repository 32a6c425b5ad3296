"""Per-module tracing of hmin from outside the package.

``Tracer.install`` wraps public functions of the ``hmin`` modules and
rebinds every alias of each one in every ``hmin.*`` namespace, since the
modules import names with ``from .x import y``.  Each wrapped call adds
to its hook's counters: ``calls``, ``s`` (self time: the call's span
minus the spans of wrapped calls inside it) and hook-specific counts.
Calls of hooks not marked hot are also kept as spans
``(id, name, start, end, parent id, op id)``, where the op id is the id of
the outermost span (the ``cli.main`` call of one op); hot hooks run once
per evaluation point, so they keep counters only.

A hook whose target is gone is reported as missing, never as 0.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# Hook key -> (module, attribute path, hot).  Keys are "<module>.<name>";
# several targets may share one key (the SeedCurve lookups).
HOOKS: list[tuple[str, str, str, bool]] = [
    ("expr.parse", "hmin.expr", "parse", False),
    ("expr.differentiate", "hmin.expr", "differentiate", True),
    ("expr.compile_fn", "hmin.expr", "compile_fn", False),
    ("fields.from_expr", "hmin.fields", "ScalarField2.from_expr", False),
    ("fields.value", "hmin.fields", "ScalarField2.value", True),
    ("fields.gradient", "hmin.fields", "ScalarField2.gradient", True),
    ("fields.hessian", "hmin.fields", "ScalarField2.hessian", True),
    ("fields.rk4_integrate", "hmin.fields", "rk4_integrate", False),
    ("fields.cumulative_integral", "hmin.fields", "cumulative_integral", False),
    ("surface.horizontal_data", "hmin.surface", "horizontal_data", True),
    ("surface.h_mean_curvature", "hmin.surface", "h_mean_curvature", True),
    ("surface.characteristic_scan", "hmin.surface", "characteristic_scan", False),
    ("seed.extract_seed", "hmin.seed", "extract_seed", False),
    ("seed.curvature", "hmin.seed", "curvature", True),
    ("seed.SeedCurve", "hmin.seed", "SeedCurve.point", True),
    ("seed.SeedCurve", "hmin.seed", "SeedCurve.tangent", True),
    ("seed.SeedCurve", "hmin.seed", "SeedCurve.second", True),
    ("ruled.embed", "hmin.ruled", "RuledPatch.embed", True),
    ("ruled.characteristic_locus", "hmin.ruled", "characteristic_locus", False),
    ("ruled.invert_chart", "hmin.ruled", "invert_chart", True),
    ("ruled.classify_entire_graph", "hmin.ruled", "classify_entire_graph", False),
    ("ruled.roundtrip", "hmin.ruled", "roundtrip", False),
    ("ruled.curvature_on_patch", "hmin.ruled", "curvature_on_patch", True),
    ("ruled.w_direct", "hmin.ruled", "w_direct", True),
    ("meshes.mesh_ruled", "hmin.meshes", "mesh_ruled", False),
    ("meshes.mesh_graph", "hmin.meshes", "mesh_graph", False),
    ("meshes.write_obj", "hmin.meshes", "write_obj", False),
    ("meshes.lint_obj", "hmin.meshes", "lint_obj", False),
    ("gallery.gallery_get", "hmin.gallery", "gallery_get", False),
    ("gallery.max_curvature_deviation", "hmin.gallery", "max_curvature_deviation", False),
    ("cli.load_spec", "hmin.cli", "load_spec", False),
    ("cli.main", "hmin.cli", "main", False),
]

# The evaluators compile_fn returns are wrapped as this hot hook.
EVAL_KEY = "expr.eval"

LAYERS = ("expr", "fields", "surface", "seed", "ruled", "meshes", "gallery", "cli")


@dataclass
class _Target:
    owner: object            # module or class holding the attribute
    attr: str
    original: Callable
    is_static: bool


def _resolve(module: str, path: str) -> Optional[_Target]:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if isinstance(raw, staticmethod):
        return _Target(owner, attr, raw.__func__, True)
    if not callable(raw):
        return None
    return _Target(owner, attr, raw, False)


def missing_hooks() -> list[str]:
    """``module:path`` of every hook whose target does not exist."""
    return [f"{module}:{path}" for _, module, path, _ in HOOKS if _resolve(module, path) is None]


def _file_faces(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.startswith(b"f "))


def _max_curvature_nodes(args, kwargs) -> int:
    nx = kwargs.get("nx", args[2] if len(args) > 2 else 101)
    ny = kwargs.get("ny", args[3] if len(args) > 3 else 101)
    return int(nx) * int(ny)


# Extra counter of a hook, computed from a call's arguments once it has returned.
_COUNTS = {
    "meshes.write_obj": ("bytes", lambda a, k: os.path.getsize(a[1])),
    "meshes.lint_obj": ("faces", lambda a, k: _file_faces(a[0])),
    "gallery.max_curvature_deviation": ("nodes", _max_curvature_nodes),
}


class Tracer:
    """Counters and spans of wrapped hmin calls, kept in memory."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        # frames: [time covered by wrapped children, enclosing span id, op id]
        self._stack: list[list] = [[0.0, None, None]]
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target and rebind all of its aliases."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hmin" or name.startswith("hmin."))]
        for key, module, path, hot in HOOKS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}:{path}")
                continue
            self.stats.setdefault(key, {"calls": 0, "s": 0.0})
            wrapped = self._wrap(key, target.original, hot)
            setattr(target.owner, target.attr,
                    staticmethod(wrapped) if target.is_static else wrapped)
            if isinstance(target.owner, type):
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target.original:
                        setattr(mod, name, wrapped)
        if any(m.endswith(":compile_fn") for m in self.missing):
            self.missing.append(f"hmin.expr:{EVAL_KEY} (evaluators of compile_fn)")

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, hot: bool) -> Callable:
        if hot:
            return self._hot(key, fn)
        if key == "fields.rk4_integrate":
            fn = self._counting_field(fn)
        traced = self._span(key, fn, _COUNTS.get(key))
        if key != "expr.compile_fn":
            return traced

        def compile_fn(*args, **kwargs):
            return self._hot(EVAL_KEY, traced(*args, **kwargs), points=True)
        return compile_fn

    def _hot(self, key: str, fn: Callable, points: bool = False) -> Callable:
        stack, clock = self._stack, time.perf_counter
        st = self.stats.setdefault(key, {"calls": 0, "s": 0.0})
        if points:
            st.setdefault("points", 0)

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1], stack[-1][2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                st["calls"] += 1
                st["s"] += d - frame[0]
                if points:
                    st["points"] += getattr(args[0], "size", 1) if args else 1
                stack[-1][0] += d
        return wrapper

    def _span(self, key: str, fn: Callable, counts=None) -> Callable:
        stack, st, spans, clock = self._stack, self.stats[key], self.spans, time.perf_counter
        if counts is not None:
            st[counts[0]] = 0

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            op_id = span_id if parent[2] is None else parent[2]
            frame = [0.0, span_id, op_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st["calls"] += 1
                st["s"] += (t1 - t0) - frame[0]
                spans.append((span_id, key, t0, t1, parent[1], op_id))
                parent[0] += t1 - t0
            if counts is not None:
                st[counts[0]] += counts[1](args, kwargs)
                # counting is charged to no layer
                parent[0] += clock() - t1
            return result
        return wrapper

    def _counting_field(self, fn: Callable) -> Callable:
        st = self.stats.setdefault("fields.rk4_integrate", {"calls": 0, "s": 0.0})
        st["field_evals"] = 0

        def rk4(v, *args, **kwargs):
            def counted(*a):
                st["field_evals"] += 1
                return v(*a)
            return fn(counted, *args, **kwargs)
        return rk4

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {k: dict(v) for k, v in self.stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
