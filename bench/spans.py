"""In-memory span tracer that wraps sjclab's public functions from outside.

Nothing in the program is edited: ``Tracer.install`` replaces every public
module-level function of the traced layers (plus a few named methods) with a
wrapper that records a span ``[name, layer, start, end, parent, request,
error]``, both in the defining module and in every sjclab module that
imported it by name (``suites`` imports ``fierz_check`` and
``make_const_hsc`` that way).  ``GrassmannElement``/``SuperField`` products
and the model chart callables are counted, not spanned: they run millions
of times.  ``uninstall`` restores every attribute it replaced.

Spans stay in a list until the run ends; ``layer_metrics`` turns them into
the per-layer metrics named in ``layers.json``, per pass over the traced
requests: sums are divided by the number of passes, so that they do not grow
with the number of passes that fit in a run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
import types
from collections import Counter

import numpy as np

# Module -> layer name.  grassmann is count-only; fields and spin are
# helpers whose time stays in the caller's self time.
LAYERS = (
    "superfield",
    "fierz",
    "energy",
    "serialize",
    "targets",
    "patch",
    "components",
    "indexlab",
    "classify",
    "suites",
    "cli",
)

# Methods spanned in addition to module-level functions.
METHODS = (
    ("superfield", "SuperField", "from_text"),  # the literal parser
    ("patch", "ReducedPatch", "diff"),
)

# Products counted without a span (both classes' __rmul__ delegate to __mul__).
COUNTED_PRODUCTS = (
    ("grassmann", "GrassmannElement", "grassmann.mul_count"),
    ("superfield", "SuperField", "superfield.mul_count"),
)

CHART_FIELDS = (
    "J_at",
    "metric_at",
    "christoffel_at",
    "nablaJ_at",
    "curvature_at",
    "nabla_curvature_at",
    "dchristoffel_at",
)

NAME, LAYER, START, END, PARENT, REQUEST, ERROR = range(7)

# Per-layer metrics that are not sums over the requests, so not divided by passes.
NOT_SUMS = frozenset({
    "fierz.check_p50_ms", "serialize.read_MBps", "indexlab.max_matrix_dim", "trace.coverage",
})


class _NumpyView(types.ModuleType):
    """``numpy`` as seen from one module, with a replaced ``linalg``."""

    def __init__(self, linalg):
        super().__init__("numpy")
        self.__dict__.update(vars(np))
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_matrix_dim = 0
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            return hook(args, out) if hook else out

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    # -- hooks: counts that need the arguments or the result ----------------------

    def _count_model(self, args, model):
        """Wrap the chart callables of a model returned by a targets factory."""
        if not dataclasses.is_dataclass(model) or not hasattr(model, "J_at"):
            return model
        fields = {}
        for name in CHART_FIELDS:
            fn = getattr(model, name, None)
            if callable(fn) and not hasattr(fn, "__bench_original__"):
                fields[name] = self._counted(fn, "targets.chart_eval_count")
        return dataclasses.replace(model, **fields) if fields else model

    def _count_grid_points(self, args, out):
        cmap = args[1] if len(args) > 1 else None
        grid = getattr(getattr(cmap, "phi_periodic", None), "shape", (0, 0, 0))
        self.counts["components.model_grids.points"] += grid[1] * grid[2]
        return out

    def _count_diff(self, args, out):
        lam = getattr(args[0], "lam", None)
        self.counts["patch.diff_count"] += 1
        if lam is not None and np.ptp(lam) > 0:
            self.counts["patch.diff_fd4_count"] += 1
        return out

    def _count_read(self, args, out):
        self.counts["serialize.read_bytes"] += os.path.getsize(args[0])
        return out

    def _count_build(self, args, op):
        shape = getattr(getattr(op, "matrix", None), "shape", ())
        if len(shape) == 2:
            self.max_matrix_dim = max(self.max_matrix_dim, *shape)
        return op

    def _count_svd(self, args, out):
        shape = np.shape(args[0])
        if len(shape) >= 2:
            m, n = shape[-2:]
            batch = int(np.prod(shape[:-2], dtype=np.int64))
            self.counts["indexlab.svd_flops"] += batch * m * n * min(m, n)
            self.max_matrix_dim = max(self.max_matrix_dim, m, n)
        return out

    def _hook(self, layer: str, name: str):
        if layer == "targets":
            return self._count_model
        if layer == "serialize" and name.startswith("read_"):
            return self._count_read
        if (layer, name) == ("components", "model_grids"):
            return self._count_grid_points
        if (layer, name) == ("patch", "diff"):
            return self._count_diff
        if layer == "indexlab" and name.startswith("build_"):
            return self._count_build
        return None

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sjclab.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._span(obj, f"{layer}.{name}", layer, self._hook(layer, name))
                replaced[id(obj)] = wrapper
                self._set(mod, name, wrapper)
        # the sites that imported those functions by name
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sjclab" or modname.startswith("sjclab.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            hook = self._hook(layer, meth)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(raw.__func__, f"{layer}.{meth}", layer, hook))
            else:
                wrapped = self._span(raw, f"{layer}.{meth}", layer, hook)
            self._set(cls, meth, wrapped)
        for modname, cls_name, key in COUNTED_PRODUCTS:
            cls = getattr(importlib.import_module(f"sjclab.{modname}"), cls_name, None)
            if cls is not None and "__mul__" in cls.__dict__:
                self._set(cls, "__mul__", self._counted(cls.__dict__["__mul__"], key))
        # indexlab's LAPACK calls, seen through its own ``np`` name
        il = modules["indexlab"]
        if getattr(il, "np", None) is np:
            linalg = types.ModuleType("numpy.linalg")
            linalg.__dict__.update(vars(np.linalg))
            linalg.svd = self._span(np.linalg.svd, "indexlab.svd", "indexlab", self._count_svd)
            linalg.eigvalsh = self._span(np.linalg.eigvalsh, "indexlab.gram_eigvalsh", "indexlab")
            self._set(il, "np", _NumpyView(linalg))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "layer": rec[LAYER], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "request": rec[REQUEST],
                    "error": rec[ERROR],
                }) + "\n")

    # -- per-layer metrics -----------------------------------------------------------

    def layer_metrics(self, request_wall_s: float, passes: int) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_by_layer: Counter = Counter()
        self_by_name: Counter = Counter()
        incl_by_name: Counter = Counter()
        calls_by_name: Counter = Counter()
        fierz_ms: list[float] = []
        external_calls: Counter = Counter()
        errors = 0
        below_cli = build_s = 0.0
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            own = dur - child[i]
            name, layer = rec[NAME], rec[LAYER]
            self_by_layer[layer] += own
            self_by_name[name] += own
            incl_by_name[name] += dur
            calls_by_name[name] += 1
            parent_layer = spans[rec[PARENT]][LAYER] if rec[PARENT] >= 0 else None
            if parent_layer != layer:
                external_calls[layer] += 1
                if layer == "indexlab" and rec[ERROR] == "IndexLabError":
                    errors += 1
            if parent_layer == "cli" and layer != "cli":
                below_cli += dur
            if name == "fierz.fierz_check":
                fierz_ms.append(1e3 * dur)
            if name.startswith("indexlab.build_") and not (
                parent_layer == "indexlab" and spans[rec[PARENT]][NAME].startswith("indexlab.build_")
            ):
                build_s += dur
        read_s = sum(self_by_name[n] for n in self_by_name if n.startswith("serialize.read_"))
        read_bytes = self.counts["serialize.read_bytes"]
        c = self.counts
        metrics = {
            "grassmann.mul_count": c["grassmann.mul_count"],
            "superfield.mul_count": c["superfield.mul_count"],
            "superfield.self_s": self_by_layer["superfield"],
            "fierz.self_s": self_by_layer["fierz"],
            "fierz.check_count": calls_by_name["fierz.fierz_check"],
            "fierz.check_p50_ms": statistics.median(fierz_ms) if fierz_ms else 0.0,
            "energy.self_s": self_by_layer["energy"],
            "energy.calls": external_calls["energy"],
            "serialize.read_s": read_s,
            "serialize.read_bytes": read_bytes,
            "serialize.read_MBps": read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
            "targets.chart_eval_count": c["targets.chart_eval_count"],
            "targets.self_s": self_by_layer["targets"],
            "patch.diff_count": c["patch.diff_count"],
            "patch.diff_fd4_count": c["patch.diff_fd4_count"],
            "patch.diff.self_s": self_by_name["patch.diff"],
            "components.model_grids.self_s": self_by_name["components.model_grids"],
            "components.model_grids.points": c["components.model_grids.points"],
            "components.gcontract.count": calls_by_name["components.gcontract"],
            "components.gcontract.self_s": self_by_name["components.gcontract"],
            "components.sr_contraction.self_s": self_by_name["components.sr_contraction"],
            "components.twisted_dirac.self_s": self_by_name["components.twisted_dirac"],
            "components.residual_components.self_s": self_by_name["components.residual_components"],
            "components.operator_components.count": calls_by_name["components.operator_components"],
            "indexlab.build_s": build_s,
            "indexlab.gram_check_s": incl_by_name["indexlab.gram_eigvalsh"],
            "indexlab.svd_s": incl_by_name["indexlab.svd"],
            "indexlab.svd_flops": c["indexlab.svd_flops"],
            "indexlab.max_matrix_dim": self.max_matrix_dim,
            "indexlab.error_count": errors,
            "classify.self_s": self_by_layer["classify"],
            "classify.calls": external_calls["classify"],
            "suites.self_s": self_by_layer["suites"],
            "cli.self_s": self_by_layer["cli"],
            "trace.coverage": below_cli / request_wall_s if request_wall_s > 0 else 0.0,
        }
        return {k: v if k in NOT_SUMS else v / passes for k, v in metrics.items()}
