"""Spans around the public functions of oseenspec's seven modules.

A Recorder replaces every public function of cli, analysis, grids,
operators, solver, specfun and verify -- in its own module and wherever
another of those modules imported it by name -- with a wrapper that
records a span: id, parent id, thread, layer, function, start, end, and
for a few functions a size (grid n, matrix n, matrix bytes).  Calls the
program makes from one module into another therefore pass through the
wrappers; calls to private helpers do not.  Spans stay in memory until
the run ends.  Parents are tracked per thread, so spans opened in the
sweep's worker threads are roots of their own thread and the caller's
wait on the pool counts as its own (self) time.
"""

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict, namedtuple

LAYERS = ("cli", "analysis", "grids", "operators", "solver", "specfun", "verify")

Span = namedtuple("Span", "id parent thread layer name t0 t1 size")

_BOUNDS = ("spectral_bound", "pseudospectral_bound")
_APPLY = ("apply_T", "apply_Tstar", "apply_L1")


def _size(layer, name, args, out):
    if layer == "solver":
        return getattr(args[0], "data", args[0]).shape[0]
    if layer == "operators" and name.startswith("assemble"):
        return out.data.nbytes
    if name == "make_grid":
        return out.n
    return None


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                size = None if out is None else _size(layer, name, args, out)
                self.spans.append(Span(sid, parent, threading.get_ident(),
                                       layer, name, t0, t1, size))
        return wrapper

    def install(self, package):
        """Wrap the public functions of the seven layer modules of package."""
        modules = {layer: importlib.import_module(package.__name__ + "." + layer)
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore = []


def self_times(spans):
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(children[s.id]):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric == "operators.matrix_mb":
        return "MB"
    if metric == "solver.dense_n3":
        return "1e9"
    if metric.endswith(("_s", ".s", "_s_max")):
        return "s"
    return "count"


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, keyed by metric name."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def outer(layer):
        # spans of a layer not nested in another span of the same layer
        return [s for s in spans if s.layer == layer
                and (s.parent is None or by_id[s.parent].layer != layer)]

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(ss):
        return [s.t1 - s.t0 for s in ss]

    def bound_of(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.layer == "analysis" and s.name in _BOUNDS:
                return s.id
        return None

    bounds = [s for s in spans if s.layer == "analysis" and s.name in _BOUNDS]
    psi = [s for s in bounds if s.name == "pseudospectral_bound"]
    assembles = [s for s in outer("operators") if s.name.startswith("assemble")]
    applies = [s for s in outer("operators") if s.name in _APPLY]
    levels = sum(1 for s in assembles if bound_of(s) is not None)
    eig = named("eigenvalues")
    svd = named("smallest_singular_value")
    herm = named("hermitian_part_min_eig")
    solver = [s for s in spans if s.layer == "solver"]
    grids = [s.size for s in named("make_grid") if s.size is not None]
    checks = named("run_check")
    return {
        "cli.self_s": sum(own[s.id] for s in spans if s.layer == "cli"),
        "analysis.sweep_point_s": _median(dur(named("sweep_point"))),
        "analysis.spectral_bound_s": _median(dur(named("spectral_bound"))),
        "analysis.pseudospectral_bound_s": _median(dur(psi)),
        "analysis.numerical_range_bound_s": _median(dur(named("numerical_range_bound"))),
        "analysis.quasimode_s": _median(dur(named("quasimode"))),
        "analysis.self_s": sum(own[s.id] for s in spans if s.layer == "analysis"),
        "analysis.smin_per_psi": len(svd) / len(psi) if psi else 0.0,
        "analysis.levels_per_bound": levels / len(bounds) if bounds else 0.0,
        "grids.finest_n": max(grids, default=0),
        "solver.eig_calls": len(eig),
        "solver.eig_s": sum(dur(eig)),
        "solver.eig_n_max": max((s.size for s in eig), default=0),
        "solver.svd_calls": len(svd),
        "solver.svd_s": sum(dur(svd)),
        "solver.svd_call_s": _median(dur(svd)),
        "solver.herm_calls": len(herm),
        "solver.herm_s": sum(dur(herm)),
        "solver.dense_n3": sum(float(s.size) ** 3 for s in solver) / 1e9,
        "operators.assemble_calls": len(assembles),
        "operators.assemble_s": sum(dur(assembles)),
        "operators.matrix_mb": max((s.size for s in assembles), default=0) / 2 ** 20,
        "operators.apply_calls": len(applies),
        "operators.apply_s": sum(dur(applies)),
        "specfun.calls": len(outer("specfun")),
        "specfun.s": sum(dur(outer("specfun"))),
        "verify.checks": len(checks),
        "verify.check_s_max": max(dur(checks), default=0.0),
        "trace.spans": len(spans),
    }
