"""Span tracing from outside the package, and the per-layer metrics
derived from the spans.

``install`` replaces every public function of every module of the
package, and every public method of its layer classes, by a wrapper that
records a span: name, start, end, parent span, op id, and whether it
raised.  A function imported elsewhere with ``from .x import f`` is
replaced in every module that holds it, so ``verma.mat_mul`` and
``dunkl.mat_mul`` record the span ``linalg.mat_mul``.  The arithmetic
layer is not wrapped: neither the ``scalars`` module, whose ``rat`` runs
inside every ``QuadExt`` constructor, nor the ``MPoly`` methods.  Its
share comes from the separate cProfile pass.

Spans stay in memory and are written as JSON lines by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

# Layer classes whose public methods are wrapped.
TRACED_CLASSES = {"verma": ("VermaModule",), "rootsystem": ("RootSystem",),
                  "wrep": ("Irrep",)}
LAYERS = ("rootsystem", "wrep", "dunkl", "verma", "linalg", "rank2", "cli",
          "polynomials")


def _cells(mat):
    return len(mat) * len(mat[0]) if mat and mat[0] else 0


class Tracer:
    """Holds the spans of one process; ``on`` gates recording."""

    def __init__(self):
        self.spans = []   # [name, t0, t1, parent, op, raised, note]
        self.stack = []
        self.op = -1
        self.on = False
        self._seen = set()

    # A note is one integer per span, computed from the call's arguments
    # and result: work counts and cache-key repeats.
    def _note(self, name, args, out, fresh):
        if name == "linalg.mat_mul":
            a, b = args[0], args[1]
            return len(a) * len(b) * (len(b[0]) if b else 0)
        if name in ("linalg.gauss_rank", "linalg.bareiss_rank"):
            return _cells(args[0])
        if name == "dunkl.lowering_matrix":
            return _cells(out)
        if name in ("dunkl.quotient_matrix", "dunkl.deriv_matrix"):
            key = (name, args[0].label, args[1], args[2])
            hit = key in self._seen
            self._seen.add(key)
            return int(hit)
        if name == "verma.VermaModule.gram":
            return int(fresh)
        return 0

    def wrap(self, name, fn):
        tracer = self
        gram = name == "verma.VermaModule.gram"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            fresh = gram and args[1] not in args[0]._gram
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, True, 0]
            sid = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            span[5] = False
            span[6] = tracer._note(name, args, out, fresh)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer, package):
    """Wrap the package's public functions and layer-class methods."""
    mods = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)
                        if not m.name.startswith("_") and m.name != "scalars"]
    wrappers = {}   # id of the original function -> its wrapper
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
        for cname in TRACED_CLASSES.get(short, ()):
            cls = getattr(mod, cname)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, attr, tracer.wrap(f"{short}.{cname}.{attr}", obj))
    # rebind every alias, including `from .verma import classify as _classify`
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])


# -- per-layer metrics -----------------------------------------------------------

def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _self_times(spans):
    """Span duration minus the part of it that child spans cover.
    Children of one span never overlap in single-threaded code, but the
    union is taken anyway so the definition holds as stated."""
    children = {}
    for sid, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for sid, s in enumerate(spans):
        covered, end = 0.0, s[1]
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, s[2])
            if b > a:
                covered += b - a
                end = b
        out.append(s[2] - s[1] - covered)
    return out


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``,
    so nested or recursive calls are counted once."""
    inside = [False] * len(spans)
    picked = []
    for sid, s in enumerate(spans):   # parents precede their children
        p = s[3]
        inside[sid] = p >= 0 and (inside[p] or spans[p][0] in names)
        if s[0] in names and not inside[sid]:
            picked.append(s)
    return picked


def layer_metrics(spans):
    """Per-layer metrics from one traced pass, keyed by metric name."""
    self_t = _self_times(spans)
    by_name = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(sid)

    def incl(*names):
        return sum(s[2] - s[1] for s in _outermost(spans, set(names)))

    def calls(name):
        return len(by_name.get(name, ()))

    def notes(name):
        return sum(spans[i][6] for i in by_name.get(name, ()))

    def self_of(name):
        return sum(self_t[i] for i in by_name.get(name, ()))

    quot = ("dunkl.quotient_matrix", "dunkl.deriv_matrix")
    quot_calls = sum(calls(n) for n in quot)
    out = {
        "rootsystem.build_s": (incl("rootsystem.build_root_system"), "s"),
        "dunkl.sl2_calibration_s": (incl("dunkl.sl2_calibration"), "s"),
        "dunkl.lowering_s": (incl("dunkl.lowering_matrix"), "s"),
        "dunkl.lowering_calls": (calls("dunkl.lowering_matrix"), "count"),
        "dunkl.lowering_cells": (notes("dunkl.lowering_matrix"), "count"),
        "dunkl.quot_cache_hit_ratio": (
            sum(notes(n) for n in quot) / quot_calls if quot_calls else 0.0,
            "ratio"),
        "dunkl.f_matrix_s": (incl("dunkl.f_matrix"), "s"),
        "dunkl.f_matrix_calls": (calls("dunkl.f_matrix"), "count"),
        "dunkl.weyl_poly_s": (incl("dunkl.weyl_poly_matrix"), "s"),
        "verma.epower_s": (incl("verma.VermaModule.epower_criterion"), "s"),
        "verma.epower_self_s": (self_of("verma.VermaModule.epower_criterion"),
                                "s"),
        "verma.epower_calls": (calls("verma.VermaModule.epower_criterion"),
                               "count"),
        "verma.gram_self_s": (self_of("verma.VermaModule.gram"), "s"),
        "verma.gram_layers": (notes("verma.VermaModule.gram"), "count"),
        "linalg.rank_s": (incl("linalg.gauss_rank"), "s"),
        "linalg.rank_cells": (notes("linalg.gauss_rank"), "count"),
        "linalg.bareiss_s": (incl("linalg.bareiss_rank"), "s"),
        "linalg.bareiss_cells": (notes("linalg.bareiss_rank"), "count"),
        "linalg.mat_mul_s": (incl("linalg.mat_mul"), "s"),
        "linalg.mat_mul_madds": (notes("linalg.mat_mul"), "count"),
        "wrep.projector_s": (incl("wrep.isotypic_projector"), "s"),
        "wrep.projector_calls": (calls("wrep.isotypic_projector"), "count"),
        "linalg.independent_columns_s": (incl("linalg.independent_columns"),
                                         "s"),
        "rank2.tables_s": (incl("rank2.f_power_image",
                                "rank2.f_power_image_closed",
                                "rank2.f_power_image_direct"), "s"),
        "rank2.kappa_s": (incl("rank2.check_kappa_factorization",
                               "rank2.kappa_factor",
                               "rank2.kappa_factor_at_critical",
                               "rank2.kappa_factor_conjectured"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[0].split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(self_t[i] for i in mine), "s")
        out[f"{layer}.errors"] = (sum(1 for i in mine if spans[i][5]), "count")
    return out


def profile_shares(stats):
    """Self-time shares of the arithmetic layers from a cProfile pass:
    ``scalars.py`` together with ``fractions``, and ``polynomials.py``."""
    total = scal = poly = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        total += tottime
        base = filename.replace("\\", "/").rsplit("/", 1)[-1]
        if base in ("scalars.py", "fractions.py"):
            scal += tottime
        elif base == "polynomials.py":
            poly += tottime
    if not total:
        return 0.0, 0.0
    return scal / total, poly / total
