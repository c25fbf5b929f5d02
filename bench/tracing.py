"""Per-layer tracing by wrapping the public functions of ``localrep`` from outside.

Nothing in ``src/`` is edited.  :func:`install` replaces each traced
function or method, in every ``localrep`` module that holds it, by a
wrapper that opens a span (name, start, end, parent, job id).  A span's
self time is its duration minus the time covered by its child spans.

Spans of layer functions are kept in memory and written out at the end.
Scalar arithmetic runs hundreds of thousands of times per job, so its spans
(``HOT``) only add to per-name totals, and the polynomial kernels are only
counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

HOT = {"fields.fprat"}
_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.job = None
        self.stack = []             # open spans: [name, start, child time, index]
        self.spans = []             # (name, start, end, parent index, job id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, name):
        index = None
        if name not in HOT:
            parent = self.stack[-1][3] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.job])
        self.stack.append([name, _clock(), 0.0, index])

    def exit(self):
        name, start, child, index = self.stack.pop()
        end = _clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` records counts."""
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        """Each resumption of the generator is one segment of the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.runs"] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    self.counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace_everywhere(original, wrapper):
    """Rebind ``original`` to ``wrapper`` in every loaded localrep module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "localrep" or mod_name.startswith("localrep."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the traced functions; call after ``localrep.cli`` is imported."""
    from localrep import (cli, fields, jsonio, linalg, parabolic, quotient, reptheory,
                          symspace, tree)

    def count(key, value_of):
        def after(args, kwargs, result):
            tracer.counts[key] += value_of(args, result)
        return after

    def intertwiner_after(args, kwargs, result):
        conj, dim_hom = result
        if dim_hom > 0:
            tracer.counts["reptheory.intertwiner.with_hom"] += 1
            tracer.counts["reptheory.intertwiner.found"] += conj is not None

    def fprat_init(fn):
        @functools.wraps(fn)
        def wrapper(self, num, den=None, _trusted=False):
            if _trusted:
                return fn(self, num, den, _trusted)
            tracer.counts["fields.fprat_norm.calls"] += 1
            tracer.enter("fields.fprat")
            try:
                return fn(self, num, den)
            finally:
                tracer.exit()
        return wrapper

    # fields: scalar arithmetic over F_p(T)
    fields.FpRat.__init__ = fprat_init(fields.FpRat.__init__)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
        setattr(fields.FpRat, op, tracer.span("fields.fprat", getattr(fields.FpRat, op)))
    fields.FpPoly.gcd = staticmethod(tracer.counter("fields.fppoly_gcd.calls", fields.FpPoly.gcd))
    fields.FpPoly.__mul__ = tracer.counter("fields.fppoly_mul.calls", fields.FpPoly.__mul__)

    # linalg
    linalg.Matrix.__mul__ = tracer.span("linalg.matmul", linalg.Matrix.__mul__)
    linalg.Matrix.det = tracer.span("linalg.det", linalg.Matrix.det)
    linalg.Matrix.inv = tracer.span("linalg.inv", linalg.Matrix.inv)

    functions = [
        (cli, "run", "cli.run", None),
        (linalg, "rref", "linalg.rref",
         count("linalg.rref.entries", lambda a, r: len(a[1]) * len(a[1][0]) if a[1] else 0)),
        (reptheory, "invariant_subspace_candidates", "reptheory.battery", None),
        (reptheory, "spin", "reptheory.spin", None),
        (reptheory, "word_algebra_basis", "reptheory.word_algebra", None),
        (reptheory, "composition_series", "reptheory.composition_series", None),
        (reptheory, "trace_fingerprint", "reptheory.fingerprint",
         count("reptheory.fingerprint.words", lambda a, r: len(r))),
        (reptheory, "find_invertible_intertwiner", "reptheory.intertwiner", intertwiner_after),
        (quotient, "project", "quotient.project", None),
        (quotient, "separation_experiment", "quotient.separation", None),
        (symspace, "minimize_displacement", "symspace.minimize",
         count("symspace.minimize.iterations", lambda a, r: r.iterations)),
        (tree, "translation_length", "tree.translation_length", None),
        (tree, "vertex_displacement", "tree.vertex_displacement", None),
        (tree, "ball", "tree.ball", count("tree.ball.vertices", lambda a, r: len(r[0]))),
        (tree, "product_counterexample", "tree.product_counterexample", None),
        (parabolic, "build_neighbors", "parabolic.build_neighbors", None),
        (jsonio, "load_json_file", "jsonio.parse", None),
        (jsonio, "representation_from_json", "jsonio.parse", None),
        (jsonio, "family_from_json", "jsonio.parse", None),
        (jsonio, "dumps", "jsonio.dumps", None),
    ]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.span(name, original, after))
    parabolic.FundamentalSequence.conjugate_power = tracer.span(
        "parabolic.conjugate_power", parabolic.FundamentalSequence.conjugate_power)


def layer_metrics(tracer: Tracer, jobs: int, import_ms: float) -> dict:
    """The per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    calls, counts = tracer.calls, tracer.counts
    ms = {name: s * 1000.0 for name, s in tracer.self_s.items()}
    with_hom = counts["reptheory.intertwiner.with_hom"]
    battery_runs = counts["reptheory.battery.runs"]
    values = {
        "fields.fprat_norm.calls": counts["fields.fprat_norm.calls"],
        "fields.fppoly_gcd.calls": counts["fields.fppoly_gcd.calls"],
        "fields.fppoly_mul.calls": counts["fields.fppoly_mul.calls"],
        "fields.fprat.self_ms": ms.get("fields.fprat", 0.0),
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.entries": counts["linalg.rref.entries"],
        "linalg.rref.self_ms": ms.get("linalg.rref", 0.0),
        "linalg.matmul.calls": calls["linalg.matmul"],
        "linalg.matmul.self_ms": ms.get("linalg.matmul", 0.0),
        "linalg.det.calls": calls["linalg.det"],
        "linalg.inv.calls": calls["linalg.inv"],
        "reptheory.battery.runs": battery_runs,
        "reptheory.battery.runs_per_job": battery_runs / jobs,
        "reptheory.battery.yielded": counts["reptheory.battery.yielded"],
        "reptheory.battery.self_ms": ms.get("reptheory.battery", 0.0),
        "reptheory.spin.calls": calls["reptheory.spin"],
        "reptheory.word_algebra.calls": calls["reptheory.word_algebra"],
        "reptheory.word_algebra.self_ms": ms.get("reptheory.word_algebra", 0.0),
        "reptheory.composition_series.calls": calls["reptheory.composition_series"],
        "reptheory.fingerprint.calls": calls["reptheory.fingerprint"],
        "reptheory.fingerprint.words": counts["reptheory.fingerprint.words"],
        "reptheory.fingerprint.self_ms": ms.get("reptheory.fingerprint", 0.0),
        "reptheory.intertwiner.calls": calls["reptheory.intertwiner"],
        "reptheory.intertwiner.found_ratio":
            counts["reptheory.intertwiner.found"] / with_hom if with_hom else 0.0,
        "reptheory.intertwiner.self_ms": ms.get("reptheory.intertwiner", 0.0),
        "quotient.project.calls": calls["quotient.project"],
        "quotient.project.self_ms": ms.get("quotient.project", 0.0),
        "quotient.separation.self_ms": ms.get("quotient.separation", 0.0),
        "symspace.minimize.calls": calls["symspace.minimize"],
        "symspace.minimize.iterations": counts["symspace.minimize.iterations"],
        "symspace.minimize.self_ms": ms.get("symspace.minimize", 0.0),
        "tree.translation_length.calls": calls["tree.translation_length"],
        "tree.vertex_displacement.calls": calls["tree.vertex_displacement"],
        "tree.ball.vertices": counts["tree.ball.vertices"],
        "tree.self_ms": sum(v for k, v in ms.items() if k.startswith("tree.")),
        "parabolic.build_neighbors.self_ms": ms.get("parabolic.build_neighbors", 0.0),
        "parabolic.conjugate_power.calls": calls["parabolic.conjugate_power"],
        "jsonio.parse.self_ms": ms.get("jsonio.parse", 0.0),
        "jsonio.dumps.self_ms": ms.get("jsonio.dumps", 0.0),
        "cli.import_ms": import_ms,
    }
    return values
