"""Per-layer timing from outside the library, for the traced run.

Every public function of each layer module (a `qrwe` submodule) is
replaced, in every `qrwe` module and in the package namespace that holds
it, by a wrapper that records a span.  A layer's self time is the time
inside its spans minus the time of the spans they enclose, so nested
calls into other layers are charged to those layers.  Calls within one
layer open no span of their own.

Per-element field arithmetic (`FieldContext.add`, `mul`,
`quadratic_character`) is never wrapped: it is called millions of times.
Of `FieldContext` only construction and the table builds are timed.
Thread pools run inside the single span of the census or walk that
starts them.  Counts of work (`*_covered`, `terms_*`, `table_cells`)
are input sizes read at the layer boundary.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

import qrwe
import qrwe.cli
import qrwe.finite_field
import qrwe.hecke_traces
import qrwe.quadratic_forms

LAYERS = ("finite_field", "quadratic_forms", "hecke_traces", "eta_products",
          "isogeny_counts", "curve_census", "rs_codes", "enumerators",
          "qr_pipeline", "cli")

# The cached functions themselves, kept for cache_info() once wrapped.
CLASS_NUMBER = qrwe.quadratic_forms.class_number
HURWITZ = qrwe.quadratic_forms.hurwitz_class_number

# Layers whose spans also record process CPU time (all threads).  They
# are entered rarely, so the extra clock read per span stays cheap.
CPU_LAYERS = ("finite_field", "curve_census", "rs_codes")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.self_cpu = defaultdict(float)
        self.counts = defaultdict(int)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, cpu=False, count=None):
        """Wrap `fn` so that each call records a span `name`; `count`,
        if given, is called with (args, kwargs, result).  A call made
        from inside a span of the same layer passes straight through:
        its time is that layer's self time either way."""
        tracer = self
        layer = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][2] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [0.0, 0.0, layer]  # child wall, child cpu, layer
                stack.append(frame)
                cpu0 = time.process_time() if cpu else 0.0
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    wall = clock() - start
                    cpu_used = time.process_time() - cpu0 if cpu else 0.0
                    stack.pop()
                    tracer.self_s[name] += wall - frame[0]
                    tracer.self_cpu[name] += cpu_used - frame[1]
                    if stack:
                        stack[-1][0] += wall
                        stack[-1][1] += cpu_used
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def layer_self(self, layer):
        return sum((v for k, v in self.self_s.items() if k.split(".")[0] == layer), 0.0)

    def layer_cpu(self, layer):
        return sum((v for k, v in self.self_cpu.items() if k.split(".")[0] == layer), 0.0)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _counters(tracer):
    def add(key, amount):
        tracer.counts[key] += amount

    def forms(power):
        return lambda a, k, r: add("forms", _arg(a, k, 0, "ctx").q ** power)

    def terms(a, k, result):
        add("terms_in", len(_arg(a, k, 0, "enum").terms))
        add("terms_out", len(result.terms if hasattr(result, "terms") else result))

    return {
        "curve_census.quartic_census": forms(5),
        "curve_census.weierstrass_census": forms(2),
        "rs_codes.brute_force_enumerator":
            lambda a, k, r: add("codewords", _arg(a, k, 0, "code").size),
        "enumerators.qr_macwilliams_dual": terms,
        "enumerators.qr_dual_coefficients": terms,
    }


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _replace_everywhere(original, wrapper):
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qrwe" or mod_name.startswith("qrwe.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _wrap_field_context(tracer):
    """Time FieldContext construction and each table build, and count
    the cells built; cached table reads pass straight through."""
    cls = qrwe.finite_field.FieldContext
    cls.__init__ = tracer.span("finite_field.FieldContext", cls.__init__, cpu=True)

    def cells(size):
        def count(args, kwargs, result):
            tracer.counts["table_cells"] += size(*args)
        return count

    cls._build_mul_table = tracer.span("finite_field.build_mul_table", cls._build_mul_table,
                                       cpu=True, count=cells(lambda ctx: ctx.q ** 2))
    cls._build_char = tracer.span("finite_field.build_char", cls._build_char,
                                  cpu=True, count=cells(lambda ctx: ctx.q))
    table = cls._table
    build = tracer.span("finite_field.table", table, cpu=True,
                        count=cells(lambda ctx, name: ctx.q if name == "char" else ctx.q ** 2))

    def cached_or_build(self, name):
        if name in self._np_tables:
            return table(self, name)
        return build(self, name)

    cls._table = cached_or_build


def install():
    """Wrap every layer's public functions; returns the Tracer."""
    tracer = Tracer()
    counters = _counters(tracer)
    for layer in LAYERS:
        module = sys.modules["qrwe." + layer]
        for name, fn in list(_public_functions(module)):
            span = "%s.%s" % (layer, name)
            wrapper = tracer.span(span, fn, cpu=layer in CPU_LAYERS,
                                  count=counters.get(span))
            _replace_everywhere(fn, wrapper)
    _wrap_field_context(tracer)
    return tracer


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer):
    """Every per-layer metric of one traced repetition (trace overhead
    excepted, which needs an untraced repetition to compare with)."""
    classes = CLASS_NUMBER.cache_info()
    hurwitz = HURWITZ.cache_info()
    s = tracer.self_s
    c = tracer.counts
    census_s = s["curve_census.quartic_census"] + s["curve_census.weierstrass_census"]
    walk_s = s["rs_codes.brute_force_enumerator"]
    return {
        "finite_field.table_build_s": tracer.layer_self("finite_field"),
        "finite_field.table_cells": c["table_cells"],
        "quadratic_forms.self_s": tracer.layer_self("quadratic_forms"),
        "quadratic_forms.class_number_hits": classes.hits,
        "quadratic_forms.class_number_misses": classes.misses,
        "quadratic_forms.hurwitz_hits": hurwitz.hits,
        "quadratic_forms.hurwitz_misses": hurwitz.misses,
        "quadratic_forms.hit_ratio": _ratio(classes.hits + hurwitz.hits,
                                            classes.hits + hurwitz.hits
                                            + classes.misses + hurwitz.misses),
        "hecke_traces.self_s": tracer.layer_self("hecke_traces"),
        "hecke_traces.traces_computed": len(qrwe.hecke_traces.DEFAULT_TABLE.entries),
        "eta_products.self_s": tracer.layer_self("eta_products"),
        "isogeny_counts.self_s": tracer.layer_self("isogeny_counts"),
        "curve_census.quartic_s": s["curve_census.quartic_census"],
        "curve_census.weierstrass_s": s["curve_census.weierstrass_census"],
        "curve_census.scalar_s": s["curve_census.j_special_census"],
        "curve_census.cpu_s": tracer.layer_cpu("curve_census"),
        "curve_census.forms_covered": c["forms"],
        "curve_census.forms_per_s": _ratio(c["forms"], census_s),
        "rs_codes.walk_s": walk_s,
        "rs_codes.cpu_s": tracer.layer_cpu("rs_codes"),
        "rs_codes.codewords_covered": c["codewords"],
        "rs_codes.codewords_per_s": _ratio(c["codewords"], walk_s),
        "enumerators.full_s": s["enumerators.qr_macwilliams_dual"],
        "enumerators.truncated_s": s["enumerators.qr_dual_coefficients"],
        "enumerators.terms_in": c["terms_in"],
        "enumerators.terms_out": c["terms_out"],
        "qr_pipeline.self_s": tracer.layer_self("qr_pipeline"),
        "cli.self_s": tracer.layer_self("cli"),
    }
