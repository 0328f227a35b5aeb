"""Outside-in span tracer for afcheck's layers.

The tracer wraps public functions and methods of the afcheck modules from
outside the package: a method is wrapped on its class, a function under every
name that binds it in any loaded ``afcheck.*`` namespace.  Functions that are
imported at call time (``from .x import f`` inside a body) read the defining
module's attribute, so wrapping that attribute covers them too.

Each call records one span ``(name, start, end, parent, request, error,
key, count)``: ``key`` is the argument key behind ``distinct_ratio`` and
``count`` a size read from the return value.  Spans stay in memory until
``write_spans`` is called at the end of the pass; ``layer_metrics`` folds
them into the per-layer metrics named in BENCHMARK.json.
"""

import importlib
import json
import pkgutil
import sys
from time import perf_counter

# module -> {span function name: attribute path in that module}
WRAPPED = {
    "numberfield": {"mul": "FieldElement.__mul__",
                    "norm": "FieldElement.norm",
                    "inverse": "FieldElement.inverse",
                    "make_field": "make_field"},
    "linalg": {"det": "det", "charpoly": "charpoly"},
    "polynomials": {"zx_factor": "zx_factor",
                    "isolate_real_roots": "isolate_real_roots",
                    "fp_factor": "fp_factor"},
    "integerfactor": {"factorint": "factorint"},
    "prime_ideals": {"factor_rational_prime": "factor_rational_prime",
                     "valuation": "valuation"},
    "units": {"unit_generators": "unit_generators",
              "class_data": "class_data"},
    "sunits": {"solve_sunit": "solve_sunit",
               "build_sunit_basis": "build_sunit_basis",
               "selmer_group": "selmer_group",
               "quadratic_extension": "quadratic_extension",
               "is_square": "is_square"},
    "frey": {"invariants": "invariants",
             "valuation_profile": "valuation_profile",
             "conductor_shape": "conductor_shape"},
    "report": {"emit_json": "emit_json"},
}


def _key_field(args, kwargs):
    return args[0].coeffs


def _key_field_q(args, kwargs):
    return (args[0].coeffs, args[1])


def _key_solve(args, kwargs):
    return (args[0].coeffs, tuple(P.key() for P in args[1]), args[2])


def _key_class_data(args, kwargs):
    return (args[0].coeffs, kwargs.get("user_class_number"))


def _box_size(result):
    return result.torsion_order * (2 * result.exponent_bound + 1) ** len(
        result.free_generators)


def _solution_count(result):
    return len(result.solutions)


# span name -> argument key whose distinct values give distinct_ratio
KEYS = {
    "prime_ideals.factor_rational_prime": _key_field_q,
    "sunits.solve_sunit": _key_solve,
    "units.unit_generators": _key_field,
    "units.class_data": _key_class_data,
}
# span name -> count read from the return value of a successful call
RESULT_COUNT = {
    "sunits.build_sunit_basis": _box_size,
    "sunits.solve_sunit": _solution_count,
}
SOLVE = "sunits.solve_sunit"
BASIS = "sunits.build_sunit_basis"

# Spans behind each per-layer statistic; metric_units() names the metrics.
CALLS = ("numberfield.mul", "numberfield.norm", "numberfield.inverse",
         "numberfield.make_field", "polynomials.fp_factor",
         "integerfactor.factorint", "prime_ideals.factor_rational_prime",
         "prime_ideals.valuation", "units.unit_generators", "units.class_data",
         "sunits.solve_sunit", "sunits.quadratic_extension", "sunits.is_square",
         "frey.invariants", "frey.valuation_profile", "frey.conductor_shape")
SELF_S = ("numberfield.mul", "numberfield.norm", "numberfield.inverse",
          "linalg.det", "linalg.charpoly", "polynomials.zx_factor",
          "polynomials.isolate_real_roots", "polynomials.fp_factor",
          "integerfactor.factorint", "prime_ideals.factor_rational_prime",
          "prime_ideals.valuation", "report.emit_json")
INCL_S = ("numberfield.make_field", "units.unit_generators", "units.class_data",
          "sunits.solve_sunit", "sunits.selmer_group",
          "sunits.quadratic_extension", "frey.invariants",
          "frey.valuation_profile", "frey.conductor_shape")
ERRORS = {"integerfactor.factorint.incomplete": ("integerfactor.factorint",
                                                 "FactorizationIncomplete"),
          "prime_ideals.factor_rational_prime.index_divisor": (
              "prime_ideals.factor_rational_prime", "IndexDivisor")}


def metric_units():
    """Every per-layer metric with its (unit, better), as in BENCHMARK.json."""
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = ("count", "lower")
    for name in SELF_S:
        units[f"{name}.self_s"] = ("s", "lower")
    for name in INCL_S:
        units[f"{name}.incl_s"] = ("s", "lower")
    for name in KEYS:
        units[f"{name}.distinct_ratio"] = ("ratio", "higher")
    for metric in ERRORS:
        units[metric] = ("count", "lower")
    units.update({
        "sunits.box_candidates": ("count", "lower"),
        "sunits.solutions": ("count", "higher"),
        "sunits.solution_yield": ("ratio", "higher"),
        "sunits.s_per_candidate": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return units


class Tracer:
    """Wraps afcheck's layer boundaries and records one span per call."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []

    def install(self):
        import afcheck
        for info in pkgutil.iter_modules(afcheck.__path__):
            importlib.import_module(f"afcheck.{info.name}")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "afcheck" or n.startswith("afcheck.")]
        for module_name, functions in WRAPPED.items():
            module = sys.modules[f"afcheck.{module_name}"]
            for short, path in functions.items():
                span = f"{module_name}.{short}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self._wrap(cls.__dict__[attr], span))
                    continue
                original = getattr(module, path)
                bound = [(ns, name) for ns in namespaces
                         for name, value in vars(ns).items()
                         if value is original]
                for ns, name in bound:
                    setattr(ns, name, self._wrap(original, span))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        keyfn, countfn = KEYS.get(name), RESULT_COUNT.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = count = None
            key = keyfn(args, kwargs) if keyfn is not None else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if countfn is not None:
                    count = countfn(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, error,
                              key, count)

        return traced

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, request, error."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, error, _, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, request,
                                         error]) + "\n")

    def layer_metrics(self):
        """Fold the spans into the per-layer metrics (see ``metric_units``)."""
        calls, incl, self_s, keys, errors = {}, {}, {}, {}, {}
        for name, start, end, parent, _, error, key, _ in self.spans:
            span_s = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + span_s
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - span_s
            if not _nested_in_same(self.spans, parent, name):
                incl[name] = incl.get(name, 0.0) + span_s
            if error is not None:
                errors[(name, error)] = errors.get((name, error), 0) + 1
            if key is not None:
                keys.setdefault(name, set()).add(key)
        box = solutions = 0
        for name, _, _, parent, _, _, _, count in self.spans:
            if count is None:
                continue
            if name == BASIS and parent >= 0 and self.spans[parent][0] == SOLVE:
                box += count
            elif name == SOLVE:
                solutions += count
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_S:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in INCL_S:
            out[f"{name}.incl_s"] = incl.get(name, 0.0)
        for name in KEYS:
            n = calls.get(name, 0)
            out[f"{name}.distinct_ratio"] = len(keys.get(name, ())) / n if n else 0.0
        for metric, key in ERRORS.items():
            out[metric] = errors.get(key, 0)
        out["sunits.box_candidates"] = box
        out["sunits.solutions"] = solutions
        out["sunits.solution_yield"] = solutions / box if box else 0.0
        out["sunits.s_per_candidate"] = (incl.get(SOLVE, 0.0) / box
                                         if box else 0.0)
        return out


def _nested_in_same(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
