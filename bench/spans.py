"""Spans around polydep's public layer functions, and per-layer metrics.

`Tracer.install()` replaces each function or method named in LAYERS by a
wrapper that records a span (layer, start, end, parent span, operation).
Module-level functions are replaced in every polydep module that binds
them, so calls through `from .engine import run` are seen too.  Spans stay
in memory; `write()` saves them when the run ends.  A layer's time is its
self time: the span durations minus the time covered by child spans.
"""

import importlib
import sys
from collections import Counter
from time import perf_counter

# metric name -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "scalar.is_prime.calls": "count",
    "scalar.is_prime.s": "s",
    "unipoly.mul.calls": "count",
    "unipoly.mul.products": "count",
    "unipoly.mul.max_bits": "bits",
    "unipoly.mul.s": "s",
    "unipoly.divrem.calls": "count",
    "unipoly.divrem.s": "s",
    "unipoly.fimage.calls": "count",
    "unipoly.fimage.s": "s",
    "unipoly.addsub.s": "s",
    "laurent.mul.calls": "count",
    "laurent.mul.terms": "count",
    "laurent.mul.s": "s",
    "laurent.addsub.s": "s",
    "engine.events": "count",
    "engine.chain_len": "count",
    "engine.monomial_image.calls": "count",
    "engine.monomial_image.s": "s",
    "engine.std_monomial.s": "s",
    "engine.reduce_step.s": "s",
    "engine.run.s": "s",
    "oracle.substitute.s": "s",
    "oracle.resultant.s": "s",
    "oracle.resultant_check.s": "s",
    "oracle.minimality.s": "s",
    "oracle.bivar_mul.calls": "count",
    "semigroup.s": "s",
    "cli.parse.s": "s",
    "cli.report.s": "s",
    "cli.emit.s": "s",
    "cli.request.s": "s",
}

# layer -> (module, owner attribute or None, names wrapped)
LAYERS = {
    "scalar.is_prime": ("scalar", None, ["is_prime"]),
    "unipoly.mul": ("unipoly", "UniPoly", ["__mul__"]),
    "unipoly.divrem": ("unipoly", "UniPoly", ["divrem"]),
    "unipoly.addsub": ("unipoly", "UniPoly", ["__add__", "__sub__", "__neg__", "scale"]),
    "unipoly.fimage": ("unipoly", "FImage", ["__init__"]),
    "laurent.mul": ("laurent", "Laurent2", ["__mul__"]),
    "laurent.addsub": (
        "laurent", "Laurent2", ["__add__", "__sub__", "__neg__", "scale", "mul_monomial"]
    ),
    "engine.run": ("engine", None, ["run"]),
    "engine.reduce_step": ("engine", None, ["reduce_step"]),
    "engine.monomial_image": ("engine", "Chain", ["monomial_image"]),
    "engine.std_monomial": ("engine", "Chain", ["std_monomial_of_degree"]),
    "oracle.substitute": ("oracle", None, ["substitute"]),
    "oracle.resultant": ("oracle", None, ["sylvester_resultant"]),
    "oracle.resultant_check": ("oracle", None, ["check_resultant_power", "divides"]),
    "oracle.minimality": ("oracle", None, ["minimality_certificate"]),
    "semigroup": (
        "semigroup",
        None,
        [
            "semigroup_report",
            "contains_degree",
            "ams_verdict",
            "richman_check",
            "is_one_admissible",
            "enumerate_two_admissible",
            "matches_degree_sequence",
        ],
    ),
    "cli.parse": ("cli", None, ["parse_polynomial", "build_parser"]),
    "cli.report": (
        "cli", None, ["build_report", "relation_terms_json", "trace_json", "relation_from_json"]
    ),
    "cli.emit": ("cli", None, ["emit_json", "print_depend_text"]),
    "cli.request": ("cli", None, ["main"]),
}

# counted without a span: the sparse bivariate products of the resultant
# oracle (BivarPoly.__mul__ and the Bareiss kernel behind it)
COUNTED = {"oracle.bivar_mul": ("oracle", [("BivarPoly", "__mul__"), (None, "_dict_mul")])}

HOOK = "bench.hook"  # time spent computing operand statistics; not a layer


def _coeff_bits(coeffs):
    best = 0
    for c in coeffs:
        if isinstance(c, int):
            best = max(best, abs(c).bit_length())
        else:
            best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, operation]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.max_bits = 0
        self._restore = []

    # -- hooks that compute operand statistics ------------------------------

    def _before(self, layer, args):
        if layer == "unipoly.mul":
            a, b = args[0].coeffs, args[1].coeffs
            self.counts["unipoly.mul.products"] += len(a) * len(b)
            self.max_bits = max(self.max_bits, _coeff_bits(a), _coeff_bits(b))
        elif layer == "laurent.mul":
            self.counts["laurent.mul.terms"] += len(args[0].terms) * len(args[1].terms)

    def _after(self, layer, result):
        if layer == "engine.run":
            self.counts["engine.events"] += len(result.trace)
            self.counts["engine.chain_len"] += len(result.chain.steps)

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, start, end, parent):
        self.spans.append([layer, start, end, parent, self.op])

    def wrap(self, layer, fn):
        hooked = layer in ("unipoly.mul", "laurent.mul", "engine.run")

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            if hooked:
                h0 = perf_counter()
                self._before(layer, args)
                self._span(HOOK, h0, perf_counter(), parent)
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = [layer, start, end, parent, self.op]
            if hooked:
                h0 = perf_counter()
                self._after(layer, result)
                self._span(HOOK, h0, perf_counter(), parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_function(self, fn, new):
        """Rebind `fn` to `new` in every loaded polydep module."""
        for name, module in list(sys.modules.items()):
            if name == "polydep" or name.startswith("polydep."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, new)

    def _patch(self, module, owner, attr, make):
        if owner is None:
            fn = getattr(module, attr)
            self._replace_function(fn, make(fn))
        else:
            cls = getattr(module, owner)
            self._replace(cls, attr, make(vars(cls)[attr]))

    def install(self):
        for modname, _, _ in LAYERS.values():
            importlib.import_module(f"polydep.{modname}")
        for layer, (modname, owner, attrs) in LAYERS.items():
            module = sys.modules[f"polydep.{modname}"]
            for attr in attrs:
                self._patch(module, owner, attr, lambda fn, layer=layer: self.wrap(layer, fn))
        for name, (modname, targets) in COUNTED.items():
            module = sys.modules[f"polydep.{modname}"]
            for owner, attr in targets:
                if hasattr(getattr(module, owner) if owner else module, attr):
                    self._patch(module, owner, attr, lambda fn, name=name: self.count(name, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals, calls = Counter(), Counter()
        for (layer, start, end, _, _), covered in zip(self.spans, child):
            totals[layer] += end - start - covered
            calls[layer] += 1
        return totals, calls

    def metrics(self):
        totals, calls = self.self_times()
        values = {}
        for name, unit in PER_LAYER.items():
            layer, _, kind = name.rpartition(".")
            if kind == "s":
                values[name] = float(totals[layer])
            elif kind == "calls":
                values[name] = calls[layer] or self.counts[layer]
            elif kind == "max_bits":
                values[name] = self.max_bits
            else:
                values[name] = self.counts[name]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path):
        """Save every span, one per line: operation, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tlayer\tstart_s\tend_s\tparent\n")
            for layer, start, end, parent, op in self.spans:
                handle.write(f"{op}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")
