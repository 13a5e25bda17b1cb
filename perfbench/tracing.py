"""Spans and counters around the calls into each torsionres layer.

The tracer wraps public functions and methods of the installed package
from outside: it rebinds every module attribute that refers to a wrapped
function, so calls between modules pass through the wrapper, and restores
them on exit.  Nothing inside the package changes.

* A span wrapper records (name, start, end, parent, case) per call.
* Scalar operations run about a million times per exact m=3 report, so
  ``GaussianRational`` arithmetic and ``CliffordElement`` construction are
  counted instead of given a span each.
* ``summarize`` derives each span's self time (its duration minus the
  time its child spans cover) and turns the spans and counters into
  per-case layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

CASE_SPAN = "case"

# (module, attribute, span name).  An attribute "Class.method" patches the
# class; a plain name is rebound wherever the package imported it.
SPANNED = (
    ("torsionres.torsion", "term_densities", "torsion.term_route"),
    ("torsionres.torsion", "pipeline_symbols", "torsion.term_route"),
    ("torsionres.torsion", "composition_oracle_density", "torsion.oracle"),
    ("torsionres.torsion", "trace_integrate", "torsion.trace_integrate"),
    ("torsionres.torsion", "lemma33_trace_identity", "torsion.identities"),
    ("torsionres.torsion", "lemma34_contraction", "torsion.identities"),
    ("torsionres.geometry", "rescaled_dirac_symbols", "geometry.operator_symbols"),
    ("torsionres.geometry", "rescaled_dirac_square_sigma1_pieces", "geometry.operator_symbols"),
    ("torsionres.geometry", "rescaled_dirac_square_symbols", "geometry.operator_symbols"),
    ("torsionres.geometry", "rescaled_dirac_inverse_symbols", "geometry.inverse_check"),
    ("torsionres.geometry", "laplacian_inverse_check", "geometry.laplacian_check"),
    ("torsionres.symbols", "symbol_compose", "symbols.compose"),
    ("torsionres.symbols", "symbol_product", "symbols.product"),
    ("torsionres.symbols", "symbol_invert_order2", "symbols.invert"),
    ("torsionres.symbols", "symbols_equal", "symbols.equal"),
    ("torsionres.symbols", "Symbol.__init__", "symbols.construct"),
    ("torsionres.jets", "Jet.__mul__", "jets.mul"),
    ("torsionres.clifford", "clifford_product", "clifford.product"),
    ("torsionres.spheres", "monomial_integral", "spheres.moment"),
    ("torsionres.spheres", "monomial_integral_closed_form", "spheres.moment"),
    ("torsionres.reference", "scenario_invariants", "reference.closed_forms"),
    ("torsionres.reference", "reference_term_densities", "reference.closed_forms"),
    ("torsionres.reference", "paper_term_densities", "reference.closed_forms"),
    ("torsionres.reference", "paper_group_densities", "reference.closed_forms"),
    ("torsionres.reference", "theorem_density", "reference.closed_forms"),
    ("torsionres.report", "build_report", "report.build"),
    ("torsionres.report", "report_to_text", "report.serialize"),
    ("torsionres.scenario_io", "load_scenario", "scenario_io.load"),
    ("torsionres.checks", "scenario_invariant_suite", "checks.invariant_suite"),
    ("torsionres.checks", "check_laplacian_inverse", "checks.lemma"),
    ("torsionres.checks", "check_square_symbols", "checks.lemma"),
    ("torsionres.checks", "check_inverse_square_symbols", "checks.lemma"),
    ("torsionres.checks", "check_trace_identities", "checks.lemma"),
    ("torsionres.checks", "check_contraction_identities", "checks.lemma"),
    ("torsionres.checks", "check_sphere_integrals", "checks.lemma"),
    ("torsionres.checks", "check_gamma_oracle", "checks.lemma"),
    ("torsionres.gamma", "represent_element", "gamma.represent"),
    ("torsionres.gamma", "build_gamma_matrices", "gamma.oracle"),
    ("torsionres.gamma", "anticommutation_residual", "gamma.oracle"),
    ("torsionres.gamma", "verify_representation", "gamma.oracle"),
)

COUNTED = (
    ("torsionres.scalars", "GaussianRational.__mul__", "scalars.mul"),
    ("torsionres.scalars", "GaussianRational.__rmul__", "scalars.mul"),
    ("torsionres.scalars", "GaussianRational.__add__", "scalars.add"),
    ("torsionres.scalars", "GaussianRational.__radd__", "scalars.add"),
    ("torsionres.scalars", "GaussianRational.__sub__", "scalars.add"),
    ("torsionres.scalars", "GaussianRational.__rsub__", "scalars.add"),
    ("torsionres.scalars", "GaussianRational.__neg__", "scalars.neg"),
    ("torsionres.clifford", "CliffordElement.__init__", "clifford.construct"),
)

# Per-layer metric -> (kind, source).  "self": self time of the named
# spans per case; "calls": their number per case; "count": a counter per
# case; "max": the largest value seen in any case.
LAYER_METRICS = {
    "torsion.term_route_s": ("self", "torsion.term_route"),
    "torsion.oracle_s": ("self", "torsion.oracle"),
    "torsion.trace_integrate_s": ("self", "torsion.trace_integrate"),
    "torsion.trace_integrate_calls": ("calls", "torsion.trace_integrate"),
    "torsion.identities_s": ("self", "torsion.identities"),
    "geometry.operator_symbols_s": ("self", "geometry.operator_symbols"),
    "geometry.inverse_check_s": ("self", "geometry.inverse_check"),
    "geometry.laplacian_check_s": ("self", "geometry.laplacian_check"),
    "symbols.compose_calls": ("calls", "symbols.compose"),
    "symbols.compose_s": ("self", "symbols.compose"),
    "symbols.product_calls": ("calls", "symbols.product"),
    "symbols.product_s": ("self", "symbols.product"),
    "symbols.invert_s": ("self", "symbols.invert"),
    "symbols.equal_s": ("self", "symbols.equal"),
    "symbols.construct_calls": ("calls", "symbols.construct"),
    "symbols.construct_s": ("self", "symbols.construct"),
    "symbols.max_terms": ("max", "symbols.max_terms"),
    "jets.mul_calls": ("calls", "jets.mul"),
    "jets.mul_s": ("self", "jets.mul"),
    "clifford.product_calls": ("calls", "clifford.product"),
    "clifford.product_s": ("self", "clifford.product"),
    "clifford.coeff_pairs": ("count", "clifford.coeff_pairs"),
    "clifford.construct_calls": ("count", "clifford.construct"),
    "scalars.mul_calls": ("count", "scalars.mul"),
    "scalars.add_calls": ("count", "scalars.add"),
    "scalars.neg_calls": ("count", "scalars.neg"),
    "scalars.max_bits": ("max", "scalars.max_bits"),
    "spheres.moment_calls": ("calls", "spheres.moment"),
    "spheres.moment_s": ("self", "spheres.moment"),
    "reference.closed_forms_s": ("self", "reference.closed_forms"),
    "report.build_s": ("self", "report.build"),
    "report.serialize_s": ("self", "report.serialize"),
    "report.bytes": ("count", "report.bytes"),
    "scenario_io.load_s": ("self", "scenario_io.load"),
    "checks.invariant_suite_s": ("self", "checks.invariant_suite"),
    "checks.lemma_s": ("self", "checks.lemma"),
    "gamma.represent_calls": ("calls", "gamma.represent"),
    "gamma.represent_s": ("self", "gamma.represent"),
    "gamma.oracle_s": ("self", "gamma.oracle"),
    "trace.unattributed_s": ("self", CASE_SPAN),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _density_bits(density) -> int:
    value = density.value
    if isinstance(value, complex):
        return 0
    parts = (value.re, value.im)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


class Tracer:
    """Spans and counters of the cases run while ``active()`` is entered.

    Scalar counters cost about as much as the operations they count, so
    they run in a pass of their own, and the span times of the other passes
    do not carry their cost.
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.case_counts: Dict[int, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._case: Optional[int] = None
        self._counts: Dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hooks = self._hooks(name)
        before, after = hooks.get("before"), hooks.get("after")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._case)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _raise_to(self, name: str, value: int):
        if value > self._counts[name]:
            self._counts[name] = value

    def _hooks(self, name: str):
        counts = self._counts
        if name in ("symbols.compose", "symbols.product"):
            return {"after": lambda sym: self._raise_to("symbols.max_terms", len(sym.terms))}
        if name == "clifford.product":
            def before(args):
                counts["clifford.coeff_pairs"] += len(args[0].terms) * len(args[1].terms)
            return {"before": before}
        if name == "torsion.trace_integrate":
            return {"after": lambda d: self._raise_to("scalars.max_bits", _density_bits(d))}
        if name == "report.serialize":
            def after(text):
                counts["report.bytes"] += len(text.encode("utf-8"))
            return {"after": after}
        return {}

    @contextlib.contextmanager
    def active(self, counting: bool = False):
        """Wrap the layer boundaries in spans, or the scalar operations in
        counters when ``counting``; restore everything on exit."""
        table, make = (COUNTED, self._count_wrapper) if counting else (SPANNED, self._span_wrapper)
        wrappers = {}
        patches = []
        for module, attr, name in table:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            wrapper = make(name, orig)
            wrappers[id(orig)] = (orig, wrapper)
            patches.append((owner, key, orig))
            setattr(owner, key, wrapper)
        # rebind the names that other modules imported
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "torsionres":
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((mod, key, value))
                    setattr(mod, key, hit[1])
        try:
            yield self
        finally:
            for owner, key, orig in reversed(patches):
                setattr(owner, key, orig)

    @contextlib.contextmanager
    def case(self, case_id: int):
        """Attribute the spans and counts inside to one case."""
        self._case = case_id
        self._counts.clear()
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (CASE_SPAN, start, end, -1, case_id)
            self.case_counts[case_id] = dict(self._counts)
            self._case = None

    # -- reporting ---------------------------------------------------------

    def summarize(self, span_ids: List[int], count_ids: List[int]) -> Dict[str, float]:
        """Per-case layer metrics of one spanned pass (``span_ids``) and
        one counting pass (``count_ids``) over the same cases."""
        wanted = set(span_ids)
        child = defaultdict(float)
        for name, start, end, parent, case in self.spans:
            if parent >= 0 and case in wanted:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, start, end, parent, case) in enumerate(self.spans):
            if case in wanted:
                self_s[name] += end - start - child[idx]
                calls[name] += 1
        cases = len(span_ids)
        counted = [self.case_counts[c] for c in list(span_ids) + list(count_ids)]
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = self_s[source] / cases
            elif kind == "calls":
                out[metric] = calls[source] / cases
            elif kind == "count":
                out[metric] = sum(c.get(source, 0) for c in counted) / cases
            else:
                out[metric] = max(c.get(source, 0) for c in counted)
        return out

    def counts_of(self, case_ids: List[int]) -> Dict[str, int]:
        """Span calls and counters summed over ``case_ids``, for repeat checks."""
        wanted = set(case_ids)
        out: Dict[str, int] = defaultdict(int)
        for name, _s, _e, _p, case in self.spans:
            if case in wanted:
                out["calls:" + name] += 1
        for c in case_ids:
            for key, value in self.case_counts[c].items():
                out[key] += value
        return dict(out)

    def write_spans(self, path: str):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "case"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
