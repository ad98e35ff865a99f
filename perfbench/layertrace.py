"""Outside-in layer trace for the eqdeg benchmark.

The wrappers live here, in the benchmark, and are installed around the
public functions of each eqdeg layer only in a traced run.  eqdeg modules
bind each other's functions with ``from .o2gamma import ...``, so a
function is replaced in every ``eqdeg`` module namespace that holds it,
not only in the module that defines it.  Calls inside the defining module
look the name up in its globals at call time and are caught the same way.

Each wrapper records one span.  A span's self time is its duration minus
the time covered by the spans it directly caused; spans are aggregated per
name as they close (total self seconds and call count), so the trace keeps
one record per span name in memory.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, function, span name).  Several functions may share a span name.
FUNCTIONS = [
    ("permgroup", "subgroup_lattice", "permgroup.subgroup_lattice"),
    ("chartab", "bundled_table", "chartab.table"),
    ("chartab", "permutation_character", "chartab.table"),
    ("chartab", "isotypic_multiplicities", "chartab.table"),
    ("o2gamma", "mode1_candidates", "o2gamma.mode1_candidates"),
    ("o2gamma", "orbit_types_mode1", "o2gamma.orbit_types_mode1"),
    ("o2gamma", "maximal_orbit_types", "o2gamma.maximal_orbit_types"),
    ("o2gamma", "subconjugate", "o2gamma.subconjugate"),
    ("o2gamma", "n_count_amalgam", "o2gamma.n_count_amalgam"),
    ("o2gamma", "weyl_order", "o2gamma.weyl_order"),
    ("o2gamma", "class_product", "o2gamma.class_product"),
    ("o2gamma", "make_fin", "o2gamma.make_fin"),
    ("o2gamma", "fold", "o2gamma.fold"),
    ("o2gamma", "fixed_dim", "o2gamma.fixed_dim"),
    ("basicdeg", "basic_degree", "basicdeg.basic_degree"),
    ("basicdeg", "degree_product", "basicdeg.degree_product"),
    ("ddedeg", "assemble_omega", "ddedeg.assemble_omega"),
    ("ddedeg", "check_growth_condition", "ddedeg.check_growth_condition"),
    ("cli", "run_analyze", "cli.run_analyze"),
    ("cli", "validate_report", "cli.report"),
    ("verifier", "newton_solve", "verifier.newton_solve"),
    ("verifier", "residual", "verifier.residual"),
    ("verifier", "isotropy_of_trajectory", "verifier.isotropy_scan"),
    ("verifier", "apriori_check", "verifier.apriori_check"),
]

# (module, class, attribute, span name)
METHODS = [
    ("chartab", "SignedGroup", "__init__", "chartab.table"),
    ("o2gamma", "GammaContext", "from_signed_group", "o2gamma.context"),
    ("ddedeg", "SpectralTable", "build", "ddedeg.spectral"),
    ("basicdeg", "GRingElement", "__mul__", "basicdeg.ring_mul"),
    ("cli", "AnalysisResult", "report_json", "cli.report"),
    ("cli", "AnalysisResult", "report_text", "cli.report"),
    ("verifier", "SystemSpec", "rhs", "verifier.rhs"),
]

# The per-layer metrics a traced run reports; run.py checks them against
# the names BENCHMARK.json declares and takes the units from there.  A layer
# a workload bypasses reads 0.
SPAN_METRICS = [
    "o2gamma.mode1_candidates",
    "o2gamma.orbit_types_mode1",
    "o2gamma.maximal_orbit_types",
    "o2gamma.subconjugate",
    "o2gamma.n_count_amalgam",
    "o2gamma.weyl_order",
    "o2gamma.class_product",
    "o2gamma.make_fin",
    "o2gamma.fold",
    "o2gamma.fixed_dim",
    "basicdeg.basic_degree",
    "basicdeg.ring_mul",
    "verifier.rhs",
]
SELF_ONLY = [
    "basicdeg.degree_product",
    "ddedeg.assemble_omega",
    "permgroup.subgroup_lattice",
    "o2gamma.context",
    "chartab.table",
    "ddedeg.spectral",
    "cli.run_analyze",
    "cli.report",
    "verifier.newton_solve",
    "verifier.residual",
    "verifier.isotropy_scan",
    "verifier.apriori_check",
    "ddedeg.check_growth_condition",
]
COUNTS = [
    "o2gamma.mode1_candidates.classes",
    "basicdeg.product_pairs",
    "basicdeg.omega.support",
    "ddedeg.conclusions",
    "verifier.newton.iterations",
    "verifier.newton.jacobian_gflop_computed",
    "verifier.isotropy_scan.candidates",
    "verifier.isotropy_scan.matched",
]
# Whole-span seconds of the numpy calls the verifier makes in Newton.
NUMPY_SPANS = [
    ("verifier.newton.jacobian_s", "verifier.newton.jacobian"),
    ("verifier.newton.linear_solve_s", "verifier.newton.linear_solve"),
]
# process.cpu_s and trace.overhead_s are filled in by run.py.


class Tracer:
    """Span stack plus per-name totals of self time, calls and counts."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._candidate_lists: dict[int, list] = {}

    def wrap(self, name, fn, on_return=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_METRICS:
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
            out[name + ".calls"] = self.calls.get(name, 0)
        for name in SELF_ONLY:
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        for metric, span in NUMPY_SPANS:
            out[metric] = self.self_s.get(span, 0.0)
        return out

    # -- counts taken from public arguments and return values ---------------

    def _on_mode1_candidates(self, args, kwargs, result):
        # the list is cached per context; count each distinct list once and
        # hold it, so that its id cannot be reused
        if id(result) not in self._candidate_lists:
            self._candidate_lists[id(result)] = result
            self.counts["o2gamma.mode1_candidates.classes"] += len(result)

    def _on_ring_mul(self, args, kwargs, result):
        a, b = args
        self.counts["basicdeg.product_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _on_run_analyze(self, args, kwargs, result):
        report = result.report
        if report is None:
            return
        self.counts["ddedeg.conclusions"] += len(report.conclusions)
        if report.omega is not None:
            self.counts["basicdeg.omega.support"] += len(report.omega.support())

    def _on_newton_solve(self, args, kwargs, result):
        self.counts["verifier.newton.iterations"] += result[1].iterations

    def _on_isotropy_scan(self, fn):
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            per_shift = 2 * len(bound.arguments["gamma_perms"]) * 2
            self.counts["verifier.isotropy_scan.candidates"] += (
                bound.arguments["theta_denominator"] * per_shift
            )
            self.counts["verifier.isotropy_scan.matched"] += len(result)

        return hook

    def _hook_for(self, span_name, fn):
        if span_name == "verifier.isotropy_scan":
            return self._on_isotropy_scan(fn)
        return {
            "o2gamma.mode1_candidates": self._on_mode1_candidates,
            "basicdeg.ring_mul": self._on_ring_mul,
            "cli.run_analyze": self._on_run_analyze,
            "verifier.newton_solve": self._on_newton_solve,
        }.get(span_name)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded eqdeg modules."""
        import numpy

        modules = {
            name: importlib.import_module("eqdeg." + name)
            for name, *_ in FUNCTIONS + METHODS
        }
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "eqdeg" or name.startswith("eqdeg.")
        ]
        for mod_name, attr, span_name in FUNCTIONS:
            orig = getattr(modules[mod_name], attr)
            wrapper = self.wrap(span_name, orig, self._hook_for(span_name, orig))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self.wrap(span_name, fn, self._hook_for(span_name, fn))
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)
        modules["verifier"].np = _TracedNumpy(numpy, self)


class _TracedNumpy:
    """Stands in for ``numpy`` inside ``eqdeg.verifier`` only, so that the
    Jacobian contraction and the linear solve are timed where the verifier
    calls them and nowhere else."""

    def __init__(self, numpy, tracer: Tracer):
        self._numpy = numpy
        self._tracer = tracer
        self.einsum = tracer.wrap("verifier.newton.jacobian", numpy.einsum, self._count_einsum)
        self.linalg = _TracedLinalg(numpy.linalg, tracer)

    def __getattr__(self, name):
        return getattr(self._numpy, name)

    def _count_einsum(self, args, kwargs, result):
        # operations of the unoptimised contraction: one multiply per extra
        # operand and one add for every point of the full index space
        subscripts, operands = args[0], args[1:]
        inputs = subscripts.split("->")[0].split(",")
        extents = {}
        for spec, operand in zip(inputs, operands):
            extents.update(zip(spec, operand.shape))
        points = 1
        for size in extents.values():
            points *= size
        counts = self._tracer.counts
        counts["verifier.newton.jacobian_gflop_computed"] += points * len(operands) / 1e9


class _TracedLinalg:
    def __init__(self, linalg, tracer: Tracer):
        self._linalg = linalg
        self.solve = tracer.wrap("verifier.newton.linear_solve", linalg.solve)

    def __getattr__(self, name):
        return getattr(self._linalg, name)

