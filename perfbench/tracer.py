"""Outside-in layer tracing for one benchmark child process.

``install()`` wraps the public functions named in ``LAYERS`` wherever a
fincov module has bound them (the defining module and every ``from ...
import`` site), so the program itself is not changed.  Each call records
a span (operation, span id, parent span id, name, start, end) in memory
and adds to its function's call count and self time.  Self time is the
span's duration minus the time covered by its child spans.  ``dump()``
writes everything once, when the child ends.

Per-morphism accessors (``src``, ``tgt``, ``compose``, ``hom``,
``contains``, ``__hash__``) are never wrapped.
"""

import functools
import json
import sys
import time

# layer -> (module, functions); "Class.method" wraps the method on the class
LAYERS = {
    "kernels": ("fincov.kernels", (
        "first_composability_violation", "first_identity_violation",
        "first_assoc_violation", "mono_epi_flags", "lift_report",
        "commuting_spans", "span_verify", "coequalizer_verify")),
    "fincat": ("fincov.fincat", (
        "validate_category", "FinCategory.__init__",
        "FinCategory.find_pullback", "classify_morphism",
        "find_coequalizer")),
    "instances": ("fincov.instances", (
        "standard_corpus", "finite_top_category", "random_category",
        "random_mixed_functor")),
    "algkit": ("fincov.algkit", (
        "build_finalg_category", "find_isomorphism",
        "AlgCategory.find_pullback")),
    "variance": ("fincov.variance", (
        "standard_variances", "validate_variance", "validate_mixed_functor",
        "split_mixed_functor", "assemble_mixed_functor")),
    "coverage": ("fincov.coverage", (
        "build_chain_type", "RuleCoverage.coverings_of",
        "OpenCoverCoverage.coverings_of",
        "ClosedFamilyCoverage.coverings_of", "decide_tau_compact",
        "stabilization_small", "check_coverage")),
    "morphclass": ("fincov.morphclass", (
        "builtin_class", "check_class_properties",
        "check_factorization_system", "check_orthogonal")),
    "theorems": ("fincov.theorems", (
        "verify_closure_subobjects", "verify_closure_quotients",
        "verify_closure_extensions", "verify_product_closure")),
    "protomod": ("fincov.protomod", (
        "check_protomodularity_pair", "check_protomodularity_equivalent")),
    "cli": ("fincov.cli", ("load_input", "run_check")),
    "report": ("fincov.report", ("dumps_canonical",)),
}

# The kernel lanes define the kernels; calls between their own functions
# are not calls into the layer.
_SKIP_MODULES = ("fincov._kernels_py", "fincov._kernels_c")

SPAN_CAP = 200_000


def function_names():
    """``layer.function`` for every wrapped function, in table order."""
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items()
            for fn in fns]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name in function_names()}
        self.counters = {"coverings_enumerated": 0, "functor_candidates": 0,
                         "functor_accepted": 0}
        self.class_pairs = set()
        self.spans = []
        self.dropped = 0
        self.op = 0
        self._stack = []
        self._next = 1

    def wrap(self, name, fn, after=None):
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((self.op, sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # hooks for the derived per-layer metrics

    def _after_compact(self, args, verdict):
        self.counters["coverings_enumerated"] += verdict.enumerated

    def _after_candidate(self, args, err):
        self.counters["functor_candidates"] += 1
        if err is None:
            self.counters["functor_accepted"] += 1

    def _after_class_props(self, args, report):
        C, A = args[0], args[1]
        self.class_pairs.add((id(C), getattr(A, "name", id(A))))

    def install(self):
        import fincov.cli  # noqa: F401  (imports every layer)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fincov" or n.startswith("fincov."))
                   and n not in _SKIP_MODULES and m is not None]
        hooks = {"coverage.decide_tau_compact": self._after_compact,
                 "morphclass.check_class_properties":
                     self._after_class_props}
        methods, functions = [], []
        for layer, (modname, fns) in LAYERS.items():
            mod = sys.modules[modname]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    methods.append((name, cls, meth, getattr(cls, meth)))
                else:
                    functions.append((name, getattr(mod, fn)))
        # collect every original before patching anything, so a subclass
        # wraps the inherited function rather than the base class wrapper
        for name, cls, meth, orig in methods:
            setattr(cls, meth, self.wrap(name, orig, hooks.get(name)))
        for name, orig in functions:
            wrapped = self.wrap(name, orig, hooks.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is not orig:
                        continue
                    if name == "variance.validate_mixed_functor" and \
                            mod.__name__ == "fincov.coverage":
                        # candidate functors checked by the coverage search
                        setattr(mod, attr, self.wrap(
                            name, orig, self._after_candidate))
                    else:
                        setattr(mod, attr, wrapped)

    def dump(self, path):
        out = {"stats": self.stats, "counters": self.counters,
               "class_pairs": len(self.class_pairs),
               "dropped_spans": self.dropped,
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, separators=(",", ":"))
