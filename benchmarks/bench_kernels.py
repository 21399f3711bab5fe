#!/usr/bin/env python3
"""Time the enumeration kernels.

Runs the hot enumeration workloads (table validation, cancellation flags,
lifting-square scans, pullback-span searches, class-composite scans) on
corpus categories, each on the category's own (narrowest-dtype) tables,
and prints the best of three runs per workload.  The class-composite rows
also run on the abelian-groups ambient grown by three products to 8
objects and 1010 morphisms, as product closure grows it.  The last two
rows enumerate the mono-subordinated coverings of every object of the 64
closure-harness categories over the four chain types the harness uses:
the depth-first enumerator, and the generate-and-test loop of
``tests/oracles.py`` that it replaced.
"""

import os
import sys
import time

import numpy as np

from fincov import kernels
from fincov.algkit import build_finalg_category, group_theory
from fincov.coverage import _enumerate_type_coverings, build_chain_type
from fincov.instances import abelian_groups_upto, finite_top_category, \
    random_category, set_skeleton
from fincov.morphclass import builtin_class

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
import oracles  # noqa: E402


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads():
    sk3 = set_skeleton(3).category
    top = finite_top_category(3).category
    a3, atop = sk3._kernel_args(), top._kernel_args()

    def validation(C, a):
        kernels.first_composability_violation(*a[:3])
        kernels.first_identity_violation(*a[:3], C._ident)
        kernels.first_assoc_violation(a[0])

    def flags(a):
        kernels.mono_epi_flags(*a)

    def lifts(a):
        n = len(a[1])
        for e in range(0, n, 7):
            for m in range(0, n, 7):
                kernels.lift_report(*a, e, m)

    def spans(a):
        n = len(a[1])
        for f in range(0, n, 5):
            for g in range(n):
                if a[2][f] != a[2][g]:
                    continue
                cp, cq = kernels.commuting_spans(*a, f, g)
                if len(cp):
                    kernels.span_verify(*a, int(cp[0]), int(cq[0]), cp, cq)

    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    ob = {A.name: A for A in amb.objects()}
    for a, b in (("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4")):
        amb.find_pullback(amb.hom(ob[a], ob["Z1"])[0],
                          amb.hom(ob[b], ob["Z1"])[0])
    injective = np.array([m.is_injective() for m in amb.morphisms()])

    def index(C):
        C._composites = None
        C.composite_index()

    def composites(C, member):
        kernels.first_class_composites(
            C.composite_blocks(), member,
            ("system", "left_cancelable", "right_cancelable"))

    harness = [(C, builtin_class(C, "monos"))
               for C in (random_category(s, (4, 12)) for s in range(64))]
    chains = [build_chain_type(n, k, "cov")
              for n, k in ((1, 0), (1, 1), (2, 1), (2, 2))]

    def enumeration(enumerate_type):
        for C, M in harness:
            for dt in chains:
                for c in C.objects():
                    for _ in enumerate_type(C, c, dt, M):
                        pass

    return [
        ("validate set<=3 (60 mor)", lambda: validation(sk3, a3)),
        ("validate top<=3 (1476 mor)", lambda: validation(top, atop)),
        ("mono/epi flags set<=3", lambda: flags(a3)),
        ("mono/epi flags top<=3", lambda: flags(atop)),
        ("lifting scans set<=3", lambda: lifts(a3)),
        ("pullback spans set<=3", lambda: spans(a3)),
        ("class composites top<=3 (monos)",
         lambda: composites(top, top._flags()[0].astype(bool))),
        ("composite index ambient (1010 mor)", lambda: index(amb)),
        ("class composites ambient (injective)",
         lambda: composites(amb, injective)),
        ("coverings harness x 4 chains",
         lambda: enumeration(_enumerate_type_coverings)),
        ("coverings, generate-and-test oracle",
         lambda: enumeration(oracles.type_coverings)),
    ]


def main():
    print(f"{'workload':38s} {'time':>10s}")
    for name, work in workloads():
        print(f"{name:38s} {timeit(work) * 1e3:9.1f}ms")


if __name__ == "__main__":
    main()
