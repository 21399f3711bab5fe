#!/usr/bin/env python3
"""Benchmark the compiled kernel lane against the numpy lane.

Runs the hot enumeration workloads (table validation, cancellation flags,
lifting-square scans, pullback-span searches) on corpus categories and
prints a timing table.  The two lanes share one contract; see
fincov/kernels.py for the import-time selection.
"""

import time

import numpy as np

from fincov import _kernels_py as py_lane

try:
    from fincov import _kernels_c as c_lane
except ImportError:
    c_lane = None

from fincov.instances import finite_top_category, set_skeleton


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
    # both lanes get int64 tables: the compiled lane reads no other dtype
    a3, atop = ((C._comp.astype(np.int64), *C._kernel_args()[1:])
                for C in (sk3, top))

    def validation(lane, a):
        lane.first_composability_violation(*a[:3])
        lane.first_identity_violation(*a[:3], (sk3 if a is a3 else top)._ident)
        lane.first_assoc_violation(a[0])

    def flags(lane, a):
        lane.mono_epi_flags(*a)

    def lifts(lane, a):
        n = len(a[1])
        for e in range(0, n, 7):
            for m in range(0, n, 7):
                lane.lift_report(*a, e, m)

    def spans(lane, a, cat):
        n = len(a[1])
        for f in range(0, n, 5):
            for g in range(n):
                if a[2][f] != a[2][g]:
                    continue
                cp, cq = lane.commuting_spans(*a, f, g)
                if len(cp):
                    lane.span_verify(*a, int(cp[0]), int(cq[0]), cp, cq)

    return [
        ("validate set<=3 (60 mor)", lambda lane: validation(lane, a3)),
        ("validate top<=3 (1476 mor)", lambda lane: validation(lane, atop)),
        ("mono/epi flags set<=3", lambda lane: flags(lane, a3)),
        ("mono/epi flags top<=3", lambda lane: flags(lane, atop)),
        ("lifting scans set<=3", lambda lane: lifts(lane, a3)),
        ("pullback spans set<=3", lambda lane: spans(lane, a3, sk3)),
    ]


def main():
    rows = []
    for name, work in workloads():
        t_py = timeit(lambda: work(py_lane))
        if c_lane is not None:
            t_c = timeit(lambda: work(c_lane))
            rows.append((name, t_py, t_c, t_py / t_c if t_c else float("inf")))
        else:
            rows.append((name, t_py, None, None))
    print(f"{'workload':34s} {'python':>10s} {'compiled':>10s} {'speedup':>8s}")
    for name, t_py, t_c, ratio in rows:
        if t_c is None:
            print(f"{name:34s} {t_py * 1e3:9.1f}ms {'n/a':>10s} {'n/a':>8s}")
        else:
            print(f"{name:34s} {t_py * 1e3:9.1f}ms {t_c * 1e3:9.1f}ms "
                  f"{ratio:7.1f}x")
    if c_lane is None:
        print("compiled lane not built; install with the Cython extension")


if __name__ == "__main__":
    main()
