#!/usr/bin/env python3
"""Time the enumeration kernels.

Runs the hot enumeration workloads (table validation, cancellation flags,
lifting-square scans, pullback-span searches, class-composite scans) on
corpus categories, each on the category's own tables (an explicit
category's Python rows), and prints the best of three runs per
workload.  The class-composite rows also run on the abelian-groups
ambient grown by three products to 8 objects and 1010 morphisms, as
product closure grows it, and on the groups of order at most 8 (the
``groups_ambient`` roster, 1852 morphisms, its index read beforehand);
a class constant on automorphism orbits reads one row per right orbit.
Beside them, the composite-index rows ask every block for every row:
again of that ambient, whose rows are kept, of a fresh 8-object ambient
and of a fresh groups ambient (their hom sets built beforehand), and
again after Z8 is registered on an indexed one; the protomodularity row
runs ``check_protomodularity_pair(surjections, injections)`` on a fresh
8-object ambient whose index is built beforehand.  The product-closure
tail row runs the ten ``verify_product_closure`` instances of the
closure harness (first factors Z1 and Z2, E = surjections, M =
injections, chain[1]k1, cap 64) on a fresh abelian-groups ambient, the
harness's ambient quotient and extension instances run on it
beforehand, as in a harness pass.  The last two
rows enumerate the mono-subordinated coverings of every object of the 64
closure-harness categories over the four chain types the harness uses:
the depth-first enumerator, and the generate-and-test loop of
``tests/oracles.py`` that it replaced.  The next row builds the coverings
of the open-cover and closed-family coverages (kappa 2) from fresh
coverage objects over all 14 spaces of ``finite_top``; the powerset
diagram types, up to P(7) for the 7 nonempty opens of X3.0, are built
once, before the best run.  The next row builds the two standard
variances of the powerset posets P(4) to P(7) (81 to 2187 morphisms),
the posets themselves built beforehand.  The next three rows time
construction: the powerset posets P(4) to P(7) themselves, the finite
spaces of at most 3 points with their 1476 continuous maps, and the
seeded mixed functors of seeds 0-99, each run from an empty variance
shape cache.  The next seven rows time the algebra ambient: the 64 hom
sets of the grown ambient, enumerated afresh; ``hom_rows`` of the 121
pairs of the ``abelian_ambient`` roster (the abelian groups of order at
most 8); ``find_isomorphism`` over the 196 pairs of fresh groups of
order at most 8, their element profiles computed in the run; the three
product
registrations that grow a fresh abelian-groups ambient (its seed hom
sets built beforehand); the equation checks of ``FinAlgebra.validate``
over the 8 algebras of the grown ambient; ``check_class_properties``
of the injections on a fresh ambient grown by Z2 x Z3 (its hom sets and
composite index built beforehand, no subobject registered); and
``check_class_properties`` of the surjections on a fresh 5-object
abelian-groups ambient at cap 8, whose stability scan builds and
registers pair pullbacks (it prints the roster size after the check).
The image-compatibility row runs ``check_image_compatibility`` as the
closure harness does: the first 8 morphisms of the 64 harness
categories (E = isos, M = monos, no factorization system) and the 20
surjections out of groups of order at most 4 in the abelian-groups
ambient (E = surjections, M = injections, with a factorization system),
over the chain type chain[1]k1.  Each timed run gets fresh coverage
objects, so no report is served from the memo; their coverings are
enumerated beforehand.  The compactness row runs ``decide_tau_compact``
on every object of the first 16 harness categories under each of the
four harness chain types (M = monos, cap 2048), one coverage object per
type, on categories built fresh for each timed run.  It prints the
covering functors enumerated against the coverings served: the types
of one shape share their functors.  The next row does the same on all 64
harness categories, as the closure harness's subobject instances decide
them.  The next row runs the closure
harness's quotient and extension instances on its 64 categories (E =
isos, M = monos, chain[1]k1, cap 512) after one untimed pass, so every
hypothesis is answered from the tables: the cost of asking a question
again.  The last two rows run, on the 64 harness categories built fresh
for each timed run, ``check_class_properties`` of the monos (mono flags,
class composites and the stability scan's pullbacks) and
``find_pullback`` on every cospan.  The last row times the four callers
of the cospan walk (``morphclass.walk_cospans``) on the 64 harness
categories, built fresh for each timed run: the stability scans of the
monos and the epis, ``is_stably_in`` of the isos and
``is_stably_extremal`` of the monos for the first 8 morphisms, and
``check_mono_reflective`` of every object; then, on a fresh harness
ambient, the stability scan of the surjections and ``is_stably_in`` of
the surjections out of groups of order at most 4, at probe cap 60.

Before the kernel rows, seven rows time fresh processes, the median of 11
runs each, alternating: ``python -c pass``; ``python -c "import
fincov.cli"``, which registers the heavy layers without running them, so
it compiles ``cli``, ``report``, ``fincat`` and ``kernels`` only; and
five ``python -m fincov.cli check`` commands: ``validate`` of the
``sub_Z8`` tables in a file, ``compact`` on the ``set_skeleton_2`` and
``sub_Z8`` fixtures, ``classify`` on ``group_cat_Z8`` and
``mono-reflective`` on ``group_cat_Q8``, each compiling the layers it
reaches.  The
children write no bytecode, so every row includes compiling fincov's
modules (unless a ``__pycache__`` that an earlier run wrote is there to
read).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import fincov
from fincov import instances, kernels
from fincov.algebra import group_theory
from fincov.algkit import (build_finalg_category, enumerate_homs,
                           find_isomorphism, hom_rows)
from fincov.coverage import ClosedFamilyCoverage, OpenCoverCoverage, \
    RuleCoverage, _enumerate_functors, _powerset_poset, build_chain_type, \
    check_image_compatibility, decide_tau_compact
from fincov.fincat import derived_memo
from fincov.instances import abelian_groups_upto, cyclic_group, \
    finite_top_category, groups_upto, random_category, random_mixed_functor, \
    set_skeleton
from fincov.morphclass import FactorizationSystem, _stability_scan, \
    builtin_class, check_class_properties, check_mono_reflective, \
    is_stably_extremal, is_stably_in
from fincov.protomod import check_protomodularity_pair
from fincov.theorems import verify_closure_extensions, \
    verify_closure_quotients, verify_product_closure
from fincov.variance import standard_variances

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
import oracles  # noqa: E402
from fixtures_util import FULL_GROWTH, grown_ambient  # noqa: E402


def timeit(fn, repeat=3):
    """Best time of repeat runs, and what the last run returned."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def workloads():
    sk3 = set_skeleton(3).category
    top3 = finite_top_category(3)
    top = top3.category
    a3, atop = sk3._kernel_args(), top._kernel_args()

    def validation(C):
        comp, src, tgt = C._comp, C._src, C._tgt
        into, out = C._into_idx, C._out_idx
        ident = [C._midx[C._identities[o]] for o in C._objects]
        kernels.first_composability_violation(comp, src, tgt, into)
        kernels.first_identity_violation(comp, src, tgt, ident)
        kernels.first_assoc_violation(comp, src, tgt, into, out)

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
                if cp:
                    kernels.span_verify(*a, cp[0], cq[0], cp, cq)

    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    ob = {A.name: A for A in amb.objects()}
    for a, b in (("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4")):
        amb.find_pullback(amb.hom(ob[a], ob["Z1"])[0],
                          amb.hom(ob[b], ob["Z1"])[0])
    injective = [m.is_injective() for m in amb.morphisms()]

    def hom_sets():
        n = sum(len(enumerate_homs(A, B)) for A in amb.objects()
                for B in amb.objects())
        return f"{n} homs"

    # one fresh ambient per timed run, its seed hom sets built beforehand
    seeded = []
    for _ in range(3):
        C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
        C.morphisms()
        seeded.append(C)

    def products():
        C = seeded.pop()
        ob = {A.name: A for A in C.objects()}
        for a, b in (("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4")):
            C.find_pullback(C.hom(ob[a], ob["Z1"])[0],
                            C.hom(ob[b], ob["Z1"])[0])
        return f"{len(C.objects())} objects"

    def index(C):
        C._composites = None
        read = sum(len(row_of(i)) for rows, _, _, row_of in
                   C.composite_blocks() for i in range(len(rows)))
        return f"{read} composites"

    # fresh ambients, their hom sets built beforehand: one per timed run
    # of each of the next four rows
    def grown(with_index):
        C = grown_ambient(*FULL_GROWTH)
        C.morphisms()
        if with_index:
            index(C)
        return C

    unindexed = [grown(False) for _ in range(3)]
    groups = [build_finalg_category(group_theory(), 8, groups_upto(8))
              for _ in range(3)]
    for C in groups:
        C.morphisms()
    groups_amb = build_finalg_category(group_theory(), 8, groups_upto(8))
    index(groups_amb)
    surjective = [m.is_surjective() for m in groups_amb.morphisms()]
    # the abelian_ambient roster, and fresh groups of order at most 8 per
    # timed run (element profiles are kept on the algebras)
    abelian = abelian_groups_upto(8)
    group_sets = [groups_upto(8) for _ in range(3)]

    def abelian_homs():
        n = sum(len(hom_rows(A, B)) for A in abelian for B in abelian)
        return f"{n} homs"

    def isomorphisms():
        gs = group_sets.pop()
        found = sum(find_isomorphism(A, B) is not None for A in gs
                    for B in gs)
        return f"{found} isomorphisms"
    registered = []
    for _ in range(3):
        C = grown(True)
        C.register(cyclic_group(8))
        C.morphisms()
        registered.append(C)
    indexed = [grown(True) for _ in range(3)]

    def protomodularity():
        C = indexed.pop()
        rep = check_protomodularity_pair(C, builtin_class(C, "surjections"),
                                         builtin_class(C, "injections"))
        return f"{rep.diagrams_checked} diagrams"

    def harness_tail_ambient():
        """A fresh ambient after the harness's ambient quotient and
        extension instances, with the ten product pairs and arguments."""
        C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
        E = builtin_class(C, "surjections")
        M = builtin_class(C, "injections")
        tau = RuleCoverage([chains[1]], M)
        FS = FactorizationSystem(C, E, M, {})
        roster = C.objects()
        z1 = next(A for A in roster if A.name == "Z1")
        onto = [f for G in roster if G.size <= 4 for H in roster
                for f in C.hom(G, H) if f.is_surjective()]
        for f in onto:
            verify_closure_quotients(C, tau, E, M, f, cap=512)
        for f in onto:
            verify_closure_extensions(
                C, tau, E, M, C.find_pullback(f, C.hom(z1, f.tgt)[0]),
                cap=64, FS=FS, probe_cap=60)
        pairs = [(a, b) for a in roster if a.name in ("Z1", "Z2")
                 for b in roster if a.size * b.size <= 8 and b.size <= 4]
        return C, tau, E, M, FS, pairs

    def product_tail():
        C, tau, E, M, FS, pairs = tails.pop()
        ok = sum(verify_product_closure(C, tau, E, M, a, b, cap=64, FS=FS,
                                        probe_cap=60).hypotheses_ok
                 for a, b in pairs)
        return f"{len(pairs)} instances, {ok} with hypotheses holding"

    def composites(C, member):
        C.first_class_composites(
            member, ("system", "left_cancelable", "right_cancelable"))

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

    def topological_coverings():
        for kind in (OpenCoverCoverage, ClosedFamilyCoverage):
            tau = kind(top3, kappa=2)
            for c in sorted(top3.spaces):
                tau.coverings_of(top, c)

    powersets = [_powerset_poset(k) for k in range(4, 8)]

    def powerset_variances():
        for I in powersets:
            standard_variances(I)

    def mixed_functors():
        instances._variance_shapes.clear()
        for seed in range(100):
            random_mixed_functor(seed)

    def grown_by_z2xz3():
        C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
        ob = {A.name: A for A in C.objects()}
        C.find_pullback(C.hom(ob["Z2"], ob["Z1"])[0],
                        C.hom(ob["Z3"], ob["Z1"])[0])
        index(C)
        return C

    # one fresh ambient per timed run: no subobject yet registered, no
    # verdict kept
    fresh = [grown_by_z2xz3() for _ in range(3)]

    def injection_properties():
        C = fresh.pop()
        check_class_properties(C, builtin_class(C, "injections"))

    # one fresh 5-object ambient per timed run; the check grows it
    seeds_only = [build_finalg_category(group_theory(), 8,
                                        abelian_groups_upto(4))
                  for _ in range(3)]

    def surjection_properties():
        C = seeds_only.pop()
        check_class_properties(C, builtin_class(C, "surjections"))
        return f"{len(C.objects())} objects after"

    # (C, f, E, M, FS, cap) per question, as in the closure harness
    questions = [(C, f, builtin_class(C, "isos"), M, None, 512)
                 for C, M in harness for f in sorted(C.morphisms())[:8]]
    amb4 = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    Ea = builtin_class(amb4, "surjections")
    Ma = builtin_class(amb4, "injections")
    FS = FactorizationSystem(amb4, Ea, Ma, {})
    questions += [(amb4, f, Ea, Ma, FS, 64) for G in amb4.objects()
                  if G.size <= 4 for H in amb4.objects()
                  for f in amb4.hom(G, H) if f.is_surjective()]

    def fresh_coverages():
        taus = {}
        for C, f, _, M, _, cap in questions:
            if C not in taus:
                taus[C] = RuleCoverage([chains[1]], M)
            for c in (C.src(f), C.tgt(f)):
                taus[C].coverings_of(C, c, cap=cap)
        return taus

    coverages = [fresh_coverages() for _ in range(3)]

    def image_compatibility():
        taus = coverages.pop()
        for C, f, E, M, FS, cap in questions:
            check_image_compatibility(C, f, taus[C], E, M, FS=FS, cap=cap)

    # one fresh set of categories per timed run: no verdict, slice hom
    # set or functor sequence is kept from an earlier run
    def fresh_harness(count):
        return [[(C, builtin_class(C, "monos"))
                 for C in (random_category(s, (4, 12)) for s in range(count))]
                for _ in range(3)]

    compact_sets = {16: fresh_harness(16), 64: fresh_harness(64)}

    def compactness(count):
        cats = compact_sets[count].pop()
        served = 0
        for C, M in cats:
            for dt in chains:
                tau = RuleCoverage([dt], M)
                for c in C.objects():
                    v = decide_tau_compact(C, c, tau, cap=2048)
                    served += v.enumerated
        # functor sequences are kept by (variance, object), coverings by
        # (name, type, object); a finished sequence is a tuple, one being
        # read [done, generator]
        built = sum(len(seq) if isinstance(seq, tuple) else len(seq[0])
                    for C, M in cats
                    for key, seq in derived_memo(C, "coverings", M).items()
                    if len(key) == 2)
        return f"{built} functors for {served} coverings"

    # the closure harness's quotient and extension instances, as
    # (check, args) with the memos of their categories filled beforehand
    closure_instances = []
    for C, M in harness:
        E = builtin_class(C, "isos")
        tau = RuleCoverage([chains[1]], M)
        mors = sorted(C.morphisms())
        closure_instances += [(verify_closure_quotients,
                               (C, tau, E, M, f)) for f in mors[:12]]
        for f in mors[:8]:
            for phi in C.morphisms_into(C.tgt(f))[:3]:
                sq = C.find_pullback(f, phi)
                if sq is not None:
                    closure_instances.append((verify_closure_extensions,
                                              (C, tau, E, M, sq)))

    def closure_hypotheses():
        for check, args in closure_instances:
            check(*args, cap=512)
        return f"{len(closure_instances)} instances"

    closure_hypotheses()
    tails = [harness_tail_ambient() for _ in range(3)]

    property_sets = fresh_harness(64)

    def mono_properties():
        for C, M in property_sets.pop():
            check_class_properties(C, M)

    pullback_sets = fresh_harness(64)

    def all_pullbacks():
        found = 0
        for C, _ in pullback_sets.pop():
            for f in C.morphisms():
                for g in C.morphisms_into(C.tgt(f)):
                    found += C.find_pullback(f, g) is not None
        return f"{found} pullbacks"

    walk_sets = [([random_category(s, (4, 12)) for s in range(64)],
                  build_finalg_category(group_theory(), 8,
                                        abelian_groups_upto(4)))
                 for _ in range(3)]

    def walk_callers():
        cats, amb_w = walk_sets.pop()
        restricted = 0
        for C in cats:
            monos, isos = builtin_class(C, "monos"), builtin_class(C, "isos")
            answers = [_stability_scan(C, monos),
                       _stability_scan(C, builtin_class(C, "epis"))]
            for f in sorted(C.morphisms())[:8]:
                answers += [is_stably_in(C, f, isos),
                            is_stably_extremal(C, f, monos)]
            restricted += sum(a[1] for a in answers)
            restricted += sum(check_mono_reflective(C, c)["restricted"]
                              for c in C.objects())
        E = builtin_class(amb_w, "surjections")
        restricted += _stability_scan(amb_w, E, 60)[1]
        for f in [f for G in amb_w.objects() if G.size <= 4
                  for f in amb_w.morphisms_from(G) if f.is_surjective()]:
            restricted += is_stably_in(amb_w, f, E, 60)[1]
        return f"{restricted} restricted answers"

    return [
        ("validate set<=3 (60 mor)", lambda: validation(sk3)),
        ("validate top<=3 (1476 mor)", lambda: validation(top)),
        ("mono/epi flags set<=3", lambda: flags(a3)),
        ("mono/epi flags top<=3", lambda: flags(atop)),
        ("lifting scans set<=3", lambda: lifts(a3)),
        ("pullback spans set<=3", lambda: spans(a3)),
        ("class composites top<=3 (monos)",
         lambda: composites(top, top._flags[0])),
        ("composite index ambient (1010 mor)", lambda: index(amb)),
        ("composite index, fresh 8-object ambient",
         lambda: index(unindexed.pop())),
        ("composite index after registering Z8 (9 objects)",
         lambda: index(registered.pop())),
        ("composite index build, groups_ambient (1852 mor)",
         lambda: index(groups.pop())),
        ("protomodularity (surjections, injections), 8 objects",
         protomodularity),
        ("class composites ambient (injective)",
         lambda: composites(amb, injective)),
        ("class composites, groups_ambient (surjections)",
         lambda: composites(groups_amb, surjective)),
        ("coverings harness x 4 chains",
         lambda: enumeration(lambda C, c, dt, M:
                             _enumerate_functors(C, c, dt.variance, M))),
        ("coverings, generate-and-test oracle",
         lambda: enumeration(oracles.type_coverings)),
        ("open + closed coverings_of, 14 spaces", topological_coverings),
        ("standard_variances P(4..7)", powerset_variances),
        ("build P(4..7)", lambda: [_powerset_poset(k) for k in range(4, 8)]),
        ("build finite_top_category(3)", lambda: finite_top_category(3)),
        ("random_mixed_functor 0-99, cold shapes", mixed_functors),
        ("hom sets, ambient grown to 8 objects (64 pairs)", hom_sets),
        ("hom_rows, abelian_ambient roster (121 pairs)", abelian_homs),
        ("find_isomorphism, groups_upto(8) (196 pairs)", isomorphisms),
        ("register Z2xZ3, Z2xV4, Z2xZ4 on a fresh ambient", products),
        ("validate ambient algebras (8)",
         lambda: [A.validate() for A in amb.objects()]),
        ("injections properties, ambient + Z2xZ3", injection_properties),
        ("surjections properties, fresh 5-object ambient",
         surjection_properties),
        ("image compatibility, harness + ambient", image_compatibility),
        ("compactness, 16 harness x 4 chains", lambda: compactness(16)),
        ("compactness, 64 harness x 4 chains", lambda: compactness(64)),
        ("closure hypotheses, warm, 64 harness categories",
         closure_hypotheses),
        ("class properties (monos), 64 harness categories",
         mono_properties),
        ("find_pullback on every cospan, 64 harness categories",
         all_pullbacks),
        ("cospan walk callers, 64 harness + ambient", walk_callers),
        ("product-closure tail, harness ambient (10 products)",
         product_tail),
    ]


def fresh_processes(n=11):
    """Median wall time of n fresh interpreters per program, alternating
    between them.  The children import fincov from the source tree this
    script imported and write no bytecode."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fincov.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sub_Z8.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"category": instances.corpus_entry("sub_Z8")
                       .category.to_json()}, fh)
        cli = [sys.executable, "-m", "fincov.cli", "check"]
        programs = {
            "python -c pass": [sys.executable, "-c", "pass"],
            "python -c 'import fincov.cli' (layers unrun)":
                [sys.executable, "-c", "import fincov.cli"],
            "check validate --input FILE (sub_Z8)":
                cli + ["validate", "--input", path],
            "check compact --input corpus:set_skeleton_2":
                cli + ["compact", "--input", "corpus:set_skeleton_2"],
            "check compact --input corpus:sub_Z8":
                cli + ["compact", "--input", "corpus:sub_Z8"],
            "check classify --input corpus:group_cat_Z8":
                cli + ["classify", "--input", "corpus:group_cat_Z8"],
            "check mono-reflective --input corpus:group_cat_Q8":
                cli + ["mono-reflective", "--input", "corpus:group_cat_Q8"],
        }
        times = {name: [] for name in programs}
        for _ in range(n):
            for name, argv in programs.items():
                t0 = time.perf_counter()
                proc = subprocess.run(argv, env=env,
                                      stdout=subprocess.DEVNULL)
                times[name].append(time.perf_counter() - t0)
                if proc.returncode not in (0, 1):
                    raise RuntimeError(f"{name} exited {proc.returncode}")
    return {name: statistics.median(ts) for name, ts in times.items()}


def main():
    print(f"{'workload':48s} {'time':>10s}")
    for name, median in fresh_processes().items():
        print(f"{name:48s} {median * 1e3:9.1f}ms  (median of 11)")
    for name, work in workloads():
        best, note = timeit(work)
        line = f"{name:48s} {best * 1e3:9.1f}ms"
        print(f"{line}  ({note})" if isinstance(note, str) else line)


if __name__ == "__main__":
    main()
