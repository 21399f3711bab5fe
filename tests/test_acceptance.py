"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and cap is pinned here.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from fincov.algkit import (build_finalg_category,
                           classify_uniformity, _UniformityFlags,
                           group_theory, is_right_unital, monoid_theory,
                           subalgebra_closure, verify_uniformity_theorem)
from fincov.coverage import (ExplicitCoverage,
                             OpenCoverCoverage, RuleCoverage,
                             build_chain_type, check_coverage,
                             decide_tau_compact, stabilization_small)
from fincov.fincat import classify_morphism
from fincov.instances import (abelian_groups_upto, cyclic_group,
                              diamond_lattice, groups_upto, monoids_upto,
                              random_category, random_mixed_functor,
                              set_skeleton, standard_corpus,
                              subgroup_lattice_poset)
from fincov.morphclass import (FactorizationSystem, MorphismClass,
                               builtin_class, check_factorization_system,
                               check_orthogonal, explicit_class,
                               is_extremal_wrt)
from fincov.protomod import (check_protomodularity_equivalent,
                             check_protomodularity_pair)
from fincov.theorems import (run_hopfian_construction,
                             verify_closure_extensions,
                             verify_closure_quotients,
                             verify_closure_subobjects,
                             verify_product_closure)
from fincov.variance import (assemble_mixed_functor, split_mixed_functor,
                             validate_mixed_functor)


def conclude(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus()


def small_fixture_categories(corpus):
    cats = []
    for name in ("poset_2chain", "poset_3chain", "poset_4chain", "diamond",
                 "group_cat_Z2", "group_cat_V4", "group_cat_Z8",
                 "group_cat_Q8", "set_skeleton_2", "sub_Z4"):
        cats.append(corpus[name].category)
    cats.extend(random_category(s, (3, 12)) for s in (3, 11, 19))
    return [c for c in cats if len(c.morphisms()) <= 12]


def test_criterion_1_definition_soundness(corpus):
    t0 = time.time()
    cats = small_fixture_categories(corpus)
    assert len(cats) >= 8
    disagreements = 0
    for C in cats:
        raw = oracles.RawCat(C.to_json())
        monos = [m for m in C.morphisms() if C.is_mono(m)]
        for m in C.morphisms():
            rep = classify_morphism(C, m)
            if rep.mono != oracles.is_mono(raw, m) or \
               rep.epi != oracles.is_epi(raw, m) or \
               rep.iso != oracles.is_iso(raw, m):
                disagreements += 1
            ok, _ = is_extremal_wrt(C, [m], explicit_class(C, "monos", monos))
            if ok != oracles.extremal_wrt(raw, m, monos):
                disagreements += 1
        for f in C.morphisms():
            for g in C.morphisms_into(C.tgt(f)):
                sq = C.find_pullback(f, g)
                found = oracles.all_pullbacks(raw, f, g)
                if sq is None:
                    if found:
                        disagreements += 1
                elif not oracles.is_pullback(raw, f, g, sq.proj1, sq.proj2):
                    disagreements += 1
            for e in C.morphisms():
                if check_orthogonal(C, e, f)[0] != oracles.orthogonal(raw, e, f):
                    disagreements += 1
    dt = time.time() - t0
    conclude(1, "definition-level soundness",
             disagreements == 0 and dt <= 60,
             f"({len(cats)} categories, {dt:.1f}s, "
             f"{disagreements} disagreements)")


def test_criterion_2_protomodularity_ground_truth(corpus):
    t0 = time.time()
    sk3 = corpus["set_skeleton_3"]
    C3 = sk3.category
    E3 = builtin_class(C3, "retractions")
    rep = check_protomodularity_pair(C3, E3, sk3.classes["all"])
    not_proto = rep.satisfied is False and rep.counterexample is not None
    cx = rep.counterexample
    cx_valid = (not_proto and not C3.is_iso(cx.beta) and C3.is_iso(cx.alpha)
                and E3.contains(cx.e) and E3.contains(cx.e_prime)
                and C3.is_iso(cx.gamma))

    amb = corpus["groups_ambient"].category
    arep = check_protomodularity_pair(
        amb, corpus["groups_ambient"].classes["retractions"],
        corpus["groups_ambient"].classes["all"])
    ambient_ok = arep.satisfied and arep.scope.startswith("within size cap")

    agree = 0
    pairs = 0
    sweep = ["poset_2chain", "poset_3chain", "diamond", "set_skeleton_2",
             "set_skeleton_3", "group_cat_Z2", "group_cat_Z4",
             "group_cat_V4", "group_cat_Z8", "group_cat_Z2^3", "sub_Z4"]
    for name in sweep:
        C = corpus[name].category
        for ename, mname in (("retractions", "all"), ("isos", "all"),
                             ("epis", "monos")):
            pairs += 1
            p = check_protomodularity_pair(C, builtin_class(C, ename),
                                           builtin_class(C, mname))
            q = check_protomodularity_equivalent(C, builtin_class(C, ename),
                                                 builtin_class(C, mname))
            if p.satisfied == q.satisfied:
                agree += 1
    qamb = check_protomodularity_equivalent(
        amb, corpus["groups_ambient"].classes["retractions"],
        corpus["groups_ambient"].classes["all"])
    pairs += 1
    agree += int(qamb.satisfied == arep.satisfied)
    dt = time.time() - t0
    conclude(2, "protomodularity ground truth",
             not_proto and cx_valid and ambient_ok and agree == pairs
             and dt <= 300,
             f"(counterexample beta={cx.beta}, ambient checked "
             f"{arep.diagrams_checked}, {agree}/{pairs} agree, {dt:.1f}s)")


def test_criterion_3_variance_roundtrip():
    failures = 0
    for seed in range(200):
        F = random_mixed_functor(seed)
        assert validate_mixed_functor(F) is None
        if assemble_mixed_functor(split_mixed_functor(F)) != F:
            failures += 1
    conclude(3, "variance correspondence", failures == 0,
             "(200 seeded functors)")


def test_criterion_4_coverage_axiom(corpus):
    stable_ok = True
    for name in ("poset_2chain", "poset_3chain", "diamond", "sub_Z4",
                 "set_skeleton_2", "group_cat_V4"):
        C = corpus[name].category
        tau = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
        rep = check_coverage(C, tau, cap=256)
        stable_ok = stable_ok and rep.is_coverage is True
    sk = corpus["set_skeleton_2"]
    bad = check_coverage(sk.category,
                         RuleCoverage([build_chain_type(1, 0, "cov")],
                                      "sections"), cap=256)
    nonstable_ok = bad.is_coverage is False and bool(bad.witness)
    dia = diamond_lattice()
    full = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    covs, _ = full.coverings_of(dia, "o1")
    explicit = ExplicitCoverage({"o1": covs})
    erep = check_coverage(dia, explicit, cap=256)
    explicit_ok = erep.is_coverage is False
    conclude(4, "coverage axiom", stable_ok and nonstable_ok and explicit_ok,
             f"(non-stable witness {bad.witness[:1]})")


def test_criterion_5_closure_consistency(corpus):
    t0 = time.time()
    verified = 0
    failures = []

    def note(rep):
        nonlocal verified
        if rep.counterexample is not None:
            failures.append(rep.to_json())
        if rep.hypotheses_ok and rep.conclusion_ok is True:
            verified += 1

    posets = [corpus[n].category for n in
              ("poset_2chain", "poset_3chain", "poset_4chain", "diamond",
               "sub_Z4", "sub_Z8")]
    posets += [random_category(s, (4, 12)) for s in range(60)]

    # part 1 instances: subobject closure over chain types
    for C in posets:
        M = builtin_class(C, "monos")
        for k, n in ((0, 1), (1, 1), (1, 2), (2, 2)):
            note(verify_closure_subobjects(
                C, [build_chain_type(n, k, "cov")], M, cap=2048))

    # part 2 instances: quotients along isos, then genuine surjections
    for C in posets[:24]:
        M = builtin_class(C, "monos")
        tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
        E = builtin_class(C, "isos")
        for f in sorted(C.morphisms())[:12]:
            note(verify_closure_quotients(C, tau, E, M, f, cap=512))
    amb0 = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    Ea = builtin_class(amb0, "surjections")
    Ma = builtin_class(amb0, "injections")
    tau_a = RuleCoverage([build_chain_type(1, 1, "cov")], Ma)
    for G in amb0.objects():
        if G.size > 4:
            continue
        for H in amb0.objects():
            for f in amb0.hom(G, H):
                if f.is_surjective():
                    note(verify_closure_quotients(amb0, tau_a, Ea, Ma, f,
                                                  cap=512))
    sk = corpus["set_skeleton_2"].extra
    tau_sk = RuleCoverage([build_chain_type(1, 1, "cov")], sk.injections())
    for f in sorted(sk.category.morphisms()):
        if sk.is_surjective(f):
            note(verify_closure_quotients(sk.category, tau_sk,
                                          sk.surjections(), sk.injections(),
                                          f, cap=512))

    # part 3 instances: extensions over existing pullbacks
    for C in posets[:10]:
        M = builtin_class(C, "monos")
        E = builtin_class(C, "isos")
        tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
        mors = sorted(C.morphisms())
        for f in mors[:8]:
            for phi in C.morphisms_into(C.tgt(f))[:3]:
                sq = C.find_pullback(f, phi)
                if sq is not None:
                    note(verify_closure_extensions(C, tau, E, M, sq,
                                                   cap=512))

    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    Z1 = next(A for A in amb.objects() if A.name == "Z1")
    for G in amb.objects():
        for H in amb.objects():
            for f in amb.hom(G, H):
                if not f.is_surjective() or G.size > 4:
                    continue
                phi = amb.hom(Z1, H)[0]
                sq = amb.find_pullback(f, phi)
                note(verify_closure_extensions(amb, tau, E, M, sq, cap=64,
                                               FS=FS, probe_cap=60))

    # product corollary instances
    for a in amb.objects():
        for b in amb.objects():
            if a.size * b.size <= amb.size_cap and a.size <= 4 and \
                    b.size <= 4:
                note(verify_product_closure(amb, tau, E, M, a, b, cap=64,
                                            FS=FS, probe_cap=60))
    dt = time.time() - t0
    conclude(5, "theorem closure consistency",
             verified >= 500 and not failures and dt <= 600,
             f"({verified} hypothesis-verified instances, "
             f"{len(failures)} counterexamples, {dt:.1f}s)")


def test_criterion_6_hopfian(corpus):
    t0 = time.time()
    amb = corpus["groups_ambient"].category
    M = corpus["groups_ambient"].classes["monos"]
    from fincov.algkit import AlgHom
    Z4 = next(A for A in amb.objects() if A.name == "Z4")
    Z1 = next(A for A in amb.objects() if A.name == "Z1")
    f3 = AlgHom(Z4, Z4, (0, 3, 2, 1))
    pi0 = amb.hom(Z1, Z4)[0]
    rep, chain = run_hopfian_construction(amb, M, f3, pi0, N=4)
    fixture_ok = rep.hypotheses_ok and rep.conclusion_ok is True \
        and chain.stable_index is not None \
        and amb.is_iso(chain.up[(0, 1)])

    total = qualifying = 0
    sweep_ok = True
    for G in amb.objects():
        pi = amb.hom(Z1, G)[0]
        for f in amb.hom(G, G):
            total += 1
            r, ch = run_hopfian_construction(amb, M, f, pi, N=3)
            if r.hypotheses_ok:
                qualifying += 1
                if r.conclusion_ok is not True:
                    sweep_ok = False
    dt = time.time() - t0
    conclude(6, "hopfian construction", fixture_ok and sweep_ok,
             f"(fixture stable at {chain.stable_index}; {qualifying}/"
             f"{total} qualifying endos, {dt:.1f}s)")


def test_criterion_7_appendix_suite():
    t0 = time.time()
    gt = group_theory()
    gamb = build_finalg_category(gt, 6, groups_upto(6))
    t = gt.default_t
    chain_ok = is_right_unital(t, list(gamb.objects())) is not None
    flags = _UniformityFlags(gamb, t)
    for h in gamb.morphisms():
        r = flags.report(h)
        if (r.strongly_t_uniform and not r.t_uniform) or \
                (r.t_uniform and not r.weakly_t_uniform):
            chain_ok = False

    grep = verify_uniformity_theorem(gamb)
    groups_ok = grep["part1"]["ok"] and grep["part2"]["ok"] and \
        all(v["ok"] for v in grep["part3"].values() if isinstance(v, dict))

    mamb = build_finalg_category(monoid_theory(), 4, monoids_upto(4))
    mrep = verify_uniformity_theorem(mamb, pullback_cap=10,
                                     rectangle_cap=120000)
    monoids_ok = mrep["part1"]["ok"] and mrep["part2"]["ok"] and \
        all(v["ok"] for v in mrep["part3"].values() if isinstance(v, dict))

    # corollary 1: both class pairs satisfy the protomodularity condition
    proto_ok = True
    for amb, fl in ((gamb, flags), (mamb, _UniformityFlags(mamb))):
        E1 = MorphismClass(amb, "t-uniform-surjections",
                           predicate=lambda h, fl=fl:
                           h.is_surjective() and fl.report(h).t_uniform)
        M1 = MorphismClass(amb, "injections",
                           predicate=lambda h: h.is_injective())
        if not check_protomodularity_pair(amb, E1, M1).satisfied:
            proto_ok = False
        E2 = MorphismClass(amb, "weakly-t-uniform",
                           predicate=lambda h, fl=fl:
                           fl.report(h).weakly_t_uniform)
        M2 = MorphismClass(amb, "t-cancelative-surjections",
                           predicate=lambda h, fl=fl:
                           h.is_surjective() and fl.report(h).t_cancelative)
        if not check_protomodularity_pair(amb, E2, M2).satisfied:
            proto_ok = False

    # corollary 2: the monic-pullback equivalence on every hom whose
    # hypotheses hold
    cor2_ok = True
    for amb, fl in ((gamb, flags), (mamb, _UniformityFlags(mamb))):
        for h in amb.morphisms():
            r = fl.report(h)
            if not (r.weakly_t_uniform and r.weakly_t_cancelative):
                continue
            K = sorted(h.preimage(subalgebra_closure(h.tgt, ())))
            restr_inj = len({h(k) for k in K}) == len(K)
            if h.is_injective() != restr_inj:
                cor2_ok = False
    dt = time.time() - t0
    conclude(7, "appendix suite",
             chain_ok and groups_ok and monoids_ok and proto_ok and cor2_ok
             and dt <= 300,
             f"(groups<=6 and monoids<=4, {dt:.1f}s)")


def test_criterion_8_compactness_fixtures(corpus):
    t0 = time.time()
    sub = subgroup_lattice_poset(cyclic_group(8))
    tau = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    v = decide_tau_compact(sub, "u01234567", tau)
    z8_ok = v.compact is False and v.failing is not None \
        and stabilization_small(v.failing) is None

    top = corpus["finite_top"].extra
    C = top.category
    occ = OpenCoverCoverage(top, kappa=2)
    compact = {oid: decide_tau_compact(C, oid, occ).compact
               for oid in sorted(top.spaces)}
    one_pt = compact["X1.0"] is True
    discrete2 = next(o for o, (n, opens) in top.spaces.items()
                     if n == 2 and len(opens) == 4)
    two_ok = compact[discrete2] is False

    surj = [m for m in top.maps if top.is_surjective(m)]
    closure_ok = all(compact[C.tgt(f)] for f in surj if compact[C.src(f)])

    # exercise the full quotient harness on a sample of surjections
    M = corpus["finite_top"].classes["embeddings"]
    harness_ok = True
    sample = [f for f in sorted(surj)
              if compact[C.src(f)] and not C.is_identity(f)][:3]
    for f in sample:
        rep = verify_closure_quotients(C, occ, builtin_class(C, "epis"), M,
                                       f, cap=96, probe_cap=24)
        if rep.counterexample is not None:
            harness_ok = False
    dt = time.time() - t0
    conclude(8, "compactness fixtures",
             z8_ok and one_pt and two_ok and closure_ok and harness_ok,
             f"({len(surj)} quotients checked, {dt:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    # the child imports fincov from this checkout, as the tests do
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "fincov.cli", "suite", "--seed", "7",
             "--cap", "128", "--format", "json"],
            capture_output=True, text=True, check=True, env=env)
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])
    dt = time.time() - t0
    conclude(9, "determinism", identical and len(outputs[0]) > 200,
             f"(3 runs byte-identical, {dt:.1f}s)")
