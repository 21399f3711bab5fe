import pytest

from fincov.algebra import group_theory, monoid_theory
from fincov.algkit import (AlgHom, build_finalg_category,
                           enumerate_normal_subalgebras,
                           verify_uniformity_theorem)
from fincov.coverage import (RuleCoverage, build_chain_type,
                             decide_tau_compact)
from fincov.instances import (abelian_groups_upto, chain_poset, cyclic_group,
                              diamond_lattice, groups_upto, monoids_upto,
                              set_skeleton, subgroup_lattice_poset)
from fincov.morphclass import (FactorizationSystem, MorphismClass,
                               builtin_class, check_factorization_system,
                               check_mono_reflective, explicit_class)
from fincov.protomod import check_protomodularity_pair
from fincov.theorems import (check_tau_well_behaved, generated_system,
                             hopfian_naturality_ok,
                             run_hopfian_construction,
                             run_image_closure_suite,
                             verify_closure_extensions,
                             verify_closure_quotients,
                             verify_closure_subobjects,
                             verify_product_closure)


@pytest.fixture(scope="module")
def abelian4():
    amb = build_finalg_category(group_theory(), 4, abelian_groups_upto(4))
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    FS = check_factorization_system(amb, E, M)
    assert FS
    return amb, E, M, FS


@pytest.fixture(scope="module")
def abelian8():
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(8))
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    return amb, E, M


def obj(amb, name):
    return next(A for A in amb.objects() if A.name == name)


def test_closure_subobjects_sub_z4():
    C = subgroup_lattice_poset(cyclic_group(4))
    M = builtin_class(C, "monos")
    rep = verify_closure_subobjects(C, [build_chain_type(1, 0, "cov")], M)
    assert rep.hypotheses_ok and rep.conclusion_ok is True
    assert rep.counterexample is None


def test_closure_subobjects_isos_vacuous():
    C = diamond_lattice()
    M = builtin_class(C, "isos")
    rep = verify_closure_subobjects(C, [build_chain_type(1, 0, "cov")], M)
    assert rep.conclusion_ok is True


def test_closure_subobjects_set_skeleton():
    sk = set_skeleton(2)
    M = sk.injections()
    rep = verify_closure_subobjects(sk.category,
                                    [build_chain_type(1, 0, "cov")], M,
                                    cap=256)
    assert rep.hypotheses_ok
    assert rep.conclusion_ok is True


def test_closure_quotients_surjection():
    sk = set_skeleton(2)
    C = sk.category
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], sk.injections())
    rep = verify_closure_quotients(C, tau, sk.surjections(),
                                   sk.injections(), "f2>1:00", cap=256)
    assert rep.hypotheses_ok
    assert rep.conclusion_ok is True
    assert rep.details["bundle"] == "stably-extremal"


def test_closure_quotients_iso_immediate():
    C = diamond_lattice()
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    rep = verify_closure_quotients(C, tau, builtin_class(C, "isos"), M,
                                   "o1<o1", cap=256)
    assert rep.hypotheses_ok and rep.conclusion_ok is True


def test_closure_quotients_hypothesis_failure():
    C = chain_poset(1)
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    rep = verify_closure_quotients(C, tau, builtin_class(C, "identities"),
                                   M, "o0<o1", cap=64)
    assert not rep.hypotheses_ok
    assert rep.conclusion_ok is None and rep.counterexample is None


def test_closure_extensions_short_exact(abelian8):
    amb, E, M = abelian8
    Z4, Z2, Z1 = obj(amb, "Z4"), obj(amb, "Z2"), obj(amb, "Z1")
    tau = RuleCoverage([build_chain_type(2, 2, "cov")], M)
    f = next(h for h in amb.hom(Z4, Z2) if h.is_surjective())
    phi = amb.hom(Z1, Z2)[0]
    square = amb.find_pullback(f, phi)
    assert square.apex.size == 2  # the kernel of the quotient map
    rep = verify_closure_extensions(amb, tau, E, M, square, cap=48,
                                    probe_cap=200)
    assert rep.hypotheses_ok
    assert rep.conclusion_ok is True


def test_closure_extensions_iso_reduces_to_subobject():
    C = diamond_lattice()
    M = builtin_class(C, "monos")
    E = builtin_class(C, "isos")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    square = C.find_pullback("o1<o1", "oa<o1")
    rep = verify_closure_extensions(C, tau, E, M, square, cap=128)
    assert rep.hypotheses_ok
    assert rep.conclusion_ok is True


def test_closure_extensions_set_skeleton_hypothesis_failure():
    sk = set_skeleton(2)
    C = sk.category
    E = explicit_class(C, "retractions",
                       [m for m in C.morphisms() if C.is_retraction(m)])
    M = builtin_class(C, "all")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], "monos")
    square = C.find_pullback("f2>1:00", "f1>1:0")
    rep = verify_closure_extensions(C, tau, E, M, square, cap=64)
    assert not rep.hypotheses_ok
    failed = [n for n, ok, _ in rep.hypotheses if ok is not True]
    assert any("protomodularity" in n for n in failed)
    assert rep.counterexample is None


def test_protomodularity_hypothesis_not_shared_between_same_named_classes():
    # two explicit classes named "M" on one category: the second check must
    # see its own class, not the verdict cached for the first
    C = set_skeleton(2).category
    E = builtin_class(C, "retractions")
    every = explicit_class(C, "M", C.morphisms())
    ids = explicit_class(C, "M", [C.identity(o) for o in C.objects()])
    square = C.find_pullback("f0>1:", C.identity("S1"))
    verdicts = []
    for M in (every, ids):
        tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
        rep = verify_closure_extensions(C, tau, E, M, square, cap=64)
        verdicts.append(next(ok for name, ok, _ in rep.hypotheses
                             if name == "(E, M) protomodularity"))
    assert verdicts == [check_protomodularity_pair(C, E, every).satisfied,
                        check_protomodularity_pair(C, E, ids).satisfied]
    assert verdicts == [False, True]


def test_subordination_by_construction_needs_the_class_object():
    """A chain[1]k0 coverage over the builtin monos is subordinated to
    them by construction, but not to an identities-only class that is
    also named "monos": the hypothesis then enumerates the coverings and
    reports the first one with a leg outside the class, as the reference
    enumeration finds it."""
    import oracles
    from fincov.coverage import check_subordination
    C = set_skeleton(2).category
    monos = builtin_class(C, "monos")
    ids = explicit_class(C, "monos", [C.identity(o) for o in C.objects()])
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], monos)
    want = None
    for c in sorted(C.objects(), key=str):
        for cov in oracles.rule_coverings(C, c, tau.J, monos)[0]:
            good, i = check_subordination(cov, ids)
            if not good:
                want = (cov.key(), i)
                break
        if want is not None:
            break
    assert want is not None
    f = C.identity("S1")
    got = []
    for M in (monos, ids):
        rep = verify_closure_quotients(C, tau, builtin_class(C, "isos"), M,
                                       f, cap=64)
        got.append(next((ok, wit) for name, ok, wit in rep.hypotheses
                        if name == "tau subordinated to M"))
    assert got == [(True, "by construction"), (False, want)]


def test_tau_well_behaved_abelian(abelian4):
    amb, E, M, FS = abelian4
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    rep = check_tau_well_behaved(amb, tau, E, M, cap=128, FS=FS)
    assert rep.well_behaved


def test_tau_well_behaved_trivial_E():
    C = diamond_lattice()
    E = builtin_class(C, "isos")
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    rep = check_tau_well_behaved(C, tau, E, M, cap=64)
    assert rep.well_behaved


def test_tau_well_behaved_set_skeleton_fails():
    sk = set_skeleton(2)
    C = sk.category
    E = explicit_class(C, "retractions",
                       [m for m in C.morphisms() if C.is_retraction(m)])
    M = builtin_class(C, "all")
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    rep = check_tau_well_behaved(C, tau, E, M, cap=64)
    assert not rep.well_behaved
    failing = [n for n, ok, _ in rep.conditions if not ok]
    assert any("protomodularity" in n for n in failing)


def test_product_closure_z2_z2(abelian8):
    amb, E, M = abelian8
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    Z2 = obj(amb, "Z2")
    rep = verify_product_closure(amb, tau, E, M, Z2, Z2, cap=512, FS=FS,
                                 probe_cap=200)
    assert rep.hypotheses_ok
    assert rep.conclusion_ok is True


def test_product_closure_with_zero_factor(abelian8):
    amb, E, M = abelian8
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    Z1, Z2 = obj(amb, "Z1"), obj(amb, "Z2")
    rep = verify_product_closure(amb, tau, E, M, Z1, Z2, cap=512, FS=FS,
                                 probe_cap=200)
    assert rep.hypotheses_ok and rep.conclusion_ok is True


def test_product_closure_non_pointed_poset():
    C = chain_poset(1)
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    rep = verify_product_closure(C, tau, builtin_class(C, "isos"), M,
                                 "o0", "o1", cap=64)
    assert not rep.hypotheses_ok
    assert rep.hypotheses[0][0] == "zero object exists"


def test_hopfian_z4_multiplication_by_three(abelian8):
    amb, E, M = abelian8
    Z4, Z1 = obj(amb, "Z4"), obj(amb, "Z1")
    f = AlgHom(Z4, Z4, (0, 3, 2, 1))
    pi0 = amb.hom(Z1, Z4)[0]
    rep, chain = run_hopfian_construction(amb, M, f, pi0, N=4)
    assert rep.hypotheses_ok and rep.conclusion_ok is True
    assert chain.stable_index == 0
    assert hopfian_naturality_ok(amb, chain)


def test_hopfian_identity_trivial():
    C = diamond_lattice()
    M = builtin_class(C, "monos")
    rep, chain = run_hopfian_construction(C, M, "o1<o1", "oa<o1", N=3)
    assert rep.hypotheses_ok and rep.conclusion_ok is True
    assert C.is_iso(chain.up[(0, 1)])


def test_hopfian_non_surjective_hypothesis_failure(abelian8):
    amb, E, M = abelian8
    Z4, Z1 = obj(amb, "Z4"), obj(amb, "Z1")
    g = AlgHom(Z4, Z4, (0, 2, 0, 2))
    pi0 = amb.hom(Z1, Z4)[0]
    rep, chain = run_hopfian_construction(amb, M, g, pi0, N=4)
    assert not rep.hypotheses_ok
    assert any("sections-extremal" in n for n, ok, _ in rep.hypotheses
               if ok is False)


def test_hopfian_fixed_point_fails_without_composing(abelian8):
    """f not an endomorphism, or pi0 not landing in src(f): "pi0 fixed
    point" fails as a hypothesis, with f . pi0 never composed, where it
    used to raise CompositionError."""
    amb, E, M = abelian8
    Z1, Z2, Z4 = obj(amb, "Z1"), obj(amb, "Z2"), obj(amb, "Z4")
    cases = [(amb.hom(Z2, Z4)[1], amb.hom(Z1, Z4)[0], False),
             (amb.hom(Z4, Z4)[1], amb.hom(Z1, Z2)[0], True)]
    for f, pi0, endo in cases:
        rep, chain = run_hopfian_construction(amb, M, f, pi0, N=4)
        assert chain is None and not rep.hypotheses_ok
        assert rep.hypotheses[0][:2] == ("f endomorphism", endo)
        assert rep.hypotheses[2][:2] == ("pi0 fixed point", False)
        assert rep.conclusion_ok is None


def test_noetherian_implies_hopfian_on_groups(abelian8):
    # every qualifying endomorphism of a finite group yields an isomorphic
    # pullback; exercises the full pipeline even though finiteness makes
    # the conclusion automatic
    amb, E, M = abelian8
    checked = 0
    for G in amb.objects():
        if G.size > 4:
            continue
        Z1 = obj(amb, "Z1")
        pi0 = amb.hom(Z1, G)[0]
        for f in amb.hom(G, G):
            rep, chain = run_hopfian_construction(amb, M, f, pi0, N=3)
            if rep.hypotheses_ok:
                checked += 1
                assert rep.conclusion_ok is True
    assert checked > 5


def test_x_times_y_iso_x_forces_y_trivial(abelian8):
    # x Noetherian mono-reflective and x ~ x*y forces y ~ 0: on finite
    # carriers |x|*|y| = |x| forces |y| = 1; the checker still verifies
    # mono-reflectivity and the product construction honestly
    amb, E, M = abelian8
    for xname in ("Z2", "Z4", "V4"):
        x = obj(amb, xname)
        assert check_mono_reflective(amb, x)["reflective"]
        for y in amb.objects():
            if y.size * x.size > amb.size_cap:
                continue
            ta = amb.hom(x, obj(amb, "Z1"))[0]
            tb = amb.hom(y, obj(amb, "Z1"))[0]
            prod = amb.find_pullback(ta, tb)
            from fincov.algkit import find_isomorphism
            if find_isomorphism(prod.apex, x) is not None:
                assert y.size == 1


def test_image_closure_trivial_K():
    sk = set_skeleton(2)
    C = sk.category
    FS = check_factorization_system(C, sk.surjections(), sk.injections())
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], sk.injections())
    K = explicit_class(C, "isos", [m for m in C.morphisms() if C.is_iso(m)])
    parts = run_image_closure_suite(C, FS, tau, K, cap=512)
    kbar = generated_system(C, K)
    assert set(kbar.member_list()) == {m for m in C.morphisms()
                                       if C.is_iso(m)}
    for part in ("part1", "part2", "part3", "part4"):
        assert parts[part].conclusion_ok is True, part


def test_image_closure_abelian_monos(abelian4):
    amb, E, M, FS = abelian4
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    parts = run_image_closure_suite(amb, FS, tau, M, cap=2000)
    for part in ("part1", "part2", "part3", "part4"):
        assert parts[part].hypotheses_ok, part
        assert parts[part].conclusion_ok is True, part


def test_image_closure_monoid_part3_hypothesis_failure():
    mon = build_finalg_category(monoid_theory(), 4, monoids_upto(4))
    E = builtin_class(mon, "surjections")
    M = builtin_class(mon, "injections")
    FS = FactorizationSystem(mon, E, M, {})  # lazily filled table
    ncache = {}

    def normals(A):
        if id(A) not in ncache:
            ncache[id(A)] = set(map(frozenset,
                                    enumerate_normal_subalgebras(A)))
        return ncache[id(A)]

    members = [h for h in mon.morphisms()
               if h.is_injective() and frozenset(h.images) in normals(h.tgt)]
    K = MorphismClass(mon, "normal-monos", members=members)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    parts = run_image_closure_suite(mon, FS, tau, K, cap=3000,
                                    coverage_morphism_cap=25)
    part3 = parts["part3"]
    assert not part3.hypotheses_ok
    name, ok, wit = part3.hypotheses[0]
    assert name == "K closed under images along E" and ok is False
    assert part3.conclusion_ok is None


def test_uniformity_theorem_small_groups():
    amb = build_finalg_category(group_theory(), 4, groups_upto(4))
    rep = verify_uniformity_theorem(amb)
    assert rep["part1"]["ok"] and rep["part2"]["ok"]
    assert all(v["ok"] for k, v in rep["part3"].items()
               if isinstance(v, dict))


def test_noetherian_surjective_uniform_endo_is_iso():
    # surjective weakly-uniform weakly-cancelative endos of finite algebras
    # are bijective; the full chain pipeline must agree
    from fincov.algkit import classify_uniformity
    amb = build_finalg_category(group_theory(), 4, abelian_groups_upto(4))
    M = builtin_class(amb, "monos")
    Z1 = obj(amb, "Z1")
    for G in amb.objects():
        pi0 = amb.hom(Z1, G)[0]
        for f in amb.hom(G, G):
            if not f.is_surjective():
                continue
            rep = classify_uniformity(f)
            if not (rep.weakly_t_uniform and rep.weakly_t_cancelative):
                continue
            assert amb.is_iso(f)
            hrep, chain = run_hopfian_construction(amb, M, f, pi0, N=3)
            assert hrep.hypotheses_ok and hrep.conclusion_ok is True


def test_master_soundness_no_genuine_counterexamples():
    # across small fixtures: a populated counterexample slot is a defect
    reports = []
    C = subgroup_lattice_poset(cyclic_group(4))
    M = builtin_class(C, "monos")
    for k in (0, 1):
        reports.append(verify_closure_subobjects(
            C, [build_chain_type(1, k, "cov")], M))
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    for f in C.morphisms():
        reports.append(verify_closure_quotients(
            C, tau, builtin_class(C, "isos"), M, f, cap=64))
    for rep in reports:
        assert rep.counterexample is None


def test_artinian_closure_on_random_categories():
    """The descending (Artinian) half: contravariant chains through the
    subobject theorem (chain[1]k0, chain[1]k1, chain[2]k1) and the
    quotient theorem (chain[1]k0 and chain[1]k1, first 12 morphisms) on
    random_category seeds 0-39.  No conclusion fails under verified
    hypotheses; instances whose hypotheses fail are counted apart."""
    from fincov.instances import random_category

    def contr(n, k):
        return build_chain_type(n, k, "contr")

    failures = []
    tally = {"held": 0, "hypothesis failed": 0, "inconclusive": 0}
    for seed in range(40):
        C = random_category(seed, (4, 12))
        M = builtin_class(C, "monos")
        E = builtin_class(C, "isos")
        reports = [verify_closure_subobjects(C, [contr(n, k)], M, cap=2048)
                   for n, k in ((1, 0), (1, 1), (2, 1))]
        for k in (0, 1):
            tau = RuleCoverage([contr(1, k)], M)
            reports += [verify_closure_quotients(C, tau, E, M, f, cap=512)
                        for f in sorted(C.morphisms())[:12]]
        for rep in reports:
            if rep.counterexample is not None:
                failures.append((seed, rep.to_json()))
            elif not rep.hypotheses_ok:
                tally["hypothesis failed"] += 1
            elif rep.conclusion_ok:
                tally["held"] += 1
            else:
                tally["inconclusive"] += 1
    assert failures == []
    assert tally["held"] > 0 and tally["hypothesis failed"] > 0, tally
