import pytest

from fincov.coverage import (ClosedFamilyCoverage, DiagramType,
                             DiagramTypeFailure, ExplicitCoverage,
                             OpenCoverCoverage, RuleCoverage,
                             build_chain_type, build_powerset_type,
                             check_coverage, check_image_compatibility,
                             check_subordination, decide_tau_compact,
                             enumerate_coverings, pullback_covering,
                             stabilization_small, validate_diagram_type)
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              finite_top_category, set_skeleton,
                              subgroup_lattice_poset)
from fincov.morphclass import builtin_class, check_factorization_system
from fincov.variance import standard_variances, validate_mixed_functor


def test_validate_chain_type_directed():
    I = chain_poset(3)
    cov, _ = standard_variances(I)
    dt = validate_diagram_type(I, ["o0", "o1"], cov.cov, cov.contr)
    assert isinstance(dt, DiagramType) and dt.directed


def test_powerset_small_sets_not_directed():
    res = build_powerset_type(["a", "b"], 2)
    assert isinstance(res, DiagramTypeFailure)
    assert res.reason == "non-directed"


def test_powerset_full_smalls_directed():
    dt = build_powerset_type(["a", "b", "c"], 4)
    assert isinstance(dt, DiagramType)
    assert len(dt.smalls) == 8


def test_powerset_singleton_index():
    dt = build_powerset_type(["a"], 2)
    assert isinstance(dt, DiagramType)
    assert dt.smalls == frozenset(dt.I.objects())


def test_chain_type_variants():
    noeth = build_chain_type(3, 1, "cov")
    assert noeth.directed and len(noeth.smalls) == 2
    vac = build_chain_type(3, 3, "cov")
    assert len(vac.smalls) == 4
    art = build_chain_type(2, 0, "contr")
    assert art.variance.contr == frozenset(art.I.morphisms())


def test_enumerate_coverings_counts_pairs():
    # 2-chain subobject lattice: coverings over chain[1] are ordered pairs
    # s <= t of subobjects
    C = chain_poset(1)  # the slice over the top of a 2-chain lattice
    covs, capped = enumerate_coverings(C, "o1", [build_chain_type(1, 1, "cov")],
                                       builtin_class(C, "monos"))
    assert not capped
    assert len(covs) == 3  # (0,0), (0,1), (1,1)


def test_enumerate_coverings_isos_only():
    C = diamond_lattice()
    covs, _ = enumerate_coverings(C, "o1", [build_chain_type(1, 1, "cov")],
                                  builtin_class(C, "isos"))
    # only the constant covering at the identity leg
    assert len(covs) == 1


def test_enumerate_coverings_empty_J():
    C = diamond_lattice()
    covs, _ = enumerate_coverings(C, "o1", [], builtin_class(C, "monos"))
    assert covs == []


def test_check_coverage_stable_M_passes():
    C = diamond_lattice()
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    rep = check_coverage(C, tau, cap=64)
    assert rep.is_coverage is True


def test_check_coverage_nonstable_fails():
    sk = set_skeleton(2)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], "sections")
    rep = check_coverage(sk.category, tau, cap=64)
    assert rep.is_coverage is False
    assert rep.witness


def test_check_coverage_one_morphism_category():
    C = chain_poset(0)
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], "monos")
    rep = check_coverage(C, tau, cap=16)
    assert rep.is_coverage is True


def test_explicit_coverage_missing_pullback_covering():
    C = diamond_lattice()
    tau_full = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    covs_top, _ = tau_full.coverings_of(C, "o1")
    explicit = ExplicitCoverage({"o1": covs_top})  # nothing at oa/ob/o0
    rep = check_coverage(C, explicit, cap=64)
    assert rep.is_coverage is False


def test_subordination_scan():
    C = diamond_lattice()
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], "monos")
    covs, _ = tau.coverings_of(C, "o1")
    M = builtin_class(C, "monos")
    for cov in covs:
        assert check_subordination(cov, M)[0]
    ids = builtin_class(C, "identities")
    bad = [cov for cov in covs
           if not check_subordination(cov, ids)[0]]
    assert bad and check_subordination(bad[0], ids)[1] is not None


def test_image_compat_rule_coverage_with_ofs():
    sk = set_skeleton(2)
    C = sk.category
    E, M = sk.surjections(), sk.injections()
    FS = check_factorization_system(C, E, M)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    for f in sorted(C.morphisms())[::7]:
        rep = check_image_compatibility(C, f, tau, E, M, FS=FS, cap=64)
        assert rep.compatible is True


def test_image_compat_identity():
    C = diamond_lattice()
    E = builtin_class(C, "isos")
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    rep = check_image_compatibility(C, "o1<o1", tau, E, M, cap=64)
    assert rep.compatible is True


def test_image_compat_explicit_too_small():
    C = diamond_lattice()
    E = builtin_class(C, "isos")
    M = builtin_class(C, "monos")
    tau_full = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    covs_a, _ = tau_full.coverings_of(C, "oa")
    explicit = ExplicitCoverage({"oa": covs_a, "o1": []})
    rep = check_image_compatibility(C, "oa<o1", explicit, E, M, cap=64)
    assert rep.compatible is False and rep.witness


def test_z8_lattice_not_compact_with_proper_prefix():
    C = subgroup_lattice_poset(cyclic_group(8))
    tau = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    v = decide_tau_compact(C, "u01234567", tau)
    assert v.compact is False
    assert v.failing is not None
    # the witness re-validates: re-running stabilization finds no small
    assert stabilization_small(v.failing) is None
    assert v.enumerated == 20


def test_z8_lattice_full_smalls_compact():
    C = subgroup_lattice_poset(cyclic_group(8))
    tau = RuleCoverage([build_chain_type(2, 2, "cov")], "monos")
    v = decide_tau_compact(C, "u01234567", tau)
    assert v.compact is True


def test_vacuity_full_smalls_everywhere():
    C = diamond_lattice()
    tau = RuleCoverage([build_chain_type(2, 2, "cov")], "monos")
    for c in C.objects():
        assert decide_tau_compact(C, c, tau).compact is True


def test_smalls_monotonicity():
    C = subgroup_lattice_poset(cyclic_group(4))
    for k in range(2):
        small = RuleCoverage([build_chain_type(2, k, "cov")], "monos")
        large = RuleCoverage([build_chain_type(2, k + 1, "cov")], "monos")
        for c in C.objects():
            vs = decide_tau_compact(C, c, small)
            vl = decide_tau_compact(C, c, large)
            if vs.compact:
                assert vl.compact


def test_compactness_iso_invariance():
    # a preorder with two isomorphic objects: verdicts agree
    from fincov.instances import poset_category
    from fincov.fincat import FinCategory, validate_category
    raw = {
        "objects": ["x", "y", "b"],
        "morphisms": [{"id": "ix", "src": "x", "tgt": "x"},
                      {"id": "iy", "src": "y", "tgt": "y"},
                      {"id": "ib", "src": "b", "tgt": "b"},
                      {"id": "xy", "src": "x", "tgt": "y"},
                      {"id": "yx", "src": "y", "tgt": "x"},
                      {"id": "bx", "src": "b", "tgt": "x"},
                      {"id": "by", "src": "b", "tgt": "y"}],
        "identities": {"x": "ix", "y": "iy", "b": "ib"},
        "composition": [["ix", "ix", "ix"], ["iy", "iy", "iy"],
                        ["ib", "ib", "ib"], ["xy", "ix", "xy"],
                        ["iy", "xy", "xy"], ["yx", "iy", "yx"],
                        ["ix", "yx", "yx"], ["bx", "ib", "bx"],
                        ["ix", "bx", "bx"], ["by", "ib", "by"],
                        ["iy", "by", "by"], ["yx", "xy", "ix"],
                        ["xy", "yx", "iy"], ["xy", "bx", "by"],
                        ["yx", "by", "bx"]],
    }
    C = validate_category(raw)
    assert isinstance(C, FinCategory)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    vx = decide_tau_compact(C, "x", tau)
    vy = decide_tau_compact(C, "y", tau)
    assert vx.compact == vy.compact


def test_pullback_of_covering_is_covering():
    C = diamond_lattice()
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], "monos")
    covs, _ = tau.coverings_of(C, "o1")
    for f in C.morphisms_into("o1"):
        for cov in covs:
            pulled, _ = pullback_covering(C, f, cov)
            assert tau.contains(C, pulled)


@pytest.fixture(scope="module")
def top3():
    return finite_top_category(3)


def test_one_point_space_compact(top3):
    occ = OpenCoverCoverage(top3, kappa=2)
    v = decide_tau_compact(top3.category, "X1.0", occ)
    assert v.compact is True


def test_two_point_discrete_not_compact(top3):
    occ = OpenCoverCoverage(top3, kappa=2)
    discrete = next(o for o, (n, opens) in top3.spaces.items()
                    if n == 2 and len(opens) == 4)
    v = decide_tau_compact(top3.category, discrete, occ)
    assert v.compact is False
    assert "non-directed-smalls" in v.flags
    # the failing covering is the singleton cover
    fam_size = v.failing.diagram_type.shape_params["size"]
    assert fam_size == 2


def test_empty_space_covered_by_empty_family(top3):
    occ = OpenCoverCoverage(top3, kappa=2)
    covs, _ = occ.coverings_of(top3.category, "X0.0")
    assert len(covs) == 1
    assert covs[0].flags == ("empty-family",)
    v = decide_tau_compact(top3.category, "X0.0", occ)
    assert v.compact is True and "empty-family" in v.flags


def test_closed_family_coverage_agrees_with_open(top3):
    occ = OpenCoverCoverage(top3, kappa=2)
    cfc = ClosedFamilyCoverage(top3, kappa=2)
    for oid, (n, _) in sorted(top3.spaces.items()):
        if n > 2:
            continue
        vo = decide_tau_compact(top3.category, oid, occ)
        vc = decide_tau_compact(top3.category, oid, cfc)
        assert vo.compact == vc.compact, oid


def test_open_cover_membership_semantic(top3):
    occ = OpenCoverCoverage(top3, kappa=2)
    covs, _ = occ.coverings_of(top3.category, "X1.0")
    for cov in covs:
        assert occ.contains(top3.category, cov)
    # pullbacks of open-cover coverings stay in the coverage
    C = top3.category
    for f in C.morphisms_into("X1.0")[:6]:
        for cov in covs:
            pulled, _ = pullback_covering(C, f, cov)
            assert occ.contains(C, pulled)


def test_decide_tau_compact_stops_at_first_failing_covering(monkeypatch):
    import fincov.coverage as coverage
    C = subgroup_lattice_poset(cyclic_group(8))
    tau = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    covs, _ = tau.coverings_of(C, "u01234567")
    first_bad = next(i for i, cov in enumerate(covs)
                     if stabilization_small(cov) is None)
    assert first_bad == 1
    calls = []

    def counting(cov):
        calls.append(cov)
        return stabilization_small(cov)

    monkeypatch.setattr(coverage, "stabilization_small", counting)
    v = decide_tau_compact(C, "u01234567", tau)
    assert len(calls) == first_bad + 1
    assert v.compact is False and v.failing == covs[first_bad]
    # flags and the enumeration count still cover every covering
    assert v.enumerated == len(covs) == 20
    assert len(v.witnesses) == first_bad
    # the memo serves the same coverage again without a scan; a fresh
    # coverage object decides afresh and stops at the same covering
    calls.clear()
    assert decide_tau_compact(C, "u01234567", tau) is v
    assert calls == []
    fresh = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    again = decide_tau_compact(C, "u01234567", fresh)
    assert len(calls) == first_bad + 1
    assert again is not v and again.to_json() == v.to_json()


def test_rule_coverings_memo_returns_one_immutable_result():
    C = chain_poset(1)
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], "monos")
    covs, capped = tau.coverings_of(C, "o1")
    assert isinstance(covs, tuple) and not capped
    again = tau.coverings_of(C, "o1")
    assert again[0] is covs
    # a category built alike gets its own, equal, enumeration
    fresh = chain_poset(1)
    fresh_covs, fresh_capped = tau.coverings_of(fresh, "o1")
    assert fresh_covs is not covs
    assert all(cov.category is fresh for cov in fresh_covs)
    assert [cov.key() for cov in fresh_covs] == [cov.key() for cov in covs]
    assert fresh_capped == capped
    listed, _ = enumerate_coverings(fresh, "o1", tau.J, "monos")
    assert [cov.key() for cov in listed] == [cov.key() for cov in covs]


def test_rule_coverings_memo_keeps_caps_apart():
    C = chain_poset(1)
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], "monos")
    one, capped_one = tau.coverings_of(C, "o1", cap=1)
    full, capped_full = tau.coverings_of(C, "o1")
    assert (len(one), capped_one) == (1, True)
    assert (len(full), capped_full) == (3, False)
    assert tau.coverings_of(C, "o1", cap=1) == (one, True)
    # another coverage with the same shapes has its own entry
    other = RuleCoverage([build_chain_type(1, 1, "cov")], "isos")
    assert len(other.coverings_of(C, "o1")[0]) == 1


def test_closure_extensions_enumerates_each_object_and_cap_once(monkeypatch):
    from fincov.instances import random_category
    from fincov.theorems import verify_closure_extensions
    C = random_category(0, (4, 12))
    M = builtin_class(C, "monos")
    E = builtin_class(C, "isos")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    square = C.find_pullback("r0>1", "r0>1")
    seen = []
    real = RuleCoverage._enumerate

    def counting(self, C_, c, cap):
        seen.append((c, cap))
        return real(self, C_, c, cap)

    monkeypatch.setattr(RuleCoverage, "_enumerate", counting)
    first = verify_closure_extensions(C, tau, E, M, square, cap=64)
    enumerated = list(seen)
    second = verify_closure_extensions(C, tau, E, M, square, cap=64)
    assert second.to_json() == first.to_json()
    assert first.hypotheses_ok and first.conclusion_ok is True
    assert sorted(enumerated) == [("o0", 64), ("o1", 64)]
    assert seen == enumerated


# ---------------------------------------------------------------------------
# depth-first covering enumeration against generate-and-test
# ---------------------------------------------------------------------------

def test_enumerated_coverings_match_generate_and_test():
    """The depth-first enumerator yields the coverings of the plain
    product-and-validate loop, in its order and with equal maps, on the
    closure harness categories."""
    from fincov.coverage import _enumerate_type_coverings
    from fincov.instances import random_category
    import oracles
    types = [build_chain_type(1, 0, "cov"), build_chain_type(1, 1, "cov"),
             build_chain_type(2, 1, "cov"), build_chain_type(2, 2, "cov"),
             build_chain_type(2, 0, "contr")]
    total = 0
    for seed in range(64):
        C = random_category(seed, (4, 12))
        for name in ("monos", "all"):
            M = builtin_class(C, name)
            for dt in types:
                for c in sorted(C.objects()):
                    got = list(_enumerate_type_coverings(C, c, dt, M))
                    want = oracles.type_coverings(C, c, dt, M)
                    where = (seed, name, dt.name, c)
                    assert [(cov.functor.obj_map,
                             list(cov.functor.mor_map.items()))
                            for cov in got] == \
                        [(cov.functor.obj_map,
                          list(cov.functor.mor_map.items()))
                         for cov in want], where
                    for cov in got:
                        assert validate_mixed_functor(cov.functor) is None, \
                            where
                    total += len(got)
    assert total > 10000


def test_enumerated_coverings_match_generate_and_test_mixed_variances():
    """Where hexagon laws reject candidates: a target with parallel arrows
    (sets <= 2, M = all) and index variances with non-identity arrows on
    both sides of a factorization (a grid of a covariant and a
    contravariant chain, and the Klein four-group)."""
    from fincov.coverage import _enumerate_type_coverings
    from fincov.instances import grid_variance, klein_variance
    import oracles
    types = [build_chain_type(2, 1, "cov"), build_chain_type(2, 0, "contr")]
    for v, name in ((grid_variance(1, 1), "grid1x1"),
                    (klein_variance(), "klein")):
        types.append(DiagramType(v.category, v.category.objects(), v,
                                 name=name))
    C = set_skeleton(2).category
    for name in ("monos", "all"):
        M = builtin_class(C, name)
        for dt in types:
            for c in sorted(C.objects()):
                got = [(cov.functor.obj_map, list(cov.functor.mor_map.items()))
                       for cov in _enumerate_type_coverings(C, c, dt, M)]
                want = [(cov.functor.obj_map,
                         list(cov.functor.mor_map.items()))
                        for cov in oracles.type_coverings(C, c, dt, M)]
                assert got == want, (name, dt.name, c)


def test_induced_open_and_closed_coverings_are_functors(top3):
    """Open-cover and closed-family coverings are functors of their
    powerset variance by construction; validate them here."""
    for kind in (OpenCoverCoverage, ClosedFamilyCoverage):
        tau = kind(top3, kappa=2)
        for oid, (n, _) in sorted(top3.spaces.items()):
            if n > 2:
                continue
            covs, _ = tau.coverings_of(top3.category, oid)
            assert covs
            for cov in covs:
                assert validate_mixed_functor(cov.functor) is None, \
                    (kind.__name__, oid)


def test_chain_and_powerset_types_share_one_variance_build(monkeypatch):
    import fincov.coverage as coverage
    built = []
    real = coverage.standard_variances

    def counting(I):
        built.append(I.name)
        return real(I)

    monkeypatch.setattr(coverage, "_shape_cache", {})
    monkeypatch.setattr(coverage, "_powerset_cache", {})
    monkeypatch.setattr(coverage, "standard_variances", counting)
    a = build_chain_type(2, 0, "cov")
    b = build_chain_type(2, 1, "contr")
    assert a.I is b.I and built == ["chain2"]
    assert a.variance.cov == frozenset(a.I.morphisms())
    assert b.variance.contr == frozenset(b.I.morphisms())
    for kappa in (1, 2, 3):
        for direction in ("cov", "contr"):
            coverage._powerset_type_relaxed(2, kappa, direction)
    assert built == ["chain2", "P(2)"]


# ---------------------------------------------------------------------------
# coverings handed out cannot be changed by the caller
# ---------------------------------------------------------------------------

def test_coverings_of_returns_tuples_callers_cannot_change(top3):
    C = top3.category
    diamond = diamond_lattice()
    listed, _ = RuleCoverage([build_chain_type(1, 0, "cov")],
                             "monos").coverings_of(diamond, "o1")
    cases = [(OpenCoverCoverage(top3, kappa=2), C, "X1.0"),
             (ClosedFamilyCoverage(top3, kappa=2), C, "X1.0"),
             (ExplicitCoverage({"o1": list(listed)}), diamond, "o1")]
    for tau, cat, obj in cases:
        covs, capped = tau.coverings_of(cat, obj)
        assert isinstance(covs, tuple) and covs and not capped
        keys = [cov.key() for cov in covs]
        with pytest.raises(TypeError):
            covs[0] = None
        with pytest.raises(AttributeError):
            covs.append(covs[0])
        again, _ = tau.coverings_of(cat, obj)
        assert [cov.key() for cov in again] == keys
        head, hit = tau.coverings_of(cat, obj, cap=1)
        assert isinstance(head, tuple) and len(head) == 1
        assert hit is (len(keys) > 1)


# ---------------------------------------------------------------------------
# memoized compactness and image compatibility verdicts
# ---------------------------------------------------------------------------

def test_compactness_memo_shares_one_verdict_per_coverage_object_and_cap():
    C = subgroup_lattice_poset(cyclic_group(8))
    tau = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    v = decide_tau_compact(C, "u01234567", tau)
    assert decide_tau_compact(C, "u01234567", tau) is v
    assert isinstance(v.witnesses, tuple)
    capped = decide_tau_compact(C, "u01234567", tau, cap=1)
    assert capped is not v and capped.capped and capped.enumerated == 1
    assert decide_tau_compact(C, "u01234567", tau, cap=1) is capped
    other = RuleCoverage([build_chain_type(2, 0, "cov")], "monos")
    w = decide_tau_compact(C, "u01234567", other)
    assert w is not v and w.to_json() == v.to_json()
    # a category built alike gets its own, equal, verdict
    twin = subgroup_lattice_poset(cyclic_group(8))
    t = decide_tau_compact(twin, "u01234567", tau)
    assert t is not v and t.to_json() == v.to_json()
    assert t.failing.category is twin


def test_image_compatibility_memo_keys_fs_cap_and_coverage():
    sk = set_skeleton(2)
    C = sk.category
    E, M = sk.surjections(), sk.injections()
    FS = check_factorization_system(C, E, M)
    FS2 = check_factorization_system(C, E, M)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    f = sorted(C.morphisms())[7]
    rep = check_image_compatibility(C, f, tau, E, M, FS=FS, cap=64)
    assert rep.compatible is True
    assert check_image_compatibility(C, f, tau, E, M, FS=FS, cap=64) is rep
    for kwargs in ({"FS": FS2, "cap": 64}, {"FS": None, "cap": 64},
                   {"FS": FS, "cap": 1}):
        other = check_image_compatibility(C, f, tau, E, M, **kwargs)
        assert other is not rep, kwargs
        assert check_image_compatibility(C, f, tau, E, M, **kwargs) is other
    fresh = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    again = check_image_compatibility(C, f, fresh, E, M, FS=FS, cap=64)
    assert again is not rep and again.to_json() == rep.to_json()
    # the memo holds FS itself, so its id cannot be reused while keyed
    del FS2
    assert check_image_compatibility(C, f, tau, E, M, FS=FS, cap=64) is rep


def test_verdict_memos_dropped_when_the_ambient_grows():
    from fincov.algkit import build_finalg_category, group_theory
    from fincov.morphclass import FactorizationSystem
    amb = build_finalg_category(group_theory(), 4,
                                [cyclic_group(n) for n in (1, 2)])
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    Z1, Z2 = sorted(amb.objects(), key=lambda A: A.size)
    f = amb.hom(Z2, Z1)[0]
    v = decide_tau_compact(amb, Z2, tau, cap=64)
    r = check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
    assert decide_tau_compact(amb, Z2, tau, cap=64) is v
    assert check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64) is r
    amb.register(cyclic_group(4))
    v2 = decide_tau_compact(amb, Z2, tau, cap=64)
    r2 = check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
    assert v2 is not v and v2.to_json() == v.to_json()
    assert r2 is not r and r2.to_json() == r.to_json()
