import pytest

from fincov.coverage import (ClosedFamilyCoverage, Covering, DiagramType,
                             DiagramTypeFailure, ExplicitCoverage,
                             OpenCoverCoverage, RuleCoverage,
                             build_chain_type, build_powerset_type,
                             check_coverage, check_image_compatibility,
                             check_subordination, decide_tau_compact,
                             enumerate_coverings, pullback_covering,
                             stabilization_small, validate_diagram_type)
from fincov.fincat import slice_view
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              finite_top_category, set_skeleton,
                              subgroup_lattice_poset)
from fincov.morphclass import builtin_class, check_factorization_system
from fincov.variance import (MixedFunctor, standard_variances,
                             validate_mixed_functor)


def test_validate_chain_type_directed():
    I = chain_poset(3)
    cov, _ = standard_variances(I)
    dt = validate_diagram_type(I, ["o0", "o1"], cov.cov, cov.contr)
    assert isinstance(dt, DiagramType) and dt.directed


def test_unknown_smalls_witness_does_not_depend_on_hash_seed():
    """Smalls that are not index objects are listed in sorted order, so
    two hash seeds give the same witness."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    code = ("from fincov.coverage import validate_diagram_type\n"
            "from fincov.instances import chain_poset\n"
            "from fincov.variance import standard_variances\n"
            "I = chain_poset(2)\n"
            "cov, _ = standard_variances(I)\n"
            "print(validate_diagram_type(I, ['o0', 'x', 'y', 'z', 'w', 'v'],"
            " cov.cov, cov.contr).witness)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == ["('v', 'w', 'x', 'y', 'z')\n"] * 2


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


@pytest.mark.parametrize("direction", ["sideways", "Cov", "", None])
def test_unknown_direction_is_rejected(direction):
    """Both builders raise ValueError on a direction other than "cov" or
    "contr" instead of reading it as contravariant."""
    with pytest.raises(ValueError, match="direction must be"):
        build_chain_type(2, 0, direction)
    with pytest.raises(ValueError, match="direction must be"):
        build_powerset_type(["a", "b"], 3, direction)


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


def test_empty_family_covers_only_the_empty_space(top3):
    """The empty family combines to the whole space under intersection, so
    a closed-family covering of size 0 over a nonempty space is not one."""
    C = top3.category
    for tau in (OpenCoverCoverage(top3, kappa=2),
                ClosedFamilyCoverage(top3, kappa=2)):
        (empty,), _ = tau.coverings_of(C, "X0.0")
        assert empty.flags == ("empty-family",) and tau.contains(C, empty)
        dt = empty.diagram_type
        for c in ("X1.0", "X2.0"):
            ident = C.identity(c)
            F = MixedFunctor(dt.variance, slice_view(C, c), {"s_": ident},
                             {k: (ident, ident, ident)
                              for k in dt.I.morphisms()})
            assert validate_mixed_functor(F) is None
            cov = Covering(C, c, dt, F, ("empty-family",))
            assert not tau.contains(C, cov), (tau.name, c)
            covs, _ = tau.coverings_of(C, c)
            assert all(cv.diagram_type.shape_params["size"] for cv in covs)


def _families(top, cov):
    """The sets a topological covering is induced by: its singleton legs'
    images."""
    k = cov.diagram_type.shape_params["size"]
    return frozenset(top.image_mask(cov.leg(f"s{i}")) for i in range(k))


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_topological_compactness_matches_bitmask_oracle(top3, kappa):
    import oracles
    C = top3.category
    for kind in (OpenCoverCoverage, ClosedFamilyCoverage):
        tau = kind(top3, kappa=kappa)
        for c in sorted(top3.spaces):
            n, opens = top3.spaces[c]
            want = oracles.space_compact(n, opens, kappa,
                                         closed=kind is ClosedFamilyCoverage)
            assert decide_tau_compact(C, c, tau).compact is want, \
                (tau.name, c)


def test_closed_families_are_complements_of_open_covers(top3):
    import oracles
    C = top3.category
    occ = OpenCoverCoverage(top3, kappa=2)
    cfc = ClosedFamilyCoverage(top3, kappa=2)
    for c in sorted(top3.spaces):
        n, opens = top3.spaces[c]
        full = (1 << n) - 1
        covers = {_families(top3, cov) for cov in occ.coverings_of(C, c)[0]}
        closed = {_families(top3, cov) for cov in cfc.coverings_of(C, c)[0]}
        assert covers == oracles.space_covers(n, opens), c
        assert closed == oracles.space_covers(n, opens, closed=True), c
        assert closed == {frozenset(full ^ u for u in fam)
                          for fam in covers}, c


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
                    got = RuleCoverage([dt], M).coverings_of(C, c)[0]
                    want = oracles.type_coverings(C, c, dt, M)
                    where = (seed, name, dt.name, c)
                    assert [(cov.functor.obj_map,
                             list(cov.functor.mor_map.items()))
                            for cov in got] == \
                        [(cov.functor.obj_map,
                          list(cov.functor.mor_map.items()))
                         for cov in want], where
                    for cov in got:
                        assert oracles.mixed_functor_violation(
                            cov.functor) is None, where
                    total += len(got)
    assert total > 10000


def test_enumerated_coverings_match_generate_and_test_mixed_variances():
    """Where hexagon laws reject candidates: a target with parallel arrows
    (sets <= 2, M = all) and index variances with non-identity arrows on
    both sides of a factorization (a grid of a covariant and a
    contravariant chain, and the Klein four-group)."""
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
                       for cov in RuleCoverage([dt], M).coverings_of(C, c)[0]]
                want = [(cov.functor.obj_map,
                         list(cov.functor.mor_map.items()))
                        for cov in oracles.type_coverings(C, c, dt, M)]
                assert got == want, (name, dt.name, c)


def test_induced_open_and_closed_coverings_are_functors(top3):
    """Open-cover and closed-family coverings are functors of their
    powerset variance by construction; check them here against the
    reference statement of the laws, on every space."""
    import oracles
    for kind in (OpenCoverCoverage, ClosedFamilyCoverage):
        tau = kind(top3, kappa=2)
        for oid in sorted(top3.spaces):
            covs, _ = tau.coverings_of(top3.category, oid)
            assert covs
            for cov in covs:
                assert oracles.mixed_functor_violation(cov.functor) is None, \
                    (kind.__name__, oid)


def test_chain_and_powerset_types_share_one_variance_build(monkeypatch):
    import fincov.coverage as coverage
    built = []
    real = coverage.standard_variances

    def counting(I):
        built.append(I.name)
        return real(I)

    monkeypatch.setattr(coverage, "_shape_cache", {})
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
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
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
    assert len(slice_view(amb, Z2).objects()) == 3
    amb.register(cyclic_group(4))
    v2 = decide_tau_compact(amb, Z2, tau, cap=64)
    r2 = check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
    assert v2 is not v and v2.to_json() == v.to_json()
    assert r2 is not r and r2.to_json() == r.to_json()
    # the slice views are dropped too: Z4 brings two more maps into Z2
    assert len(slice_view(amb, Z2).objects()) == 5


# ---------------------------------------------------------------------------
# image compatibility against the covering-by-covering reference
# ---------------------------------------------------------------------------

def _report_fields(rep):
    return (rep.compatible, rep.witness, rep.checked, rep.capped,
            rep.to_json())


def test_image_compatibility_matches_reference_on_harness_categories():
    """The search path (no factorization system) on the closure
    harness's categories: the first 8 morphisms of each, E = isos with
    M = monos (all compatible) and M = isos (the non-isos fail), the
    latter also over a coverage subordinated to monos only."""
    import oracles
    from fincov.instances import random_category
    verdicts = set()
    for C in (random_category(s, (4, 12)) for s in range(64)):
        E = builtin_class(C, "isos")
        monos = builtin_class(C, "monos")
        for tau_M, M in ((monos, monos), (E, E), (monos, E)):
            tau = RuleCoverage([build_chain_type(1, 1, "cov")], tau_M)
            for f in sorted(C.morphisms())[:8]:
                got = check_image_compatibility(C, f, tau, E, M, cap=512)
                want = oracles.image_compatibility(C, f, tau, E, M,
                                                   cap=512)
                assert _report_fields(got) == _report_fields(want), \
                    (C.name, tau_M.name, M.name, f)
                verdicts.add(got.compatible)
    assert verdicts == {True, False}


def test_image_compatibility_matches_reference_on_abelian_ambient():
    """The image path with the closure harness's factorization system,
    for every surjection out of a group of order at most 4."""
    import oracles
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    from fincov.morphclass import FactorizationSystem
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    roster = list(amb.objects())
    surjections = [f for G in roster if G.size <= 4 for H in roster
                   for f in amb.hom(G, H) if f.is_surjective()]
    verdicts = set()
    for f in surjections:
        got = check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
        want = oracles.image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
        assert _report_fields(got) == _report_fields(want), f
        verdicts.add(got.compatible)
    assert len(surjections) == 20 and verdicts == {True, None}
    assert len(amb.objects()) == len(roster)


def test_image_compatibility_matches_reference_with_non_mono_images():
    """With E = isos and M = all on Set_2, coverings that differ only in
    their connecting arrows push forward to equal object legs, so only
    the arrow legs tell their lifts and image functors apart."""
    import oracles
    C = set_skeleton(2).category
    E = builtin_class(C, "isos")
    M = builtin_class(C, "all")
    FS = check_factorization_system(C, E, M)
    for dt in (build_chain_type(1, 0, "cov"), build_chain_type(2, 1, "contr")):
        tau = RuleCoverage([dt], M)
        for f in sorted(C.morphisms()):
            got = check_image_compatibility(C, f, tau, E, M, FS=FS, cap=512)
            want = oracles.image_compatibility(C, f, tau, E, M, FS=FS,
                                               cap=512)
            assert _report_fields(got) == _report_fields(want), (dt.name, f)


def test_image_compatibility_matches_reference_on_grown_ambient():
    """After product closure registers Z2 x Z3, an order-6 object new to
    the ambient, every surjection out of it gets the reference's
    report."""
    import oracles
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    from fincov.morphclass import FactorizationSystem
    from fincov.theorems import verify_product_closure
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    FS = FactorizationSystem(amb, E, M, {})
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    roster = list(amb.objects())
    Z2, Z3 = (next(A for A in roster if A.name == n) for n in ("Z2", "Z3"))
    verify_product_closure(amb, tau, E, M, Z2, Z3, cap=64, FS=FS,
                           probe_cap=60)
    new = [A for A in amb.objects() if A not in roster]
    assert [A.size for A in new] == [6]
    surjections = [f for B in amb.objects() for f in amb.hom(new[0], B)
                   if f.is_surjective()]
    for f in surjections:
        got = check_image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
        want = oracles.image_compatibility(amb, f, tau, E, M, FS=FS, cap=64)
        assert _report_fields(got) == _report_fields(want), f
        assert got.checked > 1
    assert len(surjections) == 6


def test_image_compatibility_matches_reference_where_the_search_decides():
    """Inputs where the search, not the image covering, gives the
    verdict: no factorization system, and a system whose E-parts are not
    all in the question's E (surjections against E = isos)."""
    import oracles
    sk = set_skeleton(2)
    C = sk.category
    isos = builtin_class(C, "isos")
    FS = check_factorization_system(C, sk.surjections(), sk.injections())
    verdicts = set()
    for dt in (build_chain_type(1, 0, "cov"), build_chain_type(2, 1, "contr")):
        for fs, M in ((None, builtin_class(C, "all")),
                      (FS, sk.injections())):
            tau = RuleCoverage([dt], M)
            for f in sorted(C.morphisms()):
                got = check_image_compatibility(C, f, tau, isos, M, FS=fs,
                                                cap=512)
                want = oracles.image_compatibility(C, f, tau, isos, M,
                                                   FS=fs, cap=512)
                assert _report_fields(got) == _report_fields(want), \
                    (dt.name, M.name, f)
                verdicts.add(got.compatible)
    assert verdicts == {True, False}


def test_image_table_matches_reference_functors():
    """One ImageTable per question, shared by all its coverings, gives
    each covering the reference's image functor and E-parts (whose
    transformation the reference validates), on Set_2 with non-mono
    images and on the abelian ambient."""
    import oracles
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    from fincov.morphclass import FactorizationSystem
    from fincov.variance import ImageTable
    C = set_skeleton(2).category
    E, M = builtin_class(C, "isos"), builtin_class(C, "all")
    cases = [(C, check_factorization_system(C, E, M), M, dt, f, 512)
             for dt in (build_chain_type(1, 0, "cov"),
                        build_chain_type(2, 1, "contr"))
             for f in sorted(C.morphisms())]
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    Ea = builtin_class(amb, "surjections")
    Ma = builtin_class(amb, "injections")
    FSa = FactorizationSystem(amb, Ea, Ma, {})
    cases += [(amb, FSa, Ma, build_chain_type(1, 1, "cov"), f, 64)
              for G in amb.objects() if G.size <= 4
              for H in amb.objects() for f in amb.hom(G, H)
              if f.is_surjective()]
    checked = 0
    for D, FS, M, dt, f, cap in cases:
        covs, _ = RuleCoverage([dt], M).coverings_of(D, D.src(f), cap=cap)
        table = ImageTable(D, f, FS)
        for cov in covs:
            G, es = table.image(cov.functor)
            ref, eta = oracles.image_induced(D, FS, f, cov.functor)
            assert (G.obj_map, G.mor_map, G.name) == \
                (ref.obj_map, ref.mor_map, ref.name), (f, cov.key())
            assert es == tuple(eta.components[i][0]
                               for i in dt.I.objects()), (f, cov.key())
            checked += 1
    assert checked > 1000


def test_search_naturality_matches_transformation_check():
    """The search checks a candidate combination arrow by arrow; on every
    combination it tries, over every covering and target of Set_2 with
    E = isos and M = all, that equals validating the transformation."""
    import itertools

    from fincov.coverage import _CompatibleSearch
    from fincov.variance import ImageTable, MixedNatTrans, \
        pushforward_functor
    C = set_skeleton(2).category
    E, M = builtin_class(C, "isos"), builtin_class(C, "all")
    verdicts = []
    for dt in (build_chain_type(1, 0, "cov"), build_chain_type(2, 1, "contr")):
        tau = RuleCoverage([dt], M)
        for f in sorted(C.morphisms()):
            search = _CompatibleSearch(C, f, tau, E, M, 512,
                                       ImageTable(C, f))
            objs = sorted(dt.I.objects())
            for cov in tau.coverings_of(C, C.src(f), cap=512)[0]:
                push = pushforward_functor(C, f, cov.functor)
                for gcov in search.targets(dt):
                    legs = gcov.functor.obj_map
                    per_obj = [search.candidates(push.obj_map[i], legs[i])
                               for i in objs]
                    for combo in itertools.product(*per_obj):
                        h = dict(zip(objs, combo))
                        comps = {i: (h[i], push.obj_map[i], legs[i])
                                 for i in objs}
                        want = MixedNatTrans(push, gcov.functor,
                                             comps).validate() is None
                        assert search._natural(cov.functor, gcov.functor,
                                               h) == want
                        verdicts.append(want)
    assert set(verdicts) == {True, False}


def test_image_compatibility_keeps_no_table(monkeypatch):
    """The per-call ImageTable is dropped when the call returns: nothing
    reachable from the category (its memos included) keeps one alive,
    on the image path and on the search path."""
    import gc
    import weakref

    from fincov import coverage
    from fincov.instances import random_category
    tables = []

    class Tracked(coverage.ImageTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(coverage, "ImageTable", Tracked)
    C = set_skeleton(2).category
    E = builtin_class(C, "isos")
    M = builtin_class(C, "all")
    FS = check_factorization_system(C, E, M)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    assert check_image_compatibility(C, "f2>1:00", tau, E, M, FS=FS).compatible
    D = random_category(1, (4, 12))
    monos = builtin_class(D, "monos")
    tau_d = RuleCoverage([build_chain_type(1, 1, "cov")], monos)
    f = sorted(D.morphisms())[0]
    assert check_image_compatibility(D, f, tau_d, builtin_class(D, "isos"),
                                     monos).compatible
    gc.collect()
    assert len(tables) == 2 and all(ref() is None for ref in tables)
    assert "_composites" not in vars(C) and "_composites" not in vars(D)


def test_image_compatibility_factorizes_each_leg_and_lifts_each_square_once(
        monkeypatch):
    """Within one call each object leg's pushforward is factorized once
    per leg and each square's lift searched once, however many coverings
    share them."""
    from collections import Counter

    from fincov import variance
    factorized = Counter()
    lifted = Counter()
    real_lift = variance.ImageTable._unique_lift

    def counting_lift(self, *square):
        lifted[square] += 1
        return real_lift(self, *square)

    monkeypatch.setattr(variance.ImageTable, "_unique_lift", counting_lift)
    C = set_skeleton(2).category
    E = builtin_class(C, "isos")
    M = builtin_class(C, "all")
    FS = check_factorization_system(C, E, M)
    real_factorize = FS.factorize

    def counting_factorize(m):
        factorized[m] += 1
        return real_factorize(m)

    FS.factorize = counting_factorize
    for dt in (build_chain_type(1, 0, "cov"), build_chain_type(2, 1, "contr")):
        tau = RuleCoverage([dt], M)
        for f in sorted(C.morphisms()):
            covs, _ = tau.coverings_of(C, C.src(f), cap=512)
            factorized.clear()
            lifted.clear()
            rep = check_image_compatibility(C, f, tau, E, M, FS=FS, cap=512)
            legs = {cov.leg(i) for cov in covs[:rep.checked]
                    for i in dt.I.objects()}
            assert factorized == Counter(C.compose(f, x) for x in legs), \
                (dt.name, f)
            assert set(lifted.values()) == {1}, (dt.name, f)
            assert rep.checked * len(dt.I.morphisms()) > len(lifted)


def test_image_compatibility_decides_each_piece_once(monkeypatch):
    """Within one call each distinct image functor is validated once,
    when the image table builds it (tau's membership reads the verdict
    kept on the functor), and each target covering is checked for
    subordination at most once: never when M is tau's own subordination
    class, which every covering of tau is subordinated to, and exactly
    once for another class."""
    from collections import Counter

    from fincov import coverage, variance
    from fincov.instances import random_category
    validated = Counter()
    subordinated = Counter()
    real_validate = variance._functor_verdict
    real_subordination = coverage.check_subordination

    def counting_validate(F):
        validated[F.key()] += 1
        return real_validate(F)

    def counting_subordination(cov, M):
        subordinated[id(cov)] += 1
        return real_subordination(cov, M)

    monkeypatch.setattr(variance, "_functor_verdict", counting_validate)
    monkeypatch.setattr(coverage, "check_subordination",
                        counting_subordination)

    # image path: E = isos, M = all on Set_2 (see above)
    C = set_skeleton(2).category
    E = builtin_class(C, "isos")
    M = builtin_class(C, "all")
    FS = check_factorization_system(C, E, M)
    tau = RuleCoverage([build_chain_type(1, 0, "cov")], M)
    f = "f2>1:00"
    covs, _ = tau.coverings_of(C, C.src(f))
    assert check_image_compatibility(C, f, tau, E, M, FS=FS).compatible
    decided = Counter(validated)
    table = variance.ImageTable(C, f, FS)
    images = {table.image(cov.functor)[0].key() for cov in covs}
    assert len(covs) > len(images) > 1
    assert decided == Counter(images)

    # search path: no factorization system, 27 coverings on either side
    C = random_category(1, (4, 12))
    M = builtin_class(C, "monos")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    f = sorted(C.morphisms())[0]
    covs, _ = tau.coverings_of(C, C.src(f))
    targets, _ = tau.coverings_of(C, C.tgt(f))
    subordinated.clear()
    isos = builtin_class(C, "isos")
    assert check_image_compatibility(C, f, tau, isos, M).compatible
    assert len(covs) > 1
    assert tau.subordination_class(C) is M and not subordinated
    check_image_compatibility(C, f, tau, isos, builtin_class(C, "all"))
    assert {id(g): 1 for g in targets} == dict(subordinated)


def test_separately_built_diagram_types_are_equal():
    """Equality short-cuts on identity but still compares separately
    built types by their tables."""
    dt = build_chain_type(2, 1, "cov")
    I = chain_poset(2)
    cov, _ = standard_variances(I)
    twin = DiagramType(I, ["o0", "o1"], cov)
    assert dt == dt and twin is not dt and twin.I is not dt.I
    assert twin == dt and dt == twin and hash(twin) == hash(dt)
    assert DiagramType(I, ["o0"], cov) != dt


# ---------------------------------------------------------------------------
# covering functors shared between diagram types and coverage objects
# ---------------------------------------------------------------------------

def _functor_maps(covs):
    return [(cov.diagram_type, cov.functor.obj_map,
             list(cov.functor.mor_map.items())) for cov in covs]


def _memoized_type_coverings(monkeypatch):
    """Serve repeated reference enumerations of one (C, c, type, M) from a
    dict kept for the test; the reference still enumerates each type
    afresh for every category."""
    import oracles
    real = oracles.type_coverings
    seen = {}

    def memo(C, c, dt, M):
        key = (id(C), c, id(dt), id(M))
        if key not in seen:
            seen[key] = (C, dt, M, real(C, c, dt, M))
        return seen[key][3]

    monkeypatch.setattr(oracles, "type_coverings", memo)


def test_shared_rule_coverings_match_per_type_reference(monkeypatch):
    """Chain types of one shape and direction share one functor sequence
    per object.  Coverings and verdicts still equal the per-type
    reference, byte for byte, for every J list and cap.  The caps run
    from 1 up to uncapped on one category, so a capped coverage stops
    inside a sequence that later coverages extend."""
    import json

    import oracles
    from fincov.instances import group_category, random_category
    _memoized_type_coverings(monkeypatch)
    cats = [chain_poset(3), diamond_lattice(),
            subgroup_lattice_poset(cyclic_group(8)),
            group_category(cyclic_group(2)), group_category(cyclic_group(3))]
    cats += [random_category(seed, (4, 12)) for seed in range(8)]
    Js = []
    for d in ("cov", "contr"):
        types = {(n, k): build_chain_type(n, k, d)
                 for n in range(3) for k in range(n + 1)}
        Js += [[dt] for dt in types.values()]
        Js += [[types[1, 0], types[1, 1]],
               [types[2, 1], types[2, 0], types[2, 2]],
               [types[2, 0], types[1, 1], types[2, 2]]]
    Js.append([build_chain_type(1, 1, "cov"), build_chain_type(1, 1, "contr")])
    checked = capped_inside = 0
    for C in cats:
        M = builtin_class(C, "monos")
        for c in sorted(C.objects()):
            for J in Js:
                full, _ = oracles.rule_coverings(C, c, J, M)
                count = len(full)
                caps = sorted({cap for cap in (1, count - 1, count)
                               if cap >= 1})
                for cap in caps + [None]:
                    got = RuleCoverage(J, M).coverings_of(C, c, cap=cap)
                    want = oracles.rule_coverings(C, c, J, M, cap)
                    where = (C.name, c, [dt.name for dt in J], cap)
                    assert got[1] == want[1], where
                    assert _functor_maps(got[0]) == _functor_maps(want[0]), \
                        where
                    assert all(x.diagram_type is y.diagram_type
                               for x, y in zip(got[0], want[0])), where
                    verdict = decide_tau_compact(C, c, RuleCoverage(J, M),
                                                 cap=cap)
                    assert json.dumps(verdict.to_json()) == json.dumps(
                        oracles.tau_compact(C, c, J, M, cap)), where
                    checked += 1
                    capped_inside += cap is not None and cap < count
    assert checked > 2000 and capped_inside > 900


def test_harness_chain_types_enumerate_each_variance_once(monkeypatch):
    """The four chain types of the closure harness have two variances.
    Deciding every object under each of them, one fresh coverage object
    per type as the harness builds them, enumerates each (variance, M,
    object) once."""
    import collections

    import fincov.coverage as coverage
    from fincov.instances import random_category
    calls = collections.Counter()
    real = coverage._enumerate_functors

    def counting(C, c, V, M):
        calls[id(C), c, V, M] += 1
        return real(C, c, V, M)

    monkeypatch.setattr(coverage, "_enumerate_functors", counting)
    objects = served = 0
    for seed in range(8):
        C = random_category(seed, (4, 12))
        M = builtin_class(C, "monos")
        for n, k in ((1, 0), (1, 1), (2, 1), (2, 2)):
            tau = RuleCoverage([build_chain_type(n, k, "cov")], M)
            for c in C.objects():
                served += decide_tau_compact(C, c, tau, cap=2048).enumerated
        objects += len(C.objects())
    assert set(calls.values()) == {1}
    assert len(calls) == 2 * objects
    assert served > 0


def test_covariant_and_contravariant_chains_do_not_share():
    """chain[1]k0 in the two directions has one index poset but two
    variances.  Over o1 of the two-element chain both fail, at different
    coverings: the index runs from the leg of o0 to that of o1 in one
    direction and back in the other.  Each verdict is its own
    reference's."""
    import oracles
    C = chain_poset(1)
    M = builtin_class(C, "monos")
    cov, contr = (build_chain_type(1, 0, d) for d in ("cov", "contr"))
    assert cov.I is contr.I and cov.variance != contr.variance
    verdicts = [decide_tau_compact(C, "o1", RuleCoverage([dt], M))
                for dt in (cov, contr)]
    assert [v.to_json() for v in verdicts] == \
        [oracles.tau_compact(C, "o1", [dt], M) for dt in (cov, contr)]
    assert verdicts[0].compact is verdicts[1].compact is False
    assert verdicts[0].to_json() != verdicts[1].to_json()
    assert verdicts[0].failing.functor.obj_map == {"o0": "o0<o1",
                                                   "o1": "o1<o1"}
    assert verdicts[1].failing.functor.obj_map == {"o0": "o1<o1",
                                                   "o1": "o0<o1"}


def test_growing_the_ambient_drops_the_shared_functors(monkeypatch):
    """The shared sequences are dropped with the other memos when the
    algebra ambient grows: the next enumeration starts afresh and sees
    the new maps."""
    import fincov.coverage as coverage
    import oracles
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    amb = build_finalg_category(group_theory(), 4,
                                [cyclic_group(n) for n in (1, 2)])
    M = builtin_class(amb, "all")
    J = [build_chain_type(1, 1, "cov")]
    calls = []
    real = coverage._enumerate_functors

    def counting(C, c, V, M_):
        calls.append(c)
        return real(C, c, V, M_)

    monkeypatch.setattr(coverage, "_enumerate_functors", counting)
    Z1, Z2 = sorted(amb.objects(), key=lambda A: A.size)
    before, _ = RuleCoverage(J, M).coverings_of(amb, Z2)
    RuleCoverage(J, M).coverings_of(amb, Z2)
    assert calls == [Z2]
    amb.register(cyclic_group(4))
    after, _ = RuleCoverage(J, M).coverings_of(amb, Z2)
    assert calls == [Z2, Z2]
    want, _ = oracles.rule_coverings(amb, Z2, J, M)
    assert _functor_maps(after) == _functor_maps(want)
    assert len(after) > len(before)


# ---------------------------------------------------------------------------
# the slice hom sets kept per category and anchor
# ---------------------------------------------------------------------------

CORPUS_POSETS = ("poset_2chain", "poset_3chain", "poset_4chain", "diamond",
                 "sub_Z4", "sub_Z8")


def _plain_slice_hom(C, p, q):
    """The h with q.h = p, as the plain loop over the sorted hom set."""
    from fincov.fincat import mor_key
    return [h for h in sorted(C.hom(C.src(p), C.src(q)), key=mor_key)
            if C.compose(q, h) == p]


def _check_slice_hom_sets(C, anchors):
    """Every pair of legs into each anchor: the kept slice hom set is the
    plain loop's, as triangles (h, p, q), and is kept.  Returns the number
    of pairs checked."""
    pairs = 0
    for c in anchors:
        sl = slice_view(C, c)
        legs = C.morphisms_into(c)
        for p in legs:
            for q in legs:
                got = sl.hom_sets[p, q]
                assert [h for h, _, _ in got] == _plain_slice_hom(C, p, q), \
                    (C.name, c, p, q)
                assert all((x, y) == (p, q) for _, x, y in got)
                assert sl.hom_sets[p, q] is got
                pairs += 1
    return pairs


def test_slice_hom_sets_match_the_plain_loop(corpus):
    """The corpus posets, the group categories, eight harness categories
    and one anchor of an algebra ambient grown by Z2 x Z3."""
    from fincov.instances import random_category
    from fixtures_util import grown_ambient
    cats = [corpus[name].category for name in CORPUS_POSETS]
    cats += [corpus[name].category for name in corpus.names()
             if name.startswith("group_cat_")]
    cats += [random_category(s, (4, 12)) for s in range(8)]
    pairs = sum(_check_slice_hom_sets(C, C.objects()) for C in cats)
    amb = grown_ambient(("Z2", "Z3"))
    Z6 = max(amb.objects(), key=lambda A: A.size)
    pairs += _check_slice_hom_sets(amb, [Z6])
    assert pairs > 900


def test_growing_the_ambient_drops_the_slice_hom_sets():
    """The slice view, and the hom sets kept on it, go with the other
    memos when the algebra ambient grows; the new view sees the new legs."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    amb = build_finalg_category(group_theory(), 4,
                                [cyclic_group(n) for n in (1, 2)])
    Z1, Z2 = sorted(amb.objects(), key=lambda A: A.size)
    old = slice_view(amb, Z2)
    legs = amb.morphisms_into(Z2)
    kept = {(p, q): old.hom_sets[p, q] for p in legs for q in legs}
    amb.register(cyclic_group(4))
    new = slice_view(amb, Z2)
    assert new is not old and not new.hom_sets
    assert len(amb.morphisms_into(Z2)) > len(legs)
    _check_slice_hom_sets(amb, [Z2])
    assert all(new.hom_sets[p, q] == hs for (p, q), hs in kept.items())
