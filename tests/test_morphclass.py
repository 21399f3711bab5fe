import pytest

import oracles
from fincov.fincat import classify_morphism
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, set_skeleton)
from fincov.morphclass import (FactorizationFailure, MorphismClass,
                               builtin_class, check_class_properties,
                               check_factorization_system, check_orthogonal,
                               check_regular, explicit_class, factorize,
                               is_extremal_wrt, is_stably_extremal,
                               is_stably_in)


@pytest.fixture(scope="module")
def sk2():
    return set_skeleton(2)


def test_isos_are_a_stable_system(sk2):
    rep = check_class_properties(sk2.category, builtin_class(sk2.category,
                                                             "isos"))
    assert rep.system and rep.stable


def test_injections_system_stable_left_cancelable(sk2):
    rep = check_class_properties(sk2.category, sk2.injections())
    assert rep.system and rep.stable and rep.left_cancelable


def test_missing_identities_not_a_system():
    cat = chain_poset(1)
    A = explicit_class(cat, "A", ["o0<o1"])
    rep = check_class_properties(cat, A)
    assert not rep.system and rep.witnesses["system"]


def test_extremal_identity_singleton(sk2):
    ok, _ = is_extremal_wrt(sk2.category, ["f1>1:0"], sk2.injections())
    assert ok


def test_extremal_surjection_vs_monos(sk2):
    ok, _ = is_extremal_wrt(sk2.category, ["f2>1:00"], sk2.injections())
    assert ok


def test_not_extremal_vs_all():
    cat = chain_poset(1)
    ok, wit = is_extremal_wrt(cat, ["o0<o1"], builtin_class(cat, "all"))
    assert not ok
    assert wit[0] == "o0<o1"  # factors through itself


def test_stably_in_iso(sk2):
    C = sk2.category
    assert is_stably_in(C, "f2>2:10", builtin_class(C, "isos"))[0]


def test_stably_in_epis(sk2):
    C = sk2.category
    ok, _, _ = is_stably_in(C, "f2>1:00", builtin_class(C, "epis"))
    assert ok


def test_not_stably_in_identities():
    cat = chain_poset(1)
    ok, _, wit = is_stably_in(cat, "o0<o1",
                              builtin_class(cat, "identities"))
    assert not ok and wit is not None


def test_orthogonal_iso_left(sk2):
    C = sk2.category
    for m in C.morphisms():
        assert check_orthogonal(C, "f2>2:10", m)[0]


def test_orthogonal_surjection_injection(sk2):
    ok, _ = check_orthogonal(sk2.category, "f2>1:00", "f1>2:0")
    assert ok


def test_orthogonal_matches_oracle(sk2):
    C = sk2.category
    raw = oracles.RawCat(C.to_json())
    mors = sorted(C.morphisms())
    for e in mors[:20]:
        for m in mors[:20]:
            assert check_orthogonal(C, e, m)[0] == oracles.orthogonal(raw, e, m)


def test_ofs_isos_all(sk2):
    C = sk2.category
    FS = check_factorization_system(C, builtin_class(C, "isos"),
                                    builtin_class(C, "all"))
    assert FS


def test_ofs_surjections_injections_stable(sk2):
    FS = check_factorization_system(sk2.category, sk2.surjections(),
                                    sk2.injections())
    assert FS and FS.stable_E and FS.stable_M


def test_ofs_poset_identities_all():
    cat = chain_poset(1)
    FS = check_factorization_system(cat, builtin_class(cat, "identities"),
                                    builtin_class(cat, "all"))
    assert FS


def test_ofs_failure_reported(sk2):
    C = sk2.category
    bad = check_factorization_system(C, sk2.injections(), sk2.surjections())
    assert isinstance(bad, FactorizationFailure)


def test_factorize_constant(sk2):
    FS = check_factorization_system(sk2.category, sk2.surjections(),
                                    sk2.injections())
    e, m = factorize(FS, "f2>2:00")
    assert sk2.is_surjective(e) and sk2.is_injective(m)
    assert sk2.category.src(m) == "S1"


def test_factorize_member_of_M(sk2):
    FS = check_factorization_system(sk2.category, sk2.surjections(),
                                    sk2.injections())
    e, m = factorize(FS, "f1>2:0")
    assert sk2.category.is_iso(e)


def test_factorize_iso_up_to_iso(sk2):
    FS = check_factorization_system(sk2.category, sk2.surjections(),
                                    sk2.injections())
    e, m = factorize(FS, "f2>2:10")
    assert sk2.category.is_iso(e) and sk2.category.is_iso(m)


def test_regular_set_skeleton(sk2):
    assert check_regular(sk2.category).regular


def test_regular_poset():
    assert check_regular(chain_poset(1)).regular


def test_not_regular_fixture():
    from fixtures_util import non_regular_category
    cat = non_regular_category()
    rep = check_regular(cat)
    assert not rep.regular and rep.witness == "(m0.e)"
    # the blocking configuration: the pullback of e along k exists and its
    # projection factors through the non-iso mono m
    sq = cat.find_pullback("e", "k")
    assert sq is not None and sq.proj2 == "(m.h)"
    ok, _ = is_extremal_wrt(cat, ["(m.h)"], builtin_class(cat, "monos"))
    assert not ok


def test_extremal_epis_contain_E_for_validated_ofs(sk2):
    C = sk2.category
    FS = check_factorization_system(C, sk2.surjections(), sk2.injections())
    for e in FS.E.member_list():
        ok, _ = is_extremal_wrt(C, [e], FS.M)
        assert ok


def test_E_equals_regular_epis_when_M_monos():
    # asserted on the morphisms whose kernel pair exists in the truncation;
    # the others carry the honest "unknown" flag
    sk3 = set_skeleton(3)
    C = sk3.category
    FS = check_factorization_system(C, sk3.surjections(), sk3.injections())
    assert check_regular(C).regular
    e_set = set(FS.E.member_list())
    decided = 0
    for m in C.morphisms():
        flag = classify_morphism(C, m).regular_epi
        if flag is None:
            continue
        decided += 1
        assert (m in e_set) == flag, m
    assert decided > 20


def test_stability_flags_agree(sk2):
    C = sk2.category
    for name in ("isos", "epis"):
        A = builtin_class(C, name)
        rep = check_class_properties(C, A)
        per = all(is_stably_in(C, f, A)[0]
                  for f in C.morphisms() if A.contains(f))
        assert rep.stable == per


def test_class_json_roundtrip(sk2):
    C = sk2.category
    A = explicit_class(C, "E", ["f1>1:0"])
    again = MorphismClass.from_json(C, A.to_json())
    assert set(again.member_list()) == set(A.member_list())


def _reference_class_properties(C, A):
    """The plain scans: system, then left/right cancelability over every
    composable pair (g, f), in morphism order; least witness per flag."""
    out = {"system": True, "left_cancelable": True,
           "right_cancelable": True}
    wit = {}
    iso_out = [m for m in C.morphisms() if C.is_iso(m) and m not in A]
    if iso_out:
        out["system"], wit["system"] = False, (iso_out[0],)
    pairs = [(g, f) for g in C.morphisms()
             for f in C.morphisms_into(C.src(g))]
    if out["system"]:
        for g, f in pairs:
            if g in A and f in A and C.compose(g, f) not in A:
                out["system"], wit["system"] = False, (g, f)
                break
    for g, f in pairs:
        gf_in = C.compose(g, f) in A
        if out["left_cancelable"] and gf_in and g in A and f not in A:
            out["left_cancelable"], wit["left_cancelable"] = False, (g, f)
        if out["right_cancelable"] and gf_in and f in A and g not in A:
            out["right_cancelable"], wit["right_cancelable"] = False, (g, f)
    return out, wit


def _reference_ambient_stability(C, A):
    for f in C.morphisms():
        if f not in A:
            continue
        imf = frozenset(f.images)
        for g in C.morphisms_into(f.tgt):
            pre = frozenset(b for b in g.src.carrier if g(b) in imf)
            _, proj = C.subalgebra_object(g.src, pre)
            if proj not in A:
                return False, (f, g, proj)
    return True, None


def _assert_matches_reference(C, A, rep):
    flags, wit = _reference_class_properties(C, A)
    for prop, ok in flags.items():
        assert getattr(rep, prop) == ok, (A.name, prop)
        assert rep.witnesses.get(prop) == wit.get(prop), (A.name, prop)


def test_class_properties_match_reference_scans():
    import random

    from fincov.instances import random_category
    for seed in range(12):
        C = random_category(seed, (4, 12))
        rng = random.Random(seed)
        classes = [builtin_class(C, name) for name in
                   ("all", "identities", "isos", "monos", "epis",
                    "sections", "retractions")]
        classes += [explicit_class(C, f"rand{k}",
                                   [m for m in C.morphisms()
                                    if rng.random() < 0.5])
                    for k in range(4)]
        for A in classes:
            _assert_matches_reference(C, A, check_class_properties(C, A))


def test_class_composites_kernel_matches_reference_scans():
    """kernels.first_class_composites over the dense-table blocks and over
    the generic protocol's blocks returns the plain loops' witnesses."""
    import random

    import numpy as np

    from fincov import kernels
    from fincov.fincat import CategoryBase
    from fincov.instances import random_category
    flags = ("system", "left_cancelable", "right_cancelable")
    for seed in range(12):
        C = random_category(seed, (4, 12))
        rng = random.Random(seed)
        ms = C.morphisms()
        isos = [m for m in ms if C.is_iso(m)]
        classes = [builtin_class(C, name) for name in
                   ("all", "identities", "isos", "monos", "epis",
                    "sections", "retractions")]
        # with the isos added, the system scan runs past its iso step
        classes += [explicit_class(C, f"rand{k}",
                                   [m for m in ms if rng.random() < 0.5]
                                   + (isos if k % 2 else []))
                    for k in range(6)]
        generic = list(CategoryBase.composite_blocks(C))
        for (r1, c1, t1), (r2, c2, t2) in zip(C.composite_blocks(), generic):
            assert np.array_equal(r1, r2) and np.array_equal(c1, c2)
            assert np.array_equal(t1, t2)
        for A in classes:
            member = np.array([A.contains(m) for m in ms], dtype=bool)
            _, wit = _reference_class_properties(C, A)
            for blocks in (C.composite_blocks(), generic):
                found = kernels.first_class_composites(blocks, member, flags)
                got = {flag: hit and (ms[hit[0]], ms[hit[1]])
                       for flag, hit in found.items()}
                for flag in flags:
                    if flag == "system" and len(wit.get(flag, ())) == 1:
                        continue  # refuted by an iso outside A first
                    assert got[flag] == wit.get(flag), (seed, A.name, flag)


def test_ambient_composite_index_codes_past_int64():
    """Hom sets of 16-element algebras code image tuples past int64 (16^16
    > 2^63); the index then codes them as Python ints."""
    from fincov.algkit import build_finalg_category, group_theory
    from fincov.instances import cyclic_group
    amb = build_finalg_category(group_theory(), 16,
                                [cyclic_group(n) for n in (1, 2, 16)])
    for name in ("injections", "isos", "identities"):
        A = builtin_class(amb, name)
        _assert_matches_reference(amb, A, check_class_properties(amb, A))
    _assert_index_composes(amb)


def test_ambient_composite_index_without_constants():
    """Homs of a constant-free theory need not fix element 0, so every
    digit of an image code is used; the stability scans register the empty
    semilattice."""
    from fincov.algkit import FinAlgebra, Theory, build_finalg_category
    x, y, z = ("x",), ("y",), ("z",)

    def join(a, b):
        return ("join", a, b)

    T = Theory("semilattices", (("join", 2),), (
        (("x", "y", "z"), join(join(x, y), z), join(x, join(y, z))),
        (("x", "y"), join(x, y), join(y, x)),
        (("x",), join(x, x), x)))
    chains = [FinAlgebra(T, f"C{n}", n, {"join": tuple(
        tuple(max(a, b) for b in range(n)) for a in range(n))})
        for n in (1, 2, 3)]
    vee = FinAlgebra(T, "V3", 3, {"join": ((0, 2, 2), (2, 1, 2),
                                           (2, 2, 2))})
    amb = build_finalg_category(T, 3, chains + [vee])
    for name in ("injections", "surjections", "all"):
        A = builtin_class(amb, name)
        _assert_matches_reference(amb, A, check_class_properties(amb, A))
    assert min(A.size for A in amb.objects()) == 0
    _assert_index_composes(amb)


def test_ambient_composite_index_budget(monkeypatch):
    """The index counts its entries before allocating: past the budget it
    raises CapExceeded with the count, and the 8-object ambient builds
    within the default budget."""
    import fincov.algkit as algkit
    from fincov.fincat import CapExceeded
    from fixtures_util import FULL_GROWTH, grown_ambient
    amb = grown_ambient(*FULL_GROWTH)
    assert len(amb.objects()) == 8
    entries = sum(len(amb.morphisms_from(b)) * len(amb.morphisms_into(b))
                  for b in amb.objects())
    with monkeypatch.context() as m:
        m.setattr(algkit, "_INDEX_BUDGET", entries - 1)
        with pytest.raises(CapExceeded, match=f"needs {entries} entries"):
            amb.composite_index()
    index = amb.composite_index()
    assert entries <= algkit._INDEX_BUDGET
    assert sum(table.size for _, _, table in index.blocks.values()) == entries


def _assert_index_composes(amb):
    index = amb.composite_index()
    assert index.morphisms == amb.morphisms()
    for rows, cols, table in index.blocks.values():
        for i, g in enumerate(rows):
            for j, f in enumerate(cols):
                gf = amb.compose(index.morphisms[g], index.morphisms[f])
                assert index.morphisms[table[i, j]] == gf


def test_ambient_class_properties_match_reference_scans():
    from fixtures_util import grown_ambient
    # the roster grown by Z2 x Z3, as product closure grows it
    amb = grown_ambient(("Z2", "Z3"))
    n = len(amb.objects())
    # classes of injective homs: stability by image closure, no new objects
    for name in ("injections", "sections", "isos", "identities"):
        A = builtin_class(amb, name)
        rep = check_class_properties(amb, A)
        _assert_matches_reference(amb, A, rep)
        stable, wit = _reference_ambient_stability(amb, A)
        assert (rep.stable, rep.witnesses.get("stable")) == (stable, wit)
    assert len(amb.objects()) == n
    # the generic stability scan takes pullbacks and may grow the roster
    # in between: the system scan reads the roster before it, the
    # cancelability scans the roster after it ("all" is probe-capped, as
    # its uncapped scan takes pullbacks of every cospan)
    for name, probe_cap in (("surjections", None), ("all", 200)):
        A = builtin_class(amb, name)
        flags, wit = _reference_class_properties(amb, A)
        rep = check_class_properties(amb, A, probe_cap)
        assert (rep.system, rep.witnesses.get("system")) == \
            (flags["system"], wit.get("system")), name
        flags, wit = _reference_class_properties(amb, A)
        for prop in ("left_cancelable", "right_cancelable"):
            assert (getattr(rep, prop), rep.witnesses.get(prop)) == \
                (flags[prop], wit.get(prop)), (name, prop)
    assert len(amb.objects()) == 8


def test_class_properties_memo_matches_fresh_category():
    C = set_skeleton(2).category
    A = builtin_class(C, "epis")
    rep = check_class_properties(C, A)
    assert check_class_properties(C, A) is rep
    fresh = set_skeleton(2).category
    again = check_class_properties(fresh, builtin_class(fresh, "epis"))
    assert again is not rep
    assert again.to_json() == rep.to_json()


def test_class_properties_memo_keyed_by_class_object_and_probe_cap():
    C = set_skeleton(2).category
    every = explicit_class(C, "M", C.morphisms())
    ids = explicit_class(C, "M", [C.identity(o) for o in C.objects()])
    assert check_class_properties(C, every).system is True
    # same name, different members: no shared entry
    rep = check_class_properties(C, ids)
    assert rep.system is False and rep.witnesses["system"] == ("f2>2:10",)
    fresh = set_skeleton(2).category
    assert rep.to_json() == check_class_properties(
        fresh, explicit_class(fresh, "M", ids.members)).to_json()
    D = diamond_lattice()  # every pullback exists
    monos = builtin_class(D, "monos")
    capped = check_class_properties(D, monos, probe_cap=1)
    full = check_class_properties(D, monos)
    assert capped.restricted is True and full.restricted is False
    assert check_class_properties(D, monos, probe_cap=1) is capped


def test_class_properties_memo_dropped_when_ambient_grows():
    from fincov.algkit import build_finalg_category, group_theory
    from fincov.instances import abelian_groups_upto
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    A = builtin_class(amb, "injections")
    before = check_class_properties(amb, A)
    assert check_class_properties(amb, A) is before
    ob = {G.name: G for G in amb.objects()}
    n = len(amb.objects())
    amb.find_pullback(amb.hom(ob["Z2"], ob["Z1"])[0],
                      amb.hom(ob["Z4"], ob["Z1"])[0])
    assert len(amb.objects()) == n + 1
    after = check_class_properties(amb, A)
    assert after is not before
    _assert_matches_reference(amb, A, after)
