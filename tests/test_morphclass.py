from types import SimpleNamespace

import pytest

import oracles
from fincov.algkit import AlgCategory, compose_homs
from fincov.fincat import classify_morphism
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, set_skeleton)
from fincov.morphclass import (FactorizationFailure, MorphismClass,
                               builtin_class, check_class_properties,
                               check_factorization_system, check_orthogonal,
                               check_regular, explicit_class, factorize,
                               is_extremal_wrt, is_stably_extremal,
                               is_stably_in)
from fixtures_util import block_table


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


def _composable_triples(C):
    """Every composable (g, f, g.f) of C, in morphism order.  An algebra
    ambient's composites are composed image by image, not read from the
    composite tables that its compose and its index share."""
    compose = compose_homs if isinstance(C, AlgCategory) else C.compose
    return [(g, f, compose(g, f)) for g in C.morphisms()
            for f in C.morphisms_into(C.src(g))]


def _reference_class_properties(C, A, triples=None):
    """The plain scans: system, then left/right cancelability over every
    composable pair (g, f), in morphism order; least witness per flag.
    ``triples`` may pass C's ``_composable_triples``."""
    out = {"system": True, "left_cancelable": True,
           "right_cancelable": True}
    wit = {}
    iso_out = [m for m in C.morphisms() if C.is_iso(m) and m not in A]
    if iso_out:
        out["system"], wit["system"] = False, (iso_out[0],)
    if triples is None:
        triples = _composable_triples(C)
    inside = {m: m in A for m in C.morphisms()}
    if out["system"]:
        for g, f, gf in triples:
            if inside[g] and inside[f] and not inside[gf]:
                out["system"], wit["system"] = False, (g, f)
                break
    for g, f, gf in triples:
        if not inside[gf]:
            continue
        if out["left_cancelable"] and inside[g] and not inside[f]:
            out["left_cancelable"], wit["left_cancelable"] = False, (g, f)
        if out["right_cancelable"] and inside[f] and not inside[g]:
            out["right_cancelable"], wit["right_cancelable"] = False, (g, f)
    return out, wit


def _reference_ambient_stability(C, A):
    for f in C.morphisms():
        if f not in A:
            continue
        imf = frozenset(f.images)
        for g in C.morphisms_into(f.tgt):
            pre = frozenset(b for b in g.src.carrier if g(b) in imf)
            _, proj = C.subalgebra_object(g.src, sum(1 << b for b in pre))
            if proj not in A:
                return False, (f, g, proj)
    return True, None


def _assert_matches_reference(C, A, rep, triples=None):
    flags, wit = _reference_class_properties(C, A, triples)
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
    """kernels.first_class_composites over the row-table blocks and over
    the generic protocol's blocks returns the plain loops' witnesses."""
    import random

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
        generic = [(rows, cols, targets, block_table(rows, row_of))
                   for rows, cols, targets, row_of in
                   CategoryBase.composite_blocks(C)]
        assert [(rows, cols, targets, block_table(rows, row_of))
                for rows, cols, targets, row_of in C.composite_blocks()] \
            == generic
        generic = [(rows, cols, targets, table.__getitem__)
                   for rows, cols, targets, table in generic]
        for A in classes:
            member = [A.contains(m) for m in ms]
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
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
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
    from fincov.algebra import FinAlgebra, Theory
    from fincov.algkit import build_finalg_category
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
    assert entries <= algkit._INDEX_BUDGET
    assert sum(sum(map(len, block_table(rows, row_of)))
               for rows, _, _, row_of in amb.composite_blocks()) == entries


def _assert_index_composes(amb):
    ms = amb.composite_index().morphisms
    assert ms == amb.morphisms()
    for rows, cols, targets, row_of in amb.composite_blocks():
        for g, trow in zip(rows, block_table(rows, row_of)):
            for f, gf in zip(cols, trow):
                assert ms[targets[gf]] == compose_homs(ms[g], ms[f])


def test_ambient_class_properties_match_reference_scans():
    from fixtures_util import grow_ambient, grown_ambient
    # the roster grown by Z2 x Z3, then Z2 x Z4 and Z2 x V4, as product
    # closure grows it; the classes, and the stability verdicts they keep,
    # carry over each growth
    amb = grown_ambient(("Z2", "Z3"))
    for growth in ((), ("Z2", "Z4"), ("Z2", "V4")):
        n = len(amb.objects())
        if growth:
            grow_ambient(amb, growth)
            assert len(amb.objects()) == n + 1
            n += 1
        # classes of injective homs: stability by image closure, no new
        # objects
        triples = _composable_triples(amb)
        for name in ("injections", "sections", "isos", "identities"):
            A = builtin_class(amb, name)
            rep = check_class_properties(amb, A)
            _assert_matches_reference(amb, A, rep, triples)
            stable, wit = _reference_ambient_stability(amb, A)
            assert (rep.stable, rep.witnesses.get("stable")) == (stable, wit)
        if not growth:
            _assert_injective_classes_match_generic_scan(amb, triples)
        assert len(amb.objects()) == n
    # the generic stability scan takes pullbacks and may grow the roster
    # in between: the system scan reads the roster before it, the
    # cancelability scans the roster after it ("all" is probe-capped, as
    # its uncapped scan takes pullbacks of every cospan)
    for name, probe_cap in (("surjections", None), ("all", 200)):
        A = builtin_class(amb, name)
        flags, wit = _reference_class_properties(amb, A, triples)
        rep = check_class_properties(amb, A, probe_cap)
        assert (rep.system, rep.witnesses.get("system")) == \
            (flags["system"], wit.get("system")), name
        if len(amb.objects()) != n:
            n, triples = len(amb.objects()), _composable_triples(amb)
        flags, wit = _reference_class_properties(amb, A, triples)
        for prop in ("left_cancelable", "right_cancelable"):
            assert (getattr(rep, prop), rep.witnesses.get(prop)) == \
                (flags[prop], wit.get(prop)), (name, prop)
    assert len(amb.objects()) == 8


def _assert_injective_classes_match_generic_scan(amb, triples):
    """40 seeded explicit classes of injective homs, none of them closed
    under composition with isos: the image shortcut that their members
    select gives the verdict and witness of the generic pullback scan."""
    import random
    injections = builtin_class(amb, "injections").member_list()
    isos = [m for m in amb.morphisms() if amb.is_iso(m)]
    witnesses = set()
    for seed in range(40):
        rng = random.Random(seed)
        A = explicit_class(amb, f"inj{seed}",
                           [m for m in injections if rng.random() < 0.5])
        assert any(amb.compose(g, m) not in A for m in A.member_list()
                   for g in isos if g.src is m.tgt), seed
        rep = check_class_properties(amb, A)
        _assert_matches_reference(amb, A, rep, triples)
        want = oracles.stability_scan(amb, A)
        assert (rep.stable, rep.witnesses.get("stable")) == want, seed
        assert _reference_ambient_stability(amb, A) == want, seed
        witnesses.add(want[1])
    assert len(witnesses) > 10


def test_ambient_stability_reads_members_not_class_name():
    """On the roster {Z1, Z2, Z4}, an explicit class named "monos" that
    holds the surjection Z4 -> Z2, the identities and the maps to Z1 is
    judged by its members: its stability verdict and witness equal those
    of the same members under another name and those of the generic
    pullback scan, each asked on a fresh ambient."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category

    def fresh_class(name):
        amb = build_finalg_category(group_theory(), 8,
                                    [cyclic_group(n) for n in (1, 2, 4)])
        z1, z2, z4 = amb.objects()
        members = [h for h in amb.hom(z4, z2) if h.is_surjective()]
        members += [amb.identity(o) for o in amb.objects()]
        members += [h for o in amb.objects() for h in amb.hom(o, z1)]
        return amb, explicit_class(amb, name, members)

    got = []
    for name in ("monos", "other"):
        amb, A = fresh_class(name)
        rep = check_class_properties(amb, A)
        got.append((rep.stable, repr(rep.witnesses.get("stable"))))
    stable, wit = oracles.stability_scan(*fresh_class("monos"))
    assert stable is False
    assert got == [(stable, repr(wit))] * 2


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
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
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


def _ambient_closure_reports(amb):
    """The closure instances that the closure_harness benchmark runs on
    the abelian-groups ambient, in its order: quotients along surjections
    out of groups of order <= 4, extensions along them, then products
    with first factor Z1 or Z2.  Returns the reports as JSON."""
    from fincov.coverage import RuleCoverage, build_chain_type
    from fincov.morphclass import FactorizationSystem
    from fincov.theorems import verify_closure_extensions, \
        verify_closure_quotients, verify_product_closure
    E = builtin_class(amb, "surjections")
    M = builtin_class(amb, "injections")
    tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
    roster = list(amb.objects())
    surjections = [f for G in roster if G.size <= 4 for H in roster
                   for f in amb.hom(G, H) if f.is_surjective()]
    out = [verify_closure_quotients(amb, tau, E, M, f, cap=512).to_json()
           for f in surjections]
    FS = FactorizationSystem(amb, E, M, {})
    Z1 = next(A for A in roster if A.name == "Z1")
    for f in surjections:
        sq = amb.find_pullback(f, amb.hom(Z1, f.tgt)[0])
        out.append(verify_closure_extensions(
            amb, tau, E, M, sq, cap=64, FS=FS, probe_cap=60).to_json())
    for a in roster:
        if a.name not in ("Z1", "Z2"):
            continue
        for b in roster:
            if a.size * b.size <= amb.size_cap and b.size <= 4:
                out.append(verify_product_closure(
                    amb, tau, E, M, a, b, cap=64, FS=FS,
                    probe_cap=60).to_json())
    return out


def test_ambient_closure_sequence_matches_reference_stability_scan(
        monkeypatch):
    """The stability scan by distinct preimage gives the reports, roster
    and subobject names of the hom-by-hom scan over the benchmark's
    ambient instances.  The roster names and the count of fresh names are
    pinned: they change when the order of pullbacks does."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto

    def run():
        amb = build_finalg_category(group_theory(), 8,
                                    abelian_groups_upto(4))
        reports = _ambient_closure_reports(amb)
        return (reports, [A.name for A in amb.objects()],
                len(amb.objects()), amb.fresh_name("probe"))

    got = run()
    monkeypatch.setattr(AlgCategory, "first_unstable_pullback",
                        oracles.first_unstable_pullback)
    assert run() == got
    assert got[2] == 8
    # the roster and fresh names that the closure_harness benchmark leaves
    assert got[1] == ["Z1", "Z2", "Z3", "V4", "Z4", "pb#15", "pb#20",
                      "pb#37"]
    assert got[3] == "probe#46"


def test_ambient_stability_registers_subobjects_in_scan_order(monkeypatch):
    """Over rosters that lack the subgroups of their largest member, the
    injective-class stability scans register them: names, order and the
    witness of the unstable sections equal the hom-by-hom scan's."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import direct_product_group

    def run():
        out = []
        for top in (cyclic_group(6), cyclic_group(8),
                    direct_product_group(cyclic_group(2), cyclic_group(4))):
            amb = build_finalg_category(group_theory(), 8,
                                        [cyclic_group(1), top])
            for name in ("injections", "sections", "isos"):
                rep = check_class_properties(amb, builtin_class(amb, name))
                out.append((name, rep.to_json()))
            out.append([A.name for A in amb.objects()])
        return out

    got = run()
    monkeypatch.setattr(AlgCategory, "first_unstable_pullback",
                        oracles.first_unstable_pullback)
    assert run() == got
    assert got[-1] == ["Z1", "sub#4", "sub#3", "sub#7", "Z2xZ4"]
    assert got[-3][1]["stable"] is False


def test_ambient_extremality_sees_subobjects_registered_later():
    """x -> 3x on Z6 factors through the subgroup {0, 3} once the
    stability scan has registered it, whether or not extremality was
    asked before the roster grew."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    verdicts = []
    for ask_first in (False, True):
        amb = build_finalg_category(group_theory(), 8,
                                    [cyclic_group(1), cyclic_group(6)])
        M = builtin_class(amb, "injections")
        z6 = amb.objects()[-1]
        f = next(h for h in amb.hom(z6, z6) if h.images == (0, 3) * 3)
        if ask_first:
            assert is_extremal_wrt(amb, [f], M) == (True, None)
        check_class_properties(amb, M)
        ok, (m, _) = is_extremal_wrt(amb, [f], M)
        verdicts.append((ok, m.images))
    assert verdicts == [(False, (0, 3))] * 2


ORACLE_CLASSES = ("monos", "epis", "isos", "all", "sections", "retractions")


def _extremality_answers(C, M, ask):
    """member list, then per morphism f: is_extremal_wrt([f]) and
    is_stably_extremal at probe caps None and 3; per target, the family
    of all morphisms into it."""
    out = [ask.member_list(M)]
    for f in C.morphisms():
        out.append(ask.is_extremal_wrt(C, [f], M))
        for cap in (None, 3):
            out.append(ask.is_stably_extremal(C, f, M, cap))
    for x in C.objects():
        family = list(C.morphisms_into(x))
        if family:
            out.append(ask.is_extremal_wrt(C, family, M))
    return out


# the package's answers, asked the way the oracle is
_PACKAGE = SimpleNamespace(member_list=lambda M: M.member_list(),
                           is_extremal_wrt=is_extremal_wrt,
                           is_stably_extremal=is_stably_extremal)


def test_extremality_matches_reference_loops(corpus):
    """Member lists and extremality verdicts with their witnesses equal the
    plain loops of oracles, asked cold and again from the tables, on the
    explicit corpus categories but finite_top and the 64 harness
    categories, for builtin classes and explicit copies of them."""
    from fincov.fincat import FinCategory
    from fincov.instances import random_category
    cats = [corpus[n].category for n in corpus.names()
            if n != "finite_top"
            and isinstance(corpus[n].category, FinCategory)]
    cats += [random_category(s, (4, 12)) for s in range(64)]
    verdicts = set()
    for C in cats:
        for name in ORACLE_CLASSES:
            builtin = builtin_class(C, name)
            fresh = MorphismClass(C, name, predicate=builtin.predicate)
            explicit = explicit_class(C, name, builtin.member_list())
            for M in (fresh, explicit):
                want = _extremality_answers(C, M, oracles)
                assert _extremality_answers(C, M, _PACKAGE) == want
                assert _extremality_answers(C, M, _PACKAGE) == want
                verdicts.update(v[0] for v in want[1:])
    assert verdicts == {True, False}


def test_ambient_extremality_dropped_when_roster_grows():
    """On the abelian ambient with the class of all homs, the tables are
    dropped when register adds Z6: id_Z3 is extremal before and factors
    through the projection Z6 -> Z3 after."""
    from fincov.fincat import mor_key
    from fixtures_util import grown_ambient
    amb = grown_ambient()
    M = builtin_class(amb, "all")
    z3 = next(A for A in amb.objects() if A.name == "Z3")
    id3 = amb.identity(z3)
    answers = []
    for grow in (False, True):
        if grow:
            amb.register(cyclic_group(6))
        fs = sorted(amb.morphisms(), key=mor_key)
        n = len(amb.objects())
        want = [oracles.member_list(M)]
        want += [oracles.is_stably_extremal(amb, f, M, cap)
                 for f in fs for cap in (None, 3)]
        for _ in range(2):
            got = [M.member_list()]
            got += [is_stably_extremal(amb, f, M, cap)
                    for f in fs for cap in (None, 3)]
            assert got == want
        assert len(amb.objects()) == n
        answers.append(is_extremal_wrt(amb, [id3], M))
    assert answers[0] == (True, None)
    assert answers[1][0] is False and answers[1][1][0].src.size == 6


def test_predicate_asked_once_per_morphism_and_roster():
    """Repeated member lists, extremality questions and quotient-closure
    checks ask a predicate class's predicate at most once per morphism
    and roster: monos on 8 harness categories, and injections on the
    abelian ambient before and after register adds Z6."""
    from collections import Counter
    from fixtures_util import grown_ambient
    from fincov.coverage import RuleCoverage, build_chain_type
    from fincov.instances import random_category
    from fincov.theorems import verify_closure_quotients
    calls = Counter()

    def counted(C, predicate):
        def ask(m):
            calls[C.name, len(C.objects()), m] += 1
            return predicate(m)
        return ask

    def ask_all(C, M, E, fs):
        tau = RuleCoverage([build_chain_type(1, 1, "cov")], M)
        for _ in range(3):
            M.member_list()
            for f in fs:
                is_extremal_wrt(C, [f], M)
                is_stably_extremal(C, f, M)
                is_stably_extremal(C, f, M, 3)
                verify_closure_quotients(C, tau, E, M, f, cap=64)

    for s in range(8):
        C = random_category(s, (4, 12))
        M = MorphismClass(C, "monos", predicate=counted(C, C.is_mono))
        ask_all(C, M, builtin_class(C, "isos"), C.morphisms())
    amb = grown_ambient()
    M = MorphismClass(amb, "injections",
                      predicate=counted(amb, lambda m: m.is_injective()))
    E = builtin_class(amb, "surjections")
    for grow in (False, True):
        if grow:
            amb.register(cyclic_group(6))
        ask_all(amb, M, E, [f for f in amb.morphisms()
                            if f.src.size <= 4 and f.is_surjective()])
    assert len(calls) > 100 and set(calls.values()) == {1}


def _sets_one_to_three():
    """The finite sets of sizes 1-3 and every function between them, with
    no empty set: a cospan whose images miss each other has no pullback,
    and one whose pullback has more than three elements has none either."""
    import itertools
    from fixtures_util import close_concrete
    sizes = {"S1": 1, "S2": 2, "S3": 3}
    gens = {f"f{sizes[a]}>{sizes[b]}:" + "".join(map(str, img)): (a, b, img)
            for a in sizes for b in sizes
            for img in itertools.product(range(sizes[b]), repeat=sizes[a])}
    return close_concrete(sizes, gens, name="set1-3")


def _walk_answer(ans):
    ok, restricted, wit = ans
    return ok, restricted, None if wit is None else tuple(map(str, wit))


def test_cospan_walk_cap_rules():
    """The four callers of the cospan walk under small probe caps, against
    pinned answers.  The class scan keeps
    one budget for all its members: the isos (265 cospans, at most 39
    per member, all with pullbacks) are restricted up to cap 264.  The
    other callers keep one per f, and mono-reflectivity moves on to the
    next f when its budget runs out: at cap 1 its witness is the third
    non-mono out of S3, past two restricted ones."""
    from fincov.morphclass import check_mono_reflective
    C = _sets_one_to_three()

    def stability(name, k):
        rep = check_class_properties(C, builtin_class(C, name), k)
        return (rep.stable, rep.restricted,
                tuple(map(str, rep.witnesses.get("stable", ()))))
    assert {k: stability("isos", k) for k in (0, 39, 40, 264, 265, None)} \
        == {0: (True, True, ()), 39: (True, True, ()), 40: (True, True, ()),
            264: (True, True, ()), 265: (True, False, ()),
            None: (True, False, ())}
    assert stability("identities", 0) == (True, True, ())
    assert stability("identities", 1) == (
        False, False, ("id_S1", "f2>1:00", "f2>2:10"))

    epis, monos = builtin_class(C, "epis"), builtin_class(C, "monos")
    wit = ("f2>2:10", "f2>2:11")
    assert {k: _walk_answer(is_stably_in(C, "f2>2:00", epis, k))
            for k in (0, 3, 4, None)} == {
        0: (True, True, None), 3: (True, True, None), 4: (False, True, wit),
        None: (False, True, wit)}
    assert [_walk_answer(is_stably_in(C, "f3>1:000", monos, k))
            for k in (2, 3)] == [(True, True, None),
                                 (False, True, ("id_S1", "f3>1:000"))]
    assert _walk_answer(is_stably_extremal(C, "f2>2:00", monos, 0)) == (
        False, False, ("f1>2:0", "('f2>1:00',)"))
    assert [_walk_answer(is_stably_extremal(C, "f3>1:000", monos, k))
            for k in (0, 1, None)] == [(True, True, None)] * 3

    def reflective(k):
        rep = check_mono_reflective(C, "S3", probe_cap=k)
        return rep["reflective"], rep["restricted"], rep["witness"]
    assert [reflective(k) for k in (0, 1, 2, None)] == [
        (True, True, None), (False, True, ("f3>2:011", "f1>2:0")),
        (False, True, ("f3>2:001", "f1>2:1")),
        (False, True, ("f3>2:001", "f1>2:1"))]


def test_cospan_walk_cap_rules_on_the_ambient():
    """On the abelian groups of order <= 4 under size cap 4 a pullback
    past the cap marks the walk restricted.  The answers, the roster and
    the count of fresh names are pinned: pullbacks register and name
    apexes, so they pin the order of the walk's pullbacks."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    amb = build_finalg_category(group_theory(), 4, abelian_groups_upto(4))
    E = builtin_class(amb, "surjections")
    for k in (0, 10, 100, None):
        rep = check_class_properties(amb, E, k)
        assert (rep.stable, rep.restricted) == (True, True)
    assert [A.name for A in amb.objects()] == ["Z1", "Z2", "Z3", "V4", "Z4"]
    assert amb.fresh_name("probe") == "probe#97"
    R = builtin_class(amb, "retractions")
    fs = [f for f in amb.morphisms()
          if f.is_surjective() and not f.is_bijective()][:3]
    assert [repr(f) for f in fs] == ["AlgHom(Z2->Z1, (0, 0))",
                                     "AlgHom(Z3->Z1, (0, 0, 0))",
                                     "AlgHom(V4->Z1, (0, 0, 0, 0))"]
    for f in fs:
        for k in (0, 2, None):
            assert is_stably_in(amb, f, R, k) == (True, True, None)
    assert amb.fresh_name("probe") == "probe#111"
