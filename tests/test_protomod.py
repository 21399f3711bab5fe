
import oracles
import pytest

from fincov.fincat import (CatFunctor, FinCategory, PullbackSquare,
                           product_category, validate_category,
                           verify_pullback_square)
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, klein_four_group,
                              random_category, set_skeleton)
from fincov.morphclass import builtin_class, check_mono_reflective, \
    explicit_class
from fincov.protomod import (ProtoReport,
                             check_protomodularity_equivalent,
                             check_protomodularity_mono_part,
                             check_protomodularity_pair,
                             cross_validate_protomodularity,
                             jointly_conservative, preserves_pullbacks,
                             transport_classes)


def retr(C):
    return explicit_class(C, "retractions",
                          [m for m in C.morphisms() if C.is_retraction(m)])


def test_set_skeleton_not_protomodular():
    sk = set_skeleton(2)
    C = sk.category
    rep = check_protomodularity_pair(C, retr(C), builtin_class(C, "all"))
    assert rep.satisfied is False
    cx = rep.counterexample
    assert cx is not None
    # the counterexample re-validates: beta not iso, alpha iso, e retraction
    assert not C.is_iso(cx.beta)
    assert C.is_iso(cx.alpha)
    assert C.is_retraction(cx.e)
    assert C.compose(cx.e, cx.beta) == C.compose(cx.gamma, cx.e_prime)


def test_group_category_trivially_protomodular():
    C = group_category(klein_four_group())
    rep = check_protomodularity_pair(C, retr(C), builtin_class(C, "all"))
    assert rep.satisfied is True


def test_groups_ambient_no_violation(corpus):
    amb = corpus["groups_ambient"].category
    E = corpus["groups_ambient"].classes["retractions"]
    M = corpus["groups_ambient"].classes["all"]
    rep = check_protomodularity_pair(amb, E, M)
    assert rep.satisfied is True
    assert rep.scope.startswith("within size cap")


def test_formulations_agree_on_fixtures():
    fixtures = [set_skeleton(2).category, diamond_lattice(), chain_poset(2),
                group_category(cyclic_group(4))]
    for C in fixtures:
        for ename, mname in (("retractions", "all"), ("isos", "all"),
                             ("epis", "monos")):
            E = explicit_class(C, ename,
                               [m for m in C.morphisms()
                                if builtin_class(C, ename).contains(m)])
            M = builtin_class(C, mname)
            pair, equiv = cross_validate_protomodularity(C, E, M)
            assert pair.satisfied == equiv.satisfied


def test_mono_part_check_agrees():
    sk = set_skeleton(2)
    C = sk.category
    rep = check_protomodularity_mono_part(C, retr(C),
                                          builtin_class(C, "all"))
    assert rep.satisfied is False


def test_all_iso_category_every_pair_passes():
    C = group_category(cyclic_group(3))
    for ename in ("all", "isos", "retractions"):
        E = builtin_class(C, ename)
        for mname in ("all", "monos"):
            rep = check_protomodularity_pair(C, E, builtin_class(C, mname))
            assert rep.satisfied is True


def test_monotonicity_shrinking_classes():
    C = group_category(cyclic_group(4))
    E = retr(C)
    M = builtin_class(C, "all")
    base = check_protomodularity_pair(C, E, M)
    assert base.satisfied
    for sub in (["g0"], ["g0", "g2"]):
        E2 = explicit_class(C, "E2", sub)
        M2 = explicit_class(C, "M2", sub)
        assert check_protomodularity_pair(C, E2, M).satisfied
        assert check_protomodularity_pair(C, E, M2).satisfied


def test_protomodular_implies_mono_reflective(corpus):
    amb = corpus["groups_ambient"].category
    rep = check_protomodularity_pair(amb,
                                     corpus["groups_ambient"].classes[
                                         "retractions"],
                                     corpus["groups_ambient"].classes["all"])
    assert rep.satisfied
    for obj in amb.objects():
        assert check_mono_reflective(amb, obj)["reflective"]


def test_set_skeleton_object_not_mono_reflective():
    sk = set_skeleton(2)
    res = check_mono_reflective(sk.category, "S2")
    assert res["reflective"] is False


def test_transport_identity_functor():
    C = group_category(cyclic_group(2))
    F = CatFunctor(C, C, {o: o for o in C.objects()},
                   {m: m for m in C.morphisms()})
    E = retr(C)
    M = builtin_class(C, "all")
    rep = transport_classes([F], [(E, M)])
    assert rep.precondition_failure is None
    assert set(rep.E_prime.member_list()) == set(E.member_list())
    assert rep.verdict.satisfied


def test_transport_product_projections():
    A = group_category(cyclic_group(2), name="BZ2")
    B = group_category(cyclic_group(3), name="BZ3")
    P = product_category(A, B)
    # both factors are one-object categories, so P has a single object
    proj1 = CatFunctor(P, A, {o: "*" for o in P.objects()},
                       {m: m.split("*")[0] for m in P.morphisms()})
    proj2 = CatFunctor(P, B, {o: "*" for o in P.objects()},
                       {m: m.split("*")[1] for m in P.morphisms()})
    EA, MA = retr(A), builtin_class(A, "all")
    EB, MB = retr(B), builtin_class(B, "all")
    rep = transport_classes([proj1, proj2], [(EA, MA), (EB, MB)])
    assert rep.precondition_failure is None
    assert rep.verdict.satisfied
    # intersected preimages: morphisms whose both components are retractions
    assert set(rep.E_prime.member_list()) == set(P.morphisms())


def test_transport_constant_functor_fails_conservativity():
    C = chain_poset(1)
    D = chain_poset(0)
    F = CatFunctor(C, D, {o: "o0" for o in C.objects()},
                   {m: "o0<o0" for m in C.morphisms()})
    assert F.validate() is None
    ok, wit = jointly_conservative([F])
    assert not ok and wit == "o0<o1"
    rep = transport_classes([F], [(builtin_class(D, "all"),
                                   builtin_class(D, "all"))])
    assert rep.precondition_failure is not None
    assert rep.precondition_failure[0] == "joint conservativity"


def test_pullback_preservation_check():
    C = diamond_lattice()
    F = CatFunctor(C, C, {o: o for o in C.objects()},
                   {m: m for m in C.morphisms()})
    ok, _ = preserves_pullbacks(F)
    assert ok


def test_ambient_scan_matches_reference_loops():
    """Satisfied flag, counterexample and diagrams_checked equal the plain
    loops of oracles.ambient_protomodularity on the ambient grown to 8
    objects, for builtin and explicit iso-saturated classes."""
    from fixtures_util import FULL_GROWTH, grown_ambient
    amb = grown_ambient(*FULL_GROWTH)
    ms = amb.morphisms()
    assert (len(amb.objects()), len(ms)) == (8, 1010)
    pairs = [
        (builtin_class(amb, "surjections"), builtin_class(amb, "injections")),
        # surjections plus injections into groups of order >= 6: fails
        (explicit_class(amb, "E", [m for m in ms if m.is_surjective() or (
            m.is_injective() and m.tgt.size >= 6)]),
         builtin_class(amb, "all")),
        (explicit_class(amb, "E", [m for m in ms if m.is_surjective()
                                   and m.src.size >= 4]),
         explicit_class(amb, "M", [m for m in ms if not m.is_surjective()
                                   or m.src.size >= 6])),
    ]
    verdicts = []
    for E, M in pairs:
        rep = check_protomodularity_pair(amb, E, M)
        ok, diag, count = oracles.ambient_protomodularity(amb, E, M)
        cx = rep.counterexample
        assert rep.satisfied == ok and rep.diagrams_checked == count
        assert (cx and (cx.e, cx.theta, cx.beta, cx.e_prime)) == diag
        verdicts.append((ok, count))
    assert verdicts == [(True, 1415), (False, 46), (True, 13301)]
    assert len(amb.objects()) == 8


CLASS_PAIRS = (("retractions", "all"), ("isos", "all"), ("epis", "monos"),
               ("all", "all"), ("sections", "monos"))
FORMS = ((check_protomodularity_pair, oracles.protomodularity_definition),
         (check_protomodularity_equivalent,
          oracles.protomodularity_rectangle),
         (check_protomodularity_mono_part, oracles.protomodularity_mono_part))


def point_in_three():
    """A point p and X = {0, 1, 2}: the point 0 of X, and the maps of X
    fixing 0 and keeping {1, 2}: the identity, the swap 021 and the
    idempotents 011 and 022, which have no monic part."""
    maps = {"p>p": ("p", "p", (0,)), "p>X": ("p", "X", (0,))}
    maps.update({f"X:{''.join(map(str, images))}": ("X", "X", images)
                 for images in ((0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2))})
    by_map = {v: k for k, v in maps.items()}
    composition = {
        (g, f): by_map[maps[f][0], maps[g][1],
                       tuple(maps[g][2][x] for x in maps[f][2])]
        for f in maps for g in maps if maps[g][0] == maps[f][1]}
    return validate_category(
        (["X", "p"], {k: v[:2] for k, v in maps.items()},
         {"p": "p>p", "X": "X:012"}, composition), name="point_in_three")


@pytest.fixture(scope="module")
def form_reports(corpus):
    """Per category set (explicit corpus categories but finite_top; the 64
    harness categories; a category where some theta has no monic part):
    (C, E, M, report, oracle report) for every class pair and form."""
    sets = {
        "corpus": [corpus[n].category for n in corpus.names()
                   if n != "finite_top"
                   and isinstance(corpus[n].category, FinCategory)],
        "harness": [random_category(s, (4, 12)) for s in range(64)],
        "no monic part": [point_in_three()],
    }
    out = {}
    for label, cats in sets.items():
        out[label] = [
            (C, E, M, check(C, E, M), reference(C, E, M))
            for C in cats for E, M in (
                (builtin_class(C, e), builtin_class(C, m))
                for e, m in CLASS_PAIRS)
            for check, reference in FORMS]
    return out


def test_forms_match_reference_loops(form_reports):
    """Every field of the definition, rectangle and mono-part reports equals
    the form's own plain loop in oracles; both verdicts occur."""
    failing = {}
    for label, rows in form_reports.items():
        for C, E, M, rep, ref in rows:
            assert rep.to_json() == ref.to_json(), \
                (label, C.name, E.name, M.name, rep.form)
        failing[label] = (sum(not rep.satisfied for *_, rep, _ in rows),
                          len(rows))
    assert failing == {"corpus": (60, 240), "harness": (120, 960),
                       "no monic part": (3, 15)}


def test_counterexamples_are_diagrams(form_reports):
    """Each counterexample is the two-pullback diagram it claims to be: both
    squares are pullbacks, alpha is iso and beta is not, and e.beta
    factors as gamma.e' (definition, mono-part) or is e' in E
    (rectangle)."""
    checked = 0
    for rows in form_reports.values():
        for C, E, M, rep, _ in rows:
            cx = rep.counterexample
            if cx is None:
                continue
            outer = PullbackSquare(C, cx.theta, cx.e, cx.apex, cx.p, cx.m)
            inner = PullbackSquare(C, cx.m, cx.beta, cx.apex_prime,
                                   cx.alpha, cx.m_prime)
            assert verify_pullback_square(C, outer)
            assert verify_pullback_square(C, inner)
            assert C.is_iso(cx.alpha) and not C.is_iso(cx.beta)
            assert E.contains(cx.e) and M.contains(cx.beta)
            assert E.contains(cx.e_prime)
            eb = C.compose(cx.e, cx.beta)
            if rep.form == "rectangle":
                assert cx.gamma is None and cx.e_prime == eb
            else:
                assert C.is_iso(cx.gamma)
                assert C.compose(cx.gamma, cx.e_prime) == eb
            checked += 1
    assert checked == 183


@pytest.mark.parametrize("name", ["abelian_ambient", "groups_ambient"])
def test_initial_object_on_ambients(corpus, name):
    """The rectangle form's initial object is found on algebra ambients,
    whose objects do not compare with <, and is the ambient's own."""
    from fincov.protomod import _initial_object
    C = corpus[name].category
    assert _initial_object(C) is C.initial() is not None


def test_initial_object_on_explicit_categories(corpus):
    """Sorting by mor_key keeps the string order of explicit objects."""
    from fincov.protomod import _initial_object
    for n in corpus.names():
        C = corpus[n].category
        if isinstance(C, FinCategory) and n != "finite_top":
            assert _initial_object(C) == oracles._initial_object(C)


AMBIENTS = ("abelian_ambient", "groups_ambient", "monoids_ambient")


def _closed_under_isos_by_loops(C, E):
    """iso . e and e . iso in E for every member e, one composite at a
    time."""
    isos = [m for m in C.morphisms() if C.is_iso(m)]
    return all(C.compose(g, e) in E for e in E.member_list()
               for g in isos if g.src is e.tgt) \
        and all(C.compose(e, g) in E for e in E.member_list()
                for g in isos if g.tgt is e.src)


@pytest.mark.parametrize("name", AMBIENTS)
def test_ambient_iso_closure_decided_from_members(corpus, name):
    """The anchored scan's iso-closure test, membership constant on the
    automorphism orbits walked along generators, equals the plain loops
    over every iso: every builtin but identities is closed on the corpus
    ambients, and identities is not, since an object has a nontrivial
    automorphism, so the scan raises for it.  So do the surjections with
    one member cut, for six seeded cuts."""
    import random

    from fincov.kernels import iso_saturated
    C = corpus[name].category

    def _closed_under_isos(C, E):
        return iso_saturated(list(map(E.contains, C.morphisms())),
                             C.orbit_reps)
    verdicts = {}
    for cls in ("all", "identities", "isos", "monos", "epis", "injections",
                "surjections", "sections", "retractions"):
        E = builtin_class(C, cls)
        verdicts[cls] = _closed_under_isos(C, E)
        assert verdicts[cls] == _closed_under_isos_by_loops(C, E), cls
    assert any(C.is_iso(m) and not C.is_identity(m) for m in C.morphisms())
    assert [c for c, ok in verdicts.items() if not ok] == ["identities"]
    rng = random.Random(name)
    surjections = builtin_class(C, "surjections").member_list()
    cuts = []
    for k in range(6):
        cut = rng.choice(surjections)
        E = explicit_class(C, f"cut{k}", [m for m in surjections if m != cut])
        cuts.append(_closed_under_isos(C, E))
        assert cuts[-1] == _closed_under_isos_by_loops(C, E), cut
    assert False in cuts
    with pytest.raises(ValueError, match="iso-saturated"):
        check_protomodularity_pair(C, builtin_class(C, "identities"),
                                   builtin_class(C, "all"))


def test_ambient_explicit_E_must_be_closed_under_isos():
    """An explicit copy of the surjections gives the builtin's report; the
    copy without one composite iso . e raises.  On a roster without
    nontrivial automorphisms, identities are closed and the scan runs."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    E, M = builtin_class(amb, "surjections"), builtin_class(amb, "all")
    copy = explicit_class(amb, "surjections", E.member_list())
    assert check_protomodularity_pair(amb, copy, M).to_json() == \
        check_protomodularity_pair(amb, E, M).to_json()
    autos = [h for h in amb.morphisms()
             if amb.is_iso(h) and not amb.is_identity(h)]
    ge = next(amb.compose(g, e) for e in E.member_list() for g in autos
              if g.src is e.tgt and amb.compose(g, e) != e)
    short = explicit_class(amb, "surjections",
                           [m for m in E.member_list() if m != ge])
    with pytest.raises(ValueError, match="iso-saturated"):
        check_protomodularity_pair(amb, short, M)
    small = build_finalg_category(group_theory(), 4,
                                  [cyclic_group(1), cyclic_group(2)])
    rep = check_protomodularity_pair(small, builtin_class(small, "identities"),
                                     builtin_class(small, "all"))
    assert rep.satisfied is True


def test_mono_part_on_ambient_reports_its_own_form():
    """On an algebra ambient every form takes the anchored shortcut; the
    mono-part report carries its own form label and otherwise equals the
    rectangle report."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import groups_upto
    C = build_finalg_category(group_theory(), 8, groups_upto(8))
    E, M = builtin_class(C, "retractions"), builtin_class(C, "all")
    rect = check_protomodularity_equivalent(C, E, M)
    mono = check_protomodularity_mono_part(C, E, M)
    assert (rect.form, mono.form) == ("rectangle", "mono-part")
    assert dict(mono.to_json(), form="rectangle") == rect.to_json()


# ---------------------------------------------------------------------------
# the generic scans on small algebra ambients
# ---------------------------------------------------------------------------

# (theory, size cap, roster, roster order cap)
SMALL_AMBIENTS = {
    "groups_upto(6)": ("group_theory", 6, "groups_upto", 6),
    "monoids_upto(3)": ("monoid_theory", 3, "monoids_upto", 3)}


def _fresh_ambient(theory, cap, roster, order_cap, concrete=True):
    """A fresh algebra ambient; concrete=False on the instance sends every
    protomodularity form down the generic scan."""
    from fincov import algebra, algkit, instances
    C = algkit.build_finalg_category(getattr(algebra, theory)(), cap,
                                     getattr(instances, roster)(order_cap))
    C.concrete = concrete
    return C, builtin_class(C, "surjections"), builtin_class(C, "injections")


@pytest.mark.parametrize("name", sorted(SMALL_AMBIENTS))
@pytest.mark.parametrize("check", [check_protomodularity_pair,
                                   check_protomodularity_equivalent,
                                   check_protomodularity_mono_part])
def test_generic_forms_match_the_shortcut_on_small_ambients(name, check):
    """With the concrete dispatch bypassed, each form scans the ambient
    itself, each on a fresh ambient: pullbacks past the size cap are
    skipped as restricted rather than raising CapExceeded, and the
    verdict is the anchored shortcut's (a violation on the monoids)."""
    spec = SMALL_AMBIENTS[name]
    short = check_protomodularity_pair(*_fresh_ambient(*spec))
    assert short.satisfied is (name == "groups_upto(6)")
    rep = check(*_fresh_ambient(*spec, concrete=False))
    assert rep.satisfied is short.satisfied
    assert rep.diagrams_checked > 0
    assert (rep.counterexample is None) is rep.satisfied


def test_generic_definition_form_skips_cospans_past_the_cap():
    """V4 -> Z1 <- Z2 has a pullback of 8 elements, past the cap of 6: the
    generic definition form counts it as restricted."""
    from fincov.fincat import try_pullback
    C, E, M = _fresh_ambient(*SMALL_AMBIENTS["groups_upto(6)"],
                             concrete=False)
    ob = {A.name: A for A in C.objects()}
    assert try_pullback(C, C.hom(ob["V4"], ob["Z1"])[0],
                        C.hom(ob["Z2"], ob["Z1"])[0]) is None
    assert check_protomodularity_pair(C, E, M).restricted is True


def test_generic_mono_parts_are_decided_on_demand():
    """On the abelian ambient at cap 8, deciding mono parts registers
    pullback apexes; the theta range of every roster object still
    answers, each theta with its mono part or None."""
    from fincov.protomod import _mono_part_plan
    C, E, _ = _fresh_ambient("group_theory", 8, "abelian_groups_upto", 4,
                             concrete=False)
    thetas, _, _ = _mono_part_plan(C, E)
    roster = list(C.objects())
    monos = builtin_class(C, "monos")
    for c in roster:
        parts = thetas(c)
        assert parts and len(parts) <= len(C.morphisms_into(c))
        assert all(m is None or monos.contains(m) for m in parts)
    assert len(C.objects()) > len(roster)
