
import pytest

from fincov.algkit import (AlgHom, CapExceeded, FinAlgebra, Theory,
                           build_finalg_category, check_monic_pullback_corollary,
                           classify_uniformity, congruences,
                           derived_malcev_term, enumerate_homs,
                           enumerate_normal_subalgebras, equation_failure,
                           eval_term, find_isomorphism, group_theory,
                           identity_hom, is_right_unital, monoid_theory,
                           quotient_algebra, subalgebra_closure, term_grid,
                           validate_theory_witnesses)
from fincov.instances import (abelian_groups_upto, cyclic_group,
                              groups_upto, klein_four_group, monoids_upto)

T = group_theory()
Z4 = cyclic_group(4)
Z2 = cyclic_group(2)


def test_eval_constant():
    assert eval_term(Z4, ("e",), {}) == 0


def test_eval_binary():
    assert eval_term(Z4, ("mul", ("x",), ("y",)), {"x": 1, "y": 3}) == 0


def test_eval_nested_protomodular_term():
    # theta(y, x . y^-1) with theta(y, z) = z . y, at x = 2, y = 1
    term = ("mul", ("mul", ("x",), ("inv", ("y",))), ("y",))
    assert eval_term(Z4, term, {"x": 2, "y": 1}) == 2


def test_eval_errors():
    with pytest.raises(ValueError):
        eval_term(Z4, ("mul", ("x",)), {"x": 0})
    with pytest.raises(ValueError):
        eval_term(Z4, ("x",), {})


def group_witnesses():
    theta = ("mul", ("z1",), ("y",))          # theta(y, z1) = z1 . y
    theta1 = ("mul", ("x",), ("inv", ("y",)))  # theta_1(x, y) = x . y^-1
    return {"pointed": ("e",),
            "protomodular": (theta, [theta1], [("e",)])}


def test_group_protomodular_witnesses_hold():
    corpus = groups_upto(8)
    verdicts = validate_theory_witnesses(T, group_witnesses(), corpus)
    assert verdicts["pointed"][0]
    assert verdicts["protomodular"][0]


def test_derived_malcev_term():
    theta = ("mul", ("z1",), ("y",))
    theta1 = ("mul", ("x",), ("inv", ("y",)))
    p = derived_malcev_term(theta, [theta1])
    verdicts = validate_theory_witnesses(T, {"malcev": p}, groups_upto(6))
    assert verdicts["malcev"][0]


def test_empty_signature_candidates_fail():
    bare = Theory("sets", (), ())
    A = FinAlgebra(bare, "two", 2, {})
    assert A.validate() is None
    verdicts = validate_theory_witnesses(
        bare, {"malcev": ("x",)}, [A])
    assert not verdicts["malcev"][0]
    with pytest.raises(ValueError):
        validate_theory_witnesses(bare, {}, [])


def test_minimal_subalgebra_group():
    assert subalgebra_closure(Z4, ()) == frozenset({0})


def test_minimal_subalgebra_empty_signature():
    bare = Theory("sets", (), ())
    A = FinAlgebra(bare, "two", 2, {})
    assert subalgebra_closure(A, ()) == frozenset()


def test_minimal_subalgebra_monoid_with_two_constants():
    Tm = Theory("pm", (("mul", 2), ("e", 0), ("z", 0)), (
        (("x",), ("mul", ("e",), ("x",)), ("x",)),
        (("x",), ("mul", ("x",), ("e",)), ("x",)),
    ))
    # {0 = e, 1 = z} with absorbing z inside a 3-element monoid
    mul = ((0, 1, 2), (1, 1, 1), (2, 1, 2))
    A = FinAlgebra(Tm, "M", 3, {"mul": mul, "e": 0, "z": 1})
    assert A.validate() is None
    assert subalgebra_closure(A, ()) == frozenset({0, 1})


def test_enumerate_homs_z4_z2():
    hs = enumerate_homs(Z4, Z2)
    assert [h.images for h in hs] == [(0, 0, 0, 0), (0, 1, 0, 1)]


def test_enumerate_homs_contains_identity():
    hs = enumerate_homs(Z4, Z4)
    assert identity_hom(Z4) in hs


def test_enumerate_homs_from_trivial():
    Z1 = cyclic_group(1)
    assert len(enumerate_homs(Z1, Z4)) == 1


def test_normal_subalgebras_z4():
    assert [sorted(s) for s in enumerate_normal_subalgebras(Z4)] == \
        [[0], [0, 1, 2, 3], [0, 2]]


def test_normal_subalgebras_klein():
    V4 = klein_four_group()
    assert len(enumerate_normal_subalgebras(V4)) == 5


def test_normal_subalgebras_one_element():
    Z1 = cyclic_group(1)
    assert enumerate_normal_subalgebras(Z1) == [frozenset({0})]


def test_normal_subalgebras_agree_with_hom_search():
    # independent oracle: preimages of minimal subalgebras along all homs
    # into the complete size <= 4 roster
    roster = [A for A in groups_upto(4)]
    for A in roster:
        via_homs = set()
        for B in roster:
            if B.size > A.size:
                continue
            for h in enumerate_homs(A, B):
                via_homs.add(h.preimage(subalgebra_closure(B, ())))
        assert set(enumerate_normal_subalgebras(A)) == via_homs, A.name


def test_congruences_count_z4():
    assert len(congruences(Z4)) == 3


def test_quotient_algebra_valid():
    for theta in congruences(Z4):
        Q, q = quotient_algebra(Z4, theta)
        assert Q.validate() is None
        assert q.is_valid()


def test_uniformity_mod2_hom():
    f = enumerate_homs(Z4, Z2)[1]
    rep = classify_uniformity(f)
    assert rep.weakly_t_uniform and rep.t_uniform and rep.strongly_t_uniform
    assert rep.t_cancelative and rep.weakly_t_cancelative
    # the defining instance: 1 + preimage of 0 is the preimage of 1 + {0}
    K = sorted(f.preimage(subalgebra_closure(Z2, ())))
    assert K == [0, 2]
    assert sorted((1 + k) % 4 for k in K) == [1, 3]


def test_uniformity_injective_hom():
    incl = enumerate_homs(Z2, Z4)[1]
    rep = classify_uniformity(incl)
    assert rep.t_uniform and rep.weakly_t_uniform


def test_uniformity_monoid_counterexample():
    Tm = monoid_theory()
    # three-element multiplicative monoid {1, a, 0} with a.a = 0
    mul = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    M = FinAlgebra(Tm, "A3", 3, {"mul": mul, "e": 0})
    assert M.validate() is None
    one = FinAlgebra(Tm, "One", 1, {"mul": ((0,),), "e": 0})
    f = AlgHom(M, one, (0, 0, 0))
    assert f.is_valid()
    rep = classify_uniformity(f)
    # collapsing 1 and a needs a = 1.k with k in the whole of M: k = a works
    # for the pair (a, 1) but the pair (1, a) needs 1 = a.k: impossible
    assert rep.t_uniform is False
    assert rep.witnesses["t_uniform"]


def test_implication_chain_groups():
    t = T.default_t
    assert is_right_unital(t, groups_upto(6)) is not None
    for A in groups_upto(6):
        for B in groups_upto(6):
            for h in enumerate_homs(A, B):
                rep = classify_uniformity(h, t)
                if rep.strongly_t_uniform:
                    assert rep.t_uniform
                if rep.t_uniform:
                    assert rep.weakly_t_uniform


def test_pointed_theory_weakly_cancelative():
    for A in groups_upto(6):
        for B in groups_upto(6):
            for h in enumerate_homs(A, B):
                assert classify_uniformity(h).weakly_t_cancelative


def test_monic_pullback_corollary_mod2():
    f = enumerate_homs(Z4, Z2)[1]
    res = check_monic_pullback_corollary(f)
    assert res["ok"] is True
    assert res["injective"] is False and res["restriction_injective"] is False


def test_monic_pullback_corollary_injective():
    incl = enumerate_homs(Z2, Z4)[1]
    res = check_monic_pullback_corollary(incl)
    assert res["ok"] is True and res["injective"] is True


def test_monic_pullback_hypothesis_failure():
    Tm = monoid_theory()
    mul = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    M = FinAlgebra(Tm, "A3", 3, {"mul": mul, "e": 0})
    one = FinAlgebra(Tm, "One", 1, {"mul": ((0,),), "e": 0})
    f = AlgHom(M, one, (0, 0, 0))
    res = check_monic_pullback_corollary(f)
    if res["ok"] is None:
        assert res["hypothesis_failures"]


def test_ambient_pullback_of_z4s_over_z2():
    amb = build_finalg_category(group_theory(), 8, groups_upto(8))
    Z4a = next(A for A in amb.objects() if A.name == "Z4")
    Z2a = next(A for A in amb.objects() if A.name == "Z2")
    f = enumerate_homs(Z4a, Z2a)[1]
    sq = amb.find_pullback(f, f)
    assert sq.apex.size == 8
    # fiber product over the one-element algebra is the product
    Z1a = next(A for A in amb.objects() if A.name == "Z1")
    ta = amb.hom(Z4a, Z1a)[0]
    tb = amb.hom(Z2a, Z1a)[0]
    prod = amb.find_pullback(ta, tb)
    assert prod.apex.size == 8


def test_ambient_cap_error():
    amb = build_finalg_category(group_theory(), 4,
                                [cyclic_group(4), cyclic_group(2),
                                 cyclic_group(1)])
    Z4a = next(A for A in amb.objects() if A.name == "Z4")
    Z2a = next(A for A in amb.objects() if A.name == "Z2")
    f = enumerate_homs(Z4a, Z2a)[1]
    with pytest.raises(CapExceeded):
        amb.find_pullback(f, f)


def test_ambient_pullback_mediators():
    amb = build_finalg_category(group_theory(), 8, groups_upto(4))
    Z4a = next(A for A in amb.objects() if A.name == "Z4")
    Z2a = next(A for A in amb.objects() if A.name == "Z2")
    f = enumerate_homs(Z4a, Z2a)[1]
    sq = amb.find_pullback(f, f)
    med = sq.mediator(identity_hom(Z4a), identity_hom(Z4a))
    assert med.src is Z4a and med.tgt is sq.apex
    assert amb.compose(sq.proj1, med) == identity_hom(Z4a)


@pytest.mark.parametrize("name", ["abelian_ambient", "groups_ambient",
                                  "monoids_ambient"])
def test_ambient_monos_and_epis_match_generic_definitions(corpus, name):
    """The ambient's monos (injective homs) and epis (surjective homs) are
    CategoryBase's cancellation tests over the roster, on every morphism
    of the corpus ambients, and the ambient says it is concrete."""
    from fincov.fincat import CategoryBase
    C = corpus[name].category
    assert C.concrete and not CategoryBase.concrete
    ms = C.morphisms()
    assert [C.is_mono(m) for m in ms] == \
        [CategoryBase.is_mono(C, m) for m in ms]
    assert [C.is_epi(m) for m in ms] == \
        [CategoryBase.is_epi(C, m) for m in ms]
    assert {C.is_mono(m) for m in ms} == {C.is_epi(m) for m in ms} == \
        {True, False}


@pytest.mark.parametrize("theory, seeds, cap", [
    (group_theory, lambda: abelian_groups_upto(4), 8),
    (monoid_theory, lambda: monoids_upto(3), 3)])
def test_ambient_sections_and_retractions_match_generic_definitions(
        theory, seeds, cap):
    """The ambient reads sections and retractions off the image rows of
    hom(b, a); they equal CategoryBase's composition scans on every hom,
    and both verdicts occur."""
    from fincov.fincat import CategoryBase
    C = build_finalg_category(theory(), cap, seeds())
    ms = C.morphisms()
    assert [C.is_section(m) for m in ms] == \
        [CategoryBase.is_section(C, m) for m in ms]
    assert [C.is_retraction(m) for m in ms] == \
        [CategoryBase.is_retraction(C, m) for m in ms]
    assert {C.is_section(m) for m in ms} == \
        {C.is_retraction(m) for m in ms} == {True, False}


def test_find_isomorphism_detects_nonisomorphic():
    assert find_isomorphism(cyclic_group(4), klein_four_group()) is None
    iso = find_isomorphism(cyclic_group(4), cyclic_group(4))
    assert iso is not None and iso.is_bijective()


def test_monoid_corpus_validates():
    for M in monoids_upto(3):
        assert M.validate() is None


def test_theory_json_roundtrip():
    again = Theory.from_json(T.to_json(), name="groups")
    assert again.symbols == T.symbols
    assert again.equations == T.equations


def _valid_by_loops(h):
    """Plain reference: h(s(args)) == s(h(args)) for every symbol and
    every argument tuple of the source."""
    import itertools
    A, B = h.src, h.tgt
    for s, a in A.theory.symbols:
        for args in itertools.product(A.carrier, repeat=a):
            if h.images[A.apply(s, args)] != \
                    B.apply(s, [h.images[x] for x in args]):
                return False
    return True


def test_hom_validity_matches_reference_loops():
    import itertools
    algebras = [groups_upto(4), monoids_upto(3)]
    for family in algebras:
        for A in family:
            for B in family:
                if B.size ** A.size > 256:
                    continue
                for images in itertools.product(B.carrier, repeat=A.size):
                    h = AlgHom(A, B, images)
                    assert h.is_valid() == _valid_by_loops(h), (A, B, images)


def _one_entry_changed(A, rng, per_symbol=3):
    """Copies of A, each with one operation-table entry moved to another
    element."""
    out = []
    for s, a in A.theory.symbols:
        for _ in range(per_symbol if A.size > 1 else 0):
            t = list(A.op_tables()[s])
            at = tuple(rng.randrange(A.size) for _ in range(a))
            k = sum(x * A.size ** (a - 1 - i) for i, x in enumerate(at))
            t[k] = (t[k] + rng.randrange(1, A.size)) % A.size
            out.append(FinAlgebra.from_tables(
                A.theory, f"{A.name}~{s}{at}", A.size,
                {**A.op_tables(), s: tuple(t)}))
    return out


def test_equation_tables_match_assignment_loop(monkeypatch):
    """validate and equation_failure read each equation from the
    operation tables, and name the assignment the per-assignment loop
    meets first, on the roster algebras of the three ambients and on
    copies with one table entry changed."""
    import random

    import fincov.algkit as algkit
    import oracles
    from fincov.instances import corpus_entry
    rng = random.Random(0)
    algebras = []
    for name in ("groups_ambient", "abelian_ambient", "monoids_ambient"):
        for A in corpus_entry(name).category.objects():
            algebras += [A] + _one_entry_changed(A, rng)

    def witnesses(lane):
        return [(A.validate(), [lane(A, *eq) for eq in A.theory.equations])
                for A in algebras]

    got = witnesses(algkit.equation_failure)
    monkeypatch.setattr(algkit, "equation_failure", oracles.equation_failure)
    assert got == witnesses(oracles.equation_failure)
    assert sum(err is not None for err, _ in got) > len(algebras) // 2


def test_theory_witness_verdicts_match_assignment_loop(monkeypatch):
    import fincov.algkit as algkit
    import oracles
    x, y, z = ("x",), ("y",), ("z",)

    def mul(a, b):
        return ("mul", a, b)

    groups = groups_upto(8)
    monoids = monoids_upto(3)
    M = monoid_theory()
    cases = [
        (T, group_witnesses(), groups),
        (T, {"malcev": mul(x, mul(("inv", y), z))}, groups),
        (T, {"malcev": mul(x, z),
             "protomodular": (mul(y, ("z1",)), [mul(x, ("inv", y))],
                              [("e",)])}, groups),
        (T, {"pointed": ("inv", ("e",))}, groups),
        (M, {"pointed": ("e",), "malcev": mul(x, mul(y, z)),
             "protomodular": (mul(("z1",), y), [mul(x, y)], [("e",)])},
         monoids),
    ]

    def verdicts():
        return [validate_theory_witnesses(th, w, corpus)
                for th, w, corpus in cases]

    got = verdicts()
    monkeypatch.setattr(algkit, "equation_failure", oracles.equation_failure)
    assert got == verdicts()
    assert [v[0] for rep in got for v in rep.values()].count(False) >= 4


def test_equations_on_the_empty_carrier_hold():
    x, y = ("x",), ("y",)
    S = Theory("semigroups", (("mul", 2),),
               ((("x", "y"), ("mul", x, y), ("mul", y, x)),))
    E = FinAlgebra(S, "empty", 0, {"mul": ()})
    assert E.validate() is None
    assert equation_failure(E, ("x", "y"), ("mul", x, y), x) is None


def test_term_grid_raises_eval_term_errors():
    for term, message in ((("mul", ("y",)), "arity mismatch at mul"),
                          (("x",), "unbound variable x"),
                          (("y", ("x",)), "variable y applied")):
        with pytest.raises(ValueError, match=message):
            eval_term(Z4, term, {"y": 0})
        with pytest.raises(ValueError, match=message):
            term_grid(Z4, term, ("y",))
    # eval_term reads term_grid, so the grid is checked against the
    # reference that applies one operation at a time
    import oracles
    assert term_grid(Z4, ("mul", ("x",), ("y",)), ("x", "y")) == \
        [oracles.eval_term(Z4, ("mul", ("x",), ("y",)), {"x": a, "y": b})
         for a in range(4) for b in range(4)]


def test_eval_term_matches_the_per_operation_reference():
    """eval_term, read from term_grid, equals the reference that applies
    one operation at a time, at every assignment of every equation's
    variables of groups_upto(4) and monoids_upto(3), and on an env that
    binds a variable the term does not use."""
    import itertools

    import oracles
    for A in groups_upto(4) + monoids_upto(3):
        for vars_, lhs, rhs in A.theory.equations:
            for vals in itertools.product(A.carrier, repeat=len(vars_)):
                env = dict(zip(vars_, vals))
                for term in (lhs, rhs):
                    assert eval_term(A, term, env) == \
                        oracles.eval_term(A, term, env)
    env = {"y": 3, "x": 2, "z": 1}
    term = ("mul", ("x",), ("inv", ("y",)))
    assert eval_term(Z4, term, env) == oracles.eval_term(Z4, term, env) == 3


def test_json_tables_rebuild_the_flat_tables():
    """Every algebra of groups_upto(8) and monoids_upto(3), rebuilt from
    its ``to_json()["ops"]`` after a JSON round trip, has equal
    ``op_tables()``; the nested lists hold ``apply``'s values."""
    import json
    for A in groups_upto(8) + monoids_upto(3):
        ops = json.loads(json.dumps(A.to_json()))["ops"]
        B = FinAlgebra(A.theory, A.name, A.size, ops)
        assert B.op_tables() == A.op_tables()
        assert B.validate() is None
        assert ops["mul"] == [[A.apply("mul", [x, y]) for y in A.carrier]
                              for x in A.carrier]
        assert ops["e"] == A.apply("e", [])


def test_table_shapes_keep_their_verdicts():
    """A table that is not nested one level per argument with n entries
    per level fails validate() as totality, also where its flattened
    length would fit, and so does a flat table of the wrong length; an
    entry that is not an int raises ValueError, whatever the shape around
    it."""
    one = FinAlgebra(T, "one", 1, {"mul": 0, "inv": [0], "e": 0})
    assert one.validate() == ("totality", ("mul",))
    two = {"mul": [[0, 1], [1, 0]], "inv": [0, 1], "e": 0}
    assert FinAlgebra(T, "Z2", 2, two).validate() is None
    for sym, bad in (("mul", [[0, 1, 1], [0]]), ("mul", [0, 1, 1, 0]),
                     ("mul", [[[0], [1]], [[1], [0]]]), ("inv", [[0], [1]]),
                     ("e", [0]), ("mul", [[0, 2], [1, 0]])):
        A = FinAlgebra(T, "bad", 2, {**two, sym: bad})
        assert A.validate() == ("totality", (sym,)), (sym, bad)
    short = FinAlgebra.from_tables(T, "short", 2, {
        "mul": (0, 1, 1), "inv": (0, 1), "e": (0,)})
    assert short.validate() == ("totality", ("mul",))
    for bad in ([[0, "z"], [1, 0]], [[0, 1, "z"], [0]], "z"):
        with pytest.raises(ValueError, match="entry 'z' is not an int"):
            FinAlgebra(T, "bad", 2, {**two, "mul": bad})
