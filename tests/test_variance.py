
import random
from collections import Counter

import oracles
from fincov.algkit import subalgebra_closure
from fincov.coverage import _powerset_poset, build_chain_type
from fincov.fincat import product_category, slice_view
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              grid_variance, group_category, klein_variance,
                              random_category, random_mixed_functor,
                              set_skeleton, symmetric_group)
from fincov.morphclass import check_factorization_system
from fincov.variance import (AssembleFailure, MixedFunctor,
                             Variance, _unique_factorizations,
                             assemble_mixed_functor, image_induced,
                             pullback_induced, pushforward_functor,
                             split_mixed_functor, standard_variances,
                             validate_mixed_functor, validate_variance)


def test_covariant_variance_valid():
    I = chain_poset(2)
    cov, contr = standard_variances(I)
    assert isinstance(cov, Variance) and isinstance(contr, Variance)
    assert cov.cov == frozenset(I.morphisms())


def test_product_variance_valid():
    A = chain_poset(1)
    B = chain_poset(1)
    I = product_category(A, B)
    cov = []
    contr = []
    for m in I.morphisms():
        left, right = m.split("*")
        if right.split("<")[0] == right.split("<")[1]:
            cov.append(m)
        if left.split("<")[0] == left.split("<")[1]:
            contr.append(m)
    v = validate_variance(I, cov, contr)
    assert isinstance(v, Variance)


def test_klein_variance_unique_factorizations():
    v = klein_variance()
    I = v.category
    for g in I.morphisms():
        c, d = v.factor_cov_contr(g)
        assert c in v.cov and d in v.contr and I.compose(d, c) == g
        d2, c2 = v.factor_contr_cov(g)
        assert d2 in v.contr and c2 in v.cov and I.compose(c2, d2) == g


def test_variance_failure_reported():
    I = group_category(cyclic_group(4))
    # the subset {e, g2} is a subgroup but {e, g1} is not closed
    bad = validate_variance(I, ["g0", "g1"], ["g0", "g2"])
    assert not isinstance(bad, Variance)


def test_groupoid_strict_factorization_is_variance():
    # subgroup pairs with unique two-sided factorization on groups <= 8
    from fincov.instances import groups_upto
    checked = 0
    for G in groups_upto(8):
        cat = group_category(G)
        n = G.size
        subs = set()
        for seed_len in range(3):
            import itertools
            for seed in itertools.combinations(range(n), seed_len):
                subs.add(subalgebra_closure(G, seed))
        for Asub in subs:
            for Bsub in subs:
                if len(Asub) * len(Bsub) != n:
                    continue
                prods = {G.apply("mul", [b, a]) for a in Asub for b in Bsub}
                if len(prods) != n:
                    continue
                # unique factorization holds by counting; both orders needed
                prods2 = {G.apply("mul", [a, b]) for a in Asub for b in Bsub}
                if len(prods2) != n:
                    continue
                v = validate_variance(cat,
                                      [f"g{a}" for a in Asub],
                                      [f"g{b}" for b in Bsub])
                assert isinstance(v, Variance), (G.name, Asub, Bsub)
                checked += 1
    assert checked > 20


def _class_pairs():
    """(category, first, second): P(1..5) with (all, identities) in both
    orders, and five random pairs of classes, each containing the
    identities, on each of 40 random categories; about a third fail."""
    for k in range(1, 6):
        I = _powerset_poset(k)
        ids = {I.identity(o) for o in I.objects()}
        yield I, set(I.morphisms()), ids
        yield I, ids, set(I.morphisms())
    for seed in range(40):
        C = random_category(seed, (4, 12))
        rng = random.Random(seed)
        ids = {C.identity(o) for o in C.objects()}
        for _ in range(5):
            p, q = rng.random(), rng.random()
            yield (C, ids | {m for m in C.morphisms() if rng.random() < p},
                   ids | {m for m in C.morphisms() if rng.random() < q})


def test_unique_factorizations_match_per_morphism_scan():
    """The one-pass table and its witness (the least f in morphisms()
    order whose count is not 1, with the count) equal the per-f scan."""
    counts = set()
    several = 0
    for C, first, second in _class_pairs():
        got = _unique_factorizations(C, first, second)
        assert got == oracles.unique_factorizations(C, first, second), \
            (C.name, sorted(first), sorted(second))
        if got[0] is None:
            counts.add(min(got[1][1], 2))
            n = Counter(C.compose(b, a) for a in first for b in second
                        if C.src(b) == C.tgt(a))
            several += sum(n[f] != 1 for f in C.morphisms()) > 1
    assert counts == {0, 2} and several > 30


def _perturbed_functors(seed):
    """A seeded mixed functor and six copies with one arrow sent
    elsewhere: mostly to a parallel target morphism, else to any."""
    F = random_mixed_functor(seed)
    D = F.target
    rng = random.Random(seed)
    yield F
    for _ in range(6):
        k = rng.choice(sorted(F.mor_map))
        fk = F.mor_map[k]
        cands = sorted(D.hom(D.src(fk), D.tgt(fk))) if rng.random() < 0.8 \
            else sorted(D.morphisms())
        yield MixedFunctor(F.variance, D, F.obj_map,
                           {**F.mor_map, k: rng.choice(cands)})


def test_mixed_functor_witnesses_match_hexagon_double_loop():
    """validate_mixed_functor walks the variance's law plan; its verdict
    and witness equal the reference double loop over composable pairs."""
    reasons = Counter()
    for seed in range(300):
        for G in _perturbed_functors(seed):
            got = validate_mixed_functor(G)
            assert got == oracles.mixed_functor_violation(G), seed
            reasons[got[0] if got else None] += 1
    assert reasons[None] >= 300
    assert reasons["hexagon"] > 200 and reasons["identities"] > 100


def test_ordinary_functor_is_mixed_functor():
    I = chain_poset(1)
    cov, _ = standard_variances(I)
    D = diamond_lattice()
    obj_map = {"o0": "o0", "o1": "o1"}
    mor_map = {m: f"{obj_map[I.src(m)].replace('o','o')}<"
                  f"{obj_map[I.tgt(m)]}".replace("o<", "<")
               for m in I.morphisms()}
    mor_map = {m: f"{obj_map[I.src(m)]}<{obj_map[I.tgt(m)]}"
               for m in I.morphisms()}
    F = MixedFunctor(cov, D, obj_map, mor_map)
    assert validate_mixed_functor(F) is None


def test_contravariant_functor_is_mixed_functor():
    I = chain_poset(1)
    _, contr = standard_variances(I)
    D = diamond_lattice()
    obj_map = {"o0": "o1", "o1": "o0"}
    mor_map = {}
    for m in I.morphisms():
        ks, kt = contr.source_stage(m), contr.target_stage(m)
        mor_map[m] = f"{obj_map[ks]}<{obj_map[kt]}"
    F = MixedFunctor(contr, D, obj_map, mor_map)
    assert validate_mixed_functor(F) is None


def test_verdict_is_kept_on_the_functor(monkeypatch):
    """validate_mixed_functor decides each functor once and keeps the
    verdict, a witness as well as None, on it; an equal functor built
    apart is decided afresh."""
    from fincov import variance
    decided = Counter()
    real = variance._functor_verdict

    def counting(F):
        decided[id(F)] += 1
        return real(F)

    monkeypatch.setattr(variance, "_functor_verdict", counting)
    # each functor beside an equal one built apart, all kept alive so
    # that their ids stay apart
    pairs = [(G, MixedFunctor(G.variance, G.target, G.obj_map, G.mor_map))
             for G in _perturbed_functors(3)]
    verdicts = set()
    for G, twin in pairs:
        got = validate_mixed_functor(G)
        assert validate_mixed_functor(G) == got == G.verdict
        assert validate_mixed_functor(twin) == got
        assert decided[id(G)] == decided[id(twin)] == 1
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_corrupted_mor_map_detected():
    F = random_mixed_functor(7)
    k = next(m for m in F.mor_map
             if not F.variance.category.is_identity(m))
    bad = dict(F.mor_map)
    D = F.target
    ks = F.variance.source_stage(k)
    # rebind the arrow to an identity at the wrong stage when possible
    bad[k] = D.identity(F.obj_map[ks])
    G = MixedFunctor(F.variance, D, dict(F.obj_map), bad)
    err = validate_mixed_functor(G)
    if F.mor_map[k] == bad[k]:
        assert err is None
    else:
        assert err is not None


def test_split_assemble_roundtrip_seeded():
    for seed in range(40):
        F = random_mixed_functor(seed)
        pair = split_mixed_functor(F)
        again = assemble_mixed_functor(pair)
        assert again == F


def test_assemble_square_violation():
    v = klein_variance()
    G4 = group_category(symmetric_group(3, "S3"))
    ident = G4.identity("*")
    # involutions that do not commute: transpositions (01) and (12)
    invol = [g for g in G4.morphisms()
             if G4.compose(g, g) == ident and g != ident]
    x = next(g for g in invol
             if any(G4.compose(g, h) != G4.compose(h, g) for h in invol))
    y = next(h for h in invol if G4.compose(x, h) != G4.compose(h, x))
    pair = split_mixed_functor(random_mixed_functor(0))
    from fincov.variance import SplitPair
    cov_map = {"g0": ident, "g2": x,
               "g1": None, "g3": None}
    bad = SplitPair(v, G4, {"*": "*"},
                    {"g0": ident, "g2": x},
                    {"g0": ident, "g1": y})
    res = assemble_mixed_functor(bad)
    assert isinstance(res, AssembleFailure)
    assert res.reason == "exchange square"


def _chain_covering(C, c, legs, connect):
    """Covering of c over the covariant chain of length len(legs)-1."""
    dt = build_chain_type(len(legs) - 1, len(legs) - 1, "cov")
    sl = slice_view(C, c)
    obj_map = {f"o{i}": legs[i] for i in range(len(legs))}
    mor_map = {}
    I = dt.I
    for k in I.morphisms():
        i = int(I.src(k)[1:])
        j = int(I.tgt(k)[1:])
        mor_map[k] = (connect[(i, j)], legs[i], legs[j])
    F = MixedFunctor(dt.variance, sl, obj_map, mor_map)
    assert validate_mixed_functor(F) is None
    return dt, F


def test_pullback_induced_identity():
    dia = diamond_lattice()
    legs = ["o0<o1", "oa<o1", "o1<o1"]
    connect = {(0, 1): "o0<oa", (1, 2): "oa<o1", (0, 2): "o0<o1",
               (0, 0): "o0<o0", (1, 1): "oa<oa", (2, 2): "o1<o1"}
    _, G = _chain_covering(dia, "o1", legs, connect)
    F, eta = pullback_induced(dia, "o1<o1", G)
    assert validate_mixed_functor(F) is None
    for i, comp in eta.components.items():
        assert dia.is_iso(comp[0])


def test_pullback_induced_meets():
    dia = diamond_lattice()
    legs = ["o0<o1", "oa<o1", "o1<o1"]
    connect = {(0, 1): "o0<oa", (1, 2): "oa<o1", (0, 2): "o0<o1",
               (0, 0): "o0<o0", (1, 1): "oa<oa", (2, 2): "o1<o1"}
    _, G = _chain_covering(dia, "o1", legs, connect)
    F, eta = pullback_induced(dia, "ob<o1", G)
    assert eta.validate() is None
    # meets: 0^b = 0, a^b = 0, 1^b = b
    assert [dia.src(F.obj_map[f"o{i}"]) for i in range(3)] == \
        ["o0", "o0", "ob"]


def test_pullback_induced_constant():
    dia = diamond_lattice()
    legs = ["o1<o1", "o1<o1"]
    connect = {(0, 1): "o1<o1", (0, 0): "o1<o1", (1, 1): "o1<o1"}
    _, G = _chain_covering(dia, "o1", legs, connect)
    F, _ = pullback_induced(dia, "oa<o1", G)
    assert all(dia.is_iso(F.obj_map[o]) or
               dia.src(F.obj_map[o]) == "oa" for o in F.obj_map)


def test_image_induced_subset_chain():
    sk = set_skeleton(2)
    C = sk.category
    FS = check_factorization_system(C, sk.surjections(), sk.injections())
    legs = ["f0>2:", "f1>2:0"]
    connect = {(0, 1): "f0>1:", (0, 0): "f0>0:", (1, 1): "f1>1:0"}
    dt, F = _chain_covering(C, "S2", legs, connect)
    f = "f2>1:00"
    G, eta = image_induced(C, FS, f, F)
    assert validate_mixed_functor(G) is None
    assert eta.validate() is None
    for i in G.obj_map:
        assert sk.is_injective(G.obj_map[i])
        assert sk.is_surjective(eta.components[i][0])


def test_image_induced_identity_on_subordinated():
    sk = set_skeleton(2)
    C = sk.category
    FS = check_factorization_system(C, sk.surjections(), sk.injections())
    legs = ["f1>2:0", "f2>2:01"]
    connect = {(0, 1): "f1>2:0", (0, 0): "f1>1:0", (1, 1): "f2>2:01"}
    dt, F = _chain_covering(C, "S2", legs, connect)
    G, eta = image_induced(C, FS, "f2>2:01", F)
    for i in G.obj_map:
        assert C.is_iso(eta.components[i][0])


def test_pullback_induced_naturality_exhaustive():
    dia = diamond_lattice()
    legs = ["o0<o1", "oa<o1", "o1<o1"]
    connect = {(0, 1): "o0<oa", (1, 2): "oa<o1", (0, 2): "o0<o1",
               (0, 0): "o0<o0", (1, 1): "oa<oa", (2, 2): "o1<o1"}
    _, G = _chain_covering(dia, "o1", legs, connect)
    for f in dia.morphisms_into("o1"):
        F, eta = pullback_induced(dia, f, G)
        assert eta.validate() is None
        push = pushforward_functor(dia, f, F)
        for k in G.variance.category.morphisms():
            ks = G.variance.source_stage(k)
            kt = G.variance.target_stage(k)
            lhs = dia.compose(G.mor_map[k][0], eta.components[ks][0])
            rhs = dia.compose(eta.components[kt][0], push.mor_map[k][0])
            assert lhs == rhs
