import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fincov import instances
from fincov.coverage import _mask_name
from fincov.fincat import FinCategory, product_category, validate_category
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              finite_top_category, grid_variance,
                              group_category, groups_upto, klein_four_group,
                              klein_variance, monoids_upto, poset_category,
                              random_category, random_mixed_functor,
                              set_skeleton, standard_corpus,
                              subgroup_lattice_poset)
from fincov.variance import validate_variance


def test_poset_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        poset_category(["a", "b"], [("a", "b"), ("b", "a")])


def _poset_cases():
    """(elements, generating pairs) of P(1..6), the chains, the diamond and
    50 seeded random relations."""
    for k in range(1, 7):
        elems = [f"s{_mask_name(m, k)}" for m in range(1 << k)]
        yield elems, [(elems[a], elems[b]) for a in range(1 << k)
                      for b in range(1 << k) if a != b and a & b == a]
    for n in range(5):
        elems = [f"o{i}" for i in range(n + 1)]
        yield elems, list(zip(elems, elems[1:]))
    yield ["o0", "oa", "ob", "o1"], [("o0", "oa"), ("o0", "ob"),
                                     ("oa", "o1"), ("ob", "o1")]
    for seed in range(50):
        rng = random.Random(seed)
        elems = [f"e{i}" for i in range(rng.randint(1, 7))]
        density = rng.random() * 0.5
        yield elems, [(a, b) for a in elems for b in elems
                      if a != b and rng.random() < density]


def test_poset_table_matches_fixpoint_reference():
    rejected = 0
    for elems, pairs in _poset_cases():
        try:
            want = oracles.poset_json(elems, pairs)
        except ValueError as exc:
            rejected += 1
            with pytest.raises(ValueError) as got:
                poset_category(elems, pairs)
            assert str(got.value) == str(exc)
            continue
        assert poset_category(elems, pairs).to_json() == want
    assert 0 < rejected < 50


def test_poset_antisymmetry_witness_is_least_pair():
    cycle = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "b")]
    with pytest.raises(ValueError, match=r"antisymmetric at \(a, b\)"):
        poset_category(["d", "c", "b", "a"], cycle)


def test_trusted_builders_reject_colliding_ids():
    with pytest.raises(ValueError, match="unknown element"):
        poset_category(["a"], [("a", "b")])
    with pytest.raises(ValueError, match="not distinct"):
        poset_category(["a", "a"], [])
    with pytest.raises(ValueError, match="one id"):
        poset_category(["a<b", "c", "a", "b<c"],
                       [("a<b", "c"), ("a", "b<c")])
    # (a, *b) and (a*, b) would both be a**b
    with pytest.raises(ValueError, match="one product id"):
        product_category(poset_category(["a", "a*"], []),
                         poset_category(["b", "*b"], []))


def test_products_with_groups_revalidate():
    for seed in range(50):
        C = random_category(seed, (3, 10))
        P = product_category(C, group_category(cyclic_group(2 + seed % 2)))
        assert isinstance(validate_category(P.to_json()), FinCategory)
        assert len(P.morphisms()) == len(C.morphisms()) * (2 + seed % 2)


def test_variance_shapes_are_built_once():
    shapes = {(r, c): grid_variance(r, c) for r in (1, 2) for c in (1, 2)}
    for (r, c), v in shapes.items():
        assert grid_variance(r, c) is v
        I = product_category(chain_poset(r), chain_poset(c),
                             name=f"grid{r}x{c}")
        fresh = validate_variance(I, v.cov, v.contr)
        assert fresh == v
        assert fresh._cov_first == v._cov_first
        assert fresh._contr_first == v._contr_first
    kv = klein_variance()
    assert klein_variance() is kv
    fresh = validate_variance(group_category(klein_four_group(), name="BV4"),
                              kv.cov, kv.contr)
    assert fresh == kv and fresh._cov_first == kv._cov_first


def test_random_mixed_functors_do_not_depend_on_shape_cache():
    def sweep():
        out = []
        for seed in range(100):
            F = random_mixed_functor(seed)
            out.append((F.variance.category.name, F.to_json(),
                        F.target.to_json()))
        return out

    instances._variance_shapes.clear()
    first = sweep()
    instances._variance_shapes.clear()
    assert sweep() == first
    # one shared variance (and law plan) per shape
    assert random_mixed_functor(0).variance is random_mixed_functor(0).variance


def test_seeded_inputs_match_reference_loops():
    """random_category closes its preorder from successor sets and trusts
    its table, and the Klein functors build each target group category
    once: the tables equal those of the all-pairs fixpoint, validated,
    and per-attempt group builds kept in oracles."""
    for bounds in ((4, 12), (4, 24)):
        for seed in range(200):
            assert random_category(seed, bounds).to_json() == \
                oracles.random_category(seed, bounds).to_json(), \
                (bounds, seed)
    for seed in range(400):
        F, R = random_mixed_functor(seed), oracles.random_mixed_functor(seed)
        assert (F.to_json(), F.target.to_json()) == \
            (R.to_json(), R.target.to_json()), seed
    assert set(instances._klein_target_categories) == \
        set(instances._KLEIN_TARGETS)


def test_random_category_builds_each_group_category_once(monkeypatch):
    """Over seeds 0-199 random_category validates at most the two cyclic
    group categories it multiplies by, once each, and its tables still
    equal those of the reference loops, which rebuild the group per
    attempt."""
    calls = []
    validate = instances.validate_category

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(instances, "_cyclic_group_categories", {})
    monkeypatch.setattr(instances, "validate_category", counting)
    bounds = ((4, 12), (4, 24))
    built = {(b, seed): random_category(seed, b).to_json()
             for b in bounds for seed in range(200)}
    assert len(calls) <= 2
    monkeypatch.undo()
    for (b, seed), table in built.items():
        assert table == oracles.random_category(seed, b).to_json(), (b, seed)


def test_poset_pullbacks_are_meets():
    dia = diamond_lattice()
    sq = dia.find_pullback("oa<o1", "ob<o1")
    assert sq.apex == "o0"


def test_subgroup_lattice_z8_is_chain():
    C = subgroup_lattice_poset(cyclic_group(8))
    assert len(C.objects()) == 4
    bottoms = [o for o in C.objects() if len(C.morphisms_from(o)) == 4]
    assert bottoms == ["u0"]


def test_sierpinski_present():
    top = finite_top_category(2)
    two_point = [(o, opens) for o, (n, opens) in top.spaces.items() if n == 2]
    assert len(two_point) == 3
    assert any(len(opens) == 3 for _, opens in two_point)


def test_top_morphism_counts_match_bruteforce():
    top = finite_top_category(2)
    for a, (na, opa) in top.spaces.items():
        for b, (nb, opb) in top.spaces.items():
            expected = 0
            for img in itertools.product(range(nb), repeat=na):
                ok = True
                for v in opb:
                    pre = 0
                    for x in range(na):
                        if v & (1 << img[x]):
                            pre |= 1 << x
                    if pre not in set(opa):
                        ok = False
                        break
                if ok:
                    expected += 1
            got = len(top.category.hom(a, b))
            assert got == expected, (a, b)


def test_top_composition_is_composition_of_maps():
    top = finite_top_category(2)
    cat = top.category
    pairs = 0
    for f in cat.morphisms():
        for g in cat.morphisms_from(cat.tgt(f)):
            gf = cat.compose(g, f)
            assert top.maps[gf] == tuple(top.maps[g][x] for x in top.maps[f])
            assert (cat.src(gf), cat.tgt(gf)) == (cat.src(f), cat.tgt(g))
            pairs += 1
    assert len(cat.composition()) == pairs


def test_lazy_top_composites_agree_with_lookups():
    from fincov.instances import _MapComposites
    top = finite_top_category(2)
    ends = {m: (top.category.src(m), top.category.tgt(m))
            for m in top.category.morphisms()}
    ids = {(*ends[m], img): m for m, img in top.maps.items()}
    lazy = _MapComposites(ends, top.maps, ids)
    items = dict(lazy.items())
    assert len(lazy) == len(items) == len(list(lazy))
    assert items == {k: lazy[k] for k in lazy}
    assert items == top.category.composition()
    g, f = next((g, f) for g in ends for f in ends
                if ends[g][0] != ends[f][1])
    with pytest.raises(KeyError):
        lazy[(g, f)]


def test_discrete_two_point_cover():
    top = finite_top_category(2)
    from fincov.coverage import OpenCoverCoverage
    occ = OpenCoverCoverage(top, kappa=2)
    discrete = next(o for o, (n, opens) in top.spaces.items()
                    if n == 2 and len(opens) == 4)
    covs, _ = occ.coverings_of(top.category, discrete)
    sizes = sorted(cov.diagram_type.shape_params["size"] for cov in covs)
    assert 2 in sizes  # the cover by the two singletons


def test_embedding_predicates_match_preimage_oracle():
    top = finite_top_category(3)
    C = top.category
    embeddings = set(top.extremal_monos().member_list())
    kinds = set()
    for m, images in top.maps.items():
        src, tgt = C.src(m), C.tgt(m)
        want = oracles.embedding_kinds(images, top.opens(src),
                                       top.opens(tgt), top.npoints(tgt))
        got = (top.is_embedding(m), top.is_open_embedding(m),
               top.is_closed_embedding(m))
        assert got == want, m
        assert (m in embeddings) == want[0], m
        kinds.add(want)
    assert len(top.maps) == 1476 and len(kinds) == 5


def test_random_category_deterministic():
    a = random_category(42)
    b = random_category(42)
    assert a == b


def test_random_category_size_bound():
    for seed in range(20):
        cat = random_category(seed, (3, 15))
        assert len(cat.morphisms()) <= 15


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_category_always_validates(seed):
    cat = random_category(seed)
    assert isinstance(validate_category(cat.to_json()), FinCategory)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_mixed_functor_always_validates(seed):
    from fincov.variance import validate_mixed_functor
    F = random_mixed_functor(seed)
    assert validate_mixed_functor(F) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_opposite_involution_random(seed):
    from fincov.fincat import opposite_category
    cat = random_category(seed, (3, 16))
    assert opposite_category(opposite_category(cat)) == cat


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_classification_matches_oracle_random(seed):
    from fincov.fincat import classify_morphism
    cat = random_category(seed, (3, 10))
    raw = oracles.RawCat(cat.to_json())
    for m in cat.morphisms():
        rep = classify_morphism(cat, m)
        assert rep.mono == oracles.is_mono(raw, m)
        assert rep.epi == oracles.is_epi(raw, m)
        assert rep.iso == oracles.is_iso(raw, m)


def test_corpus_members_validate(corpus):
    assert corpus.names()
    for name in corpus.names():
        cat = corpus[name].category
        if cat.concrete:
            for A in cat.objects():
                assert A.validate() is None
        else:
            assert isinstance(validate_category(cat.to_json()), FinCategory)


def test_corpus_class_assignments_match_classification(corpus):
    from fincov.fincat import classify_morphism
    for name in ("poset_2chain", "diamond", "set_skeleton_2"):
        entry = corpus[name]
        C = entry.category
        for m in C.morphisms():
            rep = classify_morphism(C, m)
            assert entry.classes["monos"].contains(m) == rep.mono
            assert entry.classes["epis"].contains(m) == rep.epi
            assert entry.classes["isos"].contains(m) == rep.iso


def test_corpus_manifest(corpus):
    man = corpus.manifest()
    assert "set_skeleton_3" in man
    assert "groups_ambient" in man


def test_groups_roster_complete():
    names = sorted(A.name for A in groups_upto(8))
    assert len(names) == 14


def test_thousand_seed_sweep():
    # random_category trusts its table; the sweep validates it
    for seed in range(1000):
        cat = random_category(seed, (4, 18))
        assert isinstance(validate_category(cat.to_json()), FinCategory), \
            seed


def test_monoid_counts():
    from collections import Counter
    counts = Counter(m.size for m in monoids_upto(4))
    assert counts == {1: 1, 2: 2, 3: 7, 4: 35}
