import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fincov.fincat import FinCategory, validate_category
from fincov.instances import (cyclic_group, diamond_lattice,
                              finite_top_category, groups_upto, monoids_upto,
                              poset_category, random_category,
                              random_mixed_functor, set_skeleton,
                              standard_corpus, subgroup_lattice_poset)


def test_poset_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        poset_category(["a", "b"], [("a", "b"), ("b", "a")])


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
        if hasattr(cat, "theory"):
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
    # random_category validates internally; a failure would raise
    for seed in range(1000):
        cat = random_category(seed, (4, 18))
        assert isinstance(cat, FinCategory)


def test_monoid_counts():
    from collections import Counter
    counts = Counter(m.size for m in monoids_upto(4))
    assert counts == {1: 1, 2: 2, 3: 7, 4: 35}
