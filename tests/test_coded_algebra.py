"""The algebra ambient's derived algebras (pair pullbacks, preimage
pullbacks, subalgebras, quotients, the uniformity theorem's pair
algebras) from one coded construction, against tables built one entry
at a time in ``oracles``; pullbacks sized before they are built; pullback
mediators read from the apex codes."""

import pytest

import oracles
from fincov import algkit
from fincov.algkit import (AlgCategory, AlgHom, build_finalg_category,
                           congruences, group_theory, monoid_theory,
                           quotient_algebra, subalgebra_closure,
                           verify_uniformity_theorem)
from fincov.fincat import CapExceeded, try_pullback
from fincov.instances import abelian_groups_upto, groups_upto, monoids_upto


def ambients():
    """abelian_groups_upto(4) at cap 8; groups_upto(4) and monoids_upto(3)
    at cap 3, each seeded with its members within the cap."""
    return [build_finalg_category(theory, cap, [A for A in roster
                                                if A.size <= cap])
            for theory, cap, roster in (
                (group_theory(), 8, abelian_groups_upto(4)),
                (group_theory(), 3, groups_upto(4)),
                (monoid_theory(), 3, monoids_upto(3)))]


@pytest.fixture
def admitted(monkeypatch):
    out = []
    admit = AlgCategory._admit

    def recording(self, algebra):
        out.append(algebra)
        return admit(self, algebra)

    monkeypatch.setattr(AlgCategory, "_admit", recording)
    return out


def cospans(C):
    """Every cospan of C's roster as it stands before any pullback."""
    return [(f, g) for z in C.objects() for f in C.morphisms_into(z)
            for g in C.morphisms_into(z)]


def test_pullback_tables_match_entrywise_reference(admitted):
    """Each pair pullback's apex, and each subalgebra a preimage pullback
    admits, has the tables of the oracle's algebra on the same pairs or
    elements; the projections pair up exactly the oracle's pairs."""
    kinds = {"pair": 0, "preimage": 0, "capped": 0}
    for C in ambients():
        for f, g in cospans(C):
            del admitted[:]
            fresh = C._fresh
            sq = try_pullback(C, f, g)
            pairs = oracles.pullback_pairs(f, g)
            injective = f.is_injective() or g.is_injective()
            if sq is None:
                assert not injective and len(pairs) > C.size_cap
                assert admitted == [] and C._fresh == fresh + 1
                kinds["capped"] += 1
                continue
            assert sorted(zip(sq.proj1.images, sq.proj2.images)) == pairs
            assert sq.proj1.is_valid() and sq.proj2.is_valid()
            if not injective:
                kinds["pair"] += 1
                (P,) = admitted
                assert P.op_tables() == oracles.flat_ops(
                    C.theory, oracles.pair_ops(f.src, g.src, pairs))
                continue
            kinds["preimage"] += 1
            h = f if g.is_injective() else g
            pre = sorted({p[0] if h is f else p[1] for p in pairs})
            if admitted:
                (S,) = admitted
                assert S.op_tables() == oracles.flat_ops(
                    C.theory, oracles.subalgebra_ops(h.src, pre))
            assert sorted((sq.proj1 if h is f else sq.proj2).images) == pre
    assert min(kinds.values()) > 0, kinds


def test_subalgebra_tables_match_entrywise_reference(admitted):
    checked = 0
    for C in ambients():
        for A in C.objects():
            for x in A.carrier:
                elems = sorted(subalgebra_closure(A, {x}))
                del admitted[:]
                C._sub_cache.clear()
                mask = sum(1 << y for y in elems)
                R, incl = C.subalgebra_object(A, mask)
                (S,) = admitted
                assert S.op_tables() == oracles.flat_ops(
                    C.theory, oracles.subalgebra_ops(A, elems))
                assert incl.src is R and sorted(incl.images) == elems
                assert incl.is_valid()
                assert C.subalgebra_object(A, mask) == (R, incl)
                assert len(admitted) == 1  # a cache hit
                checked += 1
    assert checked > 30


def test_quotient_tables_match_entrywise_reference():
    checked = 0
    for A in groups_upto(4) + monoids_upto(3) + abelian_groups_upto(4):
        for theta in congruences(A):
            Q, q = quotient_algebra(A, theta)
            assert Q.op_tables() == oracles.flat_ops(
                A.theory, oracles.quotient_ops(A, theta))
            assert q.images == theta and q.is_valid()
            checked += 1
    assert checked > 30


def test_uniformity_pair_algebras_match_entrywise_reference(monkeypatch):
    built = []
    coded = algkit._coded_algebra

    def recording(theory, name, factors, codes, relabel=None):
        P = coded(theory, name, factors, codes, relabel)
        if name == "pb":
            built.append((factors, list(codes), P))
        return P

    monkeypatch.setattr(algkit, "_coded_algebra", recording)
    C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    out = verify_uniformity_theorem(C, pullback_cap=6, rectangle_cap=50)
    assert len(built) == out["part2"]["pullbacks_checked"] > 0
    for (X, Y), codes, P in built:
        pairs = [divmod(c, Y.size) for c in codes]
        assert P.op_tables() == oracles.flat_ops(
            C.theory, oracles.pair_ops(X, Y, pairs))


def test_code_count_is_built_size():
    """On the 5-object abelian ambient, the number of pair codes of every
    cospan is the apex size, or exceeds the cap when there is none."""
    C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    assert len(C.objects()) == 5
    spans = cospans(C)
    for f, g in spans:
        n = len(algkit._pair_codes(f, g))
        assert n == len(oracles.pullback_pairs(f, g))
        sq = try_pullback(C, f, g)
        assert (n > C.size_cap) if sq is None else (sq.apex.size == n)
    assert len(spans) > 100


def test_oversize_pair_pullback_takes_one_name_admits_nothing(admitted):
    C = ambients()[1]
    ob = {A.name: A for A in C.objects()}
    f = C.hom(ob["Z2"], ob["Z1"])[0]
    before, fresh = C.objects(), C._fresh
    del admitted[:]
    with pytest.raises(CapExceeded, match="size 4 > cap"):
        C.find_pullback(f, f)
    assert C._fresh == fresh + 1 and admitted == []
    assert C.objects() == before
    assert C.fresh_name("probe") == f"probe#{fresh + 2}"


def test_mediators_match_pair_dict_on_product_squares():
    """Every cone of every product square the closure harness forms on
    the abelian ambient: the mediator is the hom x -> the apex element
    projecting to (p(x), q(x))."""
    C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    roster = list(C.objects())
    Z1 = next(A for A in roster if A.name == "Z1")
    cones = 0
    for a in roster:
        for b in roster:
            if a.size * b.size > C.size_cap:
                continue
            sq = C.find_pullback(C.hom(a, Z1)[0], C.hom(b, Z1)[0])
            apex = {(sq.proj1(i), sq.proj2(i)): i
                    for i in range(sq.apex.size)}
            for X in C.objects():
                for p in C.hom(X, a):
                    for q in C.hom(X, b):
                        want = AlgHom(X, sq.apex, tuple(
                            apex[p(x), q(x)] for x in X.carrier))
                        assert sq.mediator(p, q) == want
                        cones += 1
    assert cones > 1000
