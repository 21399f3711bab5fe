"""The algebra ambient's composite rows: one row per (source, hom),
read off image tuples and kept, and the composite index whose blocks
ask for them, against compose_homs and the from-scratch index builder
of ``tests/oracles.py``; the anchored protomodularity scan that reads
them against the reference loop."""

import pytest

import oracles
import fincov.algkit as algkit
from fincov import kernels
from fincov.algebra import FinAlgebra, Theory, group_theory, monoid_theory
from fincov.algkit import build_finalg_category, compose_homs, hom_rows
from fincov.fincat import CapExceeded, CompositionError, mor_key
from fincov.instances import cyclic_group, direct_product_group, \
    monoids_upto
from fincov.morphclass import BUILTIN_CLASS_NAMES, builtin_class
from fincov.protomod import _check_ambient
from fixtures_util import FULL_GROWTH, block_table, composite_pairs, \
    grow_ambient, grown_ambient, numpy_pairs

AMBIENTS = ("abelian_ambient", "groups_ambient", "monoids_ambient")


def harness_stages():
    """The harness ambient after each of its registrations: 5 to 8
    objects, one live category (the tables carry over each growth)."""
    amb = grown_ambient()
    yield amb
    for pair in FULL_GROWTH:
        grow_ambient(amb, pair)
        yield amb


def semilattices():
    """The theory of join-semilattices, which has no constants, and the
    chains C0 (empty) to C3 and the three-element V3 = {a, b, a v b}."""
    x, y, z = ("x",), ("y",), ("z",)

    def join(a, b):
        return ("join", a, b)

    T = Theory("semilattices", (("join", 2),), (
        (("x", "y", "z"), join(join(x, y), z), join(x, join(y, z))),
        (("x", "y"), join(x, y), join(y, x)),
        (("x",), join(x, x), x)))
    chains = [FinAlgebra(T, f"C{n}", n, {"join": tuple(
        tuple(max(a, b) for b in range(n)) for a in range(n))})
        for n in (0, 1, 2, 3)]
    vee = FinAlgebra(T, "V3", 3, {"join": ((0, 2, 2), (2, 1, 2),
                                           (2, 2, 2))})
    return T, chains, vee


def _assert_tables_compose(amb, literal=False):
    """Over every hom-set triple (A, b, C), the composite row of (A, g)
    for each g in hom(b, C) names the composites' images: entry j has the
    images of g after hom(A, b)[j], in the narrowest typecode of
    hom(A, C); when literal, also compose_homs pair by pair, and compose
    returns that roster hom."""
    objs = amb.objects()
    for A in objs:
        for b in objs:
            for C in objs:
                G, F, homs = amb.hom(b, C), amb.hom(A, b), amb.hom(A, C)
                for g in G:
                    row = amb.composites(A, g)
                    assert row.typecode == kernels.table_typecode(len(homs))
                    assert [homs[k].images for k in row] == [
                        tuple(g.images[y] for y in f.images) for f in F]
                    for f, k in zip(F, row) if literal else ():
                        assert homs[k] == compose_homs(g, f)
                        assert amb.compose(g, f) is homs[k]


@pytest.mark.parametrize("name", AMBIENTS)
def test_triple_tables_equal_composed_images_on_corpus(corpus, name):
    _assert_tables_compose(corpus[name].category)


def test_triple_tables_equal_compose_homs_on_harness_ambient():
    for amb in harness_stages():
        _assert_tables_compose(amb, literal=len(amb.objects()) <= 6)


def test_triple_tables_past_int64_and_without_constants():
    """Hom sets of Z16, whose image tuples code past int64 (16^16 >
    2^63), and a constant-free theory, whose homs need not fix element 0
    and whose empty algebra has exactly one hom to each algebra and none
    from a non-empty one: no generators at all."""
    amb = build_finalg_category(group_theory(), 16,
                                [cyclic_group(n) for n in (1, 2, 16)])
    _assert_tables_compose(amb, literal=True)
    T, chains, vee = semilattices()
    amb = build_finalg_category(T, 3, chains + [vee])
    assert [A.name for A in amb.objects()] == ["C0", "C1", "C2", "C3", "V3"]
    _assert_tables_compose(amb, literal=True)


def test_compose_within_its_budgets(monkeypatch):
    """compose lists no hom set and computes no composite row: on Z2^4
    (65536 endomorphisms, so the triple (Z2^4, Z2^4, Z2^4) has 2^32
    composites, and the index is past its budget) it composes image by
    image, and returns the roster's hom once End(Z2^4) is listed.  On
    the harness ambient it keeps no row it did not find, and reads a
    kept row without composing images."""
    v4 = direct_product_group(cyclic_group(2), cyclic_group(2), "V4")
    amb = build_finalg_category(group_theory(), 16, [
        cyclic_group(1), direct_product_group(v4, v4, "V16")])
    v = amb.objects()[1]
    rows = hom_rows(v, v)
    g, f = (algkit.AlgHom(v, v, rows[k]) for k in (12345, 54321))
    gf = amb.compose(g, f)
    assert gf == compose_homs(g, f)
    assert not amb._hom_cache and not amb._rows
    homs = amb.hom(v, v)
    assert len(homs) == 1 << 16
    gf = amb.compose(homs[12345], homs[54321])
    assert gf == compose_homs(homs[12345], homs[54321])
    assert any(h is gf for h in homs) and not amb._rows
    with pytest.raises(CapExceeded, match="composite index needs"):
        amb.composite_index()
    assert not amb._rows

    amb = grown_ambient(*FULL_GROWTH)
    objs = amb.objects()
    A, b, C = objs[-1], objs[-2], objs[-1]
    homs, G, F = amb.hom(A, C), amb.hom(b, C), amb.hom(A, b)
    gf = amb.compose(G[-1], F[-1])
    assert gf is homs[homs.index(compose_homs(G[-1], F[-1]))]
    assert not amb._rows
    amb.composites(A, G[-1])

    def no_images(g, f):
        raise AssertionError("composed image by image past a kept table")
    with monkeypatch.context() as m:
        m.setattr(algkit, "compose_homs", no_images)
        assert amb.compose(G[-1], F[-1]) is gf
    assert list(amb._rows) == [(id(A), G[-1])]


def test_composite_index_extends_like_a_rebuild():
    """After each registration the blocks, asking for every row, equal
    the whole rebuild, index for index, and only the rows with the new
    object are computed: the kept rows stay valid as the roster grows."""
    sizes = []
    for amb in harness_stages():
        kept = set(amb._rows)
        index, ref = amb.composite_index(), oracles.build_composite_index(amb)
        assert index.morphisms == ref.morphisms
        assert composite_pairs(amb.composite_blocks()) == numpy_pairs(ref)
        objs = {id(X) for X in amb.objects()}
        new = set(amb._rows) - kept
        if sizes:
            fresh = objs - prev
            assert new == {(A, g) for A, g in amb._rows if A in fresh
                           or {id(g.src), id(g.tgt)} & fresh}
        prev = objs
        sizes.append((len(amb.objects()), len(index.morphisms)))
    assert sizes == [(5, 60), (6, 90), (7, 782), (8, 1010)]


def test_morphisms_are_in_mor_key_order(corpus):
    ambients = [corpus[name].category for name in AMBIENTS]
    ambients += [grown_ambient(*FULL_GROWTH),
                 build_finalg_category(monoid_theory(), 3, monoids_upto(3))]
    for amb in ambients:
        ms = amb.morphisms()
        assert list(ms) == sorted(ms, key=mor_key)
        for b in amb.objects():
            into = amb.morphisms_into(b)
            assert list(into) == sorted(into, key=mor_key)


def test_compose_returns_the_roster_hom():
    amb = grown_ambient(*FULL_GROWTH)
    objs = amb.objects()
    for A in objs[::2]:
        for b in objs:
            for C in objs[1::2]:
                homs = amb.hom(A, C)
                for g in amb.hom(b, C)[::5]:
                    for f in amb.hom(A, b)[::3]:
                        gf = amb.compose(g, f)
                        k = homs.index(gf)
                        assert gf is homs[k] and gf == compose_homs(g, f)
    f = amb.hom(objs[1], objs[2])[0]
    g = amb.hom(objs[3], objs[4])[0]
    with pytest.raises(CompositionError):
        amb.compose(g, f)


def _scan_pairs(C):
    """Every builtin (E, M) pair whose scan does not raise."""
    for e in BUILTIN_CLASS_NAMES:
        for m in BUILTIN_CLASS_NAMES:
            E, M = builtin_class(C, e), builtin_class(C, m)
            try:
                rep = _check_ambient(C, E, M, "definition")
            except ValueError:
                continue
            yield E, M, rep


@pytest.mark.parametrize("name", AMBIENTS)
def test_ambient_scan_equals_reference_loop(corpus, name):
    C = corpus[name].category
    index = oracles.build_composite_index(C)
    checked = 0
    for E, M, rep in _scan_pairs(C):
        want = oracles.check_ambient(C, E, M, "definition", index)
        assert rep.to_json() == want.to_json(), (E.name, M.name)
        checked += 1
    assert checked == 72


def test_ambient_scan_witness_on_small_monoids():
    """(surjections, injections) on the monoids of order <= 3 at cap 3
    fails; the scan names the reference's violating diagram after the
    same number of diagrams."""
    C = build_finalg_category(monoid_theory(), 3, monoids_upto(3))
    E, M = builtin_class(C, "surjections"), builtin_class(C, "injections")
    rep = _check_ambient(C, E, M, "definition")
    want = oracles.check_ambient(C, E, M, "definition")
    assert rep.satisfied is False and rep.to_json() == want.to_json()
    cx, wx = rep.counterexample, want.counterexample
    assert (cx.e, cx.theta, cx.beta, cx.e_prime) == \
        (wx.e, wx.theta, wx.beta, wx.e_prime)
    assert rep.diagrams_checked == want.diagrams_checked == 9
    checked = 0
    for E, M, rep in _scan_pairs(C):
        assert rep.to_json() == oracles.check_ambient(
            C, E, M, "definition").to_json(), (E.name, M.name)
        checked += 1
    assert checked == 72


def test_ambient_scan_without_constants():
    """A constant-free theory's initial object is empty, so every kernel
    is empty: the first candidate beta that passes is a violation, in the
    scan and in the reference alike."""
    T, chains, _ = semilattices()
    C = build_finalg_category(T, 3, chains)
    assert C.initial().size == 0
    verdicts = []
    for E, M, rep in _scan_pairs(C):
        assert rep.to_json() == oracles.check_ambient(
            C, E, M, "definition").to_json(), (E.name, M.name)
        verdicts.append(rep.satisfied)
    assert False in verdicts


def test_kept_tables_stay_under_a_megabyte():
    """The kept rows of the 8-object harness ambient take one byte per
    composite wherever the target hom set has at most 127 homs: under a
    MB for its 475140 composites."""
    amb = grown_ambient(*FULL_GROWTH)
    entries = sum(sum(map(len, block_table(rows, row_of)))
                  for rows, _, _, row_of in amb.composite_blocks())
    kept = sum(len(r) * r.itemsize for r in amb._rows.values())
    assert entries == 475140 and kept < 1 << 20
