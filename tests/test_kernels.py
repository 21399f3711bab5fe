import random
from array import array

import pytest

import oracles
from fincov import kernels
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, random_category, set_skeleton)

# Each kernel is compared witness for witness with its reference loop in
# oracles.py, the second lane these tests name.  Every kernel takes the
# rows of a FinCategory table.


def args_of(C):
    return C._kernel_args()


def rows_of(C):
    """Writable copies of C's rows."""
    return [row[:] for row in C._comp]


def identities(C):
    return [C._midx[C._identities[o]] for o in C._objects]


FIXTURES = [chain_poset(2), diamond_lattice(), set_skeleton(2).category,
            group_category(cyclic_group(4))] + \
           [random_category(s) for s in range(6)]


def validation_witnesses(lane, comp, C):
    """The three validation scans of one lane on the table comp, with C's
    ends, hom sets and identities."""
    src, tgt, ident = C._src, C._tgt, identities(C)
    if lane is oracles:
        return (oracles.first_composability_violation(comp, src, tgt),
                oracles.first_identity_violation(comp, src, tgt, ident),
                oracles.first_assoc_violation(comp))
    into, out = C._into_idx, C._out_idx
    return (kernels.first_composability_violation(comp, src, tgt, into),
            kernels.first_identity_violation(comp, src, tgt, ident),
            kernels.first_assoc_violation(comp, src, tgt, into, out))


@pytest.mark.parametrize("C", FIXTURES, ids=lambda c: c.name)
def test_lanes_agree_on_validation(C):
    assert validation_witnesses(kernels, C._comp, C) == \
        validation_witnesses(oracles, C._comp, C)


@pytest.mark.parametrize("C", FIXTURES, ids=lambda c: c.name)
def test_lanes_agree_on_flags(C):
    a = args_of(C)
    m1, e1 = kernels.mono_epi_flags(*a)
    m2, e2 = oracles.mono_epi_flags(*a)
    assert m1 == m2 and e1 == e2


@pytest.mark.parametrize("C", FIXTURES[:4], ids=lambda c: c.name)
def test_lanes_agree_on_lifts_and_spans(C):
    a = args_of(C)
    n = len(C.morphisms())
    for e in range(0, n, max(1, n // 6)):
        for m in range(0, n, max(1, n // 6)):
            assert tuple(kernels.lift_report(*a, e, m)) == \
                tuple(oracles.lift_report(*a, e, m))
    for f in range(0, n, max(1, n // 5)):
        for g in range(n):
            if C._tgt[f] != C._tgt[g]:
                continue
            assert kernels.commuting_spans(*a, f, g) == \
                oracles.commuting_spans(*a, f, g)


def test_kernels_read_narrow_tables():
    # FinCategory rows use the narrowest typecode (kernels.table_typecode);
    # every kernel must answer on them as on "q" rows
    C = set_skeleton(3).category
    a = args_of(C)
    w = ([array("q", row) for row in a[0]], *a[1:])
    assert a[0][0].typecode == "b"
    n = len(C.morphisms())
    assert validation_witnesses(kernels, a[0], C) == \
        validation_witnesses(kernels, w[0], C)
    assert kernels.mono_epi_flags(*a) == kernels.mono_epi_flags(*w)
    for e in range(0, n, 5):
        for m in range(0, n, 5):
            assert tuple(kernels.lift_report(*a, e, m)) == \
                tuple(kernels.lift_report(*w, e, m))
    for f in range(0, n, 3):
        for g in range(n):
            if C._tgt[f] == C._tgt[g]:
                assert kernels.commuting_spans(*a, f, g) == \
                    kernels.commuting_spans(*w, f, g)
    for trial in range(20):
        bad = rows_of(C)
        rng = random.Random(trial)
        g, f = rng.randrange(n), rng.randrange(n)
        bad[g][f] = rng.randrange(-1, n)
        assert validation_witnesses(kernels, bad, C) == \
            validation_witnesses(kernels, [array("q", r) for r in bad], C)


def test_table_typecode_holds_every_index():
    for n in (1, 127, 128, 32767, 32768, 2 ** 31 - 1, 2 ** 31):
        assert array(kernels.table_typecode(n), [-1, n - 1])
    assert kernels.table_typecode(1476) == "h"


def one_object(comp):
    """The kernels' arguments for a one-object table with identity 0."""
    n = len(comp)
    whole = [list(range(n))]
    return comp, [0] * n, [0] * n, whole, whole


def test_assoc_violation_detected_by_both():
    # one-object table with identity a0 and a1.a1 = a2, a2.a2 = a1:
    # a1.(a1.a2) = a2 while (a1.a1).a2 = a1
    comp_bad = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
    assert kernels.first_assoc_violation(*one_object(comp_bad)) == \
        oracles.first_assoc_violation(comp_bad)
    assert kernels.first_assoc_violation(*one_object(comp_bad)) is not None


def test_lanes_agree_on_random_broken_tables():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        comp = [[0] * n for _ in range(n)]
        for i in range(n):
            comp[0][i] = comp[i][0] = i
        for i in range(1, n):
            for j in range(1, n):
                comp[i][j] = rng.randrange(n)
        assert kernels.first_assoc_violation(*one_object(comp)) == \
            oracles.first_assoc_violation(comp)


MULTI_OBJECT = [set_skeleton(2).category] + \
    [C for C in (random_category(s) for s in range(140, 200))
     if len(C.objects()) >= 2
     and any(len(C.hom(a, b)) >= 2 for a in C.objects()
             for b in C.objects())]


def test_lanes_agree_on_broken_composability():
    # missing, spurious and wrong-endpoint entries seeded into valid
    # tables, several per table, so the kinds compete for the least (g, f)
    rng = random.Random(11)
    kinds = set()
    for t in range(300):
        C = FIXTURES[t % len(FIXTURES)]
        comp, src, tgt = rows_of(C), C._src, C._tgt
        n = len(comp)
        for _ in range(rng.randint(1, 3)):
            g, f = rng.randrange(n), rng.randrange(n)
            if comp[g][f] < 0:
                comp[g][f] = rng.randrange(n)
            elif rng.random() < 0.5:
                comp[g][f] = -1
            else:
                comp[g][f] = rng.randrange(n)
        w = kernels.first_composability_violation(comp, src, tgt,
                                                  C._into_idx)
        assert w == oracles.first_composability_violation(comp, src, tgt)
        if w is not None:
            kinds.add(w[2])
    assert kinds == {"missing", "spurious", "endpoints"}


def test_lanes_agree_on_swapped_composites():
    # a composite replaced by another member of its hom set keeps every
    # endpoint right, so only the identity and associativity scans (the
    # latter by Light's test, then the ordered scan) can find it
    assert len(MULTI_OBJECT) >= 8
    rng = random.Random(3)
    found = 0
    for t in range(240):
        C = MULTI_OBJECT[t % len(MULTI_OBJECT)]
        comp = rows_of(C)
        n = len(comp)
        cands = [(g, f) for g in range(n) for f in range(n)
                 if comp[g][f] >= 0
                 and len(C.hom(C.src(C._morphisms[f]),
                               C.tgt(C._morphisms[g]))) >= 2]
        g, f = rng.choice(cands)
        hom = [C._midx[m] for m in C.hom(C.src(C._morphisms[f]),
                                         C.tgt(C._morphisms[g]))]
        comp[g][f] = rng.choice([m for m in hom if m != comp[g][f]])
        w = validation_witnesses(kernels, comp, C)
        assert w == validation_witnesses(oracles, comp, C)
        assert w[0] is None
        found += w[2] is not None
    assert found >= 120


def test_light_generators_reach_every_morphism(corpus):
    """Every morphism is a generator or x.y with x a generator and y
    reached, so Light's test sees every middle; on finite_top the
    generators are a sixth of the morphisms."""
    top = corpus["finite_top"].category
    for C in FIXTURES + MULTI_OBJECT + [top]:
        comp, src, tgt = C._comp, C._src, C._tgt
        gens = kernels.light_generators(comp, src, tgt, len(C.objects()))
        reached, todo = set(), list(gens)
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo += [comp[x][y] for x in gens if src[x] == tgt[y]]
        assert reached == set(range(len(comp))), C.name
    assert len(gens) == 237 and len(comp) == 1476


def test_class_composites_least_pair_across_blocks():
    """Blocks interleave in g: the least (g, f) over all blocks wins, not
    the first or the last block's hit.  Row entries index the block's
    targets, and a row is asked for only when some flag still needs
    it."""
    member = [k in (0, 1, 2, 3, 4, 5, 6, 9) for k in range(10)]
    reads = []

    def hit(blocks, member, flags):
        found = kernels.first_class_composites(
            [(rows, cols, range(10), table.__getitem__)
             for rows, cols, table in blocks], member, flags)
        # the same blocks with every entry moved down by 2 and indexing
        # targets 2..9, the rows recorded as asked for
        lazy = [(rows, cols, range(2, 10),
                 lambda i, rows=rows, table=table: reads.append(rows[i])
                 or [t - 2 for t in table[i]])
                for rows, cols, table in blocks]
        del reads[:]
        assert kernels.first_class_composites(lazy, member, flags) == found
        return found

    first = ([0, 5], [2, 3], [[2, 3], [7, 2]])    # hit at (5, 2)
    later = ([1, 9], [4, 6], [[4, 6], [8, 4]])    # hit at (9, 4)
    earlier = ([1, 9], [4, 6], [[4, 8], [8, 4]])  # hit at (1, 6)
    assert hit([first, later], member, ("system",)) == {"system": (5, 2)}
    assert reads == [0, 5, 1]  # row 9 of later cannot give a smaller g
    assert hit([later, first], member, ("system",)) == {"system": (5, 2)}
    assert hit([first, earlier], member, ("system",)) == {"system": (1, 6)}
    # left: g, g.f in A with f not; right: f, g.f in A with g not
    member[7] = True
    cancel = ([0, 8], [7, 8], [[1, 5], [2, 8]])
    assert hit([cancel], member, ("left_cancelable", "right_cancelable")) \
        == {"left_cancelable": (0, 8), "right_cancelable": (8, 7)}
