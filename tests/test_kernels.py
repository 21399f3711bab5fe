import random
from array import array

import numpy as np
import pytest

import oracles
from fincov import kernels
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, random_category, set_skeleton)

# Each kernel is compared witness for witness with its reference loop in
# oracles.py, the second lane these tests name.  The validation scans take
# the rows packed into one numpy table; the other kernels take the rows.


def args_of(C):
    return C._kernel_args()


def packed_of(C):
    """The packed table, src, tgt and identities, as writable copies."""
    return tuple(x.copy() for x in C._packed())


FIXTURES = [chain_poset(2), diamond_lattice(), set_skeleton(2).category,
            group_category(cyclic_group(4))] + \
           [random_category(s) for s in range(6)]


def validation_witnesses(lane, comp, src, tgt, ident):
    return (lane.first_composability_violation(comp, src, tgt),
            lane.first_identity_violation(comp, src, tgt, ident),
            lane.first_assoc_violation(comp))


@pytest.mark.parametrize("C", FIXTURES, ids=lambda c: c.name)
def test_lanes_agree_on_validation(C):
    a = C._packed()
    assert validation_witnesses(kernels, *a) == \
        validation_witnesses(oracles, *a)


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


def test_numpy_lane_reads_narrow_tables():
    # FinCategory rows use the narrowest typecode, and its packed table the
    # narrowest dtype (kernels.table_dtype); every kernel must answer as on
    # int64 rows and an int64 table
    C = set_skeleton(3).category
    a = args_of(C)
    w = ([array("q", row) for row in a[0]], *a[1:])
    packed = C._packed()
    assert a[0][0].typecode == "b" and packed[0].dtype == np.int8
    n = len(C.morphisms())
    assert validation_witnesses(kernels, *packed) == \
        validation_witnesses(kernels, packed[0].astype(np.int64),
                             *packed[1:])
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
        bad = packed[0].copy()
        rng = random.Random(trial)
        g, f = rng.randrange(n), rng.randrange(n)
        bad[g, f] = rng.randrange(-1, n)
        assert validation_witnesses(kernels, bad, *packed[1:]) == \
            validation_witnesses(kernels, bad.astype(np.int64), *packed[1:])


def test_table_dtype_holds_every_index():
    for n in (1, 127, 128, 32767, 32768, 2 ** 31 - 1, 2 ** 31):
        info = np.iinfo(kernels.table_dtype(n))
        assert info.min <= -1 and n - 1 <= info.max
    assert kernels.table_dtype(1476) == np.int16


def test_assoc_violation_detected_by_both():
    # one-object table with identity a0 and a1.a1 = a2, a2.a2 = a1:
    # a1.(a1.a2) = a2 while (a1.a1).a2 = a1
    comp_bad = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 1]], dtype=np.int64)
    assert kernels.first_assoc_violation(comp_bad) == \
        oracles.first_assoc_violation(comp_bad)
    assert kernels.first_assoc_violation(comp_bad) is not None


def test_lanes_agree_on_random_broken_tables():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        comp = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            comp[0, i] = comp[i, 0] = i
        for i in range(1, n):
            for j in range(1, n):
                comp[i, j] = rng.randrange(n)
        assert kernels.first_assoc_violation(comp) == \
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
        comp, src, tgt, _ = packed_of(C)
        n = comp.shape[0]
        for _ in range(rng.randint(1, 3)):
            g, f = rng.randrange(n), rng.randrange(n)
            if comp[g, f] < 0:
                comp[g, f] = rng.randrange(n)
            elif rng.random() < 0.5:
                comp[g, f] = -1
            else:
                comp[g, f] = rng.randrange(n)
        w = kernels.first_composability_violation(comp, src, tgt)
        assert w == oracles.first_composability_violation(comp, src, tgt)
        if w is not None:
            kinds.add(w[2])
    assert kinds == {"missing", "spurious", "endpoints"}


def test_lanes_agree_on_swapped_composites():
    # a composite replaced by another member of its hom set keeps every
    # endpoint right, so only the identity and associativity scans (the
    # latter bucketed by defined-mask) can find it
    assert len(MULTI_OBJECT) >= 8
    rng = random.Random(3)
    found = 0
    for t in range(240):
        C = MULTI_OBJECT[t % len(MULTI_OBJECT)]
        comp, src, tgt, ident = packed_of(C)
        gs, fs = np.nonzero(comp >= 0)
        cands = [(g, f) for g, f in zip(gs, fs)
                 if len(C.hom(C.src(C._morphisms[f]),
                              C.tgt(C._morphisms[g]))) >= 2]
        g, f = rng.choice(cands)
        hom = [C._midx[m] for m in C.hom(C.src(C._morphisms[f]),
                                         C.tgt(C._morphisms[g]))]
        comp[g, f] = rng.choice([m for m in hom if m != comp[g, f]])
        w = validation_witnesses(kernels, comp, src, tgt, ident)
        assert w == validation_witnesses(oracles, comp, src, tgt, ident)
        assert w[0] is None
        found += w[2] is not None
    assert found >= 120


def test_class_composites_least_pair_across_blocks():
    """Blocks interleave in g: the least (g, f) over all blocks wins, not
    the first or the last block's hit, in the loop kernel and in the
    algebra ambient's numpy scan of the same blocks."""
    from fincov.algkit import AlgCategory
    member = [k in (0, 1, 2, 3, 4, 5, 6, 9) for k in range(10)]

    class Index:
        def __init__(self, blocks):
            self.blocks = [tuple(map(np.array, b)) for b in blocks]

        def composite_blocks(self):
            return self.blocks

    def hit(blocks, member, flags):
        found = kernels.first_class_composites(blocks, member, flags)
        assert found == AlgCategory.first_class_composites(
            Index(blocks), member, flags)
        return found

    first = ([0, 5], [2, 3], [[2, 3], [7, 2]])    # hit at (5, 2)
    later = ([1, 9], [4, 6], [[4, 6], [8, 4]])    # hit at (9, 4)
    earlier = ([1, 9], [4, 6], [[4, 8], [8, 4]])  # hit at (1, 6)
    assert hit([first, later], member, ("system",)) == {"system": (5, 2)}
    assert hit([later, first], member, ("system",)) == {"system": (5, 2)}
    assert hit([first, earlier], member, ("system",)) == {"system": (1, 6)}
    # left: g, g.f in A with f not; right: f, g.f in A with g not
    member[7] = True
    cancel = ([0, 8], [7, 8], [[1, 5], [2, 8]])
    assert hit([cancel], member, ("left_cancelable", "right_cancelable")) \
        == {"left_cancelable": (0, 8), "right_cancelable": (8, 7)}
