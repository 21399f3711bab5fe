"""The algebra ambient's row code against the numpy references of
``tests/oracles.py``: hom sets, element profiles and isomorphisms, the
composite index and the anchored protomodularity scan, on the grown
abelian-groups ambient, the groups of order <= 6 at cap 6 and the monoids
of order <= 3 at cap 3."""

import pytest

import oracles
from fincov import algebra, algkit
from fincov.algebra import group_theory, monoid_theory
from fincov.algkit import build_finalg_category
from fincov.instances import groups_upto, monoids_upto
from fincov.morphclass import BUILTIN_CLASS_NAMES, builtin_class
from fincov.protomod import _check_ambient
from fixtures_util import FULL_GROWTH, composite_pairs, grown_ambient, \
    numpy_pairs

AMBIENTS = {
    # test_hom_grid's grown_abelian: Z2xZ3, Z2xV4 and Z2xZ4 registered
    "grown_abelian": lambda: grown_ambient(*FULL_GROWTH),
    "groups_6": lambda: build_finalg_category(group_theory(), 6,
                                              groups_upto(6)),
    "monoids_3": lambda: build_finalg_category(monoid_theory(), 3,
                                               monoids_upto(3)),
}


@pytest.mark.parametrize("name", AMBIENTS)
def test_hom_rows_match_numpy_grid(name):
    C = AMBIENTS[name]()
    for A in C.objects():
        for B in C.objects():
            assert algkit.hom_rows(A, B) == oracles.numpy_hom_rows(A, B), \
                (A, B)


@pytest.mark.parametrize("name", AMBIENTS)
def test_isomorphisms_match_numpy_search(name):
    """Profiles and the first isomorphism between every pair of
    same-size algebras: the roster, and a copy of each roster algebra
    with its elements relabelled by a reversal, which is isomorphic."""
    C = AMBIENTS[name]()
    algebras = list(C.objects())
    for A in C.objects():
        n, tables = A.size, A.op_tables()
        algebras.append(algebra.FinAlgebra.from_tables(
            A.theory, f"{A.name}'", n,
            {s: tuple(n - 1 - tables[s][_reversed_code(k, n, a)]
                      for k in range(n ** a))
             for s, a in A.theory.symbols}))
    isos = 0
    for A in algebras:
        assert algkit._element_profile(A) == oracles.numpy_element_profile(A)
        for B in algebras:
            got = algkit.find_isomorphism(A, B)
            want = oracles.numpy_find_isomorphism(A, B)
            assert (got and got.images) == want, (A, B)
            isos += want is not None
    assert isos >= 4 * len(C.objects())


def _reversed_code(k, n, arity):
    """The flat position of the argument tuple of position k with every
    argument x replaced by n - 1 - x."""
    out = 0
    for i in range(arity):
        out += (n - 1 - k // n ** (arity - 1 - i) % n) * n ** (arity - 1 - i)
    return out


@pytest.mark.parametrize("name", AMBIENTS)
def test_composite_index_matches_numpy_build(name):
    C = AMBIENTS[name]()
    ref = oracles.build_composite_index(C)
    assert C.composite_index().morphisms == ref.morphisms
    assert composite_pairs(C.composite_blocks()) == numpy_pairs(ref)


@pytest.mark.parametrize("name", AMBIENTS)
def test_ambient_scan_matches_numpy_reference(name):
    """Verdict, witness and diagram count of every builtin (E, M) pair the
    anchored scan accepts, of which some hold and some fail."""
    C = AMBIENTS[name]()
    index = oracles.build_composite_index(C)
    verdicts = []
    for e in BUILTIN_CLASS_NAMES:
        for m in BUILTIN_CLASS_NAMES:
            E, M = builtin_class(C, e), builtin_class(C, m)
            try:
                rep = _check_ambient(C, E, M, "definition")
            except ValueError:
                continue
            want = oracles.check_ambient(C, E, M, "definition", index)
            assert rep.to_json() == want.to_json(), (e, m)
            verdicts.append(rep.satisfied)
    assert len(verdicts) == 72 and set(verdicts) == {True, False}
