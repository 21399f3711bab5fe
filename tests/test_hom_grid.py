"""Algebra hom sets and isomorphisms from the staged replay, against the
one-assignment-at-a-time loops of ``oracles``; trusted admission of
derived algebras; the benchmark tracer's view of the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from fincov import algkit
from fincov.algkit import (AlgCategory, FinAlgebra, Theory,
                           build_finalg_category, enumerate_homs,
                           find_isomorphism, group_theory, monoid_theory)
from fincov.instances import abelian_groups_upto, groups_upto, monoids_upto

ROOT = Path(__file__).resolve().parent.parent


def grown_abelian():
    """The abelian-groups ambient grown by Z2xZ3, Z2xV4 and Z2xZ4, as
    product closure grows it."""
    C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    ob = {A.name: A for A in C.objects()}
    for a, b in (("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4")):
        C.find_pullback(C.hom(ob[a], ob["Z1"])[0],
                        C.hom(ob[b], ob["Z1"])[0])
    return C


def ambients():
    return [build_finalg_category(group_theory(), 8, groups_upto(8)),
            build_finalg_category(monoid_theory(), 4, monoids_upto(4)),
            grown_abelian()]


def test_hom_sets_match_assignment_loop():
    pairs = 0
    for C in ambients():
        for A in C.objects():
            for B in C.objects():
                want = oracles.enumerate_homs(A, B)
                assert [h.images for h in C.hom(A, B)] == \
                    [h.images for h in want], (C.name, A, B)
                assert enumerate_homs(A, B) == want, (C.name, A, B)
                assert algkit.hom_rows(A, B) == oracles.hom_rows(A, B)
                pairs += 1
    assert pairs == 14 ** 2 + 45 ** 2 + 8 ** 2


def test_hom_sets_check_every_operation():
    """Two unary operations with no equations: neither is implied by the
    other, so a row must be tested against both."""
    import random
    rng = random.Random(0)
    T2 = Theory("two_unary", (("f", 1), ("g", 1)), ())
    algebras = [FinAlgebra(T2, f"U{i}", n,
                           {"f": tuple(rng.randrange(n) for _ in range(n)),
                            "g": tuple(rng.randrange(n) for _ in range(n))})
                for i, n in enumerate((1, 2, 2, 3, 3, 3, 4))]
    homs = 0
    for A in algebras:
        for B in algebras:
            want = oracles.hom_rows(A, B)
            assert algkit.hom_rows(A, B) == want, (A, B)
            assert find_isomorphism(A, B) == oracles.find_isomorphism(A, B)
            homs += len(want)
    assert homs > len(algebras)


def test_admission_returns_iso_from_roster_member():
    """An isomorphic copy collapses to its roster member R, with an
    isomorphism R -> copy; here one that is not its own inverse."""
    C = build_finalg_category(group_theory(), 8, groups_upto(5))
    Z5 = next(A for A in C.objects() if A.name == "Z5")
    swap = (0, 2, 1, 3, 4)  # relabel 1 <-> 2, not an automorphism
    S = FinAlgebra(group_theory(), "Z5'", 5, {
        "mul": tuple(tuple(swap[(swap[a] + swap[b]) % 5] for b in range(5))
                     for a in range(5)),
        "inv": tuple(swap[-swap[a] % 5] for a in range(5)),
        "e": 0})
    assert S.validate() is None
    before = C.objects()
    R, iso = C._admit(S)
    assert R is Z5 and C.objects() == before
    assert iso.src is Z5 and iso.tgt is S
    assert iso.is_bijective() and iso.is_valid()
    assert iso == oracles.find_isomorphism(Z5, S)
    assert C.iso_inverse(iso).images != iso.images
    _, incl = C.subalgebra_object(S, 0b11111)
    assert incl.src is Z5 and incl == iso


def test_find_isomorphism_matches_reference_search():
    groups = [A for C in ambients() if C.theory.name == "groups"
              for A in C.objects()]
    monoids = monoids_upto(4)
    twins = 0
    for family in (groups, monoids):
        for A in family:
            assert algkit._element_profile(A) == \
                tuple(oracles.element_profile(A))
            for B in family:
                if A.size != B.size:
                    continue
                want = oracles.find_isomorphism(A, B)
                got = find_isomorphism(A, B)
                assert (got is None) == (want is None), (A, B)
                if want is not None:
                    assert got == want, (A, B)
                elif sorted(oracles.element_profile(A)) == \
                        sorted(oracles.element_profile(B)):
                    twins += 1
    # non-isomorphic pairs that the profile does not tell apart
    assert twins >= 20


def test_element_profile_of_coded_algebras():
    """The colours read from ``op_tables()`` equal the per-entry
    reference on every pair-pullback apex of at most 8 elements over the
    5-object abelian-groups ambient; the flat tables the coded
    construction hands over equal the oracle's tables on the same pairs."""
    C = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    checked = 0
    for f in C.morphisms():
        for g in C.morphisms_into(f.tgt):
            codes = algkit._pair_codes(f, g)
            if len(codes) > 8:
                continue
            P = algkit._coded_algebra(C.theory, "P", (f.src, g.src), codes)
            assert algkit._element_profile(P) == \
                tuple(oracles.element_profile(P))
            pairs = [divmod(c, g.src.size) for c in codes]
            assert P.op_tables() == oracles.flat_ops(
                C.theory, oracles.pair_ops(f.src, g.src, pairs))
            checked += 1
    assert checked > 100


def test_zero_generator_algebras():
    Z1 = groups_upto(1)[0]
    assert algkit.generating_trace(Z1)[0] == ()
    for B in groups_upto(4):
        assert [h.images for h in enumerate_homs(Z1, B)] == [(0,)]
    x, y, z = ("x",), ("y",), ("z",)
    S = Theory("semigroups", (("mul", 2),),
               ((("x", "y", "z"), ("mul", ("mul", x, y), z),
                 ("mul", x, ("mul", y, z))),))
    empty = FinAlgebra(S, "empty", 0, {"mul": ()})
    left_zero = FinAlgebra(S, "lz", 2, {"mul": ((0, 0), (1, 1))})
    assert left_zero.validate() is None
    for A in (empty, left_zero):
        for B in (empty, left_zero):
            assert [h.images for h in enumerate_homs(A, B)] == \
                [h.images for h in oracles.enumerate_homs(A, B)]
            assert algkit.hom_rows(A, B) == oracles.hom_rows(A, B)
            assert find_isomorphism(A, B) == oracles.find_isomorphism(A, B)
    assert [h.images for h in enumerate_homs(empty, left_zero)] == [()]
    assert enumerate_homs(left_zero, empty) == []


def test_hom_rows_between_the_largest_algebras():
    """Between the two 8-element algebras of the grown ambient (greedy
    generating sets of three and two elements, so up to 512 assignments),
    the staged replay gives the reference's homs and isomorphism."""
    C = grown_abelian()
    big = [A for A in C.objects() if A.size == 8]
    assert sorted(len(algkit.generating_trace(A)[0]) for A in big) == [2, 3]
    for A in big:
        for B in big:
            assert algkit.hom_rows(A, B) == oracles.hom_rows(A, B)
            assert find_isomorphism(A, B) == oracles.find_isomorphism(A, B)


def harness_ambient_sequence():
    """The closure harness's ambient instances, run in order; returns
    the ambient and the instance results."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import child
        import plan as plans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    plan = dict(plans.closure_harness_plan(1), categories=[], functors=[])
    _, _, amb, _ = child.build_harness_inputs(plan)
    results = [(key, thunk()) for key, thunk in
               child.harness_instances(plan, {}, {}, amb)]
    return amb, results


def record_admissions(monkeypatch):
    admitted = []
    admit = AlgCategory._admit

    def recording(self, algebra):
        admitted.append(algebra)
        return admit(self, algebra)

    monkeypatch.setattr(AlgCategory, "_admit", recording)
    return admitted


def test_harness_ambient_sequence_matches_reference_search(monkeypatch):
    """Same roster, names, fresh-name count and instance results as with
    the one-assignment-at-a-time hom sets and isomorphism search; every
    algebra admitted without validation is a model."""
    admitted = record_admissions(monkeypatch)
    amb, results = harness_ambient_sequence()
    roster = [A.name for A in amb.objects()]
    assert roster == ["Z1", "Z2", "Z3", "V4", "Z4", "pb#15", "pb#20",
                      "pb#37"]
    assert amb._fresh == 45
    assert len(results) == 50
    assert all(status == "ok" for _, (status, _) in results)
    # the five seeds through register, then each fresh-named subalgebra
    # and pullback apex through trusted admission
    assert len(admitted) == 5 + 45
    assert all(A.validate() is None for A in admitted)

    monkeypatch.setattr(algkit, "hom_rows", oracles.hom_rows)
    monkeypatch.setattr(algkit, "find_isomorphism", oracles.find_isomorphism)
    ref, ref_results = harness_ambient_sequence()
    assert [A.name for A in ref.objects()] == roster
    assert ref._fresh == amb._fresh
    assert ref_results == results


def test_products_admit_only_models(monkeypatch):
    admitted = record_admissions(monkeypatch)
    for theory, cap, roster in ((group_theory(), 8, groups_upto(4)),
                                (group_theory(), 8, abelian_groups_upto(4)),
                                (monoid_theory(), 6, monoids_upto(3))):
        C = build_finalg_category(theory, cap, roster)
        before = len(C.objects())
        Z = C.terminal()
        for a in list(C.objects()):
            for b in list(C.objects()):
                if a.size * b.size <= cap:
                    C.find_pullback(C.hom(a, Z)[0], C.hom(b, Z)[0])
        assert len(C.objects()) > before, C.name
    assert len(admitted) > 40
    assert all(A.validate() is None for A in admitted)


def test_register_still_validates():
    C = build_finalg_category(group_theory(), 8, groups_upto(2))
    bad = FinAlgebra(group_theory(), "bad", 2,
                     {"mul": ((0, 1), (1, 1)), "inv": (0, 1), "e": 0})
    with pytest.raises(ValueError, match="bad fails"):
        C.register(bad)
    assert [A.name for A in C.objects()] == ["Z1", "Z2"]


def test_tracer_layers_resolve_after_cli_import():
    """``import fincov.cli`` loads every module the benchmark tracer
    wraps, and every function it names exists there."""
    code = (
        "import sys, tracer\n"
        "import fincov.cli\n"
        "missing = []\n"
        "for layer, (mod, fns) in tracer.LAYERS.items():\n"
        "    if mod not in sys.modules:\n"
        "        missing.append(mod)\n"
        "        continue\n"
        "    for fn in fns:\n"
        "        obj = sys.modules[mod]\n"
        "        for part in fn.split('.'):\n"
        "            obj = getattr(obj, part, None)\n"
        "        if not callable(obj):\n"
        "            missing.append(mod + '.' + fn)\n"
        "print(missing)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
