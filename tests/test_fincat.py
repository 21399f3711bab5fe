import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import oracles
from fincov.fincat import (CompositionError, FinCategory, PullbackSquare,
                           classify_morphism, find_coequalizer,
                           opposite_category, product_category,
                           slice_category, validate_category,
                           verify_pullback_square)
from fincov.instances import (chain_poset, cyclic_group, diamond_lattice,
                              group_category, poset_category, set_skeleton)


def poset01_raw():
    return {
        "objects": ["o0", "o1"],
        "morphisms": [{"id": "id0", "src": "o0", "tgt": "o0"},
                      {"id": "id1", "src": "o1", "tgt": "o1"},
                      {"id": "u", "src": "o0", "tgt": "o1"}],
        "identities": {"o0": "id0", "o1": "id1"},
        "composition": [["id0", "id0", "id0"], ["id1", "id1", "id1"],
                        ["u", "id0", "u"], ["id1", "u", "u"]],
    }


def test_validate_poset_ok():
    cat = validate_category(poset01_raw())
    assert isinstance(cat, FinCategory)


def test_validate_identity_failure():
    raw = poset01_raw()
    raw["composition"] = [c if c != ["u", "id0", "u"] else ["u", "id0", "id0"]
                          for c in raw["composition"]]
    rep = validate_category(raw)
    assert not rep
    assert rep.law in ("composability", "identity")
    assert "u" in rep.witness or "id0" in rep.witness


def test_validate_z2_table():
    # one-object table of Z/2: all 8 triples associate
    raw = {
        "objects": ["*"],
        "morphisms": [{"id": "g0", "src": "*", "tgt": "*"},
                      {"id": "g1", "src": "*", "tgt": "*"}],
        "identities": {"*": "g0"},
        "composition": [["g0", "g0", "g0"], ["g0", "g1", "g1"],
                        ["g1", "g0", "g1"], ["g1", "g1", "g0"]],
    }
    # oracle: exhaust all triples of the table
    comp = {(g, f): gf for g, f, gf in raw["composition"]}
    for a, b, c in itertools.product(["g0", "g1"], repeat=3):
        assert comp[(a, comp[(b, c)])] == comp[(comp[(a, b)], c)]
    assert isinstance(validate_category(raw), FinCategory)


def test_validate_dangling():
    raw = poset01_raw()
    raw["morphisms"].append({"id": "w", "src": "o0", "tgt": "oX"})
    rep = validate_category(raw)
    assert not rep and rep.law == "structure"


def test_validate_unknown_composite_reports_least_pair():
    raw = poset01_raw()
    raw["composition"] += [["u", "id1", "zz"], ["id1", "id0", "zz"]]
    rep = validate_category(raw)
    assert not rep and rep.law == "structure"
    assert rep.witness == ("id1", "id0")


def test_composition_dict_matches_table():
    cat = set_skeleton(2).category
    comp = cat.composition()
    assert len(comp) == sum(1 for g in cat.morphisms()
                            for f in cat.morphisms()
                            if cat.src(g) == cat.tgt(f))
    for (g, f), gf in comp.items():
        assert cat.compose(g, f) == gf
    again = FinCategory(cat.objects(), {m: (cat.src(m), cat.tgt(m))
                                        for m in cat.morphisms()},
                        {o: cat.identity(o) for o in cat.objects()}, comp)
    assert again == cat
    comp[next(iter(comp))] = "changed"
    assert cat.composition() != comp


def test_validate_nonassociative():
    # 4 parallel endo-arrows with a broken table
    mors = [{"id": f"a{i}", "src": "*", "tgt": "*"} for i in range(3)]
    comp = {}
    for i in range(3):
        for j in range(3):
            comp[(f"a{i}", f"a{j}")] = "a0" if (i == 0 or j == 0) else None
    comp[("a1", "a1")] = "a2"
    comp[("a1", "a2")] = "a1"
    comp[("a2", "a1")] = "a1"
    comp[("a2", "a2")] = "a1"
    comp[("a1", "a0")] = "a1"
    comp[("a0", "a1")] = "a1"
    comp[("a2", "a0")] = "a2"
    comp[("a0", "a2")] = "a2"
    comp[("a0", "a0")] = "a0"
    raw = {"objects": ["*"], "morphisms": mors, "identities": {"*": "a0"},
           "composition": [[g, f, gf] for (g, f), gf in comp.items()]}
    rep = validate_category(raw)
    assert not rep
    assert rep.law == "associativity"


def test_pullback_meet_in_lattice():
    # diamond {0, a, b, 1}: the pullback of a -> 1 <- b is the meet 0
    dia = diamond_lattice()
    sq = dia.find_pullback("oa<o1", "ob<o1")
    assert sq is not None and sq.apex == "o0"
    assert verify_pullback_square(dia, sq)


def test_pullback_identity_cospan():
    cat = validate_category(poset01_raw())
    sq = cat.find_pullback("id1", "id1")
    assert sq.apex == "o1" and cat.is_iso(sq.proj1) and cat.is_iso(sq.proj2)


def test_pullback_set_skeleton_disjoint_points():
    sk = set_skeleton(2)
    f, g = "f1>2:0", "f1>2:1"
    sq = sk.category.find_pullback(f, g)
    assert sq is not None and sq.apex == "S0"
    assert verify_pullback_square(sk.category, sq)


def test_verify_pullback_square_rejects_non_commuting_square():
    # the two points 1 -> 2 have only the empty cone, which factors
    # uniquely through id_1, yet id_1 does not make the square commute
    C = set_skeleton(2).category
    f, g = "f1>2:0", "f1>2:1"
    one = C.identity("S1")
    assert C.compose(f, one) != C.compose(g, one)
    assert not verify_pullback_square(C, PullbackSquare(C, f, g, "S1",
                                                        one, one))
    assert verify_pullback_square(C, C.find_pullback(f, g))


def test_pullback_matches_oracle_on_corpus():
    sk = set_skeleton(2)
    raw = oracles.RawCat(sk.category.to_json())
    C = sk.category
    for f in C.morphisms():
        for g in C.morphisms_into(C.tgt(f)):
            sq = C.find_pullback(f, g)
            found = oracles.all_pullbacks(raw, f, g)
            if sq is None:
                assert not found
            else:
                assert oracles.is_pullback(raw, f, g, sq.proj1, sq.proj2)


def test_pullback_unique_up_to_unique_iso():
    sk = set_skeleton(2)
    C = sk.category
    f, g = "f2>2:01", "f2>2:10"
    sq = C.find_pullback(f, g)
    raw = oracles.RawCat(C.to_json())
    for p, q in oracles.all_pullbacks(raw, f, g):
        med = sq.mediator(p, q)
        assert C.is_iso(med)


def test_coequalizer_equal_pair_is_identity():
    cat = validate_category(poset01_raw())
    e, obj = find_coequalizer(cat, "u", "u")
    assert e == "id1" and obj == "o1"


def test_coequalizer_set_skeleton():
    sk = set_skeleton(2)
    res = find_coequalizer(sk.category, "f1>2:0", "f1>2:1")
    assert res is not None
    e, obj = res
    # both points get identified: the target is a one-element set
    assert obj == "S1"


def test_classify_identity_all_flags():
    cat = validate_category(poset01_raw())
    rep = classify_morphism(cat, "id1")
    assert rep.iso and rep.mono and rep.epi and rep.section \
        and rep.retraction and rep.regular_epi


def test_classify_surjection():
    # the kernel pair of the constant S2 -> S1 needs a 4-element set, so
    # the flag is only decided once the skeleton reaches size 4
    sk = set_skeleton(2)
    rep = classify_morphism(sk.category, "f2>1:00")
    assert rep.epi and rep.retraction and not rep.mono
    assert rep.regular_epi is None
    sk4 = set_skeleton(4)
    rep4 = classify_morphism(sk4.category, "f2>1:00")
    assert rep4.epi and rep4.retraction and rep4.regular_epi is True


def test_classify_ambient_kernel_pair_past_cap():
    """The kernel pair of V4 -> V4 zero has 16 elements, past the cap of
    8: classify reports regular_epi None instead of raising."""
    from fincov.algkit import CapExceeded, build_finalg_category, \
        group_theory
    from fincov.instances import abelian_groups_upto
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    V4 = next(A for A in amb.objects() if A.name == "V4")
    zero = amb.hom(V4, V4)[0]
    assert zero.images == (0, 0, 0, 0)
    with pytest.raises(CapExceeded):
        amb.find_pullback(zero, zero)
    rep = classify_morphism(amb, zero)
    assert rep.regular_epi is None
    assert not (rep.iso or rep.mono or rep.epi or rep.section
                or rep.retraction)


def test_ambient_regular_epi_matches_composition_loop():
    """On algebra ambients, classify's regular-epi flag (read from hom
    image rows) equals the loop composing every candidate h with e."""
    from fincov.algkit import build_finalg_category, group_theory, \
        monoid_theory
    from fincov.fincat import try_pullback
    from fincov.instances import abelian_groups_upto, monoids_upto
    seen = set()
    for amb in (build_finalg_category(group_theory(), 8,
                                      abelian_groups_upto(4)),
                build_finalg_category(monoid_theory(), 3, monoids_upto(3))):
        for m in amb.morphisms():
            kp = try_pullback(amb, m, m)
            want = None if kp is None else \
                oracles.coequalizes_universally(amb, kp.proj1, kp.proj2, m)
            assert classify_morphism(amb, m).regular_epi == want, m
            seen.add(want)
    assert seen == {None, True, False}


def test_classify_poset_arrow():
    cat = validate_category(poset01_raw())
    rep = classify_morphism(cat, "u")
    assert rep.mono and rep.epi
    assert not rep.retraction and not rep.section and not rep.iso


def test_classify_flag_implications_corpus():
    for cat in (validate_category(poset01_raw()), diamond_lattice(),
                set_skeleton(2).category, group_category(cyclic_group(4))):
        for m in cat.morphisms():
            rep = classify_morphism(cat, m)
            if rep.iso:
                assert rep.mono and rep.epi and rep.section and rep.retraction
            if rep.section:
                assert rep.mono
            if rep.retraction:
                assert rep.epi


def test_classify_matches_oracle():
    for cat in (diamond_lattice(), set_skeleton(2).category,
                group_category(cyclic_group(2))):
        raw = oracles.RawCat(cat.to_json())
        for m in cat.morphisms():
            rep = classify_morphism(cat, m)
            assert rep.mono == oracles.is_mono(raw, m)
            assert rep.epi == oracles.is_epi(raw, m)
            assert rep.iso == oracles.is_iso(raw, m)
            assert rep.section == oracles.is_section(raw, m)
            assert rep.retraction == oracles.is_retraction(raw, m)


def test_slice_poset():
    cat = validate_category(poset01_raw())
    sl = slice_category(cat, "o1")
    assert len(sl.objects()) == 2
    non_id = [m for m in sl.morphisms() if not sl.is_identity(m)]
    assert len(non_id) == 1


def test_slice_over_bottom_is_trivial():
    cat = validate_category(poset01_raw())
    sl = slice_category(cat, "o0")
    assert len(sl.objects()) == 1


def test_slice_set_skeleton_counts():
    sk = set_skeleton(2)
    sl = slice_category(sk.category, "S2")
    assert len(sl.objects()) == 1 + 2 + 4


def test_slice_projection_validates():
    cat = diamond_lattice()
    sl = slice_category(cat, "o1")
    assert sl.projection_functor().validate() is None
    assert isinstance(sl.to_fincategory(), FinCategory)


def test_opposite_involution_and_validity():
    for cat in (validate_category(poset01_raw()), diamond_lattice(),
                set_skeleton(2).category, group_category(cyclic_group(4))):
        op = opposite_category(cat)
        assert isinstance(validate_category(op.to_json()), FinCategory)
        assert opposite_category(op) == cat


# to_json digests of the explicit corpus fixtures, recorded while the
# composition table was one numpy array
ROW_TABLE_DIGESTS = {
    "diamond": "c8171ab95f111b55", "finite_top": "47cff8ddd5c42449",
    "group_cat_D4": "26775ad0298652ca", "group_cat_Q8": "65d33358b2affb87",
    "group_cat_V4": "ad29046b8ac4aea4", "group_cat_Z2": "58e21103252c8ec7",
    "group_cat_Z2^3": "7080d7918bfff4be", "group_cat_Z4": "d8f377905ce5b53f",
    "group_cat_Z4xZ2": "8cbf8c3bbd0c7c18", "group_cat_Z8": "3a921db8df69ca55",
    "poset_2chain": "e218555a3a8efe59", "poset_3chain": "b65b0e6e292b8e8a",
    "poset_4chain": "5b6c10820f53e2bf", "set_skeleton_2": "dc11ac803993af56",
    "set_skeleton_3": "fb0c20774f168c4c", "sub_Z4": "25947f9686f1a4ef",
    "sub_Z8": "666b3f89a04fdf3d"}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _composite(C, g, f):
    try:
        return C.compose(g, f)
    except CompositionError:
        return None


def test_row_table_keeps_the_composition_it_was_built_from(monkeypatch):
    """On every explicit corpus fixture (finite_top included), the 64
    closure-harness categories and random_category seeds 0-19: compose
    answers every pair as the mapping the table was built from, and
    composition() is that mapping; to_json prints the bytes recorded
    while the table was a numpy array (here, and as the benchmark's
    pinned inputs); the rows use the narrowest typecode holding
    -1..n-1; and the opposite involution compares equal."""
    from fincov.instances import _fixture_builders, random_category
    built = {}
    real = FinCategory.__init__

    def recording(self, objects, morphisms, identities, composition,
                  name="C"):
        real(self, objects, morphisms, identities, composition, name)
        built[id(self)] = dict(composition)

    monkeypatch.setattr(FinCategory, "__init__", recording)
    fixtures = {name: build()[0] for name, build in
                _fixture_builders(3, 8, 4).items()}
    fixtures = {name: C for name, C in fixtures.items()
                if isinstance(C, FinCategory)}
    harness = [random_category(s, (4, 12)) for s in range(64)]
    seeded = [random_category(s) for s in range(20)]
    refs = json.loads((PERFBENCH / "refs.json").read_text())

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    assert {name: _digest(canonical(C.to_json()))
            for name, C in fixtures.items()} == ROW_TABLE_DIGESTS
    for s, C in enumerate(harness):
        assert _digest(canonical(C.to_json())) == \
            refs["harness_inputs"][f"cat:{s}"]
    for s, C in enumerate(seeded):
        text = json.dumps({"category": C.to_json()}, sort_keys=True,
                          indent=1) + "\n"
        assert _digest(text) == refs["inputs"][f"rand-{s}"]
    for C in [*fixtures.values(), *harness, *seeded]:
        mapping = built[id(C)]
        ms = C.morphisms()
        assert C.composition() == mapping
        assert all(_composite(C, g, f) == mapping.get((g, f))
                   for g in ms for f in ms), C.name
        codes = {"b": 2 ** 7, "h": 2 ** 15, "i": 2 ** 31}
        typecode = min((k for k, top in codes.items() if len(ms) < top),
                       key=codes.get)
        assert {row.typecode for row in C._comp} == {typecode}, C.name
        assert opposite_category(opposite_category(C)) == C
    assert fixtures["finite_top"]._comp[0].typecode == "h"
    D4 = fixtures["group_cat_D4"]
    assert opposite_category(D4) != D4


def test_broken_tables_report_law_and_witness():
    """The four kinds of broken table the benchmark generates report the
    law and witness they reported while the table was a numpy array."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import plan
    finally:
        sys.path.remove(str(PERFBENCH))
    want = {
        "0-drop": ("composability", ("r1>2", "r0>1")),
        "0-spurious": ("composability", ("r1>1", "r1>2")),
        "0-dangling": ("structure", ("r2>2",)),
        "0-identity": ("identity", ("g1",)),
        "1-drop": ("composability", ("r1>0*g0", "r1>1*g1")),
        "1-spurious": ("composability", ("r1>1*g1", "r0>0*g2")),
        "1-dangling": ("structure", ("r1>1*g1",)),
        "1-identity": ("identity", ("g2",)),
        "2-drop": ("composability", ("r0>0", "r0>0")),
        "2-spurious": ("composability", ("r0>0", "r0>0")),
        "2-dangling": ("structure", ("r0>0",)),
        "2-identity": ("identity", ("g2",)),
        "3-drop": ("composability", ("r1>1", "r1>1")),
        "3-spurious": ("composability", ("r1>1", "r0>0")),
        "3-dangling": ("structure", ("r0>0",)),
        "3-identity": ("identity", ("g3",))}
    for key, (law, witness) in want.items():
        body = json.loads(plan.make_input(f"broken-{key}"))["category"]
        rep = validate_category(body)
        assert (rep.law, tuple(rep.witness)) == (law, witness), key
        assert law == plan.BREAKAGES[key.split("-")[1]]


def test_finite_top_tuple_validates_and_swap_reports_least_triple(corpus):
    """finite_top's own tuple form validates, by Light's test on its
    generators.  One composite swapped for another member of its hom set
    reports the associativity witness that the numpy kernel reported."""
    C = corpus["finite_top"].category
    comp = C.composition()
    raw = (C.objects(), {m: (C.src(m), C.tgt(m)) for m in C.morphisms()},
           {o: C.identity(o) for o in C.objects()}, comp)
    assert isinstance(validate_category(raw), FinCategory)
    assert comp["cX3.4>X3.3:111", "cX1.0>X3.4:0"] == "cX1.0>X3.3:1"
    comp["cX3.4>X3.3:111", "cX1.0>X3.4:0"] = "cX1.0>X3.3:0"
    rep = validate_category(raw)
    assert (rep.law, rep.witness) == (
        "associativity", ("cX1.0>X2.0:0", "cX2.0>X3.4:00", "cX3.4>X3.3:111"))


def test_explicit_category_modules_do_not_import_numpy():
    """Explicit categories keep Python rows and validate on them, so
    fincat and morphclass load no numpy; only the algebra ambient does."""
    import os
    import subprocess
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import fincov.fincat, fincov.morphclass\n"
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_opposite_swaps_flags():
    sk = set_skeleton(2)
    op = opposite_category(sk.category)
    for m in sk.category.morphisms():
        rep = classify_morphism(sk.category, m)
        rep_op = classify_morphism(op, m)
        assert rep.mono == rep_op.epi and rep.epi == rep_op.mono
        assert rep.section == rep_op.retraction
        assert rep.retraction == rep_op.section


def test_duality_swaps_classify_flags(corpus):
    """Duality relation: on ``opposite_category(C)``, mono swaps with
    epi and section with retraction, and iso stays, for every morphism
    of the explicit corpus fixtures and of ``random_category`` seeds
    0-29."""
    from fincov.instances import random_category
    cats = [C for C in corpus.categories() if isinstance(C, FinCategory)]
    cats += [random_category(s) for s in range(30)]
    assert len(cats) == 17 + 30
    for C in cats:
        op = opposite_category(C)
        for m in C.morphisms():
            rep, dual = classify_morphism(C, m), classify_morphism(op, m)
            assert (dual.morphism, dual.iso, dual.mono, dual.epi,
                    dual.section, dual.retraction) == \
                (rep.morphism, rep.iso, rep.epi, rep.mono, rep.retraction,
                 rep.section), (C.name, m)


def test_opposite_group_is_transposed_table():
    cat = group_category(cyclic_group(3))
    op = opposite_category(cat)
    for g in cat.morphisms():
        for f in cat.morphisms():
            assert op.compose(g, f) == cat.compose(f, g)


def test_json_roundtrip():
    cat = diamond_lattice()
    again = validate_category(cat.to_json())
    assert again == cat


def test_compose_error():
    cat = validate_category(poset01_raw())
    with pytest.raises(CompositionError):
        cat.compose("u", "id1")


def test_product_category_valid():
    prod = product_category(chain_poset(1), group_category(cyclic_group(2)))
    assert isinstance(prod, FinCategory)
    assert len(prod.objects()) == 2


def test_has_all_pullbacks_flag():
    assert diamond_lattice().has_all_pullbacks()
    v = poset_category(["x", "y", "z"], [("x", "z"), ("y", "z")])
    # x and y have no meet below them; the cospan (x -> z, y -> z) has a
    # cone only if some object maps to both, which none does except via z
    assert v.find_pullback("x<z", "y<z") is None
    assert not v.has_all_pullbacks()


def test_lazy_mediators_match_eager_dict(corpus):
    """A kernel-found square builds its mediator dict on the first
    mediator() call; for every cone of every cospan of the explicit
    corpus categories (all but finite_top's 1476 morphisms) it equals
    the dict of unique mediators found by brute force over the apex's
    hom sets."""
    fresh = set_skeleton(2).category.find_pullback("f2>2:01", "f2>2:10")
    assert fresh.mediators == {} and fresh.cones is not None
    checked = 0
    for name in corpus.names():
        C = corpus[name].category
        if not isinstance(C, FinCategory) or len(C.morphisms()) > 100:
            continue
        for f in C.morphisms():
            for g in C.morphisms_into(C.tgt(f)):
                sq = C.find_pullback(f, g)
                if sq is None:
                    continue
                cones = [(p, q) for z in C.objects()
                         for p in C.hom(z, C.src(f))
                         for q in C.hom(z, C.src(g))
                         if C.compose(f, p) == C.compose(g, q)]
                eager = {}
                for p, q in cones:
                    hits = [h for h in C.hom(C.src(p), sq.apex)
                            if C.compose(sq.proj1, h) == p
                            and C.compose(sq.proj2, h) == q]
                    assert len(hits) == 1
                    eager[p, q] = hits[0]
                for p, q in cones:
                    assert sq.mediator(p, q) == eager[p, q]
                assert sq.mediators == eager and sq.cones is None
                checked += len(cones)
    assert checked > 1000


def test_hom_sets_are_built_once():
    C = set_skeleton(2).category
    raw = oracles.RawCat(C.to_json())
    for a in C.objects():
        for b in C.objects():
            hom = C.hom(a, b)
            assert C.hom(a, b) is hom
            assert list(hom) == raw.hom(a, b)
            assert all(type(m) is str for m in hom)


def test_iso_leg_pullbacks_match_unshortcut_search(corpus, monkeypatch):
    """Along an iso leg, find_pullback takes the first commuting span
    whose other leg is an iso and runs no span_verify.  Its apex, both
    projections and every mediator equal those of the full search, on
    every explicit corpus category and random_category seeds 0-39.  On
    finite_top (8063 such cospans, 11 s of full search) the first leg
    runs over every eighth morphism."""
    from fincov import kernels
    from fincov.instances import random_category
    verified = []
    real = kernels.span_verify

    def counting(*args):
        verified.append(args[5:7])
        return real(*args)

    monkeypatch.setattr(kernels, "span_verify", counting)
    cats = [corpus[name].category for name in corpus.names()]
    cats = [C for C in cats if isinstance(C, FinCategory)]
    cats += [random_category(seed) for seed in range(40)]
    cospans = cones = 0
    for C in cats:
        stride = 8 if len(C.morphisms()) > 1000 else 1
        for f in C.morphisms()[::stride]:
            for g in C.morphisms_into(C.tgt(f)):
                if not (C.is_iso(f) or C.is_iso(g)):
                    continue
                want = oracles.pullback_search(C, f, g)
                C._pullback_cache.pop((f, g), None)
                del verified[:]
                sq = C.find_pullback(f, g)
                assert verified == [], (C.name, f, g)
                apex, p1, p2, meds = want
                assert (sq.apex, sq.proj1, sq.proj2) == (apex, p1, p2), \
                    (C.name, f, g)
                for p, q in meds:
                    assert sq.mediator(p, q) == meds[p, q], (C.name, f, g)
                assert sq.mediators == meds
                cospans += 1
                cones += len(meds)
    assert cospans > 2500 and cones > cospans


def test_pullbacks_match_per_candidate_filter(corpus, monkeypatch):
    """find_pullback decides the cone-count filter for every apex object
    at once; its apex, projections and mediators, and the spans it
    verifies, equal the per-candidate filter's, on every cospan of the
    explicit corpus categories up to 200 morphisms and of
    random_category seeds 0-39."""
    from fincov import kernels
    from fincov.instances import random_category
    verified = []
    real = kernels.span_verify

    def counting(*args):
        verified.append(args[5:7])
        return real(*args)

    monkeypatch.setattr(kernels, "span_verify", counting)
    cats = [corpus[name].category for name in corpus.names()]
    cats = [C for C in cats
            if isinstance(C, FinCategory) and len(C.morphisms()) <= 200]
    cats += [random_category(seed) for seed in range(40)]
    found = missing = 0
    for C in cats:
        for f in C.morphisms():
            for g in C.morphisms_into(C.tgt(f)):
                if C.is_iso(f) or C.is_iso(g):
                    continue
                expected = []
                want = oracles.pullback_search(C, f, g, expected)
                C._pullback_cache.pop((f, g), None)
                del verified[:]
                sq = C.find_pullback(f, g)
                ms = C.morphisms()
                assert [(ms[p], ms[q]) for p, q in verified] == expected, \
                    (C.name, f, g)
                if want is None:
                    assert sq is None, (C.name, f, g)
                    missing += 1
                    continue
                apex, p1, p2, meds = want
                assert (sq.apex, sq.proj1, sq.proj2) == (apex, p1, p2), \
                    (C.name, f, g)
                for p, q in meds:
                    assert sq.mediator(p, q) == meds[p, q], (C.name, f, g)
                found += 1
    assert found > 1000 and missing > 0


def test_derived_memo_hit_builds_no_table(monkeypatch):
    """A derived_memo miss builds the tables it lacks; a hit returns the
    same table and constructs no WeakKeyDictionary and stores nothing
    (an eagerly built default dict would be passed to setdefault)."""
    import weakref
    from fincov import fincat
    from fincov.morphclass import builtin_class
    events = []

    class Counting(weakref.WeakKeyDictionary):
        def __init__(self, *args):
            events.append("table")
            super().__init__(*args)

        def __setitem__(self, key, value):
            events.append("store")
            super().__setitem__(key, value)

        def setdefault(self, key, default=None):
            events.append("setdefault")
            return super().setdefault(key, default)

    monkeypatch.setattr(fincat.weakref, "WeakKeyDictionary", Counting)
    C = chain_poset(2)
    A, B = builtin_class(C, "all"), builtin_class(C, "isos")
    table = fincat.derived_memo(C, "probe", A)
    assert events == ["table", "store"]
    assert fincat.derived_memo(C, "probe", B) is not table
    assert events == ["table", "store", "store"]
    del events[:]
    for _ in range(3):
        assert fincat.derived_memo(C, "probe", A) is table
    assert events == []


def test_derived_memo_one_owner_table_per_category():
    """A category keeps one weak table of owners, each with one dict of
    its named tables; an owner's tables go with it, and a growing algebra
    ambient drops them all."""
    import gc

    from fincov import fincat
    from fincov.algkit import build_finalg_category, group_theory
    from fincov.instances import groups_upto

    class Owner:
        pass

    C = chain_poset(2)
    A, B = Owner(), Owner()
    t1 = fincat.derived_memo(C, "one", A)
    t2 = fincat.derived_memo(C, "two", A)
    t3 = fincat.derived_memo(C, "one", B)
    assert len({id(t1), id(t2), id(t3)}) == 3
    owners = C.__dict__["_derived_memos"]
    assert len(owners) == 2 and set(owners[A]) == {"one", "two"}
    assert owners[A]["one"] is t1 and owners[A]["two"] is t2
    assert fincat.derived_memo(C, "two", A) is t2
    del B
    gc.collect()
    assert len(owners) == 1

    amb = build_finalg_category(group_theory(), 8, groups_upto(4))
    old = fincat.derived_memo(amb, "one", A)
    amb.register(cyclic_group(6))
    assert "_derived_memos" not in amb.__dict__
    assert fincat.derived_memo(amb, "one", A) is not old
