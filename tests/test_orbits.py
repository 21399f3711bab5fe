"""Automorphism orbits: the representatives each category kind computes,
against the oracle that applies every automorphism, and the scans that
read one row per orbit (class composites, the anchored protomodularity
scan) against the same scans over every row."""

import random

import oracles
from fincov import kernels
from fincov.kernels import iso_saturated
from fincov.instances import random_category
from fincov.morphclass import BUILTIN_CLASS_NAMES, builtin_class, \
    explicit_class
from fincov.protomod import _check_ambient
from fixtures_util import FULL_GROWTH, grown_ambient

AMBIENTS = ("abelian_ambient", "groups_ambient", "monoids_ambient")
FLAGS = ("system", "left_cancelable", "right_cancelable")
# harness categories random_category(s, (4, 12)) multiplied by a cyclic
# group, so every object has a nontrivial automorphism group
CYCLIC_SEEDS = [s for s in range(64) if random_category(s, (4, 12))
                .orbit_reps is not None]


def _categories(corpus):
    cats = [corpus[name].category for name in AMBIENTS]
    cats.append(grown_ambient(*FULL_GROWTH))
    cats.append(corpus["finite_top"].category)
    return cats + [random_category(s, (4, 12)) for s in CYCLIC_SEEDS]


def test_harness_has_cyclic_factors():
    assert len(CYCLIC_SEEDS) >= 8
    plain = random_category(next(s for s in range(64)
                                 if s not in CYCLIC_SEEDS), (4, 12))
    assert plain.orbit_reps is None is oracles.orbit_reps(plain)


def test_orbit_reps_equal_every_automorphism_applied(corpus):
    """Right and left representatives equal the oracle's on the corpus
    ambients, the grown harness ambient, finite_top and the harness
    categories with a cyclic factor.  On the grown ambient 234 of the
    1010 morphisms represent their right orbit."""
    for C in _categories(corpus):
        reps = C.orbit_reps
        assert reps == oracles.orbit_reps(C), C.name
        right, left = reps
        assert all(r <= i for i, r in enumerate(right))
        assert all(r <= i for i, r in enumerate(left))
    right = grown_ambient(*FULL_GROWTH).orbit_reps[0]
    assert sum(r == i for i, r in enumerate(right)) == 234


def _two_sided_orbits(reps):
    """The classes of morphisms joined by either representative map."""
    parent = list(range(len(reps[0])))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for rep in reps:
        for i, r in enumerate(rep):
            parent[find(i)] = find(r)
    return [find(i) for i in range(len(parent))]


def _classes(C, rng, count=6):
    """Every builtin class, ``count`` seeded explicit classes that are
    unions of two-sided orbits, and ``count`` that are plain random
    subsets."""
    ms = C.morphisms()
    orbit = _two_sided_orbits(C.orbit_reps)
    out = [builtin_class(C, name) for name in BUILTIN_CLASS_NAMES]
    for k in range(count):
        keep = {o for o in set(orbit) if rng.random() < 0.6}
        out.append(explicit_class(C, f"orbits{k}", [
            m for m, o in zip(ms, orbit) if o in keep]))
        out.append(explicit_class(C, f"rand{k}", [
            m for m in ms if rng.random() < 0.7]))
    return out


def _rows_asked(blocks, asked):
    for rows, cols, targets, row_of in blocks:
        yield rows, cols, targets, \
            lambda i, rows=rows, row_of=row_of: asked.append(rows[i]) \
            or row_of(i)


def test_reduced_class_composites_equal_the_full_scan(corpus):
    """The scan that skips rows represented earlier returns the full
    scan's witnesses for every builtin class and for seeded explicit
    classes, on every category kind with orbits; the classes constant on
    orbits ask for fewer rows."""
    rng = random.Random(30)
    skipped = 0
    for C in _categories(corpus)[3:]:
        ms = C.morphisms()
        for A in _classes(C, rng):
            member = list(map(A.contains, ms))
            full, reduced = [], []
            want = kernels.first_class_composites(
                _rows_asked(C.composite_blocks(), full), member, FLAGS)
            saturated = iso_saturated(member, C.orbit_reps)
            got = kernels.first_class_composites(
                _rows_asked(C.composite_blocks(), reduced), member, FLAGS,
                C.orbit_reps)
            assert got == want == C.first_class_composites(member, FLAGS), \
                (C.name, A.name)
            assert set(reduced) <= set(full)
            skipped += saturated and len(reduced) < len(full)
    assert skipped >= 150


def test_class_not_constant_on_orbits_turns_the_reduction_off(monkeypatch):
    """A class that holds g but not g . a for an automorphism a: skipping
    the rows represented earlier would miss the least witness, and the
    scan, finding the class not constant on orbits, reports the full
    scan's."""
    rng = random.Random(7)
    found = 0
    for s in CYCLIC_SEEDS:
        C = random_category(s, (4, 12))
        ms, (right, left) = C.morphisms(), C.orbit_reps
        for _ in range(40):
            member = [rng.random() < 0.8 for _ in ms]
            g = next((i for i in range(len(ms)) if right[i] != i
                      and member[right[i]] != member[i]), None)
            if g is None:
                continue
            assert not iso_saturated(member, (right, left))
            want = kernels.first_class_composites(
                C.composite_blocks(), member, FLAGS)
            assert C.first_class_composites(member, FLAGS) == want
            with monkeypatch.context() as m:
                m.setattr(kernels, "iso_saturated", lambda *args: True)
                found += kernels.first_class_composites(
                    C.composite_blocks(), member, FLAGS,
                    (right, left)) != want
    assert found >= 200


def test_ambient_scan_one_e_per_orbit(monkeypatch):
    """On the grown ambient the anchored scan reads composite rows for
    the least e of each left orbit only, and its reports, diagram counts
    included, equal the reference scan for every builtin pair it accepts
    and for seeded explicit E that are unions of orbits."""
    C = grown_ambient(*FULL_GROWTH)
    index = oracles.build_composite_index(C)
    left = C.orbit_reps[1]
    rng = random.Random(11)
    pairs = [(builtin_class(C, e), builtin_class(C, m))
             for e in BUILTIN_CLASS_NAMES for m in ("all", "injections",
                                                    "surjections")]
    pairs += [(E, builtin_class(C, "all"))
              for E in _classes(C, rng, 3) if E.name.startswith("orbits")]
    asked = []
    read = C.composites
    monkeypatch.setattr(C, "composites",
                        lambda A, e: asked.append(e) or read(A, e))
    ms, checked = C.morphisms(), 0
    for E, M in pairs:
        try:
            rep = _check_ambient(C, E, M, "definition")
        except ValueError:
            continue
        want = oracles.check_ambient(C, E, M, "definition", index)
        assert rep.to_json() == want.to_json(), (E.name, M.name)
        checked += 1
    assert checked == 27
    pos = {m: i for i, m in enumerate(ms)}
    assert asked and all(left[pos[e]] == pos[e] for e in asked)


def test_orbits_cost_nothing_without_automorphisms(monkeypatch):
    """An object whose only endomorphism is its identity, or whose only
    automorphism is, takes no orbit work: on a chain and on the ambient
    of Z1 and Z2 no orbit is walked and there are no orbits to read."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import chain_poset, cyclic_group

    def walked(*args):
        raise AssertionError("an orbit was walked")
    monkeypatch.setattr(kernels, "orbit_reps", walked)
    assert chain_poset(4).orbit_reps is None
    amb = build_finalg_category(group_theory(), 2,
                                [cyclic_group(1), cyclic_group(2)])
    assert amb.orbit_reps is None is oracles.orbit_reps(amb)
