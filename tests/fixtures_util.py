"""Shared test fixtures: concrete-function categories closed under
composition, the hand-built non-regular category, the abelian-groups
ambient grown by products, and the composites that composite-index
blocks list."""

from fincov.fincat import FinCategory, validate_category


def close_concrete(objects, generators, name="concrete"):
    """Category of named finite-set functions closed under composition.

    objects: name -> carrier size; generators: name -> (src, tgt, images).
    Equal composites (same endpoints, same function) share one morphism, so
    relations like m.h = p2 hold on the nose.
    """
    mors = {}
    named = {}

    def add(mname, s, t, img):
        key = (s, t, tuple(img))
        if key in mors:
            return mors[key]
        mors[key] = mname
        named[mname] = key
        return mname

    for o, n in objects.items():
        add(f"id_{o}", o, o, tuple(range(n)))
    for mname, (s, t, img) in generators.items():
        add(mname, s, t, tuple(img))
    changed = True
    while changed:
        changed = False
        items = list(named.items())
        for gn, (gs, gt, gi) in items:
            for fn, (fs, ft, fi) in items:
                if ft != gs:
                    continue
                img = tuple(gi[x] for x in fi)
                if (fs, gt, img) not in mors:
                    add(f"({gn}.{fn})", fs, gt, img)
                    changed = True
    morphisms = {n: (k[0], k[1]) for n, k in named.items()}
    comp = {}
    for gn, (gs, gt, gi) in named.items():
        for fn, (fs, ft, fi) in named.items():
            if ft != gs:
                continue
            img = tuple(gi[x] for x in fi)
            comp[(gn, fn)] = mors[(fs, gt, img)]
    identities = {o: f"id_{o}" for o in objects}
    cat = validate_category((list(objects), morphisms, identities, comp),
                            name=name)
    assert isinstance(cat, FinCategory), cat
    return cat


def non_regular_category():
    """A 7-object category where the constant map m0.e admits no
    (stably extremal, mono) factorization.

    The unique mono route e: A -> B0 is blocked because its pullback along
    k has the projection m.h, which factors through the non-iso mono m.
    """
    objects = {"R": 2, "A": 2, "B0": 1, "B": 2, "Z": 2, "P": 4, "W": 3}
    gens = {
        "u": ("R", "A", (0, 1)),
        "v": ("R", "A", (1, 0)),
        "e": ("A", "B0", (0, 0)),
        "m0": ("B0", "B", (0,)),
        "k": ("Z", "B0", (0, 0)),
        "p1": ("P", "A", (0, 0, 1, 1)),
        "h": ("P", "W", (0, 1, 0, 2)),
        "m": ("W", "Z", (0, 1, 1)),
    }
    return close_concrete(objects, gens, name="nonreg")


def grown_ambient(*products):
    """The abelian groups of order <= 4 under size cap 8, grown by the
    products of the named pairs (as product closure grows it): after
    ("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4") it has 8 objects and 1010
    morphisms."""
    from fincov.algebra import group_theory
    from fincov.algkit import build_finalg_category
    from fincov.instances import abelian_groups_upto
    amb = build_finalg_category(group_theory(), 8, abelian_groups_upto(4))
    for pair in products:
        grow_ambient(amb, pair)
    return amb


def grow_ambient(amb, pair):
    """Register the product of the named pair of roster algebras, as the
    pullback of their maps to Z1."""
    ob = {A.name: A for A in amb.objects()}
    a, b = pair
    amb.find_pullback(amb.hom(ob[a], ob["Z1"])[0],
                      amb.hom(ob[b], ob["Z1"])[0])


FULL_GROWTH = (("Z2", "Z3"), ("Z2", "V4"), ("Z2", "Z4"))


def block_table(rows, row_of):
    """The rows of a composite-index block, each asked of ``row_of``."""
    return [list(row_of(i)) for i in range(len(rows))]


def composite_pairs(blocks):
    """Every composable (g, f) -> the index of g.f, read off
    composite-index blocks (rows, cols, targets, row), which must cover
    each pair once."""
    out = {}
    for rows, cols, targets, row_of in blocks:
        for g, trow in zip(rows, block_table(rows, row_of)):
            for f, t in zip(cols, trow):
                assert (g, f) not in out
                out[g, f] = targets[t]
    return out


def numpy_pairs(index):
    """``composite_pairs`` of the numpy oracle's index."""
    return composite_pairs((rows.tolist(), cols.tolist(),
                            range(len(index.morphisms)),
                            table.tolist().__getitem__)
                           for rows, cols, table in index.blocks.values())
