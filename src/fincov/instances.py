"""Corpus builders: posets and lattices, set skeletons, finite topological
spaces, algebra ambients and seeded random categories.

Group tables route their tables through validate_category, since any
algebra with a ``mul`` table is accepted.  Posets, random preorders, set
skeletons, finite spaces and products (posets and products from
``fincat``) satisfy the category laws by construction (thin orders,
composition of functions and maps, componentwise composition), so they
call the trusted ``FinCategory`` constructor; posets and products first
check that their ids are distinct.  The tests re-validate them through
validate_category.  The grid and Klein variances are built once per
shape.  Ids are zero-padded where order matters; all enumeration is
deterministic.

The standard corpus is a registry of named fixtures: one zero-argument
builder per name, listed for given caps (``max_top_points``,
``group_cap``, ``monoid_cap``) by ``_fixture_builders``.  Nothing is
built until asked for.  ``corpus_entry(name, ...)`` builds one fixture
and caches it under (name, caps); ``standard_corpus(...)`` builds every
name through the same cache, and ``corpus_names(...)`` lists the names.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import ItemsView, Mapping
from functools import partial

from . import lazy_layer
from .fincat import FinCategory, _up_sets, chain_poset, poset_category, \
    product_category, validate_category
from .morphclass import builtin_class, explicit_class
from .variance import MixedFunctor, Variance, validate_mixed_functor, \
    validate_variance

# group tables and algebra ambients; the posets, set skeletons and finite
# spaces need no algebra, so their fixtures leave it unrun
algkit = lazy_layer("algkit")


def _must(cat):
    if not isinstance(cat, FinCategory):
        raise AssertionError(f"generated category failed validation: {cat}")
    return cat


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------

def diamond_lattice(name="diamond"):
    return poset_category(["o0", "oa", "ob", "o1"],
                          [("o0", "oa"), ("o0", "ob"), ("oa", "o1"),
                           ("ob", "o1")], name=name)


# ---------------------------------------------------------------------------
# set skeleton
# ---------------------------------------------------------------------------

class SetSkeleton:
    """Skeleton of finite sets S0..Sn with all functions as morphisms."""

    def __init__(self, category, maps):
        self.category = category
        self.maps = maps  # mor id -> (src size, tgt size, images)

    def is_injective(self, m):
        s, _, img = self.maps[m]
        return len(set(img)) == s

    def is_surjective(self, m):
        _, t, img = self.maps[m]
        return len(set(img)) == t

    def injections(self):
        return explicit_class(self.category, "injections",
                              [m for m in self.maps if self.is_injective(m)])

    def surjections(self):
        return explicit_class(self.category, "surjections",
                              [m for m in self.maps if self.is_surjective(m)])


def set_skeleton(max_size, name=None):
    """Sets of size 0..max_size and every function between them.  Functions
    compose lawfully, so the table goes to the trusted constructor."""
    objs = [f"S{i}" for i in range(max_size + 1)]
    morphisms = {}
    maps = {}
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            for img in itertools.product(range(b), repeat=a):
                mid = f"f{a}>{b}:" + "".join(map(str, img))
                morphisms[mid] = (f"S{a}", f"S{b}")
                maps[mid] = (a, b, img)
    identities = {f"S{i}": f"f{i}>{i}:" + "".join(map(str, range(i)))
                  for i in range(max_size + 1)}
    composition = {}
    for g, (b1, c, gimg) in maps.items():
        for f, (a, b2, fimg) in maps.items():
            if b1 != b2:
                continue
            himg = tuple(gimg[x] for x in fimg)
            composition[(g, f)] = f"f{a}>{c}:" + "".join(map(str, himg))
    cat = FinCategory(objs, morphisms, identities, composition,
                      name=name or f"set<= {max_size}")
    return SetSkeleton(cat, maps)


# ---------------------------------------------------------------------------
# groups and monoids
# ---------------------------------------------------------------------------

def cyclic_group(n, name=None):
    T = algkit.group_theory()
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return algkit.FinAlgebra(T, name or f"Z{n}", n,
                             {"mul": mul, "inv": inv, "e": 0})


def group_from_permutations(perms, name):
    """Group table from a closed set of permutations (identity first)."""
    T = algkit.group_theory()
    perms = sorted(set(map(tuple, perms)))
    ident = tuple(range(len(perms[0])))
    perms.remove(ident)
    perms.insert(0, ident)
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = tuple(tuple(idx[tuple(p[q[k]] for k in range(len(ident)))]
                      for q in perms) for p in perms)
    inv = []
    for i, p in enumerate(perms):
        q = [0] * len(ident)
        for a, b in enumerate(p):
            q[b] = a
        inv.append(idx[tuple(q)])
    return algkit.FinAlgebra(T, name, n,
                             {"mul": mul, "inv": tuple(inv), "e": 0})


def direct_product_group(A, B, name=None):
    """A x B on the codes a * |B| + b, operated coordinatewise."""
    return algkit._coded_algebra(algkit.group_theory(),
                                 name or f"{A.name}x{B.name}", (A, B),
                                 range(A.size * B.size))


def symmetric_group(n, name=None):
    return group_from_permutations(itertools.permutations(range(n)),
                                   name or f"S{n}")


def dihedral_group_8():
    """Symmetries of the square as permutations of its vertices."""
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)
    perms = set()
    frontier = [tuple(range(4))]
    while frontier:
        p = frontier.pop()
        if p in perms:
            continue
        perms.add(p)
        for q in (r, s):
            frontier.append(tuple(q[p[k]] for k in range(4)))
    return group_from_permutations(perms, "D4")


def quaternion_group():
    """Q8 presented by its multiplication table over 1,-1,i,-i,j,-j,k,-k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {s: k for k, s in enumerate(names)}

    def neg(s):
        return s[1:] if s.startswith("-") else "-" + s

    base = {("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1",
            ("k", "k"): "-1", ("i", "j"): "k", ("j", "k"): "i",
            ("k", "i"): "j", ("j", "i"): "-k", ("k", "j"): "-i",
            ("i", "k"): "-j"}

    def mulsym(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign > 0 else neg(out)

    mul = tuple(tuple(idx[mulsym(a, b)] for b in names) for a in names)
    inv = tuple(next(j for j in range(8) if mul[idx[a]][j] == idx["1"])
                for a in names)
    T = algkit.group_theory()
    return algkit.FinAlgebra(T, "Q8", 8, {"mul": mul, "inv": inv, "e": 0})


def klein_four_group():
    return direct_product_group(cyclic_group(2), cyclic_group(2), "V4")


def groups_upto(order_cap):
    """All groups of order <= cap up to isomorphism (cap <= 8)."""
    if order_cap > 8:
        raise ValueError("group roster is hand-built up to order 8")
    out = [cyclic_group(n) for n in range(1, order_cap + 1)]
    if order_cap >= 4:
        out.append(klein_four_group())
    if order_cap >= 6:
        out.append(symmetric_group(3, "S3"))
    if order_cap >= 8:
        out.append(direct_product_group(cyclic_group(4), cyclic_group(2),
                                        "Z4xZ2"))
        out.append(direct_product_group(klein_four_group(), cyclic_group(2),
                                        "Z2^3"))
        out.append(dihedral_group_8())
        out.append(quaternion_group())
    return out


def abelian_groups_upto(order_cap):
    return [A for A in groups_upto(order_cap)
            if A.name not in ("S3", "D4", "Q8")]


def monoids_upto(order_cap):
    """All monoids of order <= cap up to isomorphism, by table search."""
    T = algkit.monoid_theory()
    out = []
    for n in range(1, order_cap + 1):
        seen = set()
        count = 0
        for table in _unital_assoc_tables(n):
            canon = _monoid_canonical(table, n)
            if canon in seen:
                continue
            seen.add(canon)
            count += 1
            out.append(algkit.FinAlgebra(T, f"M{n}_{count}", n,
                                         {"mul": table, "e": 0}))
    return out


def _unital_assoc_tables(n):
    """Associative tables on range(n) with 0 as two-sided unit, by
    backtracking over the non-unit cells."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    table = [[(i + j) if i == 0 or j == 0 else None for j in range(n)]
             for i in range(n)]
    for i in range(n):
        table[i][0] = i
        table[0][i] = i

    def assoc_ok():
        # every triple whose two products are already known associates
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    left, right = table[ab][c], table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if assoc_ok():
                yield from rec(k + 1)
        table[i][j] = None

    yield from rec(0)


def _monoid_canonical(table, n):
    best = None
    for perm in itertools.permutations(range(1, n)):
        p = (0,) + perm
        q = [0] * n
        for a, b in enumerate(p):
            q[b] = a
        t = tuple(tuple(q[table[p[i]][p[j]]] for j in range(n))
                  for i in range(n))
        if best is None or t < best:
            best = t
    return best


def group_category(A, name=None):
    """One-object category of a group (or monoid) table.  Validated: any
    algebra with a ``mul`` table is accepted, lawful or not."""
    n = A.size
    objs = ["*"]
    morphisms = {f"g{i}": ("*", "*") for i in range(n)}
    identities = {"*": f"g{A.apply('e', [])}" if A.theory.has_symbol("e")
                  else "g0"}
    composition = {(f"g{i}", f"g{j}"): f"g{A.apply('mul', [i, j])}"
                   for i in range(n) for j in range(n)}
    return _must(validate_category((objs, morphisms, identities, composition),
                                   name=name or f"B({A.name})"))


def subgroup_lattice_poset(A, name=None):
    """Poset category of all subalgebras of A ordered by inclusion."""
    subs = set()
    for seed in itertools.chain([()], itertools.combinations(A.carrier, 1),
                                itertools.combinations(A.carrier, 2)):
        subs.add(algkit.subalgebra_closure(A, seed))
    # two generators suffice for carriers <= 8 except Z2^3-like; close again
    changed = True
    while changed:
        changed = False
        for s in list(subs):
            for x in A.carrier:
                t = algkit.subalgebra_closure(A, set(s) | {x})
                if t not in subs:
                    subs.add(t)
                    changed = True
    names = {s: "u" + "".join(map(str, sorted(s))) for s in subs}
    pairs = [(names[s], names[t]) for s in subs for t in subs
             if s != t and s <= t]
    return poset_category(names.values(), pairs,
                          name=name or f"sub({A.name})")


# ---------------------------------------------------------------------------
# finite topological spaces
# ---------------------------------------------------------------------------

class FiniteTopCorpus:
    """Finite spaces up to homeomorphism with all continuous maps.

    ``spaces`` maps object id -> (npoints, opens) where opens is a sorted
    tuple of point-bitmask ints; ``maps`` maps morphism id -> images tuple.
    """

    def __init__(self, category, spaces, maps):
        self.category = category
        self.spaces = spaces
        self.maps = maps

    def opens(self, obj):
        return self.spaces[obj][1]

    def npoints(self, obj):
        return self.spaces[obj][0]

    def is_injective(self, m):
        src = self.category.src(m)
        return len(set(self.maps[m])) == self.npoints(src)

    def is_surjective(self, m):
        tgt = self.category.tgt(m)
        return len(set(self.maps[m])) == self.npoints(tgt)

    def image_mask(self, m):
        mask = 0
        for y in self.maps[m]:
            mask |= 1 << y
        return mask

    def is_embedding(self, m):
        """Injective, and the source's opens pushed forward are exactly the
        relative opens of the image (the subspace topology)."""
        if not self.is_injective(m):
            return False
        pushed = set()
        for u in self.opens(self.category.src(m)):
            mask = 0
            for x, y in enumerate(self.maps[m]):
                if u >> x & 1:
                    mask |= 1 << y
            pushed.add(mask)
        mask = self.image_mask(m)
        return pushed == {v & mask for v in self.opens(self.category.tgt(m))}

    def is_open_embedding(self, m):
        """An embedding with open image."""
        tgt = self.category.tgt(m)
        return self.image_mask(m) in self.opens(tgt) and self.is_embedding(m)

    def is_closed_embedding(self, m):
        """An embedding with closed image.  For an injective map the pushed
        closed sets are the relative closed sets exactly when the pushed
        opens are the relative opens, as complements within the image."""
        tgt = self.category.tgt(m)
        full = (1 << self.npoints(tgt)) - 1
        return full ^ self.image_mask(m) in self.opens(tgt) \
            and self.is_embedding(m)

    def extremal_monos(self):
        """Embeddings (subspace inclusions up to homeomorphism), one class
        object per corpus: the topological coverages are subordinated to it."""
        if "_embeddings" not in self.__dict__:
            self._embeddings = explicit_class(self.category, "embeddings", [
                m for m in self.maps if self.is_embedding(m)])
        return self._embeddings


def _all_topologies(n):
    """All topologies on range(n) as sorted tuples of open bitmasks."""
    full = (1 << n) - 1
    subsets = range(1 << n)
    out = []
    for fam_bits in range(1 << (1 << n)):
        fam = [s for s in subsets if fam_bits & (1 << s)]
        famset = set(fam)
        if 0 not in famset or full not in famset:
            continue
        ok = True
        for a in fam:
            for b in fam:
                if (a | b) not in famset or (a & b) not in famset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(fam)))
    return out


def _canonical_topology(opens, n):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = []
        for u in opens:
            m = 0
            for x in range(n):
                if u & (1 << x):
                    m |= 1 << perm[x]
            mapped.append(m)
        t = tuple(sorted(mapped))
        if best is None or t < best:
            best = t
    return best


def finite_top_category(max_points=3, name=None):
    """Finite spaces up to homeomorphism and all continuous maps.

    Gated at four points: topology enumeration is exponential in 2^n.
    """
    if max_points > 4:
        raise ValueError("finite space corpus is gated at 4 points")
    spaces = {}
    order = []
    for n in range(max_points + 1):
        canon = sorted({_canonical_topology(t, n) for t in _all_topologies(n)})
        for i, opens in enumerate(canon):
            oid = f"X{n}.{i}"
            spaces[oid] = (n, opens)
            order.append(oid)
    morphisms = {}
    maps = {}
    ids = {}      # (src, tgt, image) -> id, to name composites
    for a in order:
        na, opa = spaces[a]
        for b in order:
            nb, opb = spaces[b]
            opa_set = set(opa)
            for img in itertools.product(range(nb), repeat=na):
                ok = True
                for v in opb:
                    pre = 0
                    for x in range(na):
                        if v & (1 << img[x]):
                            pre |= 1 << x
                    if pre not in opa_set:
                        ok = False
                        break
                if ok:
                    mid = f"c{a}>{b}:" + "".join(map(str, img))
                    morphisms[mid] = (a, b)
                    maps[mid] = img
                    ids[(a, b, img)] = mid
    identities = {a: f"c{a}>{a}:" + "".join(map(str, range(spaces[a][0])))
                  for a in order}
    # ids are unique (one per space and image tuple) and composites are
    # composites of maps, so the laws hold by construction
    cat = FinCategory(order, morphisms, identities,
                      _MapComposites(morphisms, maps, ids),
                      name=name or f"top<= {max_points}")
    return FiniteTopCorpus(cat, spaces, maps)


class _MapComposites(Mapping):
    """{(g, f): g.f} of maps between finite sets, computed when read.

    The 3-point space corpus has about 1.7e5 composable pairs; held as a
    dict they cost ~15 MB on top of the category's own table while the
    constructor reads them.  ``ids`` maps (src, tgt, image tuple) to a
    morphism id.
    """

    def __init__(self, morphisms, maps, ids):
        self._morphisms, self._maps, self._ids = morphisms, maps, ids
        self._by_src = {}
        for m, (s, _) in morphisms.items():
            self._by_src.setdefault(s, []).append(m)

    def __getitem__(self, key):
        g, f = key
        if self._morphisms[g][0] != self._morphisms[f][1]:
            raise KeyError(key)
        gi = self._maps[g]
        return self._ids[(self._morphisms[f][0], self._morphisms[g][1],
                          tuple(gi[x] for x in self._maps[f]))]

    def __iter__(self):
        for f, (_, b) in self._morphisms.items():
            for g in self._by_src.get(b, ()):
                yield g, f

    def __len__(self):
        return sum(len(self._by_src.get(b, ()))
                   for _, b in self._morphisms.values())

    def items(self):
        return _MapCompositeItems(self)

    def _items(self):
        ends, maps, ids = self._morphisms, self._maps, self._ids
        for f, (a, b) in ends.items():
            fi = maps[f]
            for g in self._by_src.get(b, ()):
                yield (g, f), ids[(a, ends[g][1],
                                   tuple(map(maps[g].__getitem__, fi)))]


class _MapCompositeItems(ItemsView):
    """Items of a _MapComposites in one pass, without a lookup per key."""

    def __iter__(self):
        return self._mapping._items()


# ---------------------------------------------------------------------------
# random categories
# ---------------------------------------------------------------------------

# group order -> the category of the cyclic group a random category may
# be multiplied by; built on first use and never dropped
_cyclic_group_categories = {}


def random_category(seed, size_bounds=(4, 24), name=None):
    """Seeded random valid category: a random preorder, sometimes multiplied
    by a small cyclic group category.  The preorder is closed from its
    successor sets and composed over a <= b <= c, which are lawful by
    construction, so it goes to the trusted constructor."""
    max_obj, max_mor = size_bounds
    rng = random.Random(seed)
    for _ in range(64):
        k = rng.randint(1, max_obj)
        density = rng.random() * 0.6
        succ = {i: set() for i in range(k)}
        for i in range(k):
            for j in range(k):
                if i != j and rng.random() < density:
                    succ[i].add(j)
        up = _up_sets(succ)
        elems = [f"o{i}" for i in range(k)]
        morphisms = {f"r{a}>{b}": (f"o{a}", f"o{b}")
                     for a in range(k) for b in up[a]}
        identities = {f"o{i}": f"r{i}>{i}" for i in range(k)}
        composition = {(f"r{b}>{c}", f"r{a}>{b}"): f"r{a}>{c}"
                       for a in range(k) for b in up[a] for c in up[b]}
        cat = FinCategory(elems, morphisms, identities, composition,
                          name=name or f"rand{seed}")
        if rng.random() < 0.3:
            order = rng.choice([2, 3])
            if order not in _cyclic_group_categories:
                _cyclic_group_categories[order] = group_category(
                    cyclic_group(order))
            g = _cyclic_group_categories[order]
            prod = product_category(cat, g, name=name or f"rand{seed}")
            if len(prod.morphisms()) <= max_mor:
                return prod
        if len(cat.morphisms()) <= max_mor:
            return cat
    return cat


# ---------------------------------------------------------------------------
# random mixed-variance instances
# ---------------------------------------------------------------------------

# variance shape -> its Variance, built and validated on first use and
# never dropped: ("grid", rows, cols) or ("klein",).  Every functor over a
# shape shares one index category and one law plan.
_variance_shapes = {}


def grid_variance(rows, cols):
    """Product of a covariant chain and a contravariant chain: morphisms
    moving in the first coordinate are covariant, in the second
    contravariant.  A genuinely mixed variance on a thin index; built once
    per (rows, cols)."""
    key = ("grid", rows, cols)
    if key not in _variance_shapes:
        A = chain_poset(rows)
        B = chain_poset(cols)
        I = product_category(A, B, name=f"grid{rows}x{cols}")
        cov = []
        contr = []
        for m in I.morphisms():
            left, right = m.split("*")
            a0, a1 = left.split("<")
            b0, b1 = right.split("<")
            if b0 == b1:
                cov.append(m)
            if a0 == a1:
                contr.append(m)
        v = validate_variance(I, cov, contr)
        assert isinstance(v, Variance)
        _variance_shapes[key] = v
    return _variance_shapes[key]


def klein_variance():
    """The Klein four-group as a one-object groupoid with its two
    two-element subgroups as the covariant and contravariant classes;
    built once."""
    key = ("klein",)
    if key not in _variance_shapes:
        I = group_category(klein_four_group(), name="BV4")
        # elements: g0 = e, g1 = a, g2 = b, g3 = ab (product encoding)
        v = validate_variance(I, ["g0", "g2"], ["g0", "g1"])
        assert isinstance(v, Variance)
        _variance_shapes[key] = v
    return _variance_shapes[key]


# target groups of the seeded Klein functors, in the order they are drawn
_KLEIN_TARGETS = {"Z2": lambda: cyclic_group(2), "V4": klein_four_group,
                  "Z4": lambda: cyclic_group(4),
                  "S3": lambda: symmetric_group(3, "S3")}

# target group name -> its one-object category, built on first use and
# never dropped
_klein_target_categories = {}


def _random_klein_functor(rng):
    v = klein_variance()
    key = rng.choice(list(_KLEIN_TARGETS))
    if key not in _klein_target_categories:
        _klein_target_categories[key] = group_category(_KLEIN_TARGETS[key]())
    G = _klein_target_categories[key]
    ident = G.identity("*")
    invol = [g for g in G.morphisms() if G.compose(g, g) == ident]
    x = rng.choice(invol)
    y = rng.choice([g for g in invol
                    if G.compose(g, x) == G.compose(x, g)])
    mor_map = {}
    for k in v.category.morphisms():
        c1, _ = v.factor_cov_contr(k)        # covariant part: e or g2
        d1, _ = v.factor_contr_cov(k)        # contravariant part: e or g1
        gx = x if c1 == "g2" else ident
        hy = y if d1 == "g1" else ident
        mor_map[k] = G.compose(gx, hy)
    return MixedFunctor(v, G, {"*": "*"}, mor_map)


def _random_grid_functor(rng):
    v = grid_variance(rng.randint(1, 2), rng.randint(1, 2))
    D = random_category(rng.randrange(10 ** 6), (4, 30))
    obj_map = {o: rng.choice(sorted(D.objects()))
               for o in sorted(v.category.objects())}
    mor_map = {}
    for k in v.category.morphisms():
        ks, kt = v.source_stage(k), v.target_stage(k)
        cands = sorted(D.hom(obj_map[ks], obj_map[kt]))
        if not cands:
            return None
        mor_map[k] = rng.choice(cands)
    return MixedFunctor(v, D, obj_map, mor_map)


def random_mixed_functor(seed):
    """A seeded valid mixed functor, rejection-sampled and validated.

    Thin grid variances map into random preorders (where any object map
    with the required homs is functorial); the Klein variance maps into a
    small one-object groupoid via a commuting pair of involutions.
    """
    rng = random.Random(seed)
    for _ in range(400):
        if rng.random() < 0.25:
            F = _random_klein_functor(rng)
        else:
            F = _random_grid_functor(rng)
        if F is not None and validate_mixed_functor(F) is None:
            return F
    raise AssertionError(f"no valid mixed functor found for seed {seed}")


# ---------------------------------------------------------------------------
# the standard corpus
# ---------------------------------------------------------------------------

class CorpusEntry:
    def __init__(self, name, category, classes, extra=None):
        self.name = name
        self.category = category
        self.classes = classes
        self.extra = extra


class Corpus:
    def __init__(self, entries):
        self.entries = entries

    def __getitem__(self, name):
        return self.entries[name]

    def names(self):
        return sorted(self.entries)

    def categories(self):
        return [self.entries[n].category for n in self.names()]

    def manifest(self):
        out = {}
        for n in self.names():
            e = self.entries[n]
            size = len(e.category.morphisms()) \
                if isinstance(e.category, FinCategory) else \
                f"ambient cap {e.category.size_cap}"
            out[n] = {"category": e.category.name,
                      "classes": sorted(e.classes),
                      "morphisms": size}
        return out


def _default_classes(C):
    return {n: builtin_class(C, n)
            for n in ("all", "identities", "isos", "monos", "epis",
                      "sections", "retractions")}


# Fixture builders return (category, extra classes, extra); the default
# classes are added when the entry is made.

def _plain(build, *args, **kwargs):
    return build(*args, **kwargs), {}, None


def _set_skeleton_fixture(size):
    sk = set_skeleton(size, name=f"set{size}")
    return sk.category, {"injections": sk.injections(),
                         "surjections": sk.surjections()}, sk


def _group_fixture(A):
    return group_category(A), {}, A


def _subgroup_fixture(order, name):
    A = cyclic_group(order)
    return subgroup_lattice_poset(A, name=name), {}, A


def _finite_top_fixture(max_points):
    top = finite_top_category(max_points)
    return top.category, {
        "injections": explicit_class(top.category, "injections",
                                     [m for m in top.maps
                                      if top.is_injective(m)]),
        "surjections": explicit_class(top.category, "surjections",
                                      [m for m in top.maps
                                       if top.is_surjective(m)]),
        "embeddings": top.extremal_monos()}, top


def _ambient_fixture(theory, cap, roster):
    C = algkit.build_finalg_category(getattr(algkit, theory)(), cap,
                                     roster(cap))
    return C, {n: builtin_class(C, n)
               for n in ("all", "isos", "injections", "surjections",
                         "sections", "retractions", "monos", "epis")}, None


def _roster_free_builders(max_top_points):
    """Name -> zero-argument builder for the fixtures that every cap
    lists: the posets, the set skeletons and the finite spaces.  Listing
    them builds no group."""
    return {
        "poset_2chain": partial(_plain, chain_poset, 1, name="poset_2chain"),
        "poset_3chain": partial(_plain, chain_poset, 2, name="poset_3chain"),
        "poset_4chain": partial(_plain, chain_poset, 3, name="poset_4chain"),
        "diamond": partial(_plain, diamond_lattice),
        "set_skeleton_2": partial(_set_skeleton_fixture, 2),
        "set_skeleton_3": partial(_set_skeleton_fixture, 3),
        "finite_top": partial(_finite_top_fixture, max_top_points),
    }


def _fixture_builders(max_top_points, group_cap, monoid_cap):
    """Name -> zero-argument builder for every fixture at these caps.

    Builds nothing; the group roster is listed because ``group_cap``
    decides which ``group_cat_*`` fixtures exist.
    """
    builders = _roster_free_builders(max_top_points)
    for A in groups_upto(group_cap):
        if A.size in (2, 4, 8):
            builders[f"group_cat_{A.name}"] = partial(_group_fixture, A)
    builders.update({
        "sub_Z8": partial(_subgroup_fixture, 8, "sub_Z8"),
        "sub_Z4": partial(_subgroup_fixture, 4, "sub_Z4"),
    })
    caps = {"group_theory": group_cap, "monoid_theory": monoid_cap}
    builders.update({name: partial(_ambient_fixture, th, caps[th], roster)
                     for name, (th, roster) in AMBIENT_FIXTURES.items()})
    return builders


# The algebra-ambient fixtures, name -> (theory, roster): no table to
# export.  The theory is named by its ``algkit`` builder.
AMBIENT_FIXTURES = {"groups_ambient": ("group_theory", groups_upto),
                    "abelian_ambient": ("group_theory", abelian_groups_upto),
                    "monoids_ambient": ("monoid_theory", monoids_upto)}


# (name, max_top_points, group_cap, monoid_cap) -> CorpusEntry
_corpus_cache = {}


def _cached_entry(name, caps, build):
    key = (name,) + caps
    if key not in _corpus_cache:
        category, classes, extra = build()
        cls = _default_classes(category)
        cls.update(classes)
        _corpus_cache[key] = CorpusEntry(name, category, cls, extra)
    return _corpus_cache[key]


def corpus_names(max_top_points=3, group_cap=8, monoid_cap=4):
    """Sorted names of the standard fixtures at these caps."""
    return sorted(_fixture_builders(max_top_points, group_cap, monoid_cap))


def corpus_entry(name, max_top_points=3, group_cap=8, monoid_cap=4):
    """One standard fixture, built on first use for these caps.

    Raises KeyError for a name not in ``corpus_names`` at the same caps.
    A cached entry is returned without listing the builders, and a
    poset, set skeleton or finite-space fixture without listing the
    group roster.
    """
    caps = (max_top_points, group_cap, monoid_cap)
    entry = _corpus_cache.get((name,) + caps)
    if entry is None:
        builders = _roster_free_builders(max_top_points)
        if name not in builders:
            builders = _fixture_builders(*caps)
        entry = _cached_entry(name, caps, builders[name])
    return entry


def standard_corpus(max_top_points=3, group_cap=8, monoid_cap=4):
    """The fixed fixture set used across the test and acceptance suites:
    every fixture at these caps, built through the same per-fixture cache
    as ``corpus_entry``."""
    caps = (max_top_points, group_cap, monoid_cap)
    return Corpus({name: _cached_entry(name, caps, build)
                   for name, build in _fixture_builders(*caps).items()})
