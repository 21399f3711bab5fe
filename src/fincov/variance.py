"""Two-sided strict factorization systems (variances), mixed-variance
functors and their natural transformations, the split/assemble
correspondence, and the pullback- and image-induced functor constructions.

A functor of variance acts covariantly on the first class and
contravariantly on the second; every index morphism k is sent to
F(k): F(source_stage k) -> F(target_stage k) and the composition law is the
two-path hexagon through the stage objects.  Mixed functors store their
full morphism map.  A variance compiles its hexagon laws once
(``LawPlan``); validation and the covering enumerator both check them.
"""

from __future__ import annotations

from functools import cached_property

from .fincat import Failure, slice_view, try_pullback


class MissingPullback(Exception):
    def __init__(self, index_object):
        super().__init__(f"no pullback available at index object {index_object}")
        self.index_object = index_object


class VarianceFailure(Failure):
    """A variance that is not a two-sided factorization system."""


class Variance:
    """Wide subcategories (Cov, Contr) with unique two-sided factorizations.

    ``factor_cov_contr(f)`` returns (c, d) with f = d.c, c covariant first;
    ``factor_contr_cov(f)`` returns (d, c) with f = c.d, d contravariant
    first.  The mid objects are the source/target stages of f.
    """

    def __init__(self, category, cov, contr, cov_first, contr_first):
        self.category = category
        self.cov = frozenset(cov)
        self.contr = frozenset(contr)
        self._cov_first = cov_first
        self._contr_first = contr_first

    def factor_cov_contr(self, f):
        return self._cov_first[f]

    def factor_contr_cov(self, f):
        return self._contr_first[f]

    def source_stage(self, f):
        d, _ = self._contr_first[f]
        return self.category.tgt(d)

    def target_stage(self, f):
        c, _ = self._cov_first[f]
        return self.category.tgt(c)

    @cached_property
    def arrows(self):
        """(k, source stage, target stage) for every index morphism k, in
        ``morphisms()`` order; listed on first use."""
        return tuple((k, self.source_stage(k), self.target_stage(k))
                     for k in self.category.morphisms())

    @cached_property
    def moving(self):
        """``arrows`` without the identities, which every functor sends
        to identities."""
        return tuple(a for a in self.arrows
                     if not self.category.is_identity(a[0]))

    @cached_property
    def law_plan(self):
        """The variance's ``LawPlan``, compiled on first use."""
        return LawPlan(self)

    def __eq__(self, other):
        return (isinstance(other, Variance)
                and self.category == other.category
                and self.cov == other.cov and self.contr == other.contr)

    def __hash__(self):
        return hash((self.cov, self.contr))

    def to_json(self):
        return {"cov": sorted(map(str, self.cov)),
                "contr": sorted(map(str, self.contr))}


def _system_failure(C, members):
    """None when members is a wide composition-closed class of C, else
    ("non-wide", o) or ("not composition closed", g, f) with the least
    (g, f) in ``morphisms()`` order."""
    for o in C.objects():
        if C.identity(o) not in members:
            return ("non-wide", o)
    ms = C.morphisms()
    hit = C.first_class_composites([m in members for m in ms],
                                   ("system",))["system"]
    if hit is not None:
        return ("not composition closed", ms[hit[0]], ms[hit[1]])
    return None


def _unique_factorizations(C, first, second):
    """f -> (a, b) with f = b.a, a in `first`, b in `second`, from one pass
    over the composable pairs; None when some morphism has zero or several
    factorizations, with the least such f in ``morphisms()`` order and its
    count (which no scan order changes) as witness."""
    found = {}
    for a in first:
        for b in C.morphisms_from(C.tgt(a)):
            if b in second:
                found.setdefault(C.compose(b, a), []).append((a, b))
    table = {}
    for f in C.morphisms():
        pairs = found.get(f, ())
        if len(pairs) != 1:
            return None, (f, len(pairs))
        table[f] = pairs[0]
    return table, None


def validate_variance(I, cov_members, contr_members):
    """Both (Cov, Contr) and (Contr, Cov) must be strict factorization
    systems; returns a Variance or a VarianceFailure."""
    cov = frozenset(cov_members)
    contr = frozenset(contr_members)
    mors = set(I.morphisms())
    if not cov <= mors or not contr <= mors:
        return VarianceFailure("members",
                               tuple(sorted((cov | contr) - mors, key=str)))
    for label, members in (("cov", cov), ("contr", contr)):
        fail = _system_failure(I, members)
        if fail is not None:
            return VarianceFailure(f"{label} {fail[0]}", fail[1:])
    cov_first, w = _unique_factorizations(I, cov, contr)
    if cov_first is None:
        return VarianceFailure("cov-first factorization", w)
    contr_first, w = _unique_factorizations(I, contr, cov)
    if contr_first is None:
        return VarianceFailure("contr-first factorization", w)
    return Variance(I, cov, contr, cov_first, contr_first)


def variance_from_json(I, obj):
    """Validate a {"cov": [...], "contr": [...]} description over I."""
    return validate_variance(I, obj["cov"], obj["contr"])


def mixed_functor_from_json(variance, target, obj):
    """Object/morphism maps keyed by id; validated before returning."""
    F = MixedFunctor(variance, target,
                     dict(obj["objects"]), dict(obj["morphisms"]))
    err = validate_mixed_functor(F)
    if err is not None:
        raise ValueError(f"mixed functor fails {err}")
    return F


def standard_variances(I):
    """The covariant and contravariant variances of a category."""
    all_m = set(I.morphisms())
    ids = {I.identity(o) for o in I.objects()}
    covariant = validate_variance(I, all_m, ids)
    contravariant = validate_variance(I, ids, all_m)
    assert isinstance(covariant, Variance)
    assert isinstance(contravariant, Variance)
    return covariant, contravariant


# ``MixedFunctor.verdict`` before ``validate_mixed_functor`` decides it
_UNDECIDED = object()


class MixedFunctor:
    """Functor of a variance into a target category.

    obj_map sends index objects to target objects; mor_map sends every index
    morphism k to a target morphism obj(source_stage k) -> obj(target_stage k).
    """

    __slots__ = ("variance", "target", "obj_map", "mor_map", "name",
                 "non_isos", "verdict")

    def __init__(self, variance, target, obj_map, mor_map, name="F"):
        self.variance = variance
        self.target = target
        self.obj_map = obj_map
        self.mor_map = mor_map
        self.name = name
        # the non-identity index arrows sent to non-isomorphisms, decided
        # by ``coverage.stabilization_small``; a functor is not changed
        # once built
        self.non_isos = None
        # ``validate_mixed_functor``'s verdict, kept by it once decided
        self.verdict = _UNDECIDED

    def on_mor(self, k):
        return self.mor_map[k]

    def key(self):
        ok = tuple((str(i), str(self.obj_map[i]))
                   for i in sorted(self.obj_map, key=str))
        mk = tuple((str(k), str(self.mor_map[k]))
                   for k in sorted(self.mor_map, key=str))
        return (ok, mk)

    def __eq__(self, other):
        return (isinstance(other, MixedFunctor)
                and self.variance == other.variance
                and self.obj_map == other.obj_map
                and self.mor_map == other.mor_map)

    def __hash__(self):
        return hash(self.key())

    def to_json(self):
        return {"objects": {str(i): str(v) for i, v in self.obj_map.items()},
                "morphisms": {str(k): str(v) for k, v in self.mor_map.items()}}


class LawPlan:
    """The composition laws of a variance, compiled once
    (``Variance.law_plan``) for ``validate_mixed_functor`` and the
    covering enumerator.

    With f = f_up_contr.f_up_cov = f_lo_cov.f_lo_contr (likewise g),
    u = g_lo_contr.f_lo_cov = u_cov.u_contr and
    v = g_up_cov.f_up_contr = v_contr.v_cov, the hexagon law of a
    composable pair (g, f) says that both paths v_cov.f.u_contr and
    v_contr.g.u_cov equal gf.  ``laws`` holds (gf, path, (g, f)) per path,
    innermost arrow first, in the order of (g, f), the least pair stating
    it.  Identity arrows, which a functor sends to identities, are left
    out of a path (one is kept when all are identities); a path that is
    just gf, or repeats a law, is dropped.  So the first law a functor
    breaks names the least pair it breaks.  ``incoherent`` is the least
    pair whose u_contr or v_cov misses the source or target stage of gf,
    or None; it rejects every functor, so laws come only from the pairs
    before it.

    For the covering walk (``coverage._enumerate_functors``), ``objs``
    and ``non_id`` are the assignment orders, ``ids`` the identities of
    ``objs`` and ``arrows`` the ids, then ``non_id``.  ``levels`` has one
    entry per object, then one per non-identity arrow: (arrow, stage,
    checks).  An object level names the object's identity, has no
    stage and checks the (earlier, own) object positions of every arrow
    whose later stage object it is: their slice hom set must not be
    empty.  An arrow level has the object positions of its stages and
    checks the laws whose last assigned arrow it is.
    """

    def __init__(self, V):
        I = V.category
        self.objs = sorted(I.objects())
        self.ids = [I.identity(o) for o in self.objs]
        self.non_id = [k for k in sorted(I.morphisms())
                       if not I.is_identity(k)]
        self.arrows = self.ids + self.non_id
        opos = {o: p for p, o in enumerate(self.objs)}
        stages = [(opos[V.source_stage(k)], opos[V.target_stage(k)])
                  for k in self.non_id]
        self.levels = [(k, None, []) for k in self.ids] + \
            [(k, st, []) for k, st in zip(self.non_id, stages)]
        for st in stages:
            self.levels[max(st)][2].append(st)
        n = len(self.objs)
        last = {k: j for j, k in enumerate(self.non_id)}
        self.laws = []
        self.incoherent = None
        seen = set()
        for g in I.morphisms():
            for f in I.morphisms_into(I.src(g)):
                gf = I.compose(g, f)
                _, f_lo_cov = V.factor_contr_cov(f)
                g_lo_contr, _ = V.factor_contr_cov(g)
                u_contr, u_cov = V.factor_contr_cov(
                    I.compose(g_lo_contr, f_lo_cov))
                _, f_up_contr = V.factor_cov_contr(f)
                g_up_cov, _ = V.factor_cov_contr(g)
                v_cov, v_contr = V.factor_cov_contr(
                    I.compose(g_up_cov, f_up_contr))
                if I.tgt(u_contr) != V.source_stage(gf) or \
                   I.tgt(v_cov) != V.target_stage(gf):
                    self.incoherent = (g, f)
                    return
                # with coherence, both paths run from the source stage to
                # the target stage of gf
                for path in ((u_contr, f, v_cov), (u_cov, g, v_contr)):
                    path = tuple(k for k in path if k in last) or path[:1]
                    if path == (gf,) or (gf, path) in seen:
                        continue
                    seen.add((gf, path))
                    law = (gf, path, (g, f))
                    self.laws.append(law)
                    self.levels[n + max(last.get(k, -1)
                                        for k in path + (gf,))][2] \
                        .append(law)


def broken_law(compose, image, laws):
    """The first of ``laws`` whose path, composed with ``compose`` on the
    images of its arrows, differs from the image of gf; else None."""
    for law in laws:
        gf, path, _ = law
        leg = image[path[0]]
        for k in path[1:]:
            leg = compose(image[k], leg)
        if leg != image[gf]:
            return law
    return None


def validate_mixed_functor(F):
    """None when F is a functor of its variance; else (law, witness).

    Decided once per functor (``_functor_verdict``) and kept on it
    (``MixedFunctor.verdict``), since a functor is not changed once built.
    """
    if F.verdict is _UNDECIDED:
        F.verdict = _functor_verdict(F)
    return F.verdict


def _functor_verdict(F):
    """``validate_mixed_functor``'s verdict, decided afresh.

    Checks totality, stage endpoints and identity preservation, then the
    variance's composition laws in the order of its ``LawPlan``: a
    ``"hexagon"`` or ``"stage coherence"`` witness is the least composable
    pair (g, f) in (g, f) order that fails.
    """
    V = F.variance
    I = V.category
    D = F.target
    for i in I.objects():
        if i not in F.obj_map:
            return ("totality", (i,))
    for k, ks, kt in V.arrows:
        fk = F.mor_map.get(k)
        if fk is None:
            return ("totality", (k,))
        if D.src(fk) != F.obj_map[ks] or D.tgt(fk) != F.obj_map[kt]:
            return ("stage endpoints", (k,))
    for i in I.objects():
        if F.mor_map[I.identity(i)] != D.identity(F.obj_map[i]):
            return ("identities", (i,))
    plan = V.law_plan
    law = broken_law(D.compose, F.mor_map, plan.laws)
    if law is not None:
        return ("hexagon", law[2])
    if plan.incoherent is not None:
        return ("stage coherence", plan.incoherent)
    return None


class MixedNatTrans:
    """Object-indexed components between two functors of the same variance."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = components

    def validate(self):
        V = self.source.variance
        D = self.source.target
        for i in V.category.objects():
            if i not in self.components:
                return ("totality", (i,))
        for f, ks, kt in V.arrows:
            lhs = D.compose(self.target.mor_map[f], self.components[ks])
            rhs = D.compose(self.components[kt], self.source.mor_map[f])
            if lhs != rhs:
                return ("naturality", (f,))
        return None

    def to_json(self):
        return {str(i): str(c) for i, c in self.components.items()}


class SplitPair:
    """Covariant restriction to Cov and contravariant restriction to Contr."""

    def __init__(self, variance, target, obj_map, cov_map, contr_map):
        self.variance = variance
        self.target = target
        self.obj_map = obj_map
        self.cov_map = cov_map
        self.contr_map = contr_map


def split_mixed_functor(F):
    V = F.variance
    cov_map = {k: F.mor_map[k] for k in F.mor_map if k in V.cov}
    contr_map = {k: F.mor_map[k] for k in F.mor_map if k in V.contr}
    return SplitPair(V, F.target, dict(F.obj_map), cov_map, contr_map)


class AssembleFailure(Failure):
    """A split pair that does not assemble into a mixed functor."""


def assemble_mixed_functor(pair):
    """Rebuild the mixed functor from a (covariant, contravariant) pair.

    The pair must be functorial on each wide subcategory and satisfy the
    exchange square G(cov-part).H(contr-part) = H(contr-part).G(cov-part)
    for every morphism; the witness names the first failure.
    """
    V = pair.variance
    I = V.category
    D = pair.target
    G, H = pair.cov_map, pair.contr_map
    for o in I.objects():
        i = I.identity(o)
        if G.get(i) != D.identity(pair.obj_map[o]) or \
           H.get(i) != D.identity(pair.obj_map[o]):
            return AssembleFailure("identities", (o,))
    for g in sorted(V.cov, key=str):
        for f in sorted(V.cov, key=str):
            if I.tgt(f) == I.src(g):
                if G[I.compose(g, f)] != D.compose(G[g], G[f]):
                    return AssembleFailure("covariant functoriality", (g, f))
    for g in sorted(V.contr, key=str):
        for f in sorted(V.contr, key=str):
            if I.tgt(f) == I.src(g):
                if H[I.compose(g, f)] != D.compose(H[f], H[g]):
                    return AssembleFailure("contravariant functoriality", (g, f))
    mor_map = {}
    for f in I.morphisms():
        f_up_cov, f_up_contr = V.factor_cov_contr(f)
        f_lo_contr, f_lo_cov = V.factor_contr_cov(f)
        left = D.compose(G[f_up_cov], H[f_lo_contr])
        right = D.compose(H[f_up_contr], G[f_lo_cov])
        if left != right:
            return AssembleFailure("exchange square", (f,))
        mor_map[f] = left
    F = MixedFunctor(V, D, dict(pair.obj_map), mor_map)
    err = validate_mixed_functor(F)
    assert err is None, f"assembled functor fails {err}"
    return F


# ---------------------------------------------------------------------------
# pullback- and image-induced functors between slices
# ---------------------------------------------------------------------------

def pushforward_functor(C, f, F):
    """Post-compose a functor into C/src(f) with f, landing in C/tgt(f)."""
    y = C.tgt(f)
    slice_y = slice_view(C, y)
    obj_map = {i: C.compose(f, F.obj_map[i]) for i in F.obj_map}
    mor_map = {k: (F.mor_map[k][0], obj_map[ks], obj_map[kt])
               for k, ks, kt in F.variance.arrows}
    return MixedFunctor(F.variance, slice_y, obj_map, mor_map,
                        name=f"{f}*{F.name}")


def pullback_induced(C, f, G):
    """Pull a covering of tgt(f) back along f.

    Returns (F, eta) where F is the pullback-induced functor into C/src(f)
    and eta: pushforward(F) => G has the pullback projections as components.
    Raises MissingPullback naming the index object when the base category
    lacks a needed pullback.
    """
    V = G.variance
    I = V.category
    x, y = C.src(f), C.tgt(f)
    slice_x = slice_view(C, x)
    squares = {}
    obj_map = {}
    comp_base = {}
    for i in I.objects():
        sq = try_pullback(C, G.obj_map[i], f)
        if sq is None:
            raise MissingPullback(i)
        squares[i] = sq
        obj_map[i] = sq.proj2          # apex -> x, the new slice object
        comp_base[i] = sq.proj1        # apex -> dom G(i), the eta component
    mor_map = {}
    for k, ks, kt in V.arrows:
        gk = G.mor_map[k][0]           # base leg of the slice morphism
        q1 = C.compose(gk, comp_base[ks])
        q2 = obj_map[ks]
        h = squares[kt].mediator(q1, q2)
        mor_map[k] = (h, obj_map[ks], obj_map[kt])
    F = MixedFunctor(V, slice_x, obj_map, mor_map, name=f"{f}^*{G.name}")
    err = validate_mixed_functor(F)
    assert err is None, f"pullback-induced functor fails {err}"
    push = pushforward_functor(C, f, F)
    components = {i: (comp_base[i], push.obj_map[i], G.obj_map[i])
                  for i in I.objects()}
    eta = MixedNatTrans(push, G, components)
    err = eta.validate()
    assert err is None, f"pullback-induced transformation fails {err}"
    return F, eta


class ImageTable:
    """What pushing coverings of src(f) forward along f asks, each
    answered once: one table per question, dropped when it returns.

    * ``compose(g, h)``: each composite of the base category, once;
    * ``image_leg(x)``: for an object leg x of a covering of src(f), the
      ``FS.factorize`` pair (e, m) of its pushforward f.x = m.e, once;
    * ``lift(tri)``: for a slice morphism tri = (h, x, y) of a covering,
      the unique d with d.e_x = e_y.h and m_y.d = m_x, which orthogonality
      of E and M forces; searched once per square (e_x, e_y.h, m_y, m_x),
      among the slice hom set m_x -> m_y over tgt(f) that the category's
      slice view keeps, and looked up once per triple.  d.e_x = e_y.h is naturality of
      eta: pushforward(F) => G at every index arrow over tri, so finding
      the lift asserts it, and no transformation is rebuilt per covering;
    * ``image(F)``: the image functor G, built and validated once per
      distinct (variance, name, object legs, arrow legs).

    The search half of image compatibility uses ``compose`` alone, so FS
    may be None there.  Nothing here outlives the table, so a long-lived
    category keeps no composites.
    """

    def __init__(self, C, f, FS=None):
        self.C, self.f, self.FS = C, f, FS
        self._composites = {}
        self._legs = {}
        self._arrows = {}
        self._lifts = {}
        self._functors = {}

    def compose(self, g, h):
        gh = self._composites.get((g, h))
        if gh is None:
            gh = self._composites[g, h] = self.C.compose(g, h)
        return gh

    def image_leg(self, x):
        em = self._legs.get(x)
        if em is None:
            em = self._legs[x] = self.FS.factorize(self.compose(self.f, x))
        return em

    def lift(self, tri):
        d = self._arrows.get(tri)
        if d is None:
            h, x, y = tri
            e_x, m_x = self.image_leg(x)
            e_y, m_y = self.image_leg(y)
            square = (e_x, self.compose(e_y, h), m_y, m_x)
            d = self._lifts.get(square)
            if d is None:
                d = self._lifts[square] = self._unique_lift(*square)
            self._arrows[tri] = d
        return d

    def _unique_lift(self, e, u, m, v):
        homs = slice_view(self.C, self.C.tgt(self.f)).hom_sets
        lifts = [h for h, _, _ in homs[v, m] if self.compose(h, e) == u]
        assert len(lifts) == 1, \
            f"orthogonality should force a unique lift of {(e, u, m, v)}"
        return lifts[0]

    def image(self, F):
        """(G, es): the image functor G of F into C/tgt(f) and the E-parts
        e_i of its legs in ``objects()`` order of the index, the base
        legs of eta's components."""
        V = F.variance
        objs = V.category.objects()
        legs = [self.image_leg(F.obj_map[i]) for i in objs]
        lifts = tuple(self.lift(F.mor_map[k]) for k, _, _ in V.arrows)
        key = (id(V), F.name, tuple(m for _, m in legs), lifts)
        G = self._functors.get(key)
        if G is None:
            obj_map = {i: m for i, (_, m) in zip(objs, legs)}
            mor_map = {k: (d, obj_map[ks], obj_map[kt])
                       for (k, ks, kt), d in zip(V.arrows, lifts)}
            G = MixedFunctor(V, slice_view(self.C, self.C.tgt(self.f)),
                             obj_map, mor_map, name=f"{self.f}!{F.name}")
            err = validate_mixed_functor(G)
            assert err is None, f"image-induced functor fails {err}"
            self._functors[key] = G
        return G, tuple(e for e, _ in legs)


def image_induced(C, FS, f, F):
    """Push a covering of src(f) forward along f through (E, M)-images.

    For each index object the composite f.F(i) factors as G(i).eta_i with
    eta_i in E and G(i) in M; connecting morphisms are the unique lifts.
    Returns (G, eta: pushforward(F) => G), from a fresh ``ImageTable``:
    G is validated, and eta is natural because every lift is.
    Image compatibility asks its table directly, one table per question.
    """
    G, es = ImageTable(C, f, FS).image(F)
    push = pushforward_functor(C, f, F)
    components = {i: (e, push.obj_map[i], G.obj_map[i])
                  for i, e in zip(F.variance.category.objects(), es)}
    return G, MixedNatTrans(push, G, components)
