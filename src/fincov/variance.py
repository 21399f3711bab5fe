"""Two-sided strict factorization systems (variances), mixed-variance
functors and their natural transformations, the split/assemble
correspondence, and the pullback- and image-induced functor constructions.

A functor of variance acts covariantly on the first class and
contravariantly on the second; every index morphism k is sent to
F(k): F(source_stage k) -> F(target_stage k) and the composition law is the
two-path hexagon through the stage objects.  Mixed functors store their
full morphism map; index categories are tiny and explicitness keeps the
hexagon check direct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fincat import SliceCategory, try_pullback


class MissingPullback(Exception):
    def __init__(self, index_object):
        super().__init__(f"no pullback available at index object {index_object}")
        self.index_object = index_object


@dataclass
class VarianceFailure:
    reason: str
    witness: tuple

    def __bool__(self):
        return False

    def to_json(self):
        return {"reason": self.reason, "witness": [str(w) for w in self.witness]}


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
    member = np.fromiter((m in members for m in ms), dtype=bool,
                         count=len(ms))
    hit = kernels.first_class_composites(C.composite_blocks(), member,
                                         ("system",))["system"]
    if hit is not None:
        return ("not composition closed", ms[hit[0]], ms[hit[1]])
    return None


def _unique_factorizations(C, first, second):
    """f -> (a, b) with f = b.a, a in `first`, b in `second`; None when some
    morphism has zero or several factorizations (with witness)."""
    table = {}
    for f in C.morphisms():
        found = []
        for a in sorted(first, key=str):
            if C.src(a) != C.src(f):
                continue
            for b in sorted(second, key=str):
                if C.src(b) == C.tgt(a) and C.tgt(b) == C.tgt(f) \
                        and C.compose(b, a) == f:
                    found.append((a, b))
        if len(found) != 1:
            return None, (f, len(found))
        table[f] = found[0]
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


@dataclass
class MixedFunctor:
    """Functor of a variance into a target category.

    obj_map sends index objects to target objects; mor_map sends every index
    morphism k to a target morphism obj(source_stage k) -> obj(target_stage k).
    """

    variance: Variance
    target: object
    obj_map: dict
    mor_map: dict
    name: str = "F"

    def on_obj(self, i):
        return self.obj_map[i]

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


def validate_mixed_functor(F):
    """None when F is a functor of its variance; else (law, witness).

    Checks totality, stage endpoints, identity preservation and the
    two-path composition hexagon for every composable pair.
    """
    V = F.variance
    I = V.category
    D = F.target
    for i in I.objects():
        if i not in F.obj_map:
            return ("totality", (i,))
    for k in I.morphisms():
        fk = F.mor_map.get(k)
        if fk is None:
            return ("totality", (k,))
        if D.src(fk) != F.obj_map[V.source_stage(k)] or \
           D.tgt(fk) != F.obj_map[V.target_stage(k)]:
            return ("stage endpoints", (k,))
    for i in I.objects():
        if F.mor_map[I.identity(i)] != D.identity(F.obj_map[i]):
            return ("identities", (i,))
    for g in I.morphisms():
        for f in I.morphisms_into(I.src(g)):
            gf = I.compose(g, f)
            f_lo_contr, f_lo_cov = V.factor_contr_cov(f)
            g_lo_contr, _ = V.factor_contr_cov(g)
            u = I.compose(g_lo_contr, f_lo_cov)
            u_contr, u_cov = V.factor_contr_cov(u)
            f_up_cov, f_up_contr = V.factor_cov_contr(f)
            g_up_cov, _ = V.factor_cov_contr(g)
            v = I.compose(g_up_cov, f_up_contr)
            v_cov, v_contr = V.factor_cov_contr(v)
            if I.tgt(u_contr) != V.source_stage(gf) or \
               I.tgt(v_cov) != V.target_stage(gf):
                return ("stage coherence", (g, f))
            path1 = D.compose(F.mor_map[v_cov],
                              D.compose(F.mor_map[f], F.mor_map[u_contr]))
            path2 = D.compose(F.mor_map[v_contr],
                              D.compose(F.mor_map[g], F.mor_map[u_cov]))
            if path1 != F.mor_map[gf] or path2 != F.mor_map[gf]:
                return ("hexagon", (g, f))
    return None


@dataclass
class MixedNatTrans:
    """Object-indexed components between two functors of the same variance."""

    source: MixedFunctor
    target: MixedFunctor
    components: dict

    def validate(self):
        V = self.source.variance
        D = self.source.target
        for i in V.category.objects():
            if i not in self.components:
                return ("totality", (i,))
        for f in V.category.morphisms():
            ks, kt = V.source_stage(f), V.target_stage(f)
            lhs = D.compose(self.target.mor_map[f], self.components[ks])
            rhs = D.compose(self.components[kt], self.source.mor_map[f])
            if lhs != rhs:
                return ("naturality", (f,))
        return None

    def to_json(self):
        return {str(i): str(c) for i, c in self.components.items()}


@dataclass
class SplitPair:
    """Covariant restriction to Cov and contravariant restriction to Contr."""

    variance: Variance
    target: object
    obj_map: dict
    cov_map: dict
    contr_map: dict


def split_mixed_functor(F):
    V = F.variance
    cov_map = {k: F.mor_map[k] for k in F.mor_map if k in V.cov}
    contr_map = {k: F.mor_map[k] for k in F.mor_map if k in V.contr}
    return SplitPair(V, F.target, dict(F.obj_map), cov_map, contr_map)


@dataclass
class AssembleFailure:
    reason: str
    witness: tuple

    def __bool__(self):
        return False


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
    slice_y = SliceCategory(C, y)
    obj_map = {i: C.compose(f, F.obj_map[i]) for i in F.obj_map}
    mor_map = {}
    for k, tri in F.mor_map.items():
        V = F.variance
        ks, kt = V.source_stage(k), V.target_stage(k)
        mor_map[k] = (tri[0], obj_map[ks], obj_map[kt])
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
    slice_x = SliceCategory(C, x)
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
    for k in I.morphisms():
        ks, kt = V.source_stage(k), V.target_stage(k)
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


def image_induced(C, FS, f, F):
    """Push a covering of src(f) forward along f through (E, M)-images.

    For each index object the composite f.F(i) factors as G(i).eta_i with
    eta_i in E and G(i) in M; connecting morphisms are the unique lifts.
    Returns (G, eta: pushforward(F) => G).
    """
    V = F.variance
    I = V.category
    y = C.tgt(f)
    slice_y = SliceCategory(C, y)
    obj_map = {}
    comp_base = {}
    for i in I.objects():
        e_i, m_i = FS.factorize(C.compose(f, F.obj_map[i]))
        obj_map[i] = m_i
        comp_base[i] = e_i
    mor_map = {}
    for k in I.morphisms():
        ks, kt = V.source_stage(k), V.target_stage(k)
        fk = F.mor_map[k][0]
        u = C.compose(comp_base[kt], fk)
        lifts = [h for h in C.hom(C.src(obj_map[ks]), C.src(obj_map[kt]))
                 if C.compose(h, comp_base[ks]) == u
                 and C.compose(obj_map[kt], h) == obj_map[ks]]
        assert len(lifts) == 1, \
            f"orthogonality should force a unique connecting lift at {k}"
        mor_map[k] = (lifts[0], obj_map[ks], obj_map[kt])
    G = MixedFunctor(V, slice_y, obj_map, mor_map, name=f"{f}!{F.name}")
    err = validate_mixed_functor(G)
    assert err is None, f"image-induced functor fails {err}"
    push = pushforward_functor(C, f, F)
    components = {i: (comp_base[i], push.obj_map[i], obj_map[i])
                  for i in I.objects()}
    eta = MixedNatTrans(push, G, components)
    err = eta.validate()
    assert err is None, f"image-induced transformation fails {err}"
    return G, eta
