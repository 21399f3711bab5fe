"""Explicit finite categories: validation, limits and morphism classification.

A ``FinCategory`` takes objects, morphisms, identities and the full
composition table over string ids, and keeps the composition only as a
dense morphism-index table.  All searches iterate ids in sorted
(lexicographic) order, so every reported witness or canonical choice is
deterministic.  ``CategoryBase`` is the minimal protocol shared with the
lazily-enumerated categories (slices, algebra ambients).
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class CompositionError(Exception):
    """Raised when composing a non-composable pair."""


class CapExceeded(Exception):
    """A required construction left the ambient size cap."""


def try_pullback(C, f, g):
    """find_pullback, treating a cap overflow like a missing pullback.

    Callers flag the skipped cospan as "restricted"; the distinction from a
    genuinely absent pullback is preserved in the exception-free paths only
    through that flag.
    """
    try:
        return C.find_pullback(f, g)
    except CapExceeded:
        return None


def derived_memo(C, name, owner):
    """Memo table ``name`` of results derived from the whole category C
    for one owner (a morphism class or a coverage), compared by identity.

    The tables live in ``C.__dict__`` and hold the owner weakly, so an
    entry lasts no longer than either.  Categories and owners are assumed
    not to change after construction; a category that grows drops all of
    its tables (``drop_derived_memos``).
    """
    tables = C.__dict__.setdefault("_derived_memos", {})
    per_owner = tables.setdefault(name, weakref.WeakKeyDictionary())
    return per_owner.setdefault(owner, {})


def drop_derived_memos(C):
    """Forget every ``derived_memo`` table of C.  A result being computed
    while C grows is stored in a dropped table and never served."""
    C.__dict__.pop("_derived_memos", None)


@dataclass
class ValidationReport:
    """First violated category law, with the least witness."""

    ok: bool
    law: str = ""
    witness: tuple = ()
    message: str = ""

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "law": self.law,
                "witness": list(self.witness), "message": self.message}


class CategoryBase:
    """Protocol shared by explicit categories, slices and algebra ambients.

    Subclasses provide: ``objects``, ``morphisms``, ``src``, ``tgt``,
    ``identity``, ``compose`` and ``hom``.  Objects and morphisms are opaque
    sortable keys; both enumerations must be deterministically ordered.
    """

    name = "category"

    def __init__(self):
        self._iso_cache = {}
        self._pullback_cache = {}

    # -- required primitives -------------------------------------------------

    def objects(self):
        raise NotImplementedError

    def morphisms(self):
        raise NotImplementedError

    def src(self, m):
        raise NotImplementedError

    def tgt(self, m):
        raise NotImplementedError

    def identity(self, o):
        raise NotImplementedError

    def compose(self, g, f):
        """g after f; raises CompositionError when tgt(f) != src(g)."""
        raise NotImplementedError

    def hom(self, a, b):
        raise NotImplementedError

    # -- generic derived operations ------------------------------------------

    def is_identity(self, m):
        return m == self.identity(self.src(m))

    def morphisms_into(self, o):
        return tuple(m for m in self.morphisms() if self.tgt(m) == o)

    def morphisms_from(self, o):
        return tuple(m for m in self.morphisms() if self.src(m) == o)

    def iso_inverse(self, m):
        """Two-sided inverse of m, or None; cached."""
        if m in self._iso_cache:
            return self._iso_cache[m]
        inv = None
        a, b = self.src(m), self.tgt(m)
        for g in self.hom(b, a):
            if self.compose(g, m) == self.identity(a) and \
               self.compose(m, g) == self.identity(b):
                inv = g
                break
        self._iso_cache[m] = inv
        return inv

    def is_iso(self, m):
        return self.iso_inverse(m) is not None

    def is_mono(self, f):
        a = self.src(f)
        for z in self.objects():
            seen = {}
            for u in self.hom(z, a):
                fu = self.compose(f, u)
                if fu in seen and seen[fu] != u:
                    return False
                seen[fu] = u
        return True

    def is_epi(self, f):
        b = self.tgt(f)
        for z in self.objects():
            seen = {}
            for u in self.hom(b, z):
                uf = self.compose(u, f)
                if uf in seen and seen[uf] != u:
                    return False
                seen[uf] = u
        return True

    def is_section(self, f):
        """f has a left inverse (split mono)."""
        a, b = self.src(f), self.tgt(f)
        ida = self.identity(a)
        return any(self.compose(r, f) == ida for r in self.hom(b, a))

    def is_retraction(self, f):
        """f has a right inverse (split epi)."""
        a, b = self.src(f), self.tgt(f)
        idb = self.identity(b)
        return any(self.compose(f, s) == idb for s in self.hom(b, a))

    def find_pullback(self, f, g):
        """Canonical pullback of the cospan (f, g); None when absent.

        Generic brute-force path: enumerate commuting spans, test each as a
        terminal span.  Explicit categories override this with the kernel
        search.  Results are cached per cospan.
        """
        key = (f, g)
        if key in self._pullback_cache:
            return self._pullback_cache[key]
        if self.tgt(f) != self.tgt(g):
            raise CompositionError("cospan legs must share a target")
        a, b = self.src(f), self.src(g)
        cones = []
        for z in self.objects():
            for p in self.hom(z, a):
                fp = self.compose(f, p)
                for q in self.hom(z, b):
                    if fp == self.compose(g, q):
                        cones.append((p, q))
        square = None
        for p, q in cones:
            ok, mediators = self._verify_span(p, q, cones)
            if ok:
                square = PullbackSquare(self, f, g, self.src(p), p, q, mediators)
                break
        self._pullback_cache[key] = square
        return square

    def _verify_span(self, p, q, cones):
        w = self.src(p)
        mediators = {}
        for cp, cq in cones:
            hits = [h for h in self.hom(self.src(cp), w)
                    if self.compose(p, h) == cp and self.compose(q, h) == cq]
            if len(hits) != 1:
                return False, None
            mediators[(cp, cq)] = hits[0]
        return True, mediators


@dataclass
class PullbackSquare:
    """A verified pullback: f.proj1 = g.proj2, terminal among all cones.

    ``mediators`` maps each competing cone (p, q) to its unique mediating
    morphism into the apex.
    """

    category: CategoryBase
    f: object
    g: object
    apex: object
    proj1: object  # apex -> src(f)
    proj2: object  # apex -> src(g)
    mediators: dict = field(repr=False, default_factory=dict)

    def mediator(self, p, q):
        return self.mediators[(p, q)]

    @property
    def pullback_of_f(self):
        """The pullback of f along g (the projection over src(g))."""
        return self.proj2

    @property
    def pullback_of_g(self):
        return self.proj1


@dataclass
class MorphismReport:
    """Exhaustively decided flags for one morphism.

    ``regular_epi`` is None ("unknown") when the kernel pair does not exist
    in the category.
    """

    morphism: object
    iso: bool
    mono: bool
    epi: bool
    section: bool
    retraction: bool
    regular_epi: bool | None

    def to_json(self):
        return {"morphism": str(self.morphism), "iso": self.iso,
                "mono": self.mono, "epi": self.epi, "section": self.section,
                "retraction": self.retraction,
                "regular_epi": self.regular_epi}


class FinCategory(CategoryBase):
    """Finite category given by explicit tables over string ids."""

    def __init__(self, objects, morphisms, identities, composition, name="C"):
        """Trusted constructor; use validate_category for unchecked data."""
        super().__init__()
        self.name = name
        self._objects = tuple(sorted(objects))
        self._morphisms = tuple(sorted(morphisms))
        self._mor_map = {m: (morphisms[m][0], morphisms[m][1]) for m in morphisms}
        self._identities = dict(identities)
        self._oidx = {o: i for i, o in enumerate(self._objects)}
        self._midx = {m: i for i, m in enumerate(self._morphisms)}
        n, no = len(self._morphisms), len(self._objects)
        self._src = np.array([self._oidx[self._mor_map[m][0]] for m in self._morphisms],
                             dtype=np.int64)
        self._tgt = np.array([self._oidx[self._mor_map[m][1]] for m in self._morphisms],
                             dtype=np.int64)
        self._ident = np.array([self._midx[self._identities[o]] for o in self._objects],
                               dtype=np.int64)
        # the dense table is the only copy of the composition kept: a dict
        # of id pairs costs about as much again on large tables
        comp = np.full((n, n), -1, dtype=kernels.table_dtype(n))
        midx = self._midx
        for (g, f), gf in composition.items():
            comp[midx[g], midx[f]] = midx[gf]
        self._comp = comp
        # CSR hom sets grouped by (src, tgt), morphisms in index (= id) order
        buckets = [[] for _ in range(no * no)]
        for i in range(n):
            buckets[self._src[i] * no + self._tgt[i]].append(i)
        ptr = np.zeros(no * no + 1, dtype=np.int64)
        dat = []
        for k, bucket in enumerate(buckets):
            dat.extend(bucket)
            ptr[k + 1] = len(dat)
        self._hom_ptr = ptr
        self._hom_dat = np.array(dat, dtype=np.int64)
        self._homcount = np.zeros((no, no), dtype=np.int64)
        for i in range(n):
            self._homcount[self._src[i], self._tgt[i]] += 1
        self._mono = None
        self._epi = None
        self._has_all_pullbacks = None

    # -- identity-based protocol ---------------------------------------------

    def objects(self):
        return self._objects

    def morphisms(self):
        return self._morphisms

    def src(self, m):
        return self._mor_map[m][0]

    def tgt(self, m):
        return self._mor_map[m][1]

    def identity(self, o):
        return self._identities[o]

    def compose(self, g, f):
        gf = self._comp[self._midx[g], self._midx[f]]
        if gf < 0:
            raise CompositionError(f"{g} . {f} undefined")
        return self._morphisms[gf]

    def composition(self):
        """A fresh {(g, f): g.f} dict of every composable pair."""
        ms = self._morphisms
        gs, fs = np.nonzero(self._comp >= 0)
        return {(ms[g], ms[f]): ms[gf] for g, f, gf in
                zip(gs.tolist(), fs.tolist(), self._comp[gs, fs].tolist())}

    def hom(self, a, b):
        k = self._oidx[a] * len(self._objects) + self._oidx[b]
        lo, hi = self._hom_ptr[k], self._hom_ptr[k + 1]
        return tuple(self._morphisms[i] for i in self._hom_dat[lo:hi])

    def morphisms_into(self, o):
        oi = self._oidx[o]
        return tuple(self._morphisms[i] for i in np.nonzero(self._tgt == oi)[0])

    def morphisms_from(self, o):
        oi = self._oidx[o]
        return tuple(self._morphisms[i] for i in np.nonzero(self._src == oi)[0])

    # -- kernel-backed flags ---------------------------------------------------

    def _kernel_args(self):
        return (self._comp, self._src, self._tgt, self._hom_ptr,
                self._hom_dat, len(self._objects))

    def _flags(self):
        if self._mono is None:
            self._mono, self._epi = kernels.mono_epi_flags(*self._kernel_args())
        return self._mono, self._epi

    def is_mono(self, f):
        return bool(self._flags()[0][self._midx[f]])

    def is_epi(self, f):
        return bool(self._flags()[1][self._midx[f]])

    def find_pullback(self, f, g):
        key = (f, g)
        if key in self._pullback_cache:
            return self._pullback_cache[key]
        if self.tgt(f) != self.tgt(g):
            raise CompositionError("cospan legs must share a target")
        fi, gi = self._midx[f], self._midx[g]
        comp, src, tgt, hp, hd, no = self._kernel_args()
        cp, cq = kernels.commuting_spans(comp, src, tgt, hp, hd, no, fi, gi)
        # cone counts per test object: a candidate apex w must satisfy
        # |hom(z, w)| == #cones(z) for every z, a cheap necessary filter
        kappa = np.zeros(no, dtype=np.int64)
        for z in src[cp]:
            kappa[z] += 1
        square = None
        for i in range(len(cp)):
            w = src[cp[i]]
            if not np.array_equal(self._homcount[:, w], kappa):
                continue
            ok, med = kernels.span_verify(comp, src, tgt, hp, hd, no,
                                          int(cp[i]), int(cq[i]), cp, cq)
            if ok:
                ms = self._morphisms
                mediators = {(ms[cp[j]], ms[cq[j]]): ms[med[j]]
                             for j in range(len(cp))}
                square = PullbackSquare(self, f, g, self._objects[w],
                                        ms[cp[i]], ms[cq[i]], mediators)
                break
        self._pullback_cache[key] = square
        return square

    def has_all_pullbacks(self):
        """Whether every cospan has a pullback; computed once, cached."""
        if self._has_all_pullbacks is None:
            res = True
            for f in self._morphisms:
                for g in self.morphisms_into(self.tgt(f)):
                    if self.find_pullback(f, g) is None:
                        res = False
                        break
                if not res:
                    break
            self._has_all_pullbacks = res
        return self._has_all_pullbacks

    # -- structural equality (used by the opposite-involution law) ------------

    def __eq__(self, other):
        return (isinstance(other, FinCategory)
                and self._objects == other._objects
                and self._mor_map == other._mor_map
                and self._identities == other._identities
                and np.array_equal(self._comp, other._comp))

    def __hash__(self):
        return hash((self._objects, self._morphisms))

    def __repr__(self):
        return (f"FinCategory({self.name}: {len(self._objects)} objects, "
                f"{len(self._morphisms)} morphisms)")

    def to_json(self):
        return {
            "objects": list(self._objects),
            "morphisms": [{"id": m, "src": self._mor_map[m][0],
                           "tgt": self._mor_map[m][1]} for m in self._morphisms],
            "identities": {o: self._identities[o] for o in self._objects},
            "composition": sorted([g, f, gf] for (g, f), gf in
                                  self.composition().items()),
        }


def validate_category(raw, name="C"):
    """Build a FinCategory from raw data, or report the first violated law.

    ``raw`` is either the JSON schema dict ({"objects", "morphisms",
    "identities", "composition"}) or a (objects, morphisms, identities,
    composition) tuple with python containers.  The check order is fixed:
    structural references, composability exactness, identity laws,
    associativity; witnesses are lexicographically least.
    """
    if isinstance(raw, dict):
        try:
            objects = list(raw["objects"])
            morphisms = {m["id"]: (m["src"], m["tgt"]) for m in raw["morphisms"]}
            identities = dict(raw["identities"])
            composition = {(g, f): gf for g, f, gf in raw["composition"]}
        except (KeyError, TypeError) as exc:
            return ValidationReport(False, "schema", (), f"malformed input: {exc}")
    else:
        objects, morphisms, identities, composition = raw
        morphisms = dict(morphisms)
        # only read, so a mapping is not copied (large tables hold ~10^5
        # pairs)
        if not isinstance(composition, Mapping):
            composition = dict(composition)

    if len(set(objects)) != len(objects):
        return ValidationReport(False, "structure", (), "duplicate object ids")
    if any(not o for o in objects):
        return ValidationReport(False, "structure", (), "empty object id")
    if any(not m for m in morphisms):
        return ValidationReport(False, "structure", (), "empty morphism id")
    objset = set(objects)
    for m in sorted(morphisms):
        s, t = morphisms[m]
        if s not in objset or t not in objset:
            return ValidationReport(False, "structure", (m,),
                                    f"morphism {m} has dangling endpoint")
    for o in sorted(objects):
        i = identities.get(o)
        if i not in morphisms:
            return ValidationReport(False, "structure", (o,),
                                    f"object {o} lacks an identity morphism")
        if morphisms[i] != (o, o):
            return ValidationReport(False, "structure", (o, i),
                                    f"identity of {o} is not an endomorphism")
    unknown = [pair for pair, gf in composition.items()
               if pair[0] not in morphisms or pair[1] not in morphisms
               or gf not in morphisms]
    if unknown:
        return ValidationReport(False, "structure", min(unknown),
                                "composition entry references unknown id")

    cat = FinCategory(objects, morphisms, identities, composition, name=name)
    args = cat._kernel_args()[:3]

    v = kernels.first_composability_violation(*args)
    if v is not None:
        g, f, code = v
        ms = cat._morphisms
        return ValidationReport(False, "composability", (ms[g], ms[f]),
                                f"composition {code} at ({ms[g]}, {ms[f]})")
    v = kernels.first_identity_violation(*args, cat._ident)
    if v is not None:
        f, side = v
        return ValidationReport(False, "identity", (cat._morphisms[f],),
                                f"{side} identity law fails at {cat._morphisms[f]}")
    v = kernels.first_assoc_violation(cat._comp)
    if v is not None:
        f, g, h = v
        ms = cat._morphisms
        return ValidationReport(False, "associativity", (ms[f], ms[g], ms[h]),
                                f"h.(g.f) != (h.g).f at (f,g,h)=({ms[f]},{ms[g]},{ms[h]})")
    return cat


def category_from_json(text_or_obj, name="C"):
    raw = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    return validate_category(raw, name=name)


def classify_morphism(C, f):
    """Decide all flags for f by enumeration; regular_epi is None when the
    kernel pair does not exist."""
    iso = C.is_iso(f)
    kp = C.find_pullback(f, f)
    if kp is None:
        regular_epi = None
    else:
        regular_epi = _coequalizes_universally(C, kp.proj1, kp.proj2, f)
    return MorphismReport(
        morphism=f, iso=iso, mono=C.is_mono(f), epi=C.is_epi(f),
        section=C.is_section(f), retraction=C.is_retraction(f),
        regular_epi=regular_epi)


def _coequalizes_universally(C, p1, p2, e):
    if isinstance(C, FinCategory):
        ok, _, _ = kernels.coequalizer_verify(
            *C._kernel_args(), C._midx[p1], C._midx[p2], C._midx[e])
        return bool(ok)
    if C.compose(e, p1) != C.compose(e, p2):
        return False
    b, w = C.tgt(p1), C.tgt(e)
    for d in C.morphisms_from(b):
        if C.compose(d, p1) != C.compose(d, p2):
            continue
        hits = [h for h in C.hom(w, C.tgt(d)) if C.compose(h, e) == d]
        if len(hits) != 1:
            return False
    return True


def find_coequalizer(C, f, g):
    """Least coequalizer of the parallel pair (f, g), or None."""
    if C.src(f) != C.src(g) or C.tgt(f) != C.tgt(g):
        raise CompositionError("coequalizer needs a parallel pair")
    for e in C.morphisms_from(C.tgt(f)):
        if C.compose(e, f) == C.compose(e, g) and \
           _coequalizes_universally(C, f, g, e):
            return e, C.tgt(e)
    return None


def opposite_category(C):
    """Same ids with src/tgt swapped and composition transposed."""
    morphisms = {m: (C.tgt(m), C.src(m)) for m in C.morphisms()}
    composition = {(f, g): gf for (g, f), gf in C.composition().items()}
    return FinCategory(C.objects(), morphisms, C._identities, composition,
                       name=f"{C.name}^op")


@dataclass
class CatFunctor:
    """Explicit functor: object and morphism maps between category handles."""

    source: CategoryBase
    target: CategoryBase
    obj_map: dict
    mor_map: dict
    name: str = "F"

    def on_obj(self, o):
        return self.obj_map[o]

    def on_mor(self, m):
        return self.mor_map[m]

    def validate(self):
        """None when functorial; else (law, witness)."""
        S, T = self.source, self.target
        for m in S.morphisms():
            fm = self.mor_map.get(m)
            if fm is None:
                return ("totality", (m,))
            if T.src(fm) != self.obj_map[S.src(m)] or \
               T.tgt(fm) != self.obj_map[S.tgt(m)]:
                return ("endpoints", (m,))
        for o in S.objects():
            if self.mor_map[S.identity(o)] != T.identity(self.obj_map[o]):
                return ("identities", (o,))
        for g in S.morphisms():
            for f in S.morphisms_into(S.src(g)):
                if self.mor_map[S.compose(g, f)] != \
                        T.compose(self.mor_map[g], self.mor_map[f]):
                    return ("composition", (g, f))
        return None


class SliceCategory(CategoryBase):
    """Slice over an anchor object, enumerated lazily from the base.

    Objects are the base morphisms into the anchor; a morphism p -> q is a
    triple (h, p, q) with q . h = p in the base.
    """

    def __init__(self, base, anchor):
        super().__init__()
        self.base = base
        self.anchor = anchor
        self.name = f"{base.name}/{anchor}"
        self._objects = tuple(sorted(base.morphisms_into(anchor),
                                     key=self._okey))
        self._morphisms_cache = None

    @staticmethod
    def _okey(p):
        return p if isinstance(p, str) else repr(p)

    def objects(self):
        return self._objects

    def morphisms(self):
        if self._morphisms_cache is None:
            out = []
            for q in self._objects:
                for h in self.base.morphisms_into(self.base.src(q)):
                    out.append((h, self.base.compose(q, h), q))
            out.sort(key=lambda t: tuple(map(self._okey, t)))
            self._morphisms_cache = tuple(out)
        return self._morphisms_cache

    def src(self, m):
        return m[1]

    def tgt(self, m):
        return m[2]

    def identity(self, p):
        return (self.base.identity(self.base.src(p)), p, p)

    def compose(self, g, f):
        if f[2] != g[1]:
            raise CompositionError("slice triangles not composable")
        return (self.base.compose(g[0], f[0]), f[1], g[2])

    def hom(self, p, q):
        out = [(h, p, q) for h in self.base.hom(self.base.src(p), self.base.src(q))
               if self.base.compose(q, h) == p]
        out.sort(key=lambda t: self._okey(t[0]))
        return tuple(out)

    def is_iso(self, m):
        # a triangle is iso in the slice iff its base leg is iso
        return self.base.is_iso(m[0])

    def iso_inverse(self, m):
        inv = self.base.iso_inverse(m[0])
        if inv is None:
            return None
        return (inv, m[2], m[1])

    def projection_functor(self):
        obj_map = {p: self.base.src(p) for p in self._objects}
        mor_map = {m: m[0] for m in self.morphisms()}
        return CatFunctor(self, self.base, obj_map, mor_map,
                          name=f"proj[{self.name}]")

    def to_fincategory(self):
        """Materialize as an explicit category with encoded string ids."""
        objs = {p: f"{self._okey(p)}" for p in self._objects}
        mors = {}
        comp = {}
        names = {}
        for m in self.morphisms():
            names[m] = f"{self._okey(m[0])}|{objs[m[1]]}>{objs[m[2]]}"
            mors[names[m]] = (objs[m[1]], objs[m[2]])
        identities = {objs[p]: names[self.identity(p)] for p in self._objects}
        for f in self.morphisms():
            for g in self.morphisms():
                if f[2] == g[1]:
                    comp[(names[g], names[f])] = names[self.compose(g, f)]
        return validate_category((list(objs.values()), mors, identities, comp),
                                 name=self.name)


def slice_category(C, c):
    """The slice of C over c, with a validating projection functor."""
    return SliceCategory(C, c)


def product_category(C, D, name=None):
    """Explicit product category with componentwise composition."""
    objects = [f"{a}*{b}" for a in C.objects() for b in D.objects()]
    morphisms = {}
    for m in C.morphisms():
        for n in D.morphisms():
            morphisms[f"{m}*{n}"] = (f"{C.src(m)}*{D.src(n)}",
                                     f"{C.tgt(m)}*{D.tgt(n)}")
    identities = {f"{a}*{b}": f"{C.identity(a)}*{D.identity(b)}"
                  for a in C.objects() for b in D.objects()}
    composition = {}
    comp_d = D.composition()
    for (g1, f1), h1 in C.composition().items():
        for (g2, f2), h2 in comp_d.items():
            composition[(f"{g1}*{g2}", f"{f1}*{f2}")] = f"{h1}*{h2}"
    cat = validate_category((objects, morphisms, identities, composition),
                            name=name or f"{C.name}x{D.name}")
    assert isinstance(cat, FinCategory)
    return cat


def verify_pullback_square(C, square, cap=None):
    """Re-verify the universal property of a returned square against every
    cone (or the first ``cap`` cones); used by tests and reports."""
    f, g = square.f, square.g
    a, b = C.src(f), C.src(g)
    w = square.apex
    n = 0
    for z in C.objects():
        for p in C.hom(z, a):
            fp = C.compose(f, p)
            for q in C.hom(z, b):
                if fp != C.compose(g, q):
                    continue
                hits = [h for h in C.hom(z, w)
                        if C.compose(square.proj1, h) == p
                        and C.compose(square.proj2, h) == q]
                if len(hits) != 1:
                    return False
                n += 1
                if cap is not None and n >= cap:
                    return True
    return True
