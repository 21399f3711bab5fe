"""Explicit finite categories: validation, limits and morphism classification.

A ``FinCategory`` takes objects, morphisms, identities and the full
composition table over string ids, and keeps the composition only as a
dense morphism-index table of Python rows, one ``array.array`` per
morphism, beside index lists of ends and one index tuple per hom set.
Queries, pullbacks, the flag kernels and validation all loop over the
rows; the table has no second copy.  All searches iterate ids in sorted
(lexicographic) order, so every reported witness or canonical choice is
deterministic.  ``CategoryBase`` is the minimal protocol shared with the
lazily-enumerated categories (slices, algebra ambients).
"""

from __future__ import annotations

import json
import weakref
from array import array
from collections import Counter
from collections.abc import Mapping
from functools import cached_property
from itertools import chain

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


def mor_key(m):
    """Sort key of a morphism: string ids sort as themselves, hom-set
    morphisms by their ``key()``."""
    return m if isinstance(m, str) else (m.key() if hasattr(m, "key") else repr(m))


def derived_memo(C, name, owner):
    """Memo table ``name`` of results derived from the whole category C
    for one owner (a morphism class or a coverage), compared by identity.

    C keeps one table of owners in ``C.__dict__``, holding each owner
    weakly with a dict of its memo tables by name, so an entry lasts no
    longer than either.  Categories and owners are assumed not to change
    after construction; a category that grows drops all of its tables
    (``drop_derived_memos``).

    A hit allocates nothing: tables are made only on a miss.
    """
    try:
        return C.__dict__["_derived_memos"][owner][name]
    except KeyError:
        pass
    owners = C.__dict__.get("_derived_memos")
    if owners is None:
        owners = C.__dict__["_derived_memos"] = weakref.WeakKeyDictionary()
    tables = owners.get(owner)
    if tables is None:
        tables = owners[owner] = {}
    memo = tables[name] = {}
    return memo


def drop_derived_memos(C):
    """Forget every ``derived_memo`` table and ``slice_view`` of C.  A
    result being computed while C grows is stored in a dropped table and
    never served."""
    C.__dict__.pop("_derived_memos", None)
    C.__dict__.pop("_slice_views", None)


class Failure:
    """A (reason, witness) record of a failed construction; false in a
    boolean context."""

    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return False

    def to_json(self):
        return {"reason": self.reason, "witness": [str(w) for w in self.witness]}


class ValidationReport:
    """First violated category law, with the least witness."""

    def __init__(self, ok, law="", witness=(), message=""):
        self.ok = ok
        self.law = law
        self.witness = witness
        self.message = message

    def __repr__(self):
        return (f"ValidationReport(ok={self.ok!r}, law={self.law!r}, "
                f"witness={self.witness!r}, message={self.message!r})")

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "law": self.law,
                "witness": list(self.witness), "message": self.message}


class CategoryBase:
    """Protocol shared by explicit categories, slices and algebra ambients.

    Subclasses provide: ``objects``, ``morphisms``, ``src``, ``tgt``,
    ``identity``, ``compose`` and ``hom``, and ``find_pullback`` where
    pullbacks are asked for (explicit categories search the kernel tables,
    algebra ambients build equalizing subalgebras).  Objects and morphisms
    are opaque sortable keys; both enumerations must be deterministically
    ordered.

    ``concrete`` is True for the algebra ambient, whose morphisms are homs
    of finite algebras with injective monos and surjective epis; the
    element-wise shortcuts read it, other categories take generic scans.
    """

    name = "category"
    concrete = False

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

    def find_pullback(self, f, g):
        """Canonical pullback square of the cospan (f, g), or None when
        the cospan has none; deterministic and cached per cospan."""
        raise NotImplementedError

    # -- generic derived operations ------------------------------------------

    def is_identity(self, m):
        return m == self.identity(self.src(m))

    def morphisms_into(self, o):
        return tuple(m for m in self.morphisms() if self.tgt(m) == o)

    def morphisms_from(self, o):
        return tuple(m for m in self.morphisms() if self.src(m) == o)

    def composite_blocks(self):
        """The composite index: blocks (rows, cols, targets, row) that
        cover every composable pair once, with rows and cols ascending
        ``morphisms()`` indices, targets a range of them and
        targets[row(i)[j]] the index of rows[i] . cols[j], each row
        computed when it is asked for.

        Generic path: one block per object b, composing every pair out of
        and into b.  Explicit categories and algebra ambients read the
        index from their own tables.
        """
        pos = {m: i for i, m in enumerate(self.morphisms())}
        for b in self.objects():
            gs, fs = self.morphisms_from(b), self.morphisms_into(b)
            yield ([pos[g] for g in gs], [pos[f] for f in fs], range(len(pos)),
                   lambda i, gs=gs, fs=fs: [pos[self.compose(gs[i], f)]
                                            for f in fs])

    # (right, left), per ``morphisms()`` index i of m: the least index of
    # m . a over the automorphisms a of src m, and of a . m over those of
    # tgt m; None when all are identities (or, generically, not looked for)
    orbit_reps = None

    def first_class_composites(self, member, flags):
        """``kernels.first_class_composites`` over ``composite_blocks``,
        with ``member`` a flag per morphism in ``morphisms()`` order, one
        row per right orbit when ``member`` is constant on the orbits."""
        return kernels.first_class_composites(
            self.composite_blocks(), member, flags, self.orbit_reps)

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


class PullbackSquare:
    """A verified pullback: f.proj1 = g.proj2, terminal among all cones.

    ``mediator(p, q)`` is the unique mediating morphism into the apex of
    a competing cone (p, q); ``mediators`` holds them by cone.  A square
    found by the kernel search keeps the kernel's index lists
    (``cones``: cone legs and mediators) and builds the dict on the first
    ``mediator`` call.  A square with an iso projection keeps no mediator
    list (``None``): the mediator of (p, q) is then that projection's
    inverse after p or q.
    """

    def __init__(self, category, f, g, apex, proj1, proj2, mediators=None,
                 cones=None):
        self.category = category
        self.f = f
        self.g = g
        self.apex = apex
        self.proj1 = proj1  # apex -> src(f)
        self.proj2 = proj2  # apex -> src(g)
        self.mediators = {} if mediators is None else mediators
        self.cones = cones

    def mediator(self, p, q):
        if self.cones is not None:
            C = self.category
            ms = C.morphisms()
            cp, cq, med = self.cones
            cones = list(zip(cp, cq))
            if med is not None:
                hs = [ms[h] for h in med]
            else:
                side = 0 if C.is_iso(self.proj1) else 1
                inv = C.iso_inverse((self.proj1, self.proj2)[side])
                hs = [C.compose(inv, ms[cone[side]]) for cone in cones]
            self.mediators = {(ms[a], ms[b]): h
                              for (a, b), h in zip(cones, hs)}
            self.cones = None
        return self.mediators[(p, q)]


class MorphismReport:
    """Exhaustively decided flags for one morphism.

    ``regular_epi`` is None ("unknown") when the kernel pair does not exist
    in the category or would leave an ambient's size cap.
    """

    def __init__(self, morphism, iso, mono, epi, section, retraction,
                 regular_epi):
        self.morphism = morphism
        self.iso = iso
        self.mono = mono
        self.epi = epi
        self.section = section
        self.retraction = retraction
        self.regular_epi = regular_epi

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
        self._oidx = oidx = {o: i for i, o in enumerate(self._objects)}
        self._midx = midx = {m: i for i, m in enumerate(self._morphisms)}
        n, no = len(self._morphisms), len(self._objects)
        self._src = [oidx[self._mor_map[m][0]] for m in self._morphisms]
        self._tgt = [oidx[self._mor_map[m][1]] for m in self._morphisms]
        # the rows are the only copy of the composition kept, in the
        # narrowest typecode that holds -1..n-1: a dict of id pairs costs
        # about as much again on large tables
        row = array(kernels.table_typecode(n), [-1]) * n
        comp = self._comp = [row[:] for _ in range(n)]
        for (g, f), gf in composition.items():
            comp[midx[g]][midx[f]] = midx[gf]
        # ascending morphism indices per hom set (a, b), at a * no + b, and
        # per object index: those out of and into it
        homs = [[] for _ in range(no * no)]
        self._out_idx, self._into_idx = ([[] for _ in range(no)]
                                         for _ in range(2))
        for i, (a, b) in enumerate(zip(self._src, self._tgt)):
            homs[a * no + b].append(i)
            self._out_idx[a].append(i)
            self._into_idx[b].append(i)
        self._hom_idx = list(map(tuple, homs))
        ms = self._morphisms
        self._from, self._into = (
            {o: tuple(ms[i] for i in idx[k])
             for k, o in enumerate(self._objects)}
            for idx in (self._out_idx, self._into_idx))
        # hom sets by (a, b), built on first use
        self._homs = {}

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
        gf = self._comp[self._midx[g]][self._midx[f]]
        if gf < 0:
            raise CompositionError(f"{g} . {f} undefined")
        return self._morphisms[gf]

    def composition(self):
        """A fresh {(g, f): g.f} dict of every composable pair."""
        ms, into = self._morphisms, self._into_idx
        return {(ms[g], ms[f]): ms[row[f]]
                for g, (row, a) in enumerate(zip(self._comp, self._src))
                for f in into[a] if row[f] >= 0}

    def hom(self, a, b):
        hit = self._homs.get((a, b))
        if hit is None:
            idx = self._hom_idx[self._oidx[a] * len(self._objects)
                                + self._oidx[b]]
            hit = self._homs[a, b] = tuple(self._morphisms[i] for i in idx)
        return hit

    def morphisms_into(self, o):
        return self._into[o]

    def morphisms_from(self, o):
        return self._from[o]

    def composite_blocks(self):
        # computed row by row from the rows, never kept
        targets, comp = range(len(self._comp)), self._comp
        for rows, cols in zip(self._out_idx, self._into_idx):
            pick = kernels.picker(cols)
            yield rows, cols, targets, \
                lambda i, rows=rows, pick=pick: pick(comp[rows[i]])

    @cached_property
    def orbit_reps(self):
        """From the iso rows of each hom(x, x): the a with a . b the
        identity for some b (then b . a is too, End(x) being finite)."""
        comp, n = self._comp, len(self._comp)
        reps = list(range(n)), list(range(n))
        for x, o in enumerate(self._objects):
            endo = self._hom_idx[x * len(self._objects) + x]
            ident = self._midx[self._identities[o]]
            auts = [a for a in endo if a != ident
                    and ident in kernels.picker(endo)(comp[a])]
            if auts:
                out, into = self._out_idx[x], self._into_idx[x]
                kernels.orbit_reps(reps[0], out, [
                    {m: comp[m][a] for m in out} for a in auts])
                kernels.orbit_reps(reps[1], into, [comp[a] for a in auts])
        return None if reps[0] == reps[1] == list(range(n)) else reps

    # -- kernel-backed flags ---------------------------------------------------

    def _kernel_args(self):
        return (self._comp, self._src, self._tgt, self._hom_idx,
                len(self._objects))

    @cached_property
    def _flags(self):
        return kernels.mono_epi_flags(*self._kernel_args())

    def is_mono(self, f):
        return self._flags[0][self._midx[f]]

    def is_epi(self, f):
        return self._flags[1][self._midx[f]]

    def find_pullback(self, f, g):
        key = (f, g)
        if key in self._pullback_cache:
            return self._pullback_cache[key]
        if self.tgt(f) != self.tgt(g):
            raise CompositionError("cospan legs must share a target")
        fi, gi = self._midx[f], self._midx[g]
        comp, src, tgt, homs, no = self._kernel_args()
        cp, cq = kernels.commuting_spans(comp, src, tgt, homs, no, fi, gi)
        ms = self._morphisms
        g_iso = self.is_iso(g)
        if g_iso or self.is_iso(f):
            # along an iso leg, a commuting span is a pullback iff its
            # other leg is an iso, and (id, g^-1 f) or (f^-1 g, id) is one
            legs = cp if g_iso else cq
            i = next(i for i, m in enumerate(legs) if self.is_iso(ms[m]))
            square = PullbackSquare(self, f, g, self._objects[src[cp[i]]],
                                    ms[cp[i]], ms[cq[i]],
                                    cones=(cp, cq, None))
            self._pullback_cache[key] = square
            return square
        # cone counts per test object: a candidate apex w must satisfy
        # |hom(z, w)| == #cones(z) for every z, a cheap necessary filter,
        # decided for every apex object at once
        kappa = [0] * no
        for p in cp:
            kappa[src[p]] += 1
        apex_ok = [all(len(homs[z * no + w]) == k for z, k in enumerate(kappa))
                   for w in range(no)]
        square = None
        for p, q in zip(cp, cq):
            if not apex_ok[src[p]]:
                continue
            ok, med = kernels.span_verify(comp, src, tgt, homs, no, p, q,
                                          cp, cq)
            if ok:
                square = PullbackSquare(self, f, g, self._objects[src[p]],
                                        ms[p], ms[q], cones=(cp, cq, med))
                break
        self._pullback_cache[key] = square
        return square

    def has_all_pullbacks(self):
        """Whether every cospan has a pullback; computed once, cached."""
        return self._all_pullbacks

    @cached_property
    def _all_pullbacks(self):
        return all(self.find_pullback(f, g) is not None
                   for f in self._morphisms
                   for g in self.morphisms_into(self.tgt(f)))

    # -- structural equality (used by the opposite-involution law) ------------

    def __eq__(self, other):
        return (isinstance(other, FinCategory)
                and self._objects == other._objects
                and self._mor_map == other._mor_map
                and self._identities == other._identities
                and self._comp == other._comp)

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
    the schema of a JSON dict (the four fields, every id a string),
    structural references, composability exactness, identity laws,
    associativity; witnesses are lexicographically least.
    """
    if isinstance(raw, dict):
        try:
            objects = list(raw["objects"])
            morphisms = {m["id"]: (m["src"], m["tgt"]) for m in raw["morphisms"]}
            identities = dict(raw["identities"])
            composition = {(g, f): gf for g, f, gf in raw["composition"]}
        except (KeyError, TypeError, ValueError) as exc:
            return ValidationReport(False, "schema", (), f"malformed input: {exc}")
        ids = chain(objects, morphisms, identities, identities.values(),
                    composition.values(),
                    chain.from_iterable(morphisms.values()),
                    chain.from_iterable(composition))
        if not {str}.issuperset(map(type, ids)):
            return ValidationReport(False, "schema", (),
                                    "malformed input: every id must be a string")
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
    comp, src, tgt = cat._comp, cat._src, cat._tgt
    into, out, ms = cat._into_idx, cat._out_idx, cat._morphisms
    v = kernels.first_composability_violation(comp, src, tgt, into)
    if v is not None:
        g, f, code = v
        return ValidationReport(False, "composability", (ms[g], ms[f]),
                                f"composition {code} at ({ms[g]}, {ms[f]})")
    ident = [cat._midx[cat._identities[o]] for o in cat._objects]
    v = kernels.first_identity_violation(comp, src, tgt, ident)
    if v is not None:
        f, side = v
        return ValidationReport(False, "identity", (ms[f],),
                                f"{side} identity law fails at {ms[f]}")
    v = kernels.first_assoc_violation(comp, src, tgt, into, out)
    if v is not None:
        f, g, h = v
        return ValidationReport(False, "associativity", (ms[f], ms[g], ms[h]),
                                f"h.(g.f) != (h.g).f at (f,g,h)=({ms[f]},{ms[g]},{ms[h]})")
    return cat


def category_from_json(text_or_obj, name="C"):
    raw = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    return validate_category(raw, name=name)


def classify_morphism(C, f):
    """Decide all flags for f by enumeration; regular_epi is None when the
    kernel pair does not exist, or when it would leave the ambient size
    cap (``try_pullback``)."""
    iso = C.is_iso(f)
    kp = try_pullback(C, f, f)
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
    # every d out of b with d.p1 = d.p2 is h.e for exactly one h: count
    # the image tuples of the h.e, h in hom(w, c), per target c
    b, w = C.tgt(p1), C.tgt(e)
    at, at1, at2 = (kernels.picker(m.images) for m in (e, p1, p2))
    for c in C.objects():
        he = Counter(at(h.images) for h in C.hom(w, c))
        if any(he[d.images] != 1 and at1(d.images) == at2(d.images)
               for d in C.hom(b, c)):
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


class CatFunctor:
    """Explicit functor: object and morphism maps between category handles."""

    def __init__(self, source, target, obj_map, mor_map, name="F"):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.mor_map = mor_map
        self.name = name

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


class SliceHomSets(dict):
    """(p, q) -> the slice hom set p -> q over legs p and q into one
    anchor: the triangles (h, p, q) with q . h = p, sorted by ``mor_key``
    of h, as a tuple.  Each is made on its first lookup and kept, so a
    hit is a plain dict lookup."""

    def __init__(self, base):
        super().__init__()
        self.base = base

    def __missing__(self, key):
        p, q = key
        B = self.base
        hs = sorted((h for h in B.hom(B.src(p), B.src(q))
                     if B.compose(q, h) == p), key=mor_key)
        out = self[key] = tuple((h, p, q) for h in hs)
        return out


class SliceCategory(CategoryBase):
    """Slice over an anchor object, enumerated lazily from the base.

    Objects are the base morphisms into the anchor; a morphism p -> q is a
    triple (h, p, q) with q . h = p in the base.  ``hom`` reads
    ``hom_sets``, which keeps the slice hom sets it is asked for
    (``SliceHomSets``), so the view shared by ``slice_view`` holds the one
    table of them per category and anchor.
    """

    def __init__(self, base, anchor):
        super().__init__()
        self.base = base
        self.anchor = anchor
        self.name = f"{base.name}/{anchor}"
        self._objects = tuple(sorted(base.morphisms_into(anchor),
                                     key=self._okey))
        self._morphisms_cache = None
        self.hom_sets = SliceHomSets(base)

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
        return self.hom_sets[p, q]

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


def slice_view(C, c):
    """The slice of C over c, built once per category and anchor (and
    again after C grows)."""
    views = C.__dict__.setdefault("_slice_views", {})
    if c not in views:
        views[c] = SliceCategory(C, c)
    return views[c]


def slice_category(C, c):
    """A fresh slice of C over c, with its own table of slice hom sets
    (``slice_view`` keeps the shared one)."""
    return SliceCategory(C, c)


def poset_category(elements, le_pairs, name="poset"):
    """Thin category of a finite partial order.

    ``le_pairs`` generates the order; the reflexive-transitive closure is
    taken and antisymmetry is rejected, naming the least pair (a, b) with
    a < b in id order, a <= b and b <= a.  A thin category's laws hold by
    construction, so the table goes to the trusted constructor.
    """
    elems = sorted(str(x) for x in elements)
    succ = {a: set() for a in elems}
    if len(succ) != len(elems):
        raise ValueError("poset elements are not distinct")
    for a, b in le_pairs:
        a, b = str(a), str(b)
        if a not in succ or b not in succ:
            raise ValueError(f"pair ({a}, {b}) names an unknown element")
        succ[a].add(b)
    up = _up_sets(succ)
    for a in elems:
        cycle = [b for b in up[a] if b > a and a in up[b]]
        if cycle:
            raise ValueError(f"relation is not antisymmetric at "
                             f"({a}, {min(cycle)})")
    down = {b: [] for b in elems}
    for a in elems:
        for b in up[a]:
            down[b].append(a)
    morphisms = {f"{a}<{b}": (a, b) for a in elems for b in up[a]}
    if len(morphisms) != sum(map(len, up.values())):
        raise ValueError("element ids containing '<' give two arrows one id")
    identities = {a: f"{a}<{a}" for a in elems}
    composition = {(f"{b}<{c}", f"{a}<{b}"): f"{a}<{c}"
                   for b in elems for a in down[b] for c in up[b]}
    return FinCategory(elems, morphisms, identities, composition, name=name)


def _up_sets(succ):
    """Reflexive-transitive closure of a successor relation {a: set of b}:
    per a, in succ's order, every b reachable from a, a itself included."""
    up = {}
    for a in succ:
        seen, todo = {a}, [a]
        while todo:
            for c in succ[todo.pop()] - seen:
                seen.add(c)
                todo.append(c)
        up[a] = seen
    return up


def chain_poset(n, name=None):
    """The chain o0 < o1 < ... < on."""
    elems = [f"o{i}" for i in range(n + 1)]
    pairs = [(elems[i], elems[i + 1]) for i in range(n)]
    return poset_category(elems, pairs, name=name or f"chain{n}")


def product_category(C, D, name=None):
    """Explicit product of two explicit categories, ids joined by ``*``.

    Componentwise composition of two lawful tables is lawful, so the table
    goes to the trusted constructor.  Raises ValueError when ids holding
    ``*`` give two component pairs the same product id.
    """
    objects = [f"{a}*{b}" for a in C.objects() for b in D.objects()]
    morphisms = {}
    for m in C.morphisms():
        for n in D.morphisms():
            morphisms[f"{m}*{n}"] = (f"{C.src(m)}*{D.src(n)}",
                                     f"{C.tgt(m)}*{D.tgt(n)}")
    if len(set(objects)) != len(objects) or \
            len(morphisms) != len(C.morphisms()) * len(D.morphisms()):
        raise ValueError(f"ids of {C.name} and {D.name} holding '*' give "
                         "two component pairs one product id")
    identities = {f"{a}*{b}": f"{C.identity(a)}*{D.identity(b)}"
                  for a in C.objects() for b in D.objects()}
    composition = {}
    comp_d = D.composition()
    for (g1, f1), h1 in C.composition().items():
        for (g2, f2), h2 in comp_d.items():
            composition[(f"{g1}*{g2}", f"{f1}*{f2}")] = f"{h1}*{h2}"
    return FinCategory(objects, morphisms, identities, composition,
                       name=name or f"{C.name}x{D.name}")


def verify_pullback_square(C, square, cap=None):
    """Re-verify the universal property of a returned square against every
    cone (or the first ``cap`` cones); used by tests and reports.  A
    square that does not commute is not a pullback."""
    f, g = square.f, square.g
    if C.compose(f, square.proj1) != C.compose(g, square.proj2):
        return False
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
