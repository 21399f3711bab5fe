"""Diagram types, coverings and coverages, subordination, image
compatibility and the stabilization-based compactness decision.

Coverings are mixed-variance functors into a slice; a covering stabilizes
at a designated small object i0 when every second leg of a composable pair
out of i0 lands on an isomorphism.  Rule coverages enumerate their
coverings lazily under a hard cap; exceeding the cap yields the verdict
"inconclusive(cap)" rather than a claim.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .fincat import Failure, chain_poset, derived_memo, mor_key, \
    poset_category, slice_view
from .morphclass import builtin_class
from .variance import ImageTable, MissingPullback, MixedFunctor, \
    Variance, broken_law, pullback_induced, standard_variances, \
    validate_mixed_functor, validate_variance


class DiagramTypeFailure(Failure):
    """A diagram type that cannot be built as asked."""


class DiagramType:
    """Index category with designated small objects and a variance.

    ``directed`` records whether every two smalls have a common small
    successor; the relaxed builders may produce non-directed types (for the
    finite truncations of infinite index posets), which theorem harnesses
    treat as a hypothesis failure.
    """

    def __init__(self, I, smalls, variance, name="J", directed=None,
                 shape=None, shape_params=None):
        self.I = I
        self.smalls = frozenset(smalls)
        self.variance = variance
        self.name = name
        self.shape = shape
        self.shape_params = shape_params or {}
        if directed is None:
            directed = _smalls_directed(I, self.smalls) is None
        self.directed = directed

    @cached_property
    def stabilization_plan(self):
        """(i0, arrows) per small i0, in sorted order: the non-identity
        index arrows on a composable pair i0 -> i -> j, which a covering
        must send to isomorphisms to stabilize at i0 (identities go to
        identities)."""
        I = self.I
        return tuple((i0, frozenset(k for l in I.morphisms_from(i0)
                                    for k in I.morphisms_from(I.tgt(l))
                                    if not I.is_identity(k)))
                     for i0 in sorted(self.smalls))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, DiagramType)
                and self.I == other.I and self.smalls == other.smalls
                and self.variance == other.variance)

    def __hash__(self):
        return hash((self.smalls, self.variance))

    def to_json(self):
        out = {"name": self.name, "smalls": sorted(self.smalls),
               "variance": self.variance.to_json(),
               "directed": self.directed}
        if self.shape:
            out["shape"] = self.shape
            out["shape_params"] = self.shape_params
        return out


def _smalls_directed(I, smalls):
    """None when directed, else the least witnessing pair."""
    for x in sorted(smalls):
        for y in sorted(smalls):
            if not any(I.hom(x, z) and I.hom(y, z) for z in sorted(smalls)):
                return (x, y)
    return None


def validate_diagram_type(I, smalls, cov, contr, name="J"):
    """Variance must validate and the smalls must be directed."""
    v = validate_variance(I, cov, contr)
    if not isinstance(v, Variance):
        return DiagramTypeFailure("variance", (v.reason,))
    smalls = frozenset(smalls)
    if not smalls <= set(I.objects()):
        return DiagramTypeFailure("smalls", tuple(sorted(
            smalls - set(I.objects()), key=str)))
    w = _smalls_directed(I, smalls)
    if w is not None:
        return DiagramTypeFailure("non-directed", w)
    return DiagramType(I, smalls, v, name=name, directed=True)


_shape_cache = {}


def _shape(kind, size):
    """(I, covariant, contravariant, types) for the chain 0 < ... < size
    or the powerset poset P(size), built once per shape and shared by
    every diagram type of that shape; ``types`` keeps its diagram types
    by (smalls, direction) or (kappa, direction)."""
    if (kind, size) not in _shape_cache:
        I = chain_poset(size) if kind == "chain" else _powerset_poset(size)
        _shape_cache[kind, size] = (I,) + standard_variances(I) + ({},)
    return _shape_cache[kind, size]


def _directed_variance(cov, contr, direction):
    """The shape's covariant variance for "cov", its contravariant one for
    "contr"; any other direction raises ValueError."""
    if direction == "cov":
        return cov
    if direction == "contr":
        return contr
    raise ValueError(f"direction must be 'cov' or 'contr', got {direction!r}")


def build_chain_type(n, small_prefix, direction="cov"):
    """Finite chain 0 < ... < n with smalls {0..small_prefix}.

    A proper prefix makes stabilization nontrivial (the finite model of an
    unbounded ascending or descending chain); small_prefix = n gives the
    vacuous type where every covering stabilizes at the top.  Built once
    per (n, small_prefix, direction), so its coverings are shared.
    """
    if not 0 <= small_prefix <= n:
        raise ValueError("need 0 <= small_prefix <= n")
    I, cov, contr, types = _shape("chain", n)
    if (small_prefix, direction) not in types:
        v = _directed_variance(cov, contr, direction)
        smalls = frozenset(f"o{i}" for i in range(small_prefix + 1))
        types[small_prefix, direction] = DiagramType(
            I, smalls, v, name=f"chain[{n}]k{small_prefix}{direction}",
            directed=True, shape="chain",
            shape_params={"n": n, "smalls": small_prefix, "dir": direction})
    return types[small_prefix, direction]


def _powerset_poset(k):
    elems = [f"s{_mask_name(mask, k)}" for mask in range(1 << k)]
    pairs = []
    for a in range(1 << k):
        for b in range(1 << k):
            if a != b and a & b == a:
                pairs.append((f"s{_mask_name(a, k)}", f"s{_mask_name(b, k)}"))
    return poset_category(elems, pairs, name=f"P({k})")


def _mask_name(mask, k):
    return "".join(str(i) for i in range(k) if mask & (1 << i)) or "_"


def build_powerset_type(index_set, kappa, direction="cov"):
    """Poset of subsets with smalls of size < kappa; fails when the smalls
    are not directed (two maximal smalls lack a common small join)."""
    if kappa < 0:
        raise ValueError(f"kappa must be at least 0, got {kappa}")
    k = len(tuple(index_set))
    dt = _powerset_type_relaxed(k, kappa, direction)
    if not dt.directed:
        w = _smalls_directed(dt.I, dt.smalls)
        return DiagramTypeFailure("non-directed", w)
    return dt


def _powerset_type_relaxed(k, kappa, direction="cov"):
    I, cov, contr, types = _shape("powerset", k)
    if (kappa, direction) not in types:
        v = _directed_variance(cov, contr, direction)
        smalls = frozenset(f"s{_mask_name(m, k)}" for m in range(1 << k)
                           if bin(m).count("1") < kappa)
        types[kappa, direction] = DiagramType(
            I, smalls, v, name=f"P({k})kappa{kappa}{direction}",
            shape="powerset",
            shape_params={"size": k, "kappa": kappa, "dir": direction})
    return types[kappa, direction]


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

class Covering:
    """A tuple (F: I -> C/c, smalls, variance) with F a valid mixed functor."""

    __slots__ = ("category", "anchor", "diagram_type", "functor", "flags")

    def __init__(self, category, anchor, diagram_type, functor, flags=()):
        self.category = category
        self.anchor = anchor
        self.diagram_type = diagram_type
        self.functor = functor
        self.flags = flags

    def leg(self, i):
        """The underlying morphism into the anchor at index object i."""
        return self.functor.obj_map[i]

    def key(self):
        return (self.diagram_type.name, self.functor.key())

    def __eq__(self, other):
        return (isinstance(other, Covering)
                and self.diagram_type == other.diagram_type
                and self.functor == other.functor)

    def __hash__(self):
        return hash(self.key())

    def to_json(self):
        return {"anchor": str(self.anchor),
                "diagram_type": self.diagram_type.name,
                "functor": self.functor.to_json(),
                "flags": list(self.flags)}


def stabilization_small(cov):
    """Least designated small object at which the covering stabilizes:
    the first small of the type's ``stabilization_plan`` none of whose
    arrows the functor sends to a non-isomorphism.  Which arrows those
    are is decided once per functor (``MixedFunctor.non_isos``), so the
    diagram types that share a covering functor share the answer."""
    F = cov.functor
    if F.non_isos is None:
        C = cov.category
        F.non_isos = tuple(k for k, _, _ in F.variance.moving
                           if not C.is_iso(F.mor_map[k][0]))
    for i0, arrows in cov.diagram_type.stabilization_plan:
        if arrows.isdisjoint(F.non_isos):
            return i0
    return None


def check_subordination(cov, M):
    """Every leg of the covering lies in M; witness index on failure."""
    for i in sorted(cov.diagram_type.I.objects()):
        if not M.contains(cov.leg(i)):
            return False, i
    return True, None


def pullback_covering(C, f, cov):
    """The coverage axiom's pullback of a covering along f; same diagram
    type, anchored at src(f).  Raises MissingPullback when C lacks one."""
    F, eta = pullback_induced(C, f, cov.functor)
    return Covering(C, C.src(f), cov.diagram_type, F, cov.flags), eta


# ---------------------------------------------------------------------------
# coverage specifications
# ---------------------------------------------------------------------------

class RuleCoverage:
    """tau_{J,M}: all M-subordinated coverings of the shapes in J."""

    def __init__(self, J, M, name=None):
        self.J = list(J)
        self.M = M
        self.name = name or f"tau[{','.join(dt.name for dt in self.J)};" \
                            f"{M if isinstance(M, str) else M.name}]"

    def resolve_M(self, C):
        if isinstance(self.M, str):
            return builtin_class(C, self.M)
        return self.M

    def coverings_of(self, C, c, cap=None):
        """Deterministically ordered M-subordinated coverings of c.

        Returns (tuple, capped); enumeration stops once cap coverings have
        been produced.  The result is memoized on C per coverage object,
        object and cap.
        """
        memo = derived_memo(C, "rule_coverings", self)
        if (c, cap) not in memo:
            memo[c, cap] = self._enumerate(C, c, cap)
        return memo[c, cap]

    def _enumerate(self, C, c, cap):
        """The coverings of each type (``_type_coverings``), types in J
        order, stopping once cap coverings are listed."""
        M = self.resolve_M(C)
        out = []
        for dt in self.J:
            # a type adds at least one covering before the cap can stop
            got = _type_coverings(C, c, dt, M, None if cap is None
                                  else max(cap - len(out), 1))
            out += got
            if got and cap is not None and len(out) >= cap:
                return tuple(out), True
        return tuple(out), False

    def contains(self, C, cov):
        if not any(cov.diagram_type == dt for dt in self.J):
            return False
        if validate_mixed_functor(cov.functor) is not None:
            return False
        ok, _ = check_subordination(cov, self.resolve_M(C))
        return ok

    def subordination_class(self, C):
        """The class object every member's legs lie in (``contains``
        checks it); None for a coverage without one."""
        return self.resolve_M(C)

    def to_json(self):
        return {"rule": {"J": [dt.to_json() for dt in self.J],
                         "M": self.M if isinstance(self.M, str)
                         else self.M.name}}


class ExplicitCoverage:
    """Finite per-object covering lists; membership is literal equality."""

    def __init__(self, assignments, name="tau"):
        self.assignments = dict(assignments)
        self.name = name

    def coverings_of(self, C, c, cap=None):
        covs = tuple(self.assignments.get(c, ()))
        if cap is not None and len(covs) > cap:
            return covs[:cap], True
        return covs, False

    def contains(self, C, cov):
        return any(cov == other
                   for other in self.assignments.get(cov.anchor, ()))

    def subordination_class(self, C):
        return None

    def to_json(self):
        return {"explicit": {str(c): [cov.to_json() for cov in covs]
                             for c, covs in sorted(self.assignments.items(),
                                                   key=lambda kv: str(kv[0]))}}


def _type_coverings(C, c, dt, M, limit):
    """The first limit (all when None) coverings of c of type dt with
    M-legs, one per functor of the type's variance, in
    ``_enumerate_functors`` order.

    Both are kept in one table on C for the class object M and made only
    as far as a caller asks: the functors by (variance, c) (``_prefix``),
    which the diagram types of one variance share, since they differ only
    in their smalls and name, and their coverings by (name, type, c),
    which coverage objects and caps share.  Covariant and contravariant
    types on one index poset have different variances and do not share.
    The table goes with the other memos when C grows.
    """
    V = dt.variance
    memo = derived_memo(C, "coverings", M)
    fs = _prefix(memo, (V, c), lambda: _enumerate_functors(C, c, V, M),
                 limit)
    covs = memo.setdefault((dt.name, dt, c), [])
    covs += [Covering(C, c, dt, F) for F in fs[len(covs):]]
    return covs[:len(fs)]


def _prefix(memo, key, make, limit):
    """The first limit (all when None) items of the sequence memo[key],
    started with make() and read only as far as a caller asks.  It is
    kept as [items so far, iterator] until the iterator is spent, then as
    the tuple of all its items."""
    seq = memo.get(key)
    if seq is None:
        seq = memo[key] = [[], make()]
    if isinstance(seq, list):
        done, rest = seq
        if limit is not None and len(done) >= limit:
            return done[:limit]
        done += itertools.islice(rest, None if limit is None
                                 else limit - len(done))
        if limit is not None and len(done) == limit:
            return done
        seq = memo[key] = tuple(done)
    return seq[:limit]


def _enumerate_functors(C, c, V, M):
    """Valid mixed functors I -> C/c of variance V with M-legs, in
    deterministic order: one flat depth-first walk over the levels of the
    variance's ``LawPlan``.

    Object levels take M-legs into c in sorted order, arrow levels the
    triangles of the slice hom set between their stage objects' legs
    (``SliceCategory.hom_sets``, sorted).  A level's checks run as soon
    as it is set: an object level needs a triangle for every arrow whose
    stages are then set, and an arrow level every law it completes, on
    base legs, since both paths of a law run between the same slice
    objects.  Dead prefixes are cut, so the output is the product order
    of the plain generate-and-test loop.  Totality, stage endpoints and
    identities hold by construction; stage coherence is a property of the
    variance.
    """
    plan = V.law_plan
    if plan.incoherent is not None:
        return
    sl = slice_view(C, c)
    homs, compose = sl.hom_sets, C.compose
    legs = [m for m in sorted(C.morphisms_into(c), key=mor_key)
            if M.contains(m)]
    units = {p: sl.identity(p) for p in legs}
    levels, n = plan.levels, len(plan.objs)
    if not levels:
        yield MixedFunctor(V, sl, {}, {})
        return
    # each level's leg or triangle, its image (a unit triangle for an
    # object) and base leg by arrow
    vals = [None] * len(levels)
    images = vals[:]
    its = [iter(legs)] + vals[1:]
    base = {}
    p = 0
    while p >= 0:
        k, stage, checks = levels[p]
        for x in its[p]:
            vals[p] = x
            if stage is None:
                images[p] = units[x]
                base[k] = images[p][0]
                for a, b in checks:
                    if not homs[vals[a], vals[b]]:
                        break
                else:  # every check holds: keep x
                    break
            else:
                images[p] = x
                base[k] = x[0]
                if not checks or broken_law(compose, base, checks) is None:
                    break
        else:
            p -= 1
            continue
        if p + 1 < len(levels):
            p += 1
            stage = levels[p][1]
            its[p] = iter(legs if stage is None
                          else homs[vals[stage[0]], vals[stage[1]]])
        else:
            yield MixedFunctor(V, sl, dict(zip(plan.objs, vals)),
                               dict(zip(plan.arrows, images)))


def enumerate_coverings(C, c, J, M, cap=None):
    """All M-subordinated coverings of c over the diagram types J, as a
    fresh list."""
    covs, capped = RuleCoverage(J, M).coverings_of(C, c, cap=cap)
    return list(covs), capped


# ---------------------------------------------------------------------------
# coverage axiom, image compatibility, compactness
# ---------------------------------------------------------------------------

class CoverageCheckReport:
    def __init__(self, is_coverage, witness=(), reason="", checked=0,
                 capped=False):
        self.is_coverage = is_coverage
        self.witness = witness
        self.reason = reason
        self.checked = checked
        self.capped = capped

    def __bool__(self):
        return bool(self.is_coverage)

    def to_json(self):
        return {"is_coverage": self.is_coverage, "reason": self.reason,
                "witness": [str(w) for w in self.witness],
                "checked": self.checked, "capped": self.capped}


def check_coverage(C, tau, cap=None, morphism_cap=None):
    """Pullback stability: f^*(covering of tgt f) must again belong to tau."""
    checked = 0
    capped = False
    mors = [m for m in sorted(C.morphisms(), key=mor_key)]
    if morphism_cap is not None and len(mors) > morphism_cap:
        mors = mors[:morphism_cap]
        capped = True
    for f in mors:
        covs, hit = tau.coverings_of(C, C.tgt(f), cap=cap)
        capped = capped or hit
        for cov in covs:
            checked += 1
            try:
                pulled, _ = pullback_covering(C, f, cov)
            except MissingPullback as exc:
                return CoverageCheckReport(False, (f, cov.key()),
                                           f"missing pullback at "
                                           f"{exc.index_object}",
                                           checked, capped)
            if not tau.contains(C, pulled):
                return CoverageCheckReport(False, (f, cov.key()),
                                           "pullback covering not in tau",
                                           checked, capped)
    if capped:
        return CoverageCheckReport(None, (), "inconclusive(cap)", checked, True)
    return CoverageCheckReport(True, (), "", checked, False)


class CompatibilityReport:
    def __init__(self, compatible, witness=(), checked=0, capped=False):
        self.compatible = compatible
        self.witness = witness
        self.checked = checked
        self.capped = capped

    def __bool__(self):
        return bool(self.compatible)

    def to_json(self):
        return {"compatible": self.compatible,
                "witness": [str(w) for w in self.witness],
                "checked": self.checked, "capped": self.capped}


def check_image_compatibility(C, f, tau, E, M, FS=None, cap=None):
    """For every covering of src(f), find a subordinated covering of tgt(f)
    receiving an E-component transformation from the pushforward.

    The report is memoized on C per coverage object, f, class objects E
    and M, factorization system object FS and cap, and shared between
    callers.
    """
    memo = derived_memo(C, "image_compatibility", tau)
    key = (f, E, M, FS, cap)
    if key not in memo:
        memo[key] = _image_compatibility(C, f, tau, E, M, FS, cap)
    return memo[key]


def _image_compatibility(C, f, tau, E, M, FS, cap):
    """The report of one question, each piece of it decided once.

    One ``ImageTable`` for the call holds every composite, each object
    leg's pushforward and image factorization, each arrow's lift and each
    image functor, and is dropped when the call returns.  Per image
    functor and diagram type, whether the image covering is subordinated
    and in tau is decided once: the table validates the functor when it
    builds it, and a rule coverage's membership reads the verdict kept on
    the functor; membership covers subordination when M is tau's own
    subordination class, since every member of tau is subordinated to
    it.  The search (``_CompatibleSearch``) reads the same table."""
    c, d = C.src(f), C.tgt(f)
    covs, capped = tau.coverings_of(C, c, cap=cap)
    table = ImageTable(C, f, FS)
    # (id G, id type) -> verdict; G lives in the table and the type in covs
    image_ok = {}
    search = _CompatibleSearch(C, f, tau, E, M, cap, table)
    checked = 0
    for cov in covs:
        checked += 1
        ok = False
        if FS is not None:
            G, es = table.image(cov.functor)
            if all(E.contains(e) for e in es):
                key = (id(G), id(cov.diagram_type))
                if key not in image_ok:
                    gcov = Covering(C, d, cov.diagram_type, G, cov.flags)
                    image_ok[key] = (
                        tau.subordination_class(C) is M
                        or check_subordination(gcov, M)[0]) \
                        and tau.contains(C, gcov)
                ok = image_ok[key]
        if not ok:
            ok = search.compatible(cov)
        if not ok:
            return CompatibilityReport(False, (cov.key(),), checked, capped)
    if capped:
        return CompatibilityReport(None, (), checked, True)
    return CompatibilityReport(True, (), checked, capped)


class _CompatibleSearch:
    """The search half of one image-compatibility question: is there a
    subordinated covering of tgt(f) of the same diagram type that
    receives an E-component transformation from the pushforward?

    The target coverings of tgt(f) are fetched once, and filtered by
    type and subordination (none when M is tau's own subordination
    class) once per diagram type, in coverage order.
    The sorted E-candidates h with q.h = p are the slice hom set p -> q
    over tgt(f) (``SliceCategory.hom_sets``) filtered by E, once per leg
    pair (p, q).  The pushforward legs f.x and every composite come from
    the question's ``ImageTable``.  Candidate combinations are tried in
    product order, each checked arrow by arrow for naturality, so the
    first transformation found does not depend on the caching.
    """

    def __init__(self, C, f, tau, E, M, cap, table):
        self.C, self.f, self.tau, self.E, self.M, self.cap = \
            C, f, tau, E, M, cap
        self.table = table
        self._targets = None
        self._by_type = {}
        self._cands = {}

    def targets(self, dt):
        """The M-subordinated coverings of tgt(f) of type dt, kept by the
        type's id: the question's coverings keep their types alive."""
        got = self._by_type.get(id(dt))
        if got is None:
            if self._targets is None:
                self._targets, _ = self.tau.coverings_of(
                    self.C, self.C.tgt(self.f), cap=self.cap)
            own = self.tau.subordination_class(self.C) is self.M
            got = self._by_type[id(dt)] = [
                g for g in self._targets if g.diagram_type == dt
                and (own or check_subordination(g, self.M)[0])]
        return got

    def candidates(self, p, q):
        """The E-morphisms h with q.h = p, sorted."""
        if (p, q) not in self._cands:
            homs = slice_view(self.C, self.C.tgt(self.f)).hom_sets
            self._cands[p, q] = [h for h, _, _ in homs[p, q]
                                 if self.E.contains(h)]
        return self._cands[p, q]

    def compatible(self, cov):
        F = cov.functor
        objs = sorted(cov.diagram_type.I.objects())
        push = [self.table.compose(self.f, F.obj_map[i]) for i in objs]
        for gcov in self.targets(cov.diagram_type):
            legs = gcov.functor.obj_map
            per_obj = []
            for i, p in zip(objs, push):
                cands = self.candidates(p, legs[i])
                if not cands:
                    break
                per_obj.append(cands)
            else:
                for combo in itertools.product(*per_obj):
                    if self._natural(F, gcov.functor, dict(zip(objs, combo))):
                        return True
        return False

    def _natural(self, F, G, h):
        """h: pushforward(F) => G is natural: G(k).h_ks = h_kt.F(k) on
        base legs at every index arrow k, since the pushforward keeps the
        base legs of F; identities, which both functors send to
        identities, hold at once."""
        compose = self.table.compose
        return all(compose(G.mor_map[k][0], h[ks])
                   == compose(h[kt], F.mor_map[k][0])
                   for k, ks, kt in F.variance.moving)


class CompactnessVerdict:
    """Per-covering stabilization witnesses, or the least failing covering.

    ``stable`` holds (covering, small) for each covering that stabilizes,
    in enumeration order; ``witnesses`` holds (covering key, small) in its
    place, built on first access."""

    def __init__(self, compact, stable=(), failing=None, enumerated=0,
                 capped=False, flags=()):
        self.compact = compact
        self.stable = stable
        self.failing = failing
        self.enumerated = enumerated
        self.capped = capped
        self.flags = flags

    def __bool__(self):
        return bool(self.compact)

    @cached_property
    def witnesses(self):
        return tuple((cov.key(), small) for cov, small in self.stable)

    def to_json(self):
        return {"compact": self.compact,
                "witnesses": [[str(k), str(s)] for k, s in self.witnesses],
                "failing": self.failing.to_json() if self.failing else None,
                "enumerated": self.enumerated, "capped": self.capped,
                "flags": list(self.flags)}


def decide_tau_compact(C, c, tau, cap=None):
    """c is compact iff every covering of c stabilizes at some small.

    Exceeding the enumeration cap without finding a failing covering gives
    compact=None ("inconclusive(cap)").  Empty small sets are permitted:
    any covering of such a type fails immediately (flagged).  The verdict
    is memoized on C per coverage object, object and cap, and shared
    between callers.
    """
    memo = derived_memo(C, "tau_compact", tau)
    if (c, cap) not in memo:
        memo[c, cap] = _decide_tau_compact(C, c, tau, cap)
    return memo[c, cap]


def _decide_tau_compact(C, c, tau, cap):
    covs, capped = tau.coverings_of(C, c, cap=cap)
    # a type's flags once per run of its coverings: a rule coverage lists
    # the coverings of each type together
    flags, dt = set(), None
    for cov in covs:
        if cov.diagram_type is not dt:
            dt = cov.diagram_type
            if not dt.smalls:
                flags.add("empty-smalls")
            if not dt.directed:
                flags.add("non-directed-smalls")
        if cov.flags:
            flags.update(cov.flags)
    flags = tuple(sorted(flags))
    stable = []
    for cov in covs:
        w = stabilization_small(cov)
        if w is None:
            return CompactnessVerdict(False, tuple(stable), cov,
                                      len(covs), capped, flags)
        stable.append((cov, w))
    return CompactnessVerdict(None if capped else True, tuple(stable), None,
                              len(covs), capped, flags)


# ---------------------------------------------------------------------------
# open-cover and closed-family coverages on finite spaces
# ---------------------------------------------------------------------------

class OpenCoverCoverage:
    """Coverings freely induced by open covers, smalls of size < kappa.

    Membership is semantic: powerset shape, every leg an open embedding,
    the leg image at a subset is the union of its singleton images, and the
    full index covers the anchor.  These properties are preserved by
    pullbacks (preimages), so the family is a coverage by construction.

    The enumeration, the induced coverings and membership are written once
    against four hooks: the sets a family draws from (``_members``), how a
    family combines (``_combine``), the leg predicate (``_is_leg``) and
    what a covering family combines to (``_goal``).
    ``ClosedFamilyCoverage`` is the dual that overrides only these.
    """

    direction = "cov"
    label = "open-covers"

    def __init__(self, top, kappa=2):
        self.top = top
        self.kappa = kappa
        self.name = f"{self.label}(kappa={kappa})"
        self._leg_cache = {}
        self._cov_cache = {}

    def _members(self, c):
        """The nonempty opens of c."""
        return [u for u in self.top.opens(c) if u]

    def _combine(self, c, sets):
        """Union, so the empty family combines to the empty set."""
        mask = 0
        for u in sets:
            mask |= u
        return mask

    def _is_leg(self, m):
        return self.top.is_open_embedding(m)

    def _goal(self, c):
        """A cover's union is the whole space."""
        return (1 << self.top.npoints(c)) - 1

    def _covers(self, c):
        """Covering families of c, by (size, masks).  Only the empty space
        is covered by the empty family."""
        usable = self._members(c)
        goal = self._goal(c)
        return [fam for r in range(len(usable) + 1)
                for fam in itertools.combinations(usable, r)
                if self._combine(c, fam) == goal]

    def _leg(self, c, mask):
        """Canonical embedding of the leg kind with the given image."""
        if (c, mask) not in self._leg_cache:
            cat = self.top.category
            for m in sorted(self.top.maps):
                if cat.tgt(m) == c and self.top.image_mask(m) == mask \
                        and self._is_leg(m):
                    self._leg_cache[(c, mask)] = m
                    break
            else:
                raise AssertionError(f"no {self.label} leg onto mask {mask} "
                                     f"of {c}")
        return self._leg_cache[(c, mask)]

    def coverings_of(self, C, c, cap=None):
        if c not in self._cov_cache:
            self._cov_cache[c] = tuple(self._covering_from_family(C, c, fam)
                                       for fam in self._covers(c))
        out = self._cov_cache[c]
        if cap is not None and len(out) > cap:
            return out[:cap], True
        return out, False

    def _covering_from_family(self, C, c, fam):
        """The covering induced by a family.  Embedding legs force unique
        triangles, which makes it a functor of the powerset variance by
        construction."""
        k = len(fam)
        dt = _powerset_type_relaxed(k, self.kappa, self.direction)
        obj_map = {f"s{_mask_name(sub, k)}":
                   self._leg(c, self._combine(c, _subfamily(fam, sub)))
                   for sub in range(1 << k)}
        sl = slice_view(C, c)
        mor_map = {}
        for km, ks, kt in dt.variance.arrows:
            hs = sl.hom_sets[obj_map[ks], obj_map[kt]]
            assert len(hs) == 1, "embedding legs force unique triangles"
            mor_map[km] = hs[0]
        F = MixedFunctor(dt.variance, sl, obj_map, mor_map)
        flags = ("empty-family",) if k == 0 else ()
        return Covering(C, c, dt, F, flags)

    def contains(self, C, cov):
        dt = cov.diagram_type
        if dt.shape != "powerset" \
                or dt.shape_params.get("dir") != self.direction \
                or dt.shape_params.get("kappa") != self.kappa:
            return False
        k = dt.shape_params["size"]
        c = cov.anchor
        imgs = []
        for sub in range(1 << k):
            leg = cov.leg(f"s{_mask_name(sub, k)}")
            if not self._is_leg(leg):
                return False
            imgs.append(self.top.image_mask(leg))
        singles = [imgs[1 << i] for i in range(k)]
        if any(imgs[sub] != self._combine(c, _subfamily(singles, sub))
               for sub in range(1 << k)):
            return False
        return imgs[-1] == self._goal(c)

    def subordination_class(self, C):
        return self.top.extremal_monos()

    def to_json(self):
        return {self.label.replace("-", "_"): {"kappa": self.kappa}}


class ClosedFamilyCoverage(OpenCoverCoverage):
    """Contravariant coverings from closed families with empty total
    intersection; stabilization at a small recovers the finite
    intersection property.  The dual of ``OpenCoverCoverage``."""

    direction = "contr"
    label = "closed-families"

    def _members(self, c):
        """The proper closed sets of c, ascending."""
        full = (1 << self.top.npoints(c)) - 1
        return sorted(full ^ u for u in self.top.opens(c) if u)

    def _combine(self, c, sets):
        """Intersection, so the empty family combines to the whole space."""
        mask = (1 << self.top.npoints(c)) - 1
        for x in sets:
            mask &= x
        return mask

    def _is_leg(self, m):
        return self.top.is_closed_embedding(m)

    def _goal(self, c):
        """A covering family's intersection is empty."""
        return 0


def _subfamily(fam, sub):
    """The members of fam whose index bits are set in sub."""
    return [x for i, x in enumerate(fam) if sub >> i & 1]
