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
from dataclasses import dataclass

from .fincat import SliceCategory, derived_memo
from .instances import chain_poset, poset_category
from .morphclass import builtin_class
from .variance import MissingPullback, MixedFunctor, Variance, \
    pullback_induced, image_induced, standard_variances, validate_mixed_functor


@dataclass
class DiagramTypeFailure:
    reason: str
    witness: tuple

    def __bool__(self):
        return False

    def to_json(self):
        return {"reason": self.reason, "witness": [str(w) for w in self.witness]}


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

    def __eq__(self, other):
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
    from .variance import validate_variance
    v = validate_variance(I, cov, contr)
    if not isinstance(v, Variance):
        return DiagramTypeFailure("variance", (v.reason,))
    smalls = frozenset(smalls)
    if not smalls <= set(I.objects()):
        return DiagramTypeFailure("smalls", tuple(smalls - set(I.objects())))
    w = _smalls_directed(I, smalls)
    if w is not None:
        return DiagramTypeFailure("non-directed", w)
    return DiagramType(I, smalls, v, name=name, directed=True)


_shape_cache = {}


def _shape(kind, size):
    """(I, covariant, contravariant) for the chain 0 < ... < size or the
    powerset poset P(size), built once per shape and shared by every
    diagram type of that shape."""
    if (kind, size) not in _shape_cache:
        I = chain_poset(size) if kind == "chain" else _powerset_poset(size)
        _shape_cache[kind, size] = (I,) + standard_variances(I)
    return _shape_cache[kind, size]


def build_chain_type(n, small_prefix, direction="cov"):
    """Finite chain 0 < ... < n with smalls {0..small_prefix}.

    A proper prefix makes stabilization nontrivial (the finite model of an
    unbounded ascending or descending chain); small_prefix = n gives the
    vacuous type where every covering stabilizes at the top.
    """
    if not 0 <= small_prefix <= n:
        raise ValueError("need 0 <= small_prefix <= n")
    I, cov, contr = _shape("chain", n)
    v = cov if direction == "cov" else contr
    smalls = frozenset(f"o{i}" for i in range(small_prefix + 1))
    dt = DiagramType(I, smalls, v, name=f"chain[{n}]k{small_prefix}{direction}",
                     directed=True, shape="chain",
                     shape_params={"n": n, "smalls": small_prefix,
                                   "dir": direction})
    return dt


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


_powerset_cache = {}


def build_powerset_type(index_set, kappa, direction="cov"):
    """Poset of subsets with smalls of size < kappa; fails when the smalls
    are not directed (two maximal smalls lack a common small join)."""
    k = len(tuple(index_set))
    dt = _powerset_type_relaxed(k, kappa, direction)
    if not dt.directed:
        w = _smalls_directed(dt.I, dt.smalls)
        return DiagramTypeFailure("non-directed", w)
    return dt


def _powerset_type_relaxed(k, kappa, direction="cov"):
    key = (k, kappa, direction)
    if key in _powerset_cache:
        return _powerset_cache[key]
    I, cov, contr = _shape("powerset", k)
    v = cov if direction == "cov" else contr
    smalls = frozenset(f"s{_mask_name(m, k)}" for m in range(1 << k)
                       if bin(m).count("1") < kappa)
    dt = DiagramType(I, smalls, v,
                     name=f"P({k})kappa{kappa}{direction}",
                     shape="powerset",
                     shape_params={"size": k, "kappa": kappa,
                                   "dir": direction})
    _powerset_cache[key] = dt
    return dt


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

@dataclass
class Covering:
    """A tuple (F: I -> C/c, smalls, variance) with F a valid mixed functor."""

    category: object
    anchor: object
    diagram_type: DiagramType
    functor: MixedFunctor
    flags: tuple = ()

    def leg(self, i):
        """The underlying morphism into the anchor at index object i."""
        return self.functor.obj_map[i]

    def connecting(self, k):
        """Base leg of the slice morphism at index morphism k."""
        return self.functor.mor_map[k][0]

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


def stabilizes_at(cov, i0):
    """F(k) iso for every composable pair i0 -> i -> j of the index."""
    I = cov.diagram_type.I
    C = cov.category
    for l in I.morphisms_from(i0):
        i = I.tgt(l)
        for k in I.morphisms_from(i):
            if not C.is_iso(cov.connecting(k)):
                return False
    return True


def stabilization_small(cov):
    """Least designated small object at which the covering stabilizes."""
    for i0 in sorted(cov.diagram_type.smalls):
        if stabilizes_at(cov, i0):
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
        M = self.resolve_M(C)
        out = []
        for dt in self.J:
            for cov in _enumerate_type_coverings(C, c, dt, M):
                out.append(cov)
                if cap is not None and len(out) >= cap:
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


def _slice_cache_for(C):
    if not hasattr(C, "_slice_views"):
        C._slice_views = {}
    return C._slice_views


def slice_view(C, c):
    cache = _slice_cache_for(C)
    if c not in cache:
        cache[c] = SliceCategory(C, c)
    return cache[c]


def _enumerate_type_coverings(C, c, dt, M):
    """Valid M-subordinated mixed functors I -> C/c of the given type, in
    deterministic order, built depth-first.

    Index objects take M-legs into c in sorted order; an index arrow is
    tested for a triangle as soon as both of its stage objects are set.
    The non-identity arrows then take triangles in sorted order, and each
    hexagon law is checked as soon as all of its arrows are set.  Dead
    prefixes are cut, so the output is the product order of the plain
    generate-and-test loop.  Totality, stage endpoints and identities hold
    by construction; stage coherence is a property of the variance.
    """
    plan = _law_plan(dt.variance)
    if not plan.coherent:
        return
    sl = slice_view(C, c)
    legs = [m for m in sorted(C.morphisms_into(c), key=_key)
            if M.contains(m)]
    triangles = {}

    def tri(p, q):
        if (p, q) not in triangles:
            triangles[p, q] = sorted(
                (h for h in C.hom(C.src(p), C.src(q))
                 if C.compose(q, h) == p), key=_key)
        return triangles[p, q]

    obj_map = {}

    def place_object(p, choice):
        obj_map[plan.objs[p]] = legs[choice[p]]
        return all(tri(obj_map[ks], obj_map[kt])
                   for ks, kt in plan.arrows_at[p])

    base = {}
    cands = []

    def place_arrow(j, choice):
        base[plan.non_id[j]] = cands[j][choice[j]]
        return _laws_hold(C, base, plan.laws_at[j])

    for _ in _depth_first([len(legs)] * len(plan.objs), place_object):
        om = dict(obj_map)
        base.clear()
        for k, o in plan.ids:
            base[k] = C.identity(C.src(om[o]))
        cands[:] = [tri(om[ks], om[kt]) for ks, kt in plan.stages]
        for _ in _depth_first([len(cs) for cs in cands], place_arrow):
            mor_map = {k: (base[k], om[o], om[o]) for k, o in plan.ids}
            for k, (ks, kt) in zip(plan.non_id, plan.stages):
                mor_map[k] = (base[k], om[ks], om[kt])
            F = MixedFunctor(dt.variance, sl, om, mor_map)
            yield Covering(C, c, dt, F)


def _depth_first(sizes, place):
    """Every choice vector with 0 <= choice[p] < sizes[p] such that
    place(p, choice) holds at each p, in lexicographic order.  place sees
    choice[:p + 1] and records choice[p]; a failing place cuts every
    extension of the prefix.  Iterative, so the depth is not bounded by
    the recursion limit; yields the same list each time."""
    n = len(sizes)
    if n == 0:
        yield []
        return
    choice = [-1] * n
    p = 0
    while p >= 0:
        choice[p] += 1
        if choice[p] == sizes[p]:
            choice[p] = -1
            p -= 1
        elif place(p, choice):
            if p + 1 == n:
                yield choice
            else:
                p += 1


def _laws_hold(C, base, laws):
    """Each path, composed on the base legs of its triangles, equals the
    leg of gf."""
    compose = C.compose
    for gf, path in laws:
        leg = base[path[0]]
        for k in path[1:]:
            leg = compose(base[k], leg)
        if leg != base[gf]:
            return False
    return True


class _LawPlan:
    """The laws ``validate_mixed_functor`` checks for one variance, laid out
    for the depth-first enumeration.

    ``objs`` and ``non_id`` are the assignment orders, ``ids`` the
    identities with their objects and ``stages`` the (source, target)
    stage objects of each non-identity arrow.  ``arrows_at[p]`` holds the
    stages of the arrows whose later stage object is ``objs[p]``.

    A hexagon law says that both paths v_cov.f.u_contr and v_contr.g.u_cov
    equal gf.  It is kept as (gf, path) per path, the path innermost
    first.  Identity arrows, sent to identity legs, are left out of a path
    (one is kept when all are identities), and a path that is just gf
    holds for every candidate; a law among identities alone is such a
    one.  ``laws_at[j]`` holds the laws whose last assigned arrow is
    ``non_id[j]``.  ``coherent`` is False when some composable pair fails
    stage coherence, which rejects every functor of the variance.
    """

    def __init__(self, V):
        I = V.category
        self.objs = sorted(I.objects())
        self.ids = [(I.identity(o), o) for o in self.objs]
        self.non_id = [k for k in sorted(I.morphisms())
                       if not I.is_identity(k)]
        self.stages = [(V.source_stage(k), V.target_stage(k))
                       for k in self.non_id]
        opos = {o: p for p, o in enumerate(self.objs)}
        self.arrows_at = [[] for _ in self.objs]
        for ks, kt in self.stages:
            self.arrows_at[max(opos[ks], opos[kt])].append((ks, kt))
        last = {k: j for j, k in enumerate(self.non_id)}
        self.laws_at = [[] for _ in self.non_id]
        self.coherent = True
        seen = set()
        for g in I.morphisms():
            for f in I.morphisms_into(I.src(g)):
                gf = I.compose(g, f)
                f_lo_contr, f_lo_cov = V.factor_contr_cov(f)
                g_lo_contr, _ = V.factor_contr_cov(g)
                u_contr, u_cov = V.factor_contr_cov(
                    I.compose(g_lo_contr, f_lo_cov))
                f_up_cov, f_up_contr = V.factor_cov_contr(f)
                g_up_cov, _ = V.factor_cov_contr(g)
                v_cov, v_contr = V.factor_cov_contr(
                    I.compose(g_up_cov, f_up_contr))
                if I.tgt(u_contr) != V.source_stage(gf) or \
                   I.tgt(v_cov) != V.target_stage(gf):
                    self.coherent = False
                    return
                # with coherence, both paths run from the source stage to
                # the target stage of gf, so the triangles compare by leg
                for path in ((u_contr, f, v_cov), (u_cov, g, v_contr)):
                    path = tuple(k for k in path if k in last) or path[:1]
                    if path == (gf,) or (gf, path) in seen:
                        continue
                    seen.add((gf, path))
                    self.laws_at[max(last.get(k, -1)
                                     for k in path + (gf,))].append(
                        (gf, path))


def _law_plan(V):
    """The variance's _LawPlan, compiled on first use."""
    plan = V.__dict__.get("_covering_plan")
    if plan is None:
        plan = V._covering_plan = _LawPlan(V)
    return plan


def _key(m):
    return m if isinstance(m, str) else (m.key() if hasattr(m, "key") else repr(m))


def enumerate_coverings(C, c, J, M, cap=None):
    """All M-subordinated coverings of c over the diagram types J, as a
    fresh list."""
    covs, capped = RuleCoverage(J, M).coverings_of(C, c, cap=cap)
    return list(covs), capped


# ---------------------------------------------------------------------------
# coverage axiom, image compatibility, compactness
# ---------------------------------------------------------------------------

@dataclass
class CoverageCheckReport:
    is_coverage: bool | None
    witness: tuple = ()
    reason: str = ""
    checked: int = 0
    capped: bool = False

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
    mors = [m for m in sorted(C.morphisms(), key=_key)]
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


@dataclass
class CompatibilityReport:
    compatible: bool | None
    witness: tuple = ()
    checked: int = 0
    capped: bool = False

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
    # FS is an unhashable dataclass: key it by id and keep it alive
    key = (f, E, M, id(FS), cap)
    if key not in memo:
        memo[key] = (FS, _image_compatibility(C, f, tau, E, M, FS, cap))
    return memo[key][1]


def _image_compatibility(C, f, tau, E, M, FS, cap):
    c, d = C.src(f), C.tgt(f)
    covs, capped = tau.coverings_of(C, c, cap=cap)
    checked = 0
    for cov in covs:
        checked += 1
        ok = False
        if FS is not None:
            G, eta = image_induced(C, FS, f, cov.functor)
            gcov = Covering(C, d, cov.diagram_type, G, cov.flags)
            if all(E.contains(comp[0]) for comp in eta.components.values()) \
                    and check_subordination(gcov, M)[0] \
                    and tau.contains(C, gcov):
                ok = True
        if not ok:
            ok = _search_compatible(C, f, cov, tau, E, M, cap)
        if not ok:
            return CompatibilityReport(False, (cov.key(),), checked, capped)
    if capped:
        return CompatibilityReport(None, (), checked, True)
    return CompatibilityReport(True, (), checked, capped)


def _search_compatible(C, f, cov, tau, E, M, cap):
    from .variance import MixedNatTrans, pushforward_functor
    d = C.tgt(f)
    push = pushforward_functor(C, f, cov.functor)
    I = cov.diagram_type.I
    targets, _ = tau.coverings_of(C, d, cap=cap)
    for gcov in targets:
        if gcov.diagram_type != cov.diagram_type:
            continue
        if not check_subordination(gcov, M)[0]:
            continue
        per_obj = []
        feasible = True
        for i in sorted(I.objects()):
            p, q = push.obj_map[i], gcov.functor.obj_map[i]
            cands = [h for h in C.hom(C.src(p), C.src(q))
                     if C.compose(q, h) == p and E.contains(h)]
            if not cands:
                feasible = False
                break
            per_obj.append((i, sorted(cands, key=_key)))
        if not feasible:
            continue
        names = [i for i, _ in per_obj]
        for combo in itertools.product(*[cs for _, cs in per_obj]):
            comps = {i: (h, push.obj_map[i], gcov.functor.obj_map[i])
                     for i, h in zip(names, combo)}
            eta = MixedNatTrans(push, gcov.functor, comps)
            if eta.validate() is None:
                return True
    return False


@dataclass
class CompactnessVerdict:
    """Per-covering stabilization witnesses, or the least failing covering."""

    compact: bool | None
    witnesses: tuple = ()
    failing: Covering | None = None
    enumerated: int = 0
    capped: bool = False
    flags: tuple = ()

    def __bool__(self):
        return bool(self.compact)

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
    flags = set()
    for cov in covs:
        if not cov.diagram_type.smalls:
            flags.add("empty-smalls")
        if not cov.diagram_type.directed:
            flags.add("non-directed-smalls")
        flags.update(cov.flags)

    witnesses = []
    for cov in covs:
        w = stabilization_small(cov)
        if w is None:
            return CompactnessVerdict(False, tuple(witnesses), cov,
                                      len(covs), capped, tuple(sorted(flags)))
        witnesses.append((cov.key(), w))
    if capped:
        return CompactnessVerdict(None, tuple(witnesses), None, len(covs),
                                  True, tuple(sorted(flags)))
    return CompactnessVerdict(True, tuple(witnesses), None, len(covs), False,
                              tuple(sorted(flags)))


# ---------------------------------------------------------------------------
# open-cover and closed-family coverages on finite spaces
# ---------------------------------------------------------------------------

class OpenCoverCoverage:
    """Coverings freely induced by open covers, smalls of size < kappa.

    Membership is semantic: powerset shape, every leg an open embedding,
    the leg image at a subset is the union of its singleton images, and the
    full index covers the anchor.  These properties are preserved by
    pullbacks (preimages), so the family is a coverage by construction.
    """

    def __init__(self, top, kappa=2, max_cover_size=None):
        self.top = top
        self.kappa = kappa
        self.max_cover_size = max_cover_size
        self.name = f"open-covers(kappa={kappa})"
        self._leg_cache = {}
        self._cov_cache = {}

    def _covers(self, c):
        """Set covers of the space by nonempty opens, by (size, masks)."""
        n, opens = self.top.spaces[c]
        full = (1 << n) - 1
        usable = [u for u in opens if u != 0] if n else []
        covers = []
        # the empty space is covered exactly by the empty family (r = 0)
        for r in range(0 if n == 0 else 1, len(usable) + 1):
            if self.max_cover_size is not None and r > self.max_cover_size:
                break
            for fam in itertools.combinations(usable, r):
                mask = 0
                for u in fam:
                    mask |= u
                if mask == full:
                    covers.append(fam)
        return covers

    def _leg(self, c, mask):
        """Canonical open-embedding morphism with the given image."""
        if (c, mask) not in self._leg_cache:
            for m in sorted(self.top.maps):
                cat = self.top.category
                if cat.tgt(m) != c:
                    continue
                if self.top.image_mask(m) != mask:
                    continue
                if self.top.is_open_embedding(m):
                    self._leg_cache[(c, mask)] = m
                    break
            else:
                raise AssertionError(f"no embedding onto mask {mask} of {c}")
        return self._leg_cache[(c, mask)]

    def coverings_of(self, C, c, cap=None):
        if c not in self._cov_cache:
            out = []
            for fam in self._covers(c):
                dt = _powerset_type_relaxed(len(fam), self.kappa, "cov")
                out.append(self._covering_from_family(C, c, dt, fam,
                                                      union=True))
            self._cov_cache[c] = tuple(out)
        out = self._cov_cache[c]
        if cap is not None and len(out) > cap:
            return out[:cap], True
        return out, False

    def _covering_from_family(self, C, c, dt, fam, union):
        """The covering induced by a family of opens (union) or closed sets
        (intersection).  Embedding legs force unique triangles, which makes
        it a functor of the powerset variance by construction."""
        k = len(fam)
        full_m = (1 << self.top.spaces[c][0]) - 1
        obj_map = {}
        masks = {}
        for sub in range(1 << k):
            if union:
                mask = 0
                for i in range(k):
                    if sub & (1 << i):
                        mask |= fam[i]
            else:
                mask = full_m
                for i in range(k):
                    if sub & (1 << i):
                        mask &= fam[i]
            name = f"s{_mask_name(sub, k)}"
            masks[name] = mask
            obj_map[name] = self._leg(c, mask) if union else \
                self._closed_leg(c, mask)
        sl = slice_view(C, c)
        I = dt.I
        mor_map = {}
        for km in I.morphisms():
            ks = dt.variance.source_stage(km)
            kt = dt.variance.target_stage(km)
            p, q = obj_map[ks], obj_map[kt]
            hs = [h for h in C.hom(C.src(p), C.src(q))
                  if C.compose(q, h) == p]
            assert len(hs) == 1, "embedding legs force unique triangles"
            mor_map[km] = (hs[0], p, q)
        F = MixedFunctor(dt.variance, sl, obj_map, mor_map)
        flags = ("empty-family",) if k == 0 else ()
        return Covering(C, c, dt, F, flags)

    def contains(self, C, cov):
        dt = cov.diagram_type
        if dt.shape != "powerset" or dt.shape_params.get("dir") != "cov" \
                or dt.shape_params.get("kappa") != self.kappa:
            return False
        k = dt.shape_params["size"]
        c = cov.anchor
        imgs = {}
        for sub in range(1 << k):
            name = f"s{_mask_name(sub, k)}"
            leg = cov.leg(name)
            if not self.top.is_open_embedding(leg):
                return False
            imgs[sub] = self.top.image_mask(leg)
        for sub in range(1 << k):
            mask = 0
            for i in range(k):
                if sub & (1 << i):
                    mask |= imgs[1 << i]
            if imgs[sub] != mask:
                return False
        full = (1 << self.top.spaces[c][0]) - 1
        return imgs[(1 << k) - 1] == full

    def subordination_class(self, C):
        return self.top.extremal_monos()

    def to_json(self):
        return {"open_covers": {"kappa": self.kappa}}


class ClosedFamilyCoverage(OpenCoverCoverage):
    """Contravariant coverings from closed families with empty total
    intersection; stabilization at a small recovers the finite
    intersection property."""

    def __init__(self, top, kappa=2, max_cover_size=None):
        super().__init__(top, kappa, max_cover_size)
        self.name = f"closed-families(kappa={kappa})"

    def _covers(self, c):
        n, opens = self.top.spaces[c]
        full = (1 << n) - 1
        closed = sorted({full ^ u for u in opens})
        usable = [x for x in closed if x != full]
        covers = []
        for r in range(1, len(usable) + 1):
            if self.max_cover_size is not None and r > self.max_cover_size:
                break
            for fam in itertools.combinations(usable, r):
                mask = full
                for u in fam:
                    mask &= u
                if mask == 0:
                    covers.append(fam)
        if n == 0:
            covers.insert(0, ())
        return covers

    def _closed_leg(self, c, mask):
        if (c, mask) not in self._leg_cache:
            for m in sorted(self.top.maps):
                cat = self.top.category
                if cat.tgt(m) != c:
                    continue
                if self.top.image_mask(m) != mask:
                    continue
                if self.top.is_closed_embedding(m):
                    self._leg_cache[(c, mask)] = m
                    break
            else:
                raise AssertionError(
                    f"no closed embedding onto mask {mask} of {c}")
        return self._leg_cache[(c, mask)]

    def coverings_of(self, C, c, cap=None):
        if c not in self._cov_cache:
            out = []
            for fam in self._covers(c):
                dt = _powerset_type_relaxed(len(fam), self.kappa, "contr")
                out.append(self._covering_from_family(C, c, dt, fam,
                                                      union=False))
            self._cov_cache[c] = tuple(out)
        out = self._cov_cache[c]
        if cap is not None and len(out) > cap:
            return out[:cap], True
        return out, False

    def contains(self, C, cov):
        dt = cov.diagram_type
        if dt.shape != "powerset" or dt.shape_params.get("dir") != "contr" \
                or dt.shape_params.get("kappa") != self.kappa:
            return False
        k = dt.shape_params["size"]
        c = cov.anchor
        n = self.top.spaces[c][0]
        full = (1 << n) - 1
        imgs = {}
        for sub in range(1 << k):
            name = f"s{_mask_name(sub, k)}"
            leg = cov.leg(name)
            if not self.top.is_closed_embedding(leg):
                return False
            imgs[sub] = self.top.image_mask(leg)
        for sub in range(1 << k):
            mask = full
            for i in range(k):
                if sub & (1 << i):
                    mask &= imgs[1 << i]
            if imgs[sub] != mask:
                return False
        return imgs[(1 << k) - 1] == 0 or k == 0

    def to_json(self):
        return {"closed_families": {"kappa": self.kappa}}
