"""Morphism-class calculus: systems, stability, cancelability, extremal
(epi)morphisms, orthogonality and stable orthogonal factorization systems.

Classes are finite member sets or predicates.  A builtin keeps the name
it is asked by; what a shortcut needs of a class (every member mono, iso
saturation) is decided from its members once per roster, not its name.
"stable" is always evaluated over the pullbacks that exist in the category;
incomplete categories yield a qualified verdict.
"""

from __future__ import annotations

from . import kernels
from .fincat import Failure, FinCategory, derived_memo, mor_key, \
    try_pullback


class MorphismClass:
    """A class of morphisms of one category: explicit members or a
    predicate, under a name that labels it and decides nothing."""

    def __init__(self, category, name, members=None, predicate=None):
        if (members is None) == (predicate is None):
            raise ValueError("give exactly one of members/predicate")
        self.category = category
        self.name = name
        self.members = frozenset(members) if members is not None else None
        self.predicate = predicate
        self._memo = {}

    def contains(self, m):
        if self.members is not None:
            return m in self.members
        hit = self._memo.get(m)
        if hit is None:
            hit = self._memo[m] = self.predicate(m)
        return hit

    def member_list(self):
        """The members as a tuple: explicit members sorted by ``mor_key``,
        predicate members in the order of ``category.morphisms()``.
        Listed once per roster of the category, under the key None of the
        class's "class_members" table (``_extremal_candidates`` keeps its
        lists per target object there)."""
        memo = derived_memo(self.category, "class_members", self)
        hit = memo.get(None)
        if hit is None:
            if self.members is not None:
                hit = tuple(sorted(self.members, key=mor_key))
            else:
                hit = tuple(m for m in self.category.morphisms()
                            if self.contains(m))
            memo[None] = hit
        return hit

    def __contains__(self, m):
        return self.contains(m)

    def __repr__(self):
        return f"MorphismClass({self.name})"

    def to_json(self):
        if self.members is not None:
            return {"class": {"name": self.name,
                              "members": sorted(map(str, self.members))}}
        return {"class": {"name": self.name, "members": "<predicate>"}}

    @staticmethod
    def from_json(category, obj):
        body = obj["class"]
        return MorphismClass(category, body["name"], members=body["members"])


BUILTIN_CLASS_NAMES = ("all", "identities", "isos", "monos", "epis",
                       "sections", "retractions", "injections", "surjections")


def builtin_class(C, name):
    """Named classes computed from the category; deterministic membership.
    Instances are cached per category so their membership memos persist."""
    cache = C.__dict__.setdefault("_builtin_classes", {})
    if name not in cache:
        cache[name] = _make_builtin_class(C, name)
    return cache[name]


def _make_builtin_class(C, name):
    if name == "all":
        return MorphismClass(C, name, predicate=lambda m: True)
    if name == "identities":
        return MorphismClass(C, name, predicate=C.is_identity)
    if name == "isos":
        return MorphismClass(C, name, predicate=C.is_iso)
    if name == "sections":
        return MorphismClass(C, name, predicate=C.is_section)
    if name == "retractions":
        return MorphismClass(C, name, predicate=C.is_retraction)
    if name in ("monos", "injections"):
        return MorphismClass(C, name, predicate=C.is_mono)
    if name in ("epis", "surjections"):
        return MorphismClass(C, name, predicate=C.is_epi)
    raise KeyError(f"unknown builtin class {name}")


def explicit_class(C, name, members):
    return MorphismClass(C, name, members=frozenset(members))


class ClassPropertyReport:
    """Flags with a counterexample witness per false flag."""

    def __init__(self, system, stable, left_cancelable, right_cancelable,
                 witnesses=None, restricted=False):
        self.system = system
        self.stable = stable
        self.left_cancelable = left_cancelable
        self.right_cancelable = right_cancelable
        self.witnesses = {} if witnesses is None else witnesses
        # stability judged over existing pullbacks only
        self.restricted = restricted

    def to_json(self):
        return {"system": self.system, "stable": self.stable,
                "left_cancelable": self.left_cancelable,
                "right_cancelable": self.right_cancelable,
                "restricted": self.restricted,
                "witnesses": {k: [str(x) for x in v]
                              for k, v in self.witnesses.items()}}


def check_class_properties(C, A, probe_cap=None):
    """Decide system/stable/left-/right-cancelable exhaustively.

    The report is memoized on C per class object and probe cap; callers
    must not mutate it.
    """
    memo = derived_memo(C, "class_properties", A)
    if probe_cap not in memo:
        memo[probe_cap] = _class_properties(C, A, probe_cap)
    return memo[probe_cap]


def _class_properties(C, A, probe_cap):
    witnesses = {}
    ms, member = _membership(C, A)
    iso_out = next((m for m, inside in zip(ms, member)
                    if not inside and C.is_iso(m)), None)
    if iso_out is not None:
        system = False
        witnesses["system"] = (iso_out,)
    else:
        found = _composite_witnesses(C, ms, member, ("system",))
        system = not found
        witnesses.update(found)

    n_objects = len(C.objects())
    stable, restricted, wit = _stability_scan(C, A, probe_cap)
    if wit:
        witnesses["stable"] = wit
    if len(C.objects()) != n_objects:
        # the generic stability scan takes pullbacks, which can grow an
        # algebra ambient; the cancelability scans read the grown roster
        ms, member = _membership(C, A)

    found = _composite_witnesses(C, ms, member,
                                 ("left_cancelable", "right_cancelable"))
    witnesses.update(found)
    return ClassPropertyReport(system, stable,
                               "left_cancelable" not in found,
                               "right_cancelable" not in found, witnesses,
                               restricted)


def _membership(C, A):
    """C's morphisms and A's membership flag per morphism."""
    ms = C.morphisms()
    return ms, list(map(A.contains, ms))


def _composite_witnesses(C, ms, member, flags):
    """{flag: least refuting (g, f)} over C's composite index, for the
    refuted flags only."""
    found = C.first_class_composites(member, flags)
    return {flag: (ms[hit[0]], ms[hit[1]])
            for flag, hit in found.items() if hit is not None}


def walk_cospans(C, fs, refute, probe_cap=None):
    """The cospan walk behind every pullback-stability question:
    (verdict, restricted, witness) for the first witness
    ``refute(f, g, square)`` returns (None for none) over the cospans
    (f, g), f from fs in its order and g in ``C.morphisms_into(tgt f)``
    order.

    Pullbacks are taken through ``try_pullback``: a cospan without one
    (none exists, or it is past the ambient's size cap) is skipped and
    marks the answer restricted.  One budget of ``probe_cap`` cospans
    serves the whole walk; reaching it with cospans left ends the walk
    with (True, True, None)."""
    restricted = False
    probes = 0
    for f in fs:
        for g in C.morphisms_into(C.tgt(f)):
            if probe_cap is not None and probes >= probe_cap:
                return True, True, None
            probes += 1
            sq = try_pullback(C, f, g)
            if sq is None:
                restricted = True
                continue
            wit = refute(f, g, sq)
            if wit is not None:
                return False, restricted, wit
    return True, restricted, None


def _stability_scan(C, A, probe_cap=None):
    """(stable, restricted, witness): pullbacks of A-members stay in A,
    one probe budget for all the members' cospans."""
    if _ambient_injective_only(C, A):
        return _ambient_stability_scan(C, A)
    return walk_cospans(
        C, (f for f in C.morphisms() if A.contains(f)),
        lambda f, g, sq: None if A.contains(sq.proj2) else (f, g, sq.proj2),
        probe_cap)


def _ambient_injective_only(C, A):
    """Whether A is a class of monos (injective homs) of a concrete
    category: extremality and stability then reduce to image comparisons
    (unique corestrictions).  Decided once per roster."""
    if not C.concrete:
        return False
    memo = derived_memo(C, "class_facts", A)
    hit = memo.get("monos")
    if hit is None:
        hit = memo["monos"] = all(map(C.is_mono, A.member_list()))
    return hit


def _ambient_class_images(C, A, z):
    """(image set, least witness) per non-iso A-member into z, listed
    once per roster (a new source can bring a new image)."""
    memo = derived_memo(C, "ambient_class_images", A)
    hit = memo.get(z)
    if hit is None:
        table = {}
        for m in C.morphisms_into(z):
            if m.is_bijective() or not A.contains(m):
                continue
            img = frozenset(m.images)
            if img not in table:
                table[img] = m
        hit = memo[z] = sorted(table.items(), key=lambda kv: sorted(kv[0]))
    return hit


def _ambient_stability_scan(C, A):
    """Stability of an injective-members ambient class via image closure:
    the pullback of an injective m along g is the corestriction onto the
    preimage of its image, the projection ``find_pullback`` builds.

    Members with one target and one image have the same pullbacks, so the
    morphisms into that target are scanned once per image (again if the
    roster grew in between)."""
    scans = {}
    for f in C.morphisms():
        if not A.contains(f):
            continue
        into = C.morphisms_into(f.tgt)
        key = (f.tgt, frozenset(f.images))
        if key not in scans or scans[key][0] is not into:
            scans[key] = (into, C.first_unstable_pullback(A, key[1], into))
        bad = scans[key][1]
        if bad is not None:
            return False, False, (f,) + bad
    return True, False, None


def is_stably_in(C, f, A, probe_cap=None):
    """Whether every (existing) pullback of f lies in A.

    Returns (verdict, restricted, witness) of the cospan walk over f
    alone; verdict is over the pullbacks that exist, restricted=True when
    some cospan had none or the probe cap was reached.
    """
    return walk_cospans(
        C, (f,), lambda f, g, sq: None if A.contains(sq.proj2)
        else (g, sq.proj2), probe_cap)


def is_extremal_wrt(C, family, M):
    """A-extremal(-epimorphic family): any common factorization f_i = m.g_i
    through m in M forces m iso.  Returns (verdict, witness)."""
    if not family:
        raise ValueError("family must be nonempty")
    x = C.tgt(family[0])
    if any(C.tgt(f) != x for f in family):
        raise ValueError("family needs a common target")
    if _ambient_injective_only(C, M):
        # factoring through an injective m amounts to an image inclusion;
        # the corestriction is then the unique (automatic) factor
        imgs = [frozenset(f.images) for f in family]
        for img_m, m in _ambient_class_images(C, M, x):
            if all(i <= img_m for i in imgs):
                inv = {y: k for k, y in enumerate(m.images)}
                gs = tuple(type(m)(f.src, m.src,
                                   tuple(inv[f(a)] for a in f.src.carrier))
                           for f in family)
                return False, (m, gs)
        return True, None
    for m in _extremal_candidates(C, M, x):
        gs = []
        for f in family:
            g = next((g for g in C.hom(C.src(f), C.src(m))
                      if C.compose(m, g) == f), None)
            if g is None:
                break
            gs.append(g)
        if len(gs) == len(family):
            return False, (m, tuple(gs))
    return True, None


def _extremal_candidates(C, M, x):
    """The non-iso M-members into x, sorted by ``mor_key``; listed once
    per (class, target) and roster."""
    memo = derived_memo(C, "class_members", M)
    hit = memo.get(x)
    if hit is None:
        hit = memo[x] = tuple(m for m in sorted(M.member_list(), key=mor_key)
                              if C.tgt(m) == x and not C.is_iso(m))
    return hit


def _is_extremal(C, f, M):
    """``is_extremal_wrt(C, [f], M)``, decided once per (class, morphism)
    and roster; kept under (f,) in the class's "extremality" table."""
    memo = derived_memo(C, "extremality", M)
    key = (f,)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = is_extremal_wrt(C, [f], M)
    return hit


def is_stably_extremal(C, f, M, probe_cap=None):
    """f and all its existing pullbacks are M-extremal.

    Decided once per (class, morphism, probe cap) and roster, and kept
    under (f, probe_cap) in the class's "extremality" table; a roster
    that grows while the question is answered keeps the answer out of
    the new tables."""
    memo = derived_memo(C, "extremality", M)
    key = (f, probe_cap)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _stably_extremal(C, f, M, probe_cap)
    return hit


def _stably_extremal(C, f, M, probe_cap):
    ok, wit = _is_extremal(C, f, M)
    if not ok:
        return False, False, wit
    if _ambient_injective_only(C, M):
        # the pullback image along g is the g-preimage of the image of f
        imf = frozenset(f.images)
        for g in C.morphisms_into(C.tgt(f)):
            pre = frozenset(b for b in g.src.carrier if g(b) in imf)
            for img_m, m in _ambient_class_images(C, M, g.src):
                if pre <= img_m:
                    return False, False, (g, m)
        return True, False, None

    def refute(f, g, sq):
        ok, wit = _is_extremal(C, sq.proj2, M)
        return None if ok else (g,) + wit
    return walk_cospans(C, (f,), refute, probe_cap)


def check_orthogonal(C, e, m):
    """Unique-lift condition for the pair (e, m); (ok, witness square)."""
    if isinstance(C, FinCategory):
        ok, u, v, cnt = kernels.lift_report(
            *C._kernel_args(), C._midx[e], C._midx[m])
        if ok:
            return True, None
        ms = C._morphisms
        return False, (ms[u], ms[v], cnt)
    A, B = C.src(e), C.tgt(e)
    X, Y = C.src(m), C.tgt(m)
    for u in C.hom(A, X):
        mu = C.compose(m, u)
        for v in C.hom(B, Y):
            if C.compose(v, e) != mu:
                continue
            lifts = [h for h in C.hom(B, X)
                     if C.compose(h, e) == u and C.compose(m, h) == v]
            if len(lifts) != 1:
                return False, (u, v, len(lifts))
    return True, None


def _factor_search(C, in_E, in_M, f, es=None):
    """The least-(e, m) search: the first (e, m) with m.e = f, in_E(e)
    and in_M(m), or None.  e runs over es in its order (by default
    ``C.morphisms_from(src f)``), asking in_E only of the e it reaches;
    m runs over hom(tgt e, tgt f)."""
    for e in C.morphisms_from(C.src(f)) if es is None else es:
        if not in_E(e):
            continue
        for m in C.hom(C.tgt(e), C.tgt(f)):
            if in_M(m) and C.compose(m, e) == f:
                return e, m
    return None


class FactorizationSystem:
    """A validated orthogonal factorization system with its table of
    canonical (least-id) factorizations.

    Lazily enumerated categories can grow after validation; factorize then
    falls back to the canonical search and extends the table.
    """

    def __init__(self, category, E, M, table, stable_E=True, stable_M=True,
                 restricted=False):
        self.category = category
        self.E = E
        self.M = M
        self.table = table
        self.stable_E = stable_E
        self.stable_M = stable_M
        self.restricted = restricted

    def factorize(self, f):
        if f not in self.table:
            pair = _factor_search(self.category, self.E.contains,
                                  self.M.contains, f)
            if pair is None:
                raise KeyError(f"no (E, M) factorization of {f!r}")
            self.table[f] = pair
        return self.table[f]

    def to_json(self):
        return {"E": self.E.name, "M": self.M.name,
                "stable": {"E": self.stable_E, "M": self.stable_M},
                "restricted": self.restricted,
                "table": {str(f): [str(e), str(m)]
                          for f, (e, m) in sorted(self.table.items(),
                                                  key=lambda kv: str(kv[0]))}}


class FactorizationFailure(Failure):
    """A pair (E, M) that is not an orthogonal factorization system."""


def check_factorization_system(C, E, M, probe_cap=None):
    """Verify (E, M) is an orthogonal factorization system.

    Checks factorization existence, E = lifters-against-M, M = lifted-by-E,
    builds the canonical factorization table and reports stability of both
    classes.  Returns a FactorizationSystem or a FactorizationFailure with
    the least witness.
    """
    table = {}
    for f in C.morphisms():
        pair = _factor_search(C, E.contains, M.contains, f)
        if pair is None:
            return FactorizationFailure("factorization", (f,))
        table[f] = pair

    for e in E.member_list():
        for m in M.member_list():
            ok, wit = check_orthogonal(C, e, m)
            if not ok:
                return FactorizationFailure("orthogonality", (e, m) + wit)

    m_members = M.member_list()
    e_members = E.member_list()
    e_set = set(e_members)
    m_set = set(m_members)
    for f in C.morphisms():
        lifts_all = all(check_orthogonal(C, f, m)[0] for m in m_members)
        if lifts_all != (f in e_set):
            return FactorizationFailure("class_equation_E", (f,))
        lifted_all = all(check_orthogonal(C, e, f)[0] for e in e_members)
        if lifted_all != (f in m_set):
            return FactorizationFailure("class_equation_M", (f,))

    stable_E, restr_E, _ = _stability_scan(C, E, probe_cap)
    stable_M, restr_M, _ = _stability_scan(C, M, probe_cap)
    return FactorizationSystem(C, E, M, table, stable_E, stable_M,
                               restr_E or restr_M)


def factorize(FS, f):
    """Canonical (e, m) with m.e = f, e in E, m in M."""
    return FS.factorize(f)


class RegularityReport:
    def __init__(self, regular, witness=None, restricted=False):
        self.regular = regular
        self.witness = witness
        self.restricted = restricted

    def __bool__(self):
        return self.regular

    def to_json(self):
        return {"regular": self.regular, "witness": str(self.witness),
                "restricted": self.restricted}


def check_regular(C, probe_cap=None):
    """Every morphism factors as (stably extremal epi) . (mono)."""
    monos = builtin_class(C, "monos")
    restricted = False
    see = set()
    for f in C.morphisms():
        ok, restr, _ = is_stably_extremal(C, f, monos, probe_cap)
        restricted = restricted or restr
        if ok:
            see.add(f)
    for f in C.morphisms():
        if _factor_search(C, see.__contains__, monos.contains, f) is None:
            return RegularityReport(False, f, restricted)
    return RegularityReport(True, None, restricted)
