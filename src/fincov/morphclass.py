"""Morphism-class calculus: systems, stability, cancelability, extremal
(epi)morphisms, orthogonality and stable orthogonal factorization systems.

Classes over explicit categories are finite member sets; over lazily
enumerated categories they are predicates with iso-saturated builtins.
"stable" is always evaluated over the pullbacks that exist in the category;
incomplete categories yield a qualified verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernels
from .fincat import FinCategory, derived_memo, try_pullback


class MorphismClass:
    """A class of morphisms of one category: explicit members or a predicate."""

    def __init__(self, category, name, members=None, predicate=None,
                 iso_saturated=True):
        if (members is None) == (predicate is None):
            raise ValueError("give exactly one of members/predicate")
        self.category = category
        self.name = name
        self.members = frozenset(members) if members is not None else None
        self.predicate = predicate
        # closed under pre/postcomposition with isomorphisms; true for all
        # builtins, needed by the anchored protomodularity scan
        self.iso_saturated = iso_saturated
        self._memo = {}

    def contains(self, m):
        if self.members is not None:
            return m in self.members
        hit = self._memo.get(m)
        if hit is None:
            hit = self._memo[m] = self.predicate(m)
        return hit

    def member_list(self):
        if self.members is not None:
            return sorted(self.members, key=_mor_key)
        return [m for m in self.category.morphisms() if self.predicate(m)]

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


def _mor_key(m):
    return m if isinstance(m, str) else (m.key() if hasattr(m, "key") else repr(m))


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
        return MorphismClass(C, name, predicate=C.is_identity,
                             iso_saturated=False)
    if name == "isos":
        return MorphismClass(C, name, predicate=C.is_iso)
    if name == "sections":
        return MorphismClass(C, name, predicate=C.is_section)
    if name == "retractions":
        return MorphismClass(C, name, predicate=C.is_retraction)
    if name in ("monos", "injections"):
        if hasattr(C, "theory"):
            # algebra ambient: injective homs (monos of the full variety)
            return MorphismClass(C, name, predicate=lambda m: m.is_injective())
        return MorphismClass(C, "monos", predicate=C.is_mono)
    if name in ("epis", "surjections"):
        if hasattr(C, "theory"):
            return MorphismClass(C, name, predicate=lambda m: m.is_surjective())
        return MorphismClass(C, "epis", predicate=C.is_epi)
    raise KeyError(f"unknown builtin class {name}")


def explicit_class(C, name, members):
    return MorphismClass(C, name, members=frozenset(members))


@dataclass
class ClassPropertyReport:
    """Flags with a counterexample witness per false flag."""

    system: bool
    stable: bool
    left_cancelable: bool
    right_cancelable: bool
    witnesses: dict = field(default_factory=dict)
    restricted: bool = False  # stability judged over existing pullbacks only

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
    system = True
    for m in C.morphisms():
        if C.is_iso(m) and not A.contains(m):
            system = False
            witnesses["system"] = (m,)
            break
    if system:
        for g in C.morphisms():
            if not A.contains(g):
                continue
            for f in C.morphisms_into(C.src(g)):
                if A.contains(f) and not A.contains(C.compose(g, f)):
                    system = False
                    witnesses["system"] = (g, f)
                    break
            if not system:
                break

    stable, restricted, wit = _stability_scan(C, A, probe_cap)
    if wit:
        witnesses["stable"] = wit

    # a pair (g, f) can refute left-cancelability only when g is in A and
    # right-cancelability only when it is not, so each g scans for the one
    # property it can refute, and g.f is composed only for candidates
    left = True
    right = True
    for g in C.morphisms():
        g_in = A.contains(g)
        if not (left if g_in else right):
            continue
        for f in C.morphisms_into(C.src(g)):
            if A.contains(f) == g_in or not A.contains(C.compose(g, f)):
                continue
            if g_in:
                left = False
                witnesses["left_cancelable"] = (g, f)
            else:
                right = False
                witnesses["right_cancelable"] = (g, f)
            break
        if not left and not right:
            break
    return ClassPropertyReport(system, stable, left, right, witnesses,
                               restricted)


def _stability_scan(C, A, probe_cap=None):
    """(stable, restricted, witness): pullbacks of A-members stay in A."""
    if _ambient_injective_only(C, A):
        return _ambient_stability_scan(C, A)
    restricted = False
    probes = 0
    for f in C.morphisms():
        if not A.contains(f):
            continue
        for g in C.morphisms_into(C.tgt(f)):
            if probe_cap is not None and probes >= probe_cap:
                return True, True, None
            probes += 1
            sq = try_pullback(C, f, g)
            if sq is None:
                restricted = True
                continue
            if not A.contains(sq.proj2):
                return False, restricted, (f, g, sq.proj2)
    return True, restricted, None


def _ambient_injective_only(C, A):
    """Ambient classes whose members are all injective homs: extremality
    and stability reduce to image comparisons (unique corestrictions).
    Requires iso saturation, which all such builtins and generated systems
    over them satisfy."""
    if not hasattr(C, "theory"):
        return False
    if A.name in ("monos", "injections", "sections", "isos", "identities"):
        return True
    if A.members is not None and A.iso_saturated:
        flag = A.__dict__.get("_all_injective")
        if flag is None:
            flag = all(m.is_injective() for m in A.members)
            A.__dict__["_all_injective"] = flag
        return flag
    return False


def _ambient_class_images(C, A, z):
    """(image set, least witness) per non-iso A-member into z; cached."""
    cache = A.__dict__.setdefault("_noniso_images", {})
    if id(z) not in cache:
        table = {}
        for m in C.morphisms_into(z):
            if m.is_bijective() or not A.contains(m):
                continue
            img = frozenset(m.images)
            if img not in table:
                table[img] = m
        cache[id(z)] = sorted(table.items(), key=lambda kv: sorted(kv[0]))
    return cache[id(z)]


def _ambient_stability_scan(C, A):
    """Stability of an injective-members ambient class via image closure:
    the pullback of an injective m along g is the corestriction onto the
    preimage of its image (an iso-saturated membership test).

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
            scans[key] = (into, _first_unstable_pullback(C, A, key[1], into))
        bad = scans[key][1]
        if bad is not None:
            return False, False, (f,) + bad
    return True, False, None


def _first_unstable_pullback(C, A, img, into):
    """Least (g, proj) among the morphisms g into the target of an
    A-member with image img whose pullback projection proj is not in A."""
    for g in into:
        pre = frozenset(b for b in g.src.carrier if g(b) in img)
        if not pre:
            continue  # constant-free theories are outside the corpus
        _, proj = C.subalgebra_object(g.src, pre)
        if not A.contains(proj):
            return g, proj
    return None


def is_stably_in(C, f, A, probe_cap=None):
    """Whether every (existing) pullback of f lies in A.

    Returns (verdict, restricted, witness); verdict is over the pullbacks
    that exist, restricted=True when some cospan had none.
    """
    restricted = False
    probes = 0
    for g in C.morphisms_into(C.tgt(f)):
        if probe_cap is not None and probes >= probe_cap:
            return True, True, None
        probes += 1
        sq = try_pullback(C, f, g)
        if sq is None:
            restricted = True
            continue
        if not A.contains(sq.proj2):
            return False, restricted, (g, sq.proj2)
    return True, restricted, None


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
    for m in sorted(M.member_list(), key=_mor_key):
        if C.tgt(m) != x or C.is_iso(m):
            continue
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


def is_stably_extremal(C, f, M, probe_cap=None):
    """f and all its existing pullbacks are M-extremal."""
    ok, wit = is_extremal_wrt(C, [f], M)
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
    restricted = False
    probes = 0
    for g in C.morphisms_into(C.tgt(f)):
        if probe_cap is not None and probes >= probe_cap:
            return True, True, None
        probes += 1
        sq = try_pullback(C, f, g)
        if sq is None:
            restricted = True
            continue
        ok, wit = is_extremal_wrt(C, [sq.proj2], M)
        if not ok:
            return False, restricted, (g,) + wit
    return True, restricted, None


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


def _factor_search(C, E, M, f):
    """Least (e, m) with m.e = f, e in E, m in M, or None."""
    for e in C.morphisms_from(C.src(f)):
        if not E.contains(e):
            continue
        for m in C.hom(C.tgt(e), C.tgt(f)):
            if M.contains(m) and C.compose(m, e) == f:
                return (e, m)
    return None


@dataclass
class FactorizationSystem:
    """A validated orthogonal factorization system with its table of
    canonical (least-id) factorizations.

    Lazily enumerated categories can grow after validation; factorize then
    falls back to the canonical search and extends the table.
    """

    category: object
    E: MorphismClass
    M: MorphismClass
    table: dict
    stable_E: bool = True
    stable_M: bool = True
    restricted: bool = False

    def factorize(self, f):
        if f not in self.table:
            pair = _factor_search(self.category, self.E, self.M, f)
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


@dataclass
class FactorizationFailure:
    reason: str
    witness: tuple

    def __bool__(self):
        return False

    def to_json(self):
        return {"reason": self.reason, "witness": [str(x) for x in self.witness]}


def check_factorization_system(C, E, M, probe_cap=None):
    """Verify (E, M) is an orthogonal factorization system.

    Checks factorization existence, E = lifters-against-M, M = lifted-by-E,
    builds the canonical factorization table and reports stability of both
    classes.  Returns a FactorizationSystem or a FactorizationFailure with
    the least witness.
    """
    table = {}
    for f in C.morphisms():
        pair = _factor_search(C, E, M, f)
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


@dataclass
class RegularityReport:
    regular: bool
    witness: object = None
    restricted: bool = False

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
        found = False
        for e in C.morphisms_from(C.src(f)):
            if e not in see:
                continue
            for m in C.hom(C.tgt(e), C.tgt(f)):
                if monos.contains(m) and C.compose(m, e) == f:
                    found = True
                    break
            if found:
                break
        if not found:
            return RegularityReport(False, f, restricted)
    return RegularityReport(True, None, restricted)
