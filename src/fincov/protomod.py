"""The relative protomodularity condition for a pair of morphism classes,
its equivalent rectangle formulation, and transport along jointly
conservative pullback-preserving functors.

A counterexample is a commuting diagram built from two pullbacks in which
the middle comparison morphism satisfies every hypothesis but is not an
isomorphism.  One scan serves the definition, the rectangle form and the
mono-part cross-check; they differ in the theta range and in how e.beta is
let in.  Enumeration is (e, beta, theta)-lexicographic with canonical
pullback choices, so the reported counterexample is deterministic.  For
on-demand algebra ambients every form takes the scan anchored at the
initial object (the equivalent form with I replaced by 0) and the verdict
is "no violation within the size cap" rather than a proof; that scan
reads e.beta off the ambient's composite rows, one e per orbit.
"""

from __future__ import annotations

import itertools

from .fincat import PullbackSquare, mor_key, try_pullback, \
    verify_pullback_square
from .kernels import iso_saturated
from .morphclass import MorphismClass, _factor_search, builtin_class, \
    is_stably_extremal


class InternalConsistencyError(AssertionError):
    """The two formulations disagreed; one of the checkers is wrong."""


class ProtoDiagram:
    """The seven morphisms of a counterexample diagram plus its apexes."""

    def __init__(self, e, theta, m, p, beta, gamma, e_prime, m_prime, alpha,
                 apex, apex_prime):
        self.e = e
        self.theta = theta
        self.m = m                # pullback projection a -> b
        self.p = p                # pullback projection a -> I
        self.beta = beta
        self.gamma = gamma
        self.e_prime = e_prime
        self.m_prime = m_prime    # pullback projection a' -> b'
        self.alpha = alpha        # pullback projection a' -> a
        self.apex = apex
        self.apex_prime = apex_prime

    def to_json(self):
        return {k: str(getattr(self, k)) for k in
                ("e", "theta", "m", "p", "beta", "gamma", "e_prime",
                 "m_prime", "alpha", "apex", "apex_prime")}


class ProtoReport:
    def __init__(self, satisfied, counterexample=None, diagrams_checked=0,
                 restricted=False, scope="exhaustive", form="definition"):
        self.satisfied = satisfied
        self.counterexample = counterexample
        self.diagrams_checked = diagrams_checked
        # some cospans had no pullback and were skipped
        self.restricted = restricted
        self.scope = scope
        self.form = form

    def __bool__(self):
        return self.satisfied

    def to_json(self):
        return {"satisfied": self.satisfied,
                "counterexample": self.counterexample.to_json()
                if self.counterexample else None,
                "diagrams_checked": self.diagrams_checked,
                "restricted": self.restricted, "scope": self.scope,
                "form": self.form}


def _iso_saturation(C, E):
    """All gamma . e with e in E and gamma iso; explicit categories only."""
    sat = set()
    iso_out = {}
    for e in E.member_list():
        c = C.tgt(e)
        if c not in iso_out:
            iso_out[c] = [g for g in C.morphisms_from(c) if C.is_iso(g)]
        for g in iso_out[c]:
            sat.add(C.compose(g, e))
    return sat


def _extract_gamma(C, E, e_beta, c):
    """Concrete (gamma, e') with gamma iso into c, e' in E, gamma.e' = e.beta."""
    for gamma in sorted((g for g in C.morphisms_into(c) if C.is_iso(g)),
                        key=mor_key):
        e_pr = C.compose(C.iso_inverse(gamma), e_beta)
        if E.contains(e_pr):
            return gamma, e_pr
    raise AssertionError("saturation test passed but no witness found")


def check_protomodularity_pair(C, E, M):
    """Exhaustive scan of the defining diagram shape.

    Enumerates e in E, beta in M into src(e) with e.beta in the iso
    saturation of E, and every theta into tgt(e); builds the two canonical
    pullbacks and tests whether an isomorphic left projection forces beta
    isomorphic.  Returns the least counterexample diagram when the
    condition fails.
    """
    return _scan(C, E, M, "definition", _definition_plan)


def check_protomodularity_equivalent(C, E, M):
    """The rectangle formulation: e and e.beta in E directly (isomorphisms
    absorbed); theta anchored at the initial object when one exists."""
    return _scan(C, E, M, "rectangle", _rectangle_plan)


def check_protomodularity_mono_part(C, E, M):
    """Third cross-check: theta replaced by the monic part of its
    (mono, stably extremal epi) factorization, where that factorization
    exists; skipped thetas are counted as restricted."""
    return _scan(C, E, M, "mono-part", _mono_part_plan)


def _scan(C, E, M, form, plan):
    """The two-pullback scan behind every form.

    Algebra ambients take the anchored shortcut.  Otherwise ``plan(C, E)``
    gives (thetas, admits, witness): ``thetas(c)``, the theta range into
    the target c, where None is skipped as restricted; ``admits(eb)``,
    whether e.beta is let in; and ``witness(eb, c)``, the (gamma, e') of a
    counterexample.  Both pullbacks go through ``try_pullback``, so a
    cospan past an ambient's size cap is skipped as restricted, like one
    without a pullback.
    """
    if C.concrete:
        return _check_ambient(C, E, M, form=form)
    thetas_into, admits, witness = plan(C, E)
    count = 0
    restricted = False
    for e in sorted(E.member_list(), key=mor_key):
        b, c = C.src(e), C.tgt(e)
        thetas = thetas_into(c)
        for beta in sorted(C.morphisms_into(b), key=mor_key):
            if not M.contains(beta):
                continue
            eb = C.compose(e, beta)
            if not admits(eb):
                continue
            beta_iso = C.is_iso(beta)
            for theta in thetas:
                if theta is None:
                    restricted = True
                    continue
                sq1 = try_pullback(C, theta, e)
                if sq1 is None:
                    restricted = True
                    continue
                sq2 = try_pullback(C, sq1.proj2, beta)
                if sq2 is None:
                    restricted = True
                    continue
                count += 1
                if C.is_iso(sq2.proj1) and not beta_iso:
                    gamma, e_pr = witness(eb, c)
                    diag = ProtoDiagram(
                        e=e, theta=theta, m=sq1.proj2, p=sq1.proj1,
                        beta=beta, gamma=gamma, e_prime=e_pr,
                        m_prime=sq2.proj2, alpha=sq2.proj1,
                        apex=sq1.apex, apex_prime=sq2.apex)
                    return ProtoReport(False, diag, count, restricted,
                                       form=form)
    return ProtoReport(True, None, count, restricted, form=form)


def _thetas_into(C, c):
    return sorted(C.morphisms_into(c), key=mor_key)


def _definition_plan(C, E):
    """Every theta; e.beta up to an iso gamma in E."""
    sat = _iso_saturation(C, E)
    return (lambda c: _thetas_into(C, c), sat.__contains__,
            lambda eb, c: _extract_gamma(C, E, eb, c))


def _rectangle_plan(C, E):
    """The theta out of the initial object (every theta without one);
    e.beta itself in E."""
    initial = _initial_object(C)

    def thetas(c):
        if initial is None:
            return _thetas_into(C, c)
        return [C.hom(initial, c)[0]]
    return thetas, E.contains, lambda eb, c: (None, eb)


def _mono_part_plan(C, E):
    """The monic part of every theta, None where it has none, decided
    when ``thetas`` first asks for it: deciding one can register pullback
    apexes on an algebra ambient, and thetas out of them are asked for
    later.  e.beta as in the definition."""
    monos = builtin_class(C, "monos")
    mono_parts = {}

    def thetas(c):
        out = []
        for t in _thetas_into(C, c):
            if t not in mono_parts:
                mono_parts[t] = _mono_part(C, t, monos)
            out.append(mono_parts[t])
        return out
    _, admits, witness = _definition_plan(C, E)
    return thetas, admits, witness


def _mono_part(C, theta, monos):
    """m0 of theta = m0.e0, from the first stably extremal e0 out of
    src(theta) that admits a mono m0; None when there is none."""
    pair = _factor_search(
        C, lambda e0: is_stably_extremal(C, e0, monos)[0], monos.contains,
        theta, sorted(C.morphisms_from(C.src(theta)), key=mor_key))
    return pair and pair[1]


def _initial_object(C):
    for o in sorted(C.objects(), key=mor_key):
        if all(len(C.hom(o, z)) == 1 for z in C.objects()):
            return o
    return None


def _check_ambient(C, E, M, form):
    """Initial-object anchored scan over an algebra ambient.

    The kernel of e is the pullback of the unique theta: 0 -> c along e;
    beta is a violation when it restricts to a bijection between the
    kernels of e.beta and e without being bijective itself: for every
    value t of theta, beta maps {z : e(beta z) = t} bijectively onto
    {y : e(y) = t}.

    e.beta is read off the composite row of (src beta, e).  The
    candidate betas into each b (non-bijective M-members) are listed
    once, before the scan over e, per source with their positions in its
    hom set.  ``morphisms()`` and ``morphisms_into`` are in ``mor_key``
    order on an ambient, so the scan is too.  Raises ValueError when E is
    not closed under composition with isos (the automorphisms, roster
    objects being pairwise non-isomorphic), which the reduction of the
    definition form needs.  E then holds a . e exactly when it holds e,
    for a an automorphism of c, with the same betas passing and the
    kernels carried over by a: one e per left orbit is decided, the
    least, and the others count its diagrams.
    """
    I0 = C.initial()
    if I0 is None:
        raise ValueError("ambient protomodularity scan needs an initial object")
    index = C.composite_index()
    ms = index.morphisms
    in_E = list(map(E.contains, ms))
    reps = C.orbit_reps
    if reps and not iso_saturated(in_E, reps):
        raise ValueError("ambient scan needs an iso-saturated E")
    left = reps[1] if reps else range(len(ms))
    # per b and source A: the candidate betas in hom(A, b) with their
    # positions there
    candidates = {id(b): [(A, [(j, beta) for j, beta in enumerate(C.hom(A, b))
                               if M.contains(beta)
                               and not beta.is_bijective()])
                          for A in C.objects()] for b in C.objects()}
    scope = f"within size cap {C.size_cap}"
    count = 0
    passed = {}  # the least e of a left orbit -> its passing count
    for i in itertools.compress(range(len(ms)), in_E):
        if left[i] != i:
            count += passed[left[i]]
            continue
        # the definition form asks for an iso gamma with gamma^-1.e.beta in
        # E; E is iso-saturated here, so that reduces to e.beta in E
        e, passing = ms[i], []
        for A, betas in candidates[id(e.src)]:
            if betas:
                col = C.composites(A, e)
                span = index.spans[id(A), id(e.tgt)]
                passing += [(span[col[j]], beta) for j, beta in betas
                            if in_E[span[col[j]]]]
        passed[i] = len(passing)
        if not passing:
            continue
        theta = C.hom(I0, e.tgt)[0]
        fibres = [(t, e.images.count(t)) for t in set(theta.images)]
        for k, (eb, beta) in enumerate(passing):
            for t, size in fibres:
                onto = [y for y in beta.images if e.images[y] == t]
                if len(onto) != size or len(set(onto)) != size:
                    break
            else:
                count += k + 1
                diag = ProtoDiagram(
                    e=e, theta=theta, m=None, p=None, beta=beta,
                    gamma=None, e_prime=ms[eb], m_prime=None, alpha=None,
                    apex=f"ker({mor_key(e)})",
                    apex_prime=f"ker({mor_key(ms[eb])})")
                return ProtoReport(False, diag, count, False, scope=scope,
                                   form=form)
        count += len(passing)
    return ProtoReport(True, None, count, False, scope=scope, form=form)


def cross_validate_protomodularity(C, E, M):
    """Run both formulations; they must agree (Remark equivalence)."""
    pair = check_protomodularity_pair(C, E, M)
    equiv = check_protomodularity_equivalent(C, E, M)
    if pair.satisfied != equiv.satisfied:
        raise InternalConsistencyError(
            f"formulations disagree on ({E.name}, {M.name}): "
            f"definition={pair.satisfied} rectangle={equiv.satisfied}")
    return pair, equiv


# ---------------------------------------------------------------------------
# transport along jointly conservative pullback-preserving functors
# ---------------------------------------------------------------------------

class TransportReport:
    def __init__(self, E_prime, M_prime, verdict, precondition_failure=None):
        self.E_prime = E_prime
        self.M_prime = M_prime
        self.verdict = verdict
        self.precondition_failure = precondition_failure

    def to_json(self):
        return {"ok": self.precondition_failure is None,
                "precondition_failure":
                    [str(x) for x in self.precondition_failure]
                    if self.precondition_failure else None,
                "verdict": self.verdict.to_json() if self.verdict else None}


def preserves_pullbacks(F):
    """Exhaustively check that F sends canonical pullback squares to
    pullback squares; returns (ok, witness cospan)."""
    C, D = F.source, F.target
    for f in C.morphisms():
        for g in C.morphisms_into(C.tgt(f)):
            sq = C.find_pullback(f, g)
            if sq is None:
                continue
            p1 = F.on_mor(sq.proj1)
            image = PullbackSquare(D, F.on_mor(f), F.on_mor(g), D.src(p1),
                                   p1, F.on_mor(sq.proj2))
            if not verify_pullback_square(D, image):
                return False, (f, g)
    return True, None


def jointly_conservative(functors):
    """Every morphism with all images iso must be iso; (ok, witness)."""
    C = functors[0].source
    for m in C.morphisms():
        if C.is_iso(m):
            continue
        if all(F.target.is_iso(F.on_mor(m)) for F in functors):
            return False, m
    return True, None


def transport_classes(functors, pairs):
    """Intersected preimage classes along a jointly conservative family of
    pullback-preserving functors, plus the protomodularity verdict."""
    if len(functors) != len(pairs) or not functors:
        raise ValueError("need one (E_i, M_i) pair per functor")
    C = functors[0].source
    for F in functors:
        err = F.validate()
        if err is not None:
            return TransportReport(None, None, None,
                                   ("functoriality", F.name) + err)
        ok, wit = preserves_pullbacks(F)
        if not ok:
            return TransportReport(None, None, None,
                                   ("pullback preservation", F.name, wit))
    ok, wit = jointly_conservative(functors)
    if not ok:
        return TransportReport(None, None, None,
                               ("joint conservativity", wit))
    e_members = []
    m_members = []
    for m in C.morphisms():
        if all(E.contains(F.on_mor(m)) for F, (E, _) in zip(functors, pairs)):
            e_members.append(m)
        if all(M.contains(F.on_mor(m)) for F, (_, M) in zip(functors, pairs)):
            m_members.append(m)
    E_prime = MorphismClass(C, "E'", members=e_members)
    M_prime = MorphismClass(C, "M'", members=m_members)
    verdict = check_protomodularity_pair(C, E_prime, M_prime)
    return TransportReport(E_prime, M_prime, verdict)
