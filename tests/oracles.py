"""Independent brute-force oracle over the JSON category form.

Deliberately shares no code with the package: plain dict lookups and
triple loops, used to cross-check mono/epi/iso flags, pullback universal
properties, orthogonality and extremality on small categories, and to
rebuild a poset's table by the all-pairs closure fixpoint.

The second half is a reference lane for the enumeration kernels: plain
loops over the kernels' table arguments (``comp`` rows indexed
``comp[g][f]``, ``src``, ``tgt``, per-pair hom sets ``homs``).  Their
loop order is the witness-order contract of ``fincov.kernels``: the
first violation these loops meet is the lexicographically least one, and
the kernel tests require the kernels to return exactly it.  Beside them
sits the explicit category's pullback search without its iso-leg
shortcut, through ``hom`` and ``compose`` alone.

The later sections are references over package categories: the variance
laws as plain per-morphism and per-pair loops, the covering enumeration
as generate and test, rule coverages enumerated type by type, and
compactness verdicts decided covering by covering.  They share only the
morphism sort order (``fincat.mor_key``), which is the order the
package's witnesses are defined by.  The last sections are plain-loop
references for table code: the ambient stability scan one hom at a time
and as the generic pullback scan, equations checked one assignment at a
time, the seeded inputs built by the all-pairs preorder fixpoint with
every candidate group rebuilt, image compatibility decided covering by
covering with nothing kept between coverings, and the three
protomodularity forms on explicit categories as one loop each.  Then
class members are listed and extremality decided with nothing kept
between calls.  Then algebra hom sets are enumerated and isomorphisms
searched one generator assignment at a time, and again as numpy grids.
Then the operation tables of derived algebras (pair pullbacks,
subalgebras, quotients) are built one entry at a time.  The next section
rebuilds the algebra ambient's composite index with numpy and runs the
anchored protomodularity scan over it.  The last one finds automorphism
orbit representatives by applying every automorphism.  Of the tests,
only this module imports numpy.
"""

from collections import namedtuple

from fincov.fincat import mor_key, try_pullback
from fincov.protomod import ProtoDiagram, ProtoReport


class RawCat:
    def __init__(self, data):
        self.objects = list(data["objects"])
        self.src = {}
        self.tgt = {}
        for m in data["morphisms"]:
            self.src[m["id"]] = m["src"]
            self.tgt[m["id"]] = m["tgt"]
        self.ident = dict(data["identities"])
        self.comp = {(g, f): gf for g, f, gf in data["composition"]}
        self.morphisms = sorted(self.src)

    def hom(self, a, b):
        return [m for m in self.morphisms
                if self.src[m] == a and self.tgt[m] == b]


def is_mono(cat, f):
    for u in cat.morphisms:
        for v in cat.morphisms:
            if cat.tgt[u] != cat.src[f] or cat.tgt[v] != cat.src[f]:
                continue
            if cat.src[u] != cat.src[v]:
                continue
            if cat.comp[(f, u)] == cat.comp[(f, v)] and u != v:
                return False
    return True


def is_epi(cat, f):
    for u in cat.morphisms:
        for v in cat.morphisms:
            if cat.src[u] != cat.tgt[f] or cat.src[v] != cat.tgt[f]:
                continue
            if cat.tgt[u] != cat.tgt[v]:
                continue
            if cat.comp[(u, f)] == cat.comp[(v, f)] and u != v:
                return False
    return True


def is_iso(cat, f):
    for g in cat.hom(cat.tgt[f], cat.src[f]):
        if cat.comp[(g, f)] == cat.ident[cat.src[f]] and \
           cat.comp[(f, g)] == cat.ident[cat.tgt[f]]:
            return True
    return False


def is_section(cat, f):
    return any(cat.comp[(r, f)] == cat.ident[cat.src[f]]
               for r in cat.hom(cat.tgt[f], cat.src[f]))


def is_retraction(cat, f):
    return any(cat.comp[(f, s)] == cat.ident[cat.tgt[f]]
               for s in cat.hom(cat.tgt[f], cat.src[f]))


def cones(cat, f, g):
    out = []
    for p in cat.morphisms:
        if cat.tgt[p] != cat.src[f]:
            continue
        for q in cat.morphisms:
            if cat.tgt[q] != cat.src[g] or cat.src[q] != cat.src[p]:
                continue
            if cat.comp[(f, p)] == cat.comp[(g, q)]:
                out.append((p, q))
    return out


def is_pullback(cat, f, g, p1, p2):
    if cat.comp[(f, p1)] != cat.comp[(g, p2)]:
        return False
    w = cat.src[p1]
    for p, q in cones(cat, f, g):
        hits = [h for h in cat.hom(cat.src[p], w)
                if cat.comp[(p1, h)] == p and cat.comp[(p2, h)] == q]
        if len(hits) != 1:
            return False
    return True


def all_pullbacks(cat, f, g):
    return [(p, q) for p, q in cones(cat, f, g) if is_pullback(cat, f, g, p, q)]


def orthogonal(cat, e, m):
    for u in cat.hom(cat.src[e], cat.src[m]):
        for v in cat.hom(cat.tgt[e], cat.tgt[m]):
            if cat.comp[(m, u)] != cat.comp[(v, e)]:
                continue
            lifts = [h for h in cat.hom(cat.tgt[e], cat.src[m])
                     if cat.comp[(h, e)] == u and cat.comp[(m, h)] == v]
            if len(lifts) != 1:
                return False
    return True


def extremal_wrt(cat, f, members):
    for m in members:
        if cat.tgt[m] != cat.tgt[f] or is_iso(cat, m):
            continue
        if any(cat.comp[(m, g)] == f
               for g in cat.hom(cat.src[f], cat.src[m])):
            return False
    return True


# ---------------------------------------------------------------------------
# reference poset table (all-pairs fixpoint)
# ---------------------------------------------------------------------------

def poset_json(elements, le_pairs):
    """The JSON form of the thin category of a partial order, closed by
    the all-pairs fixpoint and composed over all pairs of relations.
    Raises ValueError at the least pair (a, b) with a != b, a <= b and
    b <= a.  The reference for ``instances.poset_category``."""
    elems = sorted(str(x) for x in elements)
    le = {(x, x) for x in elems}
    le |= {(str(a), str(b)) for a, b in le_pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    for a, b in sorted(le):
        if a != b and (b, a) in le:
            raise ValueError(f"relation is not antisymmetric at ({a}, {b})")
    composition = []
    for a, b in le:
        for c, d in le:
            if b == c:
                composition.append([f"{c}<{d}", f"{a}<{b}", f"{a}<{d}"])
    arrows = sorted((f"{a}<{b}", a, b) for a, b in le)
    return {"objects": elems,
            "morphisms": [{"id": m, "src": a, "tgt": b}
                          for m, a, b in arrows],
            "identities": {a: f"{a}<{a}" for a in elems},
            "composition": sorted(composition)}


# ---------------------------------------------------------------------------
# reference lane over dense tables
# ---------------------------------------------------------------------------

def _hom_list(homs, nobj, a, b):
    return [int(x) for x in homs[int(a) * nobj + int(b)]]


def first_composability_violation(comp, src, tgt):
    n = len(comp)
    for g in range(n):
        for f in range(n):
            gf = comp[g][f]
            if tgt[f] == src[g]:
                if gf < 0:
                    return g, f, "missing"
                if src[gf] != src[f] or tgt[gf] != tgt[g]:
                    return g, f, "endpoints"
            elif gf >= 0:
                return g, f, "spurious"
    return None


def first_identity_violation(comp, src, tgt, ident):
    n = len(comp)
    for f in range(n):
        if comp[ident[tgt[f]]][f] != f:
            return f, "left"
    for f in range(n):
        if comp[f][ident[src[f]]] != f:
            return f, "right"
    return None


def first_assoc_violation(comp):
    n = len(comp)
    for f in range(n):
        for g in range(n):
            gf = comp[g][f]
            if gf < 0:
                continue
            for h in range(n):
                hg = comp[h][g]
                if hg < 0:
                    continue
                if comp[h][gf] != comp[hg][f]:
                    return f, g, h
    return None


def mono_epi_flags(comp, src, tgt, homs, nobj):
    n = len(comp)
    mono = [1] * n
    epi = [1] * n
    for f in range(n):
        for z in range(nobj):
            us = _hom_list(homs, nobj, z, src[f])
            if len({int(comp[f][u]) for u in us}) != len(us):
                mono[f] = 0
            vs = _hom_list(homs, nobj, tgt[f], z)
            if len({int(comp[v][f]) for v in vs}) != len(vs):
                epi[f] = 0
    return mono, epi


def lift_report(comp, src, tgt, homs, nobj, e, m):
    A, B, X, Y = src[e], tgt[e], src[m], tgt[m]
    for u in _hom_list(homs, nobj, A, X):
        for v in _hom_list(homs, nobj, B, Y):
            if comp[v][e] != comp[m][u]:
                continue
            cnt = sum(1 for h in _hom_list(homs, nobj, B, X)
                      if comp[h][e] == u and comp[m][h] == v)
            if cnt != 1:
                return 0, u, v, cnt
    return 1, -1, -1, 1


def commuting_spans(comp, src, tgt, homs, nobj, f, g):
    ps, qs = [], []
    for w in range(nobj):
        for p in _hom_list(homs, nobj, w, src[f]):
            for q in _hom_list(homs, nobj, w, src[g]):
                if comp[g][q] == comp[f][p]:
                    ps.append(p)
                    qs.append(q)
    return ps, qs


def pullback_search(C, f, g, verified=None):
    """``FinCategory.find_pullback`` without its iso-leg shortcut, through
    ``C.hom`` and ``C.compose`` alone: the cones (p, q) of the cospan in
    (apex object, p, q) order, and the first of them whose apex w passes
    the cone-count filter (|hom(z, w)| is the number of cones out of z,
    for every z) and that is terminal among all cones.  Appends each span
    it tests for terminality to ``verified``.  Returns (apex, proj1,
    proj2, {cone: mediator}), or None when the cospan has no pullback."""
    a, b = C.src(f), C.src(g)
    cones = [(p, q) for z in C.objects() for p in C.hom(z, a)
             for q in C.hom(z, b) if C.compose(f, p) == C.compose(g, q)]
    count = {z: 0 for z in C.objects()}
    for p, _ in cones:
        count[C.src(p)] += 1
    for p1, p2 in cones:
        w = C.src(p1)
        if any(len(C.hom(z, w)) != k for z, k in count.items()):
            continue
        if verified is not None:
            verified.append((p1, p2))
        meds = {}
        for p, q in cones:
            hits = [h for h in C.hom(C.src(p), w)
                    if C.compose(p1, h) == p and C.compose(p2, h) == q]
            if len(hits) != 1:
                break
            meds[p, q] = hits[0]
        else:
            return w, p1, p2, meds
    return None


# ---------------------------------------------------------------------------
# reference scan of ambient protomodularity
# ---------------------------------------------------------------------------

def ambient_protomodularity(C, E, M):
    """The initial-object anchored scan over an algebra ambient as plain
    loops: e in E and the betas into src(e) in key order, each list
    sorted where it is used, and e.beta composed per pair.  Its order is
    the witness-order contract of ``protomod.check_protomodularity_pair``
    on ambients.  Returns (satisfied, (e, theta, beta, e.beta) or None,
    diagrams checked)."""
    I0 = C.initial()
    count = 0
    for e in sorted((m for m in C.morphisms() if E.contains(m)),
                    key=mor_key):
        b, c = e.src, e.tgt
        theta = C.hom(I0, c)[0]
        ker_e = {(u, y) for u in I0.carrier for y in b.carrier
                 if theta(u) == e(y)}
        for beta in sorted(C.morphisms_into(b), key=mor_key):
            if not M.contains(beta) or beta.is_bijective():
                continue
            eb = C.compose(e, beta)
            if not E.contains(eb):
                continue
            count += 1
            ker_eb = [(u, z) for u in I0.carrier for z in beta.src.carrier
                      if theta(u) == eb(z)]
            image = {(u, beta(z)) for u, z in ker_eb}
            if len(image) == len(ker_eb) and image == ker_e:
                return False, (e, theta, beta, eb), count
    return True, None, count


# ---------------------------------------------------------------------------
# reference variance laws
# ---------------------------------------------------------------------------

def unique_factorizations(C, first, second):
    """f -> (a, b) with f = b.a, a in `first`, b in `second`, found per f
    by scanning both classes; None with the first f in ``morphisms()``
    order that has zero or several factorizations, and their count.  The
    reference for ``variance._unique_factorizations``."""
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


def mixed_functor_violation(F):
    """None when F is a functor of its variance, else (law, witness): the
    totality, stage-endpoint and identity checks, then both hexagon paths
    composed in the target for every composable pair (g, f) in order.
    The reference for ``variance.validate_mixed_functor``."""
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


# ---------------------------------------------------------------------------
# reference covering enumeration (generate and test)
# ---------------------------------------------------------------------------

def type_coverings(C, c, dt, M):
    """Every M-subordinated mixed functor I -> C/c of the diagram type as
    plain loops: the product of M-legs over the sorted index objects, then
    the product of the triangles over the sorted non-identity arrows, each
    candidate kept when ``mixed_functor_violation`` accepts it.  Its order
    is the covering-order contract of ``coverage.RuleCoverage``."""
    import itertools

    from fincov.coverage import Covering
    from fincov.fincat import slice_view
    from fincov.variance import MixedFunctor
    I = dt.I
    sl = slice_view(C, c)
    legs = [m for m in sorted(C.morphisms_into(c), key=mor_key)
            if M.contains(m)]
    objs = sorted(I.objects())
    non_id = [k for k in sorted(I.morphisms()) if not I.is_identity(k)]
    out = []
    for assignment in itertools.product(legs, repeat=len(objs)):
        obj_map = dict(zip(objs, assignment))
        cands = []
        for k in non_id:
            ks, kt = dt.variance.source_stage(k), dt.variance.target_stage(k)
            p, q = obj_map[ks], obj_map[kt]
            cs = [h for h in C.hom(C.src(p), C.src(q))
                  if C.compose(q, h) == p]
            if not cs:
                break
            cands.append(sorted(cs, key=mor_key))
        else:
            for combo in itertools.product(*cands):
                mor_map = {I.identity(o): sl.identity(obj_map[o])
                           for o in objs}
                for k, h in zip(non_id, combo):
                    ks = dt.variance.source_stage(k)
                    kt = dt.variance.target_stage(k)
                    mor_map[k] = (h, obj_map[ks], obj_map[kt])
                F = MixedFunctor(dt.variance, sl, obj_map, mor_map)
                if mixed_functor_violation(F) is None:
                    out.append(Covering(C, c, dt, F))
    return out


def rule_coverings(C, c, J, M, cap=None):
    """The coverings of ``RuleCoverage(J, M).coverings_of(C, c, cap)``:
    ``type_coverings`` of each diagram type in J order, enumerated afresh
    per type, cut once cap coverings are listed.  Returns (list, capped)."""
    out = []
    for dt in J:
        for cov in type_coverings(C, c, dt, M):
            out.append(cov)
            if cap is not None and len(out) >= cap:
                return out, True
    return out, False


def tau_compact(C, c, J, M, cap=None):
    """The ``to_json()`` of ``decide_tau_compact`` for ``RuleCoverage(J,
    M)``: over ``rule_coverings``, each covering's least stabilizing small
    decided from the definition (every F(k) on a composable pair
    i0 -> i -> j of the index is an iso), nothing kept between coverings.
    """
    covs, capped = rule_coverings(C, c, J, M, cap)
    flags = set()
    for cov in covs:
        if not cov.diagram_type.smalls:
            flags.add("empty-smalls")
        if not cov.diagram_type.directed:
            flags.add("non-directed-smalls")
    out = {"compact": None if capped else True, "witnesses": [],
           "failing": None, "enumerated": len(covs), "capped": capped,
           "flags": sorted(flags)}
    for cov in covs:
        I = cov.diagram_type.I
        small = None
        for i0 in sorted(cov.diagram_type.smalls):
            if all(C.is_iso(cov.functor.mor_map[k][0])
                   for l in I.morphisms() if I.src(l) == i0
                   for k in I.morphisms() if I.src(k) == I.tgt(l)):
                small = i0
                break
        if small is None:
            out["compact"] = False
            out["failing"] = cov.to_json()
            return out
        out["witnesses"].append([str(cov.key()), str(small)])
    return out


# ---------------------------------------------------------------------------
# closed forms on finite spaces (point bitmasks)
# ---------------------------------------------------------------------------

def _space_families(n, opens, closed):
    """(sets, combine, goal): the nonempty opens with union and the whole
    space as goal, or the proper closed sets with intersection and the
    empty set as goal."""
    full = (1 << n) - 1
    if closed:
        def meet(fam):
            out = full
            for x in fam:
                out &= x
            return out
        return [full ^ u for u in opens if u], meet, 0

    def join(fam):
        out = 0
        for u in fam:
            out |= u
        return out
    return [u for u in opens if u], join, full


def space_covers(n, opens, closed=False):
    """Every family of nonempty opens whose union is the space, or of
    proper closed sets whose intersection is empty, as frozensets."""
    import itertools
    sets, combine, goal = _space_families(n, opens, closed)
    return {frozenset(fam) for r in range(len(sets) + 1)
            for fam in itertools.combinations(sets, r)
            if combine(fam) == goal}


def space_compact(n, opens, kappa, closed=False):
    """kappa-compactness of a finite space: every cover by nonempty opens
    has a subfamily of fewer than kappa members that still covers (closed:
    every family of closed sets with empty intersection has a subfamily of
    fewer than kappa members with empty intersection)."""
    import itertools
    _, combine, goal = _space_families(n, opens, closed)
    return all(any(combine(sub) == goal
                   for r in range(min(kappa, len(fam) + 1))
                   for sub in itertools.combinations(sorted(fam), r))
               for fam in space_covers(n, opens, closed))


def embedding_kinds(images, src_opens, tgt_opens, tgt_points):
    """(embedding, open embedding, closed embedding) for a continuous map
    of finite spaces given by its image tuple: an embedding is injective
    and every open of the source is the preimage of an open of the target;
    an open (closed) embedding also has an open (closed) image."""
    preimages = {sum(1 << x for x, y in enumerate(images) if v >> y & 1)
                 for v in tgt_opens}
    emb = len(set(images)) == len(images) and set(src_opens) <= preimages
    image = sum(1 << y for y in set(images))
    full = (1 << tgt_points) - 1
    return (emb, emb and image in tgt_opens,
            emb and full ^ image in tgt_opens)


# ---------------------------------------------------------------------------
# reference ambient stability scan
# ---------------------------------------------------------------------------

def first_unstable_pullback(C, A, img, into):
    """Least (g, proj) among the morphisms g in ``into`` whose pullback
    projection proj (the inclusion of the g-preimage of img) is not in A,
    one preimage and one ``subalgebra_object`` call per g.  The reference
    for ``AlgCategory.first_unstable_pullback``."""
    for g in into:
        pre = frozenset(b for b in g.src.carrier if g(b) in img)
        if not pre:
            continue
        _, proj = C.subalgebra_object(g.src, sum(1 << b for b in pre))
        if not A.contains(proj):
            return g, proj
    return None


def stability_scan(C, A):
    """The generic pullback scan of A's stability: every member f in
    morphism order, every g into its target, the canonical pullback
    through ``find_pullback``.  Returns (stable, least (f, g, proj2)),
    skipping the cospans without a pullback; no class facts, no image
    shortcut."""
    for f in C.morphisms():
        if not A.contains(f):
            continue
        for g in C.morphisms_into(C.tgt(f)):
            sq = try_pullback(C, f, g)
            if sq is not None and not A.contains(sq.proj2):
                return False, (f, g, sq.proj2)
    return True, None


# ---------------------------------------------------------------------------
# reference equation check
# ---------------------------------------------------------------------------

def eval_term(A, term, env):
    """The value of term in A under the assignment env, one ``A.apply``
    per operation: the reference for ``algkit.eval_term``."""
    head = term[0]
    if A.theory.has_symbol(head):
        args = [eval_term(A, t, env) for t in term[1:]]
        if len(args) != A.theory.arity(head):
            raise ValueError(f"arity mismatch at {head}")
        return A.apply(head, args)
    if term[1:]:
        raise ValueError(f"variable {head} applied to arguments")
    if head not in env:
        raise ValueError(f"unbound variable {head}")
    return env[head]


def equation_failure(A, vars_, lhs, rhs):
    """First assignment of vars_ in ``itertools.product`` order over A's
    carrier where lhs and rhs differ, evaluated one assignment at a time
    with ``eval_term`` above; None when the equation holds.  The
    reference for ``algkit.equation_failure``."""
    import itertools

    for vals in itertools.product(A.carrier, repeat=len(vars_)):
        env = dict(zip(vars_, vals))
        if eval_term(A, lhs, env) != eval_term(A, rhs, env):
            return vals
    return None


# ---------------------------------------------------------------------------
# reference seeded inputs
# ---------------------------------------------------------------------------

def random_category(seed, size_bounds=(4, 24), name=None):
    """``instances.random_category`` with its preorder closed by the
    all-pairs fixpoint and composed over all pairs of relations."""
    import random

    from fincov.fincat import FinCategory, product_category, \
        validate_category
    from fincov.instances import cyclic_group, group_category
    max_obj, max_mor = size_bounds
    rng = random.Random(seed)
    for _ in range(64):
        k = rng.randint(1, max_obj)
        density = rng.random() * 0.6
        rel = {(i, i) for i in range(k)}
        for i in range(k):
            for j in range(k):
                if i != j and rng.random() < density:
                    rel.add((i, j))
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        elems = [f"o{i}" for i in range(k)]
        morphisms = {f"r{a}>{b}": (f"o{a}", f"o{b}") for a, b in rel}
        identities = {f"o{i}": f"r{i}>{i}" for i in range(k)}
        composition = {}
        for a, b in rel:
            for c, d in rel:
                if b == c:
                    composition[(f"r{c}>{d}", f"r{a}>{b}")] = f"r{a}>{d}"
        cat = validate_category((elems, morphisms, identities, composition),
                                name=name or f"rand{seed}")
        assert isinstance(cat, FinCategory)
        if rng.random() < 0.3:
            g = group_category(cyclic_group(rng.choice([2, 3])))
            prod = product_category(cat, g, name=name or f"rand{seed}")
            if len(prod.morphisms()) <= max_mor:
                return prod
        if len(cat.morphisms()) <= max_mor:
            return cat
    return cat


def random_mixed_functor(seed):
    """``instances.random_mixed_functor`` with every Klein attempt building
    all four candidate groups and the chosen group's category, and every
    grid attempt drawing its target from ``random_category`` above."""
    import random

    from fincov.instances import cyclic_group, grid_variance, \
        group_category, klein_four_group, klein_variance, symmetric_group
    from fincov.variance import MixedFunctor, validate_mixed_functor

    def klein(rng):
        v = klein_variance()
        G = group_category(rng.choice(
            [cyclic_group(2), klein_four_group(), cyclic_group(4),
             symmetric_group(3, "S3")]))
        ident = G.identity("*")
        invol = [g for g in G.morphisms() if G.compose(g, g) == ident]
        x = rng.choice(invol)
        y = rng.choice([g for g in invol
                        if G.compose(g, x) == G.compose(x, g)])
        mor_map = {}
        for k in v.category.morphisms():
            c1, _ = v.factor_cov_contr(k)
            d1, _ = v.factor_contr_cov(k)
            gx = x if c1 == "g2" else ident
            hy = y if d1 == "g1" else ident
            mor_map[k] = G.compose(gx, hy)
        return MixedFunctor(v, G, {"*": "*"}, mor_map)

    def grid(rng):
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

    rng = random.Random(seed)
    for _ in range(400):
        F = klein(rng) if rng.random() < 0.25 else grid(rng)
        if F is not None and validate_mixed_functor(F) is None:
            return F
    raise AssertionError(f"no valid mixed functor found for seed {seed}")


# ---------------------------------------------------------------------------
# reference image compatibility (covering by covering)
# ---------------------------------------------------------------------------

def image_induced(C, FS, f, F):
    """``variance.image_induced`` with every lift found by its own scan of
    the hom set and every image functor built and validated anew."""
    from fincov.fincat import slice_view
    from fincov.variance import MixedFunctor, MixedNatTrans, \
        pushforward_functor, validate_mixed_functor
    V = F.variance
    I = V.category
    obj_map = {}
    comp_base = {}
    for i in I.objects():
        e_i, m_i = FS.factorize(C.compose(f, F.obj_map[i]))
        obj_map[i] = m_i
        comp_base[i] = e_i
    mor_map = {}
    for k in I.morphisms():
        ks, kt = V.source_stage(k), V.target_stage(k)
        u = C.compose(comp_base[kt], F.mor_map[k][0])
        lifts = [h for h in C.hom(C.src(obj_map[ks]), C.src(obj_map[kt]))
                 if C.compose(h, comp_base[ks]) == u
                 and C.compose(obj_map[kt], h) == obj_map[ks]]
        assert len(lifts) == 1, k
        mor_map[k] = (lifts[0], obj_map[ks], obj_map[kt])
    G = MixedFunctor(V, slice_view(C, C.tgt(f)), obj_map, mor_map,
                     name=f"{f}!{F.name}")
    assert validate_mixed_functor(G) is None
    push = pushforward_functor(C, f, F)
    eta = MixedNatTrans(push, G, {i: (comp_base[i], push.obj_map[i],
                                      obj_map[i]) for i in I.objects()})
    assert eta.validate() is None
    return G, eta


def search_compatible(C, f, cov, tau, E, M, cap):
    """Some subordinated covering of tgt(f) of the same type receives an
    E-component transformation from the pushforward: every target
    covering re-fetched, re-filtered and its candidates rescanned for
    each covering, combinations in product order."""
    import itertools

    from fincov.coverage import check_subordination
    from fincov.variance import MixedNatTrans, pushforward_functor
    push = pushforward_functor(C, f, cov.functor)
    targets, _ = tau.coverings_of(C, C.tgt(f), cap=cap)
    for gcov in targets:
        if gcov.diagram_type != cov.diagram_type:
            continue
        if not check_subordination(gcov, M)[0]:
            continue
        per_obj = []
        for i in sorted(cov.diagram_type.I.objects()):
            p, q = push.obj_map[i], gcov.functor.obj_map[i]
            cands = [h for h in C.hom(C.src(p), C.src(q))
                     if C.compose(q, h) == p and E.contains(h)]
            if not cands:
                break
            per_obj.append((i, sorted(cands, key=mor_key)))
        else:
            names = [i for i, _ in per_obj]
            for combo in itertools.product(*[cs for _, cs in per_obj]):
                comps = {i: (h, push.obj_map[i], gcov.functor.obj_map[i])
                         for i, h in zip(names, combo)}
                if MixedNatTrans(push, gcov.functor, comps).validate() \
                        is None:
                    return True
    return False


def image_compatibility(C, f, tau, E, M, FS=None, cap=None):
    """``coverage.check_image_compatibility`` without its memo, one
    covering at a time: the image covering when FS is given, else (or
    when it fails) the search.  The reference for
    ``coverage._image_compatibility``."""
    from fincov.coverage import CompatibilityReport, Covering, \
        check_subordination
    covs, capped = tau.coverings_of(C, C.src(f), cap=cap)
    checked = 0
    for cov in covs:
        checked += 1
        ok = False
        if FS is not None:
            G, eta = image_induced(C, FS, f, cov.functor)
            gcov = Covering(C, C.tgt(f), cov.diagram_type, G, cov.flags)
            ok = all(E.contains(comp[0])
                     for comp in eta.components.values()) \
                and check_subordination(gcov, M)[0] \
                and tau.contains(C, gcov)
        if not ok:
            ok = search_compatible(C, f, cov, tau, E, M, cap)
        if not ok:
            return CompatibilityReport(False, (cov.key(),), checked, capped)
    if capped:
        return CompatibilityReport(None, (), checked, True)
    return CompatibilityReport(True, (), checked, False)


# ---------------------------------------------------------------------------
# reference protomodularity forms on explicit categories
# ---------------------------------------------------------------------------

# The three forms as separate plain loops, one per form, over explicit
# categories.  They share the package's report types, so reports compare
# whole.


def _iso_saturation(C, E):
    return {C.compose(g, e) for e in E.member_list()
            for g in C.morphisms_from(C.tgt(e)) if C.is_iso(g)}


def _extract_gamma(C, E, e_beta, c):
    for gamma in sorted(C.morphisms_into(c), key=mor_key):
        if C.is_iso(gamma):
            e_pr = C.compose(C.iso_inverse(gamma), e_beta)
            if E.contains(e_pr):
                return gamma, e_pr
    raise AssertionError("saturation test passed but no witness found")


def _initial_object(C):
    for o in sorted(C.objects()):
        if all(len(C.hom(o, z)) == 1 for z in C.objects()):
            return o
    return None


def protomodularity_definition(C, E, M):
    """The definition: every theta, e.beta = gamma.e' with gamma iso."""
    sat = _iso_saturation(C, E)
    count = 0
    restricted = False
    for e in sorted(E.member_list(), key=mor_key):
        b, c = C.src(e), C.tgt(e)
        thetas = sorted(C.morphisms_into(c), key=mor_key)
        for beta in sorted(C.morphisms_into(b), key=mor_key):
            if not M.contains(beta):
                continue
            if C.compose(e, beta) not in sat:
                continue
            beta_iso = C.is_iso(beta)
            for theta in thetas:
                sq1 = C.find_pullback(theta, e)
                if sq1 is None:
                    restricted = True
                    continue
                sq2 = C.find_pullback(sq1.proj2, beta)
                if sq2 is None:
                    restricted = True
                    continue
                count += 1
                if C.is_iso(sq2.proj1) and not beta_iso:
                    gamma, e_pr = _extract_gamma(C, E, C.compose(e, beta), c)
                    diag = ProtoDiagram(
                        e=e, theta=theta, m=sq1.proj2, p=sq1.proj1,
                        beta=beta, gamma=gamma, e_prime=e_pr,
                        m_prime=sq2.proj2, alpha=sq2.proj1,
                        apex=sq1.apex, apex_prime=sq2.apex)
                    return ProtoReport(False, diag, count, restricted,
                                       form="definition")
    return ProtoReport(True, None, count, restricted, form="definition")


def protomodularity_rectangle(C, E, M):
    """The rectangle form: e.beta in E; theta out of the initial object,
    every theta without one."""
    initial = _initial_object(C)
    count = 0
    restricted = False
    for e in sorted(E.member_list(), key=mor_key):
        b, c = C.src(e), C.tgt(e)
        if initial is not None:
            thetas = [C.hom(initial, c)[0]]
        else:
            thetas = sorted(C.morphisms_into(c), key=mor_key)
        for beta in sorted(C.morphisms_into(b), key=mor_key):
            if not M.contains(beta):
                continue
            if not E.contains(C.compose(e, beta)):
                continue
            beta_iso = C.is_iso(beta)
            for theta in thetas:
                sq1 = C.find_pullback(theta, e)
                if sq1 is None:
                    restricted = True
                    continue
                sq2 = C.find_pullback(sq1.proj2, beta)
                if sq2 is None:
                    restricted = True
                    continue
                count += 1
                if C.is_iso(sq2.proj1) and not beta_iso:
                    diag = ProtoDiagram(
                        e=e, theta=theta, m=sq1.proj2, p=sq1.proj1,
                        beta=beta, gamma=None, e_prime=C.compose(e, beta),
                        m_prime=sq2.proj2, alpha=sq2.proj1,
                        apex=sq1.apex, apex_prime=sq2.apex)
                    return ProtoReport(False, diag, count, restricted,
                                       form="rectangle")
    return ProtoReport(True, None, count, restricted, form="rectangle")


def protomodularity_mono_part(C, E, M):
    """The mono-part form: theta replaced by its monic part, None
    (restricted) where it has none."""
    from fincov.morphclass import builtin_class, is_stably_extremal
    monos = builtin_class(C, "monos")
    mono_parts = {}
    for theta in C.morphisms():
        part = None
        for e0 in sorted(C.morphisms_from(C.src(theta)), key=mor_key):
            ok, _, _ = is_stably_extremal(C, e0, monos)
            if not ok:
                continue
            for m0 in C.hom(C.tgt(e0), C.tgt(theta)):
                if monos.contains(m0) and C.compose(m0, e0) == theta:
                    part = m0
                    break
            if part:
                break
        mono_parts[theta] = part
    sat = _iso_saturation(C, E)
    count = 0
    restricted = False
    for e in sorted(E.member_list(), key=mor_key):
        b, c = C.src(e), C.tgt(e)
        for beta in sorted(C.morphisms_into(b), key=mor_key):
            if not M.contains(beta):
                continue
            if C.compose(e, beta) not in sat:
                continue
            beta_iso = C.is_iso(beta)
            for theta in sorted(C.morphisms_into(c), key=mor_key):
                anchor = mono_parts[theta]
                if anchor is None:
                    restricted = True
                    continue
                sq1 = C.find_pullback(anchor, e)
                if sq1 is None:
                    restricted = True
                    continue
                sq2 = C.find_pullback(sq1.proj2, beta)
                if sq2 is None:
                    restricted = True
                    continue
                count += 1
                if C.is_iso(sq2.proj1) and not beta_iso:
                    gamma, e_pr = _extract_gamma(C, E, C.compose(e, beta), c)
                    diag = ProtoDiagram(
                        e=e, theta=anchor, m=sq1.proj2, p=sq1.proj1,
                        beta=beta, gamma=gamma, e_prime=e_pr,
                        m_prime=sq2.proj2, alpha=sq2.proj1,
                        apex=sq1.apex, apex_prime=sq2.apex)
                    return ProtoReport(False, diag, count, restricted,
                                       form="mono-part")
    return ProtoReport(True, None, count, restricted, form="mono-part")


# ---------------------------------------------------------------------------
# class members and extremality, nothing kept
# ---------------------------------------------------------------------------
# Membership is asked of the class's own member set or predicate, and the
# members are listed again for every question.  Extremality is the
# generic factor search, so these serve explicit categories and ambient
# classes that are not all injective.


def member_list(A):
    """Explicit members sorted by mor_key; predicate members in the order
    of the category's morphisms."""
    if A.members is not None:
        return tuple(sorted(A.members, key=mor_key))
    return tuple(m for m in A.category.morphisms() if A.predicate(m))


def is_extremal_wrt(C, family, M):
    """The least non-iso M-member m into the common target through which
    every f of the family factors, with the least factors; (True, None)
    when there is none."""
    x = C.tgt(family[0])
    for m in sorted(member_list(M), key=mor_key):
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
    """f and its pullbacks along the morphisms into its target (at most
    probe_cap of them) are M-extremal; (verdict, restricted, witness)."""
    ok, wit = is_extremal_wrt(C, [f], M)
    if not ok:
        return False, False, wit
    restricted = False
    for probes, g in enumerate(C.morphisms_into(C.tgt(f))):
        if probe_cap is not None and probes >= probe_cap:
            return True, True, None
        sq = try_pullback(C, f, g)
        if sq is None:
            restricted = True
            continue
        ok, wit = is_extremal_wrt(C, [sq.proj2], M)
        if not ok:
            return False, restricted, (g,) + wit
    return True, restricted, None


# ---------------------------------------------------------------------------
# algebra hom sets and isomorphisms, one assignment at a time
# ---------------------------------------------------------------------------
# Each generator assignment is replayed along the generating trace in
# Python and its validity tested as one hom; the element profile is
# computed again for every search.


def replay(A, B, trace, assign):
    """The map A -> B sending generator i to assign[i] and extended along
    the production trace of A (which produces each element once)."""
    from fincov.algkit import AlgHom
    img = {}
    for entry in trace:
        if entry[0] == "const":
            img[entry[2]] = B.apply(entry[1], [])
        elif entry[0] == "gen":
            img[entry[2]] = assign[entry[1]]
        else:
            _, s, args, v = entry
            img[v] = B.apply(s, [img[x] for x in args])
    return AlgHom(A, B, tuple(img[x] for x in A.carrier))


def enumerate_homs(A, B):
    """All homomorphisms A -> B, sorted by image tuple."""
    import itertools

    from fincov.algkit import generating_trace
    gens, trace = generating_trace(A)
    out = [h for h in (replay(A, B, trace, assign) for assign in
                       itertools.product(B.carrier, repeat=len(gens)))
           if h.is_valid()]
    out.sort(key=lambda h: h.images)
    return out


def hom_rows(A, B):
    """The image tuples of ``enumerate_homs``."""
    return [h.images for h in enumerate_homs(A, B)]


def element_profile(A):
    """Per-element colours refined three times through the tables."""
    colors = [0] * A.size
    for _ in range(3):
        sigs = []
        for x in A.carrier:
            sig = [colors[x]]
            for s, a in A.theory.symbols:
                if a == 0:
                    sig.append(int(A.apply(s, []) == x))
                elif a == 1:
                    sig.append(colors[A.apply(s, [x])])
                elif a == 2:
                    sig.append(tuple(sorted(colors[A.apply(s, [x, y])]
                                            for y in A.carrier)))
                    sig.append(tuple(sorted(colors[A.apply(s, [y, x])]
                                            for y in A.carrier)))
            sigs.append(tuple(sig))
        relabel = {}
        for sig in sorted(set(sigs)):
            relabel[sig] = len(relabel)
        colors = [relabel[s] for s in sigs]
    return colors


def find_isomorphism(A, B):
    """First bijective hom A -> B in the product order of the generators'
    same-colour choices, or None."""
    import itertools

    from fincov.algkit import generating_trace
    if A.size != B.size:
        return None
    ca, cb = element_profile(A), element_profile(B)
    if sorted(ca) != sorted(cb):
        return None
    gens, trace = generating_trace(A)
    by_color = {}
    for y in B.carrier:
        by_color.setdefault(cb[y], []).append(y)
    for assign in itertools.product(*[by_color.get(ca[g], ()) for g in gens]):
        h = replay(A, B, trace, assign)
        if h.is_bijective() and h.is_valid():
            return h
    return None


def coequalizes_universally(C, p1, p2, e):
    """Whether e coequalizes (p1, p2) universally: every d with
    d.p1 = d.p2 is h.e for exactly one h, one composite at a time."""
    if C.compose(e, p1) != C.compose(e, p2):
        return False
    for d in C.morphisms_from(C.tgt(p1)):
        if C.compose(d, p1) == C.compose(d, p2) and sum(
                C.compose(h, e) == d
                for h in C.hom(C.tgt(e), C.tgt(d))) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# algebra hom sets and isomorphisms, as numpy grids
# ---------------------------------------------------------------------------
# The whole generator-assignment grid is replayed at once: one image row
# per assignment, every operation checked over all argument tuples of
# every row, and the element profile refined as array rows.  The numpy
# references for ``algkit.hom_rows``, ``_element_profile`` and
# ``find_isomorphism``; they share only ``generating_trace`` and the flat
# ``op_tables()`` with the package.


def numpy_op_tables(A):
    """Per symbol (args, values, table): every argument tuple as one index
    array per position, the values there, and the table as an array with
    one axis per argument."""
    import numpy as np
    out = {}
    for s, a in A.theory.symbols:
        table = np.array(A.op_tables()[s],
                         dtype=np.intp).reshape((A.size,) * a)
        args = tuple(np.indices(table.shape).reshape(table.ndim, table.size))
        out[s] = (args, table[args], table)
    return out


def numpy_replay_grid(A, B, choices):
    """(images, valid) over the grid ``itertools.product(*choices)``: one
    row of A's images per assignment of the generators, replayed along
    the generating trace, and whether the row commutes with every
    operation."""
    import numpy as np

    from fincov.algkit import generating_trace
    _, trace = generating_trace(A)
    shape = tuple(len(c) for c in choices)
    n = int(np.prod(shape, dtype=np.int64))
    choices = [np.asarray(c, dtype=np.intp) for c in choices]
    src, tgt = numpy_op_tables(A), numpy_op_tables(B)
    digits = np.unravel_index(np.arange(n), shape) if shape else ()
    img = np.empty((n, A.size), dtype=np.intp)
    for entry in trace:
        if entry[0] == "const":
            img[:, entry[2]] = tgt[entry[1]][2]
        elif entry[0] == "gen":
            img[:, entry[2]] = choices[entry[1]][digits[entry[1]]]
        else:
            _, s, args, v = entry
            img[:, v] = tgt[s][2][tuple(img[:, x] for x in args)]
    valid = np.ones(n, dtype=bool)
    for s, (args, values, _) in src.items():
        rhs = tgt[s][2][tuple(img[:, x] for x in args)]
        valid &= (img[:, values] == rhs).reshape(n, -1).all(axis=1)
    return img, valid


def numpy_hom_rows(A, B):
    """The image tuples of all homs A -> B, read off the whole grid."""
    from fincov.algkit import generating_trace
    img, valid = numpy_replay_grid(
        A, B, [B.carrier] * len(generating_trace(A)[0]))
    return list(map(tuple, img[valid].tolist()))


def numpy_element_profile(A):
    """Three rounds of colour refinement with the signatures as rows of
    one array: colour, then per symbol the constant flag, the unary
    image's colour, or the sorted colours of the binary row and column."""
    import numpy as np
    n = A.size
    colors = np.zeros(n, dtype=np.intp)
    tables = numpy_op_tables(A)
    for _ in range(3 if n else 0):
        sig = [colors[:, None]]
        for s, a in A.theory.symbols:
            table = tables[s][2]
            if a == 0:
                sig.append(np.arange(n)[:, None] == table)
            elif a == 1:
                sig.append(colors[table][:, None])
            elif a == 2:
                sig.append(np.sort(colors[table], axis=1))
                sig.append(np.sort(colors[table.T], axis=1))
        rows = list(map(tuple, np.concatenate(sig, axis=1,
                                              dtype=np.intp).tolist()))
        rank = {r: i for i, r in enumerate(sorted(set(rows)))}
        colors = np.array([rank[r] for r in rows], dtype=np.intp)
    return tuple(colors.tolist())


def numpy_find_isomorphism(A, B):
    """The image tuple of the first bijective row of the grid of
    same-colour generator choices, or None."""
    import numpy as np

    from fincov.algkit import generating_trace
    if A.size != B.size:
        return None
    ca, cb = numpy_element_profile(A), numpy_element_profile(B)
    if sorted(ca) != sorted(cb):
        return None
    by_color = {}
    for y in B.carrier:
        by_color.setdefault(cb[y], []).append(y)
    img, valid = numpy_replay_grid(A, B, [by_color.get(ca[g], ())
                                          for g in generating_trace(A)[0]])
    valid &= (np.sort(img, axis=1) == np.arange(A.size)).all(axis=1)
    hit = np.flatnonzero(valid)
    return tuple(img[hit[0]].tolist()) if len(hit) else None


# ---------------------------------------------------------------------------
# derived algebra tables, one entry at a time
# ---------------------------------------------------------------------------
# Each table entry is one Python call on the argument tuple; the reference
# for ``algkit._coded_algebra``.


def _induced_ops(theory, n, value):
    """Operation tables of an algebra on range(n) whose operation s takes
    the argument tuple args to value(s, args); nested tuples, one level
    per argument."""
    def build(s, a, prefix):
        if len(prefix) == a:
            return value(s, prefix)
        return tuple(build(s, a, prefix + (i,)) for i in range(n))
    return {s: build(s, a, ()) for s, a in theory.symbols}


def flat_ops(theory, ops):
    """Nested operation tables as flat tuples in argument-tuple order, the
    form ``FinAlgebra.op_tables()`` returns."""
    def flat(t, a):
        return (t,) if a == 0 else tuple(v for row in t
                                         for v in flat(row, a - 1))
    return {s: flat(ops[s], a) for s, a in theory.symbols}


def pair_ops(X, Y, pairs):
    """Tables of the algebra on the listed pairs of X x Y (closed under
    the operations), operated componentwise."""
    index = {p: i for i, p in enumerate(pairs)}
    return _induced_ops(X.theory, len(pairs), lambda s, args: index[
        (X.apply(s, [pairs[i][0] for i in args]),
         Y.apply(s, [pairs[i][1] for i in args]))])


def pullback_pairs(f, g):
    """The sorted pairs (a, b) with f(a) = g(b)."""
    return sorted((a, b) for a in f.src.carrier for b in g.src.carrier
                  if f(a) == g(b))


def subalgebra_ops(A, elems):
    """Tables of the subalgebra of A on the sorted elements ``elems``."""
    index = {x: i for i, x in enumerate(elems)}
    return _induced_ops(A.theory, len(elems), lambda s, args: index[
        A.apply(s, [elems[i] for i in args])])


def quotient_ops(A, theta):
    """Tables of the quotient of A by the canonical partition theta."""
    rep = {}
    for i, c in enumerate(theta):
        rep.setdefault(c, i)
    return _induced_ops(A.theory, len(rep), lambda s, cs: theta[
        A.apply(s, [rep[c] for c in cs])])


# ---------------------------------------------------------------------------
# the algebra ambient's composite index and anchored scan, from scratch
# ---------------------------------------------------------------------------
# The composite index is rebuilt whole from the hom sets' images, each hom
# coded by its whole image tuple and each composite found by one
# ``searchsorted`` over every morphism's code; the anchored protomodularity
# scan reads it and compares kernels as Python sets.  The references for
# ``AlgCategory.composite_index`` and ``protomod._check_ambient``.


def build_composite_index(C):
    """Composite index of an algebra ambient from its hom sets' images.

    Each hom m: A -> B gets the code (pos(A) * r + pos(B)) * span +
    sum_k m(k) * base^(|A| - 1 - k), over the r roster objects, with base
    the largest carrier and span = base^base.  Codes increase along
    ``morphisms()``, so ``searchsorted`` finds a composite's index from its
    code.  The code of g.f is sum_y g(y) W[f, y], where W[f, y] sums the
    weights of the k with f(k) = y.  Python ints (object dtype) code past
    int64; rows are coded a chunk at a time.  Returns (morphisms,
    position, blocks), blocks mapping id(b) to (rows, cols, table) arrays:
    the indices of the homs out of and into b, and table[i, j] the index
    of rows[i] . cols[j]."""
    import numpy as np

    from fincov import kernels
    roster = C.objects()
    ms = C.morphisms()
    if not roster:
        return NumpyIndex(ms, {}, {})
    r = len(roster)
    pos = {id(A): i for i, A in enumerate(roster)}
    base = max(A.size for A in roster)
    span = base ** base
    dtype = np.int64 if r * r * span < 2 ** 63 else object
    weights = {A.size: np.array([base ** k for k in range(A.size - 1, -1,
                                                          -1)], dtype=dtype)
               for A in roster}
    images, offset, codes = {}, {}, []
    n = 0
    for A in roster:
        for B in roster:
            homs = C.hom(A, B)
            img = images[id(A), id(B)] = np.array(
                [h.images for h in homs],
                dtype=np.int64).reshape(len(homs), A.size)
            offset[id(A), id(B)] = n
            n += len(img)
            codes.append((pos[id(A)] * r + pos[id(B)]) * span
                         + img.astype(dtype) @ weights[A.size])
    codes = np.concatenate(codes)
    index_dtype = np.dtype(kernels.table_typecode(len(ms)))
    blocks = {}
    for b in roster:
        outs = [images[id(b), id(c)] for c in roster]
        ins = [images[id(A), id(b)] for A in roster]
        rows = offset[id(b), id(roster[0])] + np.arange(sum(map(len, outs)))
        cols = np.concatenate([offset[id(A), id(b)] + np.arange(len(F))
                               for A, F in zip(roster, ins)])
        row_code = np.concatenate([np.full(len(G), pos[id(c)] * span,
                                           dtype=dtype)
                                   for c, G in zip(roster, outs)])
        col_code = np.concatenate([np.full(len(F), pos[id(A)] * r * span,
                                           dtype=dtype)
                                   for A, F in zip(roster, ins)])
        W = np.zeros((len(cols), b.size), dtype=dtype)
        lo = 0
        for A, F in zip(roster, ins):
            for k, w in enumerate(weights[A.size]):
                W[lo + np.arange(len(F)), F[:, k]] += w
            lo += len(F)
        G = np.concatenate(outs).astype(dtype)
        table = np.empty((len(rows), len(cols)), dtype=index_dtype)
        step = max(1, (1 << 14) // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            code = (G[lo:lo + step] @ W.T + row_code[lo:lo + step, None]
                    + col_code[None, :])
            table[lo:lo + step] = np.searchsorted(codes, code)
        blocks[id(b)] = (rows, cols, table)
    return NumpyIndex(ms, {m: i for i, m in enumerate(ms)}, blocks)


NumpyIndex = namedtuple("NumpyIndex", "morphisms position blocks")


def check_ambient(C, E, M, form, index=None):
    """The anchored scan over ``index``, by default
    ``build_composite_index(C)``: e in E in key order, the non-bijective
    M-members beta into src(e) sorted by key, e.beta read from the index,
    and the kernels of e and e.beta compared as sets of pairs (u, y) per
    beta.  Returns the package's report."""
    import itertools

    import numpy as np
    I0 = C.initial()
    if index is None:
        index = build_composite_index(C)
    ms = index.morphisms
    in_E = np.fromiter((E.contains(m) for m in ms), dtype=bool,
                       count=len(ms))
    scope = f"within size cap {C.size_cap}"
    candidates = {}
    for b in C.objects():
        into = enumerate(C.morphisms_into(b))
        betas = sorted(((beta, j) for j, beta in into
                        if M.contains(beta) and not beta.is_bijective()),
                       key=lambda bj: mor_key(bj[0]))
        candidates[id(b)] = ([beta for beta, _ in betas],
                             np.array([j for _, j in betas], dtype=int))
    count = 0
    for e in sorted(itertools.compress(ms, in_E), key=mor_key):
        b, c = e.src, e.tgt
        rows, _, table = index.blocks[id(b)]
        betas, cols = candidates[id(b)]
        ebs = table[np.searchsorted(rows, index.position[e]), cols]
        passing = np.flatnonzero(in_E[ebs])
        if not len(passing):
            continue
        theta = C.hom(I0, c)[0]
        ker_e = {(u, y) for u in I0.carrier for y in b.carrier
                 if theta(u) == e(y)}
        for k in passing:
            beta, eb = betas[k], ms[ebs[k]]
            count += 1
            ker_eb = [(u, z) for u in I0.carrier for z in beta.src.carrier
                      if theta(u) == eb(z)]
            image = {(u, beta(z)) for u, z in ker_eb}
            if len(image) == len(ker_eb) and image == ker_e:
                diag = ProtoDiagram(
                    e=e, theta=theta, m=None, p=None, beta=beta,
                    gamma=None, e_prime=eb, m_prime=None, alpha=None,
                    apex=f"ker({mor_key(e)})",
                    apex_prime=f"ker({mor_key(eb)})")
                return ProtoReport(False, diag, count, False, scope=scope,
                                   form=form)
    return ProtoReport(True, None, count, False, scope=scope, form=form)


# ---------------------------------------------------------------------------
# automorphism orbits, every automorphism applied
# ---------------------------------------------------------------------------

def orbit_reps(C):
    """``C.orbit_reps`` from every automorphism, not from generators:
    Aut(x) is every iso in hom(x, x), by inverse search in the JSON
    table of an explicit category and as the bijective homs of an algebra
    ambient, and right[i] and left[i] are the least indices of m . a and
    a . m over it, one composite at a time (image by image on an
    ambient).  None when every automorphism is an identity."""
    ms = list(C.morphisms())
    if C.concrete:
        index = {(id(m.src), id(m.tgt), m.images): i for i, m in enumerate(ms)}
        ends = [(id(m.src), id(m.tgt)) for m in ms]

        def compose(g, f):
            g, f = ms[g], ms[f]
            return index[id(f.src), id(g.tgt),
                         tuple(g.images[y] for y in f.images)]
        auts = {id(x): [i for i, m in enumerate(ms) if m.src is x
                        and m.tgt is x and len(set(m.images)) == x.size]
                for x in C.objects()}
    else:
        raw = RawCat(C.to_json())
        index = {m: i for i, m in enumerate(ms)}
        ends = [(raw.src[m], raw.tgt[m]) for m in ms]

        def compose(g, f):
            return index[raw.comp[ms[g], ms[f]]]
        auts = {x: [index[m] for m in raw.hom(x, x) if is_iso(raw, m)]
                for x in raw.objects}
    if all(len(a) == 1 for a in auts.values()):
        return None
    right = [min(compose(i, a) for a in auts[s]) for i, (s, _) in
             enumerate(ends)]
    left = [min(compose(a, i) for a in auts[t]) for i, (_, t) in
            enumerate(ends)]
    return right, left
