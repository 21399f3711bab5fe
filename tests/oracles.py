"""Independent brute-force oracle over the JSON category form.

Deliberately shares no code with the package: plain dict lookups and
triple loops, used to cross-check mono/epi/iso flags, pullback universal
properties, orthogonality and extremality on small categories.

The second half is a reference lane for the enumeration kernels: plain
loops over the dense tables (``comp``, ``src``, ``tgt``, CSR hom sets).
Their loop order is the witness-order contract of ``fincov.kernels``: the
first violation these loops meet is the lexicographically least one, and
the kernel tests require the kernels to return exactly it.
"""


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
# reference lane over dense tables
# ---------------------------------------------------------------------------

def _hom_list(hom_ptr, hom_dat, nobj, a, b):
    k = int(a) * nobj + int(b)
    return [int(x) for x in hom_dat[hom_ptr[k]:hom_ptr[k + 1]]]


def first_composability_violation(comp, src, tgt):
    n = comp.shape[0]
    for g in range(n):
        for f in range(n):
            gf = comp[g, f]
            if tgt[f] == src[g]:
                if gf < 0:
                    return g, f, "missing"
                if src[gf] != src[f] or tgt[gf] != tgt[g]:
                    return g, f, "endpoints"
            elif gf >= 0:
                return g, f, "spurious"
    return None


def first_identity_violation(comp, src, tgt, ident):
    n = comp.shape[0]
    for f in range(n):
        if comp[ident[tgt[f]], f] != f:
            return f, "left"
    for f in range(n):
        if comp[f, ident[src[f]]] != f:
            return f, "right"
    return None


def first_assoc_violation(comp):
    n = comp.shape[0]
    for f in range(n):
        for g in range(n):
            gf = comp[g, f]
            if gf < 0:
                continue
            for h in range(n):
                hg = comp[h, g]
                if hg < 0:
                    continue
                if comp[h, gf] != comp[hg, f]:
                    return f, g, h
    return None


def mono_epi_flags(comp, src, tgt, hom_ptr, hom_dat, nobj):
    n = comp.shape[0]
    mono = [1] * n
    epi = [1] * n
    for f in range(n):
        for z in range(nobj):
            us = _hom_list(hom_ptr, hom_dat, nobj, z, src[f])
            if len({int(comp[f, u]) for u in us}) != len(us):
                mono[f] = 0
            vs = _hom_list(hom_ptr, hom_dat, nobj, tgt[f], z)
            if len({int(comp[v, f]) for v in vs}) != len(vs):
                epi[f] = 0
    return mono, epi


def lift_report(comp, src, tgt, hom_ptr, hom_dat, nobj, e, m):
    A, B, X, Y = src[e], tgt[e], src[m], tgt[m]
    for u in _hom_list(hom_ptr, hom_dat, nobj, A, X):
        for v in _hom_list(hom_ptr, hom_dat, nobj, B, Y):
            if comp[v, e] != comp[m, u]:
                continue
            cnt = sum(1 for h in _hom_list(hom_ptr, hom_dat, nobj, B, X)
                      if comp[h, e] == u and comp[m, h] == v)
            if cnt != 1:
                return 0, u, v, cnt
    return 1, -1, -1, 1


def commuting_spans(comp, src, tgt, hom_ptr, hom_dat, nobj, f, g):
    ps, qs = [], []
    for w in range(nobj):
        for p in _hom_list(hom_ptr, hom_dat, nobj, w, src[f]):
            for q in _hom_list(hom_ptr, hom_dat, nobj, w, src[g]):
                if comp[g, q] == comp[f, p]:
                    ps.append(p)
                    qs.append(q)
    return ps, qs


# ---------------------------------------------------------------------------
# reference scan of ambient protomodularity
# ---------------------------------------------------------------------------

def _hom_key(m):
    return m.key()


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
                    key=_hom_key):
        b, c = e.src, e.tgt
        theta = C.hom(I0, c)[0]
        ker_e = {(u, y) for u in I0.carrier for y in b.carrier
                 if theta(u) == e(y)}
        for beta in sorted(C.morphisms_into(b), key=_hom_key):
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
# reference covering enumeration (generate and test)
# ---------------------------------------------------------------------------

def type_coverings(C, c, dt, M):
    """Every M-subordinated mixed functor I -> C/c of the diagram type as
    plain loops: the product of M-legs over the sorted index objects, then
    the product of the triangles over the sorted non-identity arrows, each
    candidate kept when ``validate_mixed_functor`` accepts it.  Its order
    is the covering-order contract of ``coverage.RuleCoverage``."""
    import itertools

    from fincov.coverage import Covering, _key, slice_view
    from fincov.variance import MixedFunctor, validate_mixed_functor
    I = dt.I
    sl = slice_view(C, c)
    legs = [m for m in sorted(C.morphisms_into(c), key=_key)
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
            cands.append(sorted(cs, key=_key))
        else:
            for combo in itertools.product(*cands):
                mor_map = {I.identity(o): sl.identity(obj_map[o])
                           for o in objs}
                for k, h in zip(non_id, combo):
                    ks = dt.variance.source_stage(k)
                    kt = dt.variance.target_stage(k)
                    mor_map[k] = (h, obj_map[ks], obj_map[kt])
                F = MixedFunctor(dt.variance, sl, obj_map, mor_map)
                if validate_mixed_functor(F) is None:
                    out.append(Covering(C, c, dt, F))
    return out
