"""The enumeration kernels of fincov, plain loops over an explicit
category's Python rows: ``comp[g][f]`` is the index of g.f, or -1 where
the pair does not compose; ``src`` and ``tgt`` are index lists,
``homs[a * nobj + b]`` is the ascending index tuple of hom(a, b), and
``into[a]`` and ``out[a]`` list the morphisms into and out of object a
in ascending order.  ``first_class_composites`` reads composite-index
blocks, of explicit categories and of the algebra ambient alike.
Witnesses are always the lexicographically least in the documented loop
order; the tests check them witness for witness against the reference
loops in ``tests/oracles.py``.
"""

from array import array
from operator import itemgetter


def picker(idx):
    """row -> the tuple of row[i] for i in idx, gathered at C speed."""
    if len(idx) == 1:
        return lambda row: (row[idx[0]],)
    return itemgetter(*idx) if idx else lambda row: ()


def table_typecode(n):
    """Narrowest ``array`` typecode holding -1..n-1, the entries of an
    n-morphism composition table (finite_top's is 4.4 MB as "h")."""
    return next(c for c in "bhiq" if n < 1 << (8 * array(c).itemsize - 1))


def first_composability_violation(comp, src, tgt, into):
    """Least (g, f) where comp is defined off the composable pairs, missing on
    one, or has wrong endpoints.  Returns (g, f, code) or None.

    Row g must be defined exactly on into[src g]: its -1 count and its
    entries there settle that at C speed (``array.count``, ``picker``)
    before the ends are read.  A failing row is rescanned in f order.
    """
    n = len(comp)
    picks = list(map(picker, into))
    srcs = [p(src) for p in picks]
    for g, row in enumerate(comp):
        a, b = src[g], tgt[g]
        vals = picks[a](row)
        if row.count(-1) == n - len(into[a]) and min(vals) >= 0:
            ends = picker(vals)
            if ends(src) == srcs[a] and ends(tgt).count(b) == len(vals):
                continue
        for f, gf in enumerate(row):
            if tgt[f] == a:
                if gf < 0:
                    return g, f, "missing"
                if src[gf] != src[f] or tgt[gf] != b:
                    return g, f, "endpoints"
            elif gf >= 0:
                return g, f, "spurious"
    return None


def first_identity_violation(comp, src, tgt, ident):
    """Least f breaking id_tgt(f) . f = f = f . id_src(f); (f, side) or None."""
    for f, b in enumerate(tgt):
        if comp[ident[b]][f] != f:
            return f, "left"
    for f, (row, a) in enumerate(zip(comp, src)):
        if row[ident[a]] != f:
            return f, "right"
    return None


def light_generators(comp, src, tgt, nobj):
    """Generators, picked greedily in index order: each morphism the
    closure has not reached.  The closure grows from a new generator x by
    x.y for each reached y into src(x), and from each newly reached z by
    w.z for each generator w out of tgt(z), so every morphism is a
    generator or x.y with x a generator and y reached before it."""
    reached = bytearray(len(comp))
    gens_out = [[] for _ in range(nobj)]
    reached_into = [[] for _ in range(nobj)]
    gens = []
    for x, row in enumerate(comp):
        if reached[x]:
            continue
        gens.append(x)
        gens_out[src[x]].append(x)
        todo = [x] + [row[y] for y in reached_into[src[x]]]
        while todo:
            z = todo.pop()
            if not reached[z]:
                reached[z] = 1
                reached_into[tgt[z]].append(z)
                todo += [comp[w][z] for w in gens_out[tgt[z]]]
    return gens


def first_assoc_violation(comp, src, tgt, into, out):
    """Least (f, g, h) with h.(g.f) != (h.g).f, ordering (f, g, h).

    Needs composability exactness, checked first: g.f is defined, with
    the right ends, exactly when tgt(f) = src(g).  Light's associativity
    test (Clifford and Preston, The Algebraic Theory of Semigroups, Vol.
    1, 1961) then puts only ``light_generators`` in the middle.  Call m
    good when h.(m.f) = (h.m).f for all composable f and h.  If the
    generators are good, so is each x.y, x a generator and y reached
    before it, by induction on reach order:

        h.((x.y).f) = h.(x.(y.f)) = (h.x).(y.f)     y good, then x good
                    = ((h.x).y).f = (h.(x.y)).f     y good, then x good

    Identities are generators or composites too: the identity laws are
    not assumed.  Each (g, h) is checked for all f at once; only a broken
    table reaches the ordered scan (f, g out of tgt f, h out of tgt g).
    """
    picks = list(map(picker, into))
    for g in light_generators(comp, src, tgt, len(into)):
        right = picks[src[g]]
        left = picker(right(comp[g]))
        if any(left(hrow) != right(comp[hrow[g]])
               for hrow in map(comp.__getitem__, out[tgt[g]])):
            return next(((f, g, h) for f, b in enumerate(tgt)
                         for g in out[b] for h in out[tgt[g]]
                         if comp[h][comp[g][f]] != comp[comp[h][g]][f]),
                        None)
    return None


def mono_epi_flags(comp, src, tgt, homs, nobj):
    """Per-morphism left/right cancellation flags, decided by enumeration.

    f is mono when the composites f.u, u into src(f), are distinct per
    source of u, and epi when the v.f, v out of tgt(f), are distinct per
    target of v.  A composite lies in the hom set of its outer ends, so
    composites through different sources (targets) never coincide: f is
    mono when all the f.u are distinct, and epi when all the v.f are.
    Both read one block per object o, the composites of the morphisms out
    of o with those into o: a row of it is f.u for one f, a column v.f
    for one f.  Returns two lists of bools.
    """
    mono, epi = [True] * len(comp), [True] * len(comp)
    for o in range(nobj):
        out = [m for k in range(o * nobj, o * nobj + nobj) for m in homs[k]]
        into = [m for k in range(o, nobj * nobj, nobj) for m in homs[k]]
        block = list(map(picker(into), map(comp.__getitem__, out)))
        for g, row in zip(out, block):
            mono[g] = len(set(row)) == len(row)
        for f, col in zip(into, zip(*block)):
            epi[f] = len(set(col)) == len(col)
    return mono, epi


# (g in A, f in A, g.f in A) patterns that refute each composite flag
COMPOSITE_PATTERNS = {"system": (True, True, False),
                       "left_cancelable": (True, False, True),
                       "right_cancelable": (False, True, True)}


def iso_saturated(member, reps):
    """Whether ``member`` is constant on the orbits of each least-member
    list in ``reps`` (``CategoryBase.orbit_reps``)."""
    return all(list(map(member.__getitem__, rep)) == member for rep in reps)


def first_class_composites(blocks, member, flags, reps=None):
    """Least composable (g, f) refuting each flag of a morphism class.

    ``blocks`` is a composite index: (rows, cols, targets, row) per block
    of composable pairs, the blocks covering each pair once, with rows
    and cols ascending morphism indices, targets a range of them and
    targets[row(i)[j]] the index of rows[i] . cols[j].  Blocks may be an
    iterator, and each ``row(i)`` is asked for only when some flag still
    needs it.  ``member`` is the class's membership flag per morphism.  A
    flag is refuted by a pair matching its pattern: "system" by g, f in A
    with g.f not, "left_cancelable" by g, g.f in A with f not, and
    "right_cancelable" by f, g.f in A with g not.  Returns {flag: (g, f)
    or None}, the least (g, f) in index order.

    ``reps``: None or ``CategoryBase.orbit_reps``.  A class constant on
    its orbits skips each row g with right[g] = r != g, r in g's block:
    g = r.a with a an automorphism, so (g, f) matches a pattern exactly
    when (r, a.f) does, and r's row, read before, showed no witness or
    stopped the scan.
    """
    right = reps[0] if reps and iso_saturated(member, reps) else None
    best = dict.fromkeys(flags)
    hits = {}  # (targets, v): the positions in targets whose membership is v
    for rows, cols, targets, row_of in blocks:
        for flag in flags:
            want_g, want_f, want_gf = COMPOSITE_PATTERNS[flag]
            ci = [j for j, f in enumerate(cols) if member[f] == want_f]
            if not ci:
                continue
            if (targets, want_gf) not in hits:
                hits[targets, want_gf] = {t for t, k in enumerate(targets)
                                          if member[k] == want_gf}
            hit, pick = hits[targets, want_gf], picker(ci)
            for i, g in enumerate(rows):
                # rows ascend, so a known witness with a smaller g stops it
                if best[flag] is not None and best[flag][0] < g:
                    break
                if member[g] != want_g or right and right[g] != g:
                    continue
                row = row_of(i)
                if hit.isdisjoint(pick(row)):
                    continue
                j = next(j for j in ci if row[j] in hit)
                pair = (g, cols[j])
                if best[flag] is None or pair < best[flag]:
                    best[flag] = pair
                break
    return best


def orbit_reps(rep, domain, moves):
    """Set rep[i] to the least member of i's orbit under the group that
    the permutations ``moves`` (mappings i -> index) of the ascending
    ``domain`` generate: each orbit is walked from where it is met first."""
    seen = set()
    for i in domain:
        todo = [] if i in seen else [i]
        seen.update(todo)
        for x in todo:
            rep[x] = i
            new = {move[x] for move in moves} - seen
            seen |= new
            todo += new


def lift_report(comp, src, tgt, homs, nobj, e, m):
    """Unique-lift scan for the pair (e, m).

    Returns (ok, u, v, count): ok=1 when every commuting square (u, v) has
    exactly one diagonal; otherwise (u, v) is the least failing square and
    count its number of lifts.
    """
    A, B, X, Y = src[e], tgt[e], src[m], tgt[m]
    me = comp[m]
    vs = [(v, comp[v][e]) for v in homs[B * nobj + Y]]
    # (h.e, m.h) of every diagonal candidate h
    lifts = [(comp[h][e], me[h]) for h in homs[B * nobj + X]]
    for u in homs[A * nobj + X]:
        mu = me[u]
        for v, ve in vs:
            if ve == mu:
                cnt = lifts.count((u, v))
                if cnt != 1:
                    return 0, u, v, cnt
    return 1, -1, -1, 1


def commuting_spans(comp, src, tgt, homs, nobj, f, g):
    """All (p, q) with f.p = g.q as two lists, by (apex object, p, q)."""
    fr, gr = comp[f], comp[g]
    a, b = src[f], src[g]
    ps, qs = [], []
    for w in range(0, nobj * nobj, nobj):
        hq = homs[w + b]
        for p in homs[w + a]:
            fp = fr[p]
            for q in hq:
                if gr[q] == fp:
                    ps.append(p)
                    qs.append(q)
    return ps, qs


def span_verify(comp, src, tgt, homs, nobj, p, q, cone_p, cone_q):
    """Check the span (p, q) is terminal among the given cones.

    Returns (ok, mediators): mediators[i] is the unique h with p.h=cone_p[i]
    and q.h=cone_q[i]; on failure ok=0 and the list ends at the least
    failing cone with -1 (no lift) or -2 (several).
    """
    w = src[p]
    pr, qr = comp[p], comp[q]
    med = []
    for cp, cq in zip(cone_p, cone_q):
        hit = [h for h in homs[src[cp] * nobj + w]
               if pr[h] == cp and qr[h] == cq]
        med.append(hit[0] if len(hit) == 1 else -2 if hit else -1)
        if len(hit) != 1:
            return 0, med
    return 1, med


def coequalizer_verify(comp, src, tgt, homs, nobj, f, g, e):
    """Check e coequalizes (f, g) and is universal among all coequalizing
    tests d out of tgt(f); returns (ok, mediators aligned with the tests,
    tests), the mediators ending at the least failing test."""
    b = tgt[f]
    tests = [d for d, row in enumerate(comp)
             if src[d] == b and row[f] == row[g]]
    med = []
    if comp[e][f] != comp[e][g]:
        return 0, med, tests
    w = tgt[e]
    for d in tests:
        hit = [h for h in homs[w * nobj + tgt[d]] if comp[h][e] == d]
        med.append(hit[0] if len(hit) == 1 else -2 if hit else -1)
        if len(hit) != 1:
            return 0, med, tests
    return 1, med, tests
