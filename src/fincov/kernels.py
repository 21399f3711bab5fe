"""The enumeration kernels of fincov.

Most kernels read an explicit category's table as Python rows:
``comp[g][f]`` is the index of g.f, or -1 where the pair does not
compose; ``src`` and ``tgt`` are index lists, and ``homs[a * nobj + b]``
is the ascending index tuple of hom(a, b).  A query reads a few rows of
tables that mostly hold 1-12 morphisms, where a numpy call costs more
than the loop it replaces, so these kernels are plain loops.  The three
validation scans read every entry once per untrusted input, up to
finite_top's 1476 x 1476, so they stay vectorized, on the rows packed
into one numpy table of any signed integer dtype (``table_dtype``).
Witnesses are always the lexicographically least in the documented loop
order; the tests check them witness for witness against the reference
loops in ``tests/oracles.py``.
"""

import numpy as np


def table_dtype(n):
    """Narrowest signed integer dtype of an n-morphism composition table.

    It holds -1..n-1: the 1476-morphism finite_top table is 4.4 MB as int16
    and 17.4 MB as int64.
    """
    for dt in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return dt
    return np.int64


# Table entries per block of rows in first_composability_violation: its
# temporaries stay a few MB on the 1476-morphism finite_top table instead of
# a dozen n x n arrays.
_BLOCK = 1 << 18


def first_composability_violation(comp, src, tgt):
    """Least (g, f) where comp is defined off the composable pairs, missing on
    one, or has wrong endpoints.  Returns (g, f, code) or None.

    Rows g are scanned in blocks, in order, so the first block with any
    violation holds the least one.
    """
    n = comp.shape[0]
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, step):
        rows = comp[lo:lo + step]
        defined = rows >= 0
        should = src[lo:lo + step, None] == tgt[None, :]
        bad = defined != should
        k = int(np.argmax(bad))
        first = divmod(k, n) if bad.flat[k] else None
        gs, fs = np.nonzero(defined & should)
        vals = rows[gs, fs]
        wrong = (src[vals] != src[fs]) | (tgt[vals] != tgt[gs + lo])
        if wrong.any():
            i = int(np.argmax(wrong))
            if first is None or (gs[i], fs[i]) < first:
                return int(gs[i]) + lo, int(fs[i]), "endpoints"
        if first is not None:
            g, f = first
            return g + lo, f, ("missing" if should[g, f] else "spurious")
    return None


def first_identity_violation(comp, src, tgt, ident):
    """Least f breaking id_tgt(f) . f = f = f . id_src(f); (f, side) or None."""
    n = comp.shape[0]
    f = np.arange(n)
    left = comp[ident[tgt], f]
    if (left != f).any():
        return int(np.nonzero(left != f)[0][0]), "left"
    right = comp[f, ident[src]]
    if (right != f).any():
        return int(np.nonzero(right != f)[0][0]), "right"
    return None


def first_assoc_violation(comp):
    """Least (f, g, h) with h.(g.f) != (h.g).f, ordering (f, g, h).

    Only composable triples are visited.  The composable (g, h) pairs
    depend on f only through the defined-mask of column f (in a valid
    table: through tgt(f)), so they are built once per distinct mask, in
    (g, h) order, and each f checks all of its pairs at once.
    """
    n = comp.shape[0]
    pairs = {}
    for f in range(n):
        col = comp[:, f]
        mask = col >= 0
        key = mask.tobytes()
        p = pairs.get(key)
        if p is None:
            gs = np.flatnonzero(mask)
            hg = comp[:, gs].T                # g x h
            gpos, h = np.nonzero(hg >= 0)
            # kept in the table's dtype: the pairs of all masks together
            # are as many as the composable pairs
            p = pairs[key] = (gs[gpos].astype(comp.dtype),
                              h.astype(comp.dtype), hg[gpos, h])
        g, h, hg = p
        bad = comp[h, col[g]] != comp[hg, f]
        if bad.any():
            i = int(np.argmax(bad))
            return f, int(g[i]), int(h[i])
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
        block = [list(map(comp[g].__getitem__, into)) for g in out]
        for g, row in zip(out, block):
            mono[g] = len(set(row)) == len(row)
        for f, col in zip(into, zip(*block)):
            epi[f] = len(set(col)) == len(col)
    return mono, epi


# (g in A, f in A, g.f in A) patterns that refute each composite flag
COMPOSITE_PATTERNS = {"system": (True, True, False),
                       "left_cancelable": (True, False, True),
                       "right_cancelable": (False, True, True)}


def first_class_composites(blocks, member, flags):
    """Least composable (g, f) refuting each flag of a morphism class.

    ``blocks`` is a composite index: per middle object, (rows, cols,
    table) with rows and cols the ascending indices of the morphisms out
    of and into it, and table[i][j] the index of rows[i] . cols[j].
    ``member`` is the class's membership flag per morphism.  A flag is
    refuted by a pair matching its pattern: "system" by g, f in A with
    g.f not, "left_cancelable" by g, g.f in A with f not, and
    "right_cancelable" by f, g.f in A with g not.  Returns {flag: (g, f)
    or None}, the least (g, f) in index order.
    """
    best = dict.fromkeys(flags)
    for rows, cols, table in blocks:
        for flag in flags:
            want_g, want_f, want_gf = COMPOSITE_PATTERNS[flag]
            ci = [j for j, f in enumerate(cols) if member[f] == want_f]
            if not ci:
                continue
            for g, trow in zip(rows, table):
                # rows ascend, so a known witness with a smaller g stops it
                if best[flag] is not None and best[flag][0] < g:
                    break
                if member[g] != want_g:
                    continue
                j = next((j for j in ci if member[trow[j]] == want_gf), None)
                if j is None:
                    continue
                pair = (g, cols[j])
                if best[flag] is None or pair < best[flag]:
                    best[flag] = pair
                break
    return best


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
