"""The enumeration kernels of fincov, in numpy.

The functions take the dense table representation of a finite category
(``first_class_composites`` takes a composite index instead) and return
plain ints or numpy arrays.  ``comp`` is morphism x morphism with -1
for non-composable pairs, in any signed integer dtype (``FinCategory``
stores the narrowest, see ``table_dtype``).  Hom sets come as a CSR pair
``hom_ptr``/``hom_dat`` indexed by src*nobj+tgt.  Witnesses are always the
lexicographically least in the documented loop order; the tests check them
witness for witness against the reference loops in ``tests/oracles.py``.
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


def _hom(hom_ptr, hom_dat, nobj, a, b):
    k = a * nobj + b
    return hom_dat[hom_ptr[k]:hom_ptr[k + 1]]


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


def mono_epi_flags(comp, src, tgt, hom_ptr, hom_dat, nobj):
    """Per-morphism left/right cancellation flags, decided by enumeration.

    f is mono when the composites f.u, u into src(f), are distinct per
    source of u, and epi when the v.f, v out of tgt(f), are distinct per
    target of v.  A composite lies in the hom set of its outer ends, so
    composites through different sources (targets) never coincide: f is
    mono when all the f.u are distinct, and epi when all the v.f are.
    Both read one block per object o, the composites of the morphisms out
    of o with those into o, in the table's own dtype: a row of it is f.u
    for one f, a column v.f for one f.  Each row and column is sorted and
    checked for repeats.
    """
    n = comp.shape[0]
    mono = np.ones(n, dtype=np.uint8)
    epi = np.ones(n, dtype=np.uint8)
    for o in range(nobj):
        out, into = src == o, tgt == o
        block = comp[out][:, into]
        keys = np.sort(block, axis=1)
        mono[out] = ~(keys[:, 1:] == keys[:, :-1]).any(axis=1)
        keys = np.sort(block, axis=0)
        epi[into] = ~(keys[1:] == keys[:-1]).any(axis=0)
    return mono, epi


# (g in A, f in A, g.f in A) patterns that refute each composite flag
_COMPOSITE_PATTERNS = {"system": (True, True, False),
                       "left_cancelable": (True, False, True),
                       "right_cancelable": (False, True, True)}

# Table entries gathered at once by first_class_composites: its masks stay
# well under a MB on the 666 x 666 block of the grown algebra ambient.
_CHUNK = 1 << 14


def first_class_composites(blocks, member, flags):
    """Least composable (g, f) refuting each flag of a morphism class.

    ``blocks`` is a composite index: per middle object, (rows, cols,
    table) with rows and cols the ascending indices of the morphisms out
    of and into it, and table[i, j] the index of rows[i] . cols[j].
    ``member`` is the class's membership mask over all morphisms.  A flag
    is refuted by a pair matching its pattern: "system" by g, f in A with
    g.f not, "left_cancelable" by g, g.f in A with f not, and
    "right_cancelable" by f, g.f in A with g not.  Returns {flag: (g, f)
    or None}, the least (g, f) in index order.
    """
    best = dict.fromkeys(flags)
    for rows, cols, table in blocks:
        g_in = member[rows]
        f_in = member[cols]
        for flag in flags:
            want_g, want_f, want_gf = _COMPOSITE_PATTERNS[flag]
            ri = np.flatnonzero(g_in == want_g)
            ci = np.flatnonzero(f_in == want_f)
            if not len(ri) or not len(ci):
                continue
            step = max(1, _CHUNK // len(ci))
            for lo in range(0, len(ri), step):
                r = ri[lo:lo + step]
                # rows ascend, so a known witness with a smaller g stops it
                if best[flag] is not None and best[flag][0] < rows[r[0]]:
                    break
                hit = member[table[np.ix_(r, ci)]] == want_gf
                k = int(np.argmax(hit))
                if hit.flat[k]:
                    i, j = divmod(k, len(ci))
                    pair = (int(rows[r[i]]), int(cols[ci[j]]))
                    if best[flag] is None or pair < best[flag]:
                        best[flag] = pair
                    break
    return best


def lift_report(comp, src, tgt, hom_ptr, hom_dat, nobj, e, m):
    """Unique-lift scan for the pair (e, m).

    Returns (ok, u, v, count): ok=1 when every commuting square (u, v) has
    exactly one diagonal; otherwise (u, v) is the least failing square and
    count its number of lifts.
    """
    A, B = src[e], tgt[e]
    X, Y = src[m], tgt[m]
    us = _hom(hom_ptr, hom_dat, nobj, A, X)
    vs = _hom(hom_ptr, hom_dat, nobj, B, Y)
    hs = _hom(hom_ptr, hom_dat, nobj, B, X)
    for u in us:
        mu = comp[m, u]
        for v in vs:
            if comp[v, e] != mu:
                continue
            cnt = 0
            for h in hs:
                if comp[h, e] == u and comp[m, h] == v:
                    cnt += 1
            if cnt != 1:
                return 0, int(u), int(v), int(cnt)
    return 1, -1, -1, 1


def commuting_spans(comp, src, tgt, hom_ptr, hom_dat, nobj, f, g):
    """All (p, q) with f.p = g.q, ordered by (apex object, p, q)."""
    a, b = src[f], src[g]
    ps_all, qs_all = [], []
    for w in range(nobj):
        ps = _hom(hom_ptr, hom_dat, nobj, w, a)
        qs = _hom(hom_ptr, hom_dat, nobj, w, b)
        if len(ps) == 0 or len(qs) == 0:
            continue
        fp = comp[f, ps]
        gq = comp[g, qs]
        eq = fp[:, None] == gq[None, :]
        pi, qi = np.nonzero(eq)
        ps_all.append(ps[pi])
        qs_all.append(qs[qi])
    if not ps_all:
        return (np.empty(0, dtype=comp.dtype),) * 2
    return np.concatenate(ps_all), np.concatenate(qs_all)


def span_verify(comp, src, tgt, hom_ptr, hom_dat, nobj, p, q, cone_p, cone_q):
    """Check the span (p, q) is terminal among the given cones.

    Returns (ok, mediators): mediators[i] is the unique h with p.h=cone_p[i]
    and q.h=cone_q[i]; on failure ok=0 and mediators[i] = -1 (no lift) or -2
    (multiple) at the least failing cone, the rest unset.
    """
    w = src[p]
    med = np.full(len(cone_p), -1, dtype=np.int64)
    for i in range(len(cone_p)):
        cp, cq = cone_p[i], cone_q[i]
        hs = _hom(hom_ptr, hom_dat, nobj, src[cp], w)
        hit = hs[(comp[p, hs] == cp) & (comp[q, hs] == cq)]
        if len(hit) == 1:
            med[i] = hit[0]
        else:
            med[i] = -1 if len(hit) == 0 else -2
            return 0, med
    return 1, med


def coequalizer_verify(comp, src, tgt, hom_ptr, hom_dat, nobj, f, g, e):
    """Check e coequalizes (f, g) and is universal among all coequalizing
    tests; returns (ok, mediators aligned with the tests, tests)."""
    b = tgt[f]
    outs = np.nonzero(src == b)[0]
    tests = outs[comp[outs, f] == comp[outs, g]]
    w = tgt[e]
    med = np.full(len(tests), -1, dtype=np.int64)
    if comp[e, f] != comp[e, g]:
        return 0, med, tests
    for i, d in enumerate(tests):
        hs = _hom(hom_ptr, hom_dat, nobj, w, tgt[d])
        hit = hs[comp[hs, e] == d]
        if len(hit) == 1:
            med[i] = hit[0]
        else:
            med[i] = -1 if len(hit) == 0 else -2
            return 0, med, tests
    return 1, med, tests
