"""Finite equational theories and algebras.

Terms are nested tuples ``(head, *args)``; a head that is not a declared
function symbol is a variable.  Algebras carry their carriers as
``range(n)`` and each operation as one flat tuple (``op_tables``), so
everything is hashable and enumeration order is fixed; nested tables are
the JSON form only.  "The theory proves phi" is replaced throughout by
satisfaction in every algebra of a finite corpus; reports therefore say
"holds on corpus", never "provable".

The algebra ambient reads flat operation tables (``op_tables``), the hom
sets' image tuples and composite rows kept per (source, hom) as
``array`` rows in the narrowest typecode; no numpy.
"""

from __future__ import annotations

import itertools
from array import array
from operator import methodcaller

from . import kernels
from .fincat import CapExceeded, CategoryBase, CompositionError, \
    PullbackSquare, drop_derived_memos


# ---------------------------------------------------------------------------
# theories and terms
# ---------------------------------------------------------------------------

def term_from_json(obj):
    if isinstance(obj, (list, tuple)):
        return tuple([obj[0]] + [term_from_json(a) for a in obj[1:]])
    raise ValueError(f"malformed term: {obj!r}")


def term_to_json(term):
    return [term[0]] + [term_to_json(a) for a in term[1:]]


class Theory:
    """Signature plus equations; equations are ((vars...), lhs, rhs).

    Equal and hashed as the tuple of its four fields, which are not
    changed once built."""

    __slots__ = ("name", "symbols", "equations", "default_t")

    def __init__(self, name, symbols, equations, default_t=None):
        self.name = name
        self.symbols = symbols  # ((name, arity), ...)
        self.equations = equations  # ((vars, lhs_term, rhs_term), ...)
        self.default_t = default_t  # preferred binary term for uniformity

    def _fields(self):
        return (self.name, self.symbols, self.equations, self.default_t)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def arity(self, sym):
        for s, a in self.symbols:
            if s == sym:
                return a
        raise KeyError(sym)

    def has_symbol(self, sym):
        return any(s == sym for s, _ in self.symbols)

    def constants(self):
        return tuple(s for s, a in self.symbols if a == 0)

    def to_json(self):
        out = {
            "symbols": [{"name": s, "arity": a} for s, a in self.symbols],
            "equations": [{"vars": list(v), "lhs": term_to_json(l),
                           "rhs": term_to_json(r)}
                          for v, l, r in self.equations],
        }
        if self.default_t is not None:
            out["t"] = term_to_json(self.default_t)
        return out

    @staticmethod
    def from_json(obj, name="T"):
        symbols = tuple((s["name"], s["arity"]) for s in obj["symbols"])
        equations = tuple(
            (tuple(e["vars"]), term_from_json(e["lhs"]), term_from_json(e["rhs"]))
            for e in obj["equations"])
        default_t = term_from_json(obj["t"]) if "t" in obj else None
        return Theory(name, symbols, equations, default_t)


def group_theory():
    x, y, z = ("x",), ("y",), ("z",)
    mul = lambda a, b: ("mul", a, b)
    inv = lambda a: ("inv", a)
    e = ("e",)
    eqs = (
        (("x", "y", "z"), mul(mul(x, y), z), mul(x, mul(y, z))),
        (("x",), mul(e, x), x),
        (("x",), mul(x, e), x),
        (("x",), mul(inv(x), x), e),
        (("x",), mul(x, inv(x)), e),
    )
    return Theory("groups", (("mul", 2), ("inv", 1), ("e", 0)), eqs,
                  default_t=("mul", ("x",), ("y",)))


def monoid_theory():
    x, y, z = ("x",), ("y",), ("z",)
    mul = lambda a, b: ("mul", a, b)
    e = ("e",)
    eqs = (
        (("x", "y", "z"), mul(mul(x, y), z), mul(x, mul(y, z))),
        (("x",), mul(e, x), x),
        (("x",), mul(x, e), x),
    )
    return Theory("monoids", (("mul", 2), ("e", 0)), eqs,
                  default_t=("mul", ("x",), ("y",)))


def eval_term(A, term, env):
    """Evaluate a term in algebra A under a variable assignment: the
    ``term_grid`` entry, over env's variables, of that assignment."""
    vars_, i = tuple(env), 0
    for v in vars_:
        i = i * A.size + env[v]
    return term_grid(A, term, vars_)[i]


def term_grid(A, term, vars_):
    """The value of term at every assignment of vars_ over A's carrier,
    as a list in ``itertools.product`` order; as in
    ``dict(zip(vars_, vals))``, a repeated variable takes its last
    position.  Operations are read from ``A.op_tables()`` (so A must be
    total).  Raises ValueError on an ill-formed term or unbound variable.
    """
    n, k = A.size, len(vars_)
    env = {v: [x for x in A.carrier for _ in range(n ** (k - 1 - i))]
           * n ** i for i, v in enumerate(vars_)}
    tables = A.op_tables()

    def grid(t):
        head = t[0]
        if A.theory.has_symbol(head):
            args = [grid(s) for s in t[1:]]
            if len(args) != A.theory.arity(head):
                raise ValueError(f"arity mismatch at {head}")
            if not args:
                return tables[head] * n ** k
            codes = args[0]
            for a in args[1:]:
                codes = [c * n + x for c, x in zip(codes, a)]
            return kernels.picker(codes)(tables[head])
        if t[1:]:
            raise ValueError(f"variable {head} applied to arguments")
        if head not in env:
            raise ValueError(f"unbound variable {head}")
        return env[head]

    return list(grid(term))


def equation_failure(A, vars_, lhs, rhs):
    """First assignment of vars_, in ``itertools.product`` order over A's
    carrier, where lhs and rhs differ, as a tuple; None if none does."""
    left, right = term_grid(A, lhs, vars_), term_grid(A, rhs, vars_)
    if left == right:
        return None
    i = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
    return tuple(i // A.size ** k % A.size
                 for k in reversed(range(len(vars_))))


# ---------------------------------------------------------------------------
# algebras and homomorphisms
# ---------------------------------------------------------------------------

class FinAlgebra:
    """Finite model of a theory: carrier range(n), flat operation tables."""

    def __init__(self, theory, name, size, ops):
        """``ops`` in the JSON form; a table of the wrong shape is left out."""
        self.theory = theory
        self.name = name
        self.size = size
        self.carrier = tuple(range(size))
        self._tables = {s: t for s, a in theory.symbols if s in ops and
                        (t := _flat(ops[s], a, size)) is not None}

    def apply(self, sym, args):
        i = 0
        for a in args:
            i = i * self.size + a
        return self._tables[sym][i]

    @classmethod
    def from_tables(cls, theory, name, size, tables):
        """The algebra whose operation s has the flat table tables[s], in
        the form ``op_tables()`` returns, kept as given."""
        algebra = cls(theory, name, size, {})
        algebra._tables = tables
        return algebra

    def op_tables(self):
        """Per symbol, its flat table in argument-tuple order: the value at
        (x_1, ..., x_a) sits at x_1 * n^(a-1) + ... + x_a, and a
        constant's table is (value,)."""
        return self._tables

    def validate(self):
        """None when every table is total and every equation holds under
        every assignment; else (kind, witness)."""
        n = self.size
        for s, a in self.theory.symbols:
            t = self._tables.get(s)
            if t is None or len(t) != n ** a or \
                    not all(0 <= v < n for v in t):
                return ("totality", (s,))
        for i, (vars_, lhs, rhs) in enumerate(self.theory.equations):
            vals = equation_failure(self, vars_, lhs, rhs)
            if vals is not None:
                return ("equation", (i, vals))
        return None

    def key(self):
        return (self.size, self.name)

    def __repr__(self):
        return f"FinAlgebra({self.name}, |{self.size}|)"

    def to_json(self):
        return {"name": self.name, "carrier": list(self.carrier),
                "ops": {s: _nested(t, self.size, self.theory.arity(s))
                        for s, t in self._tables.items()}}


def _flat(t, arity, n):
    """A table nested ``arity`` deep with n entries per level, as one
    tuple in argument-tuple order; None when it is not so nested.  Raises
    ValueError at an entry that is neither an int nor a list."""
    if isinstance(t, int):
        return (t,) if arity == 0 else None
    if not isinstance(t, (list, tuple)):
        raise ValueError(f"operation table entry {t!r} is not an int")
    rows = [_flat(x, arity - 1, n) for x in t]
    if arity == 0 or len(t) != n or None in rows:
        return None
    return tuple(itertools.chain.from_iterable(rows))


def _nested(flat, n, arity):
    """The nested lists of a flat table over n elements: its JSON form."""
    if arity == 0:
        return flat[0]
    t = list(flat)
    for _ in range(arity - 1):
        t = [t[i:i + n] for i in range(0, len(t), n)] if n else []
    return t


class AlgHom:
    """Structure-preserving map, stored as the tuple of images."""

    __slots__ = ("src", "tgt", "images", "_hash")

    def __init__(self, src, tgt, images):
        self.src = src
        self.tgt = tgt
        self.images = tuple(images)
        # homs are hashed far more often than built (class memos, caches)
        self._hash = hash((id(src), id(tgt), self.images))

    def __call__(self, x):
        return self.images[x]

    def __eq__(self, other):
        return (isinstance(other, AlgHom) and self.src is other.src
                and self.tgt is other.tgt and self.images == other.images)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AlgHom({self.src.name}->{self.tgt.name}, {self.images})"

    def key(self):
        return (self.src.key(), self.tgt.key(), self.images)

    def is_valid(self):
        """Whether the images commute with every operation, over all
        argument tuples of each table."""
        im, m = self.images, self.tgt.size
        tgt = self.tgt.op_tables()
        for s, a in self.src.theory.symbols:
            codes = [0]
            for _ in range(a):
                codes = [c * m + y for c in codes for y in im]
            if kernels.picker(self.src.op_tables()[s])(im) != \
                    kernels.picker(codes)(tgt[s]):
                return False
        return True

    def is_injective(self):
        return len(set(self.images)) == self.src.size

    def is_surjective(self):
        return len(set(self.images)) == self.tgt.size

    def is_bijective(self):
        return self.is_injective() and self.is_surjective()

    def preimage(self, subset):
        return frozenset(x for x in self.src.carrier if self.images[x] in subset)


def identity_hom(A):
    return AlgHom(A, A, A.carrier)


def compose_homs(g, f):
    if f.tgt is not g.src:
        raise CompositionError("algebra homs not composable")
    return AlgHom(f.src, g.tgt, kernels.picker(f.images)(g.images))


def generating_trace(A):
    """Greedy generator choice plus a production trace for hom extension.

    Returns (gens, trace); trace entries are ("const", sym, elt),
    ("gen", i, elt) or ("op", sym, args, elt) in production order, and
    produce each element of A once.  Cached on A.
    """
    cached = A.__dict__.get("_trace")
    if cached is not None:
        return cached
    produced = {}
    trace = []
    for s in A.theory.constants():
        v = A.apply(s, [])
        if v not in produced:
            produced[v] = len(trace)
            trace.append(("const", s, v))
    gens = []

    def close():
        while True:
            new = []
            syms = [(s, a) for s, a in A.theory.symbols if a > 0]
            for s, a in syms:
                for args in itertools.product(sorted(produced), repeat=a):
                    v = A.apply(s, args)
                    if v not in produced:
                        produced[v] = len(trace)
                        trace.append(("op", s, args, v))
                        new.append(v)
            if not new:
                return

    close()
    for x in A.carrier:
        if x not in produced:
            gens.append(x)
            produced[x] = len(trace)
            trace.append(("gen", len(gens) - 1, x))
            close()
    A._trace = (tuple(gens), tuple(trace))
    return A._trace


def _replay_plan(A):
    """A's table entries in the stages of ``_replay``: stage 0 before the
    first generator, stage i + 1 from generator i on.  A stage lists
    (sym, args, elt, True) for each element the trace produces in it (a
    constant with no args), then (sym, args, value, False) for every other
    table entry whose elements are all produced by then.  Returns (gens,
    stages), cached on A."""
    cached = A.__dict__.get("_plan")
    if cached is not None:
        return cached
    gens, trace = generating_trace(A)
    stages = [[] for _ in range(len(gens) + 1)]
    stage, i = {}, 0
    for entry in trace:
        if entry[0] == "gen":
            i = entry[1] + 1
        else:
            stages[i].append((entry[1], entry[2] if entry[0] == "op" else (),
                              entry[-1], True))
        stage[entry[-1]] = i
    defined = {(s, args) for step in stages for s, args, _, _ in step}
    for s, a in A.theory.symbols:
        for args, v in zip(itertools.product(A.carrier, repeat=a),
                           A.op_tables()[s]):
            if (s, args) not in defined:
                stages[max(stage[x] for x in args + (v,))].append(
                    (s, args, v, False))
    A._plan = (gens, stages)
    return A._plan


def _replay(A, B, choices, bijective=False):
    """The image tuples of the homomorphisms A -> B that send generator i
    into choices[i], in ``itertools.product(*choices)`` order; with
    ``bijective``, only the bijective ones.

    A map is extended stage by stage along A's generating trace: a stage
    assigns one generator and the elements produced from it, then tests
    the table entries of A whose elements are all assigned, so a partial
    assignment that already fails is never extended."""
    gens, plan = _replay_plan(A)
    m, tables = B.size, B.op_tables()
    stages = [[(tables[s], args, v, step) for s, args, v, step in stage]
              for stage in plan]
    img = [0] * A.size

    def extend(i):
        for table, args, v, step in stages[i]:
            c = 0
            for x in args:
                c = c * m + img[x]
            if step:
                img[v] = table[c]
            elif table[c] != img[v]:
                return False
        return True

    def search(i):
        if i == len(gens):
            if not bijective or len(set(img)) == len(img):
                yield tuple(img)
            return
        for y in choices[i]:
            img[gens[i]] = y
            if extend(i + 1):
                yield from search(i + 1)

    if extend(0):
        yield from search(0)


def hom_rows(A, B):
    """The image tuples of all homomorphisms A -> B, in ascending
    lexicographic order.

    Generator i is the least element that the constants and the earlier
    generators do not produce, so every element before it in the carrier
    has its image fixed by the earlier generators.  Hence the product
    order of the generators' images over B's ascending carrier is already
    the lexicographic order of the image tuples."""
    return list(_replay(A, B, [B.carrier] * len(generating_trace(A)[0])))


def enumerate_homs(A, B):
    """All homomorphisms A -> B in deterministic (image-tuple) order."""
    return [AlgHom(A, B, row) for row in hom_rows(A, B)]


def _element_profile(A):
    """Per-element invariant refined through the tables; isomorphism
    invariant, used to prune the isomorphism search.  Cached on A.

    Three rounds of colour refinement over ``op_tables()``.  An element's
    signature is its colour and, per symbol, whether it is the constant,
    the colour of its unary image, or the sorted colours of its binary row
    and of its binary column; the new colours number the distinct
    signatures in lexicographic order."""
    cached = A.__dict__.get("_profile")
    if cached is not None:
        return cached
    n = A.size
    colors = [0] * n
    tables = A.op_tables()
    for _ in range(3 if n else 0):
        sig = [[c] for c in colors]
        for s, a in A.theory.symbols:
            table = tables[s]
            for x, row in enumerate(sig):
                if a == 0:
                    row.append(int(x == table[0]))
                elif a == 1:
                    row.append(colors[table[x]])
                elif a == 2:
                    row += sorted(map(colors.__getitem__,
                                      table[x * n:x * n + n]))
                    row += sorted(map(colors.__getitem__, table[x::n]))
        rows = list(map(tuple, sig))
        rank = {r: i for i, r in enumerate(sorted(set(rows)))}
        colors = [rank[r] for r in rows]
    A._profile = tuple(colors)
    return A._profile


def find_isomorphism(A, B):
    """First isomorphism A -> B in generator-assignment order, or None.

    Each generator ranges over the elements of B of its own profile
    colour, in carrier order."""
    if A.size != B.size:
        return None
    ca, cb = _element_profile(A), _element_profile(B)
    if sorted(ca) != sorted(cb):
        return None
    by_color = {}
    for y in B.carrier:
        by_color.setdefault(cb[y], []).append(y)
    choices = [by_color.get(ca[g], ()) for g in generating_trace(A)[0]]
    row = next(_replay(A, B, choices, bijective=True), None)
    return None if row is None else AlgHom(A, B, row)


# ---------------------------------------------------------------------------
# subalgebras, congruences, quotients
# ---------------------------------------------------------------------------

def subalgebra_closure(A, seed):
    """The least subalgebra holding ``seed`` and the constants; with an
    empty seed the minimal subalgebra (empty for constant-free
    signatures)."""
    S = set(seed) | {A.apply(s, []) for s in A.theory.constants()}
    changed = True
    while changed:
        changed = False
        for s, a in A.theory.symbols:
            if a == 0:
                continue
            for args in itertools.product(sorted(S), repeat=a):
                v = A.apply(s, args)
                if v not in S:
                    S.add(v)
                    changed = True
    return frozenset(S)


def _canon_partition(rep, n):
    relabel = {}
    out = []
    for i in range(n):
        r = rep[i]
        if r not in relabel:
            relabel[r] = len(relabel)
        out.append(relabel[r])
    return tuple(out)


def _congruence_closure(A, pairs):
    """Smallest congruence identifying the given pairs (union-find plus
    operation saturation)."""
    n = A.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for s, a in A.theory.symbols:
            if a == 0:
                continue
            for pos in range(a):
                for rest in itertools.product(range(n), repeat=a - 1):
                    args_x = rest[:pos] + (x,) + rest[pos:]
                    args_y = rest[:pos] + (y,) + rest[pos:]
                    vx, vy = A.apply(s, args_x), A.apply(s, args_y)
                    if find(vx) != find(vy):
                        queue.append((vx, vy))
    return _canon_partition([find(i) for i in range(n)], n)


def congruences(A):
    """All congruences as canonical partition tuples: principal congruences
    joined to closure."""
    n = A.size
    delta = tuple(range(n))
    principals = set()
    for a in range(n):
        for b in range(a + 1, n):
            principals.add(_congruence_closure(A, [(a, b)]))
    known = {delta} | principals
    frontier = set(known)
    while frontier:
        new = set()
        for th1 in frontier:
            for th2 in known:
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if th1[i] == th1[j] or th2[i] == th2[j]]
                j = _congruence_closure(A, pairs)
                if j not in known:
                    new.add(j)
        known |= new
        frontier = new
    return sorted(known)


def _coded_algebra(theory, name, factors, codes, relabel=None):
    """The algebra on ``codes``, the ascending codes of a subset of
    factors[0] x ... x factors[-1] that every operation maps into itself,
    operated coordinatewise; (x_1, ..., x_k) is coded in mixed radix, x_k
    the last digit.  With ``relabel``, a list over the codes, it is the
    quotient whose classes ``codes`` represents: a computed code c stands
    for the class of relabel[c], its representative.

    Each flat operation table is read coordinate by coordinate from the
    factors' ``FinAlgebra.op_tables()``, then each code is replaced by
    its position among ``codes``.
    """
    n = len(codes)
    position = {c: i for i, c in enumerate(codes)}
    coords, weight = [], 1
    for X in reversed(factors):
        coords.insert(0, [c // weight % X.size for c in codes])
        weight *= X.size
    tables = {}
    for s, a in theory.symbols:
        value = [0] * n ** a
        for X, xs in zip(factors, coords):
            args = [0]
            for _ in range(a):
                args = [c * X.size + x for c in args for x in xs]
            table = X.op_tables()[s]
            value = [v * X.size + table[c] for v, c in zip(value, args)]
        if relabel is not None:
            value = map(relabel.__getitem__, value)
        tables[s] = tuple(map(position.__getitem__, value))
    return FinAlgebra.from_tables(theory, name, n, tables)


def _pair_codes(f, g):
    """The pairs (a, b) with f(a) = g(b), coded a * |src g| + b, ascending."""
    over = {}
    for b, y in enumerate(g.images):
        over.setdefault(y, []).append(b)
    n = g.src.size
    return [a * n + b for a, y in enumerate(f.images) for b in over.get(y, ())]


def quotient_algebra(A, theta, name=None):
    """Quotient by a congruence (a partition tuple), with the projection
    hom; its elements are the classes in the order of their least
    elements."""
    first = {}
    for x, label in enumerate(theta):
        first.setdefault(label, x)
    rep = [first[label] for label in theta]  # least element of the class
    codes = sorted(first.values())
    Q = _coded_algebra(A.theory, name or f"{A.name}/~", (A,), codes, rep)
    position = {c: i for i, c in enumerate(codes)}
    return Q, AlgHom(A, Q, [position[r] for r in rep])


def enumerate_normal_subalgebras(A):
    """Preimages of minimal subalgebras along quotient maps; exact for
    finite algebras since every hom factors through its image."""
    out = set()
    for theta in congruences(A):
        Q, q = quotient_algebra(A, theta)
        out.add(q.preimage(subalgebra_closure(Q, ())))
    return sorted(out, key=sorted)


# ---------------------------------------------------------------------------
# theory-property witnesses
# ---------------------------------------------------------------------------

def validate_theory_witnesses(theory, witnesses, corpus):
    """Check candidate terms for pointed / Malcev / protomodular structure by
    satisfaction in every algebra of the corpus.

    ``witnesses`` maps "pointed" -> constant term, "malcev" -> term p, and
    "protomodular" -> (theta, [theta_i...], [e_i...]).  Returns a dict of
    verdicts with the first failing (algebra, assignment) witness.
    """
    if not corpus:
        raise ValueError("empty corpus")
    verdicts = {}

    def holds(vars_, lhs, rhs):
        for A in corpus:
            vals = equation_failure(A, vars_, lhs, rhs)
            if vals is not None:
                return False, (A.name, vals)
        return True, None

    if "pointed" in witnesses:
        e = witnesses["pointed"]
        ok, wit = True, None
        for s, a in theory.symbols:
            lhs = (s,) + tuple([e] * a)
            ok, wit = holds((), lhs, e)
            if not ok:
                break
        verdicts["pointed"] = (ok, wit)
    if "malcev" in witnesses:
        p = witnesses["malcev"]

        x, y = ("x",), ("y",)
        eq1 = _subst_env(p, {"x": x, "y": y, "z": y})
        eq2 = _subst_env(p, {"x": x, "y": x, "z": y})
        ok1, w1 = holds(("x", "y"), eq1, x)
        ok2, w2 = holds(("x", "y"), eq2, y)
        verdicts["malcev"] = (ok1 and ok2, w1 or w2)
    if "protomodular" in witnesses:
        theta, thetas, consts = witnesses["protomodular"]
        ok, wit = True, None
        for th_i, e_i in zip(thetas, consts):
            oki, wi = holds(("x",), _subst2(th_i, ("x",), ("x",)), e_i)
            if not oki:
                ok, wit = False, wi
                break
        if ok:
            x, y = ("x",), ("y",)
            inner = [_subst2(th_i, x, y) for th_i in thetas]
            # theta is a term over variables (y, z1..zn)
            env = {"y": y}
            for i, t in enumerate(inner):
                env[f"z{i + 1}"] = t
            lhs = _subst_env(theta, env)
            ok, wit = holds(("x", "y"), lhs, x)
        verdicts["protomodular"] = (ok, wit)
    return verdicts


def _subst_env(term, env):
    head = term[0]
    if head in env and not term[1:]:
        return env[head]
    return (head,) + tuple(_subst_env(t, env) for t in term[1:])


def _subst2(term, x, y):
    return _subst_env(term, {"x": x, "y": y})


def derived_malcev_term(theta, thetas):
    """The Malcev term induced by a protomodular witness tuple:
    p(x,y,z) = theta(z, theta_1(x,y), ..., theta_n(x,y)).

    Then p(x,y,y) reduces by the defining identity and p(x,x,y) by its
    x := y instance through the constants.
    """
    env = {"y": ("z",)}
    for i, th in enumerate(thetas):
        env[f"z{i + 1}"] = _subst_env(th, {"x": ("x",), "y": ("y",)})
    return _subst_env(theta, env)


# ---------------------------------------------------------------------------
# t-uniformity
# ---------------------------------------------------------------------------

class UniformityReport:
    def __init__(self, hom, t, weakly_t_uniform, t_uniform,
                 strongly_t_uniform, t_cancelative, weakly_t_cancelative,
                 witnesses=None):
        self.hom = hom
        self.t = t
        self.weakly_t_uniform = weakly_t_uniform
        self.t_uniform = t_uniform
        self.strongly_t_uniform = strongly_t_uniform
        self.t_cancelative = t_cancelative
        self.weakly_t_cancelative = weakly_t_cancelative
        self.witnesses = {} if witnesses is None else witnesses

    def to_json(self):
        return {"hom": list(self.hom.images),
                "src": self.hom.src.name, "tgt": self.hom.tgt.name,
                "weakly_t_uniform": self.weakly_t_uniform,
                "t_uniform": self.t_uniform,
                "strongly_t_uniform": self.strongly_t_uniform,
                "t_cancelative": self.t_cancelative,
                "weakly_t_cancelative": self.weakly_t_cancelative,
                "witnesses": {k: list(v) for k, v in self.witnesses.items()}}


def _t_mul(A, t):
    """The binary operation x, y -> t(x, y) on A, read from its table."""
    table, n = term_grid(A, t, ("x", "y")), A.size
    return lambda x, y: table[x * n + y]


def classify_uniformity(f, t=None, normals=None):
    """Exhaustive uniformity flags for one hom, with witnesses."""
    M, N = f.src, f.tgt
    t = t or M.theory.default_t
    if t is None:
        raise ValueError("no binary term supplied")
    mulM = _t_mul(M, t)
    mulN = _t_mul(N, t)
    K = sorted(f.preimage(subalgebra_closure(N, ())))
    wit = {}

    weak = True
    for m1 in M.carrier:
        for m2 in M.carrier:
            if f(m1) != f(m2):
                continue
            if not any(mulM(m, k1) == m1 and mulM(m, k2) == m2
                       for m in M.carrier for k1 in K for k2 in K):
                weak = False
                wit["weakly_t_uniform"] = (m1, m2)
                break
        if not weak:
            break

    uniform = True
    for m in M.carrier:
        for m2 in M.carrier:
            if f(m) != f(m2):
                continue
            if not any(mulM(m2, k) == m for k in K):
                uniform = False
                wit["t_uniform"] = (m, m2)
                break
        if not uniform:
            break

    bad = _strong_uniformity_witness(f, mulM, mulN, normals)
    strong = bad is None
    if not strong:
        wit["strongly_t_uniform"] = bad

    canc = True
    for m in M.carrier:
        for m1 in M.carrier:
            for m2 in M.carrier:
                if mulN(f(m), f(m1)) == mulN(f(m), f(m2)) and f(m1) != f(m2):
                    canc = False
                    wit["t_cancelative"] = (m, m1, m2)
                    break
            if not canc:
                break
        if not canc:
            break

    wcanc = True
    for m in M.carrier:
        for m1 in K:
            for m2 in K:
                if mulN(f(m), f(m1)) == mulN(f(m), f(m2)) and f(m1) != f(m2):
                    wcanc = False
                    wit["weakly_t_cancelative"] = (m, m1, m2)
                    break
            if not wcanc:
                break
        if not wcanc:
            break

    return UniformityReport(f, t, weak, uniform, strong, canc, wcanc, wit)


def is_strongly_t_uniform(f, t=None, normals=None):
    """Translation sets through t match preimages of translated normal
    subalgebras; the quantifier runs over normal subalgebras of the target."""
    t = t or f.src.theory.default_t
    return _strong_uniformity_witness(f, _t_mul(f.src, t), _t_mul(f.tgt, t),
                                      normals) is None


def _strong_uniformity_witness(f, mulM, mulN, normals=None):
    """The first (m, sorted I), m in the source and I a normal subalgebra
    of the target (all of them when normals is None), with
    t(m, f^-1(I)) != f^-1(t(f(m), I)); None when there is none."""
    M = f.src
    if normals is None:
        normals = enumerate_normal_subalgebras(f.tgt)
    for m in M.carrier:
        for I in normals:
            left = {mulM(m, x) for x in f.preimage(I)}
            fmI = {mulN(f(m), i) for i in I}
            right = {y for y in M.carrier if f(y) in fmI}
            if left != right:
                return m, tuple(sorted(I))
    return None


class _UniformityFlags:
    """Per-hom uniformity flag cache over one ambient category."""

    def __init__(self, cat, t=None):
        self.cat = cat
        self.t = t or cat.theory.default_t
        self.normals = {}
        self.reports = {}

    def normals_of(self, A):
        if id(A) not in self.normals:
            self.normals[id(A)] = enumerate_normal_subalgebras(A)
        return self.normals[id(A)]

    def report(self, h):
        if h not in self.reports:
            self.reports[h] = classify_uniformity(
                h, self.t, normals=self.normals_of(h.tgt))
        return self.reports[h]

    def surjective_strong(self, h):
        return h.is_surjective() and self.report(h).strongly_t_uniform


def _division_pattern(f, t):
    """For all g1, g3 some g2 solves g1 g2 = g3, uniquely on images."""
    G, N = f.src, f.tgt
    mulG = _t_mul(G, t)
    mulN = _t_mul(N, t)
    for g1 in G.carrier:
        for g3 in G.carrier:
            g2 = next((g for g in G.carrier if mulG(g1, g) == g3), None)
            if g2 is None:
                return False
            for k in N.carrier:
                if mulN(f(g1), k) == f(g3) and k != f(g2):
                    return False
    return True


def verify_uniformity_theorem(cat, t=None, pullback_cap=24,
                              rectangle_cap=200000):
    """The three-part theorem about uniform morphisms, over one ambient.

    Part 1: surjective strongly uniform morphisms form a right-cancelable
    system.  Part 2: morphisms with the unique-division pattern are stably
    strongly uniform (verified over concrete pullbacks, capped per
    morphism).  Part 3: the commutative-rectangle surjectivity/injectivity
    conclusions, assembled with the fourth leg determined by the other
    three (capped globally).  A counterexample in any conclusion escalates
    as a defect in the report.
    """
    t = t or cat.theory.default_t
    flags = _UniformityFlags(cat, t)
    homs = list(cat.morphisms())
    out = {}

    # part 1: contains isos, composition closed, right-cancelable
    wit = None
    ok = True
    for h in homs:
        if cat.is_iso(h) and not flags.surjective_strong(h):
            ok, wit = False, ("iso not in class", h)
            break
    comp_checked = 0
    if ok:
        members = [h for h in homs if flags.surjective_strong(h)]
        by_src = {}
        for h in members:
            by_src.setdefault(id(h.src), []).append(h)
        for f in members:
            for g in by_src.get(id(f.tgt), ()):
                comp_checked += 1
                if not flags.surjective_strong(compose_homs(g, f)):
                    ok, wit = False, ("composition", f, g)
                    break
            if not ok:
                break
    if ok:
        for f in homs:
            if not flags.surjective_strong(f):
                continue
            for g in homs:
                if g.src is not f.tgt:
                    continue
                if flags.surjective_strong(compose_homs(g, f)) and \
                        not flags.surjective_strong(g):
                    ok, wit = False, ("right-cancel", f, g)
                    break
            if not ok:
                break
    out["part1"] = {"ok": ok, "witness": wit,
                    "composable_pairs_checked": comp_checked}

    # part 2: the division pattern forces stable strong uniformity
    ok = True
    wit = None
    qualifying = 0
    probes = 0
    capped = False
    for f in homs:
        if not _division_pattern(f, t):
            continue
        qualifying += 1
        n_probe = 0
        for h in cat.morphisms_into(f.tgt):
            if pullback_cap is not None and n_probe >= pullback_cap:
                capped = True
                break
            n_probe += 1
            probes += 1
            codes = _pair_codes(f, h)
            P = _coded_algebra(cat.theory, "pb", (f.src, h.src), codes)
            proj2 = AlgHom(P, h.src, [c % h.src.size for c in codes])
            if not is_strongly_t_uniform(proj2, t,
                                         flags.normals_of(h.src)):
                ok, wit = False, ("pullback not strongly uniform", f, h)
                break
        if not ok:
            break
    out["part2"] = {"ok": ok, "witness": wit, "qualifying": qualifying,
                    "pullbacks_checked": probes, "capped": capped}

    # part 3: rectangle conclusions
    out["part3"] = _rectangle_clauses(cat, flags, rectangle_cap)
    return out


def _rectangle_clauses(cat, flags, cap):
    homs = list(cat.morphisms())
    count = 0
    capped = False
    surj_ok = True
    surj_wit = None
    inj_ok = True
    inj_wit = None
    weak_ok = True
    weak_wit = None

    def K_of(h):
        return h.preimage(subalgebra_closure(h.tgt, ()))

    # surjectivity clause: gamma is determined by f.beta through the
    # surjective f'
    t_unif_surj = [f for f in homs
                   if f.is_surjective() and flags.report(f).t_uniform]
    surjections = [f for f in homs if f.is_surjective()]
    for f in t_unif_surj:
        for fp in surjections:
            betas = cat.hom(fp.src, f.src)
            for beta in betas:
                if cap is not None and count >= cap:
                    capped = True
                    break
                count += 1
                fb = compose_homs(f, beta)
                gmap = {}
                welldef = True
                for x in fp.src.carrier:
                    y = fp(x)
                    if y in gmap and gmap[y] != fb(x):
                        welldef = False
                        break
                    gmap[y] = fb(x)
                if not welldef:
                    continue
                gamma = AlgHom(fp.tgt, f.tgt,
                               tuple(gmap[y] for y in fp.tgt.carrier))
                if not gamma.is_surjective():
                    continue
                Kp, K = K_of(fp), K_of(f)
                alpha_img = {beta(x) for x in Kp}
                if alpha_img != K:
                    continue  # alpha not surjective
                if not beta.is_surjective():
                    surj_ok, surj_wit = False, (f, fp, beta)
                    break
            if not surj_ok or capped:
                break
        if not surj_ok or capped:
            break

    # injectivity clauses: f' is determined through the injective gamma
    cancelative = [b for b in homs if flags.report(b).t_cancelative]
    weakly_canc = [b for b in homs if flags.report(b).weakly_t_cancelative]
    for which, betas in (("strict", cancelative), ("weak", weakly_canc)):
        for beta in betas:
            if capped:
                break
            for f in cat.morphisms_from(beta.tgt):
                if which == "weak" and not f.is_injective():
                    continue
                fb = compose_homs(f, beta)
                imfb = set(fb.images)
                for gamma in homs:
                    if gamma.tgt is not f.tgt or not gamma.is_injective():
                        continue
                    if not imfb <= set(gamma.images):
                        continue
                    if cap is not None and count >= cap:
                        capped = True
                        break
                    count += 1
                    inv = {y: i for i, y in enumerate(gamma.images)}
                    fp = AlgHom(beta.src, gamma.src,
                                tuple(inv[fb(x)]
                                      for x in beta.src.carrier))
                    if not flags.report(fp).weakly_t_uniform:
                        continue
                    Kp = K_of(fp)
                    restr = [beta(x) for x in sorted(Kp)]
                    if len(set(restr)) != len(restr):
                        continue  # alpha not injective
                    if not beta.is_injective():
                        if which == "strict":
                            inj_ok, inj_wit = False, (beta, f, gamma)
                        else:
                            weak_ok, weak_wit = False, (beta, f, gamma)
                        break
                if not inj_ok or not weak_ok or capped:
                    break
            if not inj_ok or not weak_ok:
                break

    return {"surjectivity": {"ok": surj_ok, "witness": surj_wit},
            "injectivity": {"ok": inj_ok, "witness": inj_wit},
            "weak_injectivity": {"ok": weak_ok, "witness": weak_wit},
            "rectangles_checked": count, "capped": capped}


def is_right_unital(t, corpus, constants=None):
    """Whether some constant term acts as a right unit for t on the whole
    corpus; returns the witnessing constant symbol or None."""
    if not corpus:
        return None
    theory = corpus[0].theory
    for c in (constants or theory.constants()):
        ok = True
        for A in corpus:
            e = A.apply(c, [])
            mul = _t_mul(A, t)
            if any(mul(x, e) != x for x in A.carrier):
                ok = False
                break
        if ok:
            return c
    return None


def check_monic_pullback_corollary(f, t=None):
    """injective(f) iff injective(f restricted to the preimage of the
    structural constants); hypotheses are checked first."""
    rep = classify_uniformity(f, t)
    if not (rep.weakly_t_uniform and rep.weakly_t_cancelative):
        return {"ok": None, "hypothesis_failures": [
            k for k in ("weakly_t_uniform", "weakly_t_cancelative")
            if not getattr(rep, k)]}
    K = sorted(f.preimage(subalgebra_closure(f.tgt, ())))
    restr_inj = len({f(k) for k in K}) == len(K)
    return {"ok": f.is_injective() == restr_inj,
            "injective": f.is_injective(), "restriction_injective": restr_inj}


# ---------------------------------------------------------------------------
# the ambient category of finite algebras
# ---------------------------------------------------------------------------

class AlgPullbackSquare(PullbackSquare):
    """Pullback square over the algebra ambient with on-demand mediators.

    The apex element i is the pair (proj1(i), proj2(i)); the mediator
    of a cone (p, q) sends x to the element (p(x), q(x)).
    """

    def mediator(self, p, q):
        if (p, q) not in self.mediators:
            apex = {pair: i for i, pair in
                    enumerate(zip(self.proj1.images, self.proj2.images))}
            self.mediators[(p, q)] = AlgHom(p.src, self.apex, list(
                map(apex.__getitem__, zip(p.images, q.images))))
        return self.mediators[(p, q)]


class AlgCategory(CategoryBase):
    """Iso-classes of finite algebras of a theory, discovered on demand.

    Objects up to the size cap are registered through ``register``;
    pullbacks are equalizing subalgebras of products, canonicalized back
    to the roster (a CapExceeded is raised past the cap).
    """

    concrete = True

    def __init__(self, theory, size_cap, name=None):
        super().__init__()
        self.theory = theory
        self.size_cap = size_cap
        self.name = name or f"{theory.name}<= {size_cap}"
        self._roster = []
        self._hom_cache = {}
        self._hom_pos = {}       # hom -> its position in its hom set
        self._keys = {}          # (id A, id C) -> _hom_keys
        self._rows = {}          # (id A, g) -> composites(A, g)
        self._into_cache = {}
        self._from_cache = {}
        self._composites = self._orbits = None
        self._sub_cache = {}
        self._fresh = 0

    # -- roster management -----------------------------------------------------

    def register(self, algebra):
        """Add an algebra (validated) and return its roster representative;
        isomorphic duplicates collapse to the first registered copy."""
        if algebra.size > self.size_cap:
            raise CapExceeded(
                f"|{algebra.name}| = {algebra.size} > cap {self.size_cap}")
        err = algebra.validate()
        if err is not None:
            raise ValueError(f"{algebra.name} fails {err}")
        return self._admit(algebra)[0]

    def _admit(self, algebra):
        """Roster representative R of a model of the theory, with an
        isomorphism R -> algebra (the identity when the algebra joins the
        roster).  Not validated: callers pass models, such as subalgebras
        and equalizers of roster algebras."""
        for R in self._roster:
            if R.size == algebra.size:
                iso = find_isomorphism(R, algebra)
                if iso is not None:
                    return R, iso
        self._roster.append(algebra)
        self._roster.sort(key=lambda A: A.key())
        self._into_cache.clear()
        self._from_cache.clear()
        self._composites = self._orbits = None
        drop_derived_memos(self)
        return algebra, identity_hom(algebra)

    def fresh_name(self, stem):
        self._fresh += 1
        return f"{stem}#{self._fresh}"

    # -- protocol ----------------------------------------------------------------

    def objects(self):
        return tuple(self._roster)

    def morphisms(self):
        out = []
        for A in self._roster:
            for B in self._roster:
                out.extend(self.hom(A, B))
        return tuple(out)

    def hom(self, A, B):
        key = (id(A), id(B))
        homs = self._hom_cache.get(key)
        if homs is None:
            homs = self._hom_cache[key] = tuple(
                AlgHom(A, B, row) for row in hom_rows(A, B))
            self._hom_pos.update((h, i) for i, h in enumerate(homs))
        return homs

    def morphisms_into(self, B):
        if id(B) not in self._into_cache:
            out = []
            for A in self._roster:
                out.extend(self.hom(A, B))
            self._into_cache[id(B)] = tuple(out)
        return self._into_cache[id(B)]

    def morphisms_from(self, A):
        if id(A) not in self._from_cache:
            out = []
            for B in self._roster:
                out.extend(self.hom(A, B))
            self._from_cache[id(A)] = tuple(out)
        return self._from_cache[id(A)]

    def src(self, m):
        return m.src

    def tgt(self, m):
        return m.tgt

    def composite_index(self):
        """The roster's CompositeIndex, dropped when the roster grows.
        Raises CapExceeded, before any table is computed, when the index
        would hold more than ``_INDEX_BUDGET`` entries."""
        if self._composites is None:
            ms = self.morphisms()
            entries = sum(len(self.morphisms_from(b))
                          * len(self.morphisms_into(b)) for b in self._roster)
            if entries > _INDEX_BUDGET:
                raise CapExceeded(f"composite index needs {entries} entries "
                                  f"> budget {_INDEX_BUDGET}")
            # morphisms() lists hom(A, C) for A, then C, in roster order
            spans, n = {}, 0
            for A in self._roster:
                for C in self._roster:
                    spans[id(A), id(C)] = range(n, n + len(self.hom(A, C)))
                    n += len(self.hom(A, C))
            self._composites = CompositeIndex(ms, spans)
        return self._composites

    def composites(self, A, g):
        """The positions in hom(A, tgt g) of g . f for each f in
        hom(A, src g), in hom order and the narrowest typecode, from one
        gather of g's images per generator x of A at every f(x); kept."""
        row = self._rows.get((id(A), g))
        if row is None:
            pos, _, typecode = self._hom_keys(A, g.tgt)
            ats = [at(g.images) for at in self._hom_keys(A, g.src)[1]]
            row = self._rows[id(A), g] = array(
                typecode, map(pos.__getitem__, zip(*ats)) if ats
                else [0] * len(self.hom(A, g.src)))
        return row

    def composite_blocks(self):
        """The composite-index protocol of ``CategoryBase``, one block per
        hom-set triple (A, b, C) in (b, A, C) roster order: rows, cols and
        targets are the contiguous indices of hom(b, C), hom(A, b) and
        hom(A, C) in ``morphisms()``, and row i is
        ``composites(A, hom(b, C)[i])``."""
        spans, roster = self.composite_index().spans, self._roster
        for b in roster:
            for A in roster:
                for C in roster:
                    yield (spans[id(b), id(C)], spans[id(A), id(b)],
                           spans[id(A), id(C)],
                           lambda i, A=A, G=self.hom(b, C):
                           self.composites(A, G[i]))

    def _hom_keys(self, A, C):
        """({images of A's generators: position} over hom(A, C), per
        generator x of A the picker of the h(x), h in hom(A, C), and the
        typecode of positions there); kept for the category's life.
        Without generators hom(A, C) has at most one hom, keyed ()."""
        key = (id(A), id(C))
        if key not in self._keys:
            homs, gens = self.hom(A, C), generating_trace(A)[0]
            at = kernels.picker(gens)
            self._keys[key] = (
                {at(h.images): k for k, h in enumerate(homs)},
                [kernels.picker([h.images[x] for h in homs]) for x in gens],
                kernels.table_typecode(len(homs)))
        return self._keys[key]

    @property
    def orbit_reps(self):
        """``CategoryBase.orbit_reps``, each orbit walked along the
        generators of an automorphism group (``aut_generators``); kept
        until the roster grows."""
        if self._orbits is None:
            spans = self.composite_index().spans
            ident = list(range(len(self.morphisms())))
            right, left = ident[:], ident[:]
            for x in self._roster:
                gens = self.aut_generators(x)
                outs, ins = [{} for _ in gens], [{} for _ in gens]
                for y in gens and self._roster:
                    # h . a reads h's images at a's generator images;
                    # a . h is a's composite row from y
                    pos, out = self._hom_keys(x, y)[0], spans[id(x), id(y)]
                    into = spans[id(y), id(x)]
                    images = [h.images for h in self.hom(x, y)]
                    for a, rmove, lmove in zip(gens, outs, ins):
                        at = kernels.picker(kernels.picker(
                            generating_trace(x)[0])(a.images))
                        rmove.update(zip(out, map(out.__getitem__, map(
                            pos.__getitem__, map(at, images)))))
                        lmove.update(zip(into, map(
                            into.__getitem__, self.composites(y, a))))
                if gens:
                    kernels.orbit_reps(right, outs[0], outs)
                    kernels.orbit_reps(left, ins[0], ins)
            self._orbits = right != ident and (right, left)
        return self._orbits or None

    def aut_generators(self, b):
        """Generators of Aut(b), picked greedily in reverse hom order."""
        gens, group, picks = [], {b.carrier}, []
        for a in reversed(self.hom(b, b)):
            if a.images not in group and a.is_bijective():
                gens.append(a)
                picks.append(kernels.picker(a.images))
                todo = list(group)
                while todo:
                    for y in map(methodcaller("__call__", todo.pop()), picks):
                        if y not in group:
                            group.add(y)
                            todo.append(y)
        return gens

    def first_unstable_pullback(self, A, img, into):
        """Least (g, proj) among the morphisms g into the target of an
        A-member with image img whose pullback projection proj is not in A.

        ``into`` is walked one hom set hom(X, z) at a time (the roster may
        grow during the scan), whose preimages of img are read as flags per
        element of X.  Each distinct nonempty (X, preimage) is decided once, in
        first-occurrence order, by its ``subalgebra_object`` projection and
        A's membership memo, so the subobjects are registered, and named,
        in the order of a hom-by-hom scan."""
        z = into[0].tgt
        inside = [y in img for y in z.carrier]
        lo = 0
        while lo < len(into):
            X = into[lo].src
            homs = self.hom(X, z)
            lo += len(homs)
            pres = [tuple(map(inside.__getitem__, h.images)) for h in homs]
            for pre in dict.fromkeys(pres):
                if not any(pre):
                    continue  # constant-free theories are outside the corpus
                _, proj = self.subalgebra_object(X, sum(
                    itertools.compress([1 << k for k in X.carrier], pre)))
                if not A.contains(proj):
                    return homs[pres.index(pre)], proj
        return None

    def identity(self, A):
        return identity_hom(A)

    def compose(self, g, f):
        """g . f, read from the kept composite row of (src f, g) when
        there is one, else composed image by image.  The roster's own hom
        whenever hom(src f, tgt g) is listed: compose lists no hom set
        and computes no row itself."""
        if f.tgt is not g.src:
            raise CompositionError("algebra homs not composable")
        homs = self._hom_cache.get((id(f.src), id(g.tgt)))
        row = self._rows.get((id(f.src), g))
        if row is None:
            gf = compose_homs(g, f)
            return gf if homs is None else homs[self._hom_pos[gf]]
        return homs[row[self._hom_pos[f]]]

    def is_iso(self, m):
        # a bijective hom between finite algebras has a hom inverse
        return m.is_bijective()

    def is_mono(self, m):
        return m.is_injective()

    def is_epi(self, m):
        return m.is_surjective()

    def is_section(self, f):
        """Some r in hom(b, a) has r.f = id_a, read off image tuples."""
        at = kernels.picker(f.images)
        return any(at(r.images) == f.src.carrier
                   for r in self.hom(f.tgt, f.src))

    def is_retraction(self, f):
        """Some s in hom(b, a) has f.s = id_b, read off image tuples."""
        return any(kernels.picker(s.images)(f.images) == f.tgt.carrier
                   for s in self.hom(f.tgt, f.src))

    def iso_inverse(self, m):
        if not m.is_bijective():
            return None
        inv = [0] * m.tgt.size
        for x, y in enumerate(m.images):
            inv[y] = x
        return AlgHom(m.tgt, m.src, tuple(inv))

    def initial(self):
        """The roster object with exactly one hom to every roster member."""
        for A in self._roster:
            if all(len(self.hom(A, B)) == 1 for B in self._roster):
                return A
        return None

    def terminal(self):
        for A in self._roster:
            if all(len(self.hom(B, A)) == 1 for B in self._roster):
                return A
        return None

    # -- pullbacks -----------------------------------------------------------------

    def find_pullback(self, f, g):
        key = (f, g)
        if key in self._pullback_cache:
            return self._pullback_cache[key]
        if f.tgt is not g.tgt:
            raise CompositionError("cospan legs must share a target")
        if g.is_injective() or f.is_injective():
            square = self._preimage_pullback(f, g)
        else:
            square = self._pair_pullback(f, g)
        self._pullback_cache[key] = square
        return square

    def _pair_pullback(self, f, g):
        """The apex on the pairs (a, b) with f(a) = g(b), coded
        a * |src g| + b.  It takes a fresh "pb" name, then is sized from
        its codes before any table is built."""
        codes = _pair_codes(f, g)
        name = self.fresh_name("pb")
        if len(codes) > self.size_cap:
            raise CapExceeded(
                f"pullback of ({f!r}, {g!r}) has size {len(codes)} > cap")
        R, iso = self._admit(
            _coded_algebra(self.theory, name, (f.src, g.src), codes))
        apex = [codes[i] for i in iso.images]
        n = g.src.size
        return AlgPullbackSquare(self, f, g, R,
                                 AlgHom(R, f.src, [c // n for c in apex]),
                                 AlgHom(R, g.src, [c % n for c in apex]), {})

    def _preimage_pullback(self, f, g):
        """When a leg m is injective (g when both are), the apex is the
        subalgebra of the other leg's source over the preimage of m's
        image: no fresh registration beyond that subobject."""
        swap = not g.is_injective()
        m, h = (f, g) if swap else (g, f)
        inv = {y: i for i, y in enumerate(m.images)}
        R, incl = self.subalgebra_object(
            h.src, sum(1 << x for x, y in enumerate(h.images) if y in inv))
        other = AlgHom(R, m.src, [inv[h.images[x]] for x in incl.images])
        proj1, proj2 = (other, incl) if swap else (incl, other)
        return AlgPullbackSquare(self, f, g, R, proj1, proj2, {})

    def subalgebra_object(self, A, mask):
        """Roster representative of the subset of A with bitmask ``mask``
        (element x when bit x is set), which the operations must
        preserve, with the inclusion; cached per (id(A), mask) for the
        category's life."""
        hit = self._sub_cache.get((id(A), mask))
        if hit is None:
            elems = [x for x in A.carrier if mask >> x & 1]
            R, iso = self._admit(_coded_algebra(
                self.theory, self.fresh_name("sub"), (A,), elems))
            hit = self._sub_cache[id(A), mask] = (
                R, AlgHom(R, A, [elems[i] for i in iso.images]))
        return hit


class CompositeIndex:
    """An algebra ambient's morphisms as indices: ``spans`` maps (id A,
    id C) to the range of indices of hom(A, C), so hom(A, C)[k], and a
    composite table's position k in hom(A, C), is
    morphisms[spans[id A, id C][k]]."""

    def __init__(self, morphisms, spans):
        self.morphisms = morphisms
        self.spans = spans


# Most table entries (composable pairs) one composite index may hold: 16M
# entries.  The 8-object ambient of the CLI needs about 0.5M.
_INDEX_BUDGET = 1 << 24


def build_finalg_category(theory, size_cap, seeds=()):
    """Ambient category handle over validated seed algebras."""
    cat = AlgCategory(theory, size_cap)
    for A in seeds:
        cat.register(A)
    return cat
