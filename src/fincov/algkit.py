"""Finite equational theories and algebras.

Terms are nested tuples ``(head, *args)``; a head that is not a declared
function symbol is a variable.  Algebras carry their carriers as
``range(n)`` and operation tables as nested tuples, so everything is
hashable and enumeration order is fixed.  "The theory proves phi" is
replaced throughout by satisfaction in every algebra of a finite corpus;
reports therefore say "holds on corpus", never "provable".

The algebra ambient's tables and scans are numpy arrays.  ``np`` is bound
on first use (``kernels.LazyNumpy``): the first ``np.x`` imports numpy,
so a process that builds no algebra grid or ambient loads none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import kernels
from .fincat import CapExceeded, CategoryBase, CompositionError, \
    PullbackSquare, drop_derived_memos

np = kernels.LazyNumpy(globals())


# ---------------------------------------------------------------------------
# theories and terms
# ---------------------------------------------------------------------------

def term_from_json(obj):
    if isinstance(obj, (list, tuple)):
        return tuple([obj[0]] + [term_from_json(a) for a in obj[1:]])
    raise ValueError(f"malformed term: {obj!r}")


def term_to_json(term):
    return [term[0]] + [term_to_json(a) for a in term[1:]]


@dataclass(frozen=True)
class Theory:
    """Signature plus equations; equations are ((vars...), lhs, rhs)."""

    name: str
    symbols: tuple  # ((name, arity), ...)
    equations: tuple  # ((vars, lhs_term, rhs_term), ...)
    default_t: tuple | None = None  # preferred binary term for uniformity

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
    """Evaluate a term in algebra A under a variable assignment."""
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


def term_grid(A, term, vars_):
    """The value of term at every assignment of vars_ over A's carrier.

    An array with one axis of length |A| per variable, in the order of
    vars_, so its C order is ``itertools.product`` order; as in
    ``dict(zip(vars_, vals))``, a repeated variable takes its last axis.
    Operations are read from ``A.op_tables()`` (so A must be total).
    Raises eval_term's ValueErrors.
    """
    k = len(vars_)
    env = {}
    for i, v in enumerate(vars_):
        env[v] = np.arange(A.size).reshape((1,) * i + (A.size,)
                                           + (1,) * (k - 1 - i))
    tables = A.op_tables()

    def grid(t):
        head = t[0]
        if A.theory.has_symbol(head):
            args = tuple(grid(s) for s in t[1:])
            if len(args) != A.theory.arity(head):
                raise ValueError(f"arity mismatch at {head}")
            return tables[head][2][args]
        if t[1:]:
            raise ValueError(f"variable {head} applied to arguments")
        if head not in env:
            raise ValueError(f"unbound variable {head}")
        return env[head]

    return np.broadcast_to(grid(term), (A.size,) * k)


def equation_failure(A, vars_, lhs, rhs):
    """First assignment of vars_, in ``itertools.product`` order over A's
    carrier, where lhs and rhs differ, as a tuple; None if none does."""
    bad = np.flatnonzero(term_grid(A, lhs, vars_) != term_grid(A, rhs, vars_))
    if not len(bad):
        return None
    return tuple(int(i) for i in np.unravel_index(bad[0],
                                                  (A.size,) * len(vars_)))


# ---------------------------------------------------------------------------
# algebras and homomorphisms
# ---------------------------------------------------------------------------

class FinAlgebra:
    """Finite model of a theory: carrier range(n) plus operation tables."""

    def __init__(self, theory, name, size, ops):
        self.theory = theory
        self.name = name
        self.size = size
        self.carrier = tuple(range(size))
        self.ops = {s: _as_table(t) for s, t in ops.items()}

    def apply(self, sym, args):
        t = self.ops[sym]
        for a in args:
            t = t[a]
        return t

    @classmethod
    def from_arrays(cls, theory, name, size, arrays):
        """The algebra whose operation s has the intp array arrays[s], one
        axis of length size per argument; ``op_tables()`` reads them as
        given instead of rebuilding them from nested tuples."""
        algebra = cls(theory, name, size,
                      {s: t.tolist() for s, t in arrays.items()})
        algebra._op_tables = {s: _op_table(t) for s, t in arrays.items()}
        return algebra

    def op_tables(self):
        """Per symbol (args, values, table): every argument tuple, as one
        index array per argument position; the operation's value at each;
        and its table as an array with one axis per argument.  Cached."""
        tables = self.__dict__.get("_op_tables")
        if tables is None:
            tables = self._op_tables = {
                s: _op_table(np.array(self.ops[s], dtype=np.intp).reshape(
                    (self.size,) * a))
                for s, a in self.theory.symbols}
        return tables

    def validate(self):
        """None when every table is total and every equation holds under
        every assignment; else (kind, witness)."""
        for s, a in self.theory.symbols:
            if s not in self.ops:
                return ("totality", (s,))
            if not _table_total(self.ops[s], a, self.size):
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
                "ops": {s: _table_json(t) for s, t in self.ops.items()}}


def _op_table(table):
    """(args, values, table) of ``FinAlgebra.op_tables()`` for one table."""
    args = tuple(np.indices(table.shape).reshape(table.ndim, table.size))
    return args, table[args], table


def _as_table(t):
    if isinstance(t, int):
        return t
    if isinstance(t, (list, tuple)):
        return tuple(_as_table(x) for x in t)
    raise ValueError(f"operation table entry {t!r} is not an int")


def _table_json(t):
    if isinstance(t, int):
        return t
    return [_table_json(x) for x in t]


def _table_total(t, arity, n):
    if arity == 0:
        return isinstance(t, int) and 0 <= t < n
    if not isinstance(t, tuple) or len(t) != n:
        return False
    return all(_table_total(x, arity - 1, n) for x in t)


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
        argument tuples at once."""
        im = np.array(self.images, dtype=np.intp)
        tgt = self.tgt.op_tables()
        for s, (args, values, _) in self.src.op_tables().items():
            if (im[values] != tgt[s][2][tuple(im[x] for x in args)]).any():
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
    return AlgHom(f.src, g.tgt, tuple(g.images[y] for y in f.images))


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


# Most entries one chunk of a grid replay compares at once: rows times the
# argument tuples of A's widest operation (0.5 MB of intp).
_GRID_CHUNK = 1 << 16


def _replay_grid(A, B, choices):
    """Replay A's generating trace into B over the generator-assignment
    grid ``itertools.product(*choices)``, one bounded chunk at a time.

    Yields (images, valid) per chunk, in grid order: ``images`` has one
    row per assignment, the image of each element of A under the map that
    sends generator i to the assignment's i-th entry and is extended along
    the trace; ``valid`` says which rows commute with every operation.
    """
    _, trace = generating_trace(A)
    shape = tuple(len(c) for c in choices)
    total = math.prod(shape)
    choices = [np.asarray(c, dtype=np.intp) for c in choices]
    src, tgt = A.op_tables(), B.op_tables()
    width = max([A.size ** a for _, a in A.theory.symbols] + [A.size, 1])
    step = max(1, _GRID_CHUNK // width)
    for lo in range(0, total, step):
        n = min(step, total - lo)
        digits = np.unravel_index(np.arange(lo, lo + n), shape) \
            if shape else ()
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
        yield img, valid


def hom_rows(A, B):
    """The image tuples of all homomorphisms A -> B, as an int64 array
    with one row per hom, rows in ascending lexicographic order.

    Generator i is the least element that the constants and the earlier
    generators do not produce, so every element before it in the carrier
    has its image fixed by the earlier generators.  Hence the grid's
    product order over B's ascending carrier is already the lexicographic
    order of the rows."""
    rows = [img[valid] for img, valid in
            _replay_grid(A, B, [B.carrier] * len(generating_trace(A)[0]))]
    rows = np.concatenate(rows) if rows else np.empty((0, A.size), np.intp)
    return rows.astype(np.int64, copy=False)


def enumerate_homs(A, B):
    """All homomorphisms A -> B in deterministic (image-tuple) order."""
    return [AlgHom(A, B, row) for row in hom_rows(A, B).tolist()]


def _element_profile(A):
    """Per-element invariant refined through the tables; isomorphism
    invariant, used to prune the isomorphism search.  Cached on A.

    Three rounds of colour refinement over ``op_tables()``.  An element's
    signature is its colour and, per symbol, whether it is the constant,
    the colour of its unary image, or the sorted colours of its binary row
    and of its binary column; the new colours number the distinct
    signatures in lexicographic order (the rows are few: ranked as
    tuples)."""
    cached = A.__dict__.get("_profile")
    if cached is not None:
        return cached
    n = A.size
    colors = np.zeros(n, dtype=np.intp)
    tables = A.op_tables()
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
    A._profile = tuple(colors.tolist())
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
    carrier = np.arange(A.size)
    for img, valid in _replay_grid(A, B, choices):
        valid &= (np.sort(img, axis=1) == carrier).all(axis=1)
        hit = np.flatnonzero(valid)
        if len(hit):
            return AlgHom(A, B, img[hit[0]].tolist())
    return None


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
    the last digit.  With ``relabel``, an array over the codes, it is the
    quotient whose classes ``codes`` represents: a computed code c stands
    for the class of relabel[c], its representative.

    Each operation table is one gather per coordinate through
    ``FinAlgebra.op_tables()``, then one ``searchsorted`` into the codes.
    """
    codes = np.asarray(codes, dtype=np.intp)
    n = len(codes)
    coords = np.unravel_index(codes, [X.size for X in factors])
    arrays = {}
    for s, a in theory.symbols:
        args = np.indices((n,) * a).reshape(a, n ** a)
        value = 0
        for X, c in zip(factors, coords):
            value = value * X.size + X.op_tables()[s][2][tuple(c[args])]
        if relabel is not None:
            value = relabel[value]
        arrays[s] = np.searchsorted(codes, value).reshape((n,) * a)
    return FinAlgebra.from_arrays(theory, name, n, arrays)


def _pair_codes(f, g):
    """The pairs (a, b) with f(a) = g(b), coded a * |src g| + b, ascending."""
    return np.flatnonzero(np.equal.outer(f.images, g.images))


def quotient_algebra(A, theta, name=None):
    """Quotient by a congruence (a partition tuple), with the projection
    hom; its elements are the classes in the order of their least
    elements."""
    _, first, label = np.unique(theta, return_index=True, return_inverse=True)
    rep = first[label]  # the least element of each element's class
    codes = np.sort(first)
    Q = _coded_algebra(A.theory, name or f"{A.name}/~", (A,), codes, rep)
    return Q, AlgHom(A, Q, np.searchsorted(codes, rep).tolist())


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

@dataclass
class UniformityReport:
    hom: AlgHom
    t: tuple
    weakly_t_uniform: bool
    t_uniform: bool
    strongly_t_uniform: bool
    t_cancelative: bool
    weakly_t_cancelative: bool
    witnesses: dict = field(default_factory=dict)

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
    table = term_grid(A, t, ("x", "y")).tolist()
    return lambda x, y: table[x][y]


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
            proj2 = AlgHom(P, h.src, (codes % h.src.size).tolist())
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

    The apex element i is coded proj1(i) * |src g| + proj2(i); the
    mediator of a cone (p, q) sends x to the element coded
    p(x) * |src g| + q(x).
    """

    def mediator(self, p, q):
        if (p, q) not in self.mediators:
            n = self.proj2.tgt.size
            apex = np.zeros(self.proj1.tgt.size * n, dtype=np.intp)
            apex[np.array(self.proj1.images, dtype=np.intp) * n
                 + self.proj2.images] = np.arange(self.apex.size)
            images = apex[np.array(p.images, dtype=np.intp) * n + q.images]
            self.mediators[(p, q)] = AlgHom(p.src, self.apex, images.tolist())
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
        self._images_cache = {}
        self._levels = {}        # (id A, id C) -> _position_levels
        self._triples = {}       # (id A, id b, id C) -> _composite_table
        self._into_cache = {}
        self._from_cache = {}
        self._composites = None
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
        self._composites = None
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
            rows = self._images_cache[key] = hom_rows(A, B)
            homs = self._hom_cache[key] = tuple(
                AlgHom(A, B, row) for row in rows.tolist())
            self._hom_pos.update((h, i) for i, h in enumerate(homs))
        return homs

    def hom_images(self, A, B):
        """hom(A, B) as an int64 array with one row of images per hom, in
        hom order; built with the hom set and cached, like it, for the
        category's life."""
        rows = self._images_cache.get((id(A), id(B)))
        if rows is None:
            self.hom(A, B)
            rows = self._images_cache[id(A), id(B)]
        return rows

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
        """The roster's CompositeIndex, assembled from the kept composite
        tables.  Dropped when the roster grows; the next one computes only
        the tables of the hom-set triples that involve new objects.

        Raises CapExceeded, before any table is computed or allocated,
        when the index would hold more than ``_INDEX_BUDGET`` entries.
        """
        if self._composites is None:
            roster = self._roster
            r = len(roster)
            # sizes[a, c] = |hom(roster[a], roster[c])|; start[a, c] is
            # where that hom set starts in morphisms()
            sizes = np.array([len(self.hom(A, C)) for A in roster
                              for C in roster], dtype=np.intp).reshape(r, r)
            entries = int(sizes.sum(axis=1) @ sizes.sum(axis=0))
            if entries > _INDEX_BUDGET:
                raise CapExceeded(f"composite index needs {entries} entries "
                                  f"> budget {_INDEX_BUDGET}")
            start = (np.cumsum(sizes) - sizes.ravel()).reshape(r, r)
            ms = self.morphisms()
            dtype = np.dtype(kernels.table_typecode(len(ms)))
            blocks = {}
            for bi, b in enumerate(roster):
                # the homs out of b are contiguous in morphisms(), those
                # into b come one hom set per source A
                rows = start[bi, 0] + np.arange(sizes[bi].sum())
                cols = np.concatenate([start[a, bi] + np.arange(sizes[a, bi])
                                       for a in range(r)])
                table = np.empty((len(rows), len(cols)), dtype=dtype)
                i = 0
                for ci, C in enumerate(roster):
                    stripe = table[i:i + sizes[bi, ci]]
                    j = 0
                    for A in roster:
                        T = self._composite_table(A, b, C)
                        stripe[:, j:j + T.shape[1]] = T
                        j += T.shape[1]
                    # positions in each hom(A, C) -> indices in morphisms()
                    stripe += np.repeat(start[:, ci], sizes[:, bi]).astype(
                        dtype)
                    i += sizes[bi, ci]
                blocks[id(b)] = (rows, cols, table)
            self._composites = CompositeIndex(
                ms, {m: i for i, m in enumerate(ms)}, blocks)
        return self._composites

    def _composite_table(self, A, b, C):
        """Entry [i, j] is the position in hom(A, C) of hom(b, C)[i] .
        hom(A, b)[j], read off the composite's images of A's generators
        through ``_position_levels``.  Computed on first use and kept for
        the category's life, like the hom sets."""
        key = (id(A), id(b), id(C))
        table = self._triples.get(key)
        if table is None:
            levels = self._position_levels(A, C)
            # G[y, i] = hom(b, C)[i](y); F[t, j] = hom(A, b)[j](generator t)
            G = np.array(self.hom_images(b, C).T, dtype=np.int32)
            F = self.hom_images(A, b)[:, list(generating_trace(A)[0])].T
            if not levels:
                # no generators: hom(A, C) has at most one hom
                node = np.zeros((F.shape[1], G.shape[1]), dtype=np.int8)
            else:
                first = levels[0][G]
                node = np.empty((F.shape[1], G.shape[1]),
                                dtype=levels[-1].dtype)
                step = max(1, _TABLE_CHUNK // max(G.shape[1], 1))
                for lo in range(0, len(node), step):
                    part = first[F[0, lo:lo + step]]
                    for level, digit in zip(levels[1:], F[1:, lo:lo + step]):
                        part += G[digit]
                        part = level[part]
                    node[lo:lo + step] = part
            table = self._triples[key] = node.T
        return table

    def _position_levels(self, A, C):
        """The tables that read a hom A -> C's position in hom(A, C) off
        its images of A's generators, one generator at a time.

        hom(A, C) lists the homs in generator-grid order, so the homs that
        agree on generators 0..t are contiguous; call each such run a node
        of level t.  Level t maps node * |C| + the image of generator t,
        from the level before (no node before generator 0), to its node,
        times |C| below the last level; the nodes of the last level are
        the positions, in the narrowest dtype that holds them.  Every entry
        is below |hom(A, C)| * |C|.  Kept for the category's life."""
        key = (id(A), id(C))
        levels = self._levels.get(key)
        if levels is None:
            H = self.hom_images(A, C)[:, list(generating_trace(A)[0])]
            dtype = np.dtype(kernels.table_typecode(len(H)))
            levels = self._levels[key] = []
            node = np.zeros(len(H), dtype=np.int32)
            fresh = np.zeros(len(H), dtype=bool)
            for t, digit in enumerate(H.T):
                fresh[:1] = True
                fresh[1:] |= digit[1:] != digit[:-1]
                child = np.cumsum(fresh, dtype=np.int32) - 1
                last = t == H.shape[1] - 1
                level = np.zeros(C.size if t == 0 else
                                 (node[-1] + C.size if len(H) else 0),
                                 dtype=dtype if last else np.int32)
                level[node + digit] = child if last else child * C.size
                levels.append(level)
                node = child * C.size
        return levels

    def composite_blocks(self):
        return self.composite_index().blocks.values()

    def first_class_composites(self, member, flags):
        """The kernel's answer, read off the numpy composite index: blocks
        of up to 666 x 666 are too large to turn into Python rows."""
        member = np.array(member, dtype=bool)
        best = dict.fromkeys(flags)
        for rows, cols, table in self.composite_blocks():
            for flag in flags:
                want_g, want_f, want_gf = kernels.COMPOSITE_PATTERNS[flag]
                ri = np.flatnonzero(member[rows] == want_g)
                ci = np.flatnonzero(member[cols] == want_f)
                if not len(ri) or not len(ci):
                    continue
                step = max(1, _CHUNK // len(ci))
                for lo in range(0, len(ri), step):
                    r = ri[lo:lo + step]
                    # rows ascend: a witness with a smaller g stops it
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

    def first_unstable_pullback(self, A, img, into):
        """Least (g, proj) among the morphisms g into the target of an
        A-member with image img whose pullback projection proj is not in A.

        ``into`` is walked one hom set hom(X, z) at a time (the roster may
        grow during the scan), whose preimages of img are coded at once as
        bitmasks.  Each distinct nonempty (X, preimage) is decided once, in
        first-occurrence order, by its ``subalgebra_object`` projection and
        A's membership memo, so the subobjects are registered, and named,
        in the order of a hom-by-hom scan."""
        z = into[0].tgt
        inside = np.zeros(z.size, dtype=bool)
        inside[list(img)] = True
        lo = 0
        while lo < len(into):
            X = into[lo].src
            homs = self.hom(X, z)
            lo += len(homs)
            dtype = np.int64 if X.size < 63 else object
            bits = np.array([1 << k for k in range(X.size)], dtype=dtype)
            codes = inside[self.hom_images(X, z)].astype(dtype) @ bits
            for code in dict.fromkeys(codes.tolist()):
                if not code:
                    continue  # constant-free theories are outside the corpus
                _, proj = self.subalgebra_object(X, code)
                if not A.contains(proj):
                    return homs[int(np.flatnonzero(codes == code)[0])], proj
        return None

    def identity(self, A):
        return identity_hom(A)

    def compose(self, g, f):
        """g . f, read from the composite table of (src f, src g, tgt g)
        when it is kept, else composed image by image.  The roster's own
        hom whenever hom(src f, tgt g) is listed: compose lists no hom set
        and computes no table itself."""
        if f.tgt is not g.src:
            raise CompositionError("algebra homs not composable")
        A, b, C = id(f.src), id(g.src), id(g.tgt)
        homs = self._hom_cache.get((A, C))
        table = self._triples.get((A, b, C))
        if table is None:
            gf = compose_homs(g, f)
            return gf if homs is None else homs[self._hom_pos[gf]]
        return homs[table.item(self._hom_pos[g], self._hom_pos[f])]

    def is_iso(self, m):
        # a bijective hom between finite algebras has a hom inverse
        return m.is_bijective()

    def is_mono(self, m):
        return m.is_injective()

    def is_epi(self, m):
        return m.is_surjective()

    def is_section(self, f):
        """Some r in hom(b, a) has r.f = id_a, read off all of hom(b, a)
        at once from its image rows."""
        R = self.hom_images(f.tgt, f.src)
        fim = np.array(f.images, dtype=np.intp)
        return bool((R[:, fim] == np.arange(f.src.size)).all(axis=1).any())

    def is_retraction(self, f):
        """Some s in hom(b, a) has f.s = id_b, read off all of hom(b, a)
        at once from its image rows."""
        S = self.hom_images(f.tgt, f.src)
        fim = np.array(f.images, dtype=np.intp)
        return bool((fim[S] == np.arange(f.tgt.size)).all(axis=1).any())

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
        apex = codes[list(iso.images)]
        n = g.src.size
        return AlgPullbackSquare(self, f, g, R,
                                 AlgHom(R, f.src, (apex // n).tolist()),
                                 AlgHom(R, g.src, (apex % n).tolist()), {})

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


@dataclass
class CompositeIndex:
    """Every composite of an algebra ambient, as morphism indices.

    ``blocks`` maps id(b), per roster object b in roster order, to
    (rows, cols, table): the ascending indices in ``morphisms`` of the
    homs out of and into b, and table[i, j], the index of
    rows[i] . cols[j] (the composite-index protocol of ``CategoryBase``).
    """

    morphisms: tuple
    position: dict  # hom -> its index in morphisms
    blocks: dict


# Composites of one hom-set triple read at once: the temporaries stay
# under a MB on the largest triple.
_TABLE_CHUNK = 1 << 15

# Index entries ``first_class_composites`` gathers at once: its masks stay
# well under a MB on the 666 x 666 block of the grown ambient.
_CHUNK = 1 << 14

# Most table entries (composable pairs) one composite index may hold: 64 MB
# at int32 indices.  The 8-object ambient of the CLI needs about 0.5M.
_INDEX_BUDGET = 1 << 24


def build_finalg_category(theory, size_cap, seeds=()):
    """Ambient category handle over validated seed algebras."""
    cat = AlgCategory(theory, size_cap)
    for A in seeds:
        cat.register(A)
    return cat
