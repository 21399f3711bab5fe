"""Finite equational theories and algebras.

Terms are nested tuples ``(head, *args)``; a head that is not a declared
function symbol is a variable.  Algebras carry their carriers as
``range(n)`` and operation tables as nested tuples, so everything is
hashable and enumeration order is fixed.  "The theory proves phi" is
replaced throughout by satisfaction in every algebra of a finite corpus;
reports therefore say "holds on corpus", never "provable".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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

    def op_tables(self):
        """Per symbol (args, values, table): every argument tuple, as one
        index array per argument position; the operation's value at each;
        and its table as an array with one axis per argument.  Cached."""
        tables = self.__dict__.get("_op_tables")
        if tables is None:
            tables = self._op_tables = {}
            for s, a in self.theory.symbols:
                table = np.array(self.ops[s], dtype=np.intp).reshape(
                    (self.size,) * a)
                args = tuple(np.indices(table.shape).reshape(
                    a, self.size ** a))
                tables[s] = (args, table[args], table)
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
            for vals in itertools.product(self.carrier, repeat=len(vars_)):
                env = dict(zip(vars_, vals))
                if eval_term(self, lhs, env) != eval_term(self, rhs, env):
                    return ("equation", (i, vals))
        return None

    def key(self):
        return (self.size, self.name)

    def __repr__(self):
        return f"FinAlgebra({self.name}, |{self.size}|)"

    def to_json(self):
        return {"name": self.name, "carrier": list(self.carrier),
                "ops": {s: _table_json(t) for s, t in self.ops.items()}}


def _as_table(t):
    if isinstance(t, int):
        return t
    return tuple(_as_table(x) for x in t)


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

    def image_set(self):
        return frozenset(self.images)

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
    ("gen", i, elt) or ("op", sym, args, elt) in production order.
    """
    produced = {}
    trace = []
    frontier = []
    for s in A.theory.constants():
        v = A.apply(s, [])
        if v not in produced:
            produced[v] = len(trace)
            trace.append(("const", s, v))
            frontier.append(v)
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
    return gens, trace


def enumerate_homs(A, B):
    """All homomorphisms A -> B in deterministic (image-tuple) order."""
    gens, trace = generating_trace(A)
    out = []
    for assign in itertools.product(B.carrier, repeat=len(gens)):
        img = {}
        ok = True
        for entry in trace:
            if entry[0] == "const":
                _, s, v = entry
                w = B.apply(s, [])
            elif entry[0] == "gen":
                _, i, v = entry
                w = assign[i]
            else:
                _, s, args, v = entry
                w = B.apply(s, [img[x] for x in args])
            if v in img:
                if img[v] != w:
                    ok = False
                    break
            else:
                img[v] = w
        if not ok:
            continue
        h = AlgHom(A, B, tuple(img[x] for x in A.carrier))
        if h.is_valid():
            out.append(h)
    out.sort(key=lambda h: h.images)
    return out


def _element_profile(A):
    """Per-element invariant refined through the tables; isomorphism
    invariant, used to prune the isomorphism search."""
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
    """First isomorphism A -> B in generator-assignment order, or None."""
    if A.size != B.size:
        return None
    ca, cb = _element_profile(A), _element_profile(B)
    if sorted(ca) != sorted(cb):
        return None
    gens, trace = generating_trace(A)
    by_color = {}
    for y in B.carrier:
        by_color.setdefault(cb[y], []).append(y)
    for assign in itertools.product(*[by_color.get(ca[g], ()) for g in gens]):
        img = {}
        ok = True
        for entry in trace:
            if entry[0] == "const":
                _, s, v = entry
                w = B.apply(s, [])
            elif entry[0] == "gen":
                _, i, v = entry
                w = assign[i]
            else:
                _, s, args, v = entry
                w = B.apply(s, [img[x] for x in args])
            if v in img:
                if img[v] != w:
                    ok = False
                    break
            else:
                img[v] = w
        if not ok:
            continue
        h = AlgHom(A, B, tuple(img[x] for x in A.carrier))
        if h.is_bijective() and h.is_valid():
            return h
    return None


# ---------------------------------------------------------------------------
# subalgebras, congruences, quotients
# ---------------------------------------------------------------------------

def minimal_subalgebra(A):
    """Closure of the constant interpretations; empty for constant-free
    signatures."""
    S = {A.apply(s, []) for s in A.theory.constants()}
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


def subalgebra_closure(A, seed):
    S = set(seed) | set(minimal_subalgebra(A))
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


def quotient_algebra(A, theta, name=None):
    """Quotient by a congruence, with the projection hom."""
    ncls = max(theta) + 1
    rep = [None] * ncls
    for i, c in enumerate(theta):
        if rep[c] is None:
            rep[c] = i
    ops = {}
    for s, a in A.theory.symbols:
        if a == 0:
            ops[s] = theta[A.apply(s, [])]
        else:
            def build(prefix, depth):
                if depth == a:
                    return theta[A.apply(s, [rep[c] for c in prefix])]
                return tuple(build(prefix + (c,), depth + 1)
                             for c in range(ncls))
            ops[s] = build((), 0)
    Q = FinAlgebra(A.theory, name or f"{A.name}/~", ncls, ops)
    return Q, AlgHom(A, Q, theta)


def enumerate_normal_subalgebras(A):
    """Preimages of minimal subalgebras along quotient maps; exact for
    finite algebras since every hom factors through its image."""
    out = set()
    for theta in congruences(A):
        Q, q = quotient_algebra(A, theta)
        out.add(q.preimage(minimal_subalgebra(Q)))
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
            for vals in itertools.product(A.carrier, repeat=len(vars_)):
                env = dict(zip(vars_, vals))
                if eval_term(A, lhs, env) != eval_term(A, rhs, env):
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

        def subst(term, env):
            head = term[0]
            if head in env and not term[1:]:
                return env[head]
            return (head,) + tuple(subst(t, env) for t in term[1:])

        x, y = ("x",), ("y",)
        eq1 = subst(p, {"x": x, "y": y, "z": y})
        eq2 = subst(p, {"x": x, "y": x, "z": y})
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
    cache = {}

    def mul(x, y):
        if (x, y) not in cache:
            cache[(x, y)] = eval_term(A, t, {"x": x, "y": y})
        return cache[(x, y)]

    return mul


def classify_uniformity(f, t=None, normals=None):
    """Exhaustive uniformity flags for one hom, with witnesses."""
    M, N = f.src, f.tgt
    t = t or M.theory.default_t
    if t is None:
        raise ValueError("no binary term supplied")
    mulM = _t_mul(M, t)
    mulN = _t_mul(N, t)
    K = sorted(f.preimage(minimal_subalgebra(N)))
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

    if normals is None:
        normals = enumerate_normal_subalgebras(N)
    strong = True
    for m in M.carrier:
        for I in normals:
            pre = sorted(f.preimage(I))
            left = {mulM(m, x) for x in pre}
            fmI = {mulN(f(m), i) for i in I}
            right = {y for y in M.carrier if f(y) in fmI}
            if left != right:
                strong = False
                wit["strongly_t_uniform"] = (m, tuple(sorted(I)))
                break
        if not strong:
            break

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
    M, N = f.src, f.tgt
    t = t or M.theory.default_t
    mulM = _t_mul(M, t)
    mulN = _t_mul(N, t)
    if normals is None:
        normals = enumerate_normal_subalgebras(N)
    for m in M.carrier:
        for I in normals:
            pre = [x for x in M.carrier if f(x) in I]
            left = {mulM(m, x) for x in pre}
            fmI = {mulN(f(m), i) for i in I}
            right = {y for y in M.carrier if f(y) in fmI}
            if left != right:
                return False
    return True


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
            pairs = sorted((g, m) for g in f.src.carrier
                           for m in h.src.carrier if f(g) == h(m))
            index = {p: i for i, p in enumerate(pairs)}
            ops = {}
            for s, a in cat.theory.symbols:
                if a == 0:
                    ops[s] = index[(f.src.apply(s, []), h.src.apply(s, []))]
                else:
                    def build(prefix, depth):
                        if depth == a:
                            xs = [pairs[i][0] for i in prefix]
                            ys = [pairs[i][1] for i in prefix]
                            return index[(f.src.apply(s, xs),
                                          h.src.apply(s, ys))]
                        return tuple(build(prefix + (i,), depth + 1)
                                     for i in range(len(pairs)))
                    ops[s] = build((), 0)
            P = FinAlgebra(cat.theory, "pb", len(pairs), ops)
            proj2 = AlgHom(P, h.src, tuple(p[1] for p in pairs))
            if not is_strongly_t_uniform(proj2, t,
                                         flags.normals_of(h.src)):
                ok, wit = False, ("pullback not strongly uniform", f, h)
                break
        if not ok:
            break
    out["part2"] = {"ok": ok, "witness": wit, "qualifying": qualifying,
                    "pullbacks_checked": probes, "capped": capped}

    # part 3: rectangle conclusions
    out["part3"] = _rectangle_clauses(cat, t, flags, rectangle_cap)
    return out


def _rectangle_clauses(cat, t, flags, cap):
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
        return h.preimage(minimal_subalgebra(h.tgt))

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
    K = sorted(f.preimage(minimal_subalgebra(f.tgt)))
    restr_inj = len({f(k) for k in K}) == len(K)
    return {"ok": f.is_injective() == restr_inj,
            "injective": f.is_injective(), "restriction_injective": restr_inj}


# ---------------------------------------------------------------------------
# the ambient category of finite algebras
# ---------------------------------------------------------------------------

class AlgPullbackSquare(PullbackSquare):
    """Pullback square over the algebra ambient with on-demand mediators.

    The pairing function maps a cone element pair (a, b) to the apex
    element; it is attached by the constructing category.
    """

    pair_to_apex: dict = None

    def mediator(self, p, q):
        if (p, q) not in self.mediators:
            images = tuple(self.pair_to_apex[(p(x), q(x))]
                           for x in p.src.carrier)
            self.mediators[(p, q)] = AlgHom(p.src, self.apex, images)
        return self.mediators[(p, q)]


class AlgCategory(CategoryBase):
    """Iso-classes of finite algebras of a theory, discovered on demand.

    Objects up to the size cap are registered through ``register``;
    pullbacks are equalizing subalgebras of products, canonicalized back
    to the roster (a CapExceeded is raised past the cap).
    """

    def __init__(self, theory, size_cap, name=None):
        super().__init__()
        self.theory = theory
        self.size_cap = size_cap
        self.name = name or f"{theory.name}<= {size_cap}"
        self._roster = []
        self._hom_cache = {}
        self._into_cache = {}
        self._from_cache = {}
        self._composites = None
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
        for R in self._roster:
            if R.size == algebra.size and self._find_iso(algebra, R) is not None:
                return R
        self._roster.append(algebra)
        self._roster.sort(key=lambda A: A.key())
        self._into_cache.clear()
        self._from_cache.clear()
        self._composites = None
        drop_derived_memos(self)
        return algebra

    def _find_iso(self, A, B):
        return find_isomorphism(A, B)

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
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(enumerate_homs(A, B))
        return self._hom_cache[key]

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
        """The roster's CompositeIndex; built on first use, dropped when
        the roster grows."""
        if self._composites is None:
            self._composites = _build_composite_index(self)
        return self._composites

    def composite_blocks(self):
        return self.composite_index().blocks.values()

    def identity(self, A):
        return identity_hom(A)

    def compose(self, g, f):
        return compose_homs(g, f)

    def is_iso(self, m):
        # a bijective hom between finite algebras has a hom inverse
        return m.is_bijective()

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

    def _pair_algebra(self, f, g):
        pairs = tuple(sorted((a, b) for a in f.src.carrier
                             for b in g.src.carrier if f(a) == g(b)))
        index = {p: i for i, p in enumerate(pairs)}
        n = len(pairs)
        ops = {}
        for s, a in self.theory.symbols:
            if a == 0:
                ops[s] = index[(f.src.apply(s, []), g.src.apply(s, []))]
            else:
                def build(prefix, depth):
                    if depth == a:
                        xs = [pairs[i][0] for i in prefix]
                        ys = [pairs[i][1] for i in prefix]
                        return index[(f.src.apply(s, xs), g.src.apply(s, ys))]
                    return tuple(build(prefix + (i,), depth + 1)
                                 for i in range(n))
                ops[s] = build((), 0)
        return FinAlgebra(self.theory, self.fresh_name("pb"), n, ops), pairs

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
        P, pairs = self._pair_algebra(f, g)
        if P.size > self.size_cap:
            raise CapExceeded(
                f"pullback of ({f!r}, {g!r}) has size {P.size} > cap")
        R = self.register(P)
        iso = self._find_iso(R, P) if R is not P else identity_hom(P)
        proj1 = AlgHom(R, f.src, tuple(pairs[iso.images[i]][0]
                                       for i in range(R.size)))
        proj2 = AlgHom(R, g.src, tuple(pairs[iso.images[i]][1]
                                       for i in range(R.size)))
        square = AlgPullbackSquare(self, f, g, R, proj1, proj2, {})
        square.pair_to_apex = {(proj1(i), proj2(i)): i
                               for i in range(R.size)}
        return square

    def _preimage_pullback(self, f, g):
        """When one leg is injective the equalizing subalgebra is a
        corestriction: no fresh registration beyond the subobject."""
        if g.is_injective():
            img = {y: i for i, y in enumerate(g.images)}
            pre = frozenset(a for a in f.src.carrier if f(a) in img)
            R, incl = self.subalgebra_object(f.src, pre)
            proj1 = incl
            proj2 = AlgHom(R, g.src, tuple(img[f(incl(i))]
                                           for i in range(R.size)))
        else:
            img = {y: i for i, y in enumerate(f.images)}
            pre = frozenset(b for b in g.src.carrier if g(b) in img)
            R, incl = self.subalgebra_object(g.src, pre)
            proj2 = incl
            proj1 = AlgHom(R, f.src, tuple(img[g(incl(i))]
                                           for i in range(R.size)))
        square = AlgPullbackSquare(self, f, g, R, proj1, proj2, {})
        square.pair_to_apex = {(proj1(i), proj2(i)): i
                               for i in range(R.size)}
        return square

    def subalgebra_object(self, A, subset, stem="sub"):
        """Roster representative of a subset-closed carrier, with inclusion."""
        cache_key = (id(A), frozenset(subset))
        cache = self.__dict__.setdefault("_sub_cache", {})
        if cache_key in cache:
            return cache[cache_key]
        elems = sorted(subset)
        index = {x: i for i, x in enumerate(elems)}
        ops = {}
        for s, a in self.theory.symbols:
            if a == 0:
                ops[s] = index[A.apply(s, [])]
            else:
                def build(prefix, depth):
                    if depth == a:
                        return index[A.apply(s, [elems[i] for i in prefix])]
                    return tuple(build(prefix + (i,), depth + 1)
                                 for i in range(len(elems)))
                ops[s] = build((), 0)
        S = FinAlgebra(self.theory, self.fresh_name(stem), len(elems), ops)
        R = self.register(S)
        iso = self._find_iso(R, S) if R is not S else identity_hom(S)
        incl = AlgHom(R, A, tuple(elems[iso.images[i]] for i in range(R.size)))
        cache[cache_key] = (R, incl)
        return R, incl


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


# Composites coded at once while the index is built: the codes and their
# positions stay well under a MB on the largest block.
_CODE_CHUNK = 1 << 14

# Most table entries (composable pairs) one composite index may hold: 64 MB
# at int32 indices.  The 8-object ambient of the CLI needs about 0.5M.
_INDEX_BUDGET = 1 << 24


def _build_composite_index(C):
    """Composite index of an algebra ambient from its hom sets' images.

    Each hom m: A -> B gets the code (pos(A) * r + pos(B)) * span +
    sum_k m(k) * base^(|A| - 1 - k), over the r roster objects, with base
    the largest carrier and span = base^base.  Codes increase along
    ``morphisms()``, which orders by (A, B, image tuple), so
    ``searchsorted`` finds a composite's index from its code.  The code of
    g.f is computed without its images: sum_k g(f(k)) base^(...) is
    sum_y g(y) W[f, y], where W[f, y] sums the weights of the k with
    f(k) = y.  Python ints (object dtype) code past int64.  Raises
    CapExceeded, before anything is allocated, when the index would hold
    more than ``_INDEX_BUDGET`` entries.
    """
    roster = C._roster
    entries = sum(len(C.morphisms_from(b)) * len(C.morphisms_into(b))
                  for b in roster)
    if entries > _INDEX_BUDGET:
        raise CapExceeded(f"composite index needs {entries} entries "
                          f"> budget {_INDEX_BUDGET}")
    ms = C.morphisms()
    if not roster:
        return CompositeIndex(ms, {}, {})
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
            img = np.array([h.images for h in homs],
                           dtype=np.int64).reshape(len(homs), A.size)
            images[id(A), id(B)] = img
            offset[id(A), id(B)] = n
            n += len(homs)
            codes.append((pos[id(A)] * r + pos[id(B)]) * span
                         + img.astype(dtype) @ weights[A.size])
    codes = np.concatenate(codes)
    index_dtype = kernels.table_dtype(len(ms))
    blocks = {}
    for b in roster:
        # the homs out of b are contiguous in morphisms(), those into b
        # come one hom set per source A
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
        step = max(1, _CODE_CHUNK // max(len(cols), 1))
        for lo in range(0, len(rows), step):
            code = (G[lo:lo + step] @ W.T + row_code[lo:lo + step, None]
                    + col_code[None, :])
            table[lo:lo + step] = np.searchsorted(codes, code)
        blocks[id(b)] = (rows, cols, table)
    return CompositeIndex(ms, {m: i for i, m in enumerate(ms)}, blocks)


def build_finalg_category(theory, size_cap, seeds=()):
    """Ambient category handle over validated seed algebras."""
    cat = AlgCategory(theory, size_cap)
    for A in seeds:
        cat.register(A)
    return cat
