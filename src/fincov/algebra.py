"""Finite equational theories and the algebras on their tables.

Terms are nested tuples ``(head, *args)``; a head that is not a declared
function symbol is a variable.  Algebras carry their carriers as
``range(n)`` and each operation as one flat tuple (``op_tables``), so
everything is hashable and enumeration order is fixed; nested tables are
the JSON form only.  Equations are decided over whole tables
(``term_grid``), and ``_coded_algebra`` builds every derived algebra
(products' subsets, quotients) from its factors' tables.

This is the table level only: the corpus builds its groups, monoids and
subgroup lattices from it without compiling ``algkit``, which keeps the
homomorphisms, congruences, uniformity and the algebra ambient.
"""

from __future__ import annotations

import itertools

from . import kernels


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
# algebras
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
