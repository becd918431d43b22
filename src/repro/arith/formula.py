"""Quantifier-free formulas over linear integer arithmetic (plus ``exists``).

All atoms are normalised to one of two shapes over integer variables:

* ``e <= 0``  (relation :data:`Rel.LE`)
* ``e == 0``  (relation :data:`Rel.EQ`)

Strict comparisons are integer-tightened at construction time:
``e < 0`` becomes ``e + 1 <= 0``.  This makes Fourier-Motzkin elimination
exact on the (integer) fragment the paper's verification conditions use far
more often than a rational relaxation would be.

Formulas are immutable trees built by the smart constructors :func:`conj`,
:func:`disj`, :func:`neg` and :func:`exists`, which perform cheap
simplifications (flattening, unit laws, constant folding).

**Hash-consing.**  Every node class interns its instances: constructing a
node that is structurally equal to a live one returns the *same object*, so
structural equality is pointer equality on the fast path, ``__hash__`` is
computed exactly once at construction, and solver caches keyed on formulas
cost O(1) per probe.  Conjuncts and disjuncts are additionally put into a
canonical order at build time (by interning order, which is deterministic
for a deterministic construction sequence), so ``conj(a, b)`` and
``conj(b, a)`` yield the identical node and hit the same cache entries.
The intern table holds weak references: nodes are reclaimed once no
formula, cache or caller mentions them.
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.arith.lru import LRUCache
from repro.arith.terms import Coeff, LinExpr, to_linexpr

#: Global intern table for formula nodes (weak values: entries die with
#: their last strong referent).  Keys embed the node tag, so one table
#: serves every class.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: Monotone counter handing out interning-order ids; used as the canonical
#: sort key for conjuncts/disjuncts (deterministic within a run, and across
#: runs for deterministic construction sequences -- unlike str hashes).
_NODE_COUNTER = itertools.count()


def _node_uid(p: "Formula") -> int:
    return p._uid


class Rel(enum.Enum):
    """Relation of a normalised atom against zero.

    ``LT`` is the *rational*-strict relation ``e < 0``.  The language
    pipeline never produces it (strict integer comparisons are tightened to
    ``LE`` at construction, see :func:`atom_lt`); it exists for callers of
    the Fourier-Motzkin witness layer (:func:`repro.arith.fm.cube_model`)
    that need open bounds kept open, e.g. rational counterexample search.
    """

    LE = "<="
    EQ = "=="
    LT = "<"


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)


class BoolConst(Formula):
    """``true`` or ``false`` (two interned singletons)."""

    __slots__ = ("value", "_uid", "__weakref__")

    _instances: Dict[bool, "BoolConst"] = {}

    def __new__(cls, value: bool):
        value = bool(value)
        hit = cls._instances.get(value)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        cls._instances[value] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoolConst is immutable")

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        return self

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        return self

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return self.value

    def __reduce__(self):
        return (BoolConst, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolConst) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("bool", self.value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Atom(Formula):
    """A normalised linear atom ``expr <= 0`` or ``expr == 0`` (interned)."""

    __slots__ = ("expr", "rel", "_hash", "_uid", "__weakref__")

    def __new__(cls, expr: LinExpr, rel: Rel):
        key = ("atom", expr, rel)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        _INTERN[key] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Atom is immutable")

    def free_vars(self) -> FrozenSet[str]:
        return self.expr.variables()

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        return Atom(self.expr.rename(mapping), self.rel)

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        return _atom_or_const(self.expr.substitute(mapping), self.rel)

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        value = self.expr.evaluate(env)
        if self.rel is Rel.LE:
            return value <= 0
        if self.rel is Rel.LT:
            return value < 0
        return value == 0

    def negated(self) -> Formula:
        """Negation of this atom (integer-exact on the LE/EQ fragment)."""
        if self.rel is Rel.LT:
            # not(e < 0)  <=>  e >= 0  <=>  -e <= 0  (rational fragment).
            # Built directly: routing through _atom_or_const would apply
            # _norm_le's integer tightening, which is wrong over the
            # rationals this relation exists for.
            e = -self.expr
            if e.is_constant():
                return TRUE if e.constant <= 0 else FALSE
            return Atom(e.normalized(), Rel.LE)
        if self.rel is Rel.LE:
            # not(e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0
            return _atom_or_const(-self.expr + 1, Rel.LE)
        # not(e == 0)  <=>  e <= -1  or  e >= 1
        return disj(
            _atom_or_const(self.expr + 1, Rel.LE),
            _atom_or_const(-self.expr + 1, Rel.LE),
        )

    def __reduce__(self):
        # Re-intern in the receiving process (see LinExpr.__reduce__).
        return (Atom, (self.expr, self.rel))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self.rel == other.rel
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.expr} {self.rel.value} 0)"


class NaryOp(Formula):
    """Shared behaviour of :class:`And` and :class:`Or` (interned).

    Arguments are stored in canonical (interning) order, so two
    conjunctions over the same set of conjuncts are the same object no
    matter the order they were supplied in.
    """

    __slots__ = ("args", "_hash", "_fv", "_uid", "__weakref__")
    _tag = "nary"

    def __new__(cls, args: Sequence[Formula]):
        ordered = tuple(sorted(args, key=_node_uid))
        key = (cls._tag, ordered)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "args", ordered)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_fv", None)
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        _INTERN[key] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        if self._fv is None:
            out: FrozenSet[str] = frozenset()
            for a in self.args:
                out |= a.free_vars()
            object.__setattr__(self, "_fv", out)
        return self._fv

    def __reduce__(self):
        return (type(self), (self.args,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.args == other.args

    def __hash__(self) -> int:
        return self._hash


class And(NaryOp):
    __slots__ = ()
    _tag = "and"

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return conj(*(a.rename(mapping) for a in self.args))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return conj(*(a.substitute(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return all(a.evaluate(env) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(NaryOp):
    __slots__ = ()
    _tag = "or"

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return disj(*(a.rename(mapping) for a in self.args))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return disj(*(a.substitute(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return any(a.evaluate(env) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


class Not(Formula):
    __slots__ = ("arg", "_hash", "_uid", "__weakref__")

    def __new__(cls, arg: Formula):
        key = ("not", arg)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        _INTERN[key] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        return self.arg.free_vars()

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return neg(self.arg.rename(mapping))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return neg(self.arg.substitute(mapping))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return not self.arg.evaluate(env)

    def __reduce__(self):
        return (Not, (self.arg,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Not) and self.arg == other.arg

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


class Exists(Formula):
    """Existential quantification over a tuple of variables (interned)."""

    __slots__ = ("bound", "body", "_hash", "_uid", "__weakref__")

    def __new__(cls, bound: Sequence[str], body: Formula):
        bound = tuple(sorted(set(bound)))
        key = ("exists", bound, body)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        _INTERN[key] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - frozenset(self.bound)

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        safe = {k: v for k, v in mapping.items() if k not in self.bound}
        if any(v in self.bound for v in safe.values()):
            # Rename bound variables apart first to avoid capture.
            fresh = {b: _fresh_name(b, self) for b in self.bound}
            return Exists(
                tuple(fresh.values()), self.body.rename(fresh)
            ).rename(mapping)
        return exists(self.bound, self.body.rename(safe))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        safe = {k: v for k, v in mapping.items() if k not in self.bound}
        used = set()
        for e in safe.values():
            used |= e.variables()
        if used & set(self.bound):
            fresh = {b: _fresh_name(b, self) for b in self.bound}
            return Exists(
                tuple(fresh.values()), self.body.rename(fresh)
            ).substitute(mapping)
        return exists(self.bound, self.body.substitute(safe))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        raise ValueError("cannot directly evaluate a quantified formula")

    def __reduce__(self):
        return (Exists, (self.bound, self.body))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Exists)
            and self.bound == other.bound
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"(exists {', '.join(self.bound)} . {self.body!r})"


#: Fresh-variable counter.  A :class:`contextvars.ContextVar` rather than
#: a module global so that concurrent analyses (daemon worker threads,
#: see ``docs/serve.md``) each count independently: every thread starts
#: from the default and :func:`fresh_name_scope` gives one analysis a
#: private, zero-based counter.  Names generated by *independent*
#: analyses may therefore coincide -- which is sound (a formula's meaning
#: is a pure function of its structure; two analyses never mix free
#: variables inside one query) and is exactly what makes structural
#: fingerprints of generated names reproducible without a process-global
#: reset.
_FRESH_COUNTER: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro-fresh-name-counter", default=0
)


def reset_fresh_names() -> None:
    """Restart the fresh-variable counter at zero (current context only).

    Within one analysis this is only safe when no formulas from earlier
    analyses of *that same scope* are alive (the bench runner's cold-start
    protocol: caches cleared, cyclic garbage collected): fresh names must
    never collide with live ones they could be mixed with in one query.
    Resetting makes an analysis independent of how many fresh names the
    context handed out before it, which is what keeps a run inside a
    long-lived process identical to the same run in a freshly forked
    shard worker.
    """
    _FRESH_COUNTER.set(0)


def fresh_scope() -> contextvars.Token:
    """Enter a zero-based fresh-name scope; returns the reset token.

    Used (via :func:`repro.core.pipeline.fresh_name_scope`) to give each
    analysis of a long-lived multi-threaded process its own deterministic
    counter.  Pass the token to :func:`exit_fresh_scope` to restore the
    caller's counter."""
    return _FRESH_COUNTER.set(0)


def exit_fresh_scope(token: contextvars.Token) -> None:
    _FRESH_COUNTER.reset(token)


def _next_fresh() -> int:
    n = _FRESH_COUNTER.get()
    _FRESH_COUNTER.set(n + 1)
    return n


def _fresh_name(base: str, context: Formula) -> str:
    taken = context.free_vars()
    while True:
        cand = f"{base}#{_next_fresh()}"
        if cand not in taken:
            return cand


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def _atom_or_const(expr: LinExpr, rel: Rel) -> Formula:
    if expr.is_constant():
        value = expr.constant
        if rel is Rel.LE:
            return TRUE if value <= 0 else FALSE
        if rel is Rel.LT:
            return TRUE if value < 0 else FALSE
        return TRUE if value == 0 else FALSE
    if rel is Rel.LT:
        # Rational-strict atoms must not be integer-tightened, but a
        # positive rescale preserves them exactly: normalize to coprime
        # integer coefficients so elimination chains cannot blow up the
        # fractions and structurally equal strict atoms intern together.
        return Atom(expr.normalized(), rel)
    return Atom(expr.normalized() if rel is Rel.EQ else _norm_le(expr), rel)


def _norm_le(expr: LinExpr) -> LinExpr:
    """Normalise an LE atom: integer coefficients, gcd-reduced on the
    variable part, constant floored accordingly (integer tightening)."""
    # Fast path: unit integer coefficients need no work.
    coeffs = expr.coeffs
    if expr.constant.denominator == 1 and all(
        c.denominator == 1 and (c == 1 or c == -1) for c in coeffs.values()
    ):
        return expr
    # Scale to integer coefficients.
    denoms = [c.denominator for c in coeffs.values()]
    denoms.append(expr.constant.denominator)
    lcm = 1
    for d in denoms:
        g = _gcd_int(lcm, d)
        lcm = lcm * d // g
    e = expr.scale(lcm) if lcm != 1 else expr
    # gcd of variable coefficients only
    g = 0
    for c in e.coeffs.values():
        g = _gcd_int(g, int(c))
    if g > 1:
        coeffs = {n: c / g for n, c in e.coeffs.items()}
        # e <= 0  <=>  g*(sum) + k <= 0  <=>  sum <= floor(-k/g)
        from math import floor

        new_const = -floor(Fraction(-e.constant, g))
        e = LinExpr(coeffs, new_const)
    return e


from fractions import Fraction  # noqa: E402  (used by _norm_le)


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def conj(*parts: Formula) -> Formula:
    """Conjunction with flattening and unit/zero laws."""
    flat: List[Formula] = []
    seen = set()
    for p in parts:
        if isinstance(p, BoolConst):
            if not p.value:
                return FALSE
            continue
        if isinstance(p, And):
            for q in p.args:
                if isinstance(q, BoolConst):
                    if not q.value:
                        return FALSE
                    continue
                if q not in seen:
                    seen.add(q)
                    flat.append(q)
            continue
        if p not in seen:
            seen.add(p)
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disj(*parts: Formula) -> Formula:
    """Disjunction with flattening and unit/zero laws."""
    flat: List[Formula] = []
    seen = set()
    for p in parts:
        if isinstance(p, BoolConst):
            if p.value:
                return TRUE
            continue
        if isinstance(p, Or):
            for q in p.args:
                if isinstance(q, BoolConst):
                    if q.value:
                        return TRUE
                    continue
                if q not in seen:
                    seen.add(q)
                    flat.append(q)
            continue
        if p not in seen:
            seen.add(p)
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def neg(p: Formula) -> Formula:
    """Negation, pushed one level when cheap."""
    if isinstance(p, BoolConst):
        return FALSE if p.value else TRUE
    if isinstance(p, Not):
        return p.arg
    if isinstance(p, Atom):
        return p.negated()
    return Not(p)


def exists(bound: Iterable[str], body: Formula) -> Formula:
    bound = tuple(b for b in bound if b in body.free_vars())
    if not bound:
        return body
    if isinstance(body, Exists):
        return Exists(tuple(set(bound) | set(body.bound)), body.body)
    return Exists(bound, body)


# ---------------------------------------------------------------------------
# Atom builders over arbitrary expressions
# ---------------------------------------------------------------------------


ExprLike = Union[LinExpr, Coeff, str]


def atom_le(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs <= rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs), Rel.LE)


def atom_lt(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs < rhs`` over integers, tightened to ``lhs + 1 <= rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs) + 1, Rel.LE)


def atom_ge(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs >= rhs``."""
    return atom_le(rhs, lhs)


def atom_gt(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs > rhs`` over integers."""
    return atom_lt(rhs, lhs)


def atom_eq(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs == rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs), Rel.EQ)


def atom_ne(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs != rhs`` (expanded to a disjunction of strict inequalities)."""
    e = to_linexpr(lhs) - to_linexpr(rhs)
    return disj(_atom_or_const(e + 1, Rel.LE), _atom_or_const(-e + 1, Rel.LE))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


def to_nnf(p: Formula, negate: bool = False) -> Formula:
    """Negation normal form.  Quantifiers must not appear under negation."""
    if isinstance(p, BoolConst):
        return neg(p) if negate else p
    if isinstance(p, Atom):
        return p.negated() if negate else p
    if isinstance(p, Not):
        return to_nnf(p.arg, not negate)
    if isinstance(p, And):
        parts = [to_nnf(a, negate) for a in p.args]
        return disj(*parts) if negate else conj(*parts)
    if isinstance(p, Or):
        parts = [to_nnf(a, negate) for a in p.args]
        return conj(*parts) if negate else disj(*parts)
    if isinstance(p, Exists):
        if negate:
            raise ValueError(
                "negation over exists is outside the supported fragment; "
                "eliminate the quantifier (arith.solver.project) first"
            )
        return exists(p.bound, to_nnf(p.body))
    raise TypeError(f"unknown formula node {type(p).__name__}")


_DNF_CACHE = LRUCache(100_000)


def to_dnf(p: Formula, limit: int = 50_000) -> List[List[Atom]]:
    """Disjunctive normal form as a list of conjunctions of atoms.

    Existentials are pushed inward and recorded by renaming their bound
    variables to fresh names (sound for satisfiability-style queries, which
    is the only way the solver consumes DNF).  Results are memoised in an
    LRU-bounded cache (quantifier-free formulas only -- fresh renaming
    makes quantified results non-reusable).
    """
    cached = _DNF_CACHE.get(p)
    if cached is not None:
        return cached
    cubes = _dnf(to_nnf(p), limit)
    if not _contains_exists(p):
        _DNF_CACHE.put(p, cubes)
    return cubes


def clear_dnf_cache() -> None:
    """Drop all memoised DNF conversions and reset the eviction counter."""
    _DNF_CACHE.clear(reset_evictions=True)


def dnf_cache_stats() -> Dict[str, int]:
    """Size and eviction count of the module-level DNF cache."""
    return {"size": len(_DNF_CACHE), "evictions": _DNF_CACHE.evictions}


def intern_table_size() -> int:
    """Number of live interned formula nodes (weak table, so this tracks
    the resident formula universe of a long-lived process)."""
    return len(_INTERN)


def _contains_exists(p: Formula) -> bool:
    if isinstance(p, Exists):
        return True
    if isinstance(p, (And, Or)):
        return any(_contains_exists(a) for a in p.args)
    if isinstance(p, Not):
        return _contains_exists(p.arg)
    return False


def _dnf(p: Formula, limit: int) -> List[List[Atom]]:
    if isinstance(p, BoolConst):
        return [[]] if p.value else []
    if isinstance(p, Atom):
        return [[p]]
    if isinstance(p, Or):
        out: List[List[Atom]] = []
        for a in p.args:
            out.extend(_dnf(a, limit))
            if len(out) > limit:
                raise MemoryError("DNF explosion beyond configured limit")
        return out
    if isinstance(p, And):
        cubes: List[List[Atom]] = [[]]
        for a in p.args:
            sub = _dnf(a, limit)
            cubes = [c + s for c in cubes for s in sub]
            if len(cubes) > limit:
                raise MemoryError("DNF explosion beyond configured limit")
        return cubes
    if isinstance(p, Exists):
        # Rename bound variables to globally fresh ones, then drop the
        # quantifier: sound for SAT queries.
        fresh = {b: _fresh_name(b, p) for b in p.bound}
        return _dnf(to_nnf(p.body.rename(fresh)), limit)
    raise TypeError(f"cannot convert {type(p).__name__} to DNF (NNF expected)")


def sat_cubes(
    p: Formula,
    is_sat: Callable[[Sequence[Atom]], bool],
    limit: int = 50_000,
    prefixes: Sequence[Sequence[Atom]] = ((),),
) -> Iterator[List[Atom]]:
    """The cubes of ``to_dnf(p)`` that a depth-first walk cannot rule out.

    Yields ``[*prefix, *cube]`` for each prefix of *prefixes* and each
    cube of ``to_dnf(p)``, in exactly that order, except that before every
    split on a disjunction the partial cube built so far is passed to
    *is_sat*: when it is unsatisfiable, every cube extending it is
    skipped unbuilt.  Complete cubes are yielded unchecked.  The output
    is therefore a subsequence of the eager expansion containing every
    satisfiable cube -- the same answer for any "is some cube sat" or
    "keep the sat cubes" query, at a fraction of the cost when most
    cubes die on a short prefix.

    The blow-up rule is the eager one: the unpruned cube count is
    computed first with :func:`_dnf`'s arithmetic, and
    :class:`MemoryError` is raised -- at call time, before anything is
    yielded -- on exactly the inputs :func:`to_dnf` raises on.
    Quantified formulas are expanded eagerly by :func:`to_dnf`, so their
    fresh names are the ones an eager caller would see.
    """
    if _contains_exists(p):
        cubes = to_dnf(p, limit)
        return ([*pre, *c] for pre in prefixes for c in cubes)
    nnf = to_nnf(p)
    _dnf_count(nnf, limit)
    return (
        c for pre in prefixes for c in _pruned_cubes(nnf, is_sat, list(pre))
    )


def _dnf_count(p: Formula, limit: int) -> int:
    """Number of cubes :func:`_dnf` returns for the NNF formula *p*,
    raising :class:`MemoryError` at the same step it would."""
    if isinstance(p, BoolConst):
        return 1 if p.value else 0
    if isinstance(p, Atom):
        return 1
    if isinstance(p, Or):
        n = 0
        for a in p.args:
            n += _dnf_count(a, limit)
            if n > limit:
                raise MemoryError("DNF explosion beyond configured limit")
        return n
    if isinstance(p, And):
        n = 1
        for a in p.args:
            n *= _dnf_count(a, limit)
            if n > limit:
                raise MemoryError("DNF explosion beyond configured limit")
        return n
    raise TypeError(f"cannot convert {type(p).__name__} to DNF (NNF expected)")


def _pruned_cubes(
    p: Formula, is_sat: Callable[[Sequence[Atom]], bool], prefix: List[Atom]
) -> Iterator[List[Atom]]:
    """Depth-first expansion of the quantifier-free NNF formula *p* after
    *prefix* (see :func:`sat_cubes`).

    A stack entry is ``(atoms, pending, checked)``: the partial cube, the
    conjuncts still to expand as a linked list ``(head, tail)`` in
    :func:`_dnf`'s order, and the length of the longest prefix of
    *atoms* already known satisfiable.  Alternatives are pushed last
    first, so the first one is expanded next and the output order is the
    product order of :func:`_dnf`."""
    stack = [(prefix, (p, None), 0)]
    while stack:
        atoms, pending, checked = stack.pop()
        while pending is not None:
            f, pending = pending
            if isinstance(f, Atom):
                atoms.append(f)
            elif isinstance(f, And):
                for a in reversed(f.args):
                    pending = (a, pending)
            elif isinstance(f, Or):
                if len(atoms) > checked:
                    if not is_sat(atoms):
                        break
                    checked = len(atoms)
                for a in f.args[:0:-1]:
                    stack.append((list(atoms), (a, pending), checked))
                stack.append((atoms, (f.args[0], pending), checked))
                break
            elif not f.value:
                break
        else:
            yield atoms
