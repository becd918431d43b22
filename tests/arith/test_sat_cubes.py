"""The pruned depth-first cube enumerator (:func:`formula.sat_cubes`).

It must agree with the eager :func:`formula.to_dnf` expansion on every
cube a query can depend on -- same cubes, same order, same atoms, every
satisfiable cube kept -- and on when a formula counts as a DNF blow-up.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import fm
from repro.arith.context import SolverContext
from repro.arith.formula import (
    atom_eq,
    atom_ge,
    atom_le,
    atom_lt,
    atom_ne,
    clear_dnf_cache,
    conj,
    disj,
    exists,
    fresh_scope,
    exit_fresh_scope,
    neg,
    sat_cubes,
    to_dnf,
    to_nnf,
)
from repro.arith.solver import clear_caches
from repro.arith.terms import LinExpr, var

VARS = ("x", "y", "z")


@st.composite
def atoms(draw):
    coeffs = {v: draw(st.integers(min_value=-2, max_value=2)) for v in VARS}
    e = LinExpr(coeffs, draw(st.integers(min_value=-4, max_value=4)))
    build = draw(st.sampled_from([atom_le, atom_lt, atom_eq, atom_ne]))
    return build(e, 0)


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return draw(atoms())
    parts = draw(st.lists(formulas(depth=depth - 1), min_size=1, max_size=3))
    if choice == 1:
        return conj(*parts)
    if choice == 2:
        return disj(*parts)
    return neg(conj(*parts))


def _eager(p, limit):
    """``to_dnf(p, limit)``, or ``None`` on blow-up.  The DNF memo is
    bypassed: it keys on the formula alone, not on the limit, and a
    memoised expansion may order its cubes by NNF nodes that have since
    been collected and re-interned in another order.  Callers hold
    ``to_nnf(p)`` alive so both walks see the same nodes."""
    clear_dnf_cache()
    try:
        return to_dnf(p, limit)
    except MemoryError:
        return None


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(c == s for s in it) for c in sub)


@settings(max_examples=200, deadline=None)
@given(formulas(depth=3), st.integers(min_value=1, max_value=12))
def test_subsequence_of_eager_dnf_with_every_sat_cube(p, limit):
    nnf = to_nnf(p)  # held: see _eager
    eager = _eager(p, limit)
    if eager is None:
        with pytest.raises(MemoryError):
            sat_cubes(p, fm.cube_is_sat, limit)
        return
    lazy = list(sat_cubes(p, fm.cube_is_sat, limit))
    assert _is_subsequence(lazy, eager)
    kept = [c for c in lazy if fm.cube_is_sat(c)]
    assert kept == [c for c in eager if fm.cube_is_sat(c)]
    # Without pruning the walk is the eager expansion itself.
    assert list(sat_cubes(nnf, lambda c: True, limit)) == eager


@settings(max_examples=60, deadline=None)
@given(formulas(depth=2), formulas(depth=1))
def test_prefixes_extend_every_cube(p, q):
    nnf = to_nnf(p)  # noqa: F841 - held: see _eager
    prefixes = _eager(q, 50_000)
    got = list(sat_cubes(p, lambda c: True, prefixes=prefixes))
    assert got == [[*pre, *c] for pre in prefixes for c in _eager(p, 50_000)]


def test_blow_up_is_raised_at_call_time():
    """Like to_dnf, the enumerator refuses a formula with more cubes
    than the limit before building any -- even when pruning would have
    left none."""
    x = var("x")
    wide = conj(*(atom_ne(x, k) for k in range(6)))  # 2**6 cubes
    dead = conj(wide, atom_le(x, 0), atom_ge(x, 1))
    assert _eager(dead, 40) is None
    with pytest.raises(MemoryError):
        sat_cubes(dead, fm.cube_is_sat, 40)
    assert list(sat_cubes(dead, fm.cube_is_sat, 64)) == []


def test_contradictory_prefix_prunes_the_whole_subtree():
    # Fresh variable names: the contradictory atoms are interned before
    # the disjunctions, so they lead the canonical conjunct order.
    x, y = var("prune_x"), var("prune_y")
    p = conj(atom_le(x, 0), atom_ge(x, 1),
             *(atom_ne(y, k) for k in range(8)))
    calls = []

    def probe(cube):
        calls.append(list(cube))
        return fm.cube_is_sat(cube)

    assert list(sat_cubes(p, probe)) == []
    assert len(calls) == 1  # one probe of the contradictory prefix


def test_quantified_formulas_keep_the_eager_fresh_names():
    x, y = var("x"), var("y")
    p = conj(exists(["y"], conj(atom_eq(x, y), atom_ne(y, 0))),
             disj(atom_le(x, 3), atom_ge(x, 7)))
    token = fresh_scope()
    try:
        eager = to_dnf(p)
    finally:
        exit_fresh_scope(token)
    token = fresh_scope()
    try:
        lazy = list(sat_cubes(p, lambda c: True))
    finally:
        exit_fresh_scope(token)
    assert lazy == eager


def _parity_goal(steps):
    """A ``check_unreachable``-shaped entailment from the parity-stuck
    loop ``while (d != 0) d = d - 2``: a context that pins ``d`` by a
    chain of odd lower bounds and steps it once, against the disjunction
    of the unrolled exits.  It holds, so no cube may be skipped unseen;
    ``2 * steps!`` eager cubes."""
    d, d1 = var("d"), var("d1")
    top = 2 * steps - 1
    ctx = conj(
        *(atom_ge(d, k) for k in range(1, top + 1, 2)), atom_le(d, top),
        atom_eq(d1, d - 2), atom_ne(d1, 0),
    )
    exits = [atom_le(d1, -1)]
    for j in range(1, steps):
        odd = [atom_ge(d1, k) for k in range(1, 2 * j, 2)]
        exits.append(conj(*odd, atom_le(d1, 2 * j - 1)))
    return ctx, disj(*exits)


@pytest.mark.perf_guard
def test_perf_guard_pruned_entailment_does_a_fifth_of_the_eager_work():
    ctx_f, targets = _parity_goal(7)
    goal = conj(ctx_f, neg(targets))
    assert len(_eager(goal, 50_000)) == 10_080

    clear_caches()
    before = fm.elimination_count()
    eager_sat = any(fm.cube_is_sat(c) for c in _eager(goal, 50_000))
    eager = fm.elimination_count() - before

    clear_caches()
    ctx = SolverContext()
    entailed = ctx.entails(ctx_f, targets)
    pruned = ctx.stats.fm_eliminations

    assert entailed and not eager_sat
    assert eager > 0
    assert pruned * 5 <= eager, (
        f"pruned entailment did {pruned} FM eliminations vs {eager} for "
        "the eager expansion: partial-cube pruning has regressed"
    )


def test_entailment_answers_match_the_eager_expansion():
    """Same sat/entailment answers as testing every eager cube."""
    for steps in range(1, 5):
        ctx_f, targets = _parity_goal(steps)
        for goal in (conj(ctx_f, neg(targets)), conj(ctx_f, targets)):
            eager = any(fm.cube_is_sat(c) for c in _eager(goal, 50_000))
            assert SolverContext().is_sat(goal) is eager
    for a, b in itertools.product(range(3), repeat=2):
        x = var("x")
        lhs = conj(atom_ge(x, a), atom_ne(x, a + 1))
        rhs = disj(atom_ge(x, a + 2 + b), atom_eq(x, a))
        eager = not any(
            fm.cube_is_sat(c) for c in _eager(conj(lhs, neg(rhs)), 50_000)
        )
        assert SolverContext().entails(lhs, rhs) is eager
