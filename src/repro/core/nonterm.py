"""Non-termination proving by inductive unreachability (paper Sec. 5.5).

``prove_NonTerm`` attempts, for an SCC of unknown pre-predicates, to show
that every corresponding post-predicate is ``false`` (the method exit is
unreachable).  By induction (hypothesis: all post-predicates of the SCC are
``false``), a specialised post-assumption ::

    rho /\\ /\\(eta_i => false) /\\ /\\(mu_j => U^j_po) => (mu => U_po)

yields ``U_po == false`` exactly when ``rho /\\ mu => \\/ eta_i \\/ \\/ mu_j``
(restricting the ``mu_j`` to post-predicates whose pre-predicate belongs to
the analysed SCC).  ``abd_inf`` performs exactly this check; on failure it
abduces strengthening conditions over the method's parameters that would
make it pass, preferring conditions over few variables via a Farkas
template (paper Sec. 5.6's "optimal constraints") and falling back to the
weakest-precondition projection.

Nondeterminism note (paper Sec. 8): non-termination is an *existential*
property, so internal nondeterministic choices are resolved angelically --
the success check projects both sides onto the method parameters before
comparing, which is the formal counterpart of the paper's "a nondet
conditional is non-terminating if either branch is".
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arith.farkas import LPProblem, polyhedron_rows
from repro.arith.formula import (
    Atom,
    FALSE,
    Formula,
    Rel,
    TRUE,
    atom_ge,
    conj,
    disj,
    neg,
    sat_cubes,
)
from repro.arith.context import SolverContext, resolve
from repro.arith.solver import dnf_disjuncts
from repro.arith.terms import LinExpr, var
from repro.core.assumptions import PostAssume
from repro.core.predicates import PostRef, PostVal
from repro.core.specs import DefStore

MAX_TEMPLATE_VARS = 2


def filter_rel(post_assumptions: Sequence[PostAssume], pair: str) -> List[PostAssume]:
    """Post-assumptions whose right-hand side is the pair's post-predicate."""
    return [t for t in post_assumptions if t.rhs.name == pair]


def _targets(t: PostAssume, scc: Set[str]) -> List[Formula]:
    """The disjunction candidates: etas from resolved-``false`` entries and
    guards of unknown entries whose pair is inside the SCC (the inductive
    hypothesis covers exactly those)."""
    out: List[Formula] = []
    for g, p in t.entries:
        if isinstance(p, PostVal):
            if not p.reachable:
                out.append(g)
        elif isinstance(p, PostRef) and p.name in scc:
            out.append(g)
    return out


def check_unreachable(
    t: PostAssume,
    scc: Set[str],
    params: Tuple[str, ...],
    ctx: Optional[SolverContext] = None,
) -> bool:
    """The ``abd_inf`` success check for one post-assumption.

    Non-termination is an existential property: internal choices (nondet
    draws, havoced loop results) may be resolved angelically, so the check
    compares the parameter-projections of both sides.
    """
    ctx = resolve(ctx)
    context = conj(t.ctx, t.guard)
    if not ctx.is_sat(context):
        return True
    targets = _targets(t, scc)
    if not targets:
        return False
    direct = ctx.entails(context, disj(*targets))
    if direct:
        return True
    # Angelic resolution applies ONLY to genuine nondeterministic draws
    # (``nd!`` variables introduced for nondet()): a diverging witness may
    # pick them.  Everything else -- call results, loop havocs, SSA
    # copies -- is determined by the program and stays universal.
    angelic = {
        v
        for v in (context.free_vars() | disj(*targets).free_vars())
        if v.startswith("nd!")
    }
    if not angelic:
        return False
    keep = (context.free_vars() | disj(*targets).free_vars()) - angelic
    try:
        lhs = ctx.project(context, keep=keep)
        rhs = ctx.project(conj(context, disj(*targets)), keep=keep)
    except MemoryError:
        return False
    return ctx.entails(lhs, rhs)


def abduce_conditions(
    t: PostAssume,
    scc: Set[str],
    params: Tuple[str, ...],
    ctx: Optional[SolverContext] = None,
) -> List[Formula]:
    """Abductive inference of case-split conditions (paper Sec. 5.6).

    For each satisfiable target ``beta_k``, find ``alpha_k`` over the
    method parameters with ``SAT(rho /\\ mu /\\ alpha_k)`` and
    ``rho /\\ mu /\\ alpha_k => beta_k``.  A Farkas-template search with few
    variables is tried first; the weakest precondition (universal
    projection) is the fallback.
    """
    ctx = resolve(ctx)
    context = conj(t.ctx, t.guard)
    if not ctx.is_sat(context):
        return []
    conditions: List[Formula] = []
    # All per-target queries share the assumption frame, so the context
    # formula's DNF cubes are converted once and reused incrementally.
    with ctx.assuming(context):
        for beta in _targets(t, scc):
            if not ctx.is_sat(beta):
                continue
            try:
                alpha = _abduce_one(context, beta, params, ctx)
            except MemoryError:
                alpha = None  # blow-up: skip this candidate
            if alpha is not None:
                conditions.append(alpha)
    return conditions


def _abduce_one(
    context: Formula,
    beta: Formula,
    params: Tuple[str, ...],
    ctx: Optional[SolverContext] = None,
) -> Optional[Formula]:
    """One abduction: alpha over *params* with context /\\ alpha => beta."""
    # Template search, fewest-variables first (the paper's "optimal
    # constraints ... minimum number of program variables").
    ctx = resolve(ctx)
    for size in range(1, min(MAX_TEMPLATE_VARS, len(params)) + 1):
        for subset in itertools.combinations(sorted(params), size):
            alpha = _template_abduction(context, beta, subset, ctx)
            if alpha is not None and _valid_abduction(context, beta, alpha, ctx):
                return alpha
    # Fallback: weakest precondition over the parameters,
    #   alpha = not exists(other vars) . context /\\ not beta
    others = (context.free_vars() | beta.free_vars()) - set(params)
    try:
        wp = neg(ctx.project(conj(context, neg(beta)), keep=set(params)))
    except MemoryError:
        return None
    wp = ctx.simplify(wp)
    if _valid_abduction(context, beta, wp, ctx):
        return wp
    return None


def _valid_abduction(
    context: Formula,
    beta: Formula,
    alpha: Formula,
    ctx: Optional[SolverContext] = None,
) -> bool:
    ctx = resolve(ctx)
    return (
        ctx.is_sat(conj(context, alpha))
        and ctx.entails(conj(context, alpha), beta)
    )


def _template_abduction(
    context: Formula,
    beta: Formula,
    subset: Tuple[str, ...],
    ctx: Optional[SolverContext] = None,
) -> Optional[Formula]:
    """Farkas abduction with template ``a0 + sum a_i v_i >= 0`` over
    *subset*, the template's own multiplier normalised to 1."""
    ctx = resolve(ctx)
    ctx_cubes = [
        c for c in sat_cubes(context, ctx.backend.cube_is_sat)
        if ctx.is_sat(conj(*c))
    ]
    beta_cubes = dnf_disjuncts(beta)
    if not ctx_cubes or len(beta_cubes) != 1:
        return None
    beta_atoms = list(beta_cubes[0])
    lp = LPProblem()
    coeff = {v: f"abd.c.{v}" for v in subset}
    const = "abd.c0"
    impl = 0
    for cube in ctx_cubes:
        rows = polyhedron_rows(cube)
        for atom in beta_atoms:
            # atom: w.x + k <= 0  i.e.  w.x <= -k  ->  g = w, d = -k
            targets = [(atom.expr.coeffs, -atom.expr.constant)]
            if atom.rel is Rel.EQ:
                targets.append(
                    ({v: -c for v, c in atom.expr.coeffs.items()},
                     atom.expr.constant)
                )
            for g_coeffs, d_val in targets:
                lams = [f"l{impl}.{k}" for k in range(len(rows))]
                for name in lams:
                    lp.set_nonneg(name)
                dims: Set[str] = set(subset) | set(g_coeffs)
                for r_coeffs, _b in rows:
                    dims |= set(r_coeffs)
                for x in sorted(dims):
                    # sum_k lam_k A[k][x]  - a_x [x in subset]  - g[x] = 0
                    expr = LinExpr()
                    for (r_coeffs, _b), lam in zip(rows, lams):
                        c = r_coeffs.get(x, Fraction(0))
                        if c != 0:
                            expr = expr + LinExpr({lam: c})
                    if x in coeff:
                        # alpha row "-a.x <= a0" with multiplier fixed to 1
                        expr = expr + LinExpr({coeff[x]: -1})
                    gx = g_coeffs.get(x, Fraction(0))
                    if gx != 0:
                        expr = expr - LinExpr({}, gx)
                    lp.add_eq(expr)
                # constant side: lambda^T b + a0 <= d
                expr = LinExpr({const: 1})
                for (_r, b), lam in zip(rows, lams):
                    if b != 0:
                        expr = expr + LinExpr({lam: b})
                lp.add_le(expr - LinExpr({}, d_val))
                impl += 1
    objective = lp.abs_objective(list(coeff.values()) + [const])
    solution = lp.solve(objective=objective, bound=100)
    if solution is None:
        return None
    alpha_expr = LinExpr(
        {v: solution.get(coeff[v], Fraction(0)) for v in subset},
        solution.get(const, Fraction(0)),
    )
    if all(c == 0 for c in alpha_expr.coeffs.values()):
        return None
    if abs(alpha_expr.constant) > 50 or any(
        abs(c) > 50 for c in alpha_expr.coeffs.values()
    ):
        return None  # implausible magnitudes: an LP-bound artefact
    return atom_ge(alpha_expr, 0)


def prove_nonterm(
    scc: List[str],
    post_assumptions: Sequence[PostAssume],
    store: DefStore,
    ctx: Optional[SolverContext] = None,
) -> Tuple[bool, Dict[str, List[Formula]]]:
    """The paper's ``prove_NonTerm``: try to resolve the SCC as
    ``Loop``/``false``; on failure return abduced case-split conditions per
    pair (over the pair's formal parameters).
    """
    ctx = resolve(ctx)
    members = set(scc)
    all_ok = True
    split_conditions: Dict[str, List[Formula]] = {u: [] for u in scc}
    for u in scc:
        params = store.pair_args[u]
        ts = filter_rel(post_assumptions, u)
        for t in ts:
            if check_unreachable(t, members, t.rhs.args, ctx=ctx):
                continue
            all_ok = False
            # Abduce over the occurrence's argument variables, then rename
            # the result to the pair's formal parameters.
            raw = abduce_conditions(t, members, t.rhs.args, ctx=ctx)
            mapping = {a: f for a, f in zip(t.rhs.args, params)}
            for alpha in raw:
                renamed = alpha.rename(mapping)
                if renamed.free_vars() <= set(params):
                    split_conditions[u].append(renamed)
    return all_ok, split_conditions
