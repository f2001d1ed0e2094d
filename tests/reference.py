"""The tree evaluator, kept as the reference for `substitution.truth`.

Reduction rewrites a term or formula as far as a substitution decides it:
canonical Skolem terms read their value (? counts as 0), arithmetic folds
once its arguments are numerals, and membership atoms collapse to true or
false when their entry is present.  A reduced sentence is then evaluated
over closed arithmetic, and `NotGround` reports one that is still
undecided.  The engine answers the same question in one walk; the tests
compare the two, verdict and lookups alike.

Beside it sit the earlier forms of two engine paths the tests compare
with: the goal report that builds and evaluates instance trees, and the
serialization that sorts every entry.
"""

from __future__ import annotations

from epsengine.language import (
    And,
    Bottom,
    BOTTOM,
    CanonForm,
    Expr,
    FnApp,
    InductiveContext,
    InSet,
    Not,
    Numeral,
    Or,
    RelAtom,
    SkolemApp,
    Top,
    TOP,
    Var,
    _apply_fn,
    as_canonical,
    canon_sexpr,
    is_formula,
    is_term,
    num,
    rank_sort_key,
    skolem,
    substitute,
    to_sexpr,
)
from epsengine.process import Goal, ProcessInvariantError, _reduce_numeral
from epsengine.substitution import (
    Substitution,
    SubstitutionError,
    correctness_formula,
    models,
    truth,
)


def reduce_term(t: Expr, sub) -> Expr:
    """Evaluate a term as far as the substitution decides it.

    Canonical Skolem terms read their value (? counts as 0); non-canonical
    ones reduce their arguments first and retry; arithmetic applications
    compute once their arguments are numerals.  The result is a fixed point
    of reduction.
    """
    if not is_term(t):
        raise SubstitutionError("reduce_term needs a term")
    if isinstance(t, (Numeral, Var)):
        return t
    if isinstance(t, SkolemApp):
        c = as_canonical(t)
        if c is not None:
            u = sub.get(c)
            if u is None:
                return t
            if u.kind == "unknown":
                return num(0)
            return num(u.n)
        red = [reduce_term(a, sub) for a in t.args]
        out = skolem(t.sym, red)
        if all(isinstance(a, Numeral) for a in red):
            return reduce_term(out, sub)
        return out
    # arithmetic application; eager folding keeps all-numeral cases away,
    # but reduce explicitly for trees built around variables or Skolem terms
    red = [reduce_term(a, sub) for a in t.args]
    if all(isinstance(a, Numeral) for a in red):
        return num(_apply_fn(t.fn, [a.value for a in red]))
    return FnApp(t.fn, tuple(red))


def reduce_formula(phi: Expr, sub) -> Expr:
    """Homomorphic reduction; membership atoms collapse when decided."""
    if not is_formula(phi):
        raise SubstitutionError("reduce_formula needs a formula")
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, RelAtom):
        return RelAtom(phi.rel, tuple(reduce_term(a, sub) for a in phi.args))
    if isinstance(phi, InSet):
        t = reduce_term(phi.arg, sub)
        if isinstance(t, Numeral):
            u = sub.get(CanonForm(t.value))
            if u is not None:
                return TOP if u.kind == "top" else BOTTOM
        return InSet(t)
    if isinstance(phi, Not):
        return Not(reduce_formula(phi.body, sub))
    if isinstance(phi, And):
        return And(reduce_formula(phi.left, sub), reduce_formula(phi.right, sub))
    if isinstance(phi, Or):
        return Or(reduce_formula(phi.left, sub), reduce_formula(phi.right, sub))
    raise SubstitutionError(f"cannot reduce {phi!r}")


class NotGround(Exception):
    pass


def evaluate_sentence(phi: Expr) -> bool:
    """Truth of a closed arithmetic sentence with top/bottom constants.

    Raises NotGround when Skolem terms, membership atoms or variables
    remain, i.e. when the sentence is not yet decided.
    """
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, RelAtom):
        vals = []
        for a in phi.args:
            if not isinstance(a, Numeral):
                raise NotGround(phi)
            vals.append(a.value)
        return vals[0] == vals[1] if phi.rel == "=" else vals[0] < vals[1]
    if isinstance(phi, Not):
        return not evaluate_sentence(phi.body)
    if isinstance(phi, And):
        # no short-circuit: a verdict needs the whole sentence to be ground
        left = evaluate_sentence(phi.left)
        right = evaluate_sentence(phi.right)
        return left and right
    if isinstance(phi, Or):
        left = evaluate_sentence(phi.left)
        right = evaluate_sentence(phi.right)
        return left or right
    raise NotGround(phi)


def reference_truth(phi: Expr, sub) -> bool | None:
    """The verdict of reduction then evaluation; None when not ground."""
    try:
        return evaluate_sentence(reduce_formula(phi, sub))
    except NotGround:
        return None


def decides(sub, phi: Expr) -> bool:
    return truth(phi, sub) is not None


def is_computing(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    return all(
        decides(sub, correctness_formula(e, u, ctx)) for e, u in sub.items()
    )


def reference_extract_witness(sub: Substitution, goal: Goal) -> int:
    """Numeral witnessing a solved goal, checked on the instance tree."""
    ext = sub.extended()
    expanded = substitute(goal.phi, {0: skolem(goal.sym, goal.args)})
    if not models(ext, expanded):
        raise ProcessInvariantError(
            "goal is not satisfied by the final substitution"
        )
    return _reduce_numeral(skolem(goal.sym, goal.args), ext)


def reference_witness_line(sub: Substitution, goal: Goal) -> str:
    """`cli.witness_line` as it was: the instance checked as a tree."""
    try:
        n = reference_extract_witness(sub, goal)
    except ProcessInvariantError:
        return f"goal {goal.text}: not decided true"
    instance = substitute(goal.phi, {0: num(n)})
    holds = models(Substitution.empty().extended(), instance)
    return (
        f"goal {goal.text}: witness {n}; "
        f"instance {to_sexpr(instance)} is {'true' if holds else 'false'}"
    )


def reference_serialize(sub: Substitution) -> str:
    """The one-line form by sorting every entry on rank then expression."""
    items = sorted(sub.items(), key=lambda it: rank_sort_key(it[0], sub.omega_sym))
    return "{" + " ".join(f"({canon_sexpr(e)} {u})" for e, u in items) + "}"
