"""The repair process over a fixed list of critical formulas.

Each critical formula, when unsatisfied, names a canonical expression and a
value whose addition repairs it.  The step keeps everything of lower rank,
discards what sits above, and at rank Omega maintains the membership
history: adding a member records the displaced negative entries, adding a
witness against a member rolls the history back to the state before that
member entered.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple, Sequence

from .language import (
    And,
    At,
    Canon,
    CanonForm,
    CanonTerm,
    Expr,
    FnApp,
    InductiveContext,
    InSet,
    Not,
    Numeral,
    OMEGA,
    Or,
    Rank,
    RelAtom,
    SkolemApp,
    SkolemSymbol,
    Var,
    and_,
    canon_sexpr,
    eq,
    in_set,
    instantiate_index,  # unused here; the benchmark's tracer wraps it by name
    or_,
    rank_of,
    rank_of_symbol,
    skolemize_exists,
    substitute,
    to_sexpr,
)
from .history import EMPTY_V, HistoricalSubstitution, validate
from .substitution import (
    Change,
    Substitution,
    TOP_VAL,
    Value,
    Verdicts,
    compiled,
    digest,
    entry_is_positive,
    first_interval,
    is_ci,
    is_correct,
    member_change,
    num_val,
    put_change,
    rollback_change,
    serialize,
)


class ProcessInvariantError(Exception):
    """A property the process is supposed to maintain failed at runtime."""


# ---------------------------------------------------------------------------
# Critical formulas.  Construction skolemizes each matrix once and builds
# the closed formula from the matrix at its points (`At` nodes, which refuse
# an open point), keeping the witness symbols beside it; analysis only ever
# reduces the stored templates.

class PredCF(NamedTuple):
    s: Expr
    sym: SkolemSymbol
    args: tuple[Expr, ...]
    formula: Expr
    kind: str = "pred"


class EpsilonCF(NamedTuple):
    t: Expr
    phi: Expr  # one-hole template of the matrix
    sym: SkolemSymbol
    args: tuple[Expr, ...]
    formula: Expr
    kind: str = "epsilon"


class InductionCF(NamedTuple):
    t: Expr
    phi: Expr
    sym: SkolemSymbol
    args: tuple[Expr, ...]
    formula: Expr
    kind: str = "induction"


class InductiveDefCF(NamedTuple):
    t: Expr
    formula: Expr
    kind: str = "inddef"


class ClosureCF(NamedTuple):
    phi: Expr  # one-hole template of the target formula
    premise_sym: SkolemSymbol
    premise_args: tuple[Expr, ...]
    a_phi: Expr  # one-hole template: clause condition with phi for the set
    wit_sym: SkolemSymbol
    wit_args: tuple[Expr, ...]  # one-hole templates for the witness arguments
    formula: Expr
    kind: str = "closure"


CriticalFormula = PredCF | EpsilonCF | InductionCF | InductiveDefCF | ClosureCF


# The builders build each node from its class where what goes in is checked
# already: a witness symbol's arguments are terms of its arity, an `At` node
# is a formula, and an application over Var(0) does not fold.  The checked
# constructors left check what the caller hands in: the term of `make_pred`
# and `make_inductive_def`, the template of `make_induction` and
# `make_closure`.

def make_pred(s: Expr) -> PredCF:
    if not s.closed:
        raise ProcessInvariantError("predecessor axiom needs a closed term")
    matrix = eq(s, FnApp("s", (Var(0),)))
    sym, args = skolemize_exists(matrix)
    zero = RelAtom("=", (s, Numeral(0)))
    formula = Or(Not(Not(zero)), At(matrix, SkolemApp(sym, args)))
    return PredCF(s=s, sym=sym, args=args, formula=formula)


def make_epsilon(t: Expr, phi: Expr) -> EpsilonCF:
    return _epsilon(t, phi, *skolemize_exists(phi))


def _epsilon(t: Expr, phi: Expr, sym: SkolemSymbol, args: tuple) -> EpsilonCF:
    """The epsilon axiom at t of phi, whose witness is sym applied to args."""
    formula = Or(Not(At(phi, t)), At(phi, SkolemApp(sym, args)))
    return EpsilonCF(t=t, phi=phi, sym=sym, args=args, formula=formula)


def make_induction(t: Expr, phi: Expr) -> InductionCF:
    matrix = and_(phi, Not(substitute(phi, {0: FnApp("s", (Var(0),))})))
    sym, args = skolemize_exists(matrix)
    premise = And(At(phi, Numeral(0)), Not(At(phi, t)))
    formula = Or(Not(premise), At(matrix, SkolemApp(sym, args)))
    return InductionCF(t=t, phi=phi, sym=sym, args=args, formula=formula)


def make_inductive_def(t: Expr, ctx: InductiveContext) -> InductiveDefCF:
    if not t.closed:
        raise ProcessInvariantError(
            "inductive definition axiom needs a closed term"
        )
    formula = Or(Not(At(ctx.a_template, t)), in_set(t))
    return InductiveDefCF(t=t, formula=formula)


def make_closure(phi: Expr, ctx: InductiveContext) -> ClosureCF:
    b_phi = ctx.with_phi(phi)  # clause with phi for the set; Var(0)=y, Var(1)=x
    wit_sym, wit_raw = skolemize_exists(Not(b_phi))
    wit_args = tuple(substitute(a, {1: Var(0)}) for a in wit_raw)
    # the clause at its witness, then re-expressed over the hole: one walk
    a_phi = substitute(b_phi, {0: SkolemApp(wit_sym, wit_args), 1: Var(0)})
    psi = or_(Not(a_phi), phi)  # membership condition implies the target
    premise_sym, premise_args = skolemize_exists(Not(psi))
    body = Or(Not(InSet(Var(0))), phi)  # the conclusion: forall x body
    sym, args = skolemize_exists(Not(body))
    premise = At(psi, SkolemApp(premise_sym, premise_args))
    formula = Or(Not(premise), At(body, SkolemApp(sym, args)))
    return ClosureCF(
        phi=phi,
        premise_sym=premise_sym,
        premise_args=premise_args,
        a_phi=a_phi,
        wit_sym=wit_sym,
        wit_args=wit_args,
        formula=formula,
    )


# ---------------------------------------------------------------------------
# Step analysis

CASE_LOW = "low"
CASE_HIGH = "high"
CASE_OMEGA_POS = "omega-pos"
CASE_OMEGA_NEG = "omega-neg"


class StepPlan(NamedTuple):
    cr_index: int
    e: Canon
    v: Value
    rank: Rank
    case: str


def _reduce_numeral(t: Expr, ext, env: tuple[int, ...] = ()) -> int:
    n = compiled(t)(env, ext)
    if n is None:
        at = f" at {env}" if env else ""
        raise ProcessInvariantError(
            f"term did not reduce to a numeral: {to_sexpr(t)}{at}"
        )
    return n


def _reduce_args(
    args: Sequence[Expr], ext, env: tuple[int, ...] = ()
) -> tuple[int, ...]:
    return tuple(_reduce_numeral(a, ext, env) for a in args)


def _least_witness(
    sym: SkolemSymbol, args: tuple[int, ...], upper: int, ext
) -> int:
    """Least value up to upper whose index instance holds.

    The upper bound itself is guaranteed to qualify when the critical
    formula is unsatisfied; picking the least qualifying value keeps the
    minimality half of the correctness condition true after the step.  It
    is the start of the index formula's first interval when that solves at
    the hole (see `first_interval`); otherwise each value is tried in turn.
    """
    first = first_interval(sym.index_formula, (0, *args), upper, ext)
    if first is None:
        index = compiled(sym.index_formula)
        for w in range(upper + 1):
            if index((w, *args), ext) is True:
                return w
    elif first:
        return first[0]
    raise ProcessInvariantError(
        "no witness up to the reduced bound; evaluation is inconsistent"
    )


def _descent(phi: Expr, t: int, ext) -> int | None:
    """The least m < t with phi(m) true and phi(m + 1) false, or None.

    It is the end of the first interval of phi's truth set on [0, t], when
    that is below t and phi solves at the hole; otherwise each point is
    tried in turn.
    """
    first = first_interval(phi, (0,), t, ext)
    if first is not None:
        return first[1] if first and first[1] < t else None
    code = compiled(phi)
    here = code((0,), ext)
    for m in range(t):
        above = code((m + 1,), ext)
        if here is True and above is False:
            return m
        here = above
    return None


def _guard_term_value(v: int, what: str) -> Value:
    if v <= 0:
        raise ProcessInvariantError(
            f"{what} produced the value {v}; a repair value for a term "
            "must be a positive numeral"
        )
    return num_val(v)


def analyze(
    cf: CriticalFormula,
    hs: HistoricalSubstitution,
    ctx: InductiveContext | None,
    ext,
    holds: bool,
) -> tuple[Canon, Value] | None:
    """Repair pair for an unsatisfied critical formula, None when satisfied.

    ext is the view of hs's map that the analysis reads (the map itself, or
    a test's recording of it), and holds the caller's satisfaction verdict
    for cf on it.
    """
    if holds:
        return None

    if isinstance(cf, PredCF):
        sv = _reduce_numeral(cf.s, ext)
        if sv == 0:
            raise ProcessInvariantError(
                "predecessor axiom unsatisfied with a zero scrutinee"
            )
        e = CanonTerm(cf.sym, _reduce_args(cf.args, ext))
        return e, _guard_term_value(sv - 1, "predecessor analysis")

    if isinstance(cf, EpsilonCF):
        tv = _reduce_numeral(cf.t, ext)
        nargs = _reduce_args(cf.args, ext)
        w = _least_witness(cf.sym, nargs, tv, ext)
        return CanonTerm(cf.sym, nargs), _guard_term_value(w, "epsilon analysis")

    if isinstance(cf, InductionCF):
        m = _descent(cf.phi, _reduce_numeral(cf.t, ext), ext)
        if m is not None:
            e = CanonTerm(cf.sym, _reduce_args(cf.args, ext))
            return e, _guard_term_value(m, "induction analysis")
        raise ProcessInvariantError(
            "induction axiom unsatisfied but no descent point exists"
        )

    if isinstance(cf, InductiveDefCF):
        tv = _reduce_numeral(cf.t, ext)
        return CanonForm(tv), TOP_VAL

    if isinstance(cf, ClosureCF):
        if ctx is None:
            raise ProcessInvariantError("closure axiom without inductive clause")
        target = None
        phi = compiled(cf.phi)
        for n in hs.p:
            if phi((n,), ext) is False:
                target = n
                break
        if target is None:
            raise ProcessInvariantError(
                "closure axiom unsatisfied but every recorded member "
                "satisfies the target formula"
            )
        if compiled(cf.a_phi)((target,), ext) is False:
            # the membership condition itself fails at target: repair the
            # rank-Omega witness term with the value its condition consulted
            wit = CanonTerm(cf.wit_sym, _reduce_args(cf.wit_args, ext, (target,)))
            u = ext.get(wit)
            return ctx.c_n(target), u
        nargs = _reduce_args(cf.premise_args, ext)
        w = _least_witness(cf.premise_sym, nargs, target, ext)
        e = CanonTerm(cf.premise_sym, nargs)
        return e, _guard_term_value(w, "closure analysis")

    raise ProcessInvariantError(f"unknown critical formula {cf!r}")


def is_solving(
    sub: Substitution, crs: Sequence[CriticalFormula], verdicts: Verdicts
) -> bool:
    """Every critical formula holds: each verdict is kept in the table,
    keyed by the formula's index, and only the formulas not known to hold
    are visited."""
    verdicts.follow(sub)
    return all(
        verdicts.truth(i, sub, lambda v: compiled(crs[i].formula)((), v)) is True
        for _, i in verdicts.pending_formulas()
    )


def repair_rank_bound(cf: CriticalFormula, omega: SkolemSymbol | None) -> Rank:
    """A lower bound, known without analysis, on the rank of cf's repair.

    Exact for every kind but closure, whose repair is either the rank-Omega
    witness term or a premise witness.
    """
    if isinstance(cf, InductiveDefCF):
        return OMEGA
    if isinstance(cf, ClosureCF):
        return min(OMEGA, rank_of_symbol(cf.premise_sym, omega))
    return rank_of_symbol(cf.sym, omega)


def compute_plan(
    hs: HistoricalSubstitution,
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
    verdicts: Verdicts,
) -> StepPlan | None:
    """The pending step: least-rank unsatisfied formula, ties by index.

    Formulas are analyzed in the table's order of their rank bound, and the
    search stops at the first whose bound cannot beat the best repair
    found, so only formulas that can still win are tested and searched.
    The table answers the satisfaction tests under the keys `is_solving`
    uses, and the walk passes over only the formulas it does not know to
    hold: one that holds is never the plan.
    """
    sub = hs.sub
    omega = sub.omega_sym
    verdicts.follow(sub)
    best: tuple[Rank, int, Canon, Value] | None = None
    for key in verdicts.pending_formulas():
        if best is not None and key > best[:2]:
            break
        i = key[1]
        cf = crs[i]
        holds = verdicts.truth(i, sub, lambda v: compiled(cf.formula)((), v)) is True
        pair = analyze(cf, hs, ctx, sub, holds)
        if pair is None:
            continue
        e, v = pair
        r = rank_of(e, omega)
        if best is None or (r, i) < best[:2]:
            best = (r, i, e, v)
    if best is None:
        return None
    r, i, e, v = best
    if r.is_omega:
        case = CASE_OMEGA_POS if isinstance(e, CanonForm) else CASE_OMEGA_NEG
    else:
        case = CASE_LOW if r < OMEGA else CASE_HIGH
    return StepPlan(cr_index=i, e=e, v=v, rank=r, case=case)


# ---------------------------------------------------------------------------
# The four step cases

def apply_omega_pos(
    hs: HistoricalSubstitution, e: CanonForm
) -> HistoricalSubstitution:
    """Add a membership fact; displaced negative entries go on record."""
    if e.n in hs.p:
        raise ProcessInvariantError(
            f"member {e.n} is already recorded in the history"
        )
    sub = hs.sub
    below, layer = sub.split_omega()
    positive, displaced = [], []
    for r in layer:
        (positive if entry_is_positive(r[2], r[3]) else displaced).append(r)
    v_map = dict(hs.v)
    v_map[e.n] = sub.derive(displaced)
    after = sub.derive(below + positive, [(e, TOP_VAL)])
    return HistoricalSubstitution._make((after, hs.p + (e.n,), MappingProxyType(v_map)))


def rollback_point(
    hs: HistoricalSubstitution, e: CanonTerm, ctx: InductiveContext
) -> tuple[tuple[int, ...], Substitution]:
    """The members a step valuing e keeps and the snapshot it restores: the
    prefix of P before e's member and the entries displaced when that
    member entered, or, when e's member is not recorded, all of P and the
    negative rank-Omega entries."""
    n = ctx.member_of(e)
    if n is not None and n in hs.p:
        return hs.p[: hs.p.index(n)], hs.v[n]
    return hs.p, hs.sub.negative_omega()


def apply_omega_neg(
    hs: HistoricalSubstitution,
    e: CanonTerm,
    v: Value,
    ctx: InductiveContext,
) -> HistoricalSubstitution:
    """Value a rank-Omega witness term, rolling the history back.

    The history keeps its longest prefix not containing the contested
    member; membership facts and indeterminate witness entries of that
    prefix survive, the negative entries displaced when the member was
    added are restored, and the new pair lands last so it wins any
    collision with a restored entry.
    """
    p_new, restored = rollback_point(hs, e, ctx)
    keep = set(p_new)

    def survives(d: Canon, u: Value) -> bool:
        if isinstance(d, CanonForm):
            return u.kind == "top" and d.n in keep
        return u.kind == "unknown" and ctx.member_of(d) in keep

    below, layer = hs.sub.split_omega()
    kept = [r for r in layer if survives(r[2], r[3])]
    sub = hs.sub.derive(below + kept, [*restored.items(), (e, v)])
    v = hs.v if p_new == hs.p else MappingProxyType({m: hs.v[m] for m in p_new})
    return HistoricalSubstitution._make((sub, p_new, v))


def apply_plan(
    hs: HistoricalSubstitution, plan: StepPlan, ctx: InductiveContext | None
) -> HistoricalSubstitution:
    if plan.case == CASE_LOW or plan.case == CASE_HIGH:
        # keep at most the plan's rank and install the pair; a finite rank
        # clears the membership history, one above Omega keeps it
        kept = hs.sub.up_to(plan.rank)
        old = kept.raw(plan.e)
        if old is not None and old.kind != "unknown":
            raise ProcessInvariantError(
                f"step would overwrite a committed value at {canon_sexpr(plan.e)}"
            )
        sub = kept.with_entry(plan.e, plan.v)
        if plan.case == CASE_LOW:
            return HistoricalSubstitution._make((sub, (), EMPTY_V))
        return HistoricalSubstitution._make((sub, hs.p, hs.v))
    if plan.case == CASE_OMEGA_POS:
        assert isinstance(plan.e, CanonForm)
        return apply_omega_pos(hs, plan.e)
    if ctx is None:
        raise ProcessInvariantError("rank-Omega step without inductive clause")
    assert isinstance(plan.e, CanonTerm)
    return apply_omega_neg(hs, plan.e, plan.v, ctx)


def step_change(
    hs: HistoricalSubstitution,
    hs2: HistoricalSubstitution,
    plan: StepPlan,
    e: str,
    ctx: InductiveContext | None,
) -> Change:
    """The change of the step plan made from hs to hs2, built from its case;
    e is the text of the plan's expression.  A step off rank Omega puts
    one row and cuts the rows above its rank; omega-pos puts the member's
    row and cuts the rows it moved into V and those above Omega; omega-neg
    puts the restored snapshot and the new pair against the rows it cut,
    less those whose text did not change."""
    key = (*plan.rank, e)
    if plan.case == CASE_OMEGA_POS:
        return member_change(hs.sub, hs2.sub, key, hs2.v[plan.e.n]._rows)
    if plan.case == CASE_OMEGA_NEG:
        restored = rollback_point(hs, plan.e, ctx)[1]._rows
        return rollback_change(hs.sub, hs2.sub, key, restored)
    return put_change(hs.sub, hs2.sub, key)


# ---------------------------------------------------------------------------
# Step records and the driver

class HStep(NamedTuple):
    index: int
    cr_index: int
    case: str
    e: str
    v: str
    rank: str
    before: str
    after: str
    added: tuple[str, ...]
    removed: tuple[str, ...]
    p_after: tuple[int, ...]
    v_added: dict[int, str]
    v_removed: tuple[int, ...]
    solving: bool


def h_step(
    hs: HistoricalSubstitution,
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
    step_index: int,
    verdicts: Verdicts,
) -> tuple[HistoricalSubstitution, HStep]:
    """One step of the process; refuses computationally inconsistent input.

    The step's change is built from its case (`step_change`).  The table,
    carried from step to step (one per list of critical formulas), spares
    the evaluations whose reads the previous step left unchanged: the step
    tells it the change, so it re-reads nothing the step did not touch.
    The guard (`is_ci`) runs on the state the step made, and the table
    keeps its verdict for the next step; on an input the table holds no
    verdict for, in a run only the initial state, it runs first on the
    input, over every pair.  The members whose snapshot the step added or
    dropped are those past the prefix the two membership orders share.
    """
    verdicts.follow(hs.sub)
    ci = verdicts.ci
    if is_ci(hs.sub, ctx, verdicts) if ci is None else ci:
        raise ProcessInvariantError(
            "refusing to step a computationally inconsistent substitution"
        )
    plan = compute_plan(hs, crs, ctx, verdicts)
    if plan is None:
        raise ProcessInvariantError("substitution is already solving")
    hs2 = apply_plan(hs, plan, ctx)
    e = canon_sexpr(plan.e)
    delta = step_change(hs, hs2, plan, e, ctx)
    verdicts.advance(hs.sub, hs2.sub, delta)
    verdicts.ci = is_ci(hs2.sub, ctx, verdicts)
    v_added, v_removed = {}, ()
    if hs2.p != hs.p:
        shared = min(len(hs.p), len(hs2.p))
        v_added = {m: serialize(hs2.v[m]) for m in hs2.p[shared:] if m in hs2.v}
        v_removed = tuple(sorted(m for m in hs.p[shared:] if m not in hs2.v))
    record = HStep(
        index=step_index,
        cr_index=plan.cr_index,
        case=plan.case,
        e=e,
        v=str(plan.v),
        rank=str(plan.rank),
        before=digest(hs.sub),
        after=digest(hs2.sub),
        added=delta.added,
        removed=delta.removed,
        p_after=hs2.p,
        v_added=v_added,
        v_removed=v_removed,
        solving=is_solving(hs2.sub, crs, verdicts),
    )
    return hs2, record


class Outcome(NamedTuple):
    status: str  # 'solved' | 'step-limit' | 'internal-error'
    hs: HistoricalSubstitution
    steps: list[HStep]
    diagnostics: str | None = None
    before: HistoricalSubstitution | None = None  # where the last step began

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _check(
    before: HistoricalSubstitution,
    hs: HistoricalSubstitution,
    ctx: InductiveContext | None,
    verdicts: Verdicts,
    valid: HistoricalSubstitution | None,
) -> list[str]:
    """Invariant violations of hs, the state the step the table last
    followed made from before, which is valid (the state ``valid`` checked
    last, or the initial one).

    Only the entries the step added or revalued, and those whose verdict it
    made stale, are checked again (see `Verdicts.touched`).  An entry's
    verdict is reused only while every entry its correctness formula read
    is unchanged, so a pair the guard just evaluated is found in the table.
    A step that touched no rank-Omega entry and kept P and V keeps the
    history valid; otherwise only the members past the longest prefix
    shared with ``valid``'s P, and only the snapshots it does not hold, are
    tested again.
    """
    if not is_correct(hs.sub, ctx, verdicts, verdicts.touched(hs.sub)):
        return ["substitution is not correct"]
    if verdicts.step.omega or (hs.p, hs.v) != (before.p, before.v):
        return validate(hs, ctx, valid)
    return []


def run(
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
    max_steps: int = 10**6,
    check: bool = False,
) -> Outcome:
    """Iterate the step from the empty substitution until solving.

    Satisfaction is tested once per state: here for the initial state, and
    by the step that produced it (`HStep.solving`) for every later one.  One
    table of verdicts serves the whole run, built with the formulas' order
    of (rank bound, index), so a formula is evaluated again only when an
    entry it read has changed.

    With check set, every produced state is verified against the invariants
    the process is supposed to preserve: correctness of each entry and
    validity (including admissibility) of the history; see `_check`.
    """
    omega = ctx.omega_sym if ctx is not None else None
    hs, before = HistoricalSubstitution.initial(omega), None
    steps: list[HStep] = []
    verdicts = Verdicts(
        sorted((repair_rank_bound(cf, omega), i) for i, cf in enumerate(crs))
    )
    valid = None  # the last state checked valid
    status, diagnostics = "solved", None
    try:  # the first evaluation compiles the formulas, and may overflow too
        solving = is_solving(hs.sub, crs, verdicts)
        while not solving:
            if len(steps) >= max_steps:
                status = "step-limit"
                diagnostics = f"no solution within {max_steps} steps"
                break
            after, record = h_step(hs, crs, ctx, len(steps), verdicts)
            before, hs = hs, after
            steps.append(record)
            if check:
                issues = _check(before, hs, ctx, verdicts, valid)
                if issues:
                    status = "internal-error"
                    diagnostics = f"step {record.index}: {'; '.join(issues)}"
                    break
                valid = hs
            solving = record.solving
    except ProcessInvariantError as err:
        status, diagnostics = "internal-error", str(err)
    except RecursionError:
        status, diagnostics = "internal-error", "formula nesting too deep"
    return Outcome(status, hs, steps, diagnostics, before)


# ---------------------------------------------------------------------------
# Witness extraction

class Goal(NamedTuple):
    phi: Expr  # one-hole template
    sym: SkolemSymbol
    args: tuple[Expr, ...]
    text: str
    term: Expr  # the witness term: sym applied to args


def make_goal(phi: Expr, text: str = "") -> Goal:
    sym, args = skolemize_exists(phi)
    return Goal(phi=phi, sym=sym, args=args, text=text, term=SkolemApp(sym, args))


def extract_witness(sub: Substitution, goal: Goal) -> int:
    """Numeral witnessing a solved existential goal.

    The template is evaluated at the witness term's value, which reads what
    the template instantiated at the term itself would.
    """
    n = compiled(goal.term)((), sub)
    if n is None or compiled(goal.phi)((n,), sub) is not True:
        raise ProcessInvariantError(
            "goal is not satisfied by the final substitution"
        )
    return n
