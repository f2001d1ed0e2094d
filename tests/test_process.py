import pytest

from epsengine.history import HistoricalSubstitution
from epsengine.language import (
    CanonForm,
    CanonTerm,
    Rank,
    SkolemSymbol,
    Var,
    eq,
    in_set,
    not_,
    num,
    or_,
    rank_of,
)
from epsengine.process import (
    ProcessInvariantError,
    apply_omega_neg,
    compute_plan,
    extract_witness,
    h_step,
    is_solving,
    make_epsilon,
    make_goal,
    make_induction,
    make_inductive_def,
    make_pred,
    run,
)
from epsengine.substitution import (
    Substitution,
    TOP_VAL,
    UNKNOWN,
    num_val,
    serialize,
)
from genexpr import SYM_R1C
from reference import domain, lt, reference_analyze, succ, table_for

HS0 = HistoricalSubstitution.initial()


def plan_of(hs, crs, ctx):
    return compute_plan(hs, crs, ctx, table_for(crs, hs.sub.omega_sym))


def step(hs, crs, ctx):
    """One step on a fresh table: the guard over every pair, and a plan from scratch."""
    return h_step(hs, crs, ctx, 0, table_for(crs, hs.sub.omega_sym))


def solving(sub, crs):
    return is_solving(sub, crs, table_for(crs, sub.omega_sym))


def hs_of(ctx, entries, p=(), v=None):
    sub = Substitution(entries, omega_sym=ctx.omega_sym if ctx else None)
    return HistoricalSubstitution(sub, p, v or {})


# ---------------------------------------------------------------------------
# analysis of the five shapes

def test_analyze_pred():
    cf = make_pred(num(2))
    pair = reference_analyze(cf, HS0, None)
    assert pair is not None
    e, v = pair
    assert e == CanonTerm(SkolemSymbol(eq(Var(1), succ(Var(0))), 1), (2,))
    assert v == num_val(1)


def test_analyze_pred_satisfied_when_scrutinee_is_one():
    # the default witness 0 already satisfies 1 = S x
    cf = make_pred(num(1))
    assert reference_analyze(cf, HS0, None) is None


def test_analyze_epsilon():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    pair = reference_analyze(cf, HS0, None)
    assert pair == (CanonTerm(cf.sym, (1,)), num_val(1))


def test_analyze_epsilon_takes_least_witness():
    # matrix true at 2 and 4; the premise instance is 4, the repair is 2
    phi = or_(eq(Var(0), num(2)), eq(Var(0), num(4)))
    cf = make_epsilon(num(4), phi)
    pair = reference_analyze(cf, HS0, None)
    assert pair == (CanonTerm(cf.sym, (2, 4)), num_val(2))


def test_analyze_induction_least_descent():
    cf = make_induction(num(5), lt(Var(0), num(3)))
    pair = reference_analyze(cf, HS0, None)
    assert pair is not None
    e, v = pair
    assert v == num_val(2)
    assert e.sym == cf.sym


def test_analyze_inductive_def(ctx):
    cf = make_inductive_def(num(0), ctx)
    hs = HistoricalSubstitution.initial(ctx.omega_sym)
    pair = reference_analyze(cf, hs, ctx)
    assert pair == (CanonForm(0), TOP_VAL)


def test_analyze_satisfied_returns_none():
    cf = make_epsilon(num(0), eq(Var(0), num(0)))
    assert reference_analyze(cf, HS0, None) is None


def test_analyze_rejects_zero_value():
    # a contrived state: the conclusion witness already carries a wrong value,
    # making the axiom unsatisfied with scrutinee 1
    cf = make_pred(num(1))
    e = CanonTerm(cf.sym, (1,))
    hs = HistoricalSubstitution(Substitution({e: num_val(2)}))
    with pytest.raises(ProcessInvariantError):
        reference_analyze(cf, hs, None)


# ---------------------------------------------------------------------------
# choice

def test_choose_prefers_least_rank(ctx):
    eps = make_epsilon(num(1), eq(Var(0), num(1)))
    idf = make_inductive_def(num(0), ctx)
    hs = HistoricalSubstitution.initial(ctx.omega_sym)
    plan = plan_of(hs, [idf, eps], ctx)
    assert plan.cr_index == 1
    assert plan.rank == Rank.fin(1) and plan.case == "low"


def test_choose_breaks_ties_by_index():
    a = make_epsilon(num(1), eq(Var(0), num(1)))
    b = make_epsilon(num(2), eq(Var(0), num(2)))
    assert plan_of(HS0, [a, b], None).cr_index == 0
    assert plan_of(HS0, [b, a], None).cr_index == 0


def test_is_solving_examples():
    assert solving(Substitution.empty(), [])
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    assert not solving(Substitution.empty(), [cf])
    solved = Substitution({CanonTerm(cf.sym, (1,)): num_val(1)})
    assert solving(solved, [cf])


# ---------------------------------------------------------------------------
# the four cases

def test_low_case_resets_history(ctx):
    eps = make_epsilon(num(1), eq(Var(0), num(1)))
    hs = hs_of(
        ctx,
        {CanonForm(0): TOP_VAL, ctx.c_n(1): num_val(2)},
        p=(0,),
        v={0: Substitution.empty(ctx.omega_sym)},
    )
    hs2, rec = step(hs, [eps], ctx)
    assert rec.case == "low"
    assert hs2.p == () and not hs2.v
    # everything above the step rank is gone
    assert domain(hs2.sub) == {CanonTerm(eps.sym, (1,))}


def test_high_case_keeps_history(ctx):
    # a matrix mentioning the set sits above Omega
    phi = not_(or_(not_(in_set(Var(0))), lt(Var(0), num(1))))
    eps = make_epsilon(num(2), phi)
    assert rank_of(CanonTerm(eps.sym, (1, 2)), ctx.omega_sym).kind == 2
    hs = hs_of(
        ctx,
        {CanonForm(2): TOP_VAL},
        p=(2,),
        v={2: Substitution.empty(ctx.omega_sym)},
    )
    hs2, rec = step(hs, [eps], ctx)
    assert rec.case == "high"
    assert hs2.p == (2,) and set(hs2.v) == {2}
    assert CanonForm(2) in hs2.sub


def test_omega_pos_records_displaced_negatives(ctx):
    idf = make_inductive_def(num(0), ctx)
    neg = {ctx.c_n(3): num_val(2)}
    hs = hs_of(ctx, neg)
    hs2, rec = step(hs, [idf], ctx)
    assert rec.case == "omega-pos"
    assert hs2.p == (0,)
    assert CanonForm(0) in hs2.sub and ctx.c_n(3) not in hs2.sub
    assert dict(hs2.v[0].items()) == neg


def test_omega_pos_keeps_positive_omega_and_lower(ctx):
    idf = make_inductive_def(num(1), ctx)
    fin = CanonTerm(SYM_R1C, (0,))
    hs = hs_of(
        ctx,
        {
            CanonForm(0): TOP_VAL,
            ctx.c_n(2): UNKNOWN,
            fin: num_val(1),
        },
        p=(0,),
        v={0: Substitution.empty(ctx.omega_sym)},
    )
    hs2, rec = step(hs, [idf], ctx)
    assert rec.case == "omega-pos"
    assert domain(hs2.sub) == {CanonForm(0), CanonForm(1), ctx.c_n(2), fin}
    assert hs2.p == (0, 1)


def test_omega_neg_three_member_rollback(ctx):
    empty = Substitution.empty(ctx.omega_sym)
    snap2 = Substitution({ctx.c_n(1): num_val(1)}, omega_sym=ctx.omega_sym)
    snap3 = Substitution({ctx.c_n(4): num_val(2)}, omega_sym=ctx.omega_sym)
    fin = CanonTerm(SYM_R1C, (0,))
    hs = hs_of(
        ctx,
        {
            CanonForm(0): TOP_VAL,
            CanonForm(2): TOP_VAL,
            CanonForm(3): TOP_VAL,
            ctx.c_n(0): UNKNOWN,  # witness entry of a surviving member
            ctx.c_n(3): UNKNOWN,  # witness entry of a dropped member
            fin: num_val(1),
        },
        p=(0, 2, 3),
        v={0: empty, 2: snap2, 3: snap3},
    )
    hs2 = apply_omega_neg(hs, ctx.c_n(2), num_val(1), ctx)
    # longest prefix without member 2, its facts and witnesses, the snapshot
    # recorded when 2 entered, and the new pair
    assert hs2.p == (0,)
    assert set(hs2.v) == {0}
    assert domain(hs2.sub) == {
        fin,
        CanonForm(0),
        ctx.c_n(0),
        ctx.c_n(1),
        ctx.c_n(2),
    }
    assert hs2.sub.raw(ctx.c_n(1)) == num_val(1)  # restored from the record
    assert hs2.sub.raw(ctx.c_n(2)) == num_val(1)  # the new pair


def test_omega_neg_fresh_member_restores_current_negatives(ctx):
    hs = hs_of(
        ctx,
        {
            CanonForm(0): TOP_VAL,
            ctx.c_n(3): num_val(2),
        },
        p=(0,),
        v={0: Substitution.empty(ctx.omega_sym)},
    )
    hs2 = apply_omega_neg(hs, ctx.c_n(9), num_val(1), ctx)
    assert hs2.p == (0,)
    assert hs2.sub.raw(ctx.c_n(3)) == num_val(2)  # negative part survives
    assert hs2.sub.raw(ctx.c_n(9)) == num_val(1)


def test_omega_neg_new_pair_wins_collision(ctx):
    snap = Substitution({ctx.c_n(2): num_val(4)}, omega_sym=ctx.omega_sym)
    hs = hs_of(
        ctx,
        {CanonForm(2): TOP_VAL},
        p=(2,),
        v={2: snap},
    )
    hs2 = apply_omega_neg(hs, ctx.c_n(2), num_val(1), ctx)
    assert hs2.sub.raw(ctx.c_n(2)) == num_val(1)


def test_h_step_refuses_inconsistent_input(ctx):
    eps = make_epsilon(num(1), eq(Var(0), num(1)))
    bad = hs_of(ctx, {ctx.c_n(1): num_val(1), CanonForm(1): TOP_VAL}, p=(1,),
                v={1: Substitution.empty(ctx.omega_sym)})
    with pytest.raises(ProcessInvariantError):
        step(bad, [eps], ctx)


def test_h_step_refuses_solving_input():
    with pytest.raises(ProcessInvariantError):
        step(HS0, [], None)


# ---------------------------------------------------------------------------
# runs

def test_run_empty_problem():
    out = run([], None)
    assert out.solved and out.steps == []
    assert serialize(out.hs.sub) == "{}"


def test_run_epsilon_one_step():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    out = run([cf], None, check=True)
    assert out.solved and len(out.steps) == 1
    goal = make_goal(eq(Var(0), num(1)))
    assert extract_witness(out.hs.sub, goal) == 1


def test_run_two_members(ctx):
    out = run(
        [make_inductive_def(num(0), ctx), make_inductive_def(num(1), ctx)],
        ctx,
        check=True,
    )
    assert out.solved and len(out.steps) == 2
    assert out.hs.p == (0, 1)
    assert dict(out.hs.sub.items()) == {
        CanonForm(0): TOP_VAL,
        CanonForm(1): TOP_VAL,
    }


def test_run_step_limit():
    a = make_epsilon(num(1), eq(Var(0), num(1)))
    b = make_epsilon(num(2), eq(Var(0), num(2)))
    out = run([a, b], None, max_steps=1)
    assert out.status == "step-limit"
    assert len(out.steps) == 1


def test_extract_witness_default_zero():
    goal = make_goal(eq(Var(0), Var(0)))
    assert extract_witness(Substitution.empty(), goal) == 0


def test_extract_witness_two():
    cf = make_epsilon(num(2), eq(Var(0), num(2)))
    out = run([cf], None)
    goal = make_goal(eq(Var(0), num(2)))
    assert extract_witness(out.hs.sub, goal) == 2


def test_extract_witness_requires_satisfaction():
    goal = make_goal(eq(Var(0), num(2)))
    with pytest.raises(ProcessInvariantError):
        extract_witness(Substitution.empty(), goal)


def test_run_is_deterministic(ctx):
    crs = [
        make_inductive_def(num(0), ctx),
        make_epsilon(num(2), eq(Var(0), num(2))),
        make_inductive_def(num(1), ctx),
    ]
    a = run(crs, ctx, check=True)
    b = run(crs, ctx, check=True)
    assert [s._asdict() for s in a.steps] == [s._asdict() for s in b.steps]
    assert serialize(a.hs.sub) == serialize(b.hs.sub)


def test_solving_state_is_a_fixpoint(ctx):
    crs = [make_inductive_def(num(0), ctx)]
    out = run(crs, ctx)
    assert out.solved
    again = run(crs, ctx, max_steps=10**6)
    assert len(again.steps) == len(out.steps)
    assert solving(out.hs.sub, crs)


def test_deep_minimality_conjunction_stays_tractable():
    # a large predecessor value excludes thousands of smaller witnesses; the
    # balanced conjunction keeps both construction and evaluation in reach
    cf = make_pred(num(3000))
    out = run([cf], None, check=True)
    assert out.solved and len(out.steps) == 1
    e = CanonTerm(cf.sym, (3000,))
    assert out.hs.sub.raw(e) == num_val(2999)


def test_run_evaluates_a_formula_once_per_state_and_only_on_changed_reads(
    monkeypatch,
):
    # counted at the closures `compiled` hands out to `process`, which every
    # path of the engine evaluates a critical formula with, through the
    # table: every top-level evaluation, with the state it read and the
    # reads it made
    import pathlib

    from epsengine import process
    from epsengine.problems import parse_problem

    evaluations = []
    real_compiled = process.compiled
    depth = [0]

    def evaluated(phi, view, evaluate):
        depth[0] += 1
        try:
            verdict = evaluate()
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            reads = getattr(view, "reads", None)
            base = getattr(view, "base", view)
            evaluations.append((id(phi), base._entries, reads and dict(reads)))
        return verdict

    def counting_compiled(e):
        code = real_compiled(e)
        return lambda env, view: evaluated(e, view, lambda: code(env, view))

    states = []
    real_step = process.h_step

    def recording(*args, **kwargs):
        if not states:
            states.append(args[0].sub._entries)  # the initial state
        hs, record = real_step(*args, **kwargs)
        states.append(hs.sub._entries)
        return hs, record

    monkeypatch.setattr(process, "compiled", counting_compiled)
    monkeypatch.setattr(process, "h_step", recording)
    root = pathlib.Path(__file__).resolve().parent.parent / "problems"
    spared = 0
    for path in sorted(root.glob("*.eps")):
        problem = parse_problem(path.read_text())
        index = {id(cf.formula): i for i, cf in enumerate(problem.crits)}
        for check in (False, True):
            evaluations.clear()
            states.clear()
            outcome = run(problem.crits, problem.ctx, check=check)
            assert outcome.solved and len(states) == len(outcome.steps) + 1
            seen = {}  # formula -> (state, reads) of its last evaluation
            for phi, entries, reads in evaluations:
                if phi not in index:
                    continue
                k = next(k for k, s in enumerate(states) if s is entries)
                assert reads is not None, (path.name, "evaluated off the table")
                i = index[phi]
                if i in seen:
                    last, last_reads = seen[i]
                    assert last < k, (path.name, i, "evaluated twice on a state")
                    assert any(
                        entries.get(e) != u for e, u in last_reads.items()
                    ), (path.name, i, k, "evaluated with its reads unchanged")
                seen[i] = (k, reads)
            assert sorted(seen) == list(range(len(problem.crits))), path.name
            spared += len(states) * len(problem.crits) - sum(
                phi in index for phi, _, _ in evaluations
            )
    assert spared > 0
