import pytest

from epsengine.history import HistoricalSubstitution
from epsengine.language import (
    CanonForm,
    CanonTerm,
    Var,
    and_,
    eq,
    in_set,
    not_,
    num,
    or_,
    skolem,
)
from epsengine.process import (
    make_epsilon,
    make_inductive_def,
    run,
)
from sequents import (
    MeasureValue,
    Sequent,
    SequentError,
    active_expressions,
    classify_axiom,
    d,
    d_r,
    formula_family,
    h_step_applies,
    is_proper,
    nu,
    rho,
)
from epsengine.substitution import (
    Substitution,
    TOP_VAL,
    UNKNOWN,
    num_val,
)
from genexpr import SYM_R1A, SYM_R1C
from reference import domain, leaked, lt, omega_sym, to_term


def sequent_of(ctx, entries, p=(), v=None, flags=None):
    omega = ctx.omega_sym if ctx else None
    hs = HistoricalSubstitution(
        Substitution(entries, omega_sym=omega), p, v or {}
    )
    if flags is None:
        return Sequent.from_historical(hs)
    return Sequent(hs, flags)


def test_flag_domain_is_enforced(ctx):
    e = CanonTerm(SYM_R1C, (0,))
    hs = HistoricalSubstitution(Substitution({e: num_val(1)}))
    with pytest.raises(SequentError):
        Sequent(hs, {e: "t"})  # committed finite-rank entries carry no flag
    assert Sequent.from_historical(hs).flags == {}
    hs2 = HistoricalSubstitution(Substitution({e: UNKNOWN}))
    assert Sequent.from_historical(hs2).flags == {e: "t"}


def test_views(ctx):
    s = sequent_of(
        ctx,
        {
            CanonForm(0): TOP_VAL,
            ctx.c_n(0): UNKNOWN,
            ctx.c_n(2): num_val(1),
            CanonTerm(SYM_R1C, (0,)): UNKNOWN,
        },
        p=(0,),
        v={0: Substitution.empty(ctx.omega_sym)},
        flags={
            CanonForm(0): "t",
            ctx.c_n(0): "f",
            ctx.c_n(2): "t",
            CanonTerm(SYM_R1C, (0,)): "f",
        },
    )
    assert domain(s.temporary()) == {CanonForm(0), ctx.c_n(2)}
    assert domain(s.fixed()) == {ctx.c_n(0), CanonTerm(SYM_R1C, (0,))}
    # stable part: negatives, member facts, and witnesses of present members
    assert domain(s.stable_omega(ctx)) == {
        CanonForm(0),
        ctx.c_n(0),
        ctx.c_n(2),
    }


def test_classify_axf(ctx):
    theta = sequent_of(
        ctx,
        {ctx.c_n(1): num_val(1), CanonForm(1): TOP_VAL},
        p=(1,),
        v={1: Substitution.empty(ctx.omega_sym)},
    )
    labels = classify_axiom(theta, [], ctx)
    assert "AxF" in labels


def test_classify_axs():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    out = run([cf], None)
    theta = Sequent.from_historical(out.hs)
    assert classify_axiom(theta, [cf], None) == ["AxS"]


def test_classify_axh_needs_fixed_active(ctx):
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    e = CanonTerm(cf.sym, (1,))
    theta_t = sequent_of(None, {e: UNKNOWN}, flags={e: "t"})
    assert classify_axiom(theta_t, [cf], None) == []
    theta_f = sequent_of(None, {e: UNKNOWN}, flags={e: "f"})
    labels = classify_axiom(theta_f, [cf], None)
    assert labels == [("AxH", e, num_val(1))]


def test_h_step_applies_fresh_expression_fails():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    theta = Sequent.from_historical(HistoricalSubstitution.initial())
    assert not h_step_applies(theta, [cf], None)


def test_h_step_applies_with_entry_present():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    e = CanonTerm(cf.sym, (1,))
    theta = sequent_of(None, {e: UNKNOWN})
    assert h_step_applies(theta, [cf], None)


def test_h_step_applies_member_side_conditions(ctx):
    idf = make_inductive_def(num(0), ctx)
    # the member step consults only the membership atom; without the witness
    # term in the domain the side condition fails
    theta = sequent_of(ctx, {CanonForm(0): UNKNOWN})
    assert not h_step_applies(theta, [idf], ctx)
    theta2 = sequent_of(ctx, {CanonForm(0): UNKNOWN, ctx.c_n(0): UNKNOWN})
    assert h_step_applies(theta2, [idf], ctx)


def test_active_low_is_the_step_expression():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    e = CanonTerm(cf.sym, (1,))
    theta = sequent_of(None, {e: UNKNOWN})
    assert active_expressions(theta, [cf], None) == {e}


def test_active_omega_pos_includes_negatives(ctx):
    idf = make_inductive_def(num(0), ctx)
    theta = sequent_of(
        ctx,
        {
            CanonForm(0): UNKNOWN,
            ctx.c_n(0): UNKNOWN,
            ctx.c_n(3): num_val(2),  # negative entry, displaced by the step
        },
    )
    assert h_step_applies(theta, [idf], ctx)
    assert active_expressions(theta, [idf], ctx) == {CanonForm(0), ctx.c_n(3)}


def test_active_requires_applicability():
    cf = make_epsilon(num(1), eq(Var(0), num(1)))
    theta = Sequent.from_historical(HistoricalSubstitution.initial())
    with pytest.raises(SequentError):
        active_expressions(theta, [cf], None)


def test_is_proper(ctx):
    theta = sequent_of(ctx, {})
    assert is_proper((0,), CanonForm(0), theta, ctx)
    assert not is_proper((3,), CanonForm(3), theta, ctx)  # not admissible
    assert not is_proper((0,), CanonForm(1), theta, ctx)  # wrong last element
    valued = sequent_of(ctx, {ctx.c_n(0): num_val(1)})
    assert not is_proper((0,), CanonForm(0), valued, ctx)  # witness committed


# ---------------------------------------------------------------------------
# measures

def test_d_counts_atoms_and_witness_terms():
    assert d(eq(num(0), num(0))) == 0
    c = skolem(SYM_R1A, (num(0),))
    assert d(and_(eq(c, num(0)), in_set(num(0)))) == 2
    nested = skolem(SYM_R1A, (c,))
    assert d(eq(nested, num(1))) == 2
    assert d(in_set(c)) == 2


def test_d_r_gates_on_level():
    c = skolem(SYM_R1A, (num(0),))
    phi = eq(c, num(0))
    assert d_r(phi, 1) == 1
    assert d_r(phi, 0) == 0


def test_measure_value_order():
    assert MeasureValue(0, 5) < MeasureValue(1, 0)
    assert MeasureValue(2, 3) < MeasureValue(2, 4)


def test_formula_family_takes_term_entries(ctx):
    theta = sequent_of(
        ctx,
        {
            CanonTerm(SYM_R1C, (2,)): num_val(3),
            CanonForm(0): TOP_VAL,
        },
        p=(0,),
        v={0: Substitution.empty(ctx.omega_sym)},
    )
    base = eq(num(0), num(0))
    fam = formula_family(theta, [base], ctx)
    assert base in fam
    assert len(fam) == 2  # the membership entry contributes nothing


def test_nu_decreases_when_collapsing_a_term():
    c = CanonTerm(SYM_R1A, (1,))
    phi = eq(to_term(c), num(0))
    theta = Sequent.from_historical(HistoricalSubstitution.initial())
    before = nu(theta, [phi], None)
    assert before == MeasureValue(1, 1)
    after = nu(theta.add_entry(c, num_val(2)), [phi], None)
    assert after < before
    after_unknown = nu(theta.add_entry(c, UNKNOWN), [phi], None)
    assert after_unknown < before


def test_nu_formula_case_nonincrease(ctx):
    phi = or_(in_set(num(1)), eq(num(0), num(1)))
    theta = sequent_of(ctx, {})
    before = nu(theta, [phi], ctx)
    assert before == MeasureValue(0, 1)
    after = nu(theta.add_entry(CanonForm(1), TOP_VAL), [phi], ctx)
    assert after <= before
    assert after < before  # the witness formula sits at the top level


def test_rho_uses_reduced_formulas():
    c = CanonTerm(SYM_R1A, (1,))
    phi = eq(to_term(c), num(0))
    theta = Sequent.from_historical(
        HistoricalSubstitution(Substitution({c: num_val(2)}))
    )
    assert rho(theta, [phi], None) == 0  # collapses under the entry
    empty = Sequent.from_historical(HistoricalSubstitution.initial())
    assert rho(empty, [phi], None) == 1


def _saturate(hs, crs, ctx, cap=60):
    """Add indeterminate entries until the pending step's footprint is stored."""
    from epsengine.history import HistoricalSubstitution
    from epsengine.substitution import RecordingSubstitution
    from reference import reference_compute_plan

    for _ in range(cap):
        rec = RecordingSubstitution(hs.sub)
        plan = reference_compute_plan(hs, crs, ctx, rec)
        if plan is None:
            return None
        missing = leaked(rec)
        if ctx is not None and plan.rank.is_omega:
            if isinstance(plan.e, CanonTerm):
                n = ctx.member_of(plan.e)
                if n is not None and CanonForm(n) not in hs.sub:
                    missing.add(CanonForm(n))
                for d, u in hs.sub.items():
                    if (
                        isinstance(d, CanonTerm)
                        and u.kind == "unknown"
                        and hs.sub.rank_of(d).is_omega
                    ):
                        m = ctx.member_of(d)
                        if m is not None and CanonForm(m) not in hs.sub:
                            missing.add(CanonForm(m))
            elif ctx.c_n(plan.e.n) not in hs.sub:
                missing.add(ctx.c_n(plan.e.n))
        if not missing:
            return hs
        sub = hs.sub
        for e in missing:
            sub = sub.with_entry(e, UNKNOWN)
        hs = HistoricalSubstitution(sub, hs.p, dict(hs.v))
    raise AssertionError("saturation did not converge")


def test_saturated_states_admit_the_step(ctx):
    """Storing the lookup footprint makes the step applicable, with (e, ?)
    present, and flagging any active entry as fixed yields the step axiom."""
    from corpusgen import build_corpus
    from epsengine.history import HistoricalSubstitution
    from epsengine.problems import parse_problem
    from epsengine.substitution import UNKNOWN as UNK
    from reference import reference_compute_plan

    checked = 0
    for cp in build_corpus()[:60]:
        problem = parse_problem(cp.text)
        hs = HistoricalSubstitution.initial(omega_sym(problem))
        sat = _saturate(hs, problem.crits, problem.ctx)
        if sat is None:
            continue
        theta = Sequent.from_historical(sat)
        assert h_step_applies(theta, problem.crits, problem.ctx)
        plan = reference_compute_plan(sat, problem.crits, problem.ctx)
        assert sat.sub.raw(plan.e) == UNK  # the step expression sits at ?
        active = active_expressions(theta, problem.crits, problem.ctx)
        assert plan.e in active
        pick = sorted(active, key=str)[0]
        flags = dict(theta.flags)
        flags[pick] = "f"
        labels = classify_axiom(Sequent(sat, flags), problem.crits, problem.ctx)
        assert ("AxH", plan.e, plan.v) in labels
        checked += 1
    assert checked >= 30
