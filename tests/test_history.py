import random

from epsengine.history import HistoricalSubstitution, is_admissible, validate
from epsengine.language import CanonForm, CanonTerm, InductiveContext, Var, in_set
from epsengine.substitution import Substitution, TOP_VAL, UNKNOWN, num_val
from genexpr import SYM_R1A
from reference import b_formula


def members(ctx, *ns):
    return Substitution(
        {CanonForm(n): TOP_VAL for n in ns}, omega_sym=ctx.omega_sym
    )


def test_empty_history_admissible(ctx):
    assert is_admissible((), ctx)
    assert is_admissible((), None)


def test_admissible_bounded_clause(ctx):
    # 0 is vacuously justified; any n needs 0 among its predecessors
    assert is_admissible((0,), ctx)
    assert is_admissible((0, 3), ctx)
    assert not is_admissible((3,), ctx)
    assert not is_admissible((3, 0), ctx)


def test_admissible_membership_clause():
    from epsengine.language import and_, eq

    ctx = InductiveContext(and_(in_set(Var(0)), eq(Var(1), Var(1))))
    # B(0, n, I) amounts to 0 in I, false over the empty prefix
    assert not is_admissible((0,), ctx)
    assert not is_admissible((1, 0), ctx)
    assert is_admissible((), ctx)


def test_prefix_of_admissible_is_admissible(ctx):
    rng = random.Random(11)
    for _ in range(100):
        p = tuple(rng.sample(range(0, 6), rng.randint(0, 4)))
        if is_admissible(p, ctx):
            for cut in range(len(p)):
                assert is_admissible(p[:cut], ctx)


def test_admissibility_past_an_admitted_prefix_matches_the_full_check(ctx):
    rng = random.Random(13)
    admitted = [(), (0,), (0, 3), (0, 1, 2), (0, 4, 1)]
    assert all(is_admissible(a, ctx) for a in admitted)
    verdicts = set()
    for _ in range(300):
        p = tuple(rng.sample(range(0, 6), rng.randint(0, 4)))
        for a in admitted:
            full = is_admissible(p, ctx)
            assert is_admissible(p, ctx, a) == full, (p, a)
            verdicts.add(full)
    assert verdicts == {True, False}


def test_adding_members_never_falsifies_admissibility(ctx):
    # the clause mentions the set only positively, so enlarging the prefix
    # substitution keeps each justification true
    rng = random.Random(12)
    from epsengine.language import num
    from reference import models

    for _ in range(100):
        p = tuple(rng.sample(range(0, 5), rng.randint(1, 4)))
        for i, n in enumerate(p):
            base = {CanonForm(m): TOP_VAL for m in p[:i]}
            cond = b_formula(ctx, num(0), num(n))
            small = Substitution(base, omega_sym=ctx.omega_sym)
            extra = dict(base)
            extra[CanonForm(5)] = TOP_VAL
            big = Substitution(extra, omega_sym=ctx.omega_sym)
            if models(small, cond):
                assert models(big, cond)


def test_validate_empty(ctx):
    assert validate(HistoricalSubstitution.initial(ctx.omega_sym), ctx) == []


def test_validate_detects_unordered_members(ctx):
    hs = HistoricalSubstitution(members(ctx, 3), p=())
    out = validate(hs, ctx)
    assert any("does not order" in msg for msg in out)


def test_validate_detects_nonnegative_snapshot(ctx):
    snap = Substitution({CanonForm(1): TOP_VAL}, omega_sym=ctx.omega_sym)
    hs = HistoricalSubstitution(members(ctx, 0), p=(0,), v={0: snap})
    out = validate(hs, ctx)
    assert any("non-negative" in msg for msg in out)


def test_validate_detects_v_domain_mismatch(ctx):
    hs = HistoricalSubstitution(members(ctx, 0), p=(0,), v={})
    out = validate(hs, ctx)
    assert any("keyed" in msg for msg in out)


def test_validate_detects_inadmissible_history(ctx):
    empty = Substitution.empty(ctx.omega_sym)
    hs = HistoricalSubstitution(members(ctx, 3), p=(3,), v={3: empty})
    out = validate(hs, ctx)
    assert any("admissible" in msg for msg in out)


def test_validate_accepts_good_history(ctx):
    empty = Substitution.empty(ctx.omega_sym)
    snap = Substitution({ctx.c_n(2): num_val(1)}, omega_sym=ctx.omega_sym)
    sub = members(ctx, 0, 3).with_entry(ctx.c_n(1), UNKNOWN)
    hs = HistoricalSubstitution(sub, p=(0, 3), v={0: empty, 3: snap})
    assert validate(hs, ctx) == []


def test_validate_walks_only_the_snapshots_the_last_valid_state_lacks(ctx):
    """A snapshot the last valid state held too is not walked again; one put
    in its place is, whether it holds a positive or a finite-rank entry."""
    snap = Substitution({ctx.c_n(2): num_val(1)}, omega_sym=ctx.omega_sym)
    last = HistoricalSubstitution(members(ctx, 0), p=(0,), v={0: snap})
    assert validate(last, ctx) == []
    positive = Substitution({CanonForm(1): TOP_VAL}, omega_sym=ctx.omega_sym)
    finite = Substitution({CanonTerm(SYM_R1A, (1,)): num_val(1)}, omega_sym=ctx.omega_sym)
    for bad in (positive, finite):
        hs = HistoricalSubstitution(last.sub, last.p, {0: bad})
        assert any("non-negative" in msg for msg in validate(hs, ctx, last))
        # the same snapshot object, as a state that shares it with a valid
        # one would hold it, is taken as checked
        shared = HistoricalSubstitution(last.sub, last.p, {0: bad})
        assert validate(shared, ctx, hs) == []


def _run_states():
    """(ctx, membership orders) of every state of a run of each sample
    problem and each problem of the acceptance corpus with a clause."""
    import pathlib

    from corpusgen import build_corpus
    from epsengine.problems import parse_problem
    from epsengine.process import run

    root = pathlib.Path(__file__).resolve().parent.parent
    texts = [p.read_text() for p in sorted((root / "problems").glob("*.eps"))]
    texts += [c.text for c in build_corpus()]
    for text in texts:
        problem = parse_problem(text)
        if problem.ctx is not None:
            out = run(problem.crits, problem.ctx, max_steps=10**4)
            yield problem.ctx, [()] + [s.p_after for s in out.steps]


def test_admissibility_matches_the_check_over_fresh_maps_on_every_run_state():
    """Each state's order, tested alone and past the state before it, and
    orders no run makes (each state's reversed and rotated), get the
    verdict of a map built afresh for every member."""
    from reference import fresh_map_is_admissible

    verdicts = {True: 0, False: 0}
    for ctx, orders in _run_states():
        for before, p in zip(orders, orders[1:]):
            assert is_admissible(p, ctx) and fresh_map_is_admissible(p, ctx)
            assert is_admissible(p, ctx, before), (p, before)
            for q in {p[::-1], p[1:] + p[:1]}:
                want = fresh_map_is_admissible(q, ctx)
                assert is_admissible(q, ctx) == want, q
                assert is_admissible(q, ctx, p) == want, (q, p)
                verdicts[want] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def test_a_history_keeps_its_own_copy_of_v(ctx):
    """The constructor copies V: changing the dict it was given afterwards
    leaves the history as it was."""
    empty = Substitution.empty(ctx.omega_sym)
    snap = Substitution({ctx.c_n(2): num_val(1)}, omega_sym=ctx.omega_sym)
    v = {0: empty}
    hs = HistoricalSubstitution(members(ctx, 0), p=(0,), v=v)
    v[0] = snap
    v[3] = empty
    assert dict(hs.v) == {0: empty} and hs.v[0] is empty
    assert validate(hs, ctx) == []


def test_a_step_copies_v_at_most_once_and_shares_it_when_unchanged():
    """Along rebuild_cascade: a step above rank Omega, or at it, that leaves
    P as it was holds the very V of the history it stepped from; one that
    changes P holds a V of its own, and the history it stepped from keeps
    its V unchanged.  A finite-rank step clears the history: it holds the
    one shared empty V, as the initial history does, not a copy of it."""
    from pathlib import Path

    from epsengine.history import EMPTY_V, HistoricalSubstitution as HS
    from epsengine.problems import parse_problem
    from epsengine.process import apply_plan
    from reference import omega_sym, reference_compute_plan

    text = (Path(__file__).parent.parent / "problems" / "rebuild_cascade.eps").read_text()
    p = parse_problem(text)
    hs, cases = HS.initial(omega_sym(p)), set()
    assert hs.v is EMPTY_V
    while (plan := reference_compute_plan(hs, p.crits, p.ctx)) is not None:
        before = dict(hs.v)
        after = apply_plan(hs, plan, p.ctx)
        assert dict(hs.v) == before
        if plan.case == "low":  # the one shared empty V, not a copy
            assert after.p == () and after.v is EMPTY_V
        elif after.p == hs.p:
            assert after.v is hs.v, plan.case
        else:
            assert after.v is not hs.v and set(after.v) == set(after.p)
        cases.add((plan.case, after.p == hs.p))
        hs = after
    assert {("high", True), ("omega-pos", False), ("omega-neg", False)} <= cases
    assert {case for case, _ in cases} >= {"low"}
