"""Fast paths against their slow references.

`compute_plan` analyzes the critical formulas in the order of their rank
bound and stops at the first that cannot win; `h_step` rechecks only what a
step changed; `canon_sexpr` prints a canonical expression from its symbol's
stored text; a `Verdicts` table reuses a verdict while its reads are
unchanged; `truth` runs a compiled closure where the reference reduces
and then evaluates; a compiled template evaluated at a hole stands in for
its instance, and the `correctness` loop for the conjunction of
`correctness_formula`; a step builds its change from its plan,
`serialize` joins rows kept in order, a table that follows the run
trusts the keys no change touched, skips the keys it knows to hold and
walks only the formulas not known to hold, the guard and `--check` visit
only what the step changed, and the goal report evaluates and prints the
template at the witness.  Each is compared with the full computation on
every state reached by the sample problems, the acceptance corpus and
the tiny benchmark families, and on mutations of those states.  The
engine always evaluates through a table; the evaluations without one are
`reference`'s copies (`reference_compute_plan`, `reference_is_solving`,
`reference_is_correct`, `reference_refutes`), and a fresh table
(`table_for`) stands for a step on a state no table followed.
"""

import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import bench_imports
from corpusgen import build_corpus
from epsengine.history import HistoricalSubstitution, validate
from epsengine.language import (
    OMEGA,
    At,
    CanonForm,
    Rank,
    CanonTerm,
    FnApp,
    InSet,
    Not,
    Numeral,
    Or,
    RelAtom,
    SkolemApp,
    Var,
    and_,
    canon_sexpr,
    eq,
    is_formula,
    num,
    or_,
    rank_of,
    skolemize_exists,
    substitute,
    to_sexpr,
)
from epsengine.problems import parse_problem
from epsengine import process, substitution
from epsengine.process import (
    CASE_HIGH,
    CASE_LOW,
    CASE_OMEGA_NEG,
    CASE_OMEGA_POS,
    ProcessInvariantError,
    StepPlan,
    compute_plan,
    h_step,
    is_solving,
    make_inductive_def,
    repair_rank_bound,
    run,
)
from epsengine.substitution import (
    TOP_VAL,
    UNKNOWN,
    RecordingSubstitution,
    Substitution,
    Verdicts,
    compiled,
    correctness,
    is_ci,
    is_correct,
    member_conflict,
    num_val,
    refutes,
    serialize,
    truth,
    value,
)
from genexpr import (
    FIN_SYMS,
    SYM_OMEGA_PLUS,
    SYM_R1A,
    WIDE_SYMS,
    random_formula,
    random_linear_formula,
    random_substitution,
    random_term,
)
from reference import (
    change,
    formula_order,
    correctness_formula,
    domain,
    expand,
    layer_change,
    models,
    omega_sym,
    rank_filter,
    reduce_term,
    reference_analyze,
    reference_compute_plan,
    reference_is_ci,
    reference_is_correct,
    reference_is_solving,
    reference_member_conflict,
    reference_refutes,
    reference_serialize,
    reference_truth,
    reference_witness_line,
    sorted_items,
    stored,
    StoredRecording,
    table_for,
    to_formula,
    to_term,
    v_changes,
)
from test_acceptance import indep_formula

ROOT = Path(__file__).resolve().parent.parent


def all_formula_plan(hs, crs, ctx):
    """The planner before rank-first ordering: analyze every formula."""
    ext = hs.sub
    omega = hs.sub.omega_sym
    best = None
    for i, cf in enumerate(crs):
        pair = reference_analyze(cf, hs, ctx, ext)
        if pair is None:
            continue
        e, v = pair
        r = rank_of(e, omega)
        if best is None or (r, i) < (best[0], best[1]):
            best = (r, i, e, v)
    if best is None:
        return None
    r, i, e, v = best
    if r.is_omega:
        case = CASE_OMEGA_POS if isinstance(e, CanonForm) else CASE_OMEGA_NEG
    else:
        case = CASE_LOW if r < OMEGA else CASE_HIGH
    return StepPlan(cr_index=i, e=e, v=v, rank=r, case=case)


def _tiny_bench_texts():
    with bench_imports():
        import workloads

        return [
            (f"{w}/{p.name}", p.text)
            for w in sorted(workloads.FAMILIES)
            for p in workloads.generate(w, 1, "tiny")
        ]


@pytest.fixture(scope="module")
def runs():
    """(name, problem, states) per problem; states[k + 1] is step k's result,
    taken with a fresh table, so each step guards every pair of its input
    and plans from scratch."""
    texts = [(p.name, p.read_text()) for p in sorted((ROOT / "problems").glob("*.eps"))]
    texts += [(cp.name, cp.text) for cp in build_corpus()]
    texts += _tiny_bench_texts()
    out = []
    for name, text in texts:
        problem = parse_problem(text)
        crs, omega = problem.crits, omega_sym(problem)
        hs = HistoricalSubstitution.initial(omega)
        states = [hs]
        while reference_compute_plan(hs, crs, problem.ctx) is not None:
            fresh = table_for(crs, omega)
            hs, _ = h_step(hs, crs, problem.ctx, len(states) - 1, fresh)
            states.append(hs)
            assert len(states) < 10**4, name
        out.append((name, problem, states))
    return out


def _carried_steps(p):
    """(before, after, record, verdicts) for each step `h_step` takes on
    problem p from the initial state, with one table carried from step to
    step as `run` carries it; the table is the one the step left."""
    hs = HistoricalSubstitution.initial(omega_sym(p))
    verdicts = table_for(p.crits, omega_sym(p))
    solving, k = is_solving(hs.sub, p.crits, verdicts), 0
    while not solving:
        after, record = h_step(hs, p.crits, p.ctx, k, verdicts)
        yield hs, after, record, verdicts
        hs, solving, k = after, record.solving, k + 1


@pytest.fixture(scope="module")
def bench_ladders():
    """(c, problem) for the bench's omega_ladder of c = 3 .. 24 closures,
    seed 1, of which the bench runs c = 3 .. 6.  Each run rolls back once,
    dropping c of its c + 1 members, and adds each of them again."""
    with bench_imports():
        import workloads

        return [
            (c, parse_problem(workloads.omega_ladder(random.Random(1), (c,))[0].text))
            for c in range(3, 25)
        ]


def _ladder_runs(bench_ladders, sizes):
    """(name, problem, states) for the bench ladders of the given sizes, as
    `runs` gives them, the states taken with a carried table."""
    return [
        (f"ladder-{c}", p, [
            HistoricalSubstitution.initial(omega_sym(p)),
            *[after for _, after, _, _ in _carried_steps(p)],
        ])
        for c, p in bench_ladders
        if c in sizes
    ]


def test_canon_sexpr_matches_the_serialized_expression(runs):
    seen = 0
    for _, _, states in runs:
        for hs in states:
            for sub in (hs.sub, *hs.v.values()):
                for c in domain(sub):
                    expr = to_formula(c) if isinstance(c, CanonForm) else to_term(c)
                    assert canon_sexpr(c) == to_sexpr(expr)
                    seen += 1
    assert seen > 1000


def test_states_cover_every_step_case(runs):
    cases = {
        reference_compute_plan(hs, p.crits, p.ctx).case
        for _, p, states in runs
        for hs in states[:-1]
    }
    assert cases == {CASE_LOW, CASE_HIGH, CASE_OMEGA_POS, CASE_OMEGA_NEG}


def test_rank_first_plan_matches_all_formula_plan(runs):
    """The planner on a fresh table and without one; also with the formulas
    reversed, which turns the tie rule around."""
    for name, p, states in runs:
        for crs in (p.crits, p.crits[::-1]):
            for k, hs in enumerate(states):
                want = all_formula_plan(hs, crs, p.ctx)
                fresh = table_for(crs, omega_sym(p))
                assert compute_plan(hs, crs, p.ctx, fresh) == want, f"{name} state {k}"
                assert reference_compute_plan(hs, crs, p.ctx) == want, f"{name} state {k}"


def test_a_run_sorts_its_rank_bounds_once(monkeypatch):
    problem = parse_problem((ROOT / "problems" / "rebuild_cascade.eps").read_text())
    bounds = []
    real_bound = process.repair_rank_bound

    def counted(cf, omega):
        bounds.append(cf)
        return real_bound(cf, omega)

    monkeypatch.setattr(process, "repair_rank_bound", counted)
    outcome = run(problem.crits, problem.ctx, check=True)
    assert outcome.solved and len(outcome.steps) > 10
    assert len(bounds) == len(problem.crits)


def test_closure_witness_repair_loses_the_tie_to_a_lower_index(runs):
    """A closure's bound lies below its rank-Omega repair, so the search
    must go on to formulas bounded at Omega with a lower index."""
    _, p, states = next(r for r in runs if r[0] == "closure_rollback.eps")
    hs = states[4]  # the closure repairs the witness term of member 3
    plan = compute_plan(hs, p.crits, p.ctx, table_for(p.crits, omega_sym(p)))
    assert plan.case == CASE_OMEGA_NEG
    crs = [make_inductive_def(num(1), p.ctx), *p.crits]  # unsatisfied at hs
    plan = compute_plan(hs, crs, p.ctx, table_for(crs, omega_sym(p)))
    assert plan == all_formula_plan(hs, crs, p.ctx)
    assert (plan.cr_index, plan.case) == (0, CASE_OMEGA_POS)


def test_rank_bound_is_a_lower_bound_and_exact_but_for_closure(runs):
    strict = 0
    for name, p, states in runs:
        omega = omega_sym(p)
        for hs in states:
            for cf in p.crits:
                pair = reference_analyze(cf, hs, p.ctx)
                if pair is None:
                    continue
                bound, r = repair_rank_bound(cf, omega), rank_of(pair[0], omega)
                assert bound <= r, name
                if cf.kind != "closure":
                    assert bound == r, name
                strict += bound < r
    assert strict > 0  # some closure repairs its rank-Omega witness term


def test_step_local_verdict_matches_full_guard(runs):
    """The guard's verdict a step leaves in the table, which rechecked only
    the pairs the table could not vouch for, is the table-free guard's over
    every entry on the state the step made; a fresh table holds none."""
    assert Verdicts([]).ci is None
    compared = 0
    for name, p, states in runs:
        verdicts, hs = table_for(p.crits, omega_sym(p)), states[0]
        for k, want in enumerate(states[1:]):
            hs, _ = h_step(hs, p.crits, p.ctx, k, verdicts)
            assert hs == want, f"{name} step {k}"
            assert verdicts.ci == reference_is_ci(hs.sub, p.ctx), f"{name} step {k}"
            compared += 1
    assert compared > 800


def test_step_local_verdict_matches_full_guard_on_the_bench_ladders():
    """On every step of the bench ladders of c = 12 and 24 closures, seed
    1, whose membership layers and rollbacks outgrow the tiny sets: the
    verdict each step leaves in the table is the table-free guard's."""
    with bench_imports():
        import workloads

        ladders = [workloads.omega_ladder(random.Random(1), (c,))[0] for c in (12, 24)]
    for ladder, least in zip(ladders, (299, 1033)):
        p = parse_problem(ladder.text)
        hs = HistoricalSubstitution.initial(p.ctx.omega_sym)
        verdicts = table_for(p.crits, p.ctx.omega_sym)
        solving, k = is_solving(hs.sub, p.crits, verdicts), 0
        while not solving:
            hs, record = h_step(hs, p.crits, p.ctx, k, verdicts)
            assert verdicts.ci is reference_is_ci(hs.sub, p.ctx) is False, (ladder.name, k)
            solving, k = record.solving, k + 1
        assert k == least, ladder.name


def _mutations(sub: Substitution, ctx):
    """One-entry changes that keep every entry below the changed one.

    As in a step, nothing of higher rank than the changed entry may stay,
    so terms are bumped only in the top rank layer, and membership changes
    are made only when nothing sits above Omega.  Yields the kind of change,
    the changed entry and the changed substitution.
    """
    if not len(sub):
        return
    top = max(sub.rank_of(e) for e in domain(sub))
    for e, u in sub.items():
        if isinstance(e, CanonTerm) and u.kind == "num" and sub.rank_of(e) == top:
            kind = "bump-omega" if top.is_omega else "bump-finite"
            yield kind, e, sub.with_entry(e, num_val(u.n + 1))
    if ctx is None or top > OMEGA:
        return
    members = sub.positive_omega_forms()
    for n in members:
        yield "drop-member", CanonForm(n), sub.without(CanonForm(n))
        yield "member-witness", ctx.c_n(n), sub.with_entry(ctx.c_n(n), num_val(1))
    # a member at the value of a valued rank-Omega witness term refutes
    # that term's negated clause instance, an entry the change left alone
    for e, u in sub.items():
        if isinstance(e, CanonTerm) and u.kind == "num" and sub.rank_of(e).is_omega:
            if u.n not in members:
                yield "add-member", CanonForm(u.n), sub.with_entry(CanonForm(u.n), TOP_VAL)


def test_step_local_verdict_on_mutations(runs):
    """The guard on a table that guarded a consistent state and was then
    told a one-entry change, and on a fresh table, against the table-free
    guard.  Dropping a member only undecides entries, so it never yields an
    inconsistent state; adding one is what reaches the rank-Omega layer,
    where it can refute an entry the change left alone."""
    tried: dict[str, int] = {}
    inconsistent: dict[str, int] = {}
    for name, p, states in runs:
        for hs in states[1:]:
            if reference_is_ci(hs.sub, p.ctx):
                continue
            for kind, changed, mutated in _mutations(hs.sub, p.ctx):
                verdict = reference_is_ci(mutated, p.ctx)
                table = Verdicts([])
                assert is_ci(hs.sub, p.ctx, table) is False, (name, kind)
                table.advance(hs.sub, mutated, change(hs.sub, mutated))
                assert is_ci(mutated, p.ctx, table) == verdict, (name, kind)
                assert is_ci(mutated, p.ctx, Verdicts([])) == verdict, (name, kind)
                tried[kind] = tried.get(kind, 0) + 1
                inconsistent[kind] = inconsistent.get(kind, 0) + verdict
                if kind == "add-member" and verdict:
                    assert not reference_refutes(mutated, changed, TOP_VAL, p.ctx)
    assert set(tried) == {
        "bump-finite", "bump-omega", "drop-member", "member-witness", "add-member"
    }
    assert inconsistent["bump-finite"] > 0
    assert inconsistent["drop-member"] == 0
    assert inconsistent["add-member"] > 0
    assert inconsistent["member-witness"] == tried["member-witness"]


def test_h_step_carries_the_verdict_to_the_next_step(monkeypatch):
    problem = parse_problem(
        "".join(f"(crit eps {k} (exists (x) (= x {k})))\n" for k in (1, 2, 3))
    )
    guarded, forced = [], []
    real_guard = process.is_ci

    def guard(sub, ctx, verdicts):
        guarded.append(len(sub))
        return forced[0] if forced else real_guard(sub, ctx, verdicts)

    monkeypatch.setattr(process, "is_ci", guard)
    verdicts = table_for(problem.crits, None)
    hs, _ = h_step(HistoricalSubstitution.initial(), problem.crits, None, 0, verdicts)
    # the hand-built initial state, which the table holds no verdict for,
    # then the state the step made
    assert verdicts.ci is False and guarded == [0, 1]
    forced.append(True)
    hs, _ = h_step(hs, problem.crits, None, 1, verdicts)
    assert verdicts.ci is True and guarded == [0, 1, 2]
    with pytest.raises(ProcessInvariantError, match="inconsistent"):
        h_step(hs, problem.crits, None, 2, verdicts)
    assert guarded == [0, 1, 2]
    # a fresh table holds no verdict on the state, so the guard runs on it
    # and finds it consistent where the carried verdict said otherwise
    forced.clear()
    fresh = table_for(problem.crits, None)
    h_step(hs, problem.crits, None, 2, fresh)
    assert fresh.ci is False and guarded == [0, 1, 2, 2, 3]


def test_verdict_stays_out_of_construction_equality_and_repr(runs):
    """A state is plain data: the guard's verdict lives in the table, for
    the map it follows, and a map it did not follow has none."""
    assert list(HistoricalSubstitution._fields) == ["sub", "p", "v"]
    _, p, states = next(r for r in runs if len(r[2]) > 1)
    verdicts, made = table_for(p.crits, omega_sym(p)), states[0]
    for k in range(len(states) - 1):
        made, _ = h_step(made, p.crits, p.ctx, k, verdicts)
    built = HistoricalSubstitution(made.sub, made.p, dict(made.v))
    assert built == made and repr(built) == repr(made)
    verdicts.follow(built.sub)  # the same map
    assert verdicts.ci is False
    verdicts.follow(Substitution(dict(made.sub.items()), omega_sym=omega_sym(p)))
    assert verdicts.ci is None and not verdicts.known


# ---------------------------------------------------------------------------
# The verdict table


def _evaluations(name, p, sub):
    """(key, view, formula) for each evaluation a run makes of a state:
    satisfaction and correctness, on the map; the guard reads refutation
    off the correctness key.  Keys carry the problem's name, so one table
    can serve states of unrelated problems."""
    for i, cf in enumerate(p.crits):
        yield (name, i), sub, lambda cf=cf: cf.formula
    for e, u in sub.items():
        yield (name, "correct", e, u), sub, (
            lambda e=e, u=u: correctness_formula(e, u, p.ctx)
        )


def _evaluator(formula):
    """The table's evaluator for a formula thunk."""
    return lambda view: truth(formula(), view)


def test_verdict_table_in_run_order_matches_plain_evaluation(runs, bench_ladders):
    """One table per problem, asked about every state in run order, as
    plain evaluation answers; on the bench ladders of c = 3 .. 6, 12 and 24
    closures too, where a rollback brings back the reads of versions the
    table kept."""
    ladders = _ladder_runs(bench_ladders, (3, 4, 5, 6, 12, 24))
    outcomes = set()
    for name, p, states in [*runs, *ladders]:
        verdicts = table_for(p.crits, omega_sym(p))
        for k, hs in enumerate(states):
            sub, where = hs.sub, (name, k)
            for key, view, formula in _evaluations(name, p, sub):
                verdict = verdicts.truth(key, view, _evaluator(formula))
                assert verdict == truth(formula(), view), (where, key[1:])
                outcomes.add((key[1] if len(key) > 2 else "sat", verdict is True))
            assert compute_plan(hs, p.crits, p.ctx, verdicts) == (
                reference_compute_plan(hs, p.crits, p.ctx)
            ), where
            assert is_solving(sub, p.crits, verdicts) == reference_is_solving(sub, p.crits)
            assert is_correct(sub, p.ctx, verdicts) == reference_is_correct(sub, p.ctx)
            for e, u in sub.items():
                assert refutes(sub, e, u, p.ctx, verdicts) == reference_refutes(
                    sub, e, u, p.ctx
                ), where
    # reached states are correct and consistent; falsity comes from mutations
    assert outcomes == {("sat", True), ("sat", False), ("correct", True)}


def test_a_table_covers_its_formulas(monkeypatch):
    """A table has no default order, and the one `run` builds has one place
    (rank bound, index) per formula index, in the planner's order."""
    with pytest.raises(TypeError):
        Verdicts()
    made = []

    class Kept(Verdicts):
        __slots__ = ()

        def __init__(self, order):
            super().__init__(order)
            made.append(self)

    monkeypatch.setattr(process, "Verdicts", Kept)
    for path in sorted((ROOT / "problems").glob("*.eps")):
        p = parse_problem(path.read_text())
        made.clear()
        assert run(p.crits, p.ctx).solved, path.name
        (table,) = made
        assert sorted(table.order) == list(range(len(p.crits))), path.name
        assert list(table.order.values()) == formula_order(p.crits, omega_sym(p))


def test_one_verdict_table_across_shuffled_unrelated_states(runs):
    pairs = [(name, p, hs.sub) for name, p, states in runs for hs in states]
    random.Random(5).shuffle(pairs)
    verdicts = Verdicts([])  # keys name their problem: no formula's index
    for name, p, sub in pairs:
        for key, view, formula in _evaluations(name, p, sub):
            assert verdicts.truth(key, view, _evaluator(formula)) == truth(
                formula(), view
            ), key


def _read_mutations(view, reads):
    """Views that differ from view in one entry the evaluation read: the
    first stored one revalued, and removed, and the first absent one added
    with a value."""
    stored = [(e, u) for e, u in reads.items() if u is not None]
    absent = [e for e, u in reads.items() if u is None]
    if absent:
        e = absent[0]
        yield "add", view.with_entry(
            e, num_val(1) if isinstance(e, CanonTerm) else TOP_VAL
        )
    if stored:
        e, u = stored[0]
        if isinstance(e, CanonTerm):
            v = num_val(u.n + 1) if u.kind == "num" else num_val(1)
        else:
            v = UNKNOWN if u.kind == "top" else TOP_VAL
        yield "revalue", view.with_entry(e, v)
        yield "remove", view.without(e)


def test_a_changed_read_forces_a_new_evaluation(runs):
    built = {"add": 0, "revalue": 0, "remove": 0}
    for name, p, states in runs:
        for hs in states[1:]:
            for key, view, formula in _evaluations(name, p, hs.sub):
                phi = formula()
                recorder = RecordingSubstitution(view)
                models(recorder, phi)
                for kind, mutated in _read_mutations(view, recorder.reads):
                    calls = []

                    def counted(view):
                        calls.append(1)
                        return truth(phi, view)

                    verdicts = Verdicts([])
                    verdicts.truth(key, view, counted)
                    verdicts.truth(key, view, counted)  # same reads: kept
                    assert len(calls) == 1, (name, key[1:])
                    verdict = verdicts.truth(key, mutated, counted)
                    assert len(calls) == 2, (name, kind, key[1:])
                    assert verdict == truth(phi, mutated), (name, kind)
                    built[kind] += 1
    assert min(built.values()) > 100


def test_a_key_brings_back_a_kept_version_until_it_is_dropped():
    """One key whose reads alternate A, B, A, C, D, A: a selector entry
    names the entry the evaluation reads next.  A is brought back after B
    without an evaluation, and evaluated again once C and D have pushed it
    out of the KEPT earlier versions; after each drop the reverse index
    holds exactly the kept versions' reads, and `_forget` leaves no reader
    of the key."""
    assert substitution.KEPT == 2
    selector = CanonTerm(SYM_R1A, (0,))
    key = ("correct", CanonTerm(SYM_R1A, (99,)), num_val(1))  # not in any map
    calls = []

    def evaluate(view):
        calls.append(1)
        k = view.get(selector).n
        return view.get(CanonTerm(SYM_R1A, (k,))).n == k

    def state(k):  # the selector names entry k, which holds k
        return Substitution(
            {selector: num_val(k), CanonTerm(SYM_R1A, (k,)): num_val(k)}
        )

    def watched():
        readers = verdicts._readers
        assert all(readers.values())
        return {e for e, keys in readers.items() if key in keys}

    verdicts = Verdicts([])
    evaluated = []
    for k in (1, 2, 1, 3, 4, 1):  # A, B, A, C, D, A
        calls.clear()
        assert verdicts.truth(key, state(k), evaluate) is True
        evaluated.append(len(calls))
        kept = verdicts._versions.get(key, (verdicts._memo[key],))
        assert len(kept) <= substitution.KEPT + 1
        assert verdicts._memo[key] in kept
        assert watched() == {e for version in kept for e in version[1]}
    assert evaluated == [1, 1, 0, 1, 1, 1]
    for filler in range(64):  # int keys, which `_forget` keeps
        verdicts.truth(filler, state(1), lambda view: True)
    verdicts._forget({})
    assert key not in verdicts._memo and key not in verdicts._versions
    assert watched() == set() and all(verdicts._readers.values())
    assert len(verdicts._memo) == 64


def test_kept_versions_spare_the_ladder_evaluations(monkeypatch):
    """Counted, not timed: `run` on the bench's omega_ladder, seed 1,
    evaluates at most 330 times (formula and correctness keys alike), where
    a table without kept versions evaluated 822 times; on eps_chain, where
    nothing is read again, it still evaluates 360 times."""
    made = []

    class Counted(RecordingSubstitution):
        __slots__ = ()

        def __init__(self, base):
            made.append(1)
            super().__init__(base)

    monkeypatch.setattr(substitution, "RecordingSubstitution", Counted)
    with bench_imports():
        import workloads

        families = {w: workloads.generate(w, 1) for w in ("omega_ladder", "eps_chain")}
    counts = {}
    for w, bench in families.items():
        made.clear()
        for problem in bench:
            p = parse_problem(problem.text)
            assert run(p.crits, p.ctx).solved, problem.name
        counts[w] = len(made)
    assert counts["omega_ladder"] <= 330 and counts["eps_chain"] == 360, counts


# ---------------------------------------------------------------------------
# The evaluator against the tree evaluator


class LookupLog:
    """Answers as view does and logs every lookup, repeats included."""

    def __init__(self, view):
        self.view = view
        self.lookups = []

    def get(self, e):
        self.lookups.append(e)
        return self.view.get(e)


def _agree(phi, view):
    """truth and reduction-then-evaluation give one three-valued verdict
    and make the same lookups in the same order; returns the verdict."""
    mine, theirs = LookupLog(view), LookupLog(view)
    verdict = truth(phi, mine)
    assert verdict == reference_truth(phi, theirs), to_sexpr(phi)
    assert mine.lookups == theirs.lookups, to_sexpr(phi)
    return verdict


def _indep_view(sub):
    """The independent evaluator's assignment and members for sub's
    standard extension."""
    assign = {
        (e.sym, e.args): u.n for e, u in sub.items() if isinstance(e, CanonTerm)
    }
    return assign, set(sub.positive_omega_forms())


def test_truth_matches_the_reference_on_every_state(runs):
    verdicts = set()
    for name, p, states in runs:
        for hs in states:
            sub = hs.sub
            assign, members = _indep_view(sub)
            formulas = [cf.formula for cf in p.crits]
            formulas += [correctness_formula(e, u, p.ctx) for e, u in sub.items()]
            for phi in formulas:
                verdicts.add(("stored", _agree(phi, stored(sub))))
                holds = _agree(phi, sub)
                assert holds == indep_formula(phi, assign, members), name
                verdicts.add(("extension", holds))
    assert {("stored", None), ("extension", True), ("extension", False)} <= verdicts


def test_an_axiom_reads_what_its_instance_reads(runs):
    """Each `At` node of every axiom, and the whole axiom, against the tree
    `substitute` builds for it, on every reached state's stored map and
    standard extension: the same verdict and the same set of lookups (not
    their order, nor the repeats of arg's at each hole), and the same
    text."""
    nodes, verdicts = set(), set()
    # matrices without the hole, whose instances are the matrices themselves
    # and read nothing of the term
    p = parse_problem(
        "(clause (y x X) (or (not (< y x)) (in y X)))\n"
        "(crit eps (+ 1 1) (exists (x) (< 0 (+ 1 1))))\n"
        "(crit ind (x) (in 1 I) 3)\n(crit closure (z) (in 2 I))\n(crit inddef 1)\n"
    )
    hole_free = [HistoricalSubstitution.initial(p.ctx.omega_sym)]  # solving
    for name, p, states in [*runs, ("hole-free", p, hole_free)]:
        pairs = [(cf.formula, expand(cf.formula)) for cf in p.crits]
        pairs += [
            (e, substitute(e.template, {0: e.arg}))
            for cf in p.crits
            for e in _subterms(cf.formula)
            if isinstance(e, At)
        ]
        for phi, instance in pairs:
            assert to_sexpr(phi) == to_sexpr(instance), name
            nodes.add(id(phi))
        for hs in states:
            for view in (stored(hs.sub), hs.sub):
                for phi, instance in pairs:
                    mine, theirs = LookupLog(view), LookupLog(view)
                    verdict = truth(phi, mine)
                    assert verdict == truth(instance, theirs), (name, to_sexpr(phi))
                    assert set(mine.lookups) == set(theirs.lookups), (name, to_sexpr(phi))
                    verdicts.add((view is hs.sub, verdict))
    assert len(nodes) > 2000
    assert verdicts == {
        (False, True), (False, False), (False, None), (True, True), (True, False)
    }


def test_truth_matches_the_reference_on_random_formulas(ctx):
    rng = random.Random(2024)
    syms = FIN_SYMS + [SYM_OMEGA_PLUS]
    open_atom = eq(Var(0), num(1))
    verdicts = set()
    for _ in range(3000):
        sub = random_substitution(rng, ctx, n_entries=rng.randint(0, 8), include_omega=True)
        phi = random_formula(rng, syms, depth=4, allow_inset=True)
        verdicts.add(_agree(phi, stored(sub)))
        assert _agree(phi, sub) == indep_formula(phi, *_indep_view(sub))
        # a decided side beside an undecided one leaves the whole undecided
        for op in (and_, or_):
            for mixed in (op(phi, open_atom), op(open_atom, phi)):
                assert _agree(mixed, stored(sub)) is None
                assert _agree(mixed, sub) is None
    assert verdicts == {True, False, None}


# ---------------------------------------------------------------------------
# The compiled evaluator at a hole, and the minimality loop


def _agree_at(template, env, view):
    """template evaluated at env against the instance that substitution
    builds: one value and the same lookups in the same order."""
    mine, theirs = LookupLog(view), LookupLog(view)
    instance = substitute(template, {i: num(v) for i, v in enumerate(env)})
    got = compiled(template)(env, mine)
    want = (truth if is_formula(template) else value)(instance, theirs)
    where = (to_sexpr(template), env)
    assert (got, type(got)) == (want, type(want)), where
    assert mine.lookups == theirs.lookups, where
    return got


def _hole_templates(p):
    """The one-hole templates analysis and correctness evaluate at a hole."""
    for cf in p.crits:
        if cf.kind in ("epsilon", "induction", "closure"):
            yield cf.phi
        if cf.kind == "closure":
            yield cf.a_phi
            yield from cf.wit_args
    if p.ctx is not None:
        yield p.ctx.a_template


def _index_envs(p, sub):
    """(symbol, env) pairs for the index formulas of p's witness symbols
    and of sub's entries: each entry's arguments with the hole at and
    around its value, and zero arguments with the hole at 0 and 1."""
    syms = {cf.sym for cf in p.crits if hasattr(cf, "sym")}
    syms |= {cf.premise_sym for cf in p.crits if cf.kind == "closure"}
    syms |= {cf.wit_sym for cf in p.crits if cf.kind == "closure"}
    if p.ctx is not None:
        syms.add(p.ctx.omega_sym)
    for e, u in sub.items():
        if isinstance(e, CanonTerm):
            syms.add(e.sym)
            n = u.n if u.kind == "num" else 0
            for k in {0, n - 1, n, n + 1} - {-1}:
                yield e.sym, (k, *e.args)
    for sym in syms:
        for k in (0, 1):
            yield sym, (k,) + (0,) * sym.arity


def test_compiled_templates_at_a_hole_match_their_instances(runs):
    verdicts, checked = set(), 0
    for name, p, states in runs:
        for hs in states:
            sub = hs.sub
            for view, kind in ((stored(sub), "stored"), (sub, "extension")):
                for template in _hole_templates(p):
                    for k in {0, 1, 2, *hs.p}:
                        got = _agree_at(template, (k,), view)
                        if is_formula(template):
                            verdicts.add((kind, got))
                        checked += 1
                for sym, env in _index_envs(p, sub):
                    verdicts.add((kind, _agree_at(sym.index_formula, env, view)))
                    checked += 1
    assert checked > 10000
    assert {("stored", None), ("extension", True), ("extension", False)} <= verdicts


def _subterms(e):
    """e and every node below it."""
    stack = [e]
    while stack:
        e = stack.pop()
        stack.extend(e.kids)
        yield e


def _reference_at(template, env, view):
    """The reference's value of template at env: its instance there,
    reduced and evaluated, where a variable past env's end stays a variable
    and leaves what holds it undecided."""
    instance = substitute(template, {i: num(v) for i, v in enumerate(env)})
    if is_formula(instance):
        return reference_truth(instance, view)
    t = reduce_term(instance, view)
    return t.value if isinstance(t, Numeral) else None


def _fused_shapes(e):
    """The shapes in e that the compiler fuses or reads in place."""
    shapes = set()
    for e in _subterms(e):
        if isinstance(e, Or) and isinstance(e.left, Not):
            shapes.add("implication")
        if isinstance(e, Not) and isinstance(e.body, Or) and isinstance(e.body.left, Not):
            shapes.add("negated implication")
        if isinstance(e, (RelAtom, FnApp)):
            for side, a in zip(("left", "right"), e.args):
                if isinstance(a, (Var, Numeral)):
                    shapes.add((e.head, side, type(a).__name__))
        if isinstance(e, SkolemApp):
            numerals = all(isinstance(a, Numeral) for a in e.args)
            shapes.add(("skolem", len(e.args), "numerals" if numerals else "mixed"))
        if isinstance(e, InSet):
            leaf = isinstance(e.arg, (Var, Numeral))
            shapes.add(("in", type(e.arg).__name__ if leaf else "term"))
    return shapes


def test_fused_shapes_match_the_reference_on_random_templates(ctx):
    """Random templates with every fused shape, at their full environment
    and at shorter ones, on the stored map and its standard extension: the
    compiled closure gives the reference's value, of its type, after the
    same lookups in the same order."""
    rng = random.Random(15)
    syms = FIN_SYMS + WIDE_SYMS + [SYM_OMEGA_PLUS]
    shapes, seen = set(), set()
    for _ in range(3000):
        sub = random_substitution(
            rng, ctx, rng.randint(0, 10), include_omega=True, extra_syms=WIDE_SYMS
        )
        nvars = rng.randint(0, 3)
        if rng.random() < 0.75:
            template = random_formula(rng, syms, 4, allow_inset=True, nvars=nvars)
        else:
            template = random_term(rng, syms, 3, nvars=nvars)
        shapes |= _fused_shapes(template)
        full = tuple(rng.randint(0, 4) for _ in range(nvars))
        for env in {full, full[: rng.randint(0, nvars)]}:
            for view, kind in ((stored(sub), "stored"), (sub, "extension")):
                mine, theirs = LookupLog(view), LookupLog(view)
                got = compiled(template)(env, mine)
                want = _reference_at(template, env, theirs)
                where = (to_sexpr(template), env, kind)
                assert (got, type(got)) == (want, type(want)), where
                assert mine.lookups == theirs.lookups, where
                seen.add((kind, len(env) < nvars, type(got).__name__))
    operands = {
        (head, side, leaf)
        for head in ("=", "<", "+", "*")
        for side in ("left", "right")
        for leaf in ("Var", "Numeral")
    }
    assert shapes >= operands | {
        "implication",
        "negated implication",
        ("s", "left", "Var"),
        *[("skolem", k, m) for k in (1, 2, 3) for m in ("numerals", "mixed")],
        ("in", "Numeral"),
        ("in", "Var"),
        ("in", "term"),
    }
    # the standard extension decides every template at its full environment
    assert seen == {
        (kind, short, verdict)
        for kind in ("stored", "extension")
        for short in (False, True)
        for verdict in ("bool", "int", "NoneType")
    } - {("extension", False, "NoneType")}


def _pairs(sub, ctx):
    """Each entry of sub; each term revalued below and above its value, so
    that heads and instances below fail in turn; and, for each member, its
    rank-Omega witness term valued."""
    for e, u in sub.items():
        yield e, u
        if isinstance(e, CanonTerm):
            n = u.n if u.kind == "num" else 0
            for m in {1, n - 1, n + 1, n + 2} - {n, 0, -1}:
                yield e, num_val(m)
        elif ctx is not None:
            yield ctx.c_n(e.n), num_val(1)


def _agree_correct(e, u, view, ctx):
    """The minimality loop against the condition's formula: one verdict and
    the same lookups in the same order."""
    mine, theirs = LookupLog(view), LookupLog(view)
    got = correctness(e, u, mine, ctx)
    assert got == truth(correctness_formula(e, u, ctx), theirs), (e, u)
    assert mine.lookups == theirs.lookups, (e, u)
    return got


def test_minimality_loop_matches_the_correctness_formula(runs):
    verdicts = set()
    for name, p, states in runs:
        for hs in states:
            for e, u in _pairs(hs.sub, p.ctx):
                recorder = StoredRecording(hs.sub)
                correctness(e, u, recorder, p.ctx)
                present = [d for d, w in recorder.reads.items() if w is not None]
                # a read removed leaves the condition undecided on the map
                subs = [hs.sub] + [hs.sub.without(d) for d in present[:1] + present[-1:]]
                for sub in subs:
                    got = _agree_correct(e, u, stored(sub), p.ctx)
                    fresh = Verdicts([])
                    assert refutes(sub, e, u, p.ctx, fresh) == (got is False), name
                    verdicts.add(("stored", got))
                    verdicts.add(("extension", _agree_correct(e, u, sub, p.ctx)))
    assert verdicts == {
        ("stored", True), ("stored", False), ("stored", None),
        ("extension", True), ("extension", False),
    }


def _stored_verdict_agrees(e, u, sub, ctx):
    """The lemma `refutes` rests on, for the pair (e, u) on sub: the stored
    entries' verdict is the standard extension's when every lookup that
    evaluation made found a stored entry, and undecided otherwise; and
    `refutes` on a fresh table says the stored entries decide it false
    exactly then.  Returns the extension's verdict and whether every
    lookup found a stored entry."""
    recorder = RecordingSubstitution(sub)
    verdict = correctness(e, u, recorder, ctx)
    every_read_stored = None not in recorder.reads.values()
    got = correctness(e, u, stored(sub), ctx)
    assert got == (verdict if every_read_stored else None), (e, u, serialize(sub))
    assert refutes(sub, e, u, ctx, Verdicts([])) == (got is False), (e, u)
    return verdict, every_read_stored


def _layered(rng, sub, upper, ctx):
    """sub with the membership atom and each one-argument hole term at
    every w up to upper stored as top, a numeral or ?, or left absent."""
    absent = rng.choice([0.0, 0.05, 0.3])
    entries = dict(sub.items())
    for w in range(upper + 1):
        choices = [(CanonForm(w), (TOP_VAL, UNKNOWN))]
        choices += [
            (CanonTerm(s, (w,)), (num_val(rng.randint(1, 5)), UNKNOWN))
            for s in FIN_SYMS
            if s.arity == 1
        ]
        for d, values in choices:
            if rng.random() >= absent:
                entries[d] = rng.choice(values)
    return Substitution(entries, omega_sym=ctx.omega_sym)


def test_the_stored_verdict_is_the_extensions_where_every_read_is_stored(runs, ctx):
    """Random one-hole formulas with membership atoms and Skolem
    applications at the hole, as the index formulas of terms valued below
    and above the solver's least bound, and the membership and rank-Omega
    conditions, on maps holding top, ? and absent entries; then every pair
    of every reached state, revalued as `_pairs` does."""
    rng = random.Random(27)
    seen = set()
    for _ in range(1500):
        phi = random_linear_formula(rng, FIN_SYMS, rng.randint(0, 3), 2, True)
        upper = rng.randint(1, 20)
        sub = _layered(rng, random_substitution(rng, ctx, 6, include_omega=True), upper, ctx)
        sym, args = skolemize_exists(phi)
        e = CanonTerm(sym, tuple(compiled(a)((0, rng.randint(0, 4)), sub) for a in args))
        n = rng.randint(0, upper)
        for pair in ((e, num_val(rng.randint(1, upper))), (CanonForm(n), TOP_VAL)):
            seen.add(("random", *_stored_verdict_agrees(*pair, sub, ctx)))
        seen.add(("random", *_stored_verdict_agrees(ctx.c_n(n), num_val(1), sub, ctx)))
    for name, p, states in runs:
        for hs in states:
            for e, u in _pairs(hs.sub, p.ctx):
                seen.add(("reached", *_stored_verdict_agrees(e, u, hs.sub, p.ctx)))
    # both verdicts of the extension, with every read stored and without
    assert seen >= {
        (where, verdict, every_read_stored)
        for where in ("random", "reached")
        for verdict in (True, False)
        for every_read_stored in (True, False)
    }


def test_a_dropped_problem_frees_its_compiled_formulas():
    problem = parse_problem((ROOT / "problems" / "closure_rollback.eps").read_text())
    formulas = [cf.formula for cf in problem.crits]
    assert all(phi._code is None for phi in formulas)  # nothing compiled at parse
    assert run(problem.crits, problem.ctx, check=True).solved
    assert all(phi._code is not None for phi in formulas)
    refs = [weakref.ref(phi) for phi in formulas]
    del problem, formulas
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_dropped_problem_frees_the_symbols_its_prebuilt_keys_name():
    """A Skolem application over numerals keeps its key in its closure; the
    key must not keep the symbol alive once the problem is gone.  The
    clause and the target are this test's own, so no other problem shares
    their symbols."""
    problem = parse_problem(
        "(clause (y x X) (or (not (< (* y 3) (+ x 7))) (in y X)))\n"
        "(crit inddef 5)\n(crit closure (z) (< (* z 3) 11))\n"
    )
    apps = [
        e
        for cf in problem.crits
        for e in _subterms(cf.formula)
        if isinstance(e, SkolemApp)
    ]
    assert any(all(isinstance(a, Numeral) for a in e.args) for e in apps)
    assert run(problem.crits, problem.ctx, check=True).solved
    refs = [weakref.ref(e.sym) for e in apps]
    del problem, apps
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# ---------------------------------------------------------------------------
# Ordered rows, the change set, the followed table and what it knows


def _brute_change(before, after):
    """The expressions whose stored value differs, and the string-map diff
    of the step record's added and removed entries."""
    exprs = {
        e
        for e in domain(before) | domain(after)
        if before.raw(e) != after.raw(e)
    }
    b = {canon_sexpr(e): str(u) for e, u in before.items()}
    a = {canon_sexpr(e): str(u) for e, u in after.items()}
    added = sorted(f"({k} {v})" for k, v in a.items() if b.get(k) != v)
    removed = sorted(f"({k} {v})" for k, v in b.items() if a.get(k) != v)
    return exprs, (tuple(added), tuple(removed))


def _step_pairs(runs):
    """(name, p, before, after) for every step of every run, and for every
    one-entry mutation of a reached state."""
    for name, p, states in runs:
        for before, after in zip(states, states[1:]):
            yield name, p, before.sub, after.sub
        for hs in states[1:]:
            for _, _, mutated in _mutations(hs.sub, p.ctx):
                yield name, p, hs.sub, mutated


def test_change_set_is_the_symmetric_difference_of_the_maps(runs):
    kinds = set()
    for name, p, before, after in _step_pairs(runs):
        delta = change(before, after)
        exprs, diff = _brute_change(before, after)
        assert {r[2] for r in delta.rows + delta.gone} == exprs, name
        assert (delta.added, delta.removed) == diff, name
        assert [(r[2], r[3]) for r in delta.rows] == [
            (e, u) for e, u in sorted_items(after) if before.raw(e) != u
        ], name
        assert delta.omega == any(after.rank_of(e).is_omega for e in exprs), name
        kinds.add((bool(delta.added), bool(delta.removed), delta.omega))
    assert kinds >= {(True, False, False), (True, True, True), (False, True, True)}


def test_serialize_matches_the_sorting_reference(runs):
    rng = random.Random(9)
    seen = 0
    for name, p, states in runs:
        for hs in states:
            for sub in (hs.sub, *hs.v.values()):
                assert serialize(sub) == reference_serialize(sub), name
                items = list(sub.items())
                rng.shuffle(items)
                rebuilt = Substitution(dict(items), omega_sym=sub.omega_sym)
                assert serialize(rebuilt) == serialize(sub), name
                assert sorted_items(rebuilt) == sorted_items(sub), name
                seen += 1
        for _, _, mutated in _mutations(states[-1].sub, p.ctx):
            assert serialize(mutated) == reference_serialize(mutated), name
    assert seen > 1000


def test_rank_filters_are_slices_of_the_ordered_rows(runs):
    """The rank cut a low or high step makes, against the reference filter,
    at every rank of every reached state and at the ranks just above them,
    where no entry sits."""
    probes = {Rank.fin(0), Rank.fin(1), OMEGA, Rank.omega_plus(0)}
    seen = 0
    for name, p, states in runs:
        for hs in states:
            sub = hs.sub
            ranks = {sub.rank_of(e) for e in domain(sub)}
            ranks |= {Rank(r.kind, r.n + 1) for r in ranks if not r.is_omega}
            for r in ranks | probes:
                got, want = sub.up_to(r), rank_filter(sub, "<=", r)
                assert got._rows == want._rows, (name, str(r))
                assert dict(got.items()) == dict(want.items()), (name, str(r))
                assert serialize(got) == reference_serialize(got), (name, str(r))
                seen += 1
    assert seen > 5000


def _table_key_evaluator(p, sub, key):
    """The view and evaluator a run's table uses under key."""
    if type(key) is int:
        return sub, lambda v: truth(p.crits[key].formula, v)
    _, e, u = key
    return sub, lambda v: correctness(e, u, v, p.ctx)


class ByReads(Verdicts):
    """A table never told a step's change: it meets each new state as one
    it did not follow, so it validates every stored verdict by its reads."""

    __slots__ = ()

    def advance(self, before, after, delta):
        self.follow(after)


def _followed_run(p, followed, by_reads, check_step):
    """Step p from the initial state with the followed table and, apart,
    with by_reads.  Both runs must take the same steps; check_step(hs)
    runs after each."""
    hs = HistoricalSubstitution.initial(omega_sym(p))
    other = hs
    solving = is_solving(hs.sub, p.crits, followed)
    assert solving == is_solving(other.sub, p.crits, by_reads)
    k = 0
    while not solving:
        plan = compute_plan(hs, p.crits, p.ctx, followed)
        assert plan == reference_compute_plan(hs, p.crits, p.ctx)
        hs, record = h_step(hs, p.crits, p.ctx, k, verdicts=followed)
        other, other_record = h_step(other, p.crits, p.ctx, k, verdicts=by_reads)
        assert record == other_record
        is_correct(hs.sub, p.ctx, followed)
        check_step(hs)
        solving, k = record.solving, k + 1
        assert k < 10**4


def test_followed_table_agrees_with_validation_by_reads(runs):
    """Along every run: each verdict of the followed table is the one a
    table validating by reads gives, every key it knows to hold (formula
    and correctness keys alike) holds when evaluated from scratch, and the
    plan is the plan computed without a table.  `h_step` compares the two
    runs record for record."""
    stats = {"current": 0, "known": 0}
    kinds = set()
    for name, p, _ in runs:
        order = formula_order(p.crits, omega_sym(p))
        followed, by_reads = Verdicts(order), ByReads(order)

        def check_step(hs):
            sub = hs.sub
            known = followed.follow(sub)
            assert known <= followed._current, name
            for key in known:
                view, evaluate = _table_key_evaluator(p, sub, key)
                assert evaluate(view) is True, (name, key)
                kinds.add(key if type(key) is int else key[0])
                stats["known"] += 1
            for key in list(followed._memo):
                view, evaluate = _table_key_evaluator(p, sub, key)
                stats["current"] += key in followed._current
                want = by_reads.truth(key, view, evaluate)
                assert followed.truth(key, view, evaluate) == want, (name, key)
                assert want == evaluate(view), (name, key)

        _followed_run(p, followed, by_reads, check_step)
    assert min(stats.values()) > 1000
    assert "correct" in kinds and 0 in kinds


def test_table_forgets_what_it_knows_on_a_state_it_did_not_follow(runs):
    """One table over each problem's states in shuffled order, never
    advanced: what it knows must not carry over from one state to another."""
    rng = random.Random(11)
    for name, p, states in runs:
        verdicts = table_for(p.crits, omega_sym(p))
        order = list(states) * 2
        rng.shuffle(order)
        for hs in order:
            assert is_solving(hs.sub, p.crits, verdicts) == reference_is_solving(
                hs.sub, p.crits
            ), name
            assert compute_plan(hs, p.crits, p.ctx, verdicts) == (
                reference_compute_plan(hs, p.crits, p.ctx)
            ), name
            assert is_correct(hs.sub, p.ctx, verdicts), name


def _counted_correctness(monkeypatch) -> list:
    """Count the engine's calls of `correctness` for the rest of the test,
    one item a call."""
    calls = []
    real_correctness = substitution.correctness

    def counted(*args):
        calls.append(1)
        return real_correctness(*args)

    monkeypatch.setattr(substitution, "correctness", counted)
    return calls


def test_followed_table_after_a_mutation_knows_only_what_holds(runs, monkeypatch):
    """A table that has evaluated everything on a reached state, advanced
    by the change of a one-entry mutation, answers `is_correct` and
    `refutes` as the evaluation without a table does, and every key it
    still knows to hold holds from scratch.  Some mutated states are not
    correct, so a table that kept a stale correctness key would say they
    are.  `refutes` is asked first, as the guard does in a checked run, so
    `is_correct` finds every verdict it needs in the table and evaluates
    no condition again."""
    calls = _counted_correctness(monkeypatch)
    incorrect, refuted = 0, 0
    for name, p, states in runs:
        for hs in states[1:]:
            for kind, _, mutated in _mutations(hs.sub, p.ctx):
                verdicts = table_for(p.crits, omega_sym(p))
                assert is_correct(hs.sub, p.ctx, verdicts), name
                for e, u in hs.sub.items():
                    refutes(hs.sub, e, u, p.ctx, verdicts)
                is_solving(hs.sub, p.crits, verdicts)
                verdicts.advance(hs.sub, mutated, change(hs.sub, mutated))
                for key in verdicts.follow(mutated):
                    view, evaluate = _table_key_evaluator(p, mutated, key)
                    assert evaluate(view) is True, (name, kind, key)
                for e, u in mutated.items():
                    got = refutes(mutated, e, u, p.ctx, verdicts)
                    assert got == reference_refutes(mutated, e, u, p.ctx), (name, kind, e)
                    refuted += got
                want = reference_is_correct(mutated, p.ctx)
                calls.clear()
                assert is_correct(mutated, p.ctx, verdicts) == want, (name, kind)
                assert not calls, (name, kind)
                incorrect += not want
    assert incorrect > 0 and refuted > 0


def test_a_step_looks_up_a_constant_number_of_verdicts(monkeypatch):
    """Counted, not timed: a chain of n eps axioms takes n steps, and each
    step asks the table the same number of times whatever n is, where a
    table that re-read every formula would ask about O(n) per step; with
    check, `is_correct` asks only about the entry the step added."""
    calls = []
    real_truth = Verdicts.truth

    def counted(self, *args):
        calls.append(1)
        return real_truth(self, *args)

    monkeypatch.setattr(Verdicts, "truth", counted)
    for check, bound in ((False, 4), (True, 5)):
        per_step = set()
        for n in (32, 64, 128):
            problem = parse_problem(
                "".join(
                    f"(crit eps {k} (exists (x) (= x {k})))\n" for k in range(1, n + 1)
                )
            )
            calls.clear()
            outcome = run(problem.crits, problem.ctx, check=check)
            assert outcome.solved and len(outcome.steps) == n
            per_step.add(len(calls) / n)
        assert len(per_step) == 1 and per_step.pop() <= bound, check


def test_a_ladder_step_refutes_a_constant_number_of_pairs(monkeypatch):
    """Counted, not timed: on the bench ladders of c = 12 and 48 closures,
    where rank-Omega steps and rollbacks make up most of the run, the guard
    asks for at most two refutations a step on average, where rechecking
    the whole membership layer asked for more the larger the layer; a run
    that asked for none would mean the count missed the guard."""
    with bench_imports():
        import workloads

        ladders = [workloads.omega_ladder(random.Random(1), (c,))[0] for c in (12, 48)]
    calls = []
    real_refutes = substitution.refutes

    def counted(*args):
        calls.append(1)
        return real_refutes(*args)

    monkeypatch.setattr(substitution, "refutes", counted)
    for ladder in ladders:
        problem = parse_problem(ladder.text)
        calls.clear()
        outcome = run(problem.crits, problem.ctx)
        assert outcome.solved and len(outcome.steps) > 200
        assert len(outcome.steps) <= len(calls) <= 2 * len(outcome.steps), ladder.name


def test_a_checked_run_evaluates_each_condition_once(runs, monkeypatch):
    """Counted, not timed: on the samples, the corpus and the tiny bench
    sets, `run(check=True)` calls `correctness` exactly as often as `run`.
    The guard evaluates each pair it rechecks under the pair's one
    correctness key, and `--check` then finds every such verdict in the
    table."""
    calls = _counted_correctness(monkeypatch)
    total = 0
    for name, p, _ in runs:
        counts = []
        for check in (False, True):
            calls.clear()
            assert run(p.crits, p.ctx, check=check).solved, name
            counts.append(len(calls))
        assert counts[0] == counts[1], name
        total += counts[0]
    assert total > 500


def test_witness_line_matches_the_instance_tree_report(runs):
    """On every reached state, decided or not, for every goal."""
    from epsengine.cli import witness_line

    lines = set()
    for name, p, states in runs:
        for spec in p.goals:
            for hs in states:
                line = witness_line(hs.sub, spec.goal)
                assert line == reference_witness_line(hs.sub, spec.goal), name
                lines.add(line.split(":")[1].split()[0])
    assert lines == {"witness", "not"}


# ---------------------------------------------------------------------------
# Steps and checks in proportion to the change: each fast result against
# its full version, on every step of every run and on mutated states


def _followed_steps(runs):
    """(name, p, before, after, verdicts) for every step of every run,
    taken by `h_step` with one followed table per run, each state checked
    as `run(check=True)` checks it; the table is the one the step left."""
    for name, p, states in runs:
        verdicts, hs = table_for(p.crits, omega_sym(p)), states[0]
        is_solving(hs.sub, p.crits, verdicts)
        for k, want in enumerate(states[1:]):
            after, _ = h_step(hs, p.crits, p.ctx, k, verdicts)
            assert after == want, (name, k)
            yield name, p, hs, after, verdicts
            assert process._check(hs, after, p.ctx, verdicts, hs) == [], (name, k)
            hs = after


def _consistent_mutations(runs):
    """(name, p, kind, state) for each one-entry mutation of a reached
    state that is correct and not solving, with its membership history when
    the mutation keeps the members."""
    for name, p, states in runs:
        for hs in states[1:]:
            top = max(hs.sub.rank_of(e) for e in domain(hs.sub))
            more = [  # a top-rank term: nothing of lower rank reads it
                ("drop-top", e, hs.sub.without(e))
                for e in domain(hs.sub)
                if isinstance(e, CanonTerm) and hs.sub.rank_of(e) == top
            ]
            plan = reference_compute_plan(hs, p.crits, p.ctx)
            if plan is not None and plan.case in (CASE_LOW, CASE_HIGH):
                # the step's expression stored as ?: the step revalues it
                more.append(("unknown-at-plan", plan.e, hs.sub.with_entry(plan.e, UNKNOWN)))
            for kind, _, mutated in [*_mutations(hs.sub, p.ctx), *more]:
                if (
                    reference_is_ci(mutated, p.ctx)
                    or not reference_is_correct(mutated, p.ctx)
                    or reference_is_solving(mutated, p.crits)
                ):
                    continue
                if mutated.positive_omega_forms() == hs.sub.positive_omega_forms():
                    yield name, p, kind, HistoricalSubstitution._make((mutated, hs.p, hs.v))
                elif not hs.p:
                    yield name, p, kind, HistoricalSubstitution(mutated)


def _assert_same_change(delta, want, where):
    assert delta == want, where
    assert delta.rows == want.rows and delta.gone == want.gone, where


def test_step_built_change_matches_the_whole_map_change(runs):
    """The change `h_step` builds from its plan, which the table and the
    record are told, against the set differences of the two whole maps;
    also for steps taken from mutated states."""
    cases = set()
    for name, p, before, after, verdicts in _followed_steps(runs):
        want = change(before.sub, after.sub)
        _assert_same_change(verdicts.step, want, name)
        cases.add((bool(want.rows), bool(want.gone), want.omega))
    assert cases >= {(True, False, False), (True, True, True), (True, False, True)}
    stepped = set()
    for name, p, kind, hs in _consistent_mutations(runs):
        verdicts = table_for(p.crits, omega_sym(p))
        after, record = h_step(hs, p.crits, p.ctx, 0, verdicts)
        want = change(hs.sub, after.sub)
        _assert_same_change(verdicts.step, want, (name, kind))
        assert (record.added, record.removed) == (want.added, want.removed)
        stepped.add((kind, record.case))
    kinds = {kind for kind, _ in stepped}
    assert {"drop-top", "unknown-at-plan"} <= kinds
    assert {CASE_LOW, CASE_HIGH, CASE_OMEGA_POS} <= {case for _, case in stepped}


def test_omega_step_change_matches_the_layer_change(runs, bench_ladders):
    """The change an Omega step builds from its case (`member_change`,
    `rollback_change`) against the set differences of the two maps' rows
    from rank Omega on (`layer_change`), on every Omega step of the
    samples, the corpus, the tiny bench sets and the bench ladders of
    c = 3 .. 24 closures, every omega-neg step among them, and members
    added, rolled back and added again."""
    problems = [(name, p) for name, p, _ in runs]
    problems += [(f"ladder-{c}", p) for c, p in bench_ladders]
    cases, readded = Counter(), 0
    for name, p in problems:
        dropped = set()
        for before, after, record, verdicts in _carried_steps(p):
            if record.case in (CASE_OMEGA_POS, CASE_OMEGA_NEG):
                want = layer_change(before.sub, after.sub)
                _assert_same_change(verdicts.step, want, (name, record.index))
                cases[record.case] += 1
            if record.case == CASE_OMEGA_NEG:
                dropped |= set(before.p) - set(after.p)
            elif record.case == CASE_OMEGA_POS and after.p[-1] in dropped:
                dropped.discard(after.p[-1])
                readded += 1
    # one rollback per ladder, and more on the other problems; each ladder
    # of c closures adds c members again
    assert cases[CASE_OMEGA_NEG] > len(bench_ladders) and cases[CASE_OMEGA_POS] > 5000
    assert readded > sum(range(3, 25))


def test_change_of_every_rank_omega_case_matches_the_layer_change(runs, bench_ladders):
    """`step_change` on plans built by hand, some of which the planner
    never makes, against `layer_change`: on every reached state of a
    problem with a clause (the samples, the corpus, the tiny bench sets
    and the bench ladders of c = 3 .. 6), omega-pos for a member not in P,
    and omega-neg valuing the witness term of each member of P and of the
    member outside it, which restores the negative layer the step cuts, so
    that most rows it puts cancel; states with rows above Omega among
    them."""
    seen = Counter()
    for name, p, states in [*runs, *_ladder_runs(bench_ladders, (3, 4, 5, 6))]:
        if p.ctx is None:
            continue
        for hs in states:
            above = len(hs.sub.up_to(OMEGA)) < len(hs.sub)
            outside = max(hs.p, default=0) + 1
            pairs = [(CanonForm(outside), TOP_VAL)]
            pairs += [(p.ctx.c_n(n), num_val(1)) for n in (*hs.p, outside)]
            for e, v in pairs:
                case = CASE_OMEGA_POS if isinstance(e, CanonForm) else CASE_OMEGA_NEG
                plan = StepPlan(0, e, v, rank_of(e, omega_sym(p)), case)
                after = process.apply_plan(hs, plan, p.ctx)
                got = process.step_change(hs, after, plan, canon_sexpr(e), p.ctx)
                want = layer_change(hs.sub, after.sub)
                _assert_same_change(got, want, (name, case, canon_sexpr(e)))
                seen[case, above] += 1
                if case == CASE_OMEGA_NEG:  # rows put: the restored and the new
                    put = len(process.rollback_point(hs, e, p.ctx)[1]) + 1
                    seen["cancelled"] += put > len(want.rows)
    assert seen.keys() >= {
        (case, above) for case in (CASE_OMEGA_POS, CASE_OMEGA_NEG) for above in (0, 1)
    }
    assert seen["cancelled"] > 20


def test_step_records_the_snapshots_of_the_members_it_changed(runs):
    for name, p, states in runs:
        hs, verdicts = states[0], table_for(p.crits, omega_sym(p))
        for k, want in enumerate(states[1:]):
            after, record = h_step(hs, p.crits, p.ctx, k, verdicts)
            assert (record.v_added, record.v_removed) == v_changes(hs, after), name
            hs = after


def _full_pending(verdicts):
    order = sorted(verdicts.order.values())
    return [key for key in order if key[1] not in verdicts.known]


def test_pending_list_is_the_order_less_what_is_known(runs):
    """After every step, and after a table that knew everything on a state
    is advanced by a mutation's change: the kept list, read without
    pruning, is sorted, holds no key twice and misses no key not known, and
    a walk yields exactly the full walk's keys."""
    walked = 0
    for name, p, before, after, verdicts in _followed_steps(runs):
        kept = verdicts._pending
        assert kept == sorted(set(kept)) and set(kept) >= set(_full_pending(verdicts))
        want = _full_pending(verdicts)
        assert list(verdicts.pending_formulas()) == want, name
        assert verdicts._pending == want, name
        walked += len(want)
    assert walked > 100
    put_back = 0
    for name, p, states in runs:
        for hs in states[1:]:
            for kind, _, mutated in _mutations(hs.sub, p.ctx):
                verdicts = table_for(p.crits, omega_sym(p))
                is_solving(hs.sub, p.crits, verdicts)
                for i in range(len(p.crits)):  # every formula, true or not
                    verdicts.truth(i, hs.sub, _evaluator(lambda i=i: p.crits[i].formula))
                known = set(verdicts.known)
                verdicts.advance(hs.sub, mutated, change(hs.sub, mutated))
                put_back += len(known - verdicts.known)
                want = _full_pending(verdicts)
                assert list(verdicts.pending_formulas()) == want, (name, kind)
                want = reference_is_solving(mutated, p.crits)
                assert is_solving(mutated, p.crits, verdicts) == want, (name, kind)
    assert put_back > 0


def _row_pairs(rows):
    return [(e, u) for _, _, e, u in rows]


def test_conflict_among_the_changed_rows_matches_the_full_search(runs):
    """On a map made by a change from one without a conflict, the conflicts
    among the pairs the change added are all there are."""
    seen = set()
    for name, p, before, after, verdicts in _followed_steps(runs):
        got = member_conflict(after.sub, p.ctx, _row_pairs(verdicts.step.rows))
        assert got == reference_member_conflict(after.sub, p.ctx) is False, name
        assert member_conflict(after.sub, p.ctx, after.sub.items()) is False, name
    for name, p, states in runs:
        for hs in states[1:]:
            for kind, _, mutated in _mutations(hs.sub, p.ctx):
                pairs = _row_pairs(change(hs.sub, mutated).rows)
                want = reference_member_conflict(mutated, p.ctx)
                assert member_conflict(mutated, p.ctx, pairs) == want, (name, kind)
                assert member_conflict(mutated, p.ctx, mutated.items()) == want, (name, kind)
                seen.add((kind, want))
    assert ("member-witness", True) in seen and ("add-member", False) in seen


def test_check_over_the_touched_pairs_matches_the_full_check(runs):
    """`is_correct` over the pairs a step touched, on a table that checked
    the state the step left, against the table-free check of every entry;
    also after a mutation, some of which make the state incorrect."""
    touched = 0
    for name, p, before, after, verdicts in _followed_steps(runs):
        pairs = list(verdicts.touched(after.sub))
        assert is_correct(after.sub, p.ctx, verdicts, pairs) is True, name
        assert reference_is_correct(after.sub, p.ctx), name
        touched += len(pairs)
    assert touched > 100
    incorrect = 0
    for name, p, states in runs:
        for hs in states[1:]:
            for kind, _, mutated in _mutations(hs.sub, p.ctx):
                verdicts = table_for(p.crits, omega_sym(p))
                assert is_correct(hs.sub, p.ctx, verdicts), name
                verdicts.advance(hs.sub, mutated, change(hs.sub, mutated))
                want = reference_is_correct(mutated, p.ctx)
                got = is_correct(mutated, p.ctx, verdicts, verdicts.touched(mutated))
                assert got == want, (name, kind)
                incorrect += not want
    assert incorrect > 0


def test_validate_short_path_matches_the_full_validate(runs):
    """A step that touched no rank-Omega entry and kept P and V leaves a
    valid history valid; a broken history that looks like such a step in
    its map is still sent to the full `validate`."""
    short = 0
    for name, p, before, after, verdicts in _followed_steps(runs):
        kept = not verdicts.step.omega and (after.p, after.v) == (before.p, before.v)
        short += kept
        assert validate(after, p.ctx) == [], name
        broken = HistoricalSubstitution._make((after.sub, after.p + (7,), after.v))
        issues = process._check(before, broken, p.ctx, verdicts, before)
        assert issues == validate(broken, p.ctx) != [], name
    assert short > 100


def _chain(n):
    return parse_problem(
        "".join(f"(crit eps {k} (exists (x) (= x {k})))\n" for k in range(1, n + 1))
    )


def test_a_step_visits_what_it_changed(monkeypatch):
    """Counted, not timed, on chains of n = 50 and 400 eps axioms: the
    formulas the planner and the satisfaction test walk, the rows of the
    step's change and the pairs the check visits do not grow with n."""
    walked = []
    real_walk = Verdicts.pending_formulas

    def counted(self):
        for key in real_walk(self):
            walked.append(key)
            yield key

    monkeypatch.setattr(Verdicts, "pending_formulas", counted)
    per_step = {}
    for n in (50, 400):
        p, hs = _chain(n), HistoricalSubstitution.initial()
        verdicts = table_for(p.crits, None)
        is_solving(hs.sub, p.crits, verdicts)
        counts = set()
        for k in range(n):
            walked.clear()
            after, _ = h_step(hs, p.crits, None, k, verdicts)
            step = verdicts.step
            pairs = list(verdicts.touched(after.sub))
            assert is_correct(after.sub, None, verdicts, pairs)
            counts.add((len(walked), len(step.rows) + len(step.gone), len(pairs)))
            hs = after
        assert len(after.sub) == n and verdicts.known >= set(range(n))
        per_step[n] = max(counts)
    # two formulas walked by the planner and two by the satisfaction test;
    # one row put and one pair checked
    assert per_step[50] == per_step[400] == (4, 1, 1)


def test_the_table_forgets_the_keys_of_removed_entries():
    """On a ladder with rollbacks, checked as a run checks it, the table
    holds at most four times a key per formula and two per live entry, and
    a constant: a drop leaves three times, and the new state adds its own."""
    with bench_imports():
        import workloads

        (ladder,) = workloads.omega_ladder(random.Random(1), (12,))
    problem = parse_problem(ladder.text)
    crs, ctx = problem.crits, problem.ctx
    hs = HistoricalSubstitution.initial(ctx.omega_sym)
    verdicts = table_for(crs, ctx.omega_sym)
    solving, rollbacks, k = is_solving(hs.sub, crs, verdicts), 0, 0
    while not solving:
        after, record = h_step(hs, crs, ctx, k, verdicts)
        assert process._check(hs, after, ctx, verdicts, hs) == []
        rollbacks += len(after.p) < len(hs.p)
        live = len(crs) + 2 * len(after.sub)
        assert len(verdicts._memo) <= 4 * live + 64, k
        readers = {key for keys in verdicts._readers.values() for key in keys}
        assert readers <= set(verdicts._memo), k
        hs, solving, k = after, record.solving, k + 1
    assert rollbacks > 10


def test_the_table_drops_the_keys_of_many_removed_entries():
    """A map that swaps one entry for another 1000 times beside one that
    stays: the table keeps no more than a constant of keys for its two live
    entries, drops the keys of the pairs gone, readers and all, and keeps
    those of the entry that stays."""
    (cf,) = _chain(1).crits
    stays = (CanonTerm(cf.sym, (5000,)), num_val(5000))
    hs = HistoricalSubstitution(Substitution(dict([stays])))
    verdicts, sizes = Verdicts([]), []
    assert not refutes(hs.sub, *stays, None, verdicts)
    for k in range(1, 1001):
        e = CanonTerm(cf.sym, (k,))
        after = Substitution(dict([stays, (e, num_val(k))]))
        verdicts.advance(hs.sub, after, change(hs.sub, after))
        assert ("correct", *stays) in verdicts.known, k
        assert not refutes(after, e, num_val(k), None, verdicts)
        assert is_correct(after, None, verdicts, verdicts.touched(after))
        sizes.append(len(verdicts._memo))
        readers = {key for keys in verdicts._readers.values() for key in keys}
        assert readers <= set(verdicts._memo), k
        hs = HistoricalSubstitution(after)
    assert max(sizes) <= 4 * 4 + 64
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 10


def test_witness_printer_matches_the_instance_tree_on_random_templates():
    from epsengine.cli import _at_hole

    rng = random.Random(21)
    folded = 0
    for _ in range(3000):
        nvars = rng.randint(1, 2)
        if rng.random() < 0.5:
            template = random_formula(rng, FIN_SYMS, 4, allow_inset=True, nvars=nvars)
        else:
            template = random_term(rng, FIN_SYMS, 4, nvars=nvars)
        n = rng.randint(0, 12)
        instance = substitute(template, {0: num(n)})
        text, value = _at_hole(template, n)
        assert text == to_sexpr(instance), to_sexpr(template)
        assert value == (instance.value if isinstance(instance, Numeral) else None)
        folded += value is not None and not isinstance(template, Numeral)
    assert folded > 100
