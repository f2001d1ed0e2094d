"""Cross-module properties: the invariants the process maintains by design."""

import random

from corpusgen import build_corpus
from epsengine.history import HistoricalSubstitution
from epsengine.language import (
    And,
    CanonTerm,
    FnApp,
    InSet,
    Not,
    Or,
    RelAtom,
    SkolemApp,
    num,
    rank_of,
    rank_of_symbol,
)
from epsengine.problems import parse_problem
from epsengine.process import (
    apply_plan,
    is_solving,
    make_pred,
    run,
)
from epsengine.substitution import (
    Substitution,
    UNKNOWN,
    num_val,
)
from genexpr import (
    FIN_SYMS,
    SYM_OMEGA_PLUS,
    SYM_R1A,
    random_canon_term,
    random_formula,
    random_substitution,
)
from reference import (
    correctness_formula,
    decides,
    is_computing,
    omega_sym,
    reduce_formula,
    reduce_term,
    reference_compute_plan,
    reference_is_correct,
    reference_is_solving,
    stored,
    table_for,
    to_term,
)
from sequents import Sequent, classify_axiom, d


def _mentioned_ranks(e, omega):
    """Ranks of every witness symbol and membership atom inside e."""
    out = []

    def walk(x):
        if isinstance(x, SkolemApp):
            out.append(rank_of_symbol(x.sym, omega))
            for a in x.args:
                walk(a)
        elif isinstance(x, (FnApp, RelAtom)):
            for a in x.args:
                walk(a)
        elif isinstance(x, InSet):
            from epsengine.language import OMEGA

            out.append(OMEGA)
            walk(x.arg)
        elif isinstance(x, Not):
            walk(x.body)
        elif isinstance(x, (And, Or)):
            walk(x.left)
            walk(x.right)

    walk(e)
    return out


def test_correctness_condition_mentions_only_lower_ranks(ctx):
    rng = random.Random(31)
    for _ in range(300):
        sym = rng.choice(FIN_SYMS + [SYM_OMEGA_PLUS])
        e = CanonTerm(sym, tuple(rng.randint(0, 4) for _ in range(sym.arity)))
        r = rank_of(e, ctx.omega_sym)
        u = num_val(rng.randint(1, 4))
        f = correctness_formula(e, u, ctx)
        assert all(q < r for q in _mentioned_ranks(f, ctx.omega_sym))


def test_d_is_monotone_under_entry_growth(ctx):
    rng = random.Random(32)
    for _ in range(300):
        s = random_substitution(rng, ctx, n_entries=3, include_omega=True)
        phi = random_formula(
            rng, FIN_SYMS + [SYM_OMEGA_PLUS], depth=3, allow_inset=True
        )
        bigger = s
        for _ in range(2):
            e = random_canon_term(rng, FIN_SYMS)
            if e not in bigger:
                bigger = bigger.with_entry(e, num_val(rng.randint(1, 4)))
        assert d(reduce_formula(phi, stored(bigger))) <= d(reduce_formula(phi, stored(s)))


def test_correct_states_are_never_refutation_axioms(ctx):
    rng = random.Random(33)
    seen = 0
    for _ in range(500):
        s = random_substitution(
            rng, ctx, n_entries=rng.randint(1, 4), include_omega=True
        )
        if not reference_is_correct(s, ctx):
            continue
        positives = sorted(s.positive_omega_forms())
        hs = HistoricalSubstitution(
            s,
            tuple(positives),
            {m: Substitution.empty(ctx.omega_sym) for m in positives},
        )
        labels = classify_axiom(Sequent.from_historical(hs), [], ctx)
        assert "AxF" not in labels
        assert "AxS" in labels  # no critical formulas at all
        seen += 1
    assert seen > 20


def test_is_computing_examples():
    e = CanonTerm(SYM_R1A, (2,))
    s = Substitution({e: num_val(2)})
    assert is_computing(s)  # F is the ground sentence 2 = 2 (plus exclusions)
    f = correctness_formula(e, num_val(2))
    assert decides(stored(s), f)


def test_reduction_chain_through_unknown_argument():
    # an unknown canonical argument collapses to 0 before the outer lookup
    d_ = CanonTerm(SYM_R1A, (1,))
    c0 = CanonTerm(SYM_R1A, (0,))
    s = Substitution({d_: UNKNOWN})
    t = SkolemApp(SYM_R1A, (to_term(d_),))
    assert reduce_term(t, stored(s)) == to_term(c0)  # c(0) absent: stays
    s2 = s.with_entry(c0, num_val(3))
    assert reduce_term(t, stored(s2)) == num(3)


def test_is_solving_pred_example():
    cf = make_pred(num(2))
    e = CanonTerm(cf.sym, (2,))
    assert is_solving(Substitution({e: num_val(1)}), [cf], table_for([cf], None))
    assert not is_solving(Substitution.empty(), [cf], table_for([cf], None))


def test_prefix_stability_across_corpus():
    """Once a member enters the order, its prefix never changes while it stays."""
    for cp in build_corpus():
        problem = parse_problem(cp.text)
        out = run(problem.crits, problem.ctx, max_steps=10**4)
        assert out.solved
        for i, step in enumerate(out.steps):
            if step.case != "omega-pos":
                continue
            n = step.p_after[-1]
            prefix = step.p_after
            for later in out.steps[i + 1 :]:
                if n in later.p_after:
                    assert later.p_after[: len(prefix)] == prefix
                else:
                    break


def test_oracle_equivalence_on_final_states():
    """Replaying the plan from any intermediate state reaches the same end."""
    for cp in build_corpus()[:40]:
        problem = parse_problem(cp.text)
        out = run(problem.crits, problem.ctx, max_steps=10**4)
        hs = HistoricalSubstitution.initial(omega_sym(problem))
        while not reference_is_solving(hs.sub, problem.crits):
            plan = reference_compute_plan(hs, problem.crits, problem.ctx)
            hs = apply_plan(hs, plan, problem.ctx)
        assert dict(hs.sub.items()) == dict(out.hs.sub.items())
        assert hs.p == out.hs.p
