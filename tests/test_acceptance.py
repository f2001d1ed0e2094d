"""Acceptance suite: one test per criterion, each printing a verdict line.

The corpus is generated once per session and every problem is run with full
invariant checking.  Where a criterion demands an independent oracle, the
oracle is implemented here from scratch: a direct total evaluator for
arithmetic sentences, an exhaustive substitution search, and a literal
transcription of the rollback clauses.
"""

from __future__ import annotations

import io
import itertools
import random
import time

import pytest

from corpusgen import build_corpus
from epsengine.cli import RunConfig, cmd_check, cmd_run, trace_lines
from epsengine.history import HistoricalSubstitution, validate
from epsengine.language import (
    And,
    At,
    Bottom,
    CanonForm,
    CanonTerm,
    Expr,
    FnApp,
    InSet,
    Not,
    Numeral,
    OMEGA,
    Or,
    Rank,
    RelAtom,
    SkolemApp,
    Top,
    num,
    rank_of,
    rank_of_symbol,
    substitute,
)
from epsengine.problems import parse_problem
from epsengine.process import (
    apply_omega_neg,
    run,
)
from epsengine.substitution import (
    Substitution,
    TOP_VAL,
    UNKNOWN,
    entry_is_positive,
    num_val,
    serialize,
)
from genexpr import (
    FIN_SYMS,
    SYM_OMEGA_PLUS,
    fin_syms_below,
    random_canon_term,
    random_formula,
    random_substitution,
    random_term,
)
from reference import (
    correctness_formula,
    expand,
    models,
    rank_filter,
    reduce_formula,
    reduce_term,
    stored,
)
from sequents import Sequent, nu

MAX_STEPS = 10**4


# ---------------------------------------------------------------------------
# independent total evaluator: assignment maps canonical terms to naturals
# (anything unassigned counts as 0), members is the set of true memberships

def indep_term(t: Expr, assign: dict, members: set[int]) -> int:
    if isinstance(t, Numeral):
        return t.value
    if isinstance(t, FnApp):
        vals = [indep_term(a, assign, members) for a in t.args]
        return vals[0] + 1 if t.fn == "s" else (
            vals[0] + vals[1] if t.fn == "+" else vals[0] * vals[1]
        )
    if isinstance(t, SkolemApp):
        key = (t.sym, tuple(indep_term(a, assign, members) for a in t.args))
        return assign.get(key, 0) or 0
    raise AssertionError(f"open term {t!r}")


def indep_formula(phi: Expr, assign: dict, members: set[int]) -> bool:
    if isinstance(phi, At):
        return indep_formula(expand(phi), assign, members)
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, RelAtom):
        a = indep_term(phi.args[0], assign, members)
        b = indep_term(phi.args[1], assign, members)
        return a == b if phi.rel == "=" else a < b
    if isinstance(phi, InSet):
        return indep_term(phi.arg, assign, members) in members
    if isinstance(phi, Not):
        return not indep_formula(phi.body, assign, members)
    if isinstance(phi, And):
        return indep_formula(phi.left, assign, members) and indep_formula(
            phi.right, assign, members
        )
    if isinstance(phi, Or):
        return indep_formula(phi.left, assign, members) or indep_formula(
            phi.right, assign, members
        )
    raise AssertionError(f"cannot evaluate {phi!r}")


@pytest.fixture(scope="session")
def corpus_outcomes():
    corpus = build_corpus()
    assert len(corpus) >= 200
    t0 = time.monotonic()
    out = []
    for cp in corpus:
        problem = parse_problem(cp.text)
        outcome = run(problem.crits, problem.ctx, max_steps=MAX_STEPS, check=True)
        out.append((cp, problem, outcome))
    elapsed = time.monotonic() - t0
    return out, elapsed


def test_criterion_1_correctness_preservation(corpus_outcomes):
    """Every executed step leaves a correct substitution and valid history."""
    outcomes, elapsed = corpus_outcomes
    for cp, problem, outcome in outcomes:
        assert outcome.status != "internal-error", (
            f"{cp.name}: {outcome.diagnostics}"
        )
        # the checked run already verified every step; re-verify the end state
        final_issues = validate(outcome.hs, problem.ctx)
        assert final_issues == [], f"{cp.name}: {final_issues}"
    assert elapsed < 60, f"corpus verification took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 correctness-preservation: PASS "
        f"({len(outcomes)} problems, {elapsed:.1f}s)"
    )


def test_criterion_2_termination(corpus_outcomes):
    """Every corpus problem reaches a solving substitution within 10^4 steps."""
    outcomes, _ = corpus_outcomes
    worst = 0
    for cp, _, outcome in outcomes:
        assert outcome.status == "solved", f"{cp.name}: {outcome.status}"
        worst = max(worst, len(outcome.steps))
    print(f"\nACCEPTANCE 2 termination: PASS (max {worst} steps)")


def test_criterion_3_witness_soundness(corpus_outcomes):
    """Extracted witnesses satisfy their goal instances arithmetically."""
    outcomes, _ = corpus_outcomes
    from epsengine.process import extract_witness

    n_goals = 0
    for cp, problem, outcome in outcomes:
        for spec in problem.goals:
            n = extract_witness(outcome.hs.sub, spec.goal)
            instance = substitute(spec.goal.phi, {0: num(n)})
            assert indep_formula(instance, {}, set()), (
                f"{cp.name}: witness {n} fails {spec.goal.text}"
            )
            n_goals += 1
    assert n_goals >= 50
    print(f"\nACCEPTANCE 3 witness-soundness: PASS ({n_goals} goals)")


# ---------------------------------------------------------------------------
# criterion 4: rank locality and monotonicity at the top rank

def _junk_entries_at_or_above(rng, r: Rank, ctx) -> dict:
    out = {}
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if pick < 0.4:
            sym = rng.choice([s for s in FIN_SYMS if rank_of_symbol(s) >= r] or [None])
            if sym is None:
                continue
            e = CanonTerm(sym, tuple(rng.randint(0, 4) for _ in range(sym.arity)))
            out[e] = num_val(rng.randint(1, 4)) if rng.random() < 0.7 else UNKNOWN
        elif pick < 0.7 and OMEGA >= r:
            out[CanonForm(rng.randint(0, 4))] = (
                TOP_VAL if rng.random() < 0.7 else UNKNOWN
            )
        elif rank_of_symbol(SYM_OMEGA_PLUS) >= r:
            e = CanonTerm(SYM_OMEGA_PLUS, (rng.randint(0, 4),))
            out[e] = num_val(rng.randint(1, 4)) if rng.random() < 0.7 else UNKNOWN
    return out


def test_criterion_4_rank_locality(ctx):
    rng = random.Random(424242)
    checked = 0

    # reduction locality for terms and formulas below a finite rank
    for _ in range(300):
        k = rng.randint(1, 3)
        r = Rank.fin(k)
        syms = fin_syms_below(k)
        t = random_term(rng, syms, depth=3)
        s = random_substitution(rng, ctx, n_entries=6, include_omega=True)
        low = dict(rank_filter(s, "<", r).items())
        high = _junk_entries_at_or_above(rng, r, ctx)
        s2 = Substitution({**low, **high}, omega_sym=ctx.omega_sym)
        assert reduce_term(t, stored(s)) == reduce_term(t, stored(s2))
        assert reduce_term(t, s) == reduce_term(t, s2)
        checked += 1

    for _ in range(250):
        k = rng.randint(1, 3)
        r = Rank.fin(k)
        phi = random_formula(rng, fin_syms_below(k), depth=3, allow_inset=False)
        s = random_substitution(rng, ctx, n_entries=6, include_omega=True)
        low = dict(rank_filter(s, "<", r).items())
        s2 = Substitution(
            {**low, **_junk_entries_at_or_above(rng, r, ctx)},
            omega_sym=ctx.omega_sym,
        )
        assert models(stored(s), phi) == models(stored(s2), phi)
        assert models(s, phi) == models(s2, phi)
        checked += 1

    # correctness locality for expressions of non-Omega rank
    hits = 0
    while hits < 250:
        sym = rng.choice(FIN_SYMS + [SYM_OMEGA_PLUS])
        e = CanonTerm(sym, tuple(rng.randint(0, 4) for _ in range(sym.arity)))
        r = rank_of(e, ctx.omega_sym)
        u = num_val(rng.randint(1, 4)) if rng.random() < 0.8 else UNKNOWN
        s = random_substitution(rng, ctx, n_entries=5, include_omega=True)
        f = correctness_formula(e, u, ctx)
        if not models(stored(s), f):
            continue
        low = dict(rank_filter(s, "<", r).items())
        s2 = Substitution(
            {**low, **_junk_entries_at_or_above(rng, r, ctx)},
            omega_sym=ctx.omega_sym,
        )
        assert models(stored(s2), f)
        hits += 1
        checked += 1

    # monotonicity at rank Omega, member side: below-Omega part fixed, the
    # member's own witness entry untouched, facts may grow, other negative
    # entries may be dropped
    hits = 0
    while hits < 100:
        n = rng.randint(0, 4)
        s = random_substitution(rng, ctx, n_entries=5, include_omega=True)
        s = s.without(ctx.c_n(n))
        f = correctness_formula(CanonForm(n), TOP_VAL, ctx)
        if not models(s, f):
            continue
        entries = dict(rank_filter(s, "<", OMEGA).items())
        for e, u in rank_filter(s, "=", OMEGA).items():
            if entry_is_positive(e, u) or rng.random() < 0.5:
                entries[e] = u
        entries[CanonForm(rng.randint(5, 8))] = TOP_VAL  # extra fact
        s2 = Substitution(entries, omega_sym=ctx.omega_sym)
        assert models(s2, f)
        hits += 1
        checked += 1

    # monotonicity at rank Omega, witness side: facts may only shrink
    hits = 0
    while hits < 100:
        n = rng.randint(0, 4)
        u = num_val(rng.randint(1, 4)) if rng.random() < 0.7 else UNKNOWN
        s = random_substitution(rng, ctx, n_entries=5, include_omega=True)
        f = correctness_formula(ctx.c_n(n), u, ctx)
        if not models(s, f):
            continue
        entries = dict(rank_filter(s, "<", OMEGA).items())
        for e, w in rank_filter(s, "=", OMEGA).items():
            if entry_is_positive(e, w):
                if rng.random() < 0.5:
                    entries[e] = w  # keep a subset of the positive part
            elif rng.random() < 0.7:
                entries[e] = w  # negatives are unconstrained here
        s2 = Substitution(entries, omega_sym=ctx.omega_sym)
        assert models(s2, f)
        hits += 1
        checked += 1

    assert checked >= 1000
    print(f"\nACCEPTANCE 4 rank-locality: PASS ({checked} instances)")


# ---------------------------------------------------------------------------
# criterion 5: exhaustive search agrees with the process

N_MAX = 4


def _mentioned_canonicals(problem) -> list[tuple]:
    keys = []
    for cf in problem.crits:
        vals = tuple(indep_term(a, {}, set()) for a in cf.args)
        key = (cf.sym, vals)
        if key not in keys:
            keys.append(key)
    return keys


def _crits_true(problem, assign) -> bool:
    return all(
        indep_formula(cf.formula, assign, set()) for cf in problem.crits
    )


def test_criterion_5_brute_force_equivalence(corpus_outcomes):
    outcomes, _ = corpus_outcomes
    t0 = time.monotonic()
    n_problems = 0
    for cp, problem, outcome in outcomes:
        if not cp.brute_ok:
            continue
        keys = _mentioned_canonicals(problem)
        assert len(keys) <= 4  # at most 3 written axioms plus one goal axiom
        # (a) the engine's final substitution solves, per the oracle
        final_assign = {}
        for e, u in outcome.hs.sub.items():
            assert isinstance(e, CanonTerm)
            key = (e.sym, e.args)
            assert key in keys, f"{cp.name}: unexpected canonical {e}"
            final_assign[key] = u.n if u.kind == "num" else 0
        assert _crits_true(problem, final_assign), f"{cp.name}: final not solving"
        # (b) some assignment solves iff the engine solved (it always does,
        # so the search must succeed; values 0 stand for the indeterminate)
        found = False
        for combo in itertools.product([0, 1, 2, 3, 4], repeat=len(keys)):
            if _crits_true(problem, dict(zip(keys, combo))):
                found = True
                break
        assert found == (outcome.status == "solved"), cp.name
        n_problems += 1
    elapsed = time.monotonic() - t0
    assert n_problems >= 50
    assert elapsed < 120, f"exhaustive search took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 5 brute-force-equivalence: PASS "
        f"({n_problems} problems, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: rollback fidelity against a literal transcription

def _reference_rollback(hs, e, v, ctx):
    """Direct transcription of the four rollback clauses."""
    n = ctx.member_of(e)
    p_prime = []
    for m in hs.p:
        if m == n:
            break
        p_prime.append(m)
    p_prime = tuple(p_prime)
    if n is not None and n in hs.p:
        restored = dict(hs.v[n].items())
    else:
        restored = {
            d: u
            for d, u in hs.sub.items()
            if hs.sub.rank_of(d).is_omega and not entry_is_positive(d, u)
        }
    s_prime = {}
    for d, u in hs.sub.items():
        if isinstance(d, CanonForm) and u.kind == "top" and d.n in p_prime:
            s_prime[d] = u
        if (
            isinstance(d, CanonTerm)
            and u.kind == "unknown"
            and hs.sub.rank_of(d).is_omega
            and ctx.member_of(d) in p_prime
        ):
            s_prime[d] = u
    entries = {
        d: u for d, u in hs.sub.items() if hs.sub.rank_of(d) < OMEGA
    }
    entries.update(s_prime)
    entries.update(restored)
    entries[e] = v
    return (
        entries,
        p_prime,
        {m: hs.v[m] for m in p_prime},
    )


def test_criterion_6_rollback_fidelity(ctx):
    rng = random.Random(66)
    from genexpr import SYM_R1C

    n_cases = 0
    while n_cases < 30:
        members = sorted(rng.sample(range(0, 8), rng.randint(3, 5)))
        entries = {CanonForm(m): TOP_VAL for m in members}
        v_map = {}
        for m in members:
            snap = {}
            for _ in range(rng.randint(0, 2)):
                j = rng.randint(0, 8)
                snap[ctx.c_n(j)] = num_val(rng.randint(1, 4))
            v_map[m] = Substitution(snap, omega_sym=ctx.omega_sym)
        for _ in range(rng.randint(0, 2)):
            entries[ctx.c_n(rng.randint(0, 8))] = UNKNOWN
        for _ in range(rng.randint(0, 2)):
            e = random_canon_term(rng, [SYM_R1C])
            entries[e] = num_val(rng.randint(1, 4))
        if rng.random() < 0.5:
            e = CanonTerm(SYM_OMEGA_PLUS, (rng.randint(0, 3),))
            entries[e] = num_val(rng.randint(1, 4))
        hs = HistoricalSubstitution(
            Substitution(entries, omega_sym=ctx.omega_sym),
            tuple(members),
            v_map,
        )
        target = (
            rng.choice(members) if rng.random() < 0.7 else rng.randint(9, 11)
        )
        e = ctx.c_n(target)
        if hs.sub.raw(e) is not None and hs.sub.raw(e).kind == "num":
            continue
        v = num_val(rng.randint(1, 4)) if rng.random() < 0.7 else UNKNOWN
        got = apply_omega_neg(hs, e, v, ctx)
        want_entries, want_p, want_v = _reference_rollback(hs, e, v, ctx)
        assert dict(got.sub.items()) == want_entries
        assert got.p == want_p
        assert {k: dict(s.items()) for k, s in got.v.items()} == {
            k: dict(s.items()) for k, s in want_v.items()
        }
        n_cases += 1
    print(f"\nACCEPTANCE 6 rollback-fidelity: PASS ({n_cases} histories)")


# ---------------------------------------------------------------------------
# criterion 7: measure decrease

def _canon_terms_in(e: Expr, omega) -> set[CanonTerm]:
    out: set[CanonTerm] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, SkolemApp):
            if all(isinstance(a, Numeral) for a in x.args):
                c = CanonTerm(x.sym, tuple(a.value for a in x.args))
                if not rank_of(c, omega).is_omega:
                    out.add(c)
            for a in x.args:
                walk(a)
        elif isinstance(x, (FnApp, RelAtom)):
            for a in x.args:
                walk(a)
        elif isinstance(x, InSet):
            walk(x.arg)
        elif isinstance(x, Not):
            walk(x.body)
        elif isinstance(x, (And, Or)):
            walk(x.left)
            walk(x.right)

    walk(e)
    return out


def _canon_forms_in(e: Expr) -> set[CanonForm]:
    out: set[CanonForm] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, InSet) and isinstance(x.arg, Numeral):
            out.add(CanonForm(x.arg.value))
        elif isinstance(x, (FnApp, RelAtom, SkolemApp)):
            for a in x.args:
                walk(a)
        elif isinstance(x, InSet):
            walk(x.arg)
        elif isinstance(x, Not):
            walk(x.body)
        elif isinstance(x, (And, Or)):
            walk(x.left)
            walk(x.right)

    walk(e)
    return out


def test_criterion_7_measure_decrease(ctx):
    from sequents import formula_family, rho as rho_of

    rng = random.Random(77)
    strict_checked = 0
    form_checked = 0
    while strict_checked < 500 or form_checked < 100:
        sub = random_substitution(rng, ctx, n_entries=3, include_omega=True)
        positives = sub.positive_omega_forms()
        hs = HistoricalSubstitution(
            sub,
            tuple(sorted(positives)),
            {m: Substitution.empty(ctx.omega_sym) for m in positives},
        )
        theta = Sequent.from_historical(hs)
        c_set = [
            random_formula(rng, FIN_SYMS + [SYM_OMEGA_PLUS], 3, allow_inset=True)
            for _ in range(rng.randint(1, 3))
        ]
        fam = formula_family(theta, c_set, ctx)
        level = rho_of(theta, c_set, ctx)
        before = nu(theta, c_set, ctx)
        for phi in fam:
            red = reduce_formula(phi, stored(sub))
            from epsengine.language import simple_rank

            at_top = simple_rank(red) == level
            if at_top and level > 0:
                for e in _canon_terms_in(red, ctx.omega_sym):
                    if e in sub:
                        continue
                    u = rng.choice([UNKNOWN, num_val(1), num_val(2)])
                    after = nu(theta.add_entry(e, u), c_set, ctx)
                    assert after < before, (serialize(sub), e, u)
                    strict_checked += 1
            for e in _canon_forms_in(red):
                if e in sub:
                    continue
                u = rng.choice([UNKNOWN, TOP_VAL])
                after = nu(theta.add_entry(e, u), c_set, ctx)
                assert after <= before
                if at_top and level > 0:
                    assert after < before
                form_checked += 1
    print(
        f"\nACCEPTANCE 7 measure-decrease: PASS "
        f"({strict_checked} strict, {form_checked} formula-case)"
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism and replay

def test_criterion_8_determinism_and_replay(corpus_outcomes, tmp_path):
    outcomes, _ = corpus_outcomes
    for cp, problem, outcome in outcomes:
        again = run(problem.crits, problem.ctx, max_steps=MAX_STEPS, check=True)
        assert trace_lines(cp.text, again) == trace_lines(
            cp.text, outcome
        ), f"{cp.name}: traces differ between runs"
    # full write-then-replay through the command line surface
    n_checked = 0
    for cp, problem, outcome in outcomes:
        ppath = tmp_path / f"{cp.name}.eps"
        ppath.write_text(cp.text)
        tpath = tmp_path / f"{cp.name}.jsonl"
        sink = io.StringIO()
        assert cmd_run(str(ppath), RunConfig(trace=str(tpath)), out=sink) == 0
        assert cmd_check(str(tpath), str(ppath), out=sink) == 0
        n_checked += 1
    print(
        f"\nACCEPTANCE 8 determinism-and-replay: PASS "
        f"({len(outcomes)} double runs, {n_checked} replays)"
    )
