import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from epsengine import substitution
from epsengine.language import (
    At,
    CanonForm,
    CanonTerm,
    InductiveContext,
    LanguageError,
    Numeral,
    OMEGA,
    Rank,
    SkolemSymbol,
    Var,
    abstract_closed_terms,
    and_,
    eq,
    expand_exists,
    expand_forall,
    in_set,
    not_,
    num,
    or_,
    rank_of,
    rank_of_symbol,
    simple_rank,
    skolem,
    substitute,
    to_sexpr,
)
from epsengine.problems import parse_problem
from epsengine.process import run
from genexpr import FIN_SYMS, SYM_OMEGA_PLUS, SYM_R1C, SYM_R2, random_formula
from reference import a_formula, lt, mentions_inductive, plus, succ

SYM_EQ = SkolemSymbol(eq(Var(0), Var(1)), 1)


def test_numerals_fold_eagerly():
    assert succ(num(1)) == num(2)
    assert plus(num(2), num(3)) == num(5)
    assert succ(plus(num(1), num(1))) == num(3)
    t = succ(Var(0))
    assert not isinstance(t, Numeral)
    assert substitute(t, {0: num(4)}) == num(5)


def test_simple_rank_base_language():
    assert simple_rank(eq(num(0), num(0))) == 0
    assert simple_rank(in_set(num(3))) == 0


def test_simple_rank_one_level():
    # witness for (exists x) x = S y, applied to 0
    assert simple_rank(skolem(SYM_R1C, (num(0),))) == 1


def test_simple_rank_nested_symbol():
    assert simple_rank(skolem(SYM_R2, (num(0),))) == 2


def test_rank_of_omega_symbol(ctx):
    assert rank_of_symbol(ctx.omega_sym, ctx.omega_sym) == OMEGA
    # without the ambient identification the same symbol sits above Omega
    assert rank_of_symbol(ctx.omega_sym).kind == 2


def test_rank_of_membership_atom():
    assert rank_of(CanonForm(5)) == OMEGA


def test_rank_of_finite_symbol():
    assert rank_of_symbol(SYM_R1C) == Rank.fin(1)
    assert rank_of_symbol(SYM_R2) == Rank.fin(2)


def test_rank_of_set_mentioning_symbol():
    r = rank_of_symbol(SYM_OMEGA_PLUS)
    assert r == Rank.omega_plus(1)
    assert str(r) == "Omega+2"


def test_rank_total_order():
    ranks = [Rank.omega_plus(3), Rank.fin(5), OMEGA, Rank.fin(0), Rank.omega_plus(0)]
    assert sorted(ranks) == [
        Rank.fin(0),
        Rank.fin(5),
        OMEGA,
        Rank.omega_plus(0),
        Rank.omega_plus(3),
    ]


def test_mentions_inductive_is_hereditary(ctx):
    inner = skolem(SYM_OMEGA_PLUS, (Var(1),))
    outer = SkolemSymbol(eq(Var(0), inner), 1)
    assert mentions_inductive(skolem(outer, (num(0),)))
    assert rank_of_symbol(outer).kind == 2
    assert rank_of_symbol(outer) > rank_of_symbol(SYM_OMEGA_PLUS)


def test_abstract_single_closed_term():
    index, args, _ = abstract_closed_terms(eq(Var(0), num(1)))
    assert index == eq(Var(0), Var(1))
    assert args == (num(1),)


def test_abstract_nothing_to_abstract():
    index, args, _ = abstract_closed_terms(eq(Var(0), Var(7)))
    assert index == eq(Var(0), Var(1))
    assert args == (Var(7),)


def test_abstract_shares_identical_closed_terms():
    phi = and_(eq(Var(0), num(1)), not_(eq(Var(0), num(1))))
    index, args, _ = abstract_closed_terms(phi)
    assert index == and_(eq(Var(0), Var(1)), not_(eq(Var(0), Var(1))))
    assert args == (num(1),)


def test_abstract_takes_maximal_subterms():
    # S(S(c())) is closed as a whole once the inner symbol has no arguments
    c0 = SkolemSymbol(eq(Var(0), Var(0)), 0)
    phi = lt(Var(0), succ(skolem(c0, ())))
    index, args, _ = abstract_closed_terms(phi)
    assert index == lt(Var(0), Var(1))
    assert args == (succ(skolem(c0, ())),)


def test_abstract_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        phi = random_formula(rng, FIN_SYMS, depth=3)
        index, _, _ = abstract_closed_terms(phi)
        again, args, _ = abstract_closed_terms(index)
        assert again == index
        assert args == tuple(Var(i + 1) for i in range(len(args)))


def test_expand_exists_basic():
    expanded = expand_exists(eq(Var(0), num(1)))
    witness = skolem(SYM_EQ, (num(1),))
    assert expanded == eq(witness, num(1))


def test_expand_exists_no_parameters():
    refl = SkolemSymbol(eq(Var(0), Var(0)), 0)
    expanded = expand_exists(eq(Var(0), Var(0)))
    assert expanded == eq(skolem(refl, ()), skolem(refl, ()))


def test_expand_forall_negates_index(ctx):
    # the membership condition instantiates the clause at its own witness
    a3 = a_formula(ctx, 3)
    w = skolem(ctx.omega_sym, (num(3),))
    assert a3 == or_(not_(lt(w, num(3))), in_set(w))


def test_expand_forall_uses_negated_matrix():
    body = eq(Var(0), num(2))
    expanded = expand_forall(body)
    sym = SkolemSymbol(not_(eq(Var(0), Var(1))), 1)
    assert expanded == eq(skolem(sym, (num(2),)), num(2))


def test_skolem_symbol_rejects_closed_terms():
    with pytest.raises(LanguageError):
        SkolemSymbol(eq(Var(0), num(1)), 1)


def test_skolem_symbol_equality_is_structural():
    a = SkolemSymbol(eq(Var(0), Var(1)), 1)
    b = SkolemSymbol(eq(Var(0), Var(1)), 1)
    assert a == b and hash(a) == hash(b)
    assert a is b and b.index_formula is a.index_formula  # one object per text
    c = SkolemSymbol(lt(Var(0), Var(1)), 1)
    assert a != c
    assert SkolemSymbol(eq(Var(0), Var(1)), 2) is not a  # another arity, another symbol


@given(st.integers(0, 10**9))
def test_symbol_rank_matches_the_tree_walks(seed):
    rng = random.Random(seed)
    syms = FIN_SYMS + [SYM_OMEGA_PLUS]
    phi = random_formula(rng, syms, depth=3, allow_inset=True)
    if rng.random() < 0.7:  # a symbol at the distinguished variable stays in the index
        sym = rng.choice(syms)
        phi = and_(phi, lt(skolem(sym, (Var(0),) * sym.arity), Var(0)))
    index, args, _ = abstract_closed_terms(phi)
    level = 1 + simple_rank(index)
    want = Rank.omega_plus(level) if mentions_inductive(index) else Rank.fin(level)
    assert SkolemSymbol(index, len(args)).rank == want


def test_symbols_are_freed_with_the_last_problem():
    problem = parse_problem(
        "(crit eps 3 (exists (x) (and (< x 9) (= (* x x) 9))))\n"
        "(goal (exists (y) (< (+ y 11) (* y 12))) (candidates 20))\n"
    )
    outcome = run(problem.crits, problem.ctx, max_steps=100, check=True)
    assert outcome.solved
    refs = [
        weakref.ref(e.sym.index_formula)
        for e, _ in outcome.hs.sub.items()
        if isinstance(e, CanonTerm)
    ]
    assert len(refs) == 2
    del problem, outcome
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_chain_compiles_its_shared_index_formula_once(monkeypatch):
    problem = parse_problem(
        "".join(f"(crit eps {k} (exists (x) (= x {k})))\n" for k in range(1, 9))
    )
    sym = problem.crits[0].sym
    assert all(cf.sym is sym for cf in problem.crits)
    assert to_sexpr(sym.index_formula) == "(= v0 v1)"
    # an earlier use of the same symbol may have compiled it already
    expected = 1 if sym.index_formula._code is None else 0
    texts = []
    compile_ = substitution._compile
    monkeypatch.setattr(
        substitution, "_compile", lambda e: texts.append(to_sexpr(e)) or compile_(e)
    )
    assert run(problem.crits, problem.ctx, max_steps=100, check=True).solved
    assert texts.count("(= v0 v1)") == expected


def test_racing_threads_build_one_symbol_per_text():
    def formulas():
        out, t = [], Var(1)
        for _ in range(200):
            t = succ(t)
            out.append(lt(plus(Var(0), Var(0)), t))
        return out

    barrier = threading.Barrier(4)
    built: list[list[SkolemSymbol] | None] = [None] * 4

    def build(i: int) -> None:
        mine = formulas()
        barrier.wait(timeout=10)
        built[i] = [SkolemSymbol(f, 1) for f in mine]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for same_text in zip(*built):
        assert len(set(map(id, same_text))) == 1


@given(st.integers(0, 10**9))
def test_serialization_is_injective_on_random_formulas(seed):
    rng = random.Random(seed)
    a = random_formula(rng, FIN_SYMS, depth=3, allow_inset=True)
    b = random_formula(rng, FIN_SYMS, depth=3, allow_inset=True)
    assert (a == b) == (to_sexpr(a) == to_sexpr(b))


def test_inductive_context_builds_canonical_witnesses(ctx):
    c2 = ctx.c_n(2)
    assert isinstance(c2, CanonTerm)
    assert c2.args == (2,)
    assert ctx.member_of(c2) == 2
    other = CanonTerm(SYM_R1C, (2,))
    assert ctx.member_of(other) is None


def test_witness_terms_match_their_instantiated_parameters(ctx):
    """c_n fills n into a pattern fixed once; the parameter templates
    instantiated at n as trees give the same term, for every sample clause
    and every n up to 50."""
    from pathlib import Path

    from conftest import bench_imports
    from corpusgen import build_corpus
    from reference import reference_c_n

    texts = [p.read_text() for p in (Path(__file__).parent.parent / "problems").glob("*.eps")]
    texts += [cp.text for cp in build_corpus()]
    with bench_imports():
        import workloads

        for family in sorted(workloads.FAMILIES):
            texts += [q.text for q in workloads.generate(family, 1, "tiny")]
    texts.append("(clause (y x X) (or (not (< (* y 3) (+ x 7))) (in y X)))")
    ctxs = {ctx} | {p.ctx for p in map(parse_problem, texts) if p.ctx is not None}
    assert len(ctxs) >= 3 and any(len(c.cn_args_template) > 1 for c in ctxs)
    for c in ctxs:
        for n in range(51):
            got = c.c_n(n)
            assert got == reference_c_n(c, n) and type(got) is CanonTerm
            assert c.member_of(got) == n


def test_at_takes_a_template_at_a_closed_term():
    phi = lt(Var(0), num(3))
    assert At(phi, num(2)).closed and At(phi, succ(num(1))) == At(phi, succ(num(1)))
    with pytest.raises(LanguageError):
        At(phi, Var(1))
    with pytest.raises(LanguageError):
        At(phi, succ(Var(0)))


def test_inductive_context_requires_member_variable():
    with pytest.raises(LanguageError):
        InductiveContext(in_set(Var(0)))  # ignores the member variable


def test_inductive_context_with_phi(ctx):
    phi = lt(Var(0), num(2))
    body = ctx.with_phi(phi)
    assert body == or_(not_(lt(Var(0), Var(1))), lt(Var(0), num(2)))


def test_var_canonicalization_first_occurrence():
    # two foreign variables and one repeated closed term, left to right
    phi = and_(eq(Var(3), plus(Var(0), num(2))), lt(Var(9), num(2)))
    index, args, _ = abstract_closed_terms(phi)
    assert args == (Var(3), num(2), Var(9))
    assert index == and_(
        eq(Var(1), plus(Var(0), Var(2))), lt(Var(3), Var(2))
    )
