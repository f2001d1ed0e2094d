import pytest

from epsengine.language import Var, eq, num
from epsengine.problems import ParseError, parse_problem, read_forms, shape_check
from epsengine.process import (
    ClosureCF,
    EpsilonCF,
    InductionCF,
    InductiveDefCF,
    PredCF,
    make_epsilon,
    run,
)
from reference import lt, serialize_problem

BOUNDED = "(clause (y x X) (or (not (< y x)) (in y X)))\n"


def test_reader_reports_position():
    with pytest.raises(ParseError) as err:
        parse_problem("(crit pred (s 0)")
    assert "1:1" in str(err.value)


def test_reader_rejects_stray_paren():
    with pytest.raises(ParseError):
        read_forms(") (crit pred 0)")


def test_minimal_inductive_problem():
    p = parse_problem(BOUNDED + "(crit inddef 0)\n")
    assert len(p.crits) == 1
    assert isinstance(p.crits[0], InductiveDefCF)
    assert p.ctx is not None


def test_epsilon_expansion_matches_manual():
    p = parse_problem("(crit eps (s 0) (exists (w) (= w (s 0))))\n")
    cf = p.crits[0]
    assert isinstance(cf, EpsilonCF)
    assert cf.t == num(1)
    assert cf.phi == eq(Var(0), num(1))
    assert cf.args == (num(1),)


def test_positivity_violation_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("(clause (y x X) (not (in y X)))\n")
    assert "positively" in str(err.value)


def test_nested_negation_positivity_ok():
    parse_problem("(clause (y x X) (not (not (or (not (< y x)) (in y X)))))\n")


def test_clause_must_mention_member_variable():
    with pytest.raises(ParseError):
        parse_problem("(clause (y x X) (in y X))\n")


def test_clause_rejects_quantifiers():
    with pytest.raises(ParseError):
        parse_problem("(clause (y x X) (exists (z) (= z y)))\n")


def test_clause_rejects_the_ambient_set():
    with pytest.raises(ParseError):
        parse_problem("(clause (y x X) (or (in y I) (= y x)))\n")


def test_unbound_variable_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("(crit pred z)\n")
    assert "unbound" in str(err.value)


def test_crit_needing_clause_without_one():
    with pytest.raises(ParseError):
        parse_problem("(crit inddef 0)\n")
    with pytest.raises(ParseError):
        parse_problem("(crit closure (z) (< z 1))\n")


def test_only_one_clause():
    with pytest.raises(ParseError):
        parse_problem(BOUNDED + BOUNDED)


def test_goal_generates_candidate_axioms():
    p = parse_problem("(goal (exists (x) (= x 2)) (candidates 2 3))\n")
    assert len(p.crits) == 2
    assert all(isinstance(c, EpsilonCF) for c in p.crits)
    assert p.crits[0].t == num(2) and p.crits[1].t == num(3)


def test_goal_rejects_membership():
    with pytest.raises(ParseError):
        parse_problem("(goal (exists (x) (in x I)))\n")


def test_goal_rejects_inner_quantifiers():
    with pytest.raises(ParseError):
        parse_problem("(goal (exists (x) (exists (y) (= x y))))\n")


def test_options():
    p = parse_problem("(option max-steps 7)\n(crit pred 2)\n")
    assert p.max_steps == 7
    assert parse_problem("(crit pred 2)\n").max_steps is None
    with pytest.raises(ParseError):
        parse_problem("(option unknown 1)\n")
    # a repeated option is refused at its second form, not resolved silently
    with pytest.raises(ParseError) as err:
        parse_problem("(option max-steps 5)\n(option max-steps 1)\n")
    assert str(err.value).startswith("2:") and "max-steps given twice" in str(err.value)
    # as on the command line, at least one step
    with pytest.raises(ParseError, match=r"^2:2: max-steps must be at least 1$"):
        parse_problem("(crit pred 2)\n(option max-steps 0)\n")


def test_nested_quantifiers_expand_innermost_first():
    p = parse_problem("(crit eps 0 (exists (a) (forall (b) (< b (s a)))))\n")
    cf = p.crits[0]
    # the inner universal became a witness symbol parameterized by a
    from epsengine.language import SkolemApp

    def syms(e, out):
        if isinstance(e, SkolemApp):
            out.append(e.sym)
            for x in e.args:
                syms(x, out)
        for name in ("left", "right", "body", "arg"):
            if hasattr(e, name):
                syms(getattr(e, name), out)
        if hasattr(e, "args") and not isinstance(e, SkolemApp):
            for x in e.args:
                syms(x, out)
        return out

    inner_syms = syms(cf.phi, [])
    assert len(inner_syms) == 1
    assert inner_syms[0].arity == 1


def test_shape_check_pred():
    form = read_forms(
        "(-> (not (= (s (s 0)) 0)) (exists (x) (= (s (s 0)) (s x))))"
    )[0]
    cf = shape_check(form, None)
    assert isinstance(cf, PredCF)
    assert cf.s == num(2)


def test_shape_check_epsilon():
    form = read_forms("(-> (= 1 1) (exists (x) (= x 1)))")[0]
    cf = shape_check(form, None)
    assert isinstance(cf, EpsilonCF)
    assert cf.t == num(1)


def test_shape_check_induction():
    form = read_forms(
        "(-> (and (< 0 3) (not (< (s (s 0)) 3)))"
        " (exists (x) (and (< x 3) (not (< (s x) 3)))))"
    )[0]
    cf = shape_check(form, None)
    assert isinstance(cf, InductionCF)
    assert cf.t == num(2)


def test_shape_check_inddef_and_closure(ctx):
    form = read_forms(
        "(-> (forall (y) (or (not (< y 0)) (in y I))) (in 0 I))"
    )[0]
    cf = shape_check(form, ctx)
    assert isinstance(cf, InductiveDefCF)
    form2 = read_forms(
        "(-> (forall (x) (-> (forall (y) (or (not (< y x)) (< y 2))) (< x 2)))"
        " (forall (x) (-> (in x I) (< x 2))))"
    )[0]
    cf2 = shape_check(form2, ctx)
    assert isinstance(cf2, ClosureCF)
    assert cf2.phi == lt(Var(0), num(2))


def test_shape_check_rejects_non_axiom():
    with pytest.raises(ParseError):
        shape_check(read_forms("(= 0 0)")[0], None)
    # a wrong witness pattern in the conclusion is not a predecessor axiom
    with pytest.raises(ParseError):
        shape_check(
            read_forms("(-> (not (= 2 0)) (exists (x) (= 3 (s x))))")[0], None
        )


def test_round_trip_problem():
    text = (
        BOUNDED
        + "(option max-steps 50)\n"
        + "(crit inddef 0)\n"
        + "(crit eps 1 (exists (x) (= x 1)))\n"
        + "(crit ind (x) (< x 2) 3)\n"
        + "(crit pred 2)\n"
        + "(crit closure (z) (< z 1))\n"
        + "(goal (exists (x) (= x 1)) (candidates 1))\n"
    )
    p = parse_problem(text)
    assert {type(cf) for cf in p.crits} == {
        PredCF, EpsilonCF, InductionCF, InductiveDefCF, ClosureCF
    }
    assert p.max_steps == 50 and p.goals[0].candidates
    emitted = serialize_problem(p)
    p2 = parse_problem(emitted)
    assert p == p2
    assert serialize_problem(p2) == emitted
    assert parse_problem(serialize_problem(p, "S")) == p


def test_the_set_name_is_not_part_of_the_problem():
    text = "(clause (y x {0}) (or (not (< y x)) (in y {0})))\n(crit inddef 2)\n"
    assert parse_problem(text.format("X")) == parse_problem(text.format("S"))
    assert parse_problem(text.format("X")) != parse_problem(
        text.format("X").replace("(< y x)", "(< x y)")
    )


def test_a_candidate_axiom_reuses_the_goal_witness():
    p = parse_problem("(goal (exists (x) (< 1 (+ x x))) (candidates 1 3))\n")
    goal = p.goals[0].goal
    for cf, t in zip(p.crits, p.goals[0].candidates):
        assert cf == make_epsilon(t, goal.phi)
        assert cf.sym is goal.sym and cf.args is goal.args


def test_goal_candidates_cost_no_skolemization(monkeypatch):
    """A corpus pass skolemizes each goal matrix once, not again for each
    candidate: 734 skolemizations on the seed-1 corpus, 77 of whose goals
    have a candidate."""
    from epsengine import language, process

    texts = _corpus_texts()
    calls = []
    original = language.skolemize_exists

    def counted(body):
        calls.append(body)
        return original(body)

    for module in (language, process):
        monkeypatch.setattr(module, "skolemize_exists", counted)
    candidates = 0
    for text in texts:
        candidates += sum(len(g.candidates) for g in parse_problem(text).goals)
    assert candidates == 77
    assert len(calls) == 734


def _corpus_texts() -> list[str]:
    from conftest import bench_imports

    with bench_imports():
        import workloads

        return [q.text for q in workloads.generate("corpus", 1)]


def test_axioms_are_built_from_their_matrices_not_as_instances(monkeypatch):
    """A corpus pass builds no axiom instance tree: 539 top-level
    `substitute` calls on the seed-1 corpus, counted once per outermost
    call, not per node."""
    from epsengine import language, problems, process

    texts = _corpus_texts()
    calls, depth = [0], [0]
    original = language.substitute

    def counted(e, mapping):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(e, mapping)
        finally:
            depth[0] -= 1

    for module in (language, process, problems):
        monkeypatch.setattr(module, "substitute", counted)
    for text in texts:
        parse_problem(text)
    assert calls[0] == 539


def test_each_skolemization_builds_its_index_text_in_its_walk(monkeypatch):
    """Over the corpus, the samples and the tiny bench families, every
    abstraction's text is `to_sexpr` of its index formula, and every
    skolemization's symbol is the one of that text."""
    from pathlib import Path

    from conftest import bench_imports
    from epsengine import language, process
    from epsengine.language import to_sexpr

    texts = _corpus_texts()
    texts += [p.read_text() for p in (Path(__file__).parent.parent / "problems").glob("*.eps")]
    with bench_imports():
        import workloads

        for family in sorted(workloads.FAMILIES):
            texts += [q.text for q in workloads.generate(family, 1, "tiny")]
    abstract, skolemize = language.abstract_closed_terms, language.skolemize_exists
    seen = []

    def checked_abstraction(phi):
        index, args, text = abstract(phi)
        assert text == to_sexpr(index)
        return index, args, text

    def checked_skolemization(body):
        sym, args = skolemize(body)
        index, args_again, text = abstract(body)
        assert sym.text == text == to_sexpr(sym.index_formula) and args == args_again
        seen.append(sym)
        return sym, args

    monkeypatch.setattr(language, "abstract_closed_terms", checked_abstraction)
    for module in (language, process):
        monkeypatch.setattr(module, "skolemize_exists", checked_skolemization)
    for text in texts:
        parse_problem(text)
    assert len(seen) > 800


def test_untagged_crit_in_file(ctx):
    text = BOUNDED + "(crit formula (-> (= 1 1) (exists (x) (= x 1))))\n"
    p = parse_problem(text)
    assert isinstance(p.crits[0], EpsilonCF)
    out = run(p.crits, p.ctx)
    assert out.solved


# nests of each shape, and the statements that hold them
NESTS = {
    "not": lambda d: "(not " * d + "(= 0 0)" + ")" * d,
    "s": lambda d: "(= " + "(s " * d + "x" + ")" * d + " 1)",  # does not fold
    "and": lambda d: "(and true " * d + "true" + ")" * d,
}
HOLDERS = [
    lambda f: f"(crit eps 0 (exists (x) (or (= x 0) {f})))\n",
    lambda f: f"(goal (exists (x) (or (= x 0) {f})))\n",
    # a symbol nested in another: the outer one's rank walks the nest
    lambda f: f"(crit eps 0 (exists (x) (or (= x 0) (exists (y) (and (= y x) {f})))))\n",
    # a closure puts its formula for the set throughout the clause
    lambda f: f"(clause (y x X) (or (in y X) (or (= y x) {f})))\n(crit closure (z) (< z 1))\n",
]


def parses(text: str) -> bool:
    try:
        parse_problem(text)
    except RecursionError:
        return False
    return True


def test_every_shape_nests_as_deep():
    # each level of every shape, in every statement, costs the parser and
    # the walks one frame, on every Python (3.12 counts a call made through
    # map() against a separate, lower limit)
    lo, hi = 1, 4000  # the deepest plain (not ...) nest, by bisection
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if parses(HOLDERS[0](NESTS["not"](mid))) else (lo, mid - 1)
    assert lo > 500
    for i, holder in enumerate(HOLDERS):
        for name, nest in NESTS.items():
            assert parses(holder(nest(lo - 8))), (i, name, lo)
            assert not parses(holder(nest(lo + 8))), (i, name, lo)
