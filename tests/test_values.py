"""Value semantics of the small immutable values the step works with.

Canonical expressions, values, ranks, plans and step records are tuples,
so they are built, hashed and compared in C.  A tuple equals any tuple of
equal items, so these tests pin what the engine relies on: values of
different kinds never meet as equal keys, ranks sort in ordinal order, and
no field can be assigned.  The larger records (critical formulas, goals,
problems, histories) are tuples too, and no engine class is a dataclass.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from epsengine.history import HistoricalSubstitution
from epsengine.cli import RunConfig
from epsengine.language import (
    OMEGA,
    CanonForm,
    CanonTerm,
    Rank,
    SkolemSymbol,
    Var,
    canon_sexpr,
    eq,
    num,
)
from epsengine.problems import parse_problem
from epsengine.process import (
    HStep,
    InductionCF,
    StepPlan,
    h_step,
    is_solving,
    make_epsilon,
    run,
)
from epsengine.substitution import (
    TOP_VAL,
    UNKNOWN,
    Substitution,
    Value,
    is_correct,
    num_val,
    serialize,
)
from genexpr import SYM_OMEGA_PLUS, SYM_R1A
from reference import lt, reference_compute_plan, table_for

ROOT = pathlib.Path(__file__).resolve().parent.parent
CASCADE = ROOT / "problems" / "rebuild_cascade.eps"
SYM_0 = SkolemSymbol(eq(Var(0), Var(0)), 0)  # no arguments: CanonTerm(SYM_0, ())


def mixed_values() -> list:
    """Values of the kinds that meet in one map or one key set, with items
    that coincide: canonical expressions, values, ranks and verdict keys
    (integers, and ("correct", e, u)).  A plain tuple equal to
    one of them, such as (n,) to CanonForm(n), is never used as a key."""
    out: list = [CanonTerm(SYM_0, ()), UNKNOWN, TOP_VAL, OMEGA]
    for n in range(3):
        out += [CanonForm(n), CanonTerm(SYM_R1A, (n,)), CanonTerm(SYM_OMEGA_PLUS, (n,))]
        out += [num_val(n + 1), Rank.fin(n), Rank.omega_plus(n), n]
    for e in (CanonForm(1), CanonTerm(SYM_R1A, (1,))):
        out += [("correct", e, TOP_VAL), ("correct", e, num_val(1))]
    return out


def test_values_of_different_kinds_are_never_equal():
    values = mixed_values()
    for a, b in itertools.combinations(values, 2):
        if type(a) is not type(b):
            assert a != b, (a, b)
    keyed = {v: i for i, v in enumerate(values)}
    assert len(keyed) == len(values)


def test_a_map_and_a_table_keep_terms_and_atoms_apart():
    sub = Substitution({
        CanonTerm(SYM_R1A, (1,)): num_val(1),
        CanonForm(1): TOP_VAL,
        CanonTerm(SYM_0, ()): UNKNOWN,
    })
    assert len(sub) == 3
    assert sub.raw(CanonForm(1)) == TOP_VAL
    assert sub.raw(CanonTerm(SYM_R1A, (1,))) == num_val(1)
    assert sub.raw(CanonForm(0)) is None


def test_a_run_keys_every_expression_and_verdict_by_what_it_denotes():
    """Over a run with rollbacks, two keys are equal exactly when their
    texts are: the substitution's entries, the table's reverse index and
    the table's verdict keys neither merge nor split."""
    problem = parse_problem(CASCADE.read_text())
    crs, ctx = problem.crits, problem.ctx
    hs = HistoricalSubstitution.initial(ctx.omega_sym)
    verdicts, k = table_for(crs, ctx.omega_sym), 0
    while not is_solving(hs.sub, crs, verdicts):
        hs, k = h_step(hs, crs, ctx, k, verdicts)[0], k + 1
        assert is_correct(hs.sub, ctx, verdicts)
        entries = [e for e, _ in hs.sub.items()]
        assert len({canon_sexpr(e) for e in entries}) == len(entries)
    readers = list(verdicts._readers)
    assert {type(e) for e in readers} == {CanonTerm, CanonForm}
    assert len({canon_sexpr(e) for e in readers}) == len(readers)

    def key_text(key) -> str:
        if type(key) is int:
            return str(key)
        head, e, u = key
        return f"{head} {canon_sexpr(e)} {u}"

    keys = list(verdicts._memo)
    assert {type(k) for k in keys} == {int, tuple}
    assert len({key_text(k) for k in keys}) == len(keys)


def test_ranks_sort_in_ordinal_order():
    grid = [Rank.fin(n) for n in range(4)] + [OMEGA] + [Rank.omega_plus(n) for n in range(4)]
    assert [str(r) for r in grid] == [
        "0", "1", "2", "3", "Omega", "Omega+1", "Omega+2", "Omega+3", "Omega+4",
    ]
    rng = random.Random(7)
    for _ in range(20):
        shuffled = grid[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == grid
    for i, j in itertools.combinations(range(len(grid)), 2):
        assert grid[i] < grid[j] and not grid[j] <= grid[i]
    assert OMEGA.is_omega and not Rank.fin(1).is_omega and not Rank.omega_plus(0).is_omega
    assert Rank(1) == OMEGA and Rank.fin(0) == Rank(0)


def step_values() -> dict:
    problem = parse_problem(CASCADE.read_text())
    hs = HistoricalSubstitution.initial(problem.ctx.omega_sym)
    plan = reference_compute_plan(hs, problem.crits, problem.ctx)
    fresh = table_for(problem.crits, problem.ctx.omega_sym)
    record = h_step(hs, problem.crits, problem.ctx, 0, fresh)[1]
    return {
        CanonTerm: CanonTerm(SYM_R1A, (2,)),
        CanonForm: CanonForm(2),
        Value: num_val(2),
        Rank: Rank.fin(2),
        StepPlan: plan,
        HStep: record,
    }


def test_no_field_can_be_assigned_and_none_is_a_dataclass():
    for cls, value in step_values().items():
        assert type(value) is cls
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
        fields = ("sym", "args") if cls is CanonTerm else cls._fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1


def test_values_print_as_before():
    assert repr(CanonForm(3)) == "CanonForm(n=3)"
    assert repr(num_val(2)) == "Value(kind='num', n=2)"
    assert repr(Rank.fin(1)) == "Rank(kind=0, n=1)"
    assert repr(CanonTerm(SYM_0, ())) == f"CanonTerm(sym={SYM_0!r}, args=())"
    assert [str(u) for u in (num_val(2), TOP_VAL, UNKNOWN)] == ["2", "top", "?"]
    assert canon_sexpr(CanonTerm(SYM_R1A, (1,))) == "((c (= v0 v1)) 1)"
    assert canon_sexpr(CanonTerm(SYM_0, ())) == "(c (= v0 v0))"
    assert serialize(Substitution({CanonForm(1): TOP_VAL})) == "{((in 1 I) top)}"


def test_the_command_line_loads_no_dataclass_machinery():
    code = "import sys, epsengine.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_critical_formulas_of_different_kinds_are_never_equal():
    cf = make_epsilon(num(2), lt(num(1), Var(0)))
    other = InductionCF(cf.t, cf.phi, cf.sym, cf.args, cf.formula)
    assert cf[:-1] == other[:-1]  # the same parts
    assert cf != other and other != cf and len({cf, other}) == 2


def test_a_membership_history_is_read_only():
    problem = parse_problem(CASCADE.read_text())
    outcome = run(problem.crits, problem.ctx)
    hs = next(s for s in (outcome.hs, outcome.before) if s.v)
    with pytest.raises(TypeError):
        hs.v[hs.p[0]] = Substitution({})
    built = {0: Substitution({})}
    hs = HistoricalSubstitution(hs.sub, (0,), built)
    built[1] = Substitution({})  # the history keeps its own copy
    assert list(hs.v) == [0]
    with pytest.raises(TypeError):
        hs.v[0] = Substitution({})
    assert HistoricalSubstitution(hs.sub).v == {}


def test_a_run_needs_at_least_one_step():
    assert RunConfig().max_steps is None
    with pytest.raises(ValueError, match="^max-steps must be at least 1$"):
        RunConfig(max_steps=0)
