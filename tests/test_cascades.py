"""Regression runs with deep rank-Omega dynamics, pinned step by step."""

import io
import json
from pathlib import Path

from epsengine.cli import RunConfig, cmd_check, cmd_explain, cmd_run, trace_lines
from epsengine.problems import parse_problem
from epsengine.process import run

HERE = Path(__file__).parent
CASCADE = HERE / ".." / "problems" / "rebuild_cascade.eps"
GOLDEN = HERE / "golden" / "rebuild_cascade.jsonl"
GOLDEN_EXPLAIN = HERE / "golden" / "rebuild_cascade.explain.txt"


def test_low_step_after_rollback_rebuilds_membership():
    """A low step whose scrutinee ran through a wiped witness refires late."""
    text = """
(clause (y x X) (or (not (< y x)) (in y X)))
(crit eps 2 (exists (w) (not (or (not (< w 3)) (< w 2)))))
(crit inddef 0)
(crit inddef 3)
(crit eps 3 (exists (w) (not (or (not (in w I)) (< w 2)))))
(crit closure (z) (< z 2))
(crit pred (+ 1 (* 0 1)))
(crit eps (s 0) (exists (q) (= q (s 0))))
"""
    p = parse_problem(text)
    out = run(p.crits, p.ctx, max_steps=10**4, check=True)
    assert out.solved
    assert [s.case for s in out.steps] == [
        "low",
        "low",
        "omega-pos",
        "omega-pos",
        "high",
        "omega-neg",
    ]


def test_rebuild_cascade_sequence():
    """Displaced witness entries let members re-enter in a new order."""
    text = CASCADE.read_text()
    p = parse_problem(text)
    out = run(p.crits, p.ctx, max_steps=10**4, check=True)
    assert out.solved and len(out.steps) == 22
    cases = [s.case for s in out.steps]
    assert cases[6] == "omega-neg"
    # the rollback drops members 3 and 4; they re-enter reversed
    assert out.steps[6].p_after == (0,)
    assert out.steps[7].p_after == (0, 4)
    assert out.steps[8].p_after == (0, 4, 3)
    # both closures settle by refuting their premises with low steps
    assert cases[10] == "low" and cases[16] == "low"
    assert out.hs.p == (0, 3, 4)


def test_rebuild_cascade_matches_golden_trace(tmp_path):
    """The structured trace format is pinned byte for byte."""
    text = CASCADE.read_text()
    p = parse_problem(text)
    out = run(p.crits, p.ctx, max_steps=10**4, check=True)
    got = trace_lines(text, out)
    want = GOLDEN.read_text().splitlines()
    assert got == want
    # and the recorded file still replays through the command line
    assert cmd_check(str(GOLDEN), str(CASCADE), out=io.StringIO()) == 0


def test_rebuild_cascade_explains_every_step_as_pinned():
    """`explain K` for K = 0..22 (the last says it is already solving),
    pinned byte for byte: each chosen axiom prints as the instance its
    `At` nodes stand for."""
    out = io.StringIO()
    for k in range(23):
        assert cmd_explain(str(CASCADE), k, out=out, err=out) == 0
    assert out.getvalue() == GOLDEN_EXPLAIN.read_text()
    assert out.getvalue().endswith("already solving\n")


def test_cascade_histories_stay_admissible():
    from epsengine.history import is_admissible

    text = CASCADE.read_text()
    p = parse_problem(text)
    out = run(p.crits, p.ctx, max_steps=10**4)
    for step in out.steps:
        assert is_admissible(step.p_after, p.ctx)
