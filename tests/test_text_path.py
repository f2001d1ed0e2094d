"""A problem's text path against what it replaces.

`cli.trace_lines` writes each step line in one f-string, not through the
JSON encoder; the parser and the axiom builders build nodes from their
classes, not through the checked constructors.  Here the step lines are
compared with `_encode(step_record(s))`, and every node of every parsed
problem with its rebuild through the checked constructors, on the
benchmark's corpus seeds 0-3 and families at full size, the sample
problems and random problems from `genexpr`.
"""

import json
import pathlib
import random

import pytest

from conftest import bench_imports
from epsengine import cli
from epsengine.language import to_sexpr
from epsengine.problems import parse_problem
from epsengine.process import HStep, run
from genexpr import random_formula
from reference import check_construction

PROBLEMS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "problems").glob("*.eps")
)
CLAUSE = "(clause (y x X) (or (not (< y x)) (in y X)))"


def _genexpr_texts(n: int = 40) -> list[str]:
    """Problems over random formulas in the hole v0, every other one with
    a clause and membership atoms."""
    rng = random.Random(24)
    texts = []
    for i in range(n):
        member = i % 2 == 1
        lines = [CLAUSE] if member else []
        for _ in range(rng.randint(1, 4)):
            phi = to_sexpr(random_formula(rng, [], 3, allow_inset=member, nvars=1))
            t = rng.randint(0, 4)
            kinds = ("pred", "eps", "ind") + (("inddef", "closure") if member else ())
            kind = rng.choice(kinds)
            lines.append({
                "pred": f"(crit pred {t})",
                "eps": f"(crit eps {t} (exists (v0) {phi}))",
                "ind": f"(crit ind (v0) {phi} {t})",
                "inddef": f"(crit inddef {t})",
                "closure": f"(crit closure (v0) {phi})",
            }[kind])
        if not member:
            phi = to_sexpr(random_formula(rng, [], 2, nvars=1))
            lines.append(f"(goal (exists (v0) {phi}) (candidates {rng.randint(0, 4)}))")
        texts.append("\n".join(lines) + "\n")
    return texts


def _texts() -> list[tuple[str, str]]:
    with bench_imports():
        import workloads

        texts = [
            (f"corpus-{seed}/{p.name}", p.text)
            for seed in range(4)
            for p in workloads.generate("corpus", seed, "full")
        ]
        texts += [
            (f"{w}/{p.name}", p.text)
            for w in ("eps_chain", "omega_ladder")
            for p in workloads.generate(w, 1, "full")
        ]
    texts += [(p.name, p.read_text()) for p in PROBLEMS]
    texts += [(f"genexpr-{i}", t) for i, t in enumerate(_genexpr_texts())]
    return texts


TEXTS = _texts()


@pytest.fixture(scope="module")
def runs():
    """Each problem's text, parse and outcome, at most 200 steps each."""
    out = []
    for name, text in TEXTS:
        problem = parse_problem(text)
        out.append((name, text, problem, run(problem.crits, problem.ctx, max_steps=200)))
    return out


def test_the_inputs_take_every_step_case(runs):
    cases = {s.case for *_, outcome in runs for s in outcome.steps}
    assert cases == {"low", "high", "omega-pos", "omega-neg"}
    assert sum(len(outcome.steps) for *_, outcome in runs) > 2500
    assert any(s.v_added for *_, outcome in runs for s in outcome.steps)


def test_each_step_line_is_the_encoded_step_record(runs):
    for name, text, problem, outcome in runs:
        lines = cli.trace_lines(text, outcome)
        assert len(lines) == len(outcome.steps) + 2, name
        header = {"type": "header", "format": cli.TRACE_FORMAT}
        header["problem"] = cli._problem_digest(text)
        assert lines[0] == cli._encode(header)
        assert lines[-1] == cli._encode(cli.summary_record(outcome))
        for line, s in zip(lines[1:-1], outcome.steps):
            record = cli.step_record(s)
            assert line == cli._encode(record), (name, s.index)
            assert json.loads(line) == record, (name, s.index)


def test_step_lines_sort_members_as_text_and_escape_as_the_encoder(runs):
    """Members 9 and 10: the encoder's sort_keys puts "10" before "9".
    Strings that need escapes are escaped as the encoder escapes them."""
    name, text, problem, outcome = runs[0]
    odd = "\"q\" \\ é ☃ \x01\n"
    steps = [
        HStep(0, 3, "omega-pos", "(in 10 I)", "1", "Omega", "{}", "{}",
              ("a", odd), (), (9, 10), {9: "0", 10: odd, 2: "1"}, (), False),
        HStep(1, 0, "omega-neg", odd, odd, odd, odd, odd,
              (), (odd, "b"), (), {}, (10, 9), True),
    ]
    lines = cli.trace_lines(text, outcome._replace(steps=steps))
    assert '"Vadded":{"10":' in lines[1] and '"9":"0"}' in lines[1]
    for line, s in zip(lines[1:-1], steps):
        assert line == cli._encode(cli.step_record(s))
        assert json.loads(line) == cli.step_record(s)


def test_every_parsed_node_is_what_the_checked_constructors_build(runs):
    for name, _, problem, _ in runs:
        check_construction(problem, name)
