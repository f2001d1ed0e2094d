"""The benchmark's tracer wraps engine attributes by name; they must exist.

`bench/run.py --trace 1` replaces functions such as `cli.run` and
`process.is_solving` by timing wrappers.  A rename in the engine would
break that silently, so this test installs the wrappers on freshly
imported engine modules and checks that every one comes off again.
"""

import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_wraps_existing_engine_attributes(bench_modules, tmp_path):
    bench_run, tracer = bench_modules
    cli, process, _ = bench_run.import_engine()
    t = tracer.Tracer()
    bench_run.install(t, cli, process)
    try:
        problem = tmp_path / "p.eps"
        problem.write_text("(crit eps 2 (exists (x) (= x 2)))\n")
        trace = str(tmp_path / "t.jsonl")
        code = t.root_call(
            bench_run.RUN_ROOT, "p", cli.cmd_run, str(problem),
            cli.RunConfig(trace=trace), out=io.StringIO(), err=io.StringIO(),
        )
        assert code == 0
    finally:
        assert t.restore() == []
    # one satisfaction test and one guard for the initial state, and one
    # of each per step
    steps = t.counts[(bench_run.RUN_ROOT, "steps.low")]
    assert steps == 1
    assert t.counts[(bench_run.RUN_ROOT, "is_solving_calls")] == steps + 1
    guards = [
        span for span in t.spans
        if span[0] == "substitution.is_ci" and t.spans[span[5]][0] == bench_run.RUN_ROOT
    ]
    assert len(guards) == steps + 1


def test_every_bench_wrapper_sees_its_layer(bench_modules, tmp_path):
    """A layer the engine renamed or stopped calling reads 0 in the bench;
    here it fails instead.  `run` and `check` of a problem that takes every
    step case must reach each wrapped name at least once."""
    bench_run, tracer = bench_modules
    wrapped = []

    class Listing(tracer.Tracer):
        def wrap(self, module, attr, name, on_call=None, span=True):
            wrapped.append(name)
            super().wrap(module, attr, name, on_call, span)

    cli, process, _ = bench_run.import_engine()
    t = Listing()
    bench_run.install(t, cli, process)
    problem = str(ROOT / "problems" / "closure_rollback.eps")
    trace = str(tmp_path / "t.jsonl")
    try:
        run_code = t.root_call(
            bench_run.RUN_ROOT, "p", cli.cmd_run, problem,
            cli.RunConfig(trace=trace), out=io.StringIO(), err=io.StringIO(),
        )
        check_code = t.root_call(
            bench_run.CHECK_ROOT, "p", cli.cmd_check, trace, problem,
            out=io.StringIO(), err=io.StringIO(),
        )
    finally:
        assert t.restore() == []
    assert (run_code, check_code) == (0, 0)
    seen = {span[0] for span in t.spans} | {name for _, name in t.counts}
    assert len(wrapped) > 10
    # The witness search evaluates compiled index formulas at the hole and
    # no longer calls `instantiate_index`, so the bench's candidate counter
    # reads 0 until the next change to the benchmark gives it a new
    # counting point; that change should make this list empty again.
    assert [name for name in wrapped if name not in seen] == ["candidates"]
