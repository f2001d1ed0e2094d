"""The benchmark's tracer wraps engine attributes by name; they must exist.

`bench/run.py --trace 1` replaces functions such as `cli.run` and
`process.is_solving` by timing wrappers.  A rename in the engine would
break that silently, so this test installs the wrappers on freshly
imported engine modules and checks that every one comes off again.
"""

import io


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
    # one satisfaction test for the initial state and one per step
    steps = t.counts[(bench_run.RUN_ROOT, "steps.low")]
    assert steps == 1
    assert t.counts[(bench_run.RUN_ROOT, "is_solving_calls")] == steps + 1
