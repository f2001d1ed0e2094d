"""The benchmark's recorded digests, checked in the test suite.

`bench/digests.json` records, per problem of every workload, a digest of
the step cases and the final substitution.  One pass of each workload at
full size and seed 0 against those digests turns a change in step results
into a test failure, not only a benchmark failure.
"""

import pytest


@pytest.mark.parametrize("workload", ["corpus", "eps_chain", "omega_ladder"])
def test_workload_matches_recorded_digests(bench_modules, tmp_path, workload):
    bench_run, _ = bench_modules
    problems = bench_run.workloads.generate(workload, 0, "full")
    expected = bench_run.load_expected(workload, 0, "full")
    assert expected is not None and len(expected) == len(problems)
    bench = bench_run.Bench(problems, tmp_path, expected)
    bench.one_pass()
    assert bench.failures == []
    assert bench.failed == 0
