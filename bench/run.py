"""Benchmark for the `run` and `check` commands of epsengine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Without --workload, every workload runs
in turn in this one process, each printing its own lines.  The workload's problems are generated
from the seed (see workloads.py) and written to a scratch directory under
bench/out/.  Each pass imports the engine afresh, calls
`epsengine.cli.cmd_run` on every problem, with a trace file, and then
`epsengine.cli.cmd_check` on every trace; passes repeat until S seconds
have gone, and each problem's least time over the passes counts (see
README.md for why).  Every output is checked: exit
codes, the trace summary, each goal witness (by the evaluator in
arith.py), the replay verdict, byte-identical traces across passes, and
the final-substitution digests recorded in digests.json.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (spans go to bench/out/spans-WORKLOAD-seedN.jsonl).  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
benchmark could not start.  `--record-digests N` rewrites digests.json
for seeds 0..N-1 instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import arith
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_ROUNDS = 3  # before the first pass; each pass adds one more
MIN_PASSES = 3  # per measured phase

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "check_s": "s",
    "steps_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "process.plan_s": "s",
    "process.analyze_calls": "count",
    "process.analyze_useful_ratio": "ratio",
    "process.candidates": "count",
    "process.us_per_candidate": "us",
    "substitution.is_ci_s": "s",
    "substitution.is_ci_entries": "count",
    "process.apply_s": "s",
    "process.steps.low": "count",
    "process.steps.high": "count",
    "process.steps.omega-pos": "count",
    "process.steps.omega-neg": "count",
    "history.rollback_members": "count",
    "process.is_solving_s": "s",
    "process.is_solving_calls": "count",
    "process.h_step_self_s": "s",
    "substitution.digest_s": "s",
    "cli.trace_lines_s": "s",
    "problems.parse_s": "s",
    "problems.bytes_per_s": "B/s",
    "history.validate_s": "s",
    "substitution.is_correct_s": "s",
    "trace.overhead_s": "s",
}

RUN_ROOT = "cli.cmd_run"
CHECK_ROOT = "cli.cmd_check"
WITNESS_LINE = re.compile(r"^goal .*: witness (\d+); ")


# ---------------------------------------------------------------------------
# set-up: import the engine and parse the workload

def import_engine():
    """Import epsengine afresh and return its cli, process and problems modules."""
    for name in [m for m in sys.modules if m == "epsengine" or m.startswith("epsengine.")]:
        del sys.modules[name]
    importlib.import_module("epsengine.cli")
    return tuple(sys.modules[f"epsengine.{m}"] for m in ("cli", "process", "problems"))


def set_up(problems: list[workloads.Problem]):
    """Import the engine afresh and parse every problem; return seconds and modules."""
    t0 = perf_counter()
    engine = import_engine()
    for p in problems:
        engine[2].parse_problem(p.text)
    return perf_counter() - t0, engine


# ---------------------------------------------------------------------------
# one problem: run, check the outputs, replay

class Bench:
    """A workload's problems on disk, the checks on their outputs, and the tally."""

    def __init__(self, problems, work: Path, expected: list[str] | None):
        self.problems = problems
        self.setup_times = []
        for _ in range(SETUP_ROUNDS):
            self.set_up()
        self.paths = []
        for i, p in enumerate(problems):
            path = work / f"{i:03d}.eps"
            path.write_text(p.text, encoding="utf-8")
            self.paths.append((str(path), str(work / f"{i:03d}.jsonl")))
        self.expected = expected
        # (trace bytes, report) of the first pass, and whether they passed
        self.first: list[tuple | None] = [None] * len(problems)
        self.digests: list[str] = [""] * len(problems)
        self.steps = [0] * len(problems)
        self.cases: Counter = Counter()
        self.attempts = 0
        self.failed = 0  # attempts (one run and its replay) with a failed check
        self.failures: list[str] = []

    def set_up(self) -> None:
        dt, self.engine = set_up(self.problems)
        self.cli = self.engine[0]
        self.setup_times.append(dt)

    def fail(self, i: int, what: str) -> None:
        self.failures.append(f"{self.problems[i].name}: {what}")

    def timed(self, tracer: Tracer | None, root: str, i: int, fn, *args, **kwargs):
        """Call fn, under a root span when tracing; return its result and seconds."""
        t0 = perf_counter()
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.root_call(root, self.problems[i].name, fn, *args, **kwargs)
        return result, perf_counter() - t0

    def run_one(self, i: int, tracer: Tracer | None) -> tuple[float, bool]:
        path, trace = self.paths[i]
        out, err = io.StringIO(), io.StringIO()
        cfg = self.cli.RunConfig(trace=trace)
        rc, dt = self.timed(tracer, RUN_ROOT, i, self.cli.cmd_run, path, cfg, out=out, err=err)
        if rc != 0:
            self.fail(i, f"run exit {rc}: {err.getvalue().strip()}")
            return dt, False
        got = (Path(trace).read_bytes(), out.getvalue())
        if self.first[i] is None:
            self.first[i] = (got, self.inspect(i, *got))
        elif got != self.first[i][0]:
            self.fail(i, "trace or report differs from the first pass")
            return dt, False
        return dt, self.first[i][1]

    def inspect(self, i: int, trace: bytes, report: str) -> bool:
        """Check one problem's first trace and report without the engine."""
        p = self.problems[i]
        records = [json.loads(line) for line in trace.decode().splitlines()]
        summary = records[-1]
        steps = [r for r in records if r.get("type") == "step"]
        if records[0].get("type") != "header" or summary.get("type") != "summary":
            self.fail(i, "trace lacks its header or summary")
            return False
        if summary["status"] != "solved" or summary["steps"] != len(steps):
            self.fail(i, f"trace summary {summary['status']} / {summary['steps']} steps")
            return False
        if f"solved in {len(steps)} steps" not in report.splitlines():
            self.fail(i, "report disagrees with the trace on the step count")
            return False
        found = [int(m.group(1)) for m in map(WITNESS_LINE.match, report.splitlines()) if m]
        if len(found) != len(p.goals):
            self.fail(i, f"{len(found)} witnesses for {len(p.goals)} goals")
            return False
        for goal, n in zip(p.goals, found):
            if not arith.witnesses(goal.text, n) or goal.expect not in (None, n):
                self.fail(i, f"witness {n} does not satisfy {goal.text}")
                return False
        cases = Counter(s["rankCase"] for s in steps)
        self.cases += cases
        self.steps[i] = len(steps)
        final = hashlib.sha256(summary["final"].encode()).hexdigest()[:16]
        per_case = ",".join(f"{k}={v}" for k, v in sorted(cases.items()))
        self.digests[i] = hashlib.sha256(f"{per_case}|{final}".encode()).hexdigest()[:8]
        if self.expected is not None and self.expected[i] != self.digests[i]:
            self.fail(i, f"digest {self.digests[i]} differs from the recorded {self.expected[i]}")
            return False
        return True

    def check_one(self, i: int, tracer: Tracer | None) -> tuple[float, bool]:
        path, trace = self.paths[i]
        out, err = io.StringIO(), io.StringIO()
        rc, dt = self.timed(tracer, CHECK_ROOT, i, self.cli.cmd_check, trace, path, out=out, err=err)
        if rc != 0 or out.getvalue() != f"trace verified: {self.steps[i]} steps\n":
            self.fail(i, f"check exit {rc}: {err.getvalue().strip()}")
            return dt, False
        return dt, True

    def one_pass(self, tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
        """Run, then replay, every problem; return the run and check times."""
        runs, checks, failed = [], [], set()
        for i in range(len(self.problems)):
            dt, ok = self.guarded(self.run_one, i, tracer)
            runs.append(dt)
            if not ok:
                failed.add(i)
        for i in range(len(self.problems)):
            dt, ok = (0.0, False) if i in failed else self.guarded(self.check_one, i, tracer)
            checks.append(dt)
            if not ok:
                failed.add(i)
        self.attempts += len(self.problems)
        self.failed += len(failed)
        return runs, checks

    def guarded(self, step, i: int, tracer: Tracer | None) -> tuple[float, bool]:
        # a crash in the engine is a failed attempt, not the end of the run
        try:
            return step(i, tracer)
        except Exception as e:  # noqa: BLE001 - report and go on
            self.fail(i, f"raised {type(e).__name__}: {e}")
            return 0.0, False


# ---------------------------------------------------------------------------
# tracing: wrap the engine's calls between modules

def install(tracer: Tracer, cli, process) -> None:
    def parse(t, args, result):
        t.count("parse_bytes", len(args[0]))

    def analyze(t, args, result):
        t.count("analyze_calls")
        if result is not None:
            t.count("analyze_unsatisfied")

    def apply(t, args, result):
        hs, plan = args[0], args[1]
        t.count(f"steps.{plan.case}")
        if plan.case == "omega-neg":
            t.count("rollback_members", len(hs.p) - len(result.p))

    def guard(t, args, result):
        t.count("is_ci_entries", len(args[0]))

    def solving(t, args, result):
        t.count("is_solving_calls")

    tracer.wrap(cli, "parse_problem", "problems.parse_problem", parse)
    tracer.wrap(cli, "run", "process.run")
    tracer.wrap(cli, "trace_lines", "cli.trace_lines")
    tracer.wrap(process, "h_step", "process.h_step")
    tracer.wrap(process, "is_ci", "substitution.is_ci", guard)
    tracer.wrap(process, "compute_plan", "process.compute_plan")
    tracer.wrap(process, "analyze", "process.analyze", analyze)
    tracer.wrap(process, "_least_witness", "process._least_witness")
    tracer.wrap(process, "instantiate_index", "candidates", span=False)
    tracer.wrap(process, "apply_plan", "process.apply_plan", apply)
    tracer.wrap(process, "is_solving", "process.is_solving", solving)
    tracer.wrap(process, "digest", "substitution.digest")
    tracer.wrap(process, "is_correct", "substitution.is_correct")
    tracer.wrap(process, "validate", "history.validate")


def layer_metrics(totals: dict, counts: Counter) -> dict[str, float]:
    def t(name, root=RUN_ROOT, own=False):
        return totals.get((root, name), (0.0, 0.0))[1 if own else 0]

    def c(name):
        return counts[(RUN_ROOT, name)]

    steps = sum(c(f"steps.{k}") for k in ("low", "high", "omega-pos", "omega-neg"))
    parse_s = t("problems.parse_problem")
    return {
        "process.plan_s": t("process.compute_plan"),
        "process.analyze_calls": c("analyze_calls"),
        "process.analyze_useful_ratio": steps / max(1, c("analyze_unsatisfied")),
        "process.candidates": c("candidates"),
        "process.us_per_candidate": 1e6 * t("process._least_witness") / max(1, c("candidates")),
        "substitution.is_ci_s": t("substitution.is_ci"),
        "substitution.is_ci_entries": c("is_ci_entries"),
        "process.apply_s": t("process.apply_plan"),
        "process.steps.low": c("steps.low"),
        "process.steps.high": c("steps.high"),
        "process.steps.omega-pos": c("steps.omega-pos"),
        "process.steps.omega-neg": c("steps.omega-neg"),
        "history.rollback_members": c("rollback_members"),
        "process.is_solving_s": t("process.is_solving"),
        "process.is_solving_calls": c("is_solving_calls"),
        "process.h_step_self_s": t("process.h_step", own=True),
        "substitution.digest_s": t("substitution.digest"),
        "cli.trace_lines_s": t("cli.trace_lines"),
        "problems.parse_s": parse_s,
        "problems.bytes_per_s": c("parse_bytes") / parse_s if parse_s else 0.0,
        "history.validate_s": t("history.validate", CHECK_ROOT),
        "substitution.is_correct_s": t("substitution.is_correct", CHECK_ROOT),
    }


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Phase:
    """Each problem's best run and check time over a phase's passes."""

    best_run: list[float]
    best_check: list[float]
    passes: int = 0
    layers: list[dict] = field(default_factory=list)  # per traced pass
    gap: float = 0.0  # largest |root duration - sum of self times|


def measure(bench: Bench, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Passes until `seconds` have gone, and at least MIN_PASSES of them.

    Each pass imports the engine afresh; with a tracer, its wrappers go
    onto the fresh modules and come off again after the pass.
    """
    n = len(bench.problems)
    phase = Phase([math.inf] * n, [math.inf] * n)
    deadline = perf_counter() + seconds
    while phase.passes < MIN_PASSES or perf_counter() < deadline:
        bench.set_up()
        if tracer:
            first = len(tracer.spans)
            tracer.counts = Counter()
            install(tracer, *bench.engine[:2])
            try:
                runs, checks = bench.one_pass(tracer)
            finally:
                bench.failures += [f"not restored: {w}" for w in tracer.restore()]
        else:
            runs, checks = bench.one_pass()
        phase.best_run = list(map(min, phase.best_run, runs))
        phase.best_check = list(map(min, phase.best_check, checks))
        phase.passes += 1
        if tracer:
            totals, faults, gap = tracer.layer_times(first)
            bench.failures += faults
            phase.gap = max(phase.gap, gap)
            phase.layers.append(layer_metrics(totals, tracer.counts))
    return phase


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.FAMILIES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--record-digests", type=int, metavar="N")
    args = ap.parse_args(argv)

    if not (SRC / "epsengine" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_digests is not None:
        return record_digests(args.record_digests)
    names = [args.workload] if args.workload else sorted(workloads.FAMILIES)
    return max([bench_workload(args, name) for name in names])


def load_expected(workload: str, seed: int, size: str) -> list[str] | None:
    if size != "full" or not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    return recorded.split() if recorded else None


def bench_workload(args, workload: str) -> int:
    problems = workloads.generate(workload, args.seed, args.size)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        bench = Bench(problems, work, load_expected(workload, args.seed, args.size))
        if args.trace:
            plain = measure(bench, args.seconds / 2)
            tracer = Tracer()
            traced = measure(bench, args.seconds / 2, tracer)
            spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
        else:
            plain = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = sum(plain.best_run)
    if args.trace:
        # times and counts at their least over the traced passes, rates at their most
        metrics = {
            k: (max if unit == "B/s" else min)(p[k] for p in traced.layers)
            for k, unit in PER_LAYER.items()
            if k != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = sum(traced.best_run) - run_s
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(bench.setup_times),
            "run_s": run_s,
            "check_s": sum(plain.best_check),
            "steps_per_s": sum(bench.steps) / run_s,
            "verdict_ms.p50": 1e3 * percentile(plain.best_run, 50),
            "verdict_ms.p90": 1e3 * percentile(plain.best_run, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    workload_digest = hashlib.sha256(" ".join(bench.digests).encode()).hexdigest()[:16]
    print(f"workload {workload} seed {args.seed} size {args.size}: "
          f"{len(problems)} problems, {sum(bench.steps)} steps, "
          f"{plain.passes} untraced passes, best time of each problem kept")
    print(f"  steps by case {dict(sorted(bench.cases.items()))}, digest {workload_digest}")
    print(f"  failed_frac {bench.failed / bench.attempts:g} "
          f"({bench.failed} of {bench.attempts} attempts)")
    if args.trace:
        print(f"  traced: {traced.passes} passes, {len(tracer.spans)} spans in "
              f"{spans.relative_to(BENCH_DIR.parent)}; self times sum to each root's "
              f"duration within {traced.gap:.3g} s")
    for line in bench.failures[:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"  {k} {v:.6g} {units[k]}")
    correct = bench.failed == 0 and not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempts,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def record_digests(n_seeds: int) -> int:
    """Record every problem's digest for seeds 0..n-1 at full size."""
    table: dict[str, dict[str, str]] = {}
    for workload in sorted(workloads.FAMILIES):
        table[workload] = {}
        for seed in range(n_seeds):
            problems = workloads.generate(workload, seed)
            work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
            try:
                bench = Bench(problems, work, None)
                bench.one_pass()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            table[workload][str(seed)] = " ".join(bench.digests)
            print(f"{workload} seed {seed}: {sum(bench.steps)} steps", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
