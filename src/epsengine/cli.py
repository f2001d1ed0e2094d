"""Command line driver: run a problem, re-check a trace, explain a step."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

from .language import Expr, FnApp, InSet, Numeral, Var, _apply_fn, to_sexpr
from .problems import ParseError, Problem, parse_problem
from .process import (
    Goal,
    HStep,
    Outcome,
    ProcessInvariantError,
    extract_witness,
    run,
)
from .substitution import Substitution, compiled, serialize

EXIT_SOLVED = 0
EXIT_INPUT = 1
EXIT_STEP_LIMIT = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_STEPS = 10**6
TRACE_FORMAT = 1  # the header's "format"; `check` replays no other


class RunConfig:
    def __init__(
        self,
        max_steps: int | None = None,  # None: the problem's max-steps option
        check: bool = False,
        trace: str | None = None,
        fmt: str = "text",
    ) -> None:
        if max_steps is not None and max_steps < 1:
            raise ValueError("max-steps must be at least 1")
        self.max_steps, self.check, self.trace, self.fmt = max_steps, check, trace, fmt


def _problem_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# one encoder for every record: json.dumps with these arguments builds a
# new encoder at each call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def step_record(step: HStep) -> dict:
    return {
        "type": "step",
        "step": step.index,
        "I": step.cr_index,
        "rankCase": step.case,
        "rank": step.rank,
        "e": step.e,
        "v": step.v,
        "before": step.before,
        "after": step.after,
        "added": list(step.added),
        "removed": list(step.removed),
        "P": list(step.p_after),
        "Vadded": {str(k): v for k, v in sorted(step.v_added.items())},
        "Vremoved": list(step.v_removed),
        "solving": step.solving,
    }


def summary_record(outcome: Outcome) -> dict:
    return {
        "type": "summary",
        "status": outcome.status,
        "steps": len(outcome.steps),
        "final": serialize(outcome.hs.sub),
    }


def trace_lines(problem_text: str, outcome: Outcome) -> list[str]:
    header = {
        "type": "header",
        "format": TRACE_FORMAT,
        "problem": _problem_digest(problem_text),
    }
    lines = [_encode(header)]
    q = encode_basestring_ascii  # what `_encode` quotes a string with
    for (
        index, cr_index, case, e, v, rank, before, after,
        added, removed, p_after, v_added, v_removed, solving,
    ) in outcome.steps:
        # `_encode(step_record(s))`, its keys in sorted order, in one string
        lines.append(
            f'{{"I":{cr_index},"P":[{",".join(map(str, p_after))}],'
            f'"Vadded":{{{_members(v_added) if v_added else ""}}},'
            f'"Vremoved":[{",".join(map(str, v_removed))}],'
            f'"added":[{",".join(map(q, added))}],"after":{q(after)},'
            f'"before":{q(before)},"e":{q(e)},"rank":{q(rank)},'
            f'"rankCase":{q(case)},"removed":[{",".join(map(q, removed))}],'
            f'"solving":{"true" if solving else "false"},"step":{index},'
            f'"type":"step","v":{q(v)}}}'
        )
    lines.append(_encode(summary_record(outcome)))
    return lines


def _members(v_added: dict[int, str]) -> str:
    """The members of a step's "Vadded" object: keyed by the member's
    numeral as text and sorted as text, so "10" comes before "9"."""
    items = sorted([(str(m), v) for m, v in v_added.items()])
    return ",".join([f'"{m}":{encode_basestring_ascii(v)}' for m, v in items])


def _read(path: str, err) -> tuple[str, tuple[int, int]] | None:
    """The file's text and identity, `(st_dev, st_ino)`, or None after a
    one-line error on err.

    The bytes are decoded as UTF-8, with the newlines text mode reads: a
    carriage return, alone or before a line feed, is a line feed.  One
    leading byte order mark is not part of the text.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
            st = os.fstat(fh.fileno())
    except OSError as e:
        print(f"error: {e}", file=err)
        return None
    try:
        text = data.decode()
    except UnicodeDecodeError as e:  # e.start counts from the file's first byte
        print(f"error: {path}: not UTF-8 (byte {e.start})", file=err)
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text[1:] if text[:1] == "\ufeff" else text, (st.st_dev, st.st_ino)


def _load(path: str, err) -> tuple[str, Problem, tuple[int, int]] | None:
    """A problem file's text, parse and identity, or None after a one-line
    error."""
    read = _read(path, err)
    if read is None:
        return None
    text, ident = read
    try:
        return text, parse_problem(text), ident
    except ParseError as e:
        print(f"error: {path}:{e}", file=err)
    except RecursionError:
        print(f"error: {path}: nesting too deep", file=err)
    return None


# the empty map: maps are immutable, so one serves all
_EMPTY = Substitution.empty()


def witness_line(sub: Substitution, goal: Goal) -> str:
    """The report line of one goal on a final substitution."""
    try:
        n = extract_witness(sub, goal)
    except ProcessInvariantError:
        return f"goal {goal.text}: not decided true"
    holds = compiled(goal.phi)((n,), _EMPTY) is True
    return (
        f"goal {goal.text}: witness {n}; "
        f"instance {_at_hole(goal.phi, n)[0]} is {'true' if holds else 'false'}"
    )


def _at_hole(e: Expr, n: int) -> tuple[str, int | None]:
    """The text of the template e's instance at n, as `to_sexpr` prints the
    tree `substitute` would build, and the numeral it folds to, or None:
    arithmetic over numerals folds as `language.fn` folds it."""
    if e.closed:
        return to_sexpr(e), e.value if e.__class__ is Numeral else None
    if e.__class__ is Var:
        return (str(n), n) if e.index == 0 else (e.head, None)
    parts, values = [], []
    for k in e.kids:
        text, value = _at_hole(k, n)
        parts.append(text)
        values.append(value)
    if e.__class__ is FnApp and None not in values:
        value = _apply_fn(e.fn, values)
        return str(value), value
    if e.__class__ is InSet:
        return f"(in {parts[0]} I)", None
    return f"({e.head} {' '.join(parts)})", None


# A trace is opened twice, neither time with O_TRUNC.  ext4, with its default
# auto_da_alloc, takes a truncation to zero and then a write for a "replace
# via truncate" and flushes the file when that handle is closed, which over
# an old trace costs several times the write.  So the first handle truncates
# before the run and writes nothing, and closing it drops that flag with
# nothing to flush; the second, opened before the first is closed so that a
# FIFO's reader never sees EOF between them, writes the trace after the run.
_TRACE_FLAGS = os.O_WRONLY | os.O_CREAT


def cmd_run(path: str, cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    loaded = _load(path, err)
    if loaded is None:
        return EXIT_INPUT
    text, problem, ident = loaded
    max_steps = cfg.max_steps or problem.max_steps or DEFAULT_MAX_STEPS
    fd = None
    try:
        if cfg.trace is not None:  # "" too: it fails as a path that cannot be opened
            try:  # a trace path that cannot be written fails before the run
                fd = os.open(cfg.trace, _TRACE_FLAGS, 0o666)
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode):  # O_TRUNC leaves FIFOs and devices be
                    if (st.st_dev, st.st_ino) == ident:
                        print(f"error: {path}: --trace names the problem file", file=err)
                        return EXIT_INPUT
                    os.ftruncate(fd, 0)
            except OSError as e:
                print(f"error: {e}", file=err)
                return EXIT_INPUT
        outcome = run(
            problem.crits, problem.ctx, max_steps=max_steps, check=cfg.check
        )
        trace = None  # the text format writes it only to --trace
        if fd is not None or cfg.fmt == "structured":
            trace = "\n".join(trace_lines(text, outcome)) + "\n"
        if fd is not None:
            try:
                with open(os.open(cfg.trace, _TRACE_FLAGS, 0o666), "wb") as fh:
                    first, fd = fd, None
                    os.close(first)
                    fh.write(trace.encode())
            except OSError as e:
                print(f"error: {e}", file=err)
                return EXIT_INPUT
    finally:
        if fd is not None:
            os.close(fd)
    reports, overflow = [], False  # in either format, for the exit code
    if outcome.solved:
        try:  # compiling a goal may overflow, as compiling a formula may
            for spec in problem.goals:
                reports.append(witness_line(outcome.hs.sub, spec.goal))
        except RecursionError:
            reports.append("internal-error: formula nesting too deep")
            overflow = True
    if cfg.fmt == "structured":
        out.write(trace)
        if overflow:  # stdout keeps exactly the trace
            print(reports[-1], file=err)
    else:
        report = [
            f"step {s.index}: Cr[{s.cr_index}] case {s.case} "
            f"rank {s.rank}: {s.e} := {s.v}"
            for s in outcome.steps
        ]
        if outcome.solved:
            report.append(f"solved in {len(outcome.steps)} steps")
        else:
            report.append(f"{outcome.status}: {outcome.diagnostics}")
        report.append(f"final substitution: {serialize(outcome.hs.sub)}")
        report += reports
        out.write("\n".join(report) + "\n")
    if overflow:
        return EXIT_INTERNAL
    if outcome.status == "solved":
        return EXIT_SOLVED
    if outcome.status == "step-limit":
        return EXIT_STEP_LIMIT
    return EXIT_INTERNAL


def _layout_error(types: list) -> str | None:
    """What breaks the layout `run` writes, one header, the steps, and at
    most one summary, last; None when nothing does.  A trace without a
    summary passes, as a killed run leaves one."""
    seen = set()
    for i, t in enumerate(types):
        if t not in ("header", "step", "summary"):
            return f"record {i} has unknown type {json.dumps(t)}"
        if t != "step" and t in seen:
            return f"record {i} is a second {t}"
        if "summary" in seen:
            return f"record {i} follows the summary"
        seen.add(t)
    return None


def cmd_check(trace_path: str, problem_path: str, out=None, err=None) -> int:
    """Replay a trace: re-derive every step and compare record for record."""
    out = out or sys.stdout
    err = err or sys.stderr
    read = _read(trace_path, err)
    if read is None:
        return EXIT_INPUT
    trace = read[0]
    recorded = []
    for n, line in enumerate(trace.split("\n"), 1):  # each record on its line
        try:
            if line.strip():
                recorded.append(json.loads(line))
        except json.JSONDecodeError as e:
            print(f"error: {trace_path}:{n}:{e.colno}: {e.msg}", file=err)
            return EXIT_INPUT
        except ValueError as e:  # e.g. an integer past the digit limit
            print(f"error: {trace_path}:{n}: {e}", file=err)
            return EXIT_INPUT
        except RecursionError:
            print(f"error: {trace_path}:{n}: nesting too deep", file=err)
            return EXIT_INPUT
    loaded = _load(problem_path, err)
    if loaded is None:
        return EXIT_INPUT
    text, problem, _ = loaded
    bad = [i for i, r in enumerate(recorded) if not isinstance(r, dict)]
    if bad:
        print(f"trace: record {bad[0]} is not a JSON object", file=err)
        return EXIT_INPUT
    if not recorded or recorded[0].get("type") != "header":
        print("trace: missing header record", file=err)
        return EXIT_INPUT
    fmt = recorded[0].get("format")
    if type(fmt) is not int or fmt != TRACE_FORMAT:
        print(f"trace: unsupported format {json.dumps(fmt)}", file=err)
        return EXIT_INPUT
    if recorded[0].get("problem") != _problem_digest(text):
        print("trace: header does not match the problem file", file=err)
        return EXIT_INPUT
    layout = _layout_error([r.get("type") for r in recorded])
    if layout is not None:
        print(f"trace: {layout}", file=err)
        return EXIT_INPUT
    rec_steps = [r for r in recorded if r.get("type") == "step"]
    rec_summary = [r for r in recorded if r.get("type") == "summary"]

    if rec_summary and rec_summary[0].get("status") == "step-limit":
        max_steps = len(rec_steps)
    else:
        max_steps = max(problem.max_steps or DEFAULT_MAX_STEPS, len(rec_steps))
    outcome = run(problem.crits, problem.ctx, max_steps=max_steps, check=True)
    if outcome.status == "internal-error":
        print(f"replay failed invariants: {outcome.diagnostics}", file=err)
        return EXIT_INTERNAL
    derived = [step_record(s) for s in outcome.steps]
    for i, rec in enumerate(rec_steps):
        if i >= len(derived):
            print(f"divergence at step {i}: replay has no such step", file=err)
            return EXIT_INPUT
        if rec != derived[i]:
            keys = sorted(
                k for k in set(rec) | set(derived[i]) if rec.get(k) != derived[i].get(k)
            )
            print(
                f"divergence at step {i}: fields {', '.join(keys)}", file=err
            )
            return EXIT_INPUT
    if len(derived) != len(rec_steps):
        print(
            f"divergence at step {len(rec_steps)}: trace is missing steps",
            file=err,
        )
        return EXIT_INPUT
    if rec_summary and rec_summary[0] != summary_record(outcome):
        print("divergence in summary record", file=err)
        return EXIT_INPUT
    print(f"trace verified: {len(rec_steps)} steps", file=out)
    return EXIT_SOLVED


def cmd_explain(path: str, step_index: int, out=None, err=None) -> int:
    """Describe step K: run through it, and read it from the run."""
    out = out or sys.stdout
    err = err or sys.stderr
    loaded = _load(path, err)
    if loaded is None:
        return EXIT_INPUT
    problem = loaded[1]
    max_steps = problem.max_steps or DEFAULT_MAX_STEPS
    # outside 0..max_steps-1 there is no step K; the whole run then tells
    # the error message how many steps there are
    in_range = 0 <= step_index < max_steps
    outcome = run(
        problem.crits,
        problem.ctx,
        max_steps=step_index + 1 if in_range else max_steps,
    )
    steps = outcome.steps
    if step_index == len(steps) and outcome.solved:
        print("already solving", file=out)
        return EXIT_SOLVED
    if in_range and outcome.status == "internal-error":
        # the process fails at step K or before it: say why
        print(f"internal-error: {outcome.diagnostics}", file=err)
        return EXIT_INTERNAL
    if not in_range or len(steps) <= step_index:
        print(
            f"error: step {step_index} out of range "
            f"(process ran {len(steps)} steps)",
            file=err,
        )
        return EXIT_INPUT
    record, before, after = steps[-1], outcome.before, outcome.hs
    cf = problem.crits[record.cr_index]
    print(f"step {step_index}", file=out)
    print(f"  chosen Cr[{record.cr_index}]: {cf.kind} {to_sexpr(cf.formula)}", file=out)
    print(f"  analysis: {cf.kind} names {record.e} with value {record.v}", file=out)
    print(f"  rank {record.rank}, case {record.case}", file=out)
    print(f"  before: {serialize(before.sub)}", file=out)
    print(f"  after:  {serialize(after.sub)}", file=out)
    print(f"  P: {list(before.p)} -> {list(after.p)}", file=out)
    return EXIT_SOLVED


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="epsengine",
        description="Run the substitution repair process over a problem file.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a problem to a solving substitution")
    p_run.add_argument("problem")
    p_run.add_argument(
        "--max-steps",
        type=int,
        help="stop after N steps (default: the problem's max-steps option)",
    )
    p_run.add_argument(
        "--check",
        action="store_true",
        help="verify correctness and history validity after every step",
    )
    p_run.add_argument("--trace", help="write the structured trace to a file")
    p_run.add_argument(
        "--format", choices=("text", "structured"), default="text", dest="fmt"
    )

    p_check = sub.add_parser("check", help="replay and verify a recorded trace")
    p_check.add_argument("trace")
    p_check.add_argument("problem")

    p_explain = sub.add_parser("explain", help="describe one step of the run")
    p_explain.add_argument("problem")
    p_explain.add_argument("step", type=int)

    if sys.stdout is None:  # Python starts so when its stdout is closed
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_INPUT
    args = ap.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # here, and not at exit, where it could not be caught
    except BrokenPipeError as e:
        # stdout's reader has gone: what is still buffered goes to devnull, so
        # the flush at exit writes nothing (see the `signal` module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.cmd == "run":
        try:
            cfg = RunConfig(
                max_steps=args.max_steps,
                check=args.check,
                trace=args.trace,
                fmt=args.fmt,
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
        return cmd_run(args.problem, cfg)
    if args.cmd == "check":
        return cmd_check(args.trace, args.problem)
    return cmd_explain(args.problem, args.step)


if __name__ == "__main__":
    sys.exit(main())
