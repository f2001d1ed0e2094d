import errno
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from epsengine import cli, process
from epsengine.cli import (
    DEFAULT_MAX_STEPS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_SOLVED,
    EXIT_STEP_LIMIT,
    RunConfig,
    cmd_check,
    cmd_explain,
    cmd_run,
    main,
)
from epsengine.history import HistoricalSubstitution
from epsengine.language import to_sexpr
from epsengine.problems import ParseError, parse_problem
from epsengine.process import ProcessInvariantError, run
from epsengine.substitution import num_val, serialize
from reference import check_construction, reference_compute_plan

PROBLEMS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "problems").glob("*.eps")
)

EPSILON = "(crit eps (s 0) (exists (x) (= x (s 0))))\n(goal (exists (x) (= x (s 0))) (candidates (s 0)))\n"
ROLLBACK = """\
(clause (y x X) (or (not (< y x)) (in y X)))
(crit eps 2 (exists (w) (not (or (not (< w 3)) (< w 2)))))
(crit inddef 0)
(crit inddef 3)
(crit eps 3 (exists (w) (not (or (not (in w I)) (< w 2)))))
(crit closure (z) (< z 2))
"""
TWO_STEP = "(crit eps 1 (exists (x) (= x 1)))\n(crit eps 2 (exists (x) (= x 2)))\n"


@pytest.fixture
def write(tmp_path):
    def go(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return go


def test_run_epsilon(write, capsys):
    code = cmd_run(write("p.eps", EPSILON), RunConfig())
    out = capsys.readouterr().out
    assert code == EXIT_SOLVED
    assert "solved in 1 steps" in out
    assert "witness 1" in out
    assert "(= 1 1) is true" in out


def test_run_empty_problem(write, capsys):
    code = cmd_run(write("p.eps", "; nothing here\n"), RunConfig())
    out = capsys.readouterr().out
    assert code == EXIT_SOLVED
    assert "solved in 0 steps" in out


def test_run_missing_file(capsys):
    assert cmd_run("/nonexistent.eps", RunConfig()) == EXIT_INPUT


def test_run_parse_error(write, capsys):
    code = cmd_run(write("p.eps", "(crit pred z)\n"), RunConfig())
    assert code == EXIT_INPUT
    assert "unbound" in capsys.readouterr().err


def test_run_step_limit(write, capsys):
    code = cmd_run(write("p.eps", TWO_STEP), RunConfig(max_steps=1))
    assert code == EXIT_STEP_LIMIT


def test_option_max_steps_from_file(write, capsys):
    code = cmd_run(write("p.eps", "(option max-steps 1)\n" + TWO_STEP), RunConfig())
    assert code == EXIT_STEP_LIMIT
    # an explicit flag overrides the file option
    code = cmd_run(
        write("p2.eps", "(option max-steps 1)\n" + TWO_STEP), RunConfig(max_steps=5)
    )
    assert code == EXIT_SOLVED


def test_explicit_max_steps_overrides_file_option(write, capsys):
    # the flag wins even when it equals the default step limit
    path = write("p.eps", "(option max-steps 1)\n" + TWO_STEP)
    assert cmd_run(path, RunConfig(max_steps=DEFAULT_MAX_STEPS)) == EXIT_SOLVED
    assert main(["run", path, "--max-steps", str(DEFAULT_MAX_STEPS)]) == EXIT_SOLVED
    assert main(["run", path]) == EXIT_STEP_LIMIT


def test_structured_output_and_trace(write, tmp_path, capsys):
    trace = str(tmp_path / "out.jsonl")
    path = write("p.eps", ROLLBACK)
    code = cmd_run(path, RunConfig(check=True, trace=trace, fmt="structured"))
    assert code == EXIT_SOLVED
    stdout = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in stdout]
    assert records[0]["type"] == "header"
    steps = [r for r in records if r["type"] == "step"]
    assert [s["rankCase"] for s in steps] == [
        "low",
        "omega-pos",
        "omega-pos",
        "high",
        "omega-neg",
    ]
    assert records[-1]["type"] == "summary"
    assert records[-1]["status"] == "solved"
    assert pathlib.Path(trace).read_text().strip() == "\n".join(stdout)


def test_traces_are_byte_identical(write, tmp_path):
    path = write("p.eps", ROLLBACK)
    t1, t2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert cmd_run(path, RunConfig(trace=t1)) == EXIT_SOLVED
    assert cmd_run(path, RunConfig(trace=t2)) == EXIT_SOLVED
    assert pathlib.Path(t1).read_bytes() == pathlib.Path(t2).read_bytes()


def test_check_verifies_and_detects_tampering(write, tmp_path, capsys):
    path = write("p.eps", ROLLBACK)
    trace = str(tmp_path / "t.jsonl")
    cmd_run(path, RunConfig(trace=trace))
    assert cmd_check(trace, path) == EXIT_SOLVED
    lines = pathlib.Path(trace).read_text().splitlines()
    # tamper with the recorded value of step 0
    tampered = [
        line.replace('"v":"2"', '"v":"3"') if '"step":0' in line else line
        for line in lines
    ]
    bad = str(tmp_path / "bad.jsonl")
    pathlib.Path(bad).write_text("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert cmd_check(bad, path) == EXIT_INPUT
    assert "divergence at step 0" in capsys.readouterr().err


def test_check_detects_reordered_steps(write, tmp_path, capsys):
    path = write("p.eps", ROLLBACK)
    trace = str(tmp_path / "t.jsonl")
    cmd_run(path, RunConfig(trace=trace))
    lines = pathlib.Path(trace).read_text().splitlines()
    steps = [i for i, line in enumerate(lines) if '"type":"step"' in line]
    i, j = steps[1], steps[2]
    lines[i], lines[j] = lines[j], lines[i]
    bad = str(tmp_path / "bad.jsonl")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    assert cmd_check(bad, path) == EXIT_INPUT
    assert "divergence at step" in capsys.readouterr().err


def test_check_rejects_wrong_problem(write, tmp_path, capsys):
    path = write("p.eps", ROLLBACK)
    other = write("q.eps", EPSILON)
    trace = str(tmp_path / "t.jsonl")
    cmd_run(path, RunConfig(trace=trace))
    assert cmd_check(trace, other) == EXIT_INPUT
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [7, "1", True, None])
def test_check_refuses_other_trace_formats(write, tmp_path, capsys, fmt):
    path = write("p.eps", ROLLBACK)
    trace = tmp_path / "t.jsonl"
    cmd_run(path, RunConfig(trace=str(trace)))
    header, *rest = trace.read_text().splitlines()
    record = json.loads(header)
    if fmt is None:
        del record["format"]
    else:
        record["format"] = fmt
    trace.write_text("\n".join([json.dumps(record), *rest]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), path]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"trace: unsupported format {json.dumps(fmt)}"]


def _layouts(lines: list[str]) -> dict:
    """Traces `run` never writes, from the lines of a one-step trace."""
    header, step, summary = lines
    bogus = json.dumps({**json.loads(summary), "status": "bogus"})
    return {
        "record 3 is a second summary": [header, step, summary, bogus],
        'record 1 has unknown type "junk"': [header, '{"type":"junk"}', step, summary],
        "record 2 follows the summary": [header, summary, step],
        "record 3 is a second header": [header, step, summary, header],
    }


def test_check_refuses_a_layout_run_never_writes(write, tmp_path, capsys):
    path = write("p.eps", EPSILON)
    trace = tmp_path / "t.jsonl"
    cmd_run(path, RunConfig(trace=str(trace)))
    lines = trace.read_text().splitlines()
    for message, layout in _layouts(lines).items():
        trace.write_text("\n".join(layout) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace), path]) == EXIT_INPUT, message
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"trace: {message}"]
    # a killed run leaves no summary: the steps are still checked
    trace.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["check", str(trace), path]) == EXIT_SOLVED
    assert capsys.readouterr().out == "trace verified: 1 steps\n"


def test_explain_rollback_step(write, capsys):
    path = write("p.eps", ROLLBACK)
    assert cmd_explain(path, 4) == EXIT_SOLVED
    out = capsys.readouterr().out
    assert "closure" in out
    assert "omega-neg" in out
    assert "P: [0, 3] -> [0]" in out


def test_explain_already_solving(write, capsys):
    path = write("p.eps", "; empty\n")
    assert cmd_explain(path, 0) == EXIT_SOLVED
    assert "already solving" in capsys.readouterr().out


def test_explain_out_of_range(write, capsys):
    path = write("p.eps", EPSILON)
    assert cmd_explain(path, 5) == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


def test_main_entrypoint(write, capsys):
    path = write("p.eps", EPSILON)
    assert main(["run", path]) == EXIT_SOLVED
    capsys.readouterr()
    assert main(["explain", path, "0"]) == EXIT_SOLVED
    capsys.readouterr()
    assert main(["run", path, "--max-steps", "0"]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# files read as bytes: the newlines text mode reads, one leading byte order
# mark skipped, and the one-line messages of files that cannot be read or
# written

BOM = b"\xef\xbb\xbf"


def _main(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _newline_copies(lf: bytes) -> dict[str, bytes]:
    lines = lf.split(b"\n")
    mixed = []  # CRLF, CR and LF in turn; a CR never before an empty line
    for i, line in enumerate(lines[:-1]):
        end = (b"\r\n", b"\r", b"\n")[i % 3]
        mixed.append(line + (b"\r\n" if end == b"\r" and not lines[i + 1] else end))
    mixed.append(lines[-1])
    return {
        "crlf": lf.replace(b"\n", b"\r\n"),
        "cr": lf.replace(b"\n", b"\r"),
        "mixed": b"".join(mixed),
        "bom": BOM + lf,
        "bom-crlf": BOM + lf.replace(b"\n", b"\r\n"),
    }


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_other_newlines_and_a_bom_give_the_lf_files_trace_and_report(
    tmp_path, capsys, path
):
    lf_trace = tmp_path / "lf.jsonl"
    want = _main(["run", str(path), "--trace", str(lf_trace)], capsys)
    assert want[0] == EXIT_SOLVED and want[2] == ""
    copies = _newline_copies(path.read_bytes())
    assert all(b"\r" in data for kind, data in copies.items() if kind != "bom")
    for kind, data in copies.items():
        copy, trace = tmp_path / f"{kind}.eps", tmp_path / f"{kind}.jsonl"
        copy.write_bytes(data)
        assert _main(["run", str(copy), "--trace", str(trace)], capsys) == want, kind
        assert trace.read_bytes() == lf_trace.read_bytes(), kind
        # the header's digest is over the text as read, so the LF file's
        # trace checks against each copy
        got = _main(["check", str(lf_trace), str(copy)], capsys)
        assert got[0] == EXIT_SOLVED and got[2] == "", kind
    # a trace with CRLF newlines reads as the trace it was
    crlf_trace = tmp_path / "crlf-trace.jsonl"
    crlf_trace.write_bytes(lf_trace.read_bytes().replace(b"\n", b"\r\n"))
    assert _main(["check", str(crlf_trace), str(path)], capsys)[0] == EXIT_SOLVED


def test_one_leading_bom_is_skipped(write, tmp_path, capsys):
    plain = _main(["run", write("p.eps", EPSILON)], capsys)
    once, twice = tmp_path / "bom.eps", tmp_path / "bom2.eps"
    once.write_bytes(BOM + EPSILON.encode())
    twice.write_bytes(BOM + BOM + EPSILON.encode())
    assert _main(["run", str(once)], capsys) == plain
    assert _main(["run", str(twice)], capsys) == (
        EXIT_INPUT, "", f"error: {twice}:1:1: unexpected top-level form '\\ufeff'\n"
    )
    only = tmp_path / "only.eps"
    only.write_bytes(BOM)
    empty = _main(["run", write("empty.eps", "")], capsys)
    assert _main(["run", str(only)], capsys) == empty


def _os_error(code: int, path: str) -> str:
    return f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"


def test_file_edge_cases_end_with_the_message_of_each(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("p.eps").write_text(EPSILON)
    pathlib.Path("empty.eps").write_bytes(b"")
    missing = _os_error(errno.ENOENT, "missing.eps")
    is_dir = _os_error(errno.EISDIR, ".")
    for argv, err in [
        (["run", "missing.eps"], missing),
        (["explain", "missing.eps", "0"], missing),
        (["check", "missing.jsonl", "p.eps"], _os_error(errno.ENOENT, "missing.jsonl")),
        (["run", "."], is_dir),
        (["check", ".", "p.eps"], is_dir),
        (["run", "p.eps", "--trace", "."], is_dir),
        (["run", "p.eps", "--trace", "no/such/t.jsonl"],
         _os_error(errno.ENOENT, "no/such/t.jsonl")),
    ]:
        assert _main(argv, capsys) == (EXIT_INPUT, "", err), argv
    # the byte offset of the first byte that is not UTF-8 counts from the
    # file's first byte, a byte order mark's three included, and past the
    # size of one read
    for name, data, at in [
        ("bad.eps", b"(crit pred \xff)\n", 11),
        ("bom-bad.eps", BOM + b"(crit pred \xff)\n", 14),
        ("long-bad.eps", b";" * 10000 + b"\n(crit pred 1 \xc3)\n", 10014),
        ("cut.eps", b"(crit pred 1)\n\xe2\x82", 14),
    ]:
        pathlib.Path(name).write_bytes(data)
        err = f"error: {name}: not UTF-8 (byte {at})\n"
        assert _main(["run", name], capsys) == (EXIT_INPUT, "", err), name
        assert _main(["check", name, "p.eps"], capsys) == (EXIT_INPUT, "", err), name
    # an empty problem is solved in no steps
    assert _main(["run", "empty.eps", "--trace", "e.jsonl"], capsys) == (
        EXIT_SOLVED, "solved in 0 steps\nfinal substitution: {}\n", ""
    )
    assert pathlib.Path("e.jsonl").read_bytes() == (
        b'{"format":1,"problem":"e3b0c44298fc1c14","type":"header"}\n'
        b'{"final":"{}","status":"solved","steps":0,"type":"summary"}\n'
    )
    assert _main(["check", "e.jsonl", "empty.eps"], capsys) == (
        EXIT_SOLVED, "trace verified: 0 steps\n", ""
    )
    # "" names no file: it fails as any path that cannot be opened
    assert _main(["run", "p.eps", "--trace", ""], capsys) == (
        EXIT_INPUT, "", _os_error(errno.ENOENT, "")
    )


# ---------------------------------------------------------------------------
# the trace file: truncated before the run, written after it through a
# second handle that does not truncate, and never the problem file

CASCADE_PATH = next(p for p in PROBLEMS if p.stem == "rebuild_cascade")


@pytest.fixture
def fresh(tmp_path, capsys):
    """The sample's trace and report, written to a new path."""
    path = tmp_path / "fresh.jsonl"
    code, out, err = _main(["run", str(CASCADE_PATH), "--trace", str(path)], capsys)
    assert (code, err) == (EXIT_SOLVED, "")
    return path.read_bytes(), out


@pytest.mark.parametrize("old", [b"", b"x\n", b"x" * 100_000], ids=["empty", "shorter", "longer"])
def test_a_trace_over_an_old_file_is_exactly_the_new_trace(tmp_path, capsys, fresh, old):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(old)
    trace.chmod(0o600)
    got = _main(["run", str(CASCADE_PATH), "--trace", str(trace)], capsys)
    assert got == (EXIT_SOLVED, fresh[1], "")
    assert trace.read_bytes() == fresh[0]
    assert trace.stat().st_mode & 0o777 == 0o600


def test_a_trace_is_written_through_links(tmp_path, capsys, fresh):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"x" * 100_000)
    soft, hard = tmp_path / "soft.jsonl", tmp_path / "hard.jsonl"
    soft.symlink_to(target.name)
    os.link(target, hard)
    assert _main(["run", str(CASCADE_PATH), "--trace", str(soft)], capsys)[0] == EXIT_SOLVED
    assert soft.is_symlink() and target.read_bytes() == fresh[0]
    target.write_bytes(b"x")
    assert _main(["run", str(CASCADE_PATH), "--trace", str(hard)], capsys)[0] == EXIT_SOLVED
    assert target.read_bytes() == fresh[0] and os.path.samefile(target, hard)


def test_the_trace_file_is_empty_while_the_run_goes_on(tmp_path, capsys, monkeypatch, fresh):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(b"an old trace\n")
    sizes = []

    def watched(*args, **kwargs):
        sizes.append(trace.stat().st_size)
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", watched)
    assert _main(["run", str(CASCADE_PATH), "--trace", str(trace)], capsys)[0] == EXIT_SOLVED
    assert sizes == [0] and trace.read_bytes() == fresh[0]


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_the_trace_is_built_only_where_it_is_written(tmp_path, capsys, monkeypatch, path):
    """`run P` in the text format writes no trace, so it builds none; with
    --trace or --format structured it builds it once.  The text report is
    the same with --trace as without, and the structured output is the
    trace file's bytes."""
    built = []
    real_trace_lines = cli.trace_lines

    def counted(*args):
        built.append(1)
        return real_trace_lines(*args)

    monkeypatch.setattr(cli, "trace_lines", counted)
    trace = tmp_path / "t.jsonl"
    argvs = {
        "text": ["run", str(path)],
        "trace": ["run", str(path), "--trace", str(trace)],
        "structured": ["run", str(path), "--format", "structured"],
    }
    got = {}
    for kind, argv in argvs.items():
        built.clear()
        got[kind] = _main(argv, capsys)
        assert (got[kind][0], len(built)) == (EXIT_SOLVED, kind != "text"), kind
    assert got["text"] == got["trace"]
    assert got["structured"][1].encode() == trace.read_bytes()


def test_no_handle_on_the_trace_truncates_it(tmp_path, capsys, monkeypatch, fresh):
    """A truncating open followed by a write is what makes ext4 flush the
    file at close; the trace's two opens must not ask for it."""
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(b"x" * 100_000)
    flags, real_open = [], os.open

    def recording(path, flag, *args, **kwargs):
        if path == str(trace):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert _main(["run", str(CASCADE_PATH), "--trace", str(trace)], capsys)[0] == EXIT_SOLVED
    assert trace.read_bytes() == fresh[0]
    assert len(flags) == 2
    assert all(f & os.O_WRONLY and not f & (os.O_TRUNC | os.O_APPEND) for f in flags), flags


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_reader_that_reads_once_gets_the_whole_trace(tmp_path, capsys, fresh):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got, ran = [], threading.Event()

    def read_once():
        got.append(fifo.read_bytes())  # to the first EOF
        if not ran.wait(timeout=10):  # an open after that EOF waits for a reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))

    reader = threading.Thread(target=read_once, daemon=True)
    reader.start()
    try:
        code = _main(["run", str(CASCADE_PATH), "--trace", str(fifo)], capsys)[0]
    finally:
        ran.set()
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == EXIT_SOLVED and got == [fresh[0]]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_a_trace_to_dev_null(capsys, fresh):
    assert _main(["run", str(CASCADE_PATH), "--trace", "/dev/null"], capsys) == (
        EXIT_SOLVED, fresh[1], ""
    )
    # the same file, but no regular file: nothing of the problem is lost
    assert _main(["run", "/dev/null", "--trace", "/dev/null"], capsys) == (
        EXIT_SOLVED, "solved in 0 steps\nfinal substitution: {}\n", ""
    )


def test_a_trace_that_names_the_problem_file_is_refused(tmp_path, capsys, monkeypatch):
    problem = tmp_path / "p.eps"
    problem.write_bytes(CASCADE_PATH.read_bytes())
    (tmp_path / "soft.eps").symlink_to(problem.name)
    os.link(problem, tmp_path / "hard.eps")
    monkeypatch.setattr(cli, "run", _must_not_run)
    for p, t in [("p.eps", "p.eps"), ("p.eps", "soft.eps"), ("soft.eps", "hard.eps")]:
        argv = ["run", str(tmp_path / p), "--trace", str(tmp_path / t)]
        assert _main(argv, capsys) == (
            EXIT_INPUT, "", f"error: {tmp_path / p}: --trace names the problem file\n"
        ), (p, t)
        assert problem.read_bytes() == CASCADE_PATH.read_bytes()


def _cli_process(argv: list[str], wrap: tuple = (), **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(CASCADE_PATH.parent.parent / "src")}
    return subprocess.run(
        [*wrap, sys.executable, "-m", "epsengine.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs
    )


@pytest.mark.parametrize("argv", [["run"], ["run", "--format", "structured"], ["explain", "3"]])
def test_a_closed_stdout_ends_with_one_line_and_exit_1(argv):
    """A reader that has gone, as `run P | true` leaves, and a stdout that
    was closed before the process started."""
    argv = [argv[0], str(CASCADE_PATH), *argv[1:]]
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli_process(argv, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_INPUT, "error: [Errno 32] Broken pipe\n")
    done = _cli_process(argv, stdout=subprocess.DEVNULL)
    assert (done.returncode, done.stderr) == (EXIT_SOLVED, "")
    if os.name == "posix":
        done = _cli_process(argv, wrap=("sh", "-c", 'exec "$@" >&-', "sh"))
        assert (done.returncode, done.stderr) == (EXIT_INPUT, "error: stdout is closed\n")


# ---------------------------------------------------------------------------
# malformed input: exit 1 with one line on stderr, never a traceback

BAD_PROBLEMS = {
    "not-utf8": b"(crit eps 1 (exists (x) (= x \xff)))\n",
    "deep-nesting": b"(crit formula " + b"(not " * 3000 + b"true" + b")" * 3001,
    "huge-numeral": b"(crit pred " + b"7" * 5000 + b")\n",
    "repeated-option": b"(option max-steps 5)\n(option max-steps 1)\n" + TWO_STEP.encode(),
    "max-steps-zero": b"(option max-steps 0)\n" + TWO_STEP.encode(),
    "empty-form": b"()\n",
    "numeral-form": b"(crit pred 1)\n5\n",
    "empty-head": b"(())\n",
    "list-head": b"((crit pred 1))\n",
}
# what follows "error: PATH" for some of them: a position for every form,
# and a form written as the problem text writes it
BAD_PROBLEM_ERRORS = {
    "empty-form": ":1:1: unexpected top-level form ()",
    "numeral-form": ":2:1: unexpected top-level form 5",
    "empty-head": ":1:2: unknown form ()",
    "list-head": ":1:3: unknown form (crit pred 1)",
}
BAD_TRACES = {
    "not-utf8": b"\xff\n",
    "array-record": b"[1, 2]\n",
    "deep-nesting": b"[" * 3000 + b"]" * 3000 + b"\n",
}
BAD_TRACE_PATHS = {
    "missing-dir": "no/such/dir/t.jsonl",
    "directory": ".",
    "under-a-file": "p.eps/t.jsonl",
}
BAD_INPUTS = [(cmd, "problem", k) for cmd in ("run", "explain", "check") for k in BAD_PROBLEMS]
BAD_INPUTS += [("check", "trace", k) for k in BAD_TRACES]
BAD_INPUTS += [("run", "trace-path", k) for k in BAD_TRACE_PATHS]
# the same paths, refused before the run: here the run itself would raise
BAD_INPUTS += [("run", "trace-path-unrun", k) for k in BAD_TRACE_PATHS]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the run started before the trace path was opened")


@pytest.mark.parametrize("command,which,kind", BAD_INPUTS)
def test_malformed_input_exits_1_with_one_line(
    tmp_path, capsys, monkeypatch, command, which, kind
):
    problem = tmp_path / "p.eps"
    problem.write_bytes(BAD_PROBLEMS[kind] if which == "problem" else EPSILON.encode())
    trace = tmp_path / "t.jsonl"
    if which == "trace":
        trace.write_bytes(BAD_TRACES[kind])
    else:
        trace.write_text('{"type": "header"}\n')
    argv = {
        "run": ["run", str(problem)],
        "explain": ["explain", str(problem), "0"],
        "check": ["check", str(trace), str(problem)],
    }[command]
    if which.startswith("trace-path"):
        argv += ["--trace", str(tmp_path / BAD_TRACE_PATHS[kind])]
    if which == "trace-path-unrun":
        monkeypatch.setattr(cli, "run", _must_not_run)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "Traceback" not in captured.err
    if which == "problem" and kind in BAD_PROBLEM_ERRORS:
        assert captured.err == f"error: {problem}{BAD_PROBLEM_ERRORS[kind]}\n"
    if which == "trace-path-unrun":
        assert captured.err.startswith("error: "), captured.err


# a matrix nested past what compiling takes (two frames a level: a compiler
# and `_compile`) but within what the parser takes: the run fails with its
# exit code and one line
DEEP_NOT = 600
# nested just under that limit, a chain of connectives or of terms still runs
NEAR_DEEP = 450


@pytest.mark.parametrize(
    "matrix",
    [
        "(not " * NEAR_DEEP + "(= x 1)" + ")" * NEAR_DEEP,
        "(= 0 " + "(s " * NEAR_DEEP + "x" + ")" * NEAR_DEEP + ")",
        "(in " + "(s " * NEAR_DEEP + "x" + ")" * NEAR_DEEP + " I)",
    ],
    ids=["not", "succ", "member"],
)
def test_a_formula_nested_just_under_the_compile_limit_runs(write, capsys, matrix):
    path = write("p.eps", f"(crit eps 1 (exists (x) {matrix}))\n")
    assert main(["run", path]) == EXIT_SOLVED
    assert "internal-error" not in capsys.readouterr().out


def test_a_formula_too_deep_to_compile_ends_with_its_exit_code(write, tmp_path, capsys):
    path = write("p.eps", "(crit eps 1 (exists (x) " + "(not " * DEEP_NOT + "(= x 1)" + ")" * DEEP_NOT + "))\n")
    trace = tmp_path / "t.jsonl"
    parse_problem(pathlib.Path(path).read_text())  # the parser takes it
    assert main(["run", path, "--trace", str(trace)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "internal-error: formula nesting too deep" in captured.out
    assert main(["explain", path, "0"]) == EXIT_INTERNAL
    assert main(["explain", path, "1"]) == EXIT_INTERNAL
    assert main(["check", str(trace), path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal-error: formula nesting too deep",
        "internal-error: formula nesting too deep",
        "replay failed invariants: formula nesting too deep",
    ]


def test_a_goal_too_deep_to_compile_ends_with_its_exit_code(write, capsys):
    """In either output format: the exit code does not depend on it."""
    deep = "(not " * DEEP_NOT + "(= x 1)" + ")" * DEEP_NOT
    path = write("p.eps", f"(goal (exists (x) {deep}))\n")
    parse_problem(pathlib.Path(path).read_text())  # the parser takes it
    assert main(["run", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "solved in 0 steps",
        "final substitution: {}",
        "internal-error: formula nesting too deep",
    ]
    assert main(["run", path, "--format", "structured"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == "internal-error: formula nesting too deep\n"
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["type"] for r in records] == ["header", "summary"]


# ---------------------------------------------------------------------------
# check mode against a step that breaks an invariant

NON_MINIMAL = "(crit eps 5 (exists (x) (< 1 x)))\n"  # least witness 2


def _not_minimal(hs, plan):
    """The step's witness, one above the least."""
    return HistoricalSubstitution(hs.sub.with_entry(plan.e, num_val(plan.v.n + 1)))


def _bad_history(hs, plan):
    """A member that has no entry, no V snapshot and no justification."""
    return HistoricalSubstitution(hs.sub, (7,))


@pytest.mark.parametrize(
    "breaks, issue",
    [
        (_not_minimal, "substitution is not correct"),
        (
            _bad_history,
            "P does not order the top-valued membership entries "
            "(P=[7], entries=[]); V is not keyed exactly by the members of P; "
            "P is not admissible for the inductive clause",
        ),
    ],
)
def test_check_mode_stops_at_a_step_that_breaks_an_invariant(
    write, monkeypatch, capsys, breaks, issue
):
    path, trace = write("p.eps", NON_MINIMAL), write("t.jsonl", "")
    assert main(["run", path, "--trace", trace]) == EXIT_SOLVED
    real_apply = process.apply_plan
    monkeypatch.setattr(
        process, "apply_plan", lambda hs, plan, ctx: breaks(real_apply(hs, plan, ctx), plan)
    )
    problem = parse_problem(NON_MINIMAL)
    assert run(problem.crits, problem.ctx).solved  # unchecked, nothing is seen
    outcome = run(problem.crits, problem.ctx, check=True)
    assert outcome.status == "internal-error" and len(outcome.steps) == 1
    assert outcome.diagnostics == f"step 0: {issue}"
    capsys.readouterr()
    assert main(["run", path, "--check"]) == EXIT_INTERNAL
    assert f"internal-error: step 0: {issue}" in capsys.readouterr().out.splitlines()
    assert main(["check", trace, path]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"replay failed invariants: step 0: {issue}\n"


# ---------------------------------------------------------------------------
# explain against the slow path: a whole run, then runs to K and K + 1

def explain_reference(path: str, k: int) -> tuple[int, str, str]:
    problem = parse_problem(pathlib.Path(path).read_text(encoding="utf-8"))
    crs, ctx = problem.crits, problem.ctx
    max_steps = problem.max_steps or DEFAULT_MAX_STEPS
    full = run(crs, ctx, max_steps=max_steps)
    if k == len(full.steps) and full.solved:
        return EXIT_SOLVED, "already solving\n", ""
    if len(full.steps) <= k < max_steps and full.status == "internal-error":
        return EXIT_INTERNAL, "", f"internal-error: {full.diagnostics}\n"
    if not 0 <= k < len(full.steps):
        err = f"error: step {k} out of range (process ran {len(full.steps)} steps)\n"
        return EXIT_INPUT, "", err
    before = run(crs, ctx, max_steps=k)
    after = run(crs, ctx, max_steps=k + 1)
    plan = reference_compute_plan(before.hs, crs, ctx)
    cf = crs[plan.cr_index]
    record = full.steps[k]
    lines = [
        f"step {k}",
        f"  chosen Cr[{plan.cr_index}]: {cf.kind} {to_sexpr(cf.formula)}",
        f"  analysis: {cf.kind} names {record.e} with value {record.v}",
        f"  rank {record.rank}, case {record.case}",
        f"  before: {serialize(before.hs.sub)}",
        f"  after:  {serialize(after.hs.sub)}",
        f"  P: {list(before.hs.p)} -> {list(after.hs.p)}",
    ]
    return EXIT_SOLVED, "\n".join(lines) + "\n", ""


def explain_cases(tmp_path):
    paths = [str(p) for p in PROBLEMS]
    limited = tmp_path / "limited.eps"
    limited.write_text("(option max-steps 2)\n" + ROLLBACK)
    return paths + [str(limited)]


def check_explain_matches_reference(path, monkeypatch, capsys):
    runs = []
    real_run = cli.run

    def counting_run(*args, **kwargs):
        runs.append(kwargs)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counting_run)
    problem = parse_problem(pathlib.Path(path).read_text(encoding="utf-8"))
    n = len(real_run(problem.crits, problem.ctx).steps)
    for k in range(-1, n + 2):
        want = explain_reference(path, k)
        runs.clear()
        code = cmd_explain(path, k)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want, (path, k)
        assert len(runs) == 1


def test_explain_matches_slow_path(tmp_path, monkeypatch, capsys):
    for path in explain_cases(tmp_path):
        check_explain_matches_reference(path, monkeypatch, capsys)


def test_explain_matches_slow_path_when_a_step_fails(tmp_path, monkeypatch, capsys):
    # a process that fails at step 2 ran only two steps; explain of step 2
    # and of any later step reports the failure
    real_step = process.h_step

    def failing(hs, crs, ctx, step_index, verdicts):
        if step_index == 2:
            raise ProcessInvariantError("injected failure")
        return real_step(hs, crs, ctx, step_index, verdicts)

    monkeypatch.setattr(process, "h_step", failing)
    path = tmp_path / "p.eps"
    path.write_text(ROLLBACK)
    check_explain_matches_reference(str(path), monkeypatch, capsys)


# ---------------------------------------------------------------------------
# check on mutated traces

@functools.cache
def _valid_trace(path: pathlib.Path) -> list[str]:
    text = path.read_text()
    problem = parse_problem(text)
    max_steps = problem.max_steps or DEFAULT_MAX_STEPS
    outcome = run(problem.crits, problem.ctx, max_steps=max_steps)
    return cli.trace_lines(text, outcome)


FIELDS = [
    "type", "step", "I", "rankCase", "e", "v", "before", "added", "P",
    "Vadded", "solving", "status", "steps", "final", "problem",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
RAW_LINES = st.sampled_from([
    "[1, 2]", '"step"', "3", "null", "true", "{", "}{",
    "[" * 20000 + "]" * 20000,
    '{"a":' * 20000 + "0" + "}" * 20000,
    "9" * 5000,
    '{"type": "step", "step": ' + "9" * 5000 + "}",
    '{"type": "step", "step": 1e999}',
])
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), st.integers(0, 99)),
        st.tuples(st.just("dup"), st.integers(0, 99)),
        st.tuples(
            st.just("flip"), st.integers(0, 99), st.sampled_from(FIELDS), JSON_VALUES
        ),
        st.tuples(st.just("unset"), st.integers(0, 99), st.sampled_from(FIELDS)),
        st.tuples(st.just("raw"), st.integers(0, 99), RAW_LINES),
    ),
    max_size=3,
)


def _mutate(lines: list[str], ops) -> list[str]:
    lines = list(lines)
    for op, at, *rest in ops:
        if not lines:
            break
        k = at % len(lines)
        if op == "drop":
            del lines[k]
        elif op == "dup":
            lines.insert(k, lines[k])
        elif op == "raw":
            lines[k] = rest[0]
        else:
            try:
                record = json.loads(lines[k])
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict):
                continue
            if op == "flip":
                record[rest[0]] = rest[1]
            else:
                record.pop(rest[0], None)
            lines[k] = json.dumps(record)
    return lines


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROBLEMS), MUTATIONS)
def test_check_on_mutated_traces_exits_cleanly(tmp_path_factory, path, ops):
    trace = tmp_path_factory.mktemp("trace") / "t.jsonl"
    trace.write_text("\n".join(_mutate(_valid_trace(path), ops)) + "\n")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cmd_check(str(trace), str(path), out=out, err=err)
    assert time.perf_counter() - start < 10
    assert code in (EXIT_SOLVED, EXIT_INPUT, EXIT_INTERNAL)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != EXIT_SOLVED), lines
    assert "Traceback" not in err.getvalue()
    if not ops:
        assert code == EXIT_SOLVED and out.getvalue().startswith("trace verified")


for _path in PROBLEMS:  # every unmutated trace, besides the drawn cases
    test_check_on_mutated_traces_exits_cleanly = example(_path, [])(
        test_check_on_mutated_traces_exits_cleanly
    )


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_check_of_a_trace_cut_at_every_byte(tmp_path, path):
    """A cut trace passes only when it leaves every record whole, as a
    killed run's does.  Any other cut exits 1 with one line; a cut inside
    a record names the file and the line that holds the cut."""
    lines = _valid_trace(path)
    text = "\n".join(lines) + "\n"
    trace = tmp_path / "t.jsonl"
    passed = 0
    for k in range(len(text) + 1):
        cut = text[:k]
        trace.write_text(cut)
        out, err = io.StringIO(), io.StringIO()
        code = cmd_check(str(trace), str(path), out=out, err=err)
        row = cut.count("\n")
        partial = cut[cut.rfind("\n") + 1 :]
        if partial and partial != lines[row]:  # the cut is inside a record
            assert code == EXIT_INPUT, k
            assert err.getvalue().startswith(f"error: {trace}:{row + 1}:"), k
        else:
            assert code in (EXIT_SOLVED, EXIT_INPUT), k
        assert len(err.getvalue().splitlines()) == (code != EXIT_SOLVED), k
        assert "Traceback" not in err.getvalue()
        passed += code == EXIT_SOLVED
    # the whole trace and the trace without its summary, each with and
    # without its last newline
    assert passed == 4


# ---------------------------------------------------------------------------
# run and explain on random bytes and mutated problem texts

# Numerals stay at or below 10**3 in every input drawn here: no work budget
# bounds the witness search inside one step yet, and a bound such as
# (crit eps 100000000 ...) keeps one step busy for more than 15 s, which
# the time bound per case would report as a hang.
MAX_NUMERAL = 10**3
DIGITS = re.compile(r"\d+")  # any decimal digits, which int() reads too
SOURCES = [p.read_text() for p in PROBLEMS] + [EPSILON, ROLLBACK, TWO_STEP]
PIECES = [
    "(", ")", " ", "\n", "; c\n", "x", "y", "I", "-1", "0", "7", "\t", "é",
    "(exists (x) ", "(forall (y) ", "(not ", "(s ", "(in ", "(crit ", "(goal ",
    "(option max-steps ", "closure", "inddef", "eps", "pred", "ind", "formula",
]
TEXT_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 9999), st.sampled_from(PIECES)),
        st.tuples(st.just("delete"), st.integers(0, 9999), st.integers(1, 12)),
        st.tuples(st.just("numeral"), st.integers(0, 9999), st.integers(0, MAX_NUMERAL)),
        st.tuples(st.just("move"), st.integers(0, 9999), st.integers(0, 9999)),
    ),
    max_size=4,
)


def _edit(text: str, ops) -> str:
    for op, at, arg in ops:
        i = at % (len(text) + 1)
        if op == "insert":
            text = text[:i] + arg + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + arg:]
        elif op == "numeral":  # the numeral at or after i takes a new value
            m = DIGITS.search(text, i) or DIGITS.search(text)
            if m:
                text = text[:m.start()] + str(arg) + text[m.end():]
        else:  # move a slice of up to 20 characters elsewhere
            piece = text[i:i + 20]
            rest = text[:i] + text[i + 20:]
            j = arg % (len(rest) + 1)
            text = rest[:j] + piece + rest[j:]
    return text


def _small_numerals(data: bytes) -> bytes:
    """data with every run of four or more digits, which an edit or a
    concatenation may have made, replaced by MAX_NUMERAL."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return data  # refused before it is parsed
    return DIGITS.sub(lambda m: m[0] if len(m[0]) < 4 else str(MAX_NUMERAL), text).encode()


FUZZ_INPUTS = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda text, ops: _edit(text, ops).encode(), st.sampled_from(SOURCES), TEXT_EDITS
    ),
    st.lists(st.sampled_from(PIECES), max_size=40).map(lambda ps: "".join(ps).encode()),
)


def _exits_cleanly(call, seconds: float = 10.0) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = call(out, err)
    assert time.perf_counter() - start < seconds
    assert code in (EXIT_SOLVED, EXIT_INPUT, EXIT_STEP_LIMIT, EXIT_INTERNAL)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue() + out.getvalue()


@settings(max_examples=80, deadline=None)
@given(FUZZ_INPUTS)
def test_run_and_explain_on_random_and_mutated_inputs_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "p.eps"
    path.write_bytes(_small_numerals(data))
    _exits_cleanly(lambda out, err: cmd_run(str(path), RunConfig(max_steps=50), out, err))
    for k in range(4):
        _exits_cleanly(lambda out, err: cmd_explain(str(path), k, out, err))


for _text in SOURCES:  # every unmutated source, besides the drawn cases
    test_run_and_explain_on_random_and_mutated_inputs_exit_cleanly = example(
        _text.encode()
    )(test_run_and_explain_on_random_and_mutated_inputs_exit_cleanly)


@settings(max_examples=80, deadline=None)
@given(FUZZ_INPUTS)
def test_random_and_mutated_inputs_that_parse_build_checked_trees(tmp_path_factory, data):
    """The same inputs: a problem that parses holds only nodes that the
    checked constructors build."""
    path = tmp_path_factory.mktemp("fuzz") / "p.eps"
    path.write_bytes(_small_numerals(data))
    read = cli._read(str(path), io.StringIO())
    if read is None:  # not UTF-8
        return
    try:
        problem = parse_problem(read[0])
    except (ParseError, RecursionError):
        return
    check_construction(problem)


for _text in SOURCES:
    test_random_and_mutated_inputs_that_parse_build_checked_trees = example(
        _text.encode()
    )(test_random_and_mutated_inputs_that_parse_build_checked_trees)
