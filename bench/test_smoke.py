"""Smoke test of the benchmark: every workload at the tiny size.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench)

Each workload runs once untraced and once traced for a second.  The test
asserts that the printed metric names and units are exactly those of
BENCHMARK.json, that no attempt failed, and that the human-readable lines
name every metric too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus", "eps_chain", "omega_ladder")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check(workload: str, trace: int) -> None:
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    result, text = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_frac 0 " in text
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (workload, trace, got)
    shown = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in want:
            shown[parts[0]] = parts[2]
    assert shown == want, (workload, trace, shown)


def test_workloads_untraced():
    for workload in WORKLOADS:
        check(workload, 0)


def test_workloads_traced():
    for workload in WORKLOADS:
        check(workload, 1)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in spec()["workloads"]) == sorted(WORKLOADS)


def test_refuses_without_engine(tmp_path):
    # a directory holding only the benchmark: exit non-zero, print no result
    (tmp_path / "bench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    import tempfile

    test_workloads_match_spec()
    test_workloads_untraced()
    test_workloads_traced()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        test_refuses_without_engine(Path(tmp))
    print("bench smoke test passed")
