import os
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from epsengine.language import InductiveContext, Var, in_set, not_, or_
from reference import lt

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def bounded_clause():
    """B(y, x, X) = y < x -> y in X: membership below a bound."""
    return or_(not_(lt(Var(0), Var(1))), in_set(Var(0)))


@pytest.fixture(scope="session")
def ctx(bounded_clause):
    return InductiveContext(bounded_clause)


def _engine_and_bench_modules() -> dict:
    names = {"run", "tracer", "arith", "workloads"}
    return {k: v for k, v in sys.modules.items() if k in names or k.split(".")[0] == "epsengine"}


@contextmanager
def bench_imports():
    """bench/ on the path; its modules and the engine's are put back after."""
    sys.path.insert(0, str(BENCH))
    saved = _engine_and_bench_modules()
    try:
        yield
    finally:
        sys.path.remove(str(BENCH))
        for k in _engine_and_bench_modules():
            del sys.modules[k]
        sys.modules.update(saved)


@pytest.fixture
def bench_modules():
    """bench/run.py and bench/tracer.py; the engine modules are put back after."""
    with bench_imports():
        import run as bench_run
        import tracer

        yield bench_run, tracer
