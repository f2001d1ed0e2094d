"""The solver at the hole against the scan it stands in for.

`first_interval` answers where a one-hole formula holds on [0, upper] by
interval reasoning, or None, and then its callers scan.  Each caller (the
least witness, the induction descent, the minimality half of
`correctness`) must give the scan's value or error and record the scan's
reads in the scan's first-read order.  They are compared with the solver
forced on at every bound (`SCAN_BELOW` 0) and off (every search scans), on
random one-hole linear formulas with random bounds and on every state the
sample problems, the corpus and the tiny benchmark families reach.  A
count of the compiled index formula's calls shows that the solved searches
no longer grow with the bound.
"""

import random

import pytest

from epsengine import substitution
from epsengine.language import (
    CanonTerm,
    SkolemSymbol,
    Var,
    eq,
    num,
    skolem,
    skolemize_exists,
    substitute,
    to_sexpr,
)
from epsengine.process import ProcessInvariantError, _descent, _least_witness
from epsengine.substitution import (
    Substitution,
    compiled,
    correctness,
    Verdicts,
    first_interval,
    is_ci,
    num_val,
)
from genexpr import FIN_SYMS, random_linear_formula, random_substitution
from reference import lt, recording, stored
from test_fast_paths import runs  # noqa: F401  (the fixture)

NEVER = 10**18  # a SCAN_BELOW no bound reaches: every search scans


def _both(monkeypatch, call, view):
    """call(recorder) with the solver forced on, then off: for each, its
    value (or error message) and its reads in first-read order."""
    out = []
    for scan_below in (0, NEVER):
        monkeypatch.setattr(substitution, "SCAN_BELOW", scan_below)
        rec = recording(view)
        try:
            got = call(rec)
        except ProcessInvariantError as err:
            got = ("error", str(err))
        out.append((got, list(rec.reads.items())))
    return out


def _scanned_first(phi, env, upper, view):
    """The first maximal interval of phi's truth set on [0, upper] by
    evaluating phi at each w, or None when one evaluation is undecided."""
    code = compiled(phi)
    holds = [code((w, *env[1:]), view) for w in range(upper + 1)]
    if None in holds:
        return None
    if True not in holds:
        return ()
    lo = holds.index(True)
    hi = holds.index(False, lo) - 1 if False in holds[lo:] else upper
    return lo, hi


def _kind(phi, got):
    if got is not None:
        return "solved"
    return "shape" if phi._solve is None else "undecided"


def test_solver_matches_the_scan_on_random_linear_formulas(monkeypatch, ctx):
    """Random linear formulas and their fallback shapes, with parameters,
    bounds and maps drawn at random, on the stored map and its standard
    extension: `first_interval` gives the scanned first interval after the
    scan's reads, and each caller gives the scan's answer and reads."""
    rng = random.Random(20)
    kinds = set()
    for _ in range(2500):
        sub = random_substitution(rng, ctx, rng.randint(0, 10), include_omega=True)
        depth, fallback = rng.randint(0, 3), rng.random() < 0.3
        phi = random_linear_formula(rng, FIN_SYMS, depth, 3, fallback)
        env = (0, rng.randint(0, 4), rng.randint(0, 4))
        upper = rng.choice([0, 1, 2, rng.randint(3, 60)])
        for view in (stored(sub), sub):
            monkeypatch.setattr(substitution, "SCAN_BELOW", 0)
            mine, theirs = (recording(view) for _ in range(2))
            got = first_interval(phi, env, upper, mine)
            want = _scanned_first(phi, env, upper, theirs)
            kinds.add((view is sub, _kind(phi, got)))
            if got is not None:
                assert got == want, (to_sexpr(phi), env, upper)
                assert list(mine.reads.items()) == list(theirs.reads.items())
            _callers_agree(monkeypatch, phi, env, upper, sub, view, ctx)
    assert kinds == {
        (lazy, kind)
        for lazy in (False, True)
        for kind in ("solved", "shape", "undecided")
    } - {(True, "undecided")}  # the standard extension decides every part


def _callers_agree(monkeypatch, phi, env, upper, sub, view, ctx):
    """The three callers, solver on and off, on phi at env, on view: sub
    or its stored-map view."""
    sym, args = skolemize_exists(phi)
    nargs = tuple(compiled(a)(env, sub) for a in args)
    e = CanonTerm(sym, nargs)
    u = num_val(upper + 1)
    solved, scanned = _both(monkeypatch, lambda v: correctness(e, u, v, ctx), view)
    assert solved == scanned, (to_sexpr(phi), nargs, u)
    if view is sub:  # analysis searches the standard extension
        solved, scanned = _both(
            monkeypatch, lambda v: _least_witness(sym, nargs, upper, v), view
        )
        assert solved == scanned, (to_sexpr(phi), nargs, upper)
        template = substitute(phi, {1: num(env[1]), 2: num(env[2])})
        solved, scanned = _both(monkeypatch, lambda v: _descent(template, upper, v), view)
        assert solved == scanned, (to_sexpr(template), upper)


def test_solver_matches_the_scan_on_every_state(monkeypatch, runs):  # noqa: F811
    """On every reached state: each eps and closure-premise search and each
    induction descent at its bound and at a random one, and each entry's
    correctness at its value and at a random one, on the stored map and its
    standard extension, solver on and off."""
    rng = random.Random(7)
    kinds, checked = set(), 0
    for name, p, states in runs:
        for hs in states:
            ext = hs.sub
            for cf in p.crits:
                if cf.kind in ("epsilon", "closure"):
                    sym, args = (
                        (cf.sym, cf.args) if cf.kind == "epsilon"
                        else (cf.premise_sym, cf.premise_args)
                    )
                    nargs = tuple(compiled(a)((), ext) for a in args)
                    bound = compiled(cf.t)((), ext) if cf.kind == "epsilon" else 3
                    for upper in (bound, rng.randint(0, 40)):
                        monkeypatch.setattr(substitution, "SCAN_BELOW", 0)
                        got = first_interval(sym.index_formula, (0, *nargs), upper, ext)
                        kinds.add(_kind(sym.index_formula, got))
                        solved, scanned = _both(
                            monkeypatch,
                            lambda v: _least_witness(sym, nargs, upper, v),
                            ext,
                        )
                        assert solved == scanned, (name, cf.kind, upper)
                        checked += 1
                if cf.kind == "induction":
                    for t in (compiled(cf.t)((), ext), rng.randint(0, 40)):
                        solved, scanned = _both(
                            monkeypatch, lambda v: _descent(cf.phi, t, v), ext
                        )
                        assert solved == scanned, (name, t)
                        checked += 1
            for e, u in hs.sub.items():
                if not isinstance(e, CanonTerm) or u.kind != "num":
                    continue
                for value in (u, num_val(rng.randint(1, 40))):
                    for view in (stored(hs.sub), ext):
                        solved, scanned = _both(
                            monkeypatch,
                            lambda v: correctness(e, value, v, p.ctx),
                            view,
                        )
                        assert solved == scanned, (name, e, value, view is ext)
                        checked += 1
    assert checked > 5000
    assert kinds == {"solved", "shape"}


def _counted(monkeypatch, phi):
    """Count the calls of phi's compiled closure for the rest of the test:
    the hole of each, in order."""
    code = compiled(phi)
    calls = []

    def counting(env, view):
        calls.append(env[0])
        return code(env, view)

    monkeypatch.setattr(phi, "_code", counting)
    return calls


def test_a_solved_search_evaluates_its_index_formula_a_bounded_number_of_times(
    monkeypatch,
):
    """At a bound of 10**8, the search for (= v0 v1) and the guard's check of
    the entry it makes evaluate the index formula at most once each; an
    index formula with the hole under a Skolem application still tries each
    candidate up to the witness."""
    big = 10**8
    sym = SkolemSymbol(eq(Var(0), Var(1)), 1)
    calls = _counted(monkeypatch, sym.index_formula)
    ext = Substitution.empty()
    assert _least_witness(sym, (big,), big, ext) == big
    assert len(calls) == 0
    sub = Substitution({CanonTerm(sym, (big,)): num_val(big)})
    assert correctness(CanonTerm(sym, (big,)), num_val(big), sub) is True
    assert is_ci(sub, None, Verdicts([])) is False
    assert calls == [big, big]  # the head, once per check

    inner = SkolemSymbol(lt(Var(0), Var(1)), 1)
    at_hole = SkolemSymbol(lt(Var(1), skolem(inner, (Var(0),))), 1)
    calls = _counted(monkeypatch, at_hole.index_formula)
    sub = Substitution({CanonTerm(inner, (5,)): num_val(3)})
    assert _least_witness(at_hole, (2,), big, sub) == 5
    assert calls == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("upper", [0, 7, 8, 100])
def test_a_search_scans_below_the_least_bound_it_solves_at(upper):
    """A bound below SCAN_BELOW scans without building a solver."""
    phi = eq(Var(0), Var(1))
    got = first_interval(phi, (0, 3), upper, Substitution.empty())
    if upper < substitution.SCAN_BELOW:
        assert got is None and not hasattr(phi, "_solve")
    else:
        assert got == ((3, 3) if upper >= 3 else ())
