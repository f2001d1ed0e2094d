"""Finitary sequent layer: flagged substitutions, axioms, and measures.

A sequent decorates a historical substitution with a fixed/temporary flag
on every indeterminate or rank-Omega entry.  This module provides the
axiom classification, the footprint-based applicability of the step, the
expressions a step would disturb, and the termination measures over a
formula family.  Only the proofs' tests use it, so it lives beside them;
the measures read formulas reduced by the reference evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from epsengine.history import HistoricalSubstitution, is_admissible
from epsengine.language import (
    And,
    Canon,
    CanonForm,
    CanonTerm,
    Expr,
    FnApp,
    InductiveContext,
    InSet,
    Not,
    Or,
    RelAtom,
    SkolemApp,
    simple_rank,
    to_sexpr as _to_sexpr,
)
from epsengine.process import CriticalFormula, ProcessInvariantError, apply_plan
from epsengine.substitution import (
    RecordingSubstitution,
    Substitution,
    entry_is_positive,
)
from reference import (
    correctness_formula,
    leaked,
    reduce_formula,
    reference_compute_plan,
    reference_is_ci,
    reference_is_solving,
    sorted_items,
    stored,
)



def _like(sub: Substitution, entries: dict) -> Substitution:
    """A map holding entries, with an Omega symbol as sub has."""
    return Substitution(entries, omega_sym=sub.omega_sym)

class SequentError(Exception):
    pass


@dataclass(frozen=True)
class Sequent:
    """A historical substitution with fixed (f) / temporary (t) flags.

    The flag domain is exactly the entries that a later step could still
    disturb: indeterminate values and everything of rank Omega.
    """

    hs: HistoricalSubstitution
    flags: Mapping[Canon, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", MappingProxyType(dict(self.flags)))
        expected = self._flag_domain()
        if set(self.flags) != expected:
            raise SequentError(
                "flag domain must be the indeterminate or rank-Omega entries"
            )
        if not all(v in ("t", "f") for v in self.flags.values()):
            raise SequentError("flags are 't' or 'f'")

    def _flag_domain(self) -> set[Canon]:
        sub = self.hs.sub
        return {
            e
            for e, u in sub.items()
            if u.kind == "unknown" or sub.rank_of(e).is_omega
        }

    @staticmethod
    def from_historical(
        hs: HistoricalSubstitution, default: str = "t"
    ) -> "Sequent":
        sub = hs.sub
        flags = {
            e: default
            for e, u in sub.items()
            if u.kind == "unknown" or sub.rank_of(e).is_omega
        }
        return Sequent(hs, flags)

    @property
    def sub(self) -> Substitution:
        return self.hs.sub

    def temporary(self) -> Substitution:
        """Entries flagged t."""
        return _like(
            self.sub,
            {e: u for e, u in self.sub.items() if self.flags.get(e) == "t"},
        )

    def fixed(self) -> Substitution:
        """Entries flagged f."""
        return _like(
            self.sub,
            {e: u for e, u in self.sub.items() if self.flags.get(e) == "f"},
        )

    def stable_omega(self, ctx: InductiveContext | None) -> Substitution:
        """The rank-Omega part a rollback against a fresh member keeps.

        Negative entries, membership facts, and those indeterminate witness
        terms whose member fact is present.
        """
        sub = self.sub
        members = set(sub.positive_omega_forms())
        kept: dict[Canon, object] = {}
        for e, u in sub.items():
            if not sub.rank_of(e).is_omega:
                continue
            if not entry_is_positive(e, u) or isinstance(e, CanonForm):
                kept[e] = u
            elif u.kind == "unknown" and ctx is not None:
                if ctx.member_of(e) in members:
                    kept[e] = u
        return _like(sub, kept)

    def add_entry(self, e: Canon, u, flag: str = "t") -> "Sequent":
        """Juxtaposition: a new entry, flagged when the flag domain needs it."""
        if e in self.sub:
            raise SequentError("entry is already present")
        sub = self.sub.with_entry(e, u)
        hs = HistoricalSubstitution(sub, self.hs.p, dict(self.hs.v))
        flags = dict(self.flags)
        if u.kind == "unknown" or sub.rank_of(e).is_omega:
            flags[e] = flag
        return Sequent(hs, flags)


def is_proper(
    p_ext: Sequence[int],
    e: CanonForm,
    theta: Sequent,
    ctx: InductiveContext | None,
) -> bool:
    """Whether a member sequence may justify adding e on top of theta."""
    if len(set(p_ext)) != len(p_ext) or not p_ext:
        return False
    if p_ext[-1] != e.n:
        return False
    if set(p_ext) & set(theta.hs.p):
        return False
    if ctx is not None:
        for m in p_ext:
            u = theta.sub.raw(ctx.c_n(m))
            if u is not None and u.kind != "unknown":
                return False
    return is_admissible(theta.hs.p + tuple(p_ext), ctx)


# ---------------------------------------------------------------------------
# Axiom classification

def h_step_applies(
    theta: Sequent,
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
) -> bool:
    """Whether the step's whole computation stays inside the stored domain.

    The pending step is recomputed against a recording view of the bare
    substitution; it applies when no lookup left the domain and the
    bookkeeping side conditions hold: a witness step needs its member fact
    present, a member step its witness term, and a rank-Omega term step
    needs the member fact of every indeterminate witness entry.
    """
    sub = theta.sub
    recorder = RecordingSubstitution(sub)
    try:
        plan = reference_compute_plan(theta.hs, crs, ctx, recorder)
    except ProcessInvariantError:
        return False
    if plan is None or leaked(recorder):
        return False
    e = plan.e
    if plan.rank.is_omega and ctx is not None:
        if isinstance(e, CanonTerm):
            n = ctx.member_of(e)
            if n is None or CanonForm(n) not in sub:
                return False
            for d, u in sub.items():
                if (
                    isinstance(d, CanonTerm)
                    and u.kind == "unknown"
                    and sub.rank_of(d).is_omega
                ):
                    m = ctx.member_of(d)
                    if m is None or CanonForm(m) not in sub:
                        return False
        else:
            assert isinstance(e, CanonForm)
            if ctx.c_n(e.n) not in sub:
                return False
    return True


def active_expressions(
    theta: Sequent,
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
) -> set[Canon]:
    """Entries of the step's rank that the step removes or revalues."""
    if not h_step_applies(theta, crs, ctx):
        raise SequentError("the step does not apply to this sequent")
    plan = reference_compute_plan(theta.hs, crs, ctx)
    assert plan is not None
    after = apply_plan(theta.hs, plan, ctx).sub
    sub = theta.sub
    out: set[Canon] = set()
    for e, u in sub.items():
        if sub.rank_of(e) != plan.rank:
            continue
        if after.raw(e) != u:
            out.add(e)
    return out


def classify_axiom(
    theta: Sequent,
    crs: Sequence[CriticalFormula],
    ctx: InductiveContext | None,
) -> list:
    """All axiom forms the sequent instantiates, strongest first.

    Returns a list of 'AxF', 'AxS' and ('AxH', e, v) labels; empty when the
    sequent is no axiom.
    """
    out: list = []
    if reference_is_ci(theta.sub, ctx):
        out.append("AxF")
    if reference_is_solving(theta.sub, crs):
        out.append("AxS")
    if not reference_is_solving(theta.sub, crs) and h_step_applies(theta, crs, ctx):
        plan = reference_compute_plan(theta.hs, crs, ctx)
        if plan is not None:
            active = active_expressions(theta, crs, ctx)
            if any(theta.flags.get(e) == "f" for e in active):
                out.append(("AxH", plan.e, plan.v))
    return out


# ---------------------------------------------------------------------------
# Measures

@dataclass(frozen=True, order=True)
class MeasureValue:
    """Lexicographic pair standing for omega * rho + count."""

    rho: int
    count: int

    def __str__(self) -> str:
        return f"w*{self.rho}+{self.count}"


def formula_family(
    theta: Sequent,
    c: Sequence[Expr],
    ctx: InductiveContext | None,
) -> list[Expr]:
    """The given formulas plus the correctness condition of each term entry."""
    seen: dict[str, Expr] = {}
    for phi in c:
        seen.setdefault(_to_sexpr(phi), phi)
    for e, u in sorted_items(theta.sub):
        if isinstance(e, CanonTerm):
            f = correctness_formula(e, u, ctx)
            seen.setdefault(_to_sexpr(f), f)
    return list(seen.values())


def d(phi: Expr) -> int:
    """Number of membership atoms and Skolem terms in a formula."""
    if isinstance(phi, SkolemApp):
        return 1 + sum(d(a) for a in phi.args)
    if isinstance(phi, InSet):
        return 1 + d(phi.arg)
    if isinstance(phi, (FnApp, RelAtom)):
        return sum(d(a) for a in phi.args)
    if isinstance(phi, Not):
        return d(phi.body)
    if isinstance(phi, (And, Or)):
        return d(phi.left) + d(phi.right)
    return 0


def d_r(phi: Expr, r: int) -> int:
    return d(phi) if simple_rank(phi) == r else 0


def rho(
    theta: Sequent,
    c: Sequence[Expr],
    ctx: InductiveContext | None,
) -> int:
    fam = formula_family(theta, c, ctx)
    sub = stored(theta.sub)
    return max((simple_rank(reduce_formula(f, sub)) for f in fam), default=0)


def nu(
    theta: Sequent,
    c: Sequence[Expr],
    ctx: InductiveContext | None,
) -> MeasureValue:
    """Highest unreduced level plus the work left at that level."""
    fam = formula_family(theta, c, ctx)
    sub = stored(theta.sub)
    reduced = [reduce_formula(f, sub) for f in fam]
    r = max((simple_rank(f) for f in reduced), default=0)
    return MeasureValue(r, sum(d_r(f, r) for f in reduced))
