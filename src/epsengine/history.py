"""Membership histories: insertion order and rollback records.

A historical substitution carries, besides the map itself, the order P in
which membership facts were added and, for each, the rank-Omega negative
entries V that were displaced when it entered.  The rollback step of the
process restores exactly those.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .language import CanonForm, InductiveContext
from .substitution import (
    Substitution,
    TOP_VAL,
    UNKNOWN,
    Value,
    compiled,
    entry_is_positive,
    serialize,
)


class _History(NamedTuple):
    sub: Substitution
    p: tuple[int, ...]
    v: Mapping[int, Substitution]


EMPTY_V = MappingProxyType({})  # the V of every history without members


class HistoricalSubstitution(_History):
    """A substitution together with its membership history (P, V).

    P lists the members n with (n in I, top) present, in insertion order; V
    maps each of them to the negative rank-Omega entries removed when it was
    added, as a read-only copy of the mapping it is built from.  A step
    builds its result with ``_make((sub, p, v))``, which takes v as it is: a
    read-only V that no one changes, its own, the one it steps from or, for
    a history without members, the shared ``EMPTY_V``.
    """

    __slots__ = ()

    def __new__(cls, sub, p=(), v=EMPTY_V):
        return tuple.__new__(cls, (sub, p, MappingProxyType(dict(v))))

    @staticmethod
    def initial(omega_sym=None) -> "HistoricalSubstitution":
        sub = Substitution.empty(omega_sym)
        return HistoricalSubstitution._make((sub, (), EMPTY_V))


def is_admissible(
    p: tuple[int, ...],
    ctx: InductiveContext | None,
    admitted: tuple[int, ...] = (),
) -> bool:
    """Each member of p is justified by the clause over its predecessors.

    The justification evaluates the clause at bound value 0 — the default a
    fresh witness term reduces to — under the standard extension of the
    membership facts added so far.  A member's verdict depends only on it
    and its predecessors, so the members of the prefix p shares with
    ``admitted``, a sequence already found admissible, are not tested again.
    """
    if ctx is None:
        return not p
    clause = compiled(ctx.clause)  # B(y, x, I) at env (y, x)
    start = 0
    while start < min(len(p), len(admitted)) and p[start] == admitted[start]:
        start += 1
    if start == len(p):
        return True
    prefix = _Prefix(p[:start])
    for n in p[start:]:
        if clause((0, n), prefix) is not True:
            return False
        prefix.members.add(n)
    return True


class _Prefix:
    """The standard extension of the facts (m in I, top) for the members m
    added so far: the view a member's justification reads.  It grows by one
    member at a time, so no member rebuilds the map of its prefix; its
    entries, a membership atom valued top, are well formed by construction."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]) -> None:
        self.members = set(members)

    def get(self, e) -> Value:
        if e.__class__ is CanonForm and e.n in self.members:
            return TOP_VAL
        return UNKNOWN


def validate(
    hs: HistoricalSubstitution,
    ctx: InductiveContext | None = None,
    last: HistoricalSubstitution | None = None,
) -> list[str]:
    """Invariant violations of a historical substitution; empty when valid.

    ``last`` is a state already found valid: its membership order is not
    tested again, as in `is_admissible`, nor is a snapshot it holds too.
    """
    problems: list[str] = []
    if len(set(hs.p)) != len(hs.p):
        problems.append("P contains duplicate members")
    members = set(hs.sub.positive_omega_forms())
    if set(hs.p) != members:
        problems.append(
            "P does not order the top-valued membership entries "
            f"(P={sorted(set(hs.p))}, entries={sorted(members)})"
        )
    if set(hs.v) != set(hs.p):
        problems.append("V is not keyed exactly by the members of P")
    checked = {} if last is None else last.v
    for n, snap in hs.v.items():
        if checked.get(n) is snap:
            continue
        for e, u in snap.items():
            if not snap.rank_of(e).is_omega or entry_is_positive(e, u):
                problems.append(
                    f"V({n}) holds a non-negative-Omega entry {serialize(snap)}"
                )
                break
    if not is_admissible(hs.p, ctx, () if last is None else last.p):
        problems.append("P is not admissible for the inductive clause")
    return problems
