"""Substitutions over canonical expressions and the reduction semantics.

A substitution is a finite map from canonical expressions to values.  Its
standard extension treats every unassigned canonical expression as
indeterminate; reduction collapses assigned Skolem terms and membership
atoms, and truth of a reduced sentence is decided by a direct evaluator
over closed arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator

from .language import (
    And,
    Bottom,
    BOTTOM,
    Canon,
    CanonForm,
    CanonTerm,
    Expr,
    FnApp,
    InductiveContext,
    InSet,
    Not,
    Numeral,
    Or,
    RelAtom,
    Rank,
    SkolemApp,
    SkolemSymbol,
    Top,
    TOP,
    Var,
    _apply_fn,
    as_canonical,
    canon_sexpr,
    conjoin,
    instantiate_index,
    is_formula,
    is_term,
    not_,
    num,
    rank_of,
    rank_sort_key,
    skolem,
)


class SubstitutionError(Exception):
    pass


class ValueError_(SubstitutionError):
    """An entry was given a value its expression kind cannot take."""


# ---------------------------------------------------------------------------
# Values

@dataclass(frozen=True)
class Value:
    kind: str  # 'num' | 'top' | 'unknown'
    n: int = 0

    def __str__(self) -> str:
        if self.kind == "num":
            return str(self.n)
        return "top" if self.kind == "top" else "?"


UNKNOWN = Value("unknown")
TOP_VAL = Value("top")


def num_val(n: int) -> Value:
    return Value("num", n)


def _check_entry(e: Canon, u: Value) -> None:
    if isinstance(e, CanonTerm):
        if u.kind == "top":
            raise ValueError_("a canonical term cannot be assigned top")
        if u.kind == "num" and u.n <= 0:
            raise ValueError_("a canonical term takes a positive numeral or ?")
    else:
        if u.kind == "num":
            raise ValueError_("a membership atom takes top or ?")


def entry_is_positive(e: Canon, u: Value) -> bool:
    """Polarity of a rank-Omega entry: top-valued atoms and ?-valued terms."""
    if isinstance(e, CanonForm):
        return u.kind == "top"
    return u.kind == "unknown"


# ---------------------------------------------------------------------------
# Substitutions

class Substitution:
    """Immutable finite map from canonical expressions to values.

    When ``lazy`` is set the map behaves as its standard extension: lookups
    outside the stored domain answer ? instead of reporting absence.  The
    optional ``omega_sym`` identifies the rank-Omega witness symbol of the
    ambient problem and is carried through updates.  ``serialize`` keeps its
    text in ``_text``, which the standard extension shares.
    """

    __slots__ = ("_entries", "lazy", "omega_sym", "_text")

    def __init__(
        self,
        entries: dict[Canon, Value] | None = None,
        lazy: bool = False,
        omega_sym: SkolemSymbol | None = None,
    ):
        self._entries = dict(entries) if entries else {}
        self.lazy = lazy
        self.omega_sym = omega_sym
        self._text: str | None = None
        for e, u in self._entries.items():
            _check_entry(e, u)

    # -- construction -------------------------------------------------------

    @staticmethod
    def empty(omega_sym: SkolemSymbol | None = None) -> "Substitution":
        return Substitution({}, omega_sym=omega_sym)

    def _make(self, entries: dict[Canon, Value]) -> "Substitution":
        return Substitution(entries, lazy=self.lazy, omega_sym=self.omega_sym)

    def with_entry(self, e: Canon, u: Value) -> "Substitution":
        _check_entry(e, u)
        entries = dict(self._entries)
        entries[e] = u
        return self._make(entries)

    def without(self, e: Canon) -> "Substitution":
        if e not in self._entries:
            return self
        entries = dict(self._entries)
        del entries[e]
        return self._make(entries)

    def extended(self) -> "Substitution":
        """The standard extension: same entries, lazy lookups."""
        s = Substitution.__new__(Substitution)
        s._entries = self._entries
        s.lazy = True
        s.omega_sym = self.omega_sym
        s._text = self._text
        return s

    # -- lookup -------------------------------------------------------------

    def get(self, e: Canon) -> Value | None:
        """Value of e, or None when absent and the map is not lazy."""
        u = self._entries.get(e)
        if u is None and self.lazy:
            return UNKNOWN
        return u

    def raw(self, e: Canon) -> Value | None:
        return self._entries.get(e)

    def __contains__(self, e: Canon) -> bool:
        return e in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def domain(self) -> set[Canon]:
        return set(self._entries)

    def items(self) -> Iterator[tuple[Canon, Value]]:
        return iter(self._entries.items())

    def sorted_items(self) -> list[tuple[Canon, Value]]:
        return sorted(
            self._entries.items(),
            key=lambda it: rank_sort_key(it[0], self.omega_sym),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Substitution) and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"Substitution({serialize(self)!r})"

    # -- rank filters and polarity partitions --------------------------------

    def rank_of(self, e: Canon) -> Rank:
        return rank_of(e, self.omega_sym)

    def filter_rank(self, op: str, r: Rank) -> "Substitution":
        tests = {
            "<": lambda q: q < r,
            "<=": lambda q: q <= r,
            "=": lambda q: q == r,
            ">=": lambda q: q >= r,
            ">": lambda q: q > r,
        }
        test = tests[op]
        return self._make(
            {e: u for e, u in self._entries.items() if test(self.rank_of(e))}
        )

    def _omega_entries(self) -> Iterator[tuple[Canon, Value]]:
        for e, u in self._entries.items():
            if self.rank_of(e).is_omega:
                yield e, u

    def positive_omega(self) -> "Substitution":
        return self._make(
            {e: u for e, u in self._omega_entries() if entry_is_positive(e, u)}
        )

    def negative_omega(self) -> "Substitution":
        return self._make(
            {e: u for e, u in self._omega_entries() if not entry_is_positive(e, u)}
        )

    def positive_omega_forms(self) -> list[int]:
        """Members n with (n in I, top) present, unordered."""
        return [
            e.n
            for e, u in self._entries.items()
            if isinstance(e, CanonForm) and u.kind == "top"
        ]


def serialize(sub: Substitution) -> str:
    """Canonical one-line form: entries ordered by rank then expression."""
    if sub._text is None:
        parts = [f"({canon_sexpr(e)} {u})" for e, u in sub.sorted_items()]
        sub._text = "{" + " ".join(parts) + "}"
    return sub._text


def digest(sub: Substitution) -> str:
    return hashlib.sha256(serialize(sub).encode()).hexdigest()[:16]


class RecordingSubstitution:
    """A view of a substitution that records every canonical lookup.

    ``reads`` maps each canonical expression looked up to its stored value,
    None when absent.  Lookups answer as the standard extension does, or,
    with ``lazy`` off, as the stored map does (None when absent).
    ``consulted`` and ``leaked`` are the expressions looked up and those of
    them absent from the underlying map.
    """

    __slots__ = ("base", "lazy", "reads")

    def __init__(self, base: Substitution, lazy: bool = True):
        self.base = base
        self.lazy = lazy
        self.reads: dict[Canon, Value | None] = {}

    @property
    def omega_sym(self) -> SkolemSymbol | None:
        return self.base.omega_sym

    @property
    def consulted(self) -> set[Canon]:
        return set(self.reads)

    @property
    def leaked(self) -> set[Canon]:
        return {e for e, u in self.reads.items() if u is None}

    def get(self, e: Canon) -> Value | None:
        u = self.reads[e] = self.base.raw(e)
        if u is None and self.lazy:
            return UNKNOWN
        return u


class Verdicts:
    """Verdicts of `models`, each kept with the reads it rests on.

    An evaluation is a deterministic function of the values its lookups
    return, so a stored verdict is returned again only while every
    canonical expression it looked up still holds the same stored value
    (None for one that was absent).  A key names one formula on one kind of
    view, stored map or standard extension; the caller keeps keys apart.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[object, tuple[bool, tuple, tuple]] = {}

    def models(
        self, key: object, view: Substitution, formula: Callable[[], Expr]
    ) -> bool:
        """models(view, formula()); formula is called only on a miss."""
        memo = self._memo.get(key)
        if memo is not None and tuple(map(view._entries.get, memo[1])) == memo[2]:
            return memo[0]
        rec = RecordingSubstitution(view, view.lazy)
        verdict = models(rec, formula())
        self._memo[key] = (verdict, tuple(rec.reads), tuple(rec.reads.values()))
        return verdict


def models_with(
    verdicts: Verdicts | None,
    key: object,
    view,
    formula: Callable[[], Expr],
) -> bool:
    """models(view, formula()), through the table when there is one."""
    if verdicts is None:
        return models(view, formula())
    return verdicts.models(key, view, formula)


# ---------------------------------------------------------------------------
# Reduction

def reduce_term(t: Expr, sub) -> Expr:
    """Evaluate a term as far as the substitution decides it.

    Canonical Skolem terms read their value (? counts as 0); non-canonical
    ones reduce their arguments first and retry; arithmetic applications
    compute once their arguments are numerals.  The result is a fixed point
    of reduction.
    """
    if not is_term(t):
        raise SubstitutionError("reduce_term needs a term")
    if isinstance(t, (Numeral, Var)):
        return t
    if isinstance(t, SkolemApp):
        c = as_canonical(t)
        if c is not None:
            u = sub.get(c)
            if u is None:
                return t
            if u.kind == "unknown":
                return num(0)
            return num(u.n)
        red = [reduce_term(a, sub) for a in t.args]
        out = skolem(t.sym, red)
        if all(isinstance(a, Numeral) for a in red):
            return reduce_term(out, sub)
        return out
    # arithmetic application; eager folding keeps all-numeral cases away,
    # but reduce explicitly for trees built around variables or Skolem terms
    red = [reduce_term(a, sub) for a in t.args]
    if all(isinstance(a, Numeral) for a in red):
        return num(_apply_fn(t.fn, [a.value for a in red]))
    return FnApp(t.fn, tuple(red))


def reduce_formula(phi: Expr, sub) -> Expr:
    """Homomorphic reduction; membership atoms collapse when decided."""
    if not is_formula(phi):
        raise SubstitutionError("reduce_formula needs a formula")
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, RelAtom):
        return RelAtom(phi.rel, tuple(reduce_term(a, sub) for a in phi.args))
    if isinstance(phi, InSet):
        t = reduce_term(phi.arg, sub)
        if isinstance(t, Numeral):
            u = sub.get(CanonForm(t.value))
            if u is not None:
                return TOP if u.kind == "top" else BOTTOM
        return InSet(t)
    if isinstance(phi, Not):
        return Not(reduce_formula(phi.body, sub))
    if isinstance(phi, And):
        return And(reduce_formula(phi.left, sub), reduce_formula(phi.right, sub))
    if isinstance(phi, Or):
        return Or(reduce_formula(phi.left, sub), reduce_formula(phi.right, sub))
    raise SubstitutionError(f"cannot reduce {phi!r}")


class NotGround(Exception):
    pass


def evaluate_sentence(phi: Expr) -> bool:
    """Truth of a closed arithmetic sentence with top/bottom constants.

    Raises NotGround when Skolem terms, membership atoms or variables
    remain, i.e. when the sentence is not yet decided.
    """
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, RelAtom):
        vals = []
        for a in phi.args:
            if not isinstance(a, Numeral):
                raise NotGround(phi)
            vals.append(a.value)
        return vals[0] == vals[1] if phi.rel == "=" else vals[0] < vals[1]
    if isinstance(phi, Not):
        return not evaluate_sentence(phi.body)
    if isinstance(phi, And):
        # no short-circuit: a verdict needs the whole sentence to be ground
        left = evaluate_sentence(phi.left)
        right = evaluate_sentence(phi.right)
        return left and right
    if isinstance(phi, Or):
        left = evaluate_sentence(phi.left)
        right = evaluate_sentence(phi.right)
        return left or right
    raise NotGround(phi)


def models(sub, phi: Expr) -> bool:
    """True when the reduction of phi is a true arithmetic sentence."""
    try:
        return evaluate_sentence(reduce_formula(phi, sub))
    except NotGround:
        return False


def decides(sub, phi: Expr) -> bool:
    return models(sub, phi) or models(sub, not_(phi))


# ---------------------------------------------------------------------------
# Correctness

def correctness_formula(
    e: Canon, u: Value, ctx: InductiveContext | None = None
) -> Expr:
    """The condition a pair (e, u) must satisfy to sit in a correct map.

    Indeterminate values are unconditionally fine.  A valued term must
    witness its index formula minimally, except for the rank-Omega witness
    terms, whose condition is the bare negated-clause instance: their index
    mentions the set on both sides of the minimality conjunction, which
    would break the polarity the rollback argument relies on.  A top-valued
    atom must satisfy the membership condition.
    """
    if u.kind == "unknown":
        return TOP
    if isinstance(e, CanonTerm):
        if u.kind != "num":
            raise SubstitutionError("incompatible value for a canonical term")
        omega = ctx.omega_sym if ctx is not None else None
        head = instantiate_index(e.sym, u.n, e.args)
        if rank_of(e, omega).is_omega:
            return head
        parts = [head] + [
            not_(instantiate_index(e.sym, w, e.args)) for w in range(u.n)
        ]
        return conjoin(parts)
    if u.kind != "top":
        raise SubstitutionError("incompatible value for a membership atom")
    if ctx is None:
        raise SubstitutionError("membership atoms need an inductive clause")
    return ctx.a_formula(e.n)


def is_correct(
    sub: Substitution,
    ctx: InductiveContext | None = None,
    verdicts: Verdicts | None = None,
) -> bool:
    """Every entry satisfies its correctness formula in the standard extension.

    With a table, each entry's verdict is kept under ("correct", e, u).
    """
    ext = sub.extended()
    return all(
        models_with(
            verdicts, ("correct", e, u), ext, lambda: correctness_formula(e, u, ctx)
        )
        for e, u in sub.items()
    )


def member_conflict(sub: Substitution, ctx: InductiveContext | None) -> bool:
    """Some member n in I has its rank-Omega witness term c_n valued."""
    if ctx is None:
        return False
    members = {
        e.n for e, u in sub.items() if isinstance(e, CanonForm) and u.kind == "top"
    }
    if not members:
        return False
    for e, u in sub.items():
        if isinstance(e, CanonTerm) and u.kind == "num":
            n = ctx.member_of(e)
            if n is not None and n in members:
                return True
    return False


def refutes(
    sub: Substitution,
    e: Canon,
    u: Value,
    ctx: InductiveContext | None = None,
    verdicts: Verdicts | None = None,
) -> bool:
    """Whether the stored entries of sub decide the pair (e, u) incorrect.

    With a table, the verdict is kept under ("refutes", e, u).
    """
    return models_with(
        verdicts, ("refutes", e, u), sub, lambda: not_(correctness_formula(e, u, ctx))
    )


def is_cc(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    """Computational consistency: no refuted entry, no witness conflict."""
    if member_conflict(sub, ctx):
        return False
    return not any(refutes(sub, e, u, ctx) for e, u in sub.items())


def is_ci(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    return not is_cc(sub, ctx)


def is_computing(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    return all(
        decides(sub, correctness_formula(e, u, ctx)) for e, u in sub.items()
    )
