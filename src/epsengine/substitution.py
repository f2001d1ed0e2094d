"""Substitutions over canonical expressions and their three-valued semantics.

A substitution is a finite map from canonical expressions to values.  Its
standard extension treats every unassigned canonical expression as
indeterminate.  One evaluator walks a term or formula once and answers its
value, or None when a lookup left it undecided: on the standard extension
every closed formula is decided, on the stored map an absent entry is not.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .language import (
    And,
    Bottom,
    Canon,
    CanonForm,
    CanonTerm,
    Expr,
    FnApp,
    InductiveContext,
    InSet,
    LanguageError,
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
    canon_sexpr,
    conjoin,
    instantiate_index,
    is_formula,
    is_term,
    not_,
    rank_of,
    rank_sort_key,
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
    """Verdicts of three-valued evaluators, each kept with the reads it
    rests on.

    An evaluation is a deterministic function of the values its lookups
    return, so a stored verdict is returned again only while every
    canonical expression it looked up still holds the same stored value
    (None for one that was absent).  A key names one evaluation on one kind
    of view, stored map or standard extension; the caller keeps keys apart.
    ``order`` keeps the planner's visiting order of the table's one list of
    formulas (see `process.compute_plan`).
    """

    __slots__ = ("_memo", "order")

    def __init__(self) -> None:
        self._memo: dict[object, tuple[bool | None, tuple, tuple]] = {}
        self.order: list | None = None

    def truth(
        self, key: object, view: Substitution, evaluate: Callable[[object], bool | None]
    ) -> bool | None:
        """evaluate(view); evaluate is called only on a miss."""
        memo = self._memo.get(key)
        if memo is not None and tuple(map(view._entries.get, memo[1])) == memo[2]:
            return memo[0]
        rec = RecordingSubstitution(view, view.lazy)
        verdict = evaluate(rec)
        self._memo[key] = (verdict, tuple(rec.reads), tuple(rec.reads.values()))
        return verdict


def truth_with(
    verdicts: Verdicts | None,
    key: object,
    view,
    evaluate: Callable[[object], bool | None],
) -> bool | None:
    """evaluate(view), through the table when there is one."""
    if verdicts is None:
        return evaluate(view)
    return verdicts.truth(key, view, evaluate)


# ---------------------------------------------------------------------------
# Evaluation.  A term or formula is compiled, on its first evaluation, into
# a closure (env, view) -> value that is kept on the node; env[i] is the
# value of Var(i), so a template is evaluated at a hole without building
# its instance, and a variable outside env is undecided.  Every argument and
# both sides of every connective are evaluated, in order, so which parts
# are evaluated never depends on the values read; None means a lookup left
# the expression undecided, and then so is all that contains it.

Code = Callable[[tuple, object], "int | bool | None"]
_BINARY = {"+": operator.add, "*": operator.mul}


def compiled(e: Expr) -> Code:
    """The closure evaluating e, compiled on first use and kept on e."""
    code = e._code
    if code is None:
        code = _compile(e)
        object.__setattr__(e, "_code", code)
    return code


def _compile(e: Expr) -> Code:
    make = _COMPILERS.get(type(e))
    if make is None:
        raise SubstitutionError(f"cannot evaluate {e!r}")
    return make(e)


def _numeral(t: Numeral) -> Code:
    n = t.value
    return lambda env, view: n


def _var(t: Var) -> Code:
    i = t.index

    def var(env, view):
        try:
            return env[i]
        except IndexError:
            return None

    return var


def _fn_app(t: FnApp) -> Code:
    if t.fn == "s":
        (a,) = map(_compile, t.args)

        def succ(env, view):
            x = a(env, view)
            return None if x is None else x + 1

        return succ
    a, b = map(_compile, t.args)
    op = _BINARY.get(t.fn)
    if op is None:
        raise LanguageError(f"unknown function symbol {t.fn!r}")

    def binary(env, view):
        x, y = a(env, view), b(env, view)
        return None if x is None or y is None else op(x, y)

    return binary


def _skolem_app(t: SkolemApp) -> Code:
    sym, args = t.sym, [_compile(a) for a in t.args]

    def app(env, view):
        vals = tuple([a(env, view) for a in args])
        if None in vals:
            return None
        u = view.get(CanonTerm(sym, vals))
        if u is None:
            return None
        return 0 if u.kind == "unknown" else u.n

    return app


def _rel_atom(phi: RelAtom) -> Code:
    a, b = map(_compile, phi.args)
    is_eq = phi.rel == "="

    def rel(env, view):
        x, y = a(env, view), b(env, view)
        if x is None or y is None:
            return None
        return x == y if is_eq else x < y

    return rel


def _not(phi: Not) -> Code:
    body = _compile(phi.body)

    def neg(env, view):
        v = body(env, view)
        return None if v is None else not v

    return neg


def _connective(phi: And | Or) -> Code:
    left, right = _compile(phi.left), _compile(phi.right)
    conj = isinstance(phi, And)

    def connective(env, view):
        x, y = left(env, view), right(env, view)
        if x is None or y is None:
            return None
        return x and y if conj else x or y

    return connective


def _in_set(phi: InSet) -> Code:
    arg = _compile(phi.arg)

    def member(env, view):
        n = arg(env, view)
        u = None if n is None else view.get(CanonForm(n))
        return None if u is None else u.kind == "top"

    return member


def _constant(phi: Top | Bottom) -> Code:
    const = isinstance(phi, Top)
    return lambda env, view: const


_COMPILERS = {
    Numeral: _numeral,
    Var: _var,
    FnApp: _fn_app,
    SkolemApp: _skolem_app,
    RelAtom: _rel_atom,
    Not: _not,
    And: _connective,
    Or: _connective,
    InSet: _in_set,
    Top: _constant,
    Bottom: _constant,
}


def value(t: Expr, view) -> int | None:
    """The numeral a term denotes under view; ? counts as 0."""
    if not is_term(t):
        raise SubstitutionError(f"value needs a term, got {t!r}")
    return compiled(t)((), view)


def truth(phi: Expr, view) -> bool | None:
    """True, False, or None when the view leaves phi undecided."""
    if not is_formula(phi):
        raise SubstitutionError(f"truth needs a formula, got {phi!r}")
    return compiled(phi)((), view)


def models(sub, phi: Expr) -> bool:
    """Whether sub decides phi true."""
    return truth(phi, sub) is True


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


def correctness(
    e: Canon, u: Value, view, ctx: InductiveContext | None = None
) -> bool | None:
    """truth(correctness_formula(e, u, ctx), view), without building it.

    A valued term's minimality condition is a loop over its instances: the
    head at u, then each w < u, every one evaluated in the order the
    conjunction lists them, so the reads are the formula's; an undecided
    instance leaves the whole condition undecided.
    """
    if u.kind == "unknown":
        return True
    if isinstance(e, CanonTerm):
        if u.kind != "num":
            raise SubstitutionError("incompatible value for a canonical term")
        index, args = compiled(e.sym.index_formula), e.args
        verdict = index((u.n, *args), view)
        omega = ctx.omega_sym if ctx is not None else None
        if rank_of(e, omega).is_omega:
            return verdict
        for w in range(u.n):
            below = index((w, *args), view)
            if verdict is not None:
                verdict = None if below is None else verdict and not below
        return verdict
    if u.kind != "top":
        raise SubstitutionError("incompatible value for a membership atom")
    if ctx is None:
        raise SubstitutionError("membership atoms need an inductive clause")
    return compiled(ctx.a_template)((e.n,), view)


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
        truth_with(
            verdicts, ("correct", e, u), ext, lambda v: correctness(e, u, v, ctx)
        )
        is True
        for e, u in sub.items()
    )


def member_conflict(sub: Substitution, ctx: InductiveContext | None) -> bool:
    """Some member n in I has its rank-Omega witness term c_n valued."""
    if ctx is None:
        return False
    members = set(sub.positive_omega_forms())
    return bool(members) and any(
        isinstance(e, CanonTerm) and u.kind == "num" and ctx.member_of(e) in members
        for e, u in sub.items()
    )


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
    return (
        truth_with(
            verdicts, ("refutes", e, u), sub, lambda v: correctness(e, u, v, ctx)
        )
        is False
    )


def is_cc(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    """Computational consistency: no refuted entry, no witness conflict."""
    if member_conflict(sub, ctx):
        return False
    return not any(refutes(sub, e, u, ctx) for e, u in sub.items())


def is_ci(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    return not is_cc(sub, ctx)

