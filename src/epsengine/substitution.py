"""Substitutions over canonical expressions and their three-valued semantics.

A substitution is a finite map from canonical expressions to values, read
as its standard extension: every unassigned canonical expression is
indeterminate.  One evaluator walks a term or formula once and answers its
value, or None when a part is left undecided: on a map every closed formula
is decided, and a view whose lookups may answer None (a test's, for one)
leaves undecided all that contains such a lookup.
"""

from __future__ import annotations

import hashlib
import operator
import sys
from bisect import bisect_left
from collections import defaultdict
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .language import (
    And,
    At,
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
    OMEGA,
    Or,
    RelAtom,
    Rank,
    SkolemApp,
    SkolemSymbol,
    Top,
    Var,
    is_formula,
    is_term,
    rank_of,
    rank_sort_key,
)


class SubstitutionError(Exception):
    pass


class ValueError_(SubstitutionError):
    """An entry was given a value its expression kind cannot take."""


# ---------------------------------------------------------------------------
# Values

class Value(NamedTuple):
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
    if u.kind not in ("num", "top", "unknown") or (u.kind != "num" and u.n):
        raise ValueError_(f"not a value: {u!r}")  # its text would name another
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
# Substitutions.  Each entry is kept as a row (key, text, e, u), where key is
# `rank_sort_key(e)` and text is the entry's serialized form "(e u)".  Rows
# sit in key order, which is serialization order, so the rank cut is a
# slice and `serialize` a join.  `canon_sexpr` names each canonical
# expression by a distinct text and `str` each value an entry can hold by a
# distinct text, so two maps store the same entry exactly when they hold
# the same row text.

_KEY = itemgetter(0)
_TEXT = itemgetter(1)
_PAIR = itemgetter(2, 3)
_READS = itemgetter(1)  # of a verdict's version: (verdict, reads, values)


def _row(e: Canon, u: Value, omega_sym: SkolemSymbol | None) -> tuple:
    key = rank_sort_key(e, omega_sym)
    return key, f"({key[2]} {u})", e, u


def _put(rows: list, row: tuple) -> None:
    """Insert row in order into rows, replacing the row of its expression."""
    i = bisect_left(rows, row[0], key=_KEY)
    if i < len(rows) and rows[i][0] == row[0]:
        rows[i] = row
    else:
        rows.insert(i, row)


def _above(r: Rank) -> tuple:
    """A probe that bisects rows to the first of rank above r."""
    return r.kind, r.n + 1


class Substitution:
    """Immutable finite map from canonical expressions to values.

    The optional ``omega_sym`` identifies the rank-Omega witness symbol of
    the ambient problem and is carried through updates.  A map is built
    with its rows in order; one derived from another map takes the
    parent's rows and checks only the entries it adds.  Lookups answer as
    the standard extension does: ? outside the stored domain (`raw` tells
    absence apart).  ``serialize`` keeps its text in ``_text`` and `digest`
    its hash in ``_digest``.
    """

    __slots__ = ("_entries", "_rows", "omega_sym", "_text", "_digest")

    def __init__(
        self,
        entries: dict[Canon, Value] | None = None,
        omega_sym: SkolemSymbol | None = None,
    ):
        self._entries = dict(entries) if entries else {}
        for e, u in self._entries.items():
            _check_entry(e, u)
        self._rows = sorted(
            [_row(e, u, omega_sym) for e, u in self._entries.items()], key=_KEY
        )
        self.omega_sym = omega_sym
        self._text: str | None = None
        self._digest: str | None = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def empty(omega_sym: SkolemSymbol | None = None) -> "Substitution":
        return Substitution({}, omega_sym=omega_sym)

    def derive(self, rows: list, pairs=(), entries=None) -> "Substitution":
        """A map like this one holding rows, a list of its own rows (or of
        a map with its Omega symbol) in order, with each pair (e, u) then
        checked and put in its place, later pairs winning.  rows is taken
        over, not copied; entries, when given, is the dict of the result."""
        omega = self.omega_sym
        for e, u in pairs:
            _check_entry(e, u)
            _put(rows, _row(e, u, omega))
        s = Substitution.__new__(Substitution)
        s._entries = dict(map(_PAIR, rows)) if entries is None else entries
        s._rows = rows
        s.omega_sym = omega
        s._text = None
        s._digest = None
        return s

    def with_entry(self, e: Canon, u: Value) -> "Substitution":
        entries = self._entries.copy()
        entries[e] = u
        return self.derive(self._rows.copy(), [(e, u)], entries)

    def without(self, e: Canon) -> "Substitution":
        if e not in self._entries:
            return self
        rows = self._rows
        i = bisect_left(rows, rank_sort_key(e, self.omega_sym), key=_KEY)
        return self.derive(rows[:i] + rows[i + 1 :])

    # -- lookup -------------------------------------------------------------

    def get(self, e: Canon) -> Value:
        """Value of e in the standard extension: ? when absent."""
        return self._entries.get(e, UNKNOWN)

    def raw(self, e: Canon) -> Value | None:
        """Stored value of e, or None when absent."""
        return self._entries.get(e)

    def __contains__(self, e: Canon) -> bool:
        return e in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[tuple[Canon, Value]]:
        return iter(self._entries.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Substitution) and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"Substitution({serialize(self)!r})"

    # -- rank filters and polarity partitions --------------------------------

    def rank_of(self, e: Canon) -> Rank:
        return rank_of(e, self.omega_sym)

    def up_to(self, r: Rank) -> "Substitution":
        """The entries of rank at most r: a slice of the rows."""
        rows = self._rows
        stop = bisect_left(rows, _above(r), key=_KEY)
        return self if stop == len(rows) else self.derive(rows[:stop])

    def split_omega(self) -> tuple[list, list]:
        """The rows below rank Omega and the rows at it, in order."""
        rows = self._rows
        lo = bisect_left(rows, OMEGA, key=_KEY)
        return rows[:lo], rows[lo : bisect_left(rows, _above(OMEGA), key=_KEY)]

    def negative_omega(self) -> "Substitution":
        layer = self.split_omega()[1]
        return self.derive([r for r in layer if not entry_is_positive(r[2], r[3])])

    def positive_omega_forms(self) -> list[int]:
        """Members n with (n in I, top) present, in serialization order."""
        return [
            e.n
            for _, _, e, u in self.split_omega()[1]
            if isinstance(e, CanonForm) and u.kind == "top"
        ]


def serialize(sub: Substitution) -> str:
    """Canonical one-line form: entries ordered by rank then expression."""
    if sub._text is None:
        sub._text = "{" + " ".join(map(_TEXT, sub._rows)) + "}"
    return sub._text


def digest(sub: Substitution) -> str:
    if sub._digest is None:
        sub._digest = hashlib.sha256(serialize(sub).encode()).hexdigest()[:16]
    return sub._digest


class Change(NamedTuple):
    """What two maps store differently, from the first to the second.

    ``added`` and ``removed`` are the entry texts only the second and only
    the first map holds, sorted; ``rows`` are the second map's rows behind
    ``added`` (entries added or revalued) and ``gone`` the first map's rows
    behind ``removed`` (entries removed or revalued), each in order; so the
    canonical expressions whose stored value differs are those of both.
    ``omega`` tells whether one of them has rank Omega.

    A step builds its change from what it did, not from the two whole maps
    (see `put_change`, `member_change` and `rollback_change`).
    """

    added: tuple[str, ...]
    removed: tuple[str, ...]
    rows: list
    gone: list
    omega: bool


def _is_omega(rows: list) -> bool:
    omega = OMEGA.kind
    return any([r[0][0] == omega for r in rows])


def put_change(before: Substitution, after: Substitution, key: tuple) -> Change:
    """The change of a step that keeps before's rows up to key's rank and
    puts after's row of key there, with a value before's row of key, if
    any, does not hold: that row against the old one and the rows past the
    cut."""
    b_rows = before._rows
    new = after._rows[bisect_left(after._rows, key, key=_KEY)]
    stop = bisect_left(b_rows, (key[0], key[1] + 1), key=_KEY)
    gone = b_rows[stop:]
    i = bisect_left(b_rows, key, key=_KEY)
    if i < stop and b_rows[i][0] == key:  # a ? the step values
        gone.insert(0, b_rows[i])
    return Change(
        (new[1],),
        tuple(sorted(map(_TEXT, gone))),
        [new],
        gone,
        _is_omega(gone),  # the put row has the rank of a step off Omega
    )


def member_change(
    before: Substitution, after: Substitution, key: tuple, displaced: list
) -> Change:
    """The change of an omega-pos step, which keeps before's rows below
    rank Omega and its positive rows at Omega, moves the negative ones,
    displaced, to the history and puts after's row of key: that row, unless
    before held it, against the displaced rows and the rows above Omega."""
    b_rows, a_rows = before._rows, after._rows
    new = a_rows[bisect_left(a_rows, key, key=_KEY)]
    gone = displaced + b_rows[bisect_left(b_rows, _above(OMEGA), key=_KEY) :]
    rows = [new] if before._entries.get(new[2]) != new[3] else []
    return Change(
        tuple(map(_TEXT, rows)),
        tuple(sorted(map(_TEXT, gone))),
        rows,
        gone,
        bool(rows or displaced),  # the rows above Omega are not of it
    )


def rollback_change(
    before: Substitution, after: Substitution, key: tuple, restored: list
) -> Change:
    """The change of an omega-neg step, which keeps before's rows below
    rank Omega, cuts some of the rest and puts the restored rows, in order,
    and after's row of key: the rows it cut against the rows it put, less
    any row whose text did not change."""
    b_rows, a_rows = before._rows, after._rows
    new = a_rows[bisect_left(a_rows, key, key=_KEY)]
    held, had = after._entries.get, before._entries.get
    layer = b_rows[bisect_left(b_rows, OMEGA, key=_KEY) :]  # and the rows above
    gone = [r for r in layer if held(r[2]) != r[3]]
    put = [r for r in restored if r[0] != key]  # the new pair wins
    put.insert(bisect_left(put, key, key=_KEY), new)
    rows = [r for r in put if had(r[2]) != r[3]]
    return Change(
        tuple(sorted(map(_TEXT, rows))),
        tuple(sorted(map(_TEXT, gone))),
        rows,
        gone,
        _is_omega(rows) or _is_omega(gone),
    )


class RecordingSubstitution:
    """A view of a substitution that records every canonical lookup.

    ``reads`` maps each canonical expression looked up to its stored value,
    None when absent.  Lookups answer as the standard extension does.
    """

    __slots__ = ("base", "reads", "_raw")

    def __init__(self, base: Substitution):
        self.base = base
        self.reads: dict[Canon, Value | None] = {}
        self._raw = base._entries.get

    def get(self, e: Canon) -> Value:
        u = self.reads[e] = self._raw(e)
        return UNKNOWN if u is None else u


# Earlier versions a verdict table keeps per key, beside the current one.
# A rank-Omega step moves entries into the history and a rollback brings
# them back, so a formula often reads again what it read one or two
# evaluations before.  Without kept versions, on the bench's omega_ladder,
# seed 1, 514 of the 742 formula evaluations did (404 one back, 110 two
# back), on its corpus 421 of 1728 and on eps_chain none.  Counting
# formula and correctness evaluations, `run` makes 822 on omega_ladder
# with none kept, 418 with one, 308 with two and 308 with three or four.
KEPT = 2


class Verdicts:
    """Verdicts of three-valued evaluators, each kept with the reads it
    rests on, and what the table knows of the one state it follows.

    An evaluation is a deterministic function of the values its lookups
    return, so a stored verdict is returned again only while every
    canonical expression it looked up still holds the same stored value
    (None for one that was absent).  A key names one evaluation on the
    standard extension, and its recorded values tell whether every lookup
    found a stored entry (see `read_stored`).

    A version of a key is the triple (verdict, reads, values); ``_memo``
    holds each key's current one, and ``_versions``, for a key evaluated
    more than once, its last KEPT + 1 versions in the order they were
    evaluated, the current one among them.  When the current version's
    reads fail, a kept version whose reads hold becomes current (as each
    lookup follows from the values before it, at most one can), and the
    key is evaluated only when none does.  Two are kept because a rollback
    brings back the entries a member displaced, and with them the reads of
    a version one or two evaluations old: that was so for 69% of the
    formula evaluations on the bench's omega_ladder, 24% on its corpus and
    none on eps_chain (see KEPT).

    The table follows one state, the map of the last view it was asked
    about.  ``_current`` holds the keys whose reads are known to agree with
    that state, ``known`` those of them whose verdict is True, and
    ``_readers`` maps each canonical expression to the keys one of whose
    kept versions read it, so a version that becomes current is watched
    already; dropping a version drops the reads no kept version shares.
    `advance` moves the table along a step whose `Change` it is told: the
    keys with a kept version that read a changed expression leave
    ``_current`` and ``known``, and it keeps the pairs the table can no
    longer vouch for in ``_touched`` (see `touched`) and the change in
    ``step`` (both None after a map the table did not follow).  The
    correctness keys of the entries steps removed leave the table, every
    version at once, once it holds about three times its live keys (see
    `_forget`), so its size stays within a constant of theirs.  A key in
    ``_current`` is answered without re-reading, and callers skip the keys
    in ``known`` (see `is_correct`); any other key, and any key on a state
    the table did not follow, is validated by its reads.  ``ci`` is the
    guard's verdict (`is_ci`) on the followed state, which the step that
    made it left there (see `process.h_step`), or None: on a map the table
    did not follow, and after `advance` until the guard runs.

    A table serves one list of critical formulas, whose keys are their
    indices, and is built with their visiting order: ``order``, a sorted
    iterable of (rank bound, index) with one place per formula, which
    `process.run` makes once.  ``order`` maps each index to its place, in
    that order, and ``_pending`` lists the places of the keys not in
    ``known``, in order: a key a walk finds known leaves the list as the
    walk passes it (see `pending_formulas`), and `advance` puts back the
    keys it makes stale.  There is no default order: a table without its
    formulas would find every list of them solving.
    """

    __slots__ = (
        "_memo", "_versions", "_readers", "_state", "_current", "known", "ci",
        "_touched", "step", "order", "_pending",
    )

    def __init__(self, order: Iterable[tuple]) -> None:
        self._memo: dict[object, tuple[bool | None, tuple, tuple]] = {}
        self._versions: dict[object, tuple] = {}
        self._readers: defaultdict[Canon, set] = defaultdict(set)
        self._state: dict | None = None
        self._current: set = set()
        self.known: set = set()
        self.ci: bool | None = None
        self._touched: dict | None = None
        self.step: Change | None = None
        self.order = {key[1]: key for key in order}
        self._pending: list | None = None

    def follow(self, sub: Substitution) -> set:
        """Follow sub's map, and return the keys known to hold on it; a map
        the table did not follow starts afresh."""
        if sub._entries is not self._state:
            self._state = sub._entries
            self._current.clear()
            self.known.clear()
            self.ci = self._touched = self.step = self._pending = None
        return self.known

    def pending_formulas(self) -> Iterator[tuple]:
        """The places of the formulas not known to hold, in order; one
        found known, before it is yielded or after, leaves the list.  The
        list is derived from ``known`` on first need."""
        known = self.known
        if self._pending is None:
            self._pending = [key for i, key in self.order.items() if i not in known]
        pending, j = self._pending, 0
        while j < len(pending):
            key = pending[j]
            if key[1] not in known:
                yield key
                if key[1] not in known:
                    j += 1
                    continue
            del pending[j]

    def advance(self, before: Substitution, after: Substitution, delta: Change) -> None:
        """Follow the step from before to after, whose change is delta."""
        if before._entries is not self._state:
            self.follow(after)
            return
        stale: set = set()
        readers = self._readers
        for r in delta.rows + delta.gone:
            keys = readers.get(r[2])
            if keys:
                stale |= keys
        back = self.known & stale
        self._current -= stale
        self.known -= stale
        pending = self._pending
        if back and pending is not None:
            slot = self.order.get
            for key in back:  # into a sorted list: the set's order is lost
                key = slot(key)
                if key is not None:
                    i = bisect_left(pending, key)
                    if i == len(pending) or pending[i] != key:
                        pending.insert(i, key)
        if delta.gone:
            self._forget(after._entries)
        touched = dict.fromkeys(map(_PAIR, delta.rows))
        get = after._entries.get
        for key in stale:
            if key.__class__ is tuple and get(key[1]) == key[2]:
                touched[key[1], key[2]] = None
        self._state = after._entries
        self.ci = None
        self._touched, self.step = touched, delta

    def _forget(self, entries: dict) -> None:
        """Once the table holds more than three times a key per formula and
        per pair of entries, the map it now follows, and a constant, drop
        the correctness keys of the pairs not in it.  Not at once: a
        rollback restores the pairs a member displaced, whose verdicts
        mostly still hold.  A drop follows a growth of the table by twice
        its live keys, and costs about as much."""
        memo = self._memo
        if len(memo) <= 3 * (len(self.order) + len(entries)) + 64:
            return
        readers, get = self._readers, entries.get
        versions = self._versions
        for key in [k for k in memo if k.__class__ is tuple and get(k[1]) != k[-1]]:
            reads = set(memo.pop(key)[1])
            for version in versions.pop(key, ()):
                reads.update(version[1])
            for d in reads:
                keys = readers[d]
                keys.discard(key)
                if not keys:
                    del readers[d]
            self._current.discard(key)
            self.known.discard(key)

    def touched(self, sub: Substitution) -> Iterable[tuple[Canon, Value]]:
        """The pairs of sub whose verdicts the table cannot vouch for, which
        the guard and `--check` evaluate: on the map the table followed a
        step to, those the step added or revalued and those whose
        correctness key it made stale, as `advance` found them once; every
        pair of any other map.  A pair the table never evaluated has no
        reads to go stale, so the others are vouched for only where every
        pair was evaluated once the table began following, as `run` does by
        guarding its first state."""
        if self._touched is None or sub._entries is not self._state:
            return sub._entries.items()
        return self._touched

    def truth(
        self, key: object, view: Substitution, evaluate: Callable[[object], bool | None]
    ) -> bool | None:
        """evaluate(view); evaluate is called only on a miss."""
        entries = view._entries
        if entries is not self._state:
            self.follow(view)
        if key in self._current:
            return self._memo[key][0]
        memo = self._memo.get(key)
        if memo is not None and tuple(map(entries.get, memo[1])) == memo[2]:
            verdict = memo[0]
        else:
            versions = () if memo is None else self._versions.get(key) or (memo,)
            for version in versions:  # a kept one whose reads hold: at most one
                if version is memo:
                    continue
                if tuple(map(entries.get, version[1])) == version[2]:
                    self._memo[key] = version
                    verdict = version[0]
                    break
            else:
                rec = RecordingSubstitution(view)
                verdict = evaluate(rec)
                reads = tuple(rec.reads)
                self._memo[key] = new = (verdict, reads, tuple(rec.reads.values()))
                if versions:
                    self._keep(key, versions, new)
                else:
                    readers = self._readers
                    for e in reads:
                        readers[e].add(key)
        self._current.add(key)
        if verdict is True:
            self.known.add(key)
        return verdict

    def _keep(self, key: object, versions: tuple, new: tuple) -> None:
        """Keep new, key's current version, after versions, its earlier
        ones in the order they were evaluated, dropping the oldest once more
        than KEPT precede new; the reverse index follows."""
        reads, readers = new[1], self._readers
        if reads not in map(_READS, versions):  # often a kept one read the same
            for e in reads:
                readers[e].add(key)
        if len(versions) > KEPT:
            dropped, versions = versions[0], versions[1:]
            for e in set(dropped[1]).difference(reads, *map(_READS, versions)):
                keys = readers[e]
                keys.discard(key)
                if not keys:
                    del readers[e]
        self._versions[key] = (*versions, new)

    def read_stored(self, key: object) -> bool:
        """Whether every lookup of key's current version, which `truth`
        made, validated or brought back, found a stored entry."""
        return None not in self._memo[key][2]


# ---------------------------------------------------------------------------
# Evaluation.  A term or formula is compiled, on its first evaluation, into
# a closure (env, view) -> value that is kept on the node; env[i] is the
# value of Var(i), so a template is evaluated at a hole without building
# its instance (an `At` node's template at its term's value, read first),
# and a variable outside env is undecided.  Every argument and both sides
# of every connective are evaluated, in order, so which parts are
# evaluated never depends on the values read; None means a lookup left
# the expression undecided, and then so is all that contains it.
#
# A few shapes compile to one closure where a tree of them would do
# (Proebsting's superoperators): an implication (or (not A) B) and its
# negation, and every node over terms reading a numeral or variable operand
# in place, as `_leaf` spells out.  A Skolem application or membership
# atom over numerals builds its key once, here; other keys are built by
# tuple.__new__, without a Python frame.  Each node's closure is kept on it,
# so a subtree shared by several trees is compiled once, and binds what it
# reads as default arguments: one tuple where cells would be one object each.

Code = Callable[[tuple, object], "int | bool | None"]
_BINARY = {"+": operator.add, "*": operator.mul}
_new = tuple.__new__
_PAST = sys.maxsize  # an index past the end of every env


def compiled(e: Expr) -> Code:
    """The closure evaluating e, compiled on first use and kept on e."""
    return e._code or _compile(e)


def _compile(e: Expr) -> Code:
    # compilers reach a child through here too, after reading its _code in
    # place, so compiling costs two frames a level of nesting
    make = _COMPILERS.get(type(e))
    if make is None:
        raise SubstitutionError(f"cannot evaluate {e!r}")
    code = e._code = make(e)
    return code


def _leaf(t: Expr) -> tuple | None:
    """How a node reads its term operand t, as (f, i, d): the value is
    f(env, view) when f is set, else env[i], or d when env is too short.
    A variable or numeral is read in place: a variable is undecided past
    env's end, and a numeral lies past every env's end, so it reads as its
    value.  Any other t gives None: the node then reads (t's closure, 0,
    None) and compiles t itself, so compiling costs two frames a level."""
    if t.__class__ is Var:
        return None, t.index, None
    if t.__class__ is Numeral:
        return None, _PAST, t.value
    return None


def _numeral(t: Numeral) -> Code:
    n = t.value
    return lambda env, view: n


def _var(t: Var) -> Code:
    i = t.index
    return lambda env, view: env[i] if i < len(env) else None


def _fn_app(t: FnApp) -> Code:
    if t.fn == "s":
        (a,) = t.args
        f, i, d = _leaf(a) or (a._code or _compile(a), 0, None)

        def succ(env, view, f=f, i=i, d=d):
            x = f(env, view) if f is not None else env[i] if i < len(env) else d
            return None if x is None else x + 1

        return succ
    a, b = t.args
    fa, ia, da = _leaf(a) or (a._code or _compile(a), 0, None)
    fb, ib, db = _leaf(b) or (b._code or _compile(b), 0, None)
    op = _BINARY.get(t.fn)
    if op is None:
        raise LanguageError(f"unknown function symbol {t.fn!r}")

    def binary(env, view, fa=fa, ia=ia, da=da, fb=fb, ib=ib, db=db, op=op):
        x = fa(env, view) if fa is not None else env[ia] if ia < len(env) else da
        y = fb(env, view) if fb is not None else env[ib] if ib < len(env) else db
        return None if x is None or y is None else op(x, y)

    return binary


def _skolem_app(t: SkolemApp) -> Code:
    sym = t.sym
    args = [_leaf(a) or (a._code or _compile(a), 0, None) for a in t.args]
    numerals = tuple([d for _, _, d in args])
    if None not in numerals:  # the key is built here, once

        def constant_app(env, view, key=_new(CanonTerm, (sym, numerals))):
            u = view.get(key)
            return None if u is None else 0 if u.kind == "unknown" else u.n

        return constant_app

    def app(env, view, sym=sym, args=args):
        vals = []
        for f, i, d in args:  # a loop calls no comprehension's frame
            x = f(env, view) if f is not None else env[i] if i < len(env) else d
            vals.append(x)
        if None in vals:
            return None
        u = view.get(_new(CanonTerm, (sym, tuple(vals))))
        return None if u is None else 0 if u.kind == "unknown" else u.n

    return app


def _rel_atom(phi: RelAtom) -> Code:
    a, b = phi.args
    fa, ia, da = _leaf(a) or (a._code or _compile(a), 0, None)
    fb, ib, db = _leaf(b) or (b._code or _compile(b), 0, None)
    is_eq = phi.rel == "="

    def rel(env, view, fa=fa, ia=ia, da=da, fb=fb, ib=ib, db=db, is_eq=is_eq):
        x = fa(env, view) if fa is not None else env[ia] if ia < len(env) else da
        y = fb(env, view) if fb is not None else env[ib] if ib < len(env) else db
        if x is None or y is None:
            return None
        return x == y if is_eq else x < y

    return rel


def _not(phi: Not) -> Code:
    body = phi.body
    if body.__class__ is Or and body.left.__class__ is Not:  # a counterexample
        a, b = body.left.body, body.right
        premise, conclusion = a._code or _compile(a), b._code or _compile(b)

        def counterexample(env, view, premise=premise, conclusion=conclusion):
            x, y = premise(env, view), conclusion(env, view)
            return None if x is None or y is None else x and not y

        return counterexample

    def neg(env, view, body=body._code or _compile(body)):
        v = body(env, view)
        return None if v is None else not v

    return neg


def _connective(phi: And | Or) -> Code:
    a, b = phi.left, phi.right
    if phi.__class__ is Or and a.__class__ is Not:  # an implication
        a = a.body
        premise, conclusion = a._code or _compile(a), b._code or _compile(b)

        def implication(env, view, premise=premise, conclusion=conclusion):
            x, y = premise(env, view), conclusion(env, view)
            return None if x is None or y is None else not x or y

        return implication
    left, right = a._code or _compile(a), b._code or _compile(b)
    conj = isinstance(phi, And)

    def connective(env, view, left=left, right=right, conj=conj):
        x, y = left(env, view), right(env, view)
        if x is None or y is None:
            return None
        return x and y if conj else x or y

    return connective


def _in_set(phi: InSet) -> Code:
    a = phi.arg
    f, i, d = _leaf(a) or (a._code or _compile(a), 0, None)
    if d is not None:  # a numeral: the key is built here, once

        def constant_member(env, view, key=_new(CanonForm, (d,))):
            u = view.get(key)
            return None if u is None else u.kind == "top"

        return constant_member

    def member(env, view, f=f, i=i, d=d):
        n = f(env, view) if f is not None else env[i] if i < len(env) else d
        u = None if n is None else view.get(_new(CanonForm, (n,)))
        return None if u is None else u.kind == "top"

    return member


def _at(phi: At) -> Code:
    t, a = phi.template, phi.arg
    f = t._code or _compile(t)
    if t.closed:  # its own instance: arg is not read
        return f
    if a.__class__ is Numeral:
        return lambda env, view, f=f, h=(a.value,): f(h, view)
    g = a._code or _compile(a)
    return lambda env, view, f=f, g=g: f((g(env, view),), view)


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
    At: _at,
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


# ---------------------------------------------------------------------------
# Solving at the hole.  The witness search, the induction descent and the
# minimality condition each ask where a one-hole formula holds on [0, upper].
# When the hole occurs only in atoms a*w + b REL c*w + d, with terms built
# from s, + and * by a hole-free factor, the formula holds on a finite union
# of intervals, which is computed instead of evaluating the formula at every
# w: one-variable Presburger reasoning, as in Cooper, *Theorem proving in
# arithmetic without multiplication* (1972).  The hole-free terms are read
# through the view by their own closures, in formula order, so the solver
# reads what one evaluation reads; as no lookup of such a formula depends on
# the hole, that is what the evaluations at every w read.  The solver answers
# None, and the caller scans, when the hole sits under a Skolem application,
# a membership atom or a product of two hole terms, and when a hole-free part
# is undecided, so no verdict or error depends on which way was taken.
#
# An atom's truth set is one interval.  A boolean combination of them is
# kept as its list of change points [lo1, hi1 + 1, lo2, hi2 + 1, ...] within
# [0, upper + 1]; a lone atom, or its negation, answers from its interval.
#
# A search over a few values scans: building a solver costs some
# microseconds, and solving a combination about as many, where one
# evaluation costs a few tenths of one.

SCAN_BELOW = 8  # the least bound a search solves at


def first_interval(phi: Expr, env: tuple, upper: int, view) -> tuple | None:
    """The first maximal interval (lo, hi) of the w in [0, upper] at which
    phi holds at (w, *env[1:]), () when there is none, or None when the
    caller should scan.  env[0] is 0.  The solver is built on the first
    search over phi that reaches SCAN_BELOW, and kept on phi."""
    if upper < SCAN_BELOW:
        return None
    try:
        solve = phi._solve
    except AttributeError:
        solve = phi._solve = _solver(phi)
    return None if solve is None else solve(env, view, upper)


def _solver(phi: Expr) -> Callable | None:
    """phi's solver, (env, view, upper) -> (lo, hi) | () | None, or None
    when phi's shape falls back."""
    # compiled first, at two frames a level, so that a formula too deep to
    # compile fails as the scan would fail; the solver's walks take one
    compiled(phi)
    if phi.__class__ is RelAtom:
        return _interval(phi)
    if phi.__class__ is Not and phi.body.__class__ is RelAtom:
        return _negated(_interval(phi.body))
    code = _points(phi)
    if code is None:
        return None

    def solve(env, view, upper, code=code):
        xs = code(env, view, upper + 1)
        return xs if xs is None else (xs[0], xs[1] - 1) if xs else ()

    return solve


def _degree(t: Expr) -> int | None:
    """0 when the term t is hole-free, 1 when it is affine in the hole, and
    None when the hole sits under a Skolem application or in a product of
    two hole terms."""
    if t.closed:
        return 0
    if t.__class__ is Var:
        return 1 if t.index == 0 else 0
    degrees = []
    for a in t.args:  # a loop calls no comprehension's frame
        degrees.append(_degree(a))
    if t.__class__ is SkolemApp:
        return 0 if all(d == 0 for d in degrees) else None
    if None in degrees or (t.fn == "*" and degrees == [1, 1]):
        return None
    return max(degrees)


def _side(t: Expr) -> tuple | None:
    """How an atom reads its side t, as (f, i, d, k): its value at w = 0 by
    `_leaf`'s reading, and its coefficient k of w, None when that is read
    off its closure at w = 1."""
    degree = _degree(t)
    if degree is None:
        return None
    f, i, d = _leaf(t) or (t._code or _compile(t), 0, None)
    if degree == 0:
        return f, i, d, 0
    return f, i, d, 1 if t.__class__ is Var else None


def _interval(phi: RelAtom) -> Callable | None:
    """The atom's solver, or None when its shape falls back.  With x and y
    its sides at w = 0 and k the difference of their coefficients, the atom
    holds where k*w = y - x, or k*w < y - x: one interval."""
    left, right = map(_side, phi.args)
    if left is None or right is None:
        return None
    fa, ia, da, ka = left
    fb, ib, db, kb = right

    def interval(
        env, view, upper,
        fa=fa, ia=ia, da=da, ka=ka, fb=fb, ib=ib, db=db, kb=kb, is_eq=phi.rel == "=",
    ):
        x = fa(env, view) if fa is not None else env[ia] if ia < len(env) else da
        y = fb(env, view) if fb is not None else env[ib] if ib < len(env) else db
        if x is None or y is None:
            return None
        if ka is None or kb is None:  # a compound side: read again at w = 1
            one = (1, *env[1:])
            if ka is None:
                ka = fa(one, view) - x
            if kb is None:
                kb = fb(one, view) - y
        k, m = ka - kb, y - x
        if k == 0:
            return (0, upper) if ((m == 0) if is_eq else (m > 0)) else ()
        if is_eq:
            if m % k:
                return ()
            lo = hi = m // k
        elif k > 0:
            lo, hi = 0, (m - 1) // k
        else:
            lo, hi = m // k + 1, upper
        if lo < 0:
            lo = 0
        if hi > upper:
            hi = upper
        return (lo, hi) if lo <= hi else ()

    return interval


def _negated(interval: Callable | None) -> Callable | None:
    """The solver of a negated atom, from the atom's."""
    if interval is None:
        return None

    def negated(env, view, upper, interval=interval):
        r = interval(env, view, upper)
        if not r:
            return r if r is None else (0, upper)
        lo, hi = r
        if lo:
            return 0, lo - 1
        return (hi + 1, upper) if hi < upper else ()

    return negated


def _points(phi: Expr) -> Callable | None:
    """phi's truth set on [0, n) as change points, (env, view, n) -> list,
    or None when a hole-free part is undecided; None when phi's shape falls
    back."""
    cls = phi.__class__
    if cls is RelAtom:
        interval = _interval(phi)
        if interval is None:
            return None

        def atom(env, view, n, interval=interval):
            r = interval(env, view, n - 1)
            return r if r is None else [r[0], r[1] + 1] if r else []

        return atom
    if cls is Not:
        body = _points(phi.body)
        if body is None:
            return None

        def complement(env, view, n, body=body):
            xs = body(env, view, n)
            if xs is None:
                return None
            xs = xs[1:] if xs and xs[0] == 0 else [0, *xs]
            if xs and xs[-1] == n:
                xs.pop()
            else:
                xs.append(n)
            return xs

        return complement
    if cls is And or cls is Or:
        left, right = _points(phi.left), _points(phi.right)
        if left is None or right is None:
            return None

        def connective(env, view, n, left=left, right=right, conj=cls is And):
            xs = left(env, view, n)
            ys = None if xs is None else right(env, view, n)
            return None if ys is None else _merge(xs, ys, conj)

        return connective
    if phi.closed or (cls is InSet and _degree(phi.arg) == 0):
        code = phi._code or _compile(phi)

        def whole(env, view, n, code=code):
            v = code(env, view)
            return None if v is None else [0, n] if v else []

        return whole
    return None  # membership at the hole


_END = float("inf")  # past every point, however large the bound


def _merge(xs: list, ys: list, conj: bool) -> list:
    """The change points of the intersection (conj) or union of two sets:
    a point is inside a set when an odd number of its points lie at or
    below it."""
    out, i, j, inside = [], 0, 0, 0
    xs, ys = xs + [_END], ys + [_END]
    while True:
        p = xs[i] if xs[i] < ys[j] else ys[j]
        if p == _END:
            return out
        i += xs[i] == p
        j += ys[j] == p
        now = i & j & 1 if conj else (i | j) & 1
        if now != inside:
            out.append(p)
            inside = now


# ---------------------------------------------------------------------------
# Correctness

def correctness(
    e: Canon, u: Value, view, ctx: InductiveContext | None = None
) -> bool | None:
    """Whether the pair (e, u) may sit in a correct map, on view.

    Indeterminate values are unconditionally fine.  A valued term must
    witness its index formula minimally, except for the rank-Omega witness
    terms, whose condition is the bare negated-clause instance: their index
    mentions the set on both sides of the minimality conjunction, which
    would break the polarity the rollback argument relies on.  A top-valued
    atom must satisfy the membership condition.

    A valued term's condition is a loop over its index instances: the head
    at u, then the negation at each w < u, all evaluated in that order; an
    undecided instance leaves the whole condition undecided.  When the head
    is decided and the index formula solves at the hole, "no w < u" is the
    emptiness of its truth set below u (see `first_interval`), which reads
    nothing the head did not.
    """
    if u.kind == "unknown":
        return True
    if isinstance(e, CanonTerm):
        if u.kind != "num":
            raise SubstitutionError("incompatible value for a canonical term")
        sym, args = e
        phi = sym.index_formula
        index = phi._code or _compile(phi)
        verdict = index((u.n, *args), view)
        if ctx is not None and sym is ctx.omega_sym:  # rank Omega
            return verdict
        if verdict is not None:
            first = first_interval(phi, (0, *args), u.n - 1, view)
            if first is not None:
                return verdict and not first
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
    ctx: InductiveContext | None,
    verdicts: Verdicts,
    pairs: Iterable[tuple[Canon, Value]] | None = None,
) -> bool:
    """Every entry satisfies its correctness formula in the standard extension.

    Each entry's verdict is kept in the table under ("correct", e, u), the
    key the guard evaluates (see `refutes`), and the entries known to hold
    are skipped.  With pairs, only those pairs of sub are visited: the
    caller vouches for the rest (see `Verdicts.touched`).
    """
    held = verdicts.follow(sub)
    keys = [("correct", e, u) for e, u in (sub.items() if pairs is None else pairs)]
    return all(
        verdicts.truth(k, sub, lambda v: correctness(k[1], k[2], v, ctx)) is True
        for k in keys
        if k not in held
    )


def member_conflict(
    sub: Substitution,
    ctx: InductiveContext | None,
    pairs: Iterable[tuple[Canon, Value]],
) -> bool:
    """Some member n in I has its rank-Omega witness term c_n valued, in a
    conflict that involves one of pairs, pairs of sub.  A change to a map
    without a conflict makes one only among the pairs it adds or revalues."""
    if ctx is None:
        return False
    get = sub._entries.get
    for e, u in pairs:
        if e.__class__ is CanonForm:
            w = u.kind == "top" and get(ctx.c_n(e.n))
            if w and w.kind == "num":
                return True
        elif u.kind == "num":
            n = ctx.member_of(e)
            w = n is not None and get(CanonForm(n))
            if w and w.kind == "top":
                return True
    return False


def refutes(
    sub: Substitution,
    e: Canon,
    u: Value,
    ctx: InductiveContext | None,
    verdicts: Verdicts,
) -> bool:
    """Whether the stored entries of sub decide the pair (e, u) incorrect.

    Evaluation is strict, an undecided part leaving the whole undecided,
    and a deterministic function of its lookups.  So on the stored entries
    alone, where an absent entry is undecided, not ?, the condition
    evaluates as on the standard extension while every lookup finds a
    stored entry, and is undecided from the first that does not: the stored
    entries decide it false exactly when the standard extension does and
    every lookup it made found a stored entry.  Both are read off the
    pair's correctness key, ("correct", e, u), which `is_correct` then
    finds in the table; a pair known to hold is not asked about.
    """
    key = ("correct", e, u)
    return (
        key not in verdicts.follow(sub)
        and verdicts.truth(key, sub, lambda v: correctness(e, u, v, ctx)) is False
        and verdicts.read_stored(key)
    )


def is_ci(sub: Substitution, ctx: InductiveContext | None, verdicts: Verdicts) -> bool:
    """Computational inconsistency: a refuted entry or a witness conflict
    among the pairs the table cannot vouch for (see `Verdicts.touched`).
    Every pair it evaluates leaves its reads in the table, so a pair it
    skips keeps a verdict whose reads the step left alone."""
    pairs = verdicts.touched(sub)
    return member_conflict(sub, ctx, pairs) or any(
        refutes(sub, e, u, ctx, verdicts) for e, u in pairs
    )
