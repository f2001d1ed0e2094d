"""Skolemized language core: expression trees, Skolem symbols, ranks.

Terms and formulas are immutable trees.  Quantifiers do not exist at this
level; an existential statement is represented by instantiating its matrix
with a Skolem witness term, and a universal one by the witness of its
negation.  The distinguished variable of a matrix is always ``Var(0)``.
"""

from __future__ import annotations

import threading
import weakref
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple


class LanguageError(Exception):
    """Raised when an expression is built or used outside its contract."""


# ---------------------------------------------------------------------------
# Expression nodes

class Expr:
    """A term or formula node.

    Every walk over the trees is written over two things: ``kids``, the
    node's subexpressions in order (leaves have none), and ``remake(kids)``,
    a node of the same kind over new subexpressions, built by the checked
    constructors below, so arithmetic over numerals folds.  The builders
    of a parse call the node classes directly, where what goes in is
    checked already: `problems._Parser` (its `term` returns only terms,
    through `fn`, which folds, and its `formula` only formulas), the axiom
    builders in `process`, `InductiveContext`, the quantifier expansions
    and `abstract_closed_terms` (a witness symbol's arguments are terms of
    its arity, and an application is built only over a variable, which
    cannot fold).  So each node they build equals its ``remake`` over its
    own kids, which `tests/test_text_path.py` checks on every node of the
    problems it parses.  ``head`` is the node's operator as printed (a
    leaf's whole text); a membership atom prints its set's name after its
    argument instead.

    A node's fields are its class's own slots, immutable by contract.
    Three slots are not fields, so equality, hash and ``repr`` ignore them.
    ``closed``, set by the constructor, says whether no variable occurs in
    the node, so no walk has to look for one.  ``_code`` is None until
    `substitution._compile` writes the node's evaluator there on its first
    evaluation.  ``_solve`` is unset until `substitution.first_interval`
    writes there its solver, or None, on the node's first search over
    enough values.
    """

    __slots__ = ("_code", "_solve", "closed", "__weakref__")
    kids = ()
    remake = lambda self, kids: self

    def __init__(self) -> None:
        self._code, self.closed = None, True

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


_CLOSED = attrgetter("closed")


class Numeral(Expr):
    __slots__ = ("value",)
    head = property(lambda self: str(self.value))

    def __init__(self, value: int) -> None:
        if value < 0:
            raise LanguageError("numerals are naturals")
        self.value, self._code, self.closed = value, None, True


class Var(Expr):
    __slots__ = ("index",)
    head = property(lambda self: f"v{self.index}")

    def __init__(self, index: int) -> None:
        self.index, self._code, self.closed = index, None, False


class FnApp(Expr):
    __slots__ = ("fn", "args")
    head = property(attrgetter("fn"))
    kids = property(attrgetter("args"))
    remake = lambda self, kids: fn(self.fn, *kids)

    def __init__(self, fn: str, args: tuple[Expr, ...]) -> None:
        self.fn, self.args, self._code = fn, args, None
        self.closed = all(map(_CLOSED, args))


class SkolemApp(Expr):
    __slots__ = ("sym", "args")
    head = property(lambda self: f"(c {self.sym.text})")
    kids = property(attrgetter("args"))
    remake = lambda self, kids: skolem(self.sym, kids)

    def __init__(self, sym: "SkolemSymbol", args: tuple[Expr, ...]) -> None:
        self.sym, self.args, self._code = sym, args, None
        self.closed = all(map(_CLOSED, args))


class RelAtom(Expr):
    __slots__ = ("rel", "args")
    head = property(attrgetter("rel"))
    kids = property(attrgetter("args"))
    remake = lambda self, kids: rel(self.rel, *kids)

    def __init__(self, rel: str, args: tuple[Expr, ...]) -> None:
        self.rel, self.args, self._code = rel, args, None
        self.closed = args[0].closed and args[1].closed  # relations are binary


class InSet(Expr):
    """Membership atom for the inductively defined set."""

    __slots__ = ("arg",)
    kids = property(lambda self: (self.arg,))
    remake = lambda self, kids: in_set(*kids)

    def __init__(self, arg: Expr) -> None:
        self.arg, self._code, self.closed = arg, None, arg.closed


class Not(Expr):
    __slots__ = ("body",)
    head = "not"
    kids = property(lambda self: (self.body,))
    remake = lambda self, kids: not_(*kids)

    def __init__(self, body: Expr) -> None:
        self.body, self._code, self.closed = body, None, body.closed


class And(Expr):
    __slots__ = ("left", "right")
    head = "and"
    kids = property(attrgetter("left", "right"))
    remake = lambda self, kids: and_(*kids)

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left, self.right, self._code = left, right, None
        self.closed = left.closed and right.closed


class Or(Expr):
    __slots__ = ("left", "right")
    head = "or"
    kids = property(attrgetter("left", "right"))
    remake = lambda self, kids: or_(*kids)

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left, self.right, self._code = left, right, None
        self.closed = left.closed and right.closed


class At(Expr):
    """The instance ``substitute(template, {0: arg})``, unbuilt, and printed
    as it: a closed formula.  The template's one variable is its hole Var(0)
    and arg is a closed term; an At node stands in no matrix."""

    __slots__ = ("template", "arg")
    kids = property(attrgetter("template", "arg"))
    remake = lambda self, kids: At(*kids)

    def __init__(self, template: Expr, arg: Expr) -> None:
        if not arg.closed:
            raise LanguageError("a template is taken at a closed term")
        self.template, self.arg, self._code, self.closed = template, arg, None, True


class Top(Expr):
    __slots__ = ()
    head = "true"


class Bottom(Expr):
    __slots__ = ()
    head = "false"


TOP = Top()
BOTTOM = Bottom()

_TERM_TYPES = (Numeral, Var, FnApp, SkolemApp)
_FORMULA_TYPES = (RelAtom, InSet, Not, And, Or, At, Top, Bottom)

PA_FUNCTIONS = {"s": 1, "+": 2, "*": 2}
PA_RELATIONS = {"=": 2, "<": 2}


def is_term(e: Expr) -> bool:
    return isinstance(e, _TERM_TYPES)


def is_formula(e: Expr) -> bool:
    return isinstance(e, _FORMULA_TYPES)


def _apply_fn(fn: str, values: list[int]) -> int:
    if fn == "s":
        return values[0] + 1
    if fn == "+":
        return values[0] + values[1]
    if fn == "*":
        return values[0] * values[1]
    raise LanguageError(f"unknown function symbol {fn!r}")


# ---------------------------------------------------------------------------
# Constructors.  Function applications over numerals fold eagerly, so a
# successor chain never survives as a tree: S(S(0)) is Numeral(2).

def num(n: int) -> Numeral:
    return Numeral(n)


def fn(name: str, *args: Expr) -> Expr:
    if name not in PA_FUNCTIONS:
        raise LanguageError(f"unknown function symbol {name!r}")
    if len(args) != PA_FUNCTIONS[name]:
        raise LanguageError(f"{name!r} expects {PA_FUNCTIONS[name]} arguments")
    if not all(map(isinstance, args, repeat(_TERM_TYPES))):
        raise LanguageError(f"non-term argument to {name!r}")
    if all(map(isinstance, args, repeat(Numeral))):
        return Numeral(_apply_fn(name, [a.value for a in args]))
    return FnApp(name, tuple(args))


def skolem(sym: "SkolemSymbol", args: tuple[Expr, ...] | list[Expr]) -> SkolemApp:
    args = tuple(args)
    if len(args) != sym.arity:
        raise LanguageError(f"symbol expects {sym.arity} arguments, got {len(args)}")
    if not all(map(isinstance, args, repeat(_TERM_TYPES))):
        raise LanguageError("non-term argument to Skolem symbol")
    return SkolemApp(sym, args)


def rel(name: str, a: Expr, b: Expr) -> RelAtom:
    if name not in PA_RELATIONS:
        raise LanguageError(f"unknown relation symbol {name!r}")
    if not (isinstance(a, _TERM_TYPES) and isinstance(b, _TERM_TYPES)):
        raise LanguageError(f"non-term argument to {name!r}")
    return RelAtom(name, (a, b))


def eq(a: Expr, b: Expr) -> RelAtom:
    return rel("=", a, b)


def in_set(t: Expr) -> InSet:
    if not isinstance(t, _TERM_TYPES):
        raise LanguageError("membership atom needs a term")
    return InSet(t)


def not_(f: Expr) -> Not:
    if not isinstance(f, _FORMULA_TYPES):
        raise LanguageError("negation needs a formula")
    return Not(f)


def and_(a: Expr, b: Expr) -> And:
    if not (isinstance(a, _FORMULA_TYPES) and isinstance(b, _FORMULA_TYPES)):
        raise LanguageError("conjunction needs formulas")
    return And(a, b)


def or_(a: Expr, b: Expr) -> Or:
    if not (isinstance(a, _FORMULA_TYPES) and isinstance(b, _FORMULA_TYPES)):
        raise LanguageError("disjunction needs formulas")
    return Or(a, b)


# ---------------------------------------------------------------------------
# Serialization.  The canonical textual form is a prefix s-expression; it is
# the key symbols are interned by and the text of traces and golden tests.

def to_sexpr(e: Expr) -> str:
    if e.__class__ is At:  # the instance it stands for
        e = substitute(e.template, {0: e.arg})
    kids = e.kids
    if not kids:
        return e.head
    if e.__class__ is InSet:
        return f"(in {to_sexpr(e.arg)} I)"
    parts = [e.head]
    for k in kids:
        parts.append(to_sexpr(k))
    return f"({' '.join(parts)})"


# ---------------------------------------------------------------------------
# Skolem symbols

class SkolemSymbol:
    """A witness function symbol, identified by its index formula.

    The index formula is simple (no closed subterms) and canonically named:
    Var(0) is the distinguished variable, Var(1..arity) the parameters in
    first-occurrence order.  There is one live symbol per (text, arity), so
    symbols compare by identity; each keeps its text and its rank as a
    symbol other than the problem's Omega symbol (see `rank_of_symbol`).
    """

    __slots__ = ("index_formula", "arity", "text", "rank", "__weakref__")

    def __new__(cls, index_formula: Expr, arity: int) -> "SkolemSymbol":
        if not is_formula(index_formula):
            raise LanguageError("index formula must be a formula")
        if any(a.closed for a in abstract_closed_terms(index_formula)[1]):
            raise LanguageError("index formula must be simple (no closed terms)")
        return _intern(index_formula, arity, to_sexpr(index_formula))

    def __repr__(self) -> str:
        return f"SkolemSymbol({self.text!r}, arity={self.arity})"


# the live symbols by (text, arity), filled under the lock: problems may be
# parsed in parallel threads, and two racing builds must not make two symbols
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_live_lock = threading.Lock()


def _intern(index: Expr, arity: int, text: str) -> SkolemSymbol:
    """The live symbol of a simple index formula and its text."""
    with _live_lock:
        sym = _live.get((text, arity))
        if sym is None:
            sym = object.__new__(SkolemSymbol)
            sym.index_formula, sym.arity, sym.text = index, arity, text
            # the text spells out nested symbols' index formulas too: it
            # holds "(c " iff a symbol occurs, "(in " iff the set does
            level = 1 + simple_rank(index) if "(c " in text else 1
            sym.rank = Rank.omega_plus(level) if "(in " in text else Rank.fin(level)
            _live[text, arity] = sym
    return sym


# ---------------------------------------------------------------------------
# Substitution of variables

def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Simultaneous replacement of Var(i) by mapping[i], folding numerals.

    A closed subtree is returned as it is: the checked constructors have
    folded it already.
    """
    if e.closed:
        return e
    if e.__class__ is Var:
        return mapping.get(e.index, e)
    new = []
    for k in e.kids:
        new.append(substitute(k, mapping))
    return e.remake(new)


def free_vars(e: Expr) -> set[int]:
    if e.closed:
        return set()
    if e.__class__ is Var:
        return {e.index}
    out = set()
    for k in e.kids:
        out |= free_vars(k)
    return out


# ---------------------------------------------------------------------------
# Ranks

class Rank(NamedTuple):
    """Ordinal-valued rank: Fin(n) < Omega < Omega+n+1.

    kind 0 encodes Fin(n), kind 1 encodes Omega, kind 2 encodes Omega+n+1.
    Ordering is lexicographic on (kind, n), which matches the ordinal order.
    """

    kind: int
    n: int = 0

    @staticmethod
    def fin(n: int) -> "Rank":
        return Rank(0, n)

    @staticmethod
    def omega_plus(n: int) -> "Rank":
        return Rank(2, n)

    @property
    def is_omega(self) -> bool:
        return self.kind == 1

    def __str__(self) -> str:
        if self.kind == 0:
            return str(self.n)
        if self.kind == 1:
            return "Omega"
        return f"Omega+{self.n + 1}"


OMEGA = Rank(1)


def simple_rank(e: Expr) -> int:
    """Stratification level: nesting depth of Skolem symbols in e."""
    level = e.sym.rank.n if e.__class__ is SkolemApp else 0
    for k in e.kids:
        level = max(level, simple_rank(k))
    return level


def rank_of_symbol(sym: SkolemSymbol, omega_sym: SkolemSymbol | None = None) -> Rank:
    """Rank of a Skolem symbol.

    The single symbol abbreviating the universal witness of the inductive
    clause has rank Omega; other symbols whose index mentions the set sit
    above Omega, and set-free symbols are finite.
    """
    return OMEGA if sym is omega_sym else sym.rank


# ---------------------------------------------------------------------------
# Canonical expressions: the only things a substitution assigns.

class CanonTerm(tuple):
    """A Skolem symbol applied to numerals: the pair (sym, args).

    A tuple, so it is built, hashed and compared in C; symbols are unique,
    so equality is the symbols' identity and the arguments' equality.
    """

    __slots__ = ()

    def __new__(cls, sym: SkolemSymbol, args: tuple[int, ...]) -> "CanonTerm":
        return tuple.__new__(cls, (sym, args))

    sym = property(itemgetter(0))
    args = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"CanonTerm(sym={self.sym!r}, args={self.args!r})"


class CanonForm(NamedTuple):
    """The membership atom n in I."""

    n: int


Canon = CanonTerm | CanonForm


def rank_of(c: Canon, omega_sym: SkolemSymbol | None = None) -> Rank:
    if isinstance(c, CanonForm):
        return OMEGA
    return rank_of_symbol(c.sym, omega_sym)


def rank_sort_key(c: Canon, omega_sym: SkolemSymbol | None = None) -> tuple:
    return (*rank_of(c, omega_sym), canon_sexpr(c))


def canon_sexpr(c: Canon) -> str:
    """to_sexpr of the expression c denotes, from the symbol's stored text."""
    if isinstance(c, CanonForm):
        return f"(in {c.n} I)"
    sym, args = c
    if not args:
        return f"(c {sym.text})"
    return f"((c {sym.text}) {' '.join(map(str, args))})"


# ---------------------------------------------------------------------------
# Closed-term abstraction and quantifier expansion

def abstract_closed_terms(phi: Expr) -> tuple[Expr, tuple[Expr, ...], str]:
    """Split a matrix into a simple index formula and its argument vector.

    Var(0) is the distinguished variable and is kept.  Maximal closed
    subterms and the remaining free variables become parameters Var(1..k),
    numbered jointly by first occurrence; identical closed terms share one
    parameter.  Returns the renamed formula, the abstracted arguments and
    the formula's text, built in the same walk as `to_sexpr` prints it.

    Each node is rebuilt from its class, without the constructors' checks:
    it keeps its kind, and no application it builds can fold, since a
    closed term becomes a parameter and an application that is not closed
    keeps a variable among its arguments.
    """
    slots: dict[object, int] = {}  # a variable's index, a closed term's text
    args: list[Expr] = []

    def term(e: Expr) -> tuple[Expr, str]:
        if e.__class__ is Var:
            if e.index == 0:
                return e, "v0"
            key = e.index
        elif e.__class__ is Numeral:
            key = str(e.value)
        elif e.closed:
            key = to_sexpr(e)
        else:  # an application over a variable
            new, texts = [], []
            for k in e.args:
                k, text = term(k)
                new.append(k)
                texts.append(text)
            if e.__class__ is FnApp:
                return FnApp(e.fn, tuple(new)), f"({e.fn} {' '.join(texts)})"
            e = SkolemApp(e.sym, tuple(new))
            return e, f"({e.head} {' '.join(texts)})"
        i = slots.get(key)
        if i is None:
            i = slots[key] = len(args) + 1
            args.append(e)
        return Var(i), f"v{i}"

    def walk(e: Expr) -> tuple[Expr, str]:
        cls = e.__class__
        if cls is RelAtom:
            (a, ta), (b, tb) = term(e.args[0]), term(e.args[1])
            return RelAtom(e.rel, (a, b)), f"({e.rel} {ta} {tb})"
        if cls is Not:
            body, text = walk(e.body)
            return Not(body), f"(not {text})"
        if cls is And or cls is Or:
            (a, ta), (b, tb) = walk(e.left), walk(e.right)
            return cls(a, b), f"({cls.head} {ta} {tb})"
        if cls is InSet:
            a, text = term(e.arg)
            return InSet(a), f"(in {text} I)"
        if cls is Top or cls is Bottom:
            return e, e.head
        return term(e)

    index, text = walk(phi)
    return index, tuple(args), text


def skolemize_exists(body: Expr) -> tuple[SkolemSymbol, tuple[Expr, ...]]:
    """Witness symbol and argument vector for an existential matrix.

    The matrix uses Var(0) as the bound variable; the returned arguments may
    contain other free variables, to be instantiated by an enclosing scope.
    """
    index, args, text = abstract_closed_terms(body)
    return _intern(index, len(args), text), args


def expand_exists(body: Expr) -> Expr:
    """The formula abbreviated by an existential over the given matrix."""
    sym, args = skolemize_exists(body)
    return substitute(body, {0: SkolemApp(sym, args)})


def expand_forall(body: Expr) -> Expr:
    """The formula abbreviated by a universal over the given matrix."""
    sym, args = skolemize_exists(not_(body))
    return substitute(body, {0: SkolemApp(sym, args)})


def instantiate_index(sym: SkolemSymbol, value: int, args: tuple[int, ...]) -> Expr:
    """Index formula of sym at distinguished value and numeral parameters."""
    if len(args) != sym.arity:
        raise LanguageError("argument count does not match symbol arity")
    mapping: dict[int, Expr] = {0: num(value)}
    for i, a in enumerate(args):
        mapping[i + 1] = num(a)
    return substitute(sym.index_formula, mapping)


# ---------------------------------------------------------------------------
# The inductive clause and its derived machinery

class InductiveContext:
    """Everything derived from the inductive clause B(y, x, X).

    The clause body uses Var(0) for the bound variable y, Var(1) for the
    member candidate x, and InSet atoms for the set placeholder X.  From it
    we fix the rank-Omega witness symbol, the membership-condition template,
    and the clause instantiations used by admissibility and correctness
    checks.  Contexts compare and hash by their clause, which decides the rest.
    """

    def __init__(self, clause: Expr):
        if not is_formula(clause):
            raise LanguageError("inductive clause must be a formula")
        fv = free_vars(clause)
        if not fv <= {0, 1}:
            raise LanguageError("inductive clause may only use its two variables")
        if 1 not in fv:
            raise LanguageError("inductive clause must mention the member variable")
        self.clause = clause
        sym, raw_args = skolemize_exists(Not(clause))
        self.omega_sym = sym
        # raw_args live over Var(1); re-expressed over the hole Var(0), each
        # is the member or a numeral (the clause has no binders)
        self.cn_args_template = tuple(substitute(a, {1: Var(0)}) for a in raw_args)
        if not all(a.__class__ in (Var, Numeral) for a in self.cn_args_template):
            raise LanguageError("clause parameters must close to numerals")
        pattern = tuple([getattr(a, "value", None) for a in self.cn_args_template])
        self.x_slot = x = pattern.index(None)
        self._around = pattern[:x], pattern[x + 1 :]  # the member's slot between
        # the clause at its witness, then re-expressed over the hole: one walk
        witness = SkolemApp(sym, self.cn_args_template)
        self.a_template = substitute(clause, {0: witness, 1: Var(0)})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InductiveContext) and self.clause == other.clause

    def __hash__(self) -> int:
        return hash(self.clause)

    def c_n(self, n: int) -> CanonTerm:
        """The rank-Omega canonical witness term for membership of n."""
        before, after = self._around
        return CanonTerm(self.omega_sym, before + (n,) + after)

    def member_of(self, c: CanonTerm) -> int | None:
        """n such that c is the witness term for n, if it is one."""
        if c.sym is not self.omega_sym:
            return None
        n = c.args[self.x_slot]
        return n if c == self.c_n(n) else None

    def with_phi(self, phi_template: Expr) -> Expr:
        """Clause body with the set placeholder replaced by a formula.

        phi_template is a one-hole template (hole Var(0)); each membership
        atom (in t X) becomes the template instantiated at t.
        """

        def walk(e: Expr) -> Expr:
            if e.__class__ is InSet:
                return substitute(phi_template, {0: e.arg})
            new = []
            for k in e.kids:
                new.append(walk(k))
            return e.remake(new)

        return walk(self.clause)
