"""Skolemized language core: expression trees, Skolem symbols, ranks.

Terms and formulas are immutable trees.  Quantifiers do not exist at this
level; an existential statement is represented by instantiating its matrix
with a Skolem witness term, and a universal one by the witness of its
negation.  The distinguished variable of a matrix is always ``Var(0)``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass


class LanguageError(Exception):
    """Raised when an expression is built or used outside its contract."""


# ---------------------------------------------------------------------------
# Expression nodes

@dataclass(frozen=True)
class Expr:
    # the node's evaluator, compiled on its first evaluation and kept here
    # by `substitution.compiled`; not a field, so not compared or printed
    _code = None


@dataclass(frozen=True)
class Numeral(Expr):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise LanguageError("numerals are naturals")


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class FnApp(Expr):
    fn: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class SkolemApp(Expr):
    sym: "SkolemSymbol"
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class RelAtom(Expr):
    rel: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class InSet(Expr):
    """Membership atom for the inductively defined set."""

    arg: Expr


@dataclass(frozen=True)
class Not(Expr):
    body: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Top(Expr):
    pass


@dataclass(frozen=True)
class Bottom(Expr):
    pass


TOP = Top()
BOTTOM = Bottom()

_TERM_TYPES = (Numeral, Var, FnApp, SkolemApp)
_FORMULA_TYPES = (RelAtom, InSet, Not, And, Or, Top, Bottom)

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
    if not all(is_term(a) for a in args):
        raise LanguageError(f"non-term argument to {name!r}")
    if all(isinstance(a, Numeral) for a in args):
        return Numeral(_apply_fn(name, [a.value for a in args]))
    return FnApp(name, tuple(args))


def succ(t: Expr) -> Expr:
    return fn("s", t)


def plus(a: Expr, b: Expr) -> Expr:
    return fn("+", a, b)


def skolem(sym: "SkolemSymbol", args: tuple[Expr, ...] | list[Expr]) -> SkolemApp:
    args = tuple(args)
    if len(args) != sym.arity:
        raise LanguageError(f"symbol expects {sym.arity} arguments, got {len(args)}")
    if not all(is_term(a) for a in args):
        raise LanguageError("non-term argument to Skolem symbol")
    return SkolemApp(sym, args)


def rel(name: str, a: Expr, b: Expr) -> RelAtom:
    if name not in PA_RELATIONS:
        raise LanguageError(f"unknown relation symbol {name!r}")
    if not (is_term(a) and is_term(b)):
        raise LanguageError(f"non-term argument to {name!r}")
    return RelAtom(name, (a, b))


def eq(a: Expr, b: Expr) -> RelAtom:
    return rel("=", a, b)


def lt(a: Expr, b: Expr) -> RelAtom:
    return rel("<", a, b)


def in_set(t: Expr) -> InSet:
    if not is_term(t):
        raise LanguageError("membership atom needs a term")
    return InSet(t)


def not_(f: Expr) -> Not:
    if not is_formula(f):
        raise LanguageError("negation needs a formula")
    return Not(f)


def and_(a: Expr, b: Expr) -> And:
    if not (is_formula(a) and is_formula(b)):
        raise LanguageError("conjunction needs formulas")
    return And(a, b)


def or_(a: Expr, b: Expr) -> Or:
    if not (is_formula(a) and is_formula(b)):
        raise LanguageError("disjunction needs formulas")
    return Or(a, b)


def implies(a: Expr, b: Expr) -> Or:
    """Material implication, stored as (or (not a) b)."""
    return or_(not_(a), b)


def conjoin(parts: list[Expr]) -> Expr:
    """Balanced conjunction of a list; keeps tree depth logarithmic."""
    if not parts:
        return TOP
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return and_(conjoin(parts[:mid]), conjoin(parts[mid:]))


# ---------------------------------------------------------------------------
# Serialization.  The canonical textual form is a prefix s-expression; it is
# the key symbols are interned by and the text of traces and golden tests.

def to_sexpr(e: Expr, set_name: str = "I") -> str:
    if isinstance(e, Numeral):
        return str(e.value)
    if isinstance(e, Var):
        return f"v{e.index}"
    if isinstance(e, FnApp):
        return "(" + " ".join([e.fn] + [to_sexpr(a, set_name) for a in e.args]) + ")"
    if isinstance(e, SkolemApp):
        inner = [f"(c {e.sym.text})"]
        inner += [to_sexpr(a, set_name) for a in e.args]
        return "(" + " ".join(inner) + ")" if e.args else inner[0]
    if isinstance(e, RelAtom):
        return "(" + " ".join([e.rel] + [to_sexpr(a, set_name) for a in e.args]) + ")"
    if isinstance(e, InSet):
        return f"(in {to_sexpr(e.arg, set_name)} {set_name})"
    if isinstance(e, Not):
        return f"(not {to_sexpr(e.body, set_name)})"
    if isinstance(e, And):
        return f"(and {to_sexpr(e.left, set_name)} {to_sexpr(e.right, set_name)})"
    if isinstance(e, Or):
        return f"(or {to_sexpr(e.left, set_name)} {to_sexpr(e.right, set_name)})"
    if isinstance(e, Top):
        return "true"
    if isinstance(e, Bottom):
        return "false"
    raise LanguageError(f"cannot serialize {e!r}")


# ---------------------------------------------------------------------------
# Skolem symbols

def is_closed(e: Expr) -> bool:
    """No variable occurs in e."""
    if isinstance(e, Var):
        return False
    if isinstance(e, Numeral):
        return True
    if isinstance(e, (FnApp, SkolemApp, RelAtom)):
        return all(is_closed(a) for a in e.args)
    if isinstance(e, InSet):
        return is_closed(e.arg)
    if isinstance(e, Not):
        return is_closed(e.body)
    if isinstance(e, (And, Or)):
        return is_closed(e.left) and is_closed(e.right)
    return True


def has_closed_subterm(e: Expr) -> bool:
    """True when any term position of e holds a closed term."""
    if is_term(e):
        return is_closed(e) or any(
            has_closed_subterm(a) for a in getattr(e, "args", ())
        )
    if isinstance(e, (RelAtom,)):
        return any(has_closed_subterm(a) for a in e.args)
    if isinstance(e, InSet):
        return has_closed_subterm(e.arg)
    if isinstance(e, Not):
        return has_closed_subterm(e.body)
    if isinstance(e, (And, Or)):
        return has_closed_subterm(e.left) or has_closed_subterm(e.right)
    return False


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
        text = to_sexpr(index_formula)
        with _live_lock:
            sym = _live.get((text, arity))
            if sym is None:
                if has_closed_subterm(index_formula):
                    raise LanguageError("index formula must be simple (no closed terms)")
                sym = object.__new__(cls)
                sym.index_formula = index_formula
                sym.arity = arity
                sym.text = text
                # the text spells out nested symbols' index formulas too: it
                # holds "(c " iff a symbol occurs, "(in " iff the set does
                level = 1 + simple_rank(index_formula) if "(c " in text else 1
                if "(in " in text:
                    sym.rank = Rank.omega_plus(level)
                else:
                    sym.rank = Rank.fin(level)
                _live[text, arity] = sym
        return sym

    def __repr__(self) -> str:
        return f"SkolemSymbol({self.text!r}, arity={self.arity})"


# the live symbols by (text, arity), filled under the lock: problems may be
# parsed in parallel threads, and two racing builds must not make two symbols
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_live_lock = threading.Lock()


# ---------------------------------------------------------------------------
# Substitution of variables

def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Simultaneous replacement of Var(i) by mapping[i], folding numerals."""
    if isinstance(e, Numeral):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, FnApp):
        return fn(e.fn, *[substitute(a, mapping) for a in e.args])
    if isinstance(e, SkolemApp):
        return skolem(e.sym, [substitute(a, mapping) for a in e.args])
    if isinstance(e, RelAtom):
        a, b = (substitute(x, mapping) for x in e.args)
        return rel(e.rel, a, b)
    if isinstance(e, InSet):
        return in_set(substitute(e.arg, mapping))
    if isinstance(e, Not):
        return not_(substitute(e.body, mapping))
    if isinstance(e, And):
        return and_(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Or):
        return or_(substitute(e.left, mapping), substitute(e.right, mapping))
    return e


def free_vars(e: Expr) -> set[int]:
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, (FnApp, SkolemApp, RelAtom)):
        out: set[int] = set()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, InSet):
        return free_vars(e.arg)
    if isinstance(e, Not):
        return free_vars(e.body)
    if isinstance(e, (And, Or)):
        return free_vars(e.left) | free_vars(e.right)
    return set()


# ---------------------------------------------------------------------------
# Ranks

@dataclass(frozen=True, order=True)
class Rank:
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
    if isinstance(e, SkolemApp):
        inner = max((simple_rank(a) for a in e.args), default=0)
        return max(e.sym.rank.n, inner)
    if isinstance(e, (FnApp, RelAtom)):
        return max((simple_rank(a) for a in e.args), default=0)
    if isinstance(e, InSet):
        return simple_rank(e.arg)
    if isinstance(e, Not):
        return simple_rank(e.body)
    if isinstance(e, (And, Or)):
        return max(simple_rank(e.left), simple_rank(e.right))
    return 0


def mentions_inductive(e: Expr) -> bool:
    """True if e contains a membership atom, hereditarily through symbols.

    Hereditary means that a Skolem symbol whose index formula mentions the
    set counts as a mention even when no membership atom is visible in e's
    own tree; this keeps ranks stratified under nesting.
    """
    if isinstance(e, InSet):
        return True
    if isinstance(e, SkolemApp):
        return e.sym.rank > OMEGA or any(mentions_inductive(a) for a in e.args)
    if isinstance(e, (FnApp, RelAtom)):
        return any(mentions_inductive(a) for a in e.args)
    if isinstance(e, Not):
        return mentions_inductive(e.body)
    if isinstance(e, (And, Or)):
        return mentions_inductive(e.left) or mentions_inductive(e.right)
    return False


def rank_of_symbol(sym: SkolemSymbol, omega_sym: SkolemSymbol | None = None) -> Rank:
    """Rank of a Skolem symbol.

    The single symbol abbreviating the universal witness of the inductive
    clause has rank Omega; other symbols whose index mentions the set sit
    above Omega, and set-free symbols are finite.
    """
    return OMEGA if sym is omega_sym else sym.rank


# ---------------------------------------------------------------------------
# Canonical expressions: the only things a substitution assigns.

_set = object.__setattr__


class CanonTerm:
    """A Skolem symbol applied to numerals; immutable.

    Compares, hashes and prints as a frozen dataclass of (sym, args) would,
    but computes its hash once, and `canon_sexpr` its text once.
    """

    __slots__ = ("sym", "args", "_hash", "_text")

    def __init__(self, sym: SkolemSymbol, args: tuple[int, ...]):
        _set(self, "sym", sym)
        _set(self, "args", args)
        _set(self, "_hash", hash((sym, args)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CanonTerm:
            return NotImplemented
        return self.sym is other.sym and self.args == other.args

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CanonTerm(sym={self.sym!r}, args={self.args!r})"

    def to_term(self) -> SkolemApp:
        return skolem(self.sym, [num(n) for n in self.args])


@dataclass(frozen=True)
class CanonForm:
    n: int

    def to_formula(self) -> InSet:
        return in_set(num(self.n))


Canon = CanonTerm | CanonForm


def as_canonical(e: Expr) -> Canon | None:
    """The canonical expression e denotes, if any."""
    if isinstance(e, SkolemApp) and all(isinstance(a, Numeral) for a in e.args):
        return CanonTerm(e.sym, tuple(a.value for a in e.args))
    if isinstance(e, InSet) and isinstance(e.arg, Numeral):
        return CanonForm(e.arg.value)
    return None


def rank_of(c: Canon, omega_sym: SkolemSymbol | None = None) -> Rank:
    if isinstance(c, CanonForm):
        return OMEGA
    return rank_of_symbol(c.sym, omega_sym)


def rank_sort_key(c: Canon, omega_sym: SkolemSymbol | None = None) -> tuple:
    r = rank_of(c, omega_sym)
    return (r.kind, r.n, canon_sexpr(c))


def canon_sexpr(c: Canon) -> str:
    """to_sexpr of the expression c denotes, from the symbol's stored text."""
    if isinstance(c, CanonForm):
        return f"(in {c.n} I)"
    try:
        return c._text
    except AttributeError:
        head = f"(c {c.sym.text})"
        text = "(" + " ".join([head, *map(str, c.args)]) + ")" if c.args else head
        _set(c, "_text", text)
        return text


# ---------------------------------------------------------------------------
# Closed-term abstraction and quantifier expansion

def abstract_closed_terms(phi: Expr) -> tuple[Expr, tuple[Expr, ...]]:
    """Split a matrix into a simple index formula and its argument vector.

    Var(0) is the distinguished variable and is kept.  Maximal closed
    subterms and the remaining free variables become parameters Var(1..k),
    numbered jointly by first occurrence; identical closed terms share one
    parameter.  Returns the renamed formula and the abstracted arguments.
    """
    slots: dict[object, int] = {}
    args: list[Expr] = []

    def param(key: object, original: Expr) -> Expr:
        if key not in slots:
            slots[key] = len(args) + 1
            args.append(original)
        return Var(slots[key])

    def walk_term(t: Expr) -> Expr:
        if isinstance(t, Var):
            if t.index == 0:
                return t
            return param(("var", t.index), t)
        if is_closed(t):
            return param(("closed", to_sexpr(t)), t)
        if isinstance(t, FnApp):
            return FnApp(t.fn, tuple(walk_term(a) for a in t.args))
        if isinstance(t, SkolemApp):
            return SkolemApp(t.sym, tuple(walk_term(a) for a in t.args))
        raise LanguageError(f"unexpected term {t!r}")

    def walk(e: Expr) -> Expr:
        if is_term(e):
            return walk_term(e)
        if isinstance(e, RelAtom):
            return RelAtom(e.rel, tuple(walk_term(a) for a in e.args))
        if isinstance(e, InSet):
            return InSet(walk_term(e.arg))
        if isinstance(e, Not):
            return Not(walk(e.body))
        if isinstance(e, And):
            return And(walk(e.left), walk(e.right))
        if isinstance(e, Or):
            return Or(walk(e.left), walk(e.right))
        return e

    index = walk(phi)
    return index, tuple(args)


def skolemize_exists(body: Expr) -> tuple[SkolemSymbol, tuple[Expr, ...]]:
    """Witness symbol and argument vector for an existential matrix.

    The matrix uses Var(0) as the bound variable; the returned arguments may
    contain other free variables, to be instantiated by an enclosing scope.
    """
    index, args = abstract_closed_terms(body)
    return SkolemSymbol(index, len(args)), args


def expand_exists(body: Expr) -> Expr:
    """The formula abbreviated by an existential over the given matrix."""
    sym, args = skolemize_exists(body)
    return substitute(body, {0: skolem(sym, args)})


def expand_forall(body: Expr) -> Expr:
    """The formula abbreviated by a universal over the given matrix."""
    sym, args = skolemize_exists(not_(body))
    return substitute(body, {0: skolem(sym, args)})


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
    checks.
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
        sym, raw_args = skolemize_exists(not_(clause))
        self.omega_sym = sym
        # raw_args live over Var(1); re-expressed over the hole Var(0).
        self.cn_args_template = tuple(
            substitute(a, {1: Var(0)}) for a in raw_args
        )
        self.x_slot = next(
            i for i, a in enumerate(self.cn_args_template) if a == Var(0)
        )
        witness = skolem(sym, raw_args)
        a_raw = substitute(clause, {0: witness})
        self.a_template = substitute(a_raw, {1: Var(0)})

    def c_n(self, n: int) -> CanonTerm:
        """The rank-Omega canonical witness term for membership of n."""
        vals = []
        for a in self.cn_args_template:
            t = substitute(a, {0: num(n)})
            if not isinstance(t, Numeral):
                raise LanguageError("clause parameters must close to numerals")
            vals.append(t.value)
        return CanonTerm(self.omega_sym, tuple(vals))

    def member_of(self, c: CanonTerm) -> int | None:
        """n such that c is the witness term for n, if it is one."""
        if c.sym is not self.omega_sym:
            return None
        n = c.args[self.x_slot]
        return n if c == self.c_n(n) else None

    def a_formula(self, n: int) -> Expr:
        """Membership condition A(n, I) in its abbreviated form."""
        return substitute(self.a_template, {0: num(n)})

    def b_formula(self, y: Expr, x: Expr) -> Expr:
        """Clause instance B(y, x, I)."""
        return substitute(self.clause, {0: y, 1: x})

    def with_phi(self, phi_template: Expr) -> Expr:
        """Clause body with the set placeholder replaced by a formula.

        phi_template is a one-hole template (hole Var(0)); each membership
        atom (in t X) becomes the template instantiated at t.
        """

        def walk(e: Expr) -> Expr:
            if isinstance(e, InSet):
                return substitute(phi_template, {0: e.arg})
            if isinstance(e, Not):
                return not_(walk(e.body))
            if isinstance(e, And):
                return and_(walk(e.left), walk(e.right))
            if isinstance(e, Or):
                return or_(walk(e.left), walk(e.right))
            return e

        return walk(self.clause)
