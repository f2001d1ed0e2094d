"""Problem files: the s-expression grammar and its validation.

A problem file is a sequence of top-level forms:

    (clause (y x X) BODY)          inductive clause B(y, x, X), at most one
    (option NAME VALUE)            run settings, e.g. (option max-steps 100)
    (crit pred TERM)               not TERM=0 -> exists x TERM=Sx
    (crit eps TERM (exists (x) F)) F[x:=TERM] -> exists x F
    (crit ind (x) F TERM)          F[0] and not F[TERM] -> exists x (F and not F[Sx])
    (crit inddef TERM)             A(TERM, I) -> TERM in I
    (crit closure (x) F)           forall x (A(x,F) -> F) -> forall x (x in I -> F)
    (crit formula F)               untagged; recognized against the five shapes
    (goal (exists (x) F) (candidates TERM*)?)

Terms are numerals, bound variables, (s t), (+ t t), (* t t); formulas are
(= t t), (< t t), (in t I), true, false, (not f), (and f f ...),
(or f f ...), (-> f f), (exists (x) f), (forall (x) f).  Inside the clause
body the declared set name replaces I and quantifiers are not allowed.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .language import (
    And,
    BOTTOM,
    Expr,
    InductiveContext,
    InSet,
    LanguageError,
    Not,
    Numeral,
    Or,
    RelAtom,
    TOP,
    Var,
    expand_exists,
    expand_forall,
    fn,
    substitute,
    to_sexpr,
)
from .process import (
    CriticalFormula,
    Goal,
    ProcessInvariantError,
    _epsilon,
    make_closure,
    make_epsilon,
    make_goal,
    make_induction,
    make_inductive_def,
    make_pred,
)

RESERVED = {
    "s", "+", "*", "=", "<", "in", "not", "and", "or", "->",
    "exists", "forall", "true", "false", "I",
    "clause", "crit", "goal", "option", "candidates",
    "pred", "eps", "ind", "inddef", "closure", "formula",
}


class ParseError(Exception):
    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        if pos is not None:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Readers.  `parse_problem` reads with `_read_plain`, whose symbols are plain
# strings, and only when that parse fails reads again with `read_forms`,
# whose symbols know their line and column, so the error can say where.

# a token of one line: a parenthesis, the ';' that starts a comment, or an
# atom; the blanks between tokens (space, tab, carriage return) are skipped
_TOKEN = re.compile(r"[();]|[^ \t\r();]+")
# the same tokens over the whole text, a comment whole and '\n' a blank
_PLAIN_TOKEN = re.compile(r"[()]|;[^\n]*|[^ \t\r\n();]+")


class _Placed:
    """An atom that knows its line and column."""

    def __new__(cls, value, line: int, col: int):
        obj = super().__new__(cls, value)
        obj.line, obj.col = line, col
        return obj


class _Sym(_Placed, str):
    pass


class _Num(_Placed, int):
    pass


class _List(list):
    """A list that knows the line and column of its opening parenthesis."""

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line, self.col = line, col


def read_forms(text: str) -> list:
    """The forms of text: nested lists, numerals and symbols, each of them
    knowing its line and column (a list, those of its '(')."""
    forms: list = []
    items = forms  # the innermost open list
    outer: list = []  # the lists enclosing it
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            tok = m[0]
            if tok == "(":
                outer.append(items)
                items = _List(line, m.start() + 1)
            elif tok == ")":
                if not outer:
                    raise ParseError("unexpected ')'", (line, m.start() + 1))
                done, items = items, outer.pop()
                items.append(done)
            elif tok == ";":
                break
            elif tok.lstrip("-").isdigit():
                try:
                    value = int(tok)
                except ValueError:  # past int's digit limit, or a non-ASCII digit
                    raise ParseError("malformed numeral", (line, m.start() + 1)) from None
                if value < 0:
                    raise ParseError("negative numeral", (line, m.start() + 1))
                items.append(_Num(value, line, m.start() + 1))
            else:
                items.append(_Sym(tok, line, m.start() + 1))
    if outer:
        raise ParseError("unclosed parenthesis", (items.line, items.col))
    return forms


def _read_plain(text: str) -> list:
    """The forms of text as `read_forms` reads them, with plain symbols.

    It raises ParseError where `read_forms` does, but without a position.
    """
    forms: list = []
    items = forms  # the innermost open list
    outer: list = []  # the lists enclosing it
    for tok in _PLAIN_TOKEN.findall(text):
        if tok == "(":
            outer.append(items)
            items = []
        elif tok == ")":
            if not outer:
                raise ParseError("unexpected ')'")
            done, items = items, outer.pop()
            items.append(done)
        elif tok[0] == ";":
            continue
        elif tok.lstrip("-").isdigit():
            try:
                value = int(tok)
            except ValueError:
                raise ParseError("malformed numeral") from None
            if value < 0:
                raise ParseError("negative numeral")
            items.append(value)
        else:
            items.append(tok)
    if outer:
        raise ParseError("unclosed parenthesis")
    return forms


def _pos(sx) -> tuple[int, int] | None:
    """Where sx starts, for forms `read_forms` read: the line and column of
    the first symbol, numeral or empty list in sx, in text order (a list's
    are those of its '('); None for forms `_read_plain` read."""
    if isinstance(sx, list):
        for item in sx:
            p = _pos(item)
            if p:
                return p
    if isinstance(sx, (_Sym, _Num, _List)):
        return (sx.line, sx.col)
    return None


def _shown(sx) -> str:
    """sx in a message: a symbol quoted, a numeral or list as text writes it."""
    if isinstance(sx, str):
        return repr(str(sx))
    return _text(sx)


def _text(sx) -> str:
    if isinstance(sx, list):
        return "(" + " ".join(map(_text, sx)) + ")"
    return str(sx)


# ---------------------------------------------------------------------------
# Core parsing

class _Parser:
    """Terms and formulas from forms, built from the node classes (`term`
    returns only terms, `formula` only formulas); an application goes
    through `fn`, which folds arithmetic over numerals."""

    def __init__(self, set_label: str = "I", quantifiers: bool = True):
        self.set_label = set_label  # the set's name in membership atoms
        self.quantifiers = quantifiers
        self._counter = 0

    def fresh(self) -> int:
        self._counter += 1
        return self._counter

    def term(self, sx, env: dict[str, int]) -> Expr:
        if isinstance(sx, int):  # the reader refused negative numerals
            return Numeral(sx)
        if isinstance(sx, str):
            if sx in env:
                return Var(env[sx])
            raise ParseError(f"unbound variable {sx!r}", _pos(sx))
        if isinstance(sx, list) and sx and sx[0] in ("s", "+", "*"):
            want = 1 if sx[0] == "s" else 2
            if len(sx) != want + 1:
                raise ParseError(f"{sx[0]} takes {want} arguments", _pos(sx))
            args = []  # a loop, not a comprehension: one frame a level
            for a in sx[1:]:
                args.append(self.term(a, env))
            return fn(str(sx[0]), *args)
        raise ParseError(f"expected a term, got {_shown(sx)}", _pos(sx))

    def formula(self, sx, env: dict[str, int]) -> Expr:
        if sx == "true":
            return TOP
        if sx == "false":
            return BOTTOM
        if not isinstance(sx, list) or not sx:
            raise ParseError(f"expected a formula, got {_shown(sx)}", _pos(sx))
        head = sx[0]
        if head in ("=", "<"):
            if len(sx) != 3:
                raise ParseError(f"{head} takes 2 arguments", _pos(sx))
            a, b = self.term(sx[1], env), self.term(sx[2], env)
            return RelAtom("=" if head == "=" else "<", (a, b))
        if head == "in":
            if len(sx) != 3 or not isinstance(sx[2], str):
                raise ParseError("membership is (in TERM SET)", _pos(sx))
            if sx[2] != self.set_label:
                raise ParseError(
                    f"unknown set {str(sx[2])!r} here", _pos(sx)
                )
            return InSet(self.term(sx[1], env))
        if head == "not":
            if len(sx) != 2:
                raise ParseError("not takes 1 argument", _pos(sx))
            return Not(self.formula(sx[1], env))
        if head in ("and", "or"):
            if len(sx) < 3:
                raise ParseError(f"{head} takes at least 2 arguments", _pos(sx))
            parts = []
            for a in sx[1:]:
                parts.append(self.formula(a, env))
            out = parts.pop()
            op = And if head == "and" else Or
            for p in reversed(parts):
                out = op(p, out)
            return out
        if head == "->":
            if len(sx) != 3:
                raise ParseError("-> takes 2 arguments", _pos(sx))
            return Or(Not(self.formula(sx[1], env)), self.formula(sx[2], env))
        if head in ("exists", "forall"):
            if not self.quantifiers:
                raise ParseError("quantifiers are not allowed here", _pos(sx))
            expand = expand_exists if head == "exists" else expand_forall
            if 0 not in env.values():
                return expand(self.binder_matrix(sx, env))
            # the enclosing binder's variable leaves the hole for the body
            # of this one, and comes back to it in this one's expansion
            k = self.fresh()
            inner = {name: k if i == 0 else i for name, i in env.items()}
            return substitute(expand(self.binder_matrix(sx, inner)), {k: Var(0)})
        raise ParseError(f"expected a formula, got {_shown(sx)}", _pos(sx))

    def binder_matrix(self, sx, env: dict[str, int]) -> Expr:
        """Parse (Q (x) BODY) with the bound variable as the hole Var(0).

        No name in env may stand for Var(0).
        """
        if len(sx) != 3 or not isinstance(sx[1], list) or len(sx[1]) != 1:
            raise ParseError("binders are ((Q (x) BODY))", _pos(sx))
        name = sx[1][0]
        if not isinstance(name, str) or name in RESERVED:
            raise ParseError(f"bad variable name {_shown(name)}", _pos(sx))
        return self.formula(sx[2], {**env, str(name): 0})


def _check_positive(e: Expr, positive: bool = True) -> bool:
    if e.__class__ is InSet:
        return positive
    if e.__class__ is Not:
        positive = not positive
    for k in e.kids:
        if not _check_positive(k, positive):
            return False
    return True


# ---------------------------------------------------------------------------
# Problems

class GoalSpec(NamedTuple):
    goal: Goal
    candidates: tuple[Expr, ...] = ()


class Problem(NamedTuple):
    crits: tuple[CriticalFormula, ...]  # written out, then goal candidates'
    goals: tuple[GoalSpec, ...]
    max_steps: int | None = None  # the max-steps option
    ctx: InductiveContext | None = None  # equal for equal clauses


def parse_problem(text: str) -> Problem:
    try:
        return _build_problem(_read_plain(text))
    except ParseError:
        pass  # read and build again, with positions for the error
    return _build_problem(read_forms(text))


def _build_problem(forms: list) -> Problem:
    ctx: InductiveContext | None = None
    max_steps: int | None = None
    crit_forms = []
    goal_forms = []

    for form in forms:
        if not isinstance(form, list) or not form:
            raise ParseError(f"unexpected top-level form {_shown(form)}", _pos(form))
        head = form[0]
        if head == "clause":
            if ctx is not None:
                raise ParseError("only one inductive clause is allowed", _pos(form))
            if (
                len(form) != 3
                or not isinstance(form[1], list)
                or len(form[1]) != 3
                or not all(isinstance(v, str) for v in form[1])
            ):
                raise ParseError("clause is (clause (y x X) BODY)", _pos(form))
            yname, xname, sname = (str(v) for v in form[1])
            if len({yname, xname, sname}) != 3:
                raise ParseError("clause names must be distinct", _pos(form))
            if sname in RESERVED or yname in RESERVED or xname in RESERVED:
                raise ParseError("clause names must not be reserved", _pos(form))
            # without binders in the body, the names take their indices at once
            parser = _Parser(set_label=sname, quantifiers=False)
            clause = parser.formula(form[2], {yname: 0, xname: 1})
            if not _check_positive(clause):
                raise ParseError(
                    "the set must occur only positively in the clause", _pos(form)
                )
            try:
                ctx = InductiveContext(clause)
            except LanguageError as err:
                raise ParseError(str(err), _pos(form)) from err
        elif head == "option":
            if len(form) != 3 or not isinstance(form[1], str):
                raise ParseError("option is (option NAME VALUE)", _pos(form))
            if form[1] != "max-steps" or not isinstance(form[2], int):
                raise ParseError(f"unknown option {form[1]!r}", _pos(form))
            if max_steps is not None:
                raise ParseError(f"option {form[1]} given twice", _pos(form))
            if form[2] < 1:
                raise ParseError("max-steps must be at least 1", _pos(form))
            max_steps = form[2]
        elif head == "crit":
            crit_forms.append(form)
        elif head == "goal":
            goal_forms.append(form)
        else:
            raise ParseError(f"unknown form {_shown(head)}", _pos(form))

    crits: list[CriticalFormula] = []
    for form in crit_forms:
        crits.append(_parse_crit(form, ctx))
    goals: list[GoalSpec] = []
    for form in goal_forms:
        spec = _parse_goal(form)
        goals.append(spec)
        g = spec.goal  # its matrix is skolemized already
        for cand in spec.candidates:
            crits.append(_epsilon(cand, g.phi, g.sym, g.args))
    return Problem(tuple(crits), tuple(goals), max_steps, ctx)


def _need_ctx(ctx: InductiveContext | None, form) -> InductiveContext:
    if ctx is None:
        raise ParseError(
            "this critical formula needs an inductive clause", _pos(form)
        )
    return ctx


def _parse_crit(form, ctx: InductiveContext | None) -> CriticalFormula:
    if len(form) < 2 or not isinstance(form[1], str):
        raise ParseError("crit needs a kind tag", _pos(form))
    kind = str(form[1])
    parser = _Parser()
    try:
        if kind == "pred":
            if len(form) != 3:
                raise ParseError("(crit pred TERM)", _pos(form))
            return make_pred(parser.term(form[2], {}))
        if kind == "eps":
            if len(form) != 4:
                raise ParseError("(crit eps TERM (exists (x) F))", _pos(form))
            t = parser.term(form[2], {})
            ex = form[3]
            if not (isinstance(ex, list) and ex and ex[0] == "exists"):
                raise ParseError("third part must be (exists (x) F)", _pos(form))
            phi = parser.binder_matrix(ex, {})
            return make_epsilon(t, phi)
        if kind == "ind":
            if len(form) != 5:
                raise ParseError("(crit ind (x) F TERM)", _pos(form))
            phi = parser.binder_matrix(["ind", form[2], form[3]], {})
            t = parser.term(form[4], {})
            return make_induction(t, phi)
        if kind == "inddef":
            if len(form) != 3:
                raise ParseError("(crit inddef TERM)", _pos(form))
            return make_inductive_def(
                parser.term(form[2], {}), _need_ctx(ctx, form)
            )
        if kind == "closure":
            if len(form) != 4:
                raise ParseError("(crit closure (x) F)", _pos(form))
            phi = parser.binder_matrix(["closure", form[2], form[3]], {})
            return make_closure(phi, _need_ctx(ctx, form))
        if kind == "formula":
            if len(form) != 3:
                raise ParseError("(crit formula F)", _pos(form))
            return shape_check(form[2], ctx)
    except (ProcessInvariantError, LanguageError) as err:
        raise ParseError(str(err), _pos(form)) from err
    raise ParseError(f"unknown critical formula kind {kind!r}", _pos(form))


def _parse_goal(form) -> GoalSpec:
    parser = _Parser(quantifiers=False)
    if len(form) not in (2, 3):
        raise ParseError("(goal (exists (x) F) (candidates TERM*)?)", _pos(form))
    ex = form[1]
    if not (isinstance(ex, list) and ex and ex[0] == "exists"):
        raise ParseError("goal needs (exists (x) F)", _pos(form))
    # no binders here: no variable but the hole, no symbol hiding a set
    phi = parser.binder_matrix(ex, {})
    text = f"(exists (v0) {to_sexpr(phi)})"
    if "(in " in text:
        raise ParseError("goals must be arithmetic (no membership atoms)", _pos(form))
    candidates: tuple[Expr, ...] = ()
    if len(form) == 3:
        c = form[2]
        if not (isinstance(c, list) and c and c[0] == "candidates"):
            raise ParseError("second goal part is (candidates TERM*)", _pos(form))
        candidates = tuple(parser.term(t, {}) for t in c[1:])
    return GoalSpec(goal=make_goal(phi, text), candidates=candidates)


# ---------------------------------------------------------------------------
# Shape recognition for untagged critical formulas

def _subst_sx(tree, name: str, repl):
    if isinstance(tree, str) and str(tree) == name:
        return repl
    if isinstance(tree, list):
        return [_subst_sx(a, name, repl) for a in tree]
    return tree


def _match_instance(pattern, name: str, instance):
    """The term substituted for name that turns pattern into instance."""
    hits: list = []

    def walk(p, i) -> bool:
        if isinstance(p, str) and str(p) == name:
            hits.append(i)
            return True
        if isinstance(p, list) and isinstance(i, list) and len(p) == len(i):
            return all(walk(a, b) for a, b in zip(p, i))
        return p == i

    if not walk(pattern, instance) or not hits:
        return None
    first = hits[0]
    if not all(h == first for h in hits[1:]):
        return None
    return first


def _is(sx, tag: str, size: int) -> bool:
    return isinstance(sx, list) and len(sx) == size and sx[0] == tag


def _binder_of(sx, tag: str):
    if (
        _is(sx, tag, 3)
        and isinstance(sx[1], list)
        and len(sx[1]) == 1
        and isinstance(sx[1][0], str)
    ):
        return str(sx[1][0]), sx[2]
    return None


def shape_check(sx, ctx: InductiveContext | None) -> CriticalFormula:
    """Recognize a surface formula as one of the five axiom shapes.

    A candidate reading is extracted from the surface tree, rebuilt through
    the corresponding constructor, and accepted only when the rebuilt axiom
    expands to exactly the given formula (its text spells out each `At`
    node's instance).  Shapes are tried in the order pred, induction,
    epsilon, inductive definition, closure.
    """
    target = _Parser().formula(sx, {})
    text = to_sexpr(target)

    def accept(build) -> CriticalFormula | None:
        """build()'s axiom when it builds and expands to the target."""
        try:
            cf = build()
        except (ParseError, ProcessInvariantError, LanguageError):
            return None
        return cf if to_sexpr(cf.formula) == text else None

    def term(t_sx) -> Expr:
        return _Parser().term(t_sx, {})

    def matrix(x: str, body) -> Expr:
        return _Parser().binder_matrix(["q", [x], body], {})

    if _is(sx, "->", 3):
        prem, concl = sx[1], sx[2]
        ex = _binder_of(concl, "exists")

        # pred: (-> (not (= S 0)) (exists (x) (= S (s x))))
        if ex is not None and _is(prem, "not", 2) and _is(prem[1], "=", 3):
            x, inner = ex
            if (
                prem[1][2] == 0
                and _is(inner, "=", 3)
                and inner[2] == ["s", x]
                and inner[1] == prem[1][1]
            ):
                if got := accept(lambda: make_pred(term(prem[1][1]))):
                    return got

        # induction: (-> (and F0 (not FT)) (exists (x) (and F (not F[Sx]))))
        if (
            ex is not None
            and _is(prem, "and", 3)
            and _is(prem[2], "not", 2)
        ):
            x, inner = ex
            if _is(inner, "and", 3) and _is(inner[2], "not", 2):
                fx, fsx = inner[1], inner[2][1]
                if _subst_sx(fx, x, ["s", x]) == fsx and _subst_sx(fx, x, 0) == prem[1]:
                    t_sx = _match_instance(fx, x, prem[2][1])
                    if t_sx is not None and (
                        got := accept(
                            lambda: make_induction(term(t_sx), matrix(x, fx))
                        )
                    ):
                        return got

        # epsilon: (-> F[t] (exists (x) F))
        if ex is not None:
            x, inner = ex
            t_sx = _match_instance(inner, x, prem)
            if t_sx is not None and (
                got := accept(lambda: make_epsilon(term(t_sx), matrix(x, inner)))
            ):
                return got

        # inductive definition: (-> A (in T I))
        if _is(concl, "in", 3) and str(concl[2]) == "I" and ctx is not None:
            if got := accept(lambda: make_inductive_def(term(concl[1]), ctx)):
                return got

        # closure: (-> PREM (forall (x) (-> (in x I) F)))
        fa = _binder_of(concl, "forall")
        if fa is not None and ctx is not None:
            x, inner = fa
            if (
                _is(inner, "->", 3)
                and _is(inner[1], "in", 3)
                and inner[1][1] == x
                and str(inner[1][2]) == "I"
            ):
                if got := accept(lambda: make_closure(matrix(x, inner[2]), ctx)):
                    return got

    raise ParseError("not a critical formula", _pos(sx))
