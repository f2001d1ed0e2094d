"""The generic walks, the readers and the parse against the code they replaced.

`language` writes every walk over a node's `kids` and `remake`, and
`problems.read_forms` reads with one regex and a stack of open lists.
`parse_problem` reads plain symbols and builds each binder's body with its
variable in the hole; it reads positioned tokens only to report an error.
`reference` keeps the walks written out per node type, the reader that
tokenized first and then recursed, and the parse over positioned tokens
that renamed each binder into the hole after.  Both sides run here on the
problem files, the acceptance corpus, the benchmark families and random
formulas, and on mutated texts for the readers and the parse: same trees,
same symbols, same texts, same argument order, same forms and positions,
same error messages.
"""

from __future__ import annotations

import operator
import pathlib
import random

import pytest

from conftest import bench_imports
from corpusgen import build_corpus
from epsengine.language import (
    Expr,
    Numeral,
    Var,
    abstract_closed_terms,
    num,
    skolem,
    substitute,
    to_sexpr,
)
from epsengine.language import SkolemSymbol
from epsengine.problems import ParseError, _read_plain, _Sym, parse_problem, read_forms
from genexpr import FIN_SYMS, SYM_R1A, SYM_R2, random_formula, random_term
from reference import (
    expand,
    hand_abstract_closed_terms,
    hand_is_closed,
    hand_substitute,
    hand_to_sexpr,
    positioned_parse_problem,
    recursive_read_forms,
    succ,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# binders inside binders, which no file above holds: an enclosing binder's
# variable moves out of the hole while the inner body is built
NESTED = [
    "(crit eps 1 (exists (x) (exists (y) (and (= y x) (< x 3)))))",
    "(crit eps 2 (exists (x) (forall (y) (or (< y x) (= (+ y 1) (s x))))))",
    "(crit eps 0 (exists (x) (exists (x) (= x 1))))",
    "(crit eps 1 (exists (x) (and (< x 4) (exists (y) (exists (z) (= z (+ x (* y 2))))))))",
    "(crit eps 3 (exists (x) (exists (y) (and (= (+ x y) 3) (exists (z) (= z (* x y)))))))",
    "(crit ind (x) (exists (y) (and (= y (s x)) (forall (x) (< x (+ y 1))))) 3)",
    "(crit formula (-> (exists (y) (= y 1)) (exists (x) (exists (y) (= y x)))))",
    "(clause (y x X) (or (not (< y x)) (in y X)))\n"
    "(crit closure (z) (exists (w) (and (< w z) (forall (v) (or (< v w) (= z (* v 2)))))))",
]


def _texts() -> list[str]:
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "problems").glob("*.eps"))]
    texts += [p.text for p in build_corpus()]
    texts += NESTED
    with bench_imports():
        import workloads

        for family in ("corpus", "eps_chain", "omega_ladder"):
            texts += [p.text for p in workloads.generate(family, 1, "tiny")]
    return texts


TEXTS = _texts()


# ---------------------------------------------------------------------------
# Walks

def _subexprs(e: Expr, out: list[Expr]) -> list[Expr]:
    """e and everything below it, index formulas of its symbols included.

    Read off the node's field slots, so it does not lean on `kids`.
    """
    out.append(e)
    for name in type(e).__slots__:
        v = getattr(e, name)
        for k in v if isinstance(v, tuple) else (v,):
            if isinstance(k, Expr):
                _subexprs(k, out)
    if hasattr(e, "sym"):
        _subexprs(e.sym.index_formula, out)
    return out


def _problem_exprs() -> list[Expr]:
    seen: dict[str, Expr] = {}
    for text in TEXTS:
        p = parse_problem(text)
        roots = [p.ctx.clause, p.ctx.a_template] if p.ctx is not None else []
        for cf in p.crits:  # an axiom's At nodes as the instances they stand for
            roots += [expand(v) for v in cf if isinstance(v, Expr)]
        roots += [g.goal.phi for g in p.goals]
        for root in roots:
            for e in _subexprs(root, []):
                seen.setdefault(hand_to_sexpr(e), e)
    return list(seen.values())


def _random_exprs(n: int = 300) -> list[Expr]:
    """genexpr formulas and terms, and their abstractions, which hold variables."""
    rng = random.Random(11)
    out: list[Expr] = []
    for i in range(n):
        e = random_formula(rng, FIN_SYMS, 3, allow_inset=i % 2 == 0)
        out += [e, hand_abstract_closed_terms(e)[0]]
        t = random_term(rng, FIN_SYMS, 3)
        out += [t, hand_abstract_closed_terms(t)[0]]
    return out


EXPRS = _problem_exprs() + _random_exprs()
MAPPINGS = [
    {0: num(3)},
    {1: Var(0)},
    {0: Var(0), 2: num(0)},
    {0: skolem(SYM_R1A, (num(2),)), 1: num(1)},
    {0: succ(Var(1)), 1: skolem(SYM_R2, (Var(0),)), 2: num(4), 3: Var(2)},
]


def test_the_inputs_hold_open_and_closed_expressions():
    assert len(EXPRS) > 1000
    assert sum(not hand_is_closed(e) for e in EXPRS) > 300
    assert sum(hand_is_closed(e) for e in EXPRS) > 300


def test_to_sexpr_matches_the_walk_written_per_node_type():
    for e in EXPRS:
        assert to_sexpr(e) == hand_to_sexpr(e)
        assert e.closed == hand_is_closed(e)


def test_substitute_matches_the_walk_written_per_node_type():
    for e in EXPRS:
        for m in MAPPINGS:
            got, want = substitute(e, m), hand_substitute(e, m)
            assert got == want and type(got) is type(want), (e, m)


def test_abstraction_matches_in_index_and_argument_order():
    for e in EXPRS:
        index, args, text = abstract_closed_terms(e)
        want_index, want_args = hand_abstract_closed_terms(e)
        assert index == want_index and args == want_args, e
        assert text == to_sexpr(index), e
        assert [hand_to_sexpr(a) for a in args] == [hand_to_sexpr(a) for a in want_args]


def _rebuilt(e: Expr) -> Expr:
    """A fresh copy of e, node by node, through the node classes."""
    values = []
    for name in type(e).__slots__:
        v = getattr(e, name)
        if isinstance(v, Expr):
            v = _rebuilt(v)
        elif isinstance(v, tuple):
            v = tuple(map(_rebuilt, v))
        values.append(v)
    return type(e)(*values)


def test_equality_and_hash_agree_with_the_kind_and_the_text():
    def key(e):
        return type(e), hand_to_sexpr(e)

    items = EXPRS[::8] + [_rebuilt(e) for e in EXPRS[::8]]
    keys = list(map(key, items))
    for a, ka in zip(items, keys):
        for b, kb in zip(items, keys):
            assert (a == b) == (ka == kb), (a, b)
            assert a != b or hash(a) == hash(b), (a, b)
    table = {e: key(e) for e in EXPRS}  # every node, compared where hashes meet
    assert len(table) == len(set(map(key, EXPRS)))
    assert all(table[_rebuilt(e)] == key(e) for e in EXPRS)
    assert Var(0) != Numeral(0) and Numeral(0) != Var(0)


# ---------------------------------------------------------------------------
# Readers

def _read(reader, text: str):
    try:
        return "forms", reader(text)
    except ParseError as err:
        return "error", str(err)


def _where(x):
    return getattr(x, "line", None), getattr(x, "col", None)


def _same(a, b) -> bool:
    """Equal forms, with each symbol, numeral and list at the same line and
    column."""
    if type(a) is not type(b) or _where(a) != _where(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _assert_readers_agree(text: str) -> None:
    got, want = _read(read_forms, text), _read(recursive_read_forms, text)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":
        assert got[1] == want[1], text
    else:
        assert _same(got[1], want[1]), text


ODD_ATOMS = ["٣", "²", "12٣", "-0", "-1", "-5", "--3", "-", "7" * 5000, "x;y", "\x0c", " "]


def _mutations(rng: random.Random, text: str) -> list[str]:
    def at(i: int, s: str, cut: int = 0) -> str:
        return text[:i] + s + text[i + cut:]

    n = len(text)
    parens = [i for i, c in enumerate(text) if c in "()"]
    blanks = [i for i, c in enumerate(text) if c == " "]
    atoms = [i for i, c in enumerate(text) if c not in " \t\r\n();"]
    out = [
        text.replace("\n", "\r\n"),
        text.rstrip("\n") + " ; a comment at the end, no newline",
        text.replace(" ", "\t"),
        at(rng.randrange(n + 1), ")"),
        at(rng.randrange(n + 1), "("),
        at(rng.randrange(n + 1), "\n\t ; comment\n"),
    ]
    if parens:
        out.append(at(rng.choice(parens), "", 1))
    if blanks:
        out.append(at(rng.choice(blanks), " " + rng.choice(ODD_ATOMS) + " ", 1))
    if atoms:
        out.append(at(rng.choice(atoms) + 1, ";"))
    return out


@pytest.mark.parametrize("part", range(4))
def test_readers_agree_on_the_texts_and_their_mutations(part):
    rng = random.Random(part)
    for text in TEXTS[part::4]:
        _assert_readers_agree(text)
        for mutated in _mutations(rng, text):
            _assert_readers_agree(mutated)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "; only a comment",
        "(a b",
        "a)",
        "((a) (b)\n  (c",
        "(x\t-0 ٣)\r\n(y ;c\n 3)",
        "(a -1)",
        "(crit pred " + "9" * 5000 + ")",
        "(²)",
        "  )(",
        "(a;b)c",
    ],
)
def test_readers_agree_on_edge_cases(text):
    _assert_readers_agree(text)


def test_a_deep_unclosed_parenthesis_is_reported_where_it_opens():
    # the recursive reader ran out of stack here; the stack reader does not
    text = "(crit formula\n" + " (" * 3000
    with pytest.raises(ParseError, match=r"^2:6000: unclosed parenthesis$"):
        read_forms(text)
    forms = read_forms("(" * 3000 + ")" * 3000)
    depth = 0
    while forms:
        (forms,) = forms
        depth += 1
    assert depth == 3000


# ---------------------------------------------------------------------------
# The parse without positions against the parse with them

def _plain(forms):
    """forms with every symbol a plain str, checking it was one already."""
    if isinstance(forms, list):
        return [_plain(f) for f in forms]
    assert type(forms) is not _Sym
    return forms


def _assert_plain_reader_agrees(text: str) -> None:
    got, want = _read(_read_plain, text), _read(read_forms, text)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":  # the same message, without its position
        assert want[1].endswith(": " + got[1]) and got[1] in (
            "unexpected ')'", "unclosed parenthesis", "malformed numeral",
            "negative numeral",
        ), (text, got, want)
    else:
        assert _plain(got[1]) == want[1], text


def _symbols(x, out: list) -> list:
    """The Skolem symbols in x, in the order a walk of its fields meets them."""
    if isinstance(x, SkolemSymbol):
        out.append(x)
    elif isinstance(x, Expr):
        for name in type(x).__slots__:
            _symbols(getattr(x, name), out)
    elif isinstance(x, tuple) and not isinstance(x, str):
        for item in x:
            _symbols(item, out)
    return out


def _parse(parse, text: str):
    try:
        return "problem", parse(text)
    except ParseError as err:
        return "error", str(err)


def _assert_parses_agree(text: str) -> None:
    got, want = _parse(parse_problem, text), _parse(positioned_parse_problem, text)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":
        assert got[1] == want[1], text
        return
    assert got[1] == want[1], text
    syms, want_syms = _symbols(tuple(got[1]), []), _symbols(tuple(want[1]), [])
    assert len(syms) == len(want_syms) and all(map(operator.is_, syms, want_syms)), text


@pytest.mark.parametrize("part", range(4))
def test_parse_without_positions_agrees_on_the_texts_and_their_mutations(part):
    rng = random.Random(part)
    for text in TEXTS[part::4]:
        for t in [text] + _mutations(rng, text):
            _assert_plain_reader_agrees(t)
            _assert_parses_agree(t)
