"""The tree evaluator, kept as the reference for `substitution.truth`.

Reduction rewrites a term or formula as far as a substitution decides it:
canonical Skolem terms read their value (? counts as 0), arithmetic folds
once its arguments are numerals, and membership atoms collapse to true or
false when their entry is present.  A reduced sentence is then evaluated
over closed arithmetic, and `NotGround` reports one that is still
undecided.  The engine answers the same question in one walk; the tests
compare the two, verdict and lookups alike.

Beside it sit the earlier forms of engine paths the tests compare with:
the goal report that builds and evaluates instance trees, the
serialization that sorts every entry, the walks written out by hand for
every node type (`substitute`, `to_sexpr`, `abstract_closed_terms`), the
reader that tokenizes first and then recurses, the parse that reads
positioned tokens and renames each binder's variable into the hole after
its body is built, the walk over every node and witness symbol of a
problem and the check of each against its checked rebuild
(`problem_nodes`, `check_construction`), and the problem serializer
(`serialize_problem`) that only the round-trip test calls.  Then the
engine's paths without a verdict table, which the table's differential
tests compare with: the planner that tests every formula afresh on a
view it is given (`reference_compute_plan`, with `reference_analyze` and
the visiting order `formula_order`), the solving test over every formula
(`reference_is_solving`), the correctness check and refutation of
every entry (`reference_is_correct`, `reference_refutes`), and the guard
over every entry (`reference_is_ci`); `table_for`
builds the fresh table a test hands the engine where it once passed
none.  Then the admissibility check that builds a map of the whole
prefix for every member, the correctness condition written out as a
formula (`correctness_formula`), `models`, and the views of maps and
recordings that only the tests ask for (the stored-map view `stored` and
its recording, `domain`, `sorted_items`, `rank_filter`, `positive_omega`,
`consulted`, `leaked`); last the small
builders of terms and formulas (`plus`, `succ`, `lt`, `implies`) and the
builders and readers of canonical expressions that only the tests use,
and the step's change and snapshot records computed from the two whole
states (`change`, `v_changes`) or from their rows from rank Omega on
(`layer_change`), and the member-witness conflict search
over every entry (`reference_member_conflict`).
"""

from __future__ import annotations

import operator
from bisect import bisect_left

from epsengine.language import (
    And,
    At,
    Bottom,
    BOTTOM,
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
    Rank,
    RelAtom,
    SkolemApp,
    Top,
    TOP,
    Var,
    _apply_fn,
    and_,
    canon_sexpr,
    fn,
    in_set,
    instantiate_index,
    is_formula,
    is_term,
    not_,
    num,
    or_,
    rank_of,
    rank_sort_key,
    rel,
    skolem,
    substitute,
    to_sexpr,
)
from epsengine import problems
from epsengine.problems import (
    RESERVED, ParseError, _List, _Num, _Parser, _pos, _shown, _Sym, read_forms,
)
from epsengine.process import (
    CASE_HIGH,
    CASE_LOW,
    CASE_OMEGA_NEG,
    CASE_OMEGA_POS,
    ClosureCF,
    EpsilonCF,
    Goal,
    InductionCF,
    InductiveDefCF,
    PredCF,
    ProcessInvariantError,
    StepPlan,
    _reduce_numeral,
    analyze,
    repair_rank_bound,
)
from epsengine.substitution import (
    TOP_VAL,
    _KEY,
    Change,
    RecordingSubstitution,
    Substitution,
    SubstitutionError,
    Verdicts,
    correctness,
    entry_is_positive,
    serialize,
    truth,
)


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
    if isinstance(phi, At):
        # as the compiler evaluates it: a template without the hole reads
        # nothing of arg; else arg first, then the template at its value,
        # or with the hole left open when the arg does not reduce to one
        if phi.template.closed:
            return reduce_formula(phi.template, sub)
        t = reduce_term(phi.arg, sub)
        hole = t if isinstance(t, Numeral) else Var(0)
        return reduce_formula(substitute(phi.template, {0: hole}), sub)
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


def reference_truth(phi: Expr, sub) -> bool | None:
    """The verdict of reduction then evaluation; None when not ground."""
    try:
        return evaluate_sentence(reduce_formula(phi, sub))
    except NotGround:
        return None


def expand(e: Expr) -> Expr:
    """e with each `At` node replaced by the instance it stands for, the
    tree `substitute` builds: the axioms as the builders once made them."""
    if e.__class__ is At:
        return substitute(e.template, {0: e.arg})
    return e.remake([expand(k) for k in e.kids])


def decides(sub, phi: Expr) -> bool:
    return truth(phi, sub) is not None


def is_computing(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    """Every entry's correctness condition is decided by the stored entries."""
    view = stored(sub)
    return all(
        decides(view, correctness_formula(e, u, ctx)) for e, u in sub.items()
    )


def reference_extract_witness(sub: Substitution, goal: Goal) -> int:
    """Numeral witnessing a solved goal, checked on the instance tree."""
    expanded = substitute(goal.phi, {0: skolem(goal.sym, goal.args)})
    if not models(sub, expanded):
        raise ProcessInvariantError(
            "goal is not satisfied by the final substitution"
        )
    return _reduce_numeral(skolem(goal.sym, goal.args), sub)


def reference_witness_line(sub: Substitution, goal: Goal) -> str:
    """`cli.witness_line` as it was: the instance checked as a tree."""
    try:
        n = reference_extract_witness(sub, goal)
    except ProcessInvariantError:
        return f"goal {goal.text}: not decided true"
    instance = substitute(goal.phi, {0: num(n)})
    holds = models(Substitution.empty(), instance)
    return (
        f"goal {goal.text}: witness {n}; "
        f"instance {to_sexpr(instance)} is {'true' if holds else 'false'}"
    )


def reference_serialize(sub: Substitution) -> str:
    """The one-line form by sorting every entry on rank then expression."""
    items = sorted(sub.items(), key=lambda it: rank_sort_key(it[0], sub.omega_sym))
    return "{" + " ".join(f"({canon_sexpr(e)} {u})" for e, u in items) + "}"


# ---------------------------------------------------------------------------
# The walks as they were written out, one case per node type

def hand_to_sexpr(e: Expr, set_name: str = "I") -> str:
    if isinstance(e, Numeral):
        return str(e.value)
    if isinstance(e, Var):
        return f"v{e.index}"
    if isinstance(e, FnApp):
        return "(" + " ".join([e.fn] + [hand_to_sexpr(a, set_name) for a in e.args]) + ")"
    if isinstance(e, SkolemApp):
        inner = [f"(c {e.sym.text})"]
        inner += [hand_to_sexpr(a, set_name) for a in e.args]
        return "(" + " ".join(inner) + ")" if e.args else inner[0]
    if isinstance(e, RelAtom):
        return "(" + " ".join([e.rel] + [hand_to_sexpr(a, set_name) for a in e.args]) + ")"
    if isinstance(e, InSet):
        return f"(in {hand_to_sexpr(e.arg, set_name)} {set_name})"
    if isinstance(e, Not):
        return f"(not {hand_to_sexpr(e.body, set_name)})"
    if isinstance(e, And):
        return f"(and {hand_to_sexpr(e.left, set_name)} {hand_to_sexpr(e.right, set_name)})"
    if isinstance(e, Or):
        return f"(or {hand_to_sexpr(e.left, set_name)} {hand_to_sexpr(e.right, set_name)})"
    if isinstance(e, Top):
        return "true"
    if isinstance(e, Bottom):
        return "false"
    raise LanguageError(f"cannot serialize {e!r}")


def hand_is_closed(e: Expr) -> bool:
    if isinstance(e, Var):
        return False
    if isinstance(e, Numeral):
        return True
    if isinstance(e, (FnApp, SkolemApp, RelAtom)):
        return all(hand_is_closed(a) for a in e.args)
    if isinstance(e, InSet):
        return hand_is_closed(e.arg)
    if isinstance(e, Not):
        return hand_is_closed(e.body)
    if isinstance(e, (And, Or)):
        return hand_is_closed(e.left) and hand_is_closed(e.right)
    return True


def hand_substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    if isinstance(e, Numeral):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, FnApp):
        return fn(e.fn, *[hand_substitute(a, mapping) for a in e.args])
    if isinstance(e, SkolemApp):
        return skolem(e.sym, [hand_substitute(a, mapping) for a in e.args])
    if isinstance(e, RelAtom):
        a, b = (hand_substitute(x, mapping) for x in e.args)
        return rel(e.rel, a, b)
    if isinstance(e, InSet):
        return in_set(hand_substitute(e.arg, mapping))
    if isinstance(e, Not):
        return not_(hand_substitute(e.body, mapping))
    if isinstance(e, And):
        return and_(hand_substitute(e.left, mapping), hand_substitute(e.right, mapping))
    if isinstance(e, Or):
        return or_(hand_substitute(e.left, mapping), hand_substitute(e.right, mapping))
    return e


def hand_abstract_closed_terms(phi: Expr) -> tuple[Expr, tuple[Expr, ...]]:
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
        if hand_is_closed(t):
            return param(("closed", hand_to_sexpr(t)), t)
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


# ---------------------------------------------------------------------------
# The reader as it was: a character loop, then a recursive descent

class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _read(toks: list[_Tok], at: int):
    if at >= len(toks):
        raise ParseError("unexpected end of input")
    tok = toks[at]
    if tok.text == "(":
        items = _List(tok.line, tok.col)
        at += 1
        while True:
            if at >= len(toks):
                raise ParseError("unclosed parenthesis", (tok.line, tok.col))
            if toks[at].text == ")":
                return items, at + 1
            item, at = _read(toks, at)
            items.append(item)
    if tok.text == ")":
        raise ParseError("unexpected ')'", (tok.line, tok.col))
    text = tok.text
    if text.lstrip("-").isdigit():
        try:
            value = int(text)
        except ValueError:  # past int's digit limit, or a non-ASCII digit
            raise ParseError("malformed numeral", (tok.line, tok.col)) from None
        if value < 0:
            raise ParseError("negative numeral", (tok.line, tok.col))
        return _Num(value, tok.line, tok.col), at + 1
    return _Sym(text, tok.line, tok.col), at + 1


def recursive_read_forms(text: str) -> list:
    toks = _tokenize(text)
    forms = []
    at = 0
    while at < len(toks):
        form, at = _read(toks, at)
        forms.append(form)
    return forms


# ---------------------------------------------------------------------------
# The parse as it was: positioned tokens, and each binder's variable at a
# fresh index while its body is built, renamed into the hole Var(0) after

class _RenamingParser(_Parser):
    def binder_matrix(self, sx, env: dict[str, int]) -> Expr:
        if len(sx) != 3 or not isinstance(sx[1], list) or len(sx[1]) != 1:
            raise ParseError("binders are ((Q (x) BODY))", _pos(sx))
        name = sx[1][0]
        if not isinstance(name, str) or name in RESERVED:
            raise ParseError(f"bad variable name {_shown(name)}", _pos(sx))
        k = self.fresh()
        body = self.formula(sx[2], {**env, str(name): k})
        return substitute(body, {k: Var(0)})


def positioned_parse_problem(text: str) -> problems.Problem:
    """`parse_problem` over `read_forms`, with binders renamed after.

    The renaming parser stands in for the problem builder's own while the
    call lasts, so this is for one thread at a time.
    """
    saved = problems._Parser
    problems._Parser = _RenamingParser
    try:
        return problems._build_problem(read_forms(text))
    finally:
        problems._Parser = saved


# ---------------------------------------------------------------------------
# A problem's nodes and witness symbols, every one of them once, for the
# check that what the parser and the axiom builders build from the node
# classes is what the checked constructors would build

def problem_nodes(problem: problems.Problem) -> tuple[list[Expr], list]:
    """Every node reachable from the problem, the symbols' index formulas
    included, and every witness symbol, each once."""
    roots: list = []
    if problem.ctx is not None:
        ctx = problem.ctx
        roots += [ctx.clause, ctx.a_template, *ctx.cn_args_template, ctx.omega_sym]
    for record in [*problem.crits, *(spec.goal for spec in problem.goals)]:
        for v in record:
            roots += v if isinstance(v, tuple) else [v]
    for spec in problem.goals:
        roots += spec.candidates
    nodes: dict[int, Expr] = {}
    syms: dict[int, object] = {}
    stack = [r for r in roots if not isinstance(r, str)]
    while stack:
        x = stack.pop()
        if isinstance(x, Expr):
            if id(x) not in nodes:
                nodes[id(x)] = x
                stack += x.kids
                if x.__class__ is SkolemApp:
                    stack.append(x.sym)
        elif id(x) not in syms:  # a witness symbol
            syms[id(x)] = x
            stack.append(x.index_formula)
    return list(nodes.values()), list(syms.values())


def check_construction(problem: problems.Problem, name: str = "") -> None:
    """Each node of the problem equals its rebuild over its own kids, which
    goes through the checked constructors: an application over numerals
    that did not fold, or a node over the wrong kind of kid, fails here.
    Each witness symbol's text is its index formula's."""
    nodes, syms = problem_nodes(problem)
    for node in nodes:
        rebuilt = node.remake(list(node.kids))
        assert rebuilt == node and rebuilt.closed == node.closed, (name, node)
    for sym in syms:
        assert sym.text == to_sexpr(sym.index_formula), (name, sym)


# ---------------------------------------------------------------------------
# Problems written back as text, which only the round-trip test asks for

def _emit_template(phi: Expr) -> str:
    return f"(exists (v0) {to_sexpr(phi)})"


def serialize_problem(problem: problems.Problem, set_name: str = "X") -> str:
    """A problem text that parses to a problem equal to this one.

    The clause names its set set_name.  The critical formulas written out
    come first in ``crits``, then the goals' candidate axioms, which the
    goals' text gives back.
    """
    lines: list[str] = []
    if problem.ctx is not None:
        body = hand_to_sexpr(problem.ctx.clause, set_name)
        lines.append(f"(clause (v0 v1 {set_name}) {body})")
    if problem.max_steps is not None:
        lines.append(f"(option max-steps {problem.max_steps})")
    written = len(problem.crits) - sum(len(g.candidates) for g in problem.goals)
    for cf in problem.crits[:written]:
        if isinstance(cf, PredCF):
            lines.append(f"(crit pred {to_sexpr(cf.s)})")
        elif isinstance(cf, EpsilonCF):
            lines.append(f"(crit eps {to_sexpr(cf.t)} {_emit_template(cf.phi)})")
        elif isinstance(cf, InductionCF):
            lines.append(f"(crit ind (v0) {to_sexpr(cf.phi)} {to_sexpr(cf.t)})")
        elif isinstance(cf, InductiveDefCF):
            lines.append(f"(crit inddef {to_sexpr(cf.t)})")
        elif isinstance(cf, ClosureCF):
            lines.append(f"(crit closure (v0) {to_sexpr(cf.phi)})")
    for spec in problem.goals:
        cands = ""
        if spec.candidates:
            cands = " (candidates " + " ".join(map(to_sexpr, spec.candidates)) + ")"
        lines.append(f"(goal {_emit_template(spec.goal.phi)}{cands})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The engine's paths without a verdict table: every formula and every entry
# evaluated afresh on each state, as the table's differential tests want

def formula_order(crs, omega) -> list[tuple[Rank, int]]:
    """The planner's visiting order: (rank bound, index) of each formula,
    sorted, as `process.run` builds its table with it."""
    return sorted((repair_rank_bound(cf, omega), i) for i, cf in enumerate(crs))


def table_for(crs, omega) -> Verdicts:
    """A fresh verdict table over crs, whose witness terms rank by omega."""
    return Verdicts(formula_order(crs, omega))


def reference_analyze(cf, hs, ctx, ext=None):
    """`analyze` after its own satisfaction test, on ext (by default hs's
    map)."""
    if ext is None:
        ext = hs.sub
    return analyze(cf, hs, ctx, ext, truth(cf.formula, ext) is True)


def reference_compute_plan(hs, crs, ctx, ext=None) -> StepPlan | None:
    """`compute_plan` without a table: every formula in the order of its
    rank bound, until none can win, each tested on ext; ext may be a view
    that records the lookups (`sequents.h_step_applies`)."""
    if ext is None:
        ext = hs.sub
    omega = hs.sub.omega_sym
    best = None
    for key in formula_order(crs, omega):
        if best is not None and key > best[:2]:
            break
        i = key[1]
        pair = reference_analyze(crs[i], hs, ctx, ext)
        if pair is None:
            continue
        e, v = pair
        r = rank_of(e, omega)
        if best is None or (r, i) < best[:2]:
            best = (r, i, e, v)
    if best is None:
        return None
    r, i, e, v = best
    if r.is_omega:
        case = CASE_OMEGA_POS if isinstance(e, CanonForm) else CASE_OMEGA_NEG
    else:
        case = CASE_LOW if r < OMEGA else CASE_HIGH
    return StepPlan(cr_index=i, e=e, v=v, rank=r, case=case)


def reference_is_solving(sub: Substitution, crs) -> bool:
    """Every critical formula holds on sub's standard extension."""
    return all(truth(cf.formula, sub) is True for cf in crs)


def reference_is_correct(sub: Substitution, ctx: InductiveContext | None = None):
    """Every entry satisfies its correctness condition in the standard
    extension."""
    return all(correctness(e, u, sub, ctx) is True for e, u in sub.items())


def reference_refutes(sub: Substitution, e, u, ctx: InductiveContext | None = None):
    """The stored entries of sub decide the pair (e, u) incorrect."""
    return correctness(e, u, stored(sub), ctx) is False


def reference_is_ci(sub: Substitution, ctx: InductiveContext | None = None) -> bool:
    """The guard over every entry: a witness conflict anywhere in the map,
    or an entry the stored entries decide incorrect."""
    return reference_member_conflict(sub, ctx) or any(
        reference_refutes(sub, e, u, ctx) for e, u in sub.items()
    )


# ---------------------------------------------------------------------------
# Admissibility over a map built afresh for each member

def fresh_map_is_admissible(p: tuple[int, ...], ctx: InductiveContext | None) -> bool:
    """Each member's clause instance B(0, n, I) holds, by reduction, on the
    standard extension of a map built afresh from the members before it."""
    if ctx is None:
        return not p
    for i, n in enumerate(p):
        prefix = Substitution(
            {CanonForm(m): TOP_VAL for m in p[:i]}, omega_sym=ctx.omega_sym
        )
        if reference_truth(b_formula(ctx, num(0), num(n)), prefix) is not True:
            return False
    return True


# ---------------------------------------------------------------------------
# The correctness condition as a formula, and views of maps and recordings

def models(sub, phi: Expr) -> bool:
    """Whether sub decides phi true."""
    return truth(phi, sub) is True


def conjoin(parts: list[Expr]) -> Expr:
    """Balanced conjunction of a list; keeps tree depth logarithmic."""
    if not parts:
        return TOP
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return and_(conjoin(parts[:mid]), conjoin(parts[mid:]))


def correctness_formula(
    e: Canon, u, ctx: InductiveContext | None = None
) -> Expr:
    """The condition a pair (e, u) must satisfy to sit in a correct map;
    `substitution.correctness` evaluates it without building it.

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
    return a_formula(ctx, e.n)


class _Stored:
    """The stored-map view of a map: a lookup answers the stored value, and
    None, undecided, for an absent entry, where the map itself answers ?
    as its standard extension does.  The engine asks only the standard
    extension; the paper's guard and its lemmas speak of this view."""

    __slots__ = ("sub", "get")

    def __init__(self, sub: Substitution):
        self.sub = sub
        self.get = sub.raw


def stored(sub: Substitution) -> _Stored:
    """sub's stored-map view."""
    return _Stored(sub)


class StoredRecording(RecordingSubstitution):
    """A `RecordingSubstitution` of the stored-map view: the same reads,
    and None for an absent entry."""

    __slots__ = ()

    def get(self, e: Canon):
        u = self.reads[e] = self._raw(e)
        return u


def recording(view) -> RecordingSubstitution:
    """A recording of view, a map or its `stored` view, that answers as
    view does."""
    if isinstance(view, _Stored):
        return StoredRecording(view.sub)
    return RecordingSubstitution(view)


def domain(sub: Substitution) -> set[Canon]:
    return {e for e, _ in sub.items()}


def sorted_items(sub: Substitution) -> list:
    """The entries (e, u) in serialization order."""
    return [(e, u) for _, _, e, u in sub._rows]


RANK_TESTS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


def rank_filter(sub: Substitution, op: str, r: Rank) -> Substitution:
    """The entries whose rank q satisfies q op r, in order, built afresh."""
    test = RANK_TESTS[op]
    return Substitution(
        {e: u for e, u in sorted_items(sub) if test(sub.rank_of(e), r)},
        omega_sym=sub.omega_sym,
    )


def positive_omega(sub: Substitution) -> Substitution:
    """The rank-Omega entries of positive polarity."""
    layer = sub.split_omega()[1]
    return sub.derive([r for r in layer if entry_is_positive(r[2], r[3])])


def change(before: Substitution, after: Substitution) -> Change:
    """The change from before to after, from the set differences of the two
    whole maps' row texts: what a step builds from its plan (`put_change`,
    `layer_change`) must equal it."""
    b_rows, a_rows = before._rows, after._rows
    b_texts = {text for _, text, _, _ in b_rows}
    a_texts = {text for _, text, _, _ in a_rows}
    added, removed = a_texts - b_texts, b_texts - a_texts
    rows = [r for r in a_rows if r[1] in added]
    gone = [r for r in b_rows if r[1] in removed]
    return Change(
        tuple(sorted(added)),
        tuple(sorted(removed)),
        rows,
        gone,
        any(r[0][0] == OMEGA.kind for r in rows + gone),
    )


def layer_change(before: Substitution, after: Substitution) -> Change:
    """The change of a step that keeps every row below rank Omega, from the
    set differences of the texts of the rows from rank Omega on: what an
    Omega step builds from its case (`member_change`, `rollback_change`)
    must equal it."""
    b_rows = before._rows[bisect_left(before._rows, OMEGA, key=_KEY) :]
    a_rows = after._rows[bisect_left(after._rows, OMEGA, key=_KEY) :]
    b_texts = {text for _, text, _, _ in b_rows}
    a_texts = {text for _, text, _, _ in a_rows}
    added, removed = a_texts - b_texts, b_texts - a_texts
    rows = [r for r in a_rows if r[1] in added]
    gone = [r for r in b_rows if r[1] in removed]
    return Change(
        tuple(sorted(added)),
        tuple(sorted(removed)),
        rows,
        gone,
        any(r[0][0] == OMEGA.kind for r in rows + gone),
    )


def reference_member_conflict(sub: Substitution, ctx: InductiveContext | None) -> bool:
    """`member_conflict` as it was: the set of members, then every entry."""
    if ctx is None:
        return False
    members = set(sub.positive_omega_forms())
    return bool(members) and any(
        isinstance(e, CanonTerm) and u.kind == "num" and ctx.member_of(e) in members
        for e, u in sub.items()
    )


def v_changes(before, after) -> tuple[dict[int, str], tuple[int, ...]]:
    """A step record's `v_added` and `v_removed`, from every snapshot of the
    two histories."""
    added = {
        m: serialize(snap)
        for m, snap in after.v.items()
        if m not in before.v or serialize(before.v[m]) != serialize(snap)
    }
    return added, tuple(sorted(m for m in before.v if m not in after.v))


def consulted(rec) -> set[Canon]:
    """The expressions a `RecordingSubstitution` was asked about."""
    return set(rec.reads)


def leaked(rec) -> set[Canon]:
    """Those of them absent from the underlying map."""
    return {e for e, u in rec.reads.items() if u is None}


# ---------------------------------------------------------------------------
# Builders and readers of canonical expressions for the tests

def plus(a: Expr, b: Expr) -> Expr:
    return fn("+", a, b)


def succ(t: Expr) -> Expr:
    return fn("s", t)


def lt(a: Expr, b: Expr) -> RelAtom:
    return rel("<", a, b)


def implies(a: Expr, b: Expr) -> Or:
    """Material implication, stored as (or (not a) b)."""
    return or_(not_(a), b)


def to_term(c: CanonTerm) -> SkolemApp:
    return skolem(c.sym, [num(n) for n in c.args])


def to_formula(c: CanonForm) -> InSet:
    return in_set(num(c.n))


def as_canonical(e: Expr) -> Canon | None:
    """The canonical expression e denotes, if any."""
    if isinstance(e, SkolemApp) and all(isinstance(a, Numeral) for a in e.args):
        return CanonTerm(e.sym, tuple(a.value for a in e.args))
    if isinstance(e, InSet) and isinstance(e.arg, Numeral):
        return CanonForm(e.arg.value)
    return None


def mentions_inductive(e: Expr) -> bool:
    """True if e contains a membership atom, hereditarily through symbols.

    Hereditary means that a Skolem symbol whose index formula mentions the
    set counts as a mention even when no membership atom is visible in e's
    own tree; this keeps ranks stratified under nesting.
    """
    if e.__class__ is InSet or e.__class__ is SkolemApp and e.sym.rank > OMEGA:
        return True
    for k in e.kids:
        if mentions_inductive(k):
            return True
    return False


def omega_sym(problem: problems.Problem):
    """The problem's rank-Omega witness symbol, None without a clause."""
    return problem.ctx.omega_sym if problem.ctx is not None else None


def reference_c_n(ctx: InductiveContext, n: int) -> CanonTerm:
    """`InductiveContext.c_n` as it was: each parameter template
    instantiated at n as a tree, which must fold to a numeral."""
    vals = []
    for a in ctx.cn_args_template:
        t = substitute(a, {0: num(n)})
        if not isinstance(t, Numeral):
            raise LanguageError("clause parameters must close to numerals")
        vals.append(t.value)
    return CanonTerm(ctx.omega_sym, tuple(vals))


def a_formula(ctx: InductiveContext, n: int) -> Expr:
    """Membership condition A(n, I) in its abbreviated form."""
    return substitute(ctx.a_template, {0: num(n)})


def b_formula(ctx: InductiveContext, y: Expr, x: Expr) -> Expr:
    """Clause instance B(y, x, I)."""
    return substitute(ctx.clause, {0: y, 1: x})
