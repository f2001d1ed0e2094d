"""Random expressions, canonicals and substitutions over a fixed symbol pool.

Formulas mix every shape the compiled evaluator fuses: implications and
their negations, numeral and variable operands on either side, Skolem
applications of one, two and three arguments, all numerals or mixed, and
membership of numerals, variables and compound terms.  Templates (``nvars``
above 0) hold variables below nvars.

One-hole linear formulas (`random_linear_formula`) are what the solver at
the hole takes: atoms over s, + and * by a hole-free factor, on either
side, with numerals up to 10**6, under not, and, or and implication; and,
with ``fallback`` set, the shapes it leaves to the scan: a Skolem
application or membership at the hole, a product of two hole terms.  Their
hole-free parts are parameters Var(1..nvars-1), numerals and Skolem
applications over those, which a map may leave undecided.
"""

from __future__ import annotations

import random
from typing import Sequence

from epsengine.language import (
    CanonForm,
    CanonTerm,
    Expr,
    InductiveContext,
    SkolemSymbol,
    Var,
    and_,
    eq,
    fn,
    in_set,
    not_,
    num,
    or_,
    rank_of_symbol,
    skolem,
)
from epsengine.substitution import Substitution, TOP_VAL, UNKNOWN, num_val
from reference import implies, lt, succ

SYM_R1A = SkolemSymbol(eq(Var(0), Var(1)), 1)
SYM_R1B = SkolemSymbol(lt(Var(0), Var(1)), 1)
SYM_R1C = SkolemSymbol(eq(Var(0), succ(Var(1))), 1)
SYM_R2 = SkolemSymbol(eq(Var(0), skolem(SYM_R1A, (Var(1),))), 1)
SYM_R3 = SkolemSymbol(lt(skolem(SYM_R2, (Var(1),)), Var(0)), 1)
SYM_OMEGA_PLUS = SkolemSymbol(or_(in_set(Var(0)), eq(Var(0), Var(1))), 1)

FIN_SYMS = [SYM_R1A, SYM_R1B, SYM_R1C, SYM_R2, SYM_R3]
SYM_PAIR = SkolemSymbol(lt(Var(0), fn("+", Var(1), Var(2))), 2)
SYM_TRIPLE = SkolemSymbol(eq(fn("*", Var(0), Var(1)), fn("+", Var(2), Var(3))), 3)
WIDE_SYMS = [SYM_PAIR, SYM_TRIPLE]


def fin_syms_below(r: int) -> list[SkolemSymbol]:
    return [s for s in FIN_SYMS if rank_of_symbol(s).n < r]


def random_term(
    rng: random.Random, syms: list[SkolemSymbol], depth: int = 3, nvars: int = 0
) -> Expr:
    if depth == 0 or rng.random() < 0.35:
        if nvars and rng.random() < 0.5:
            return Var(rng.randrange(nvars))
        return num(rng.randint(0, 4))
    pick = rng.random()
    if pick < 0.55 and syms:
        sym = rng.choice(syms)
        return skolem(
            sym,
            tuple(random_term(rng, syms, depth - 1, nvars) for _ in range(sym.arity)),
        )
    if pick < 0.8:
        return succ(random_term(rng, syms, depth - 1, nvars))
    a = random_term(rng, syms, depth - 1, nvars)
    b = random_term(rng, syms, depth - 1, nvars)
    return fn("+" if pick < 0.9 else "*", a, b)


def random_formula(
    rng: random.Random,
    syms: list[SkolemSymbol],
    depth: int = 3,
    allow_inset: bool = False,
    nvars: int = 0,
) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if allow_inset and rng.random() < 0.4:
            return in_set(random_term(rng, syms, 1, nvars))
        a = random_term(rng, syms, 1, nvars)
        b = random_term(rng, syms, 1, nvars)
        return eq(a, b) if rng.random() < 0.5 else lt(a, b)
    pick = rng.random()
    if pick < 0.3:
        return not_(random_formula(rng, syms, depth - 1, allow_inset, nvars))
    left = random_formula(rng, syms, depth - 1, allow_inset, nvars)
    right = random_formula(rng, syms, depth - 1, allow_inset, nvars)
    if pick < 0.55:
        return and_(left, right)
    return or_(left, right) if pick < 0.8 else implies(left, right)


def random_canon_term(
    rng: random.Random, syms: list[SkolemSymbol]
) -> CanonTerm:
    sym = rng.choice(syms)
    return CanonTerm(sym, tuple(rng.randint(0, 4) for _ in range(sym.arity)))


def random_substitution(
    rng: random.Random,
    ctx: InductiveContext | None = None,
    n_entries: int = 5,
    include_omega: bool = False,
    extra_syms: Sequence[SkolemSymbol] = (),
) -> Substitution:
    entries = {}
    syms = FIN_SYMS + list(extra_syms)
    if include_omega:
        syms.append(SYM_OMEGA_PLUS)
    for _ in range(n_entries):
        kind = rng.random()
        if include_omega and ctx is not None and kind < 0.25:
            entries[CanonForm(rng.randint(0, 4))] = (
                TOP_VAL if rng.random() < 0.7 else UNKNOWN
            )
        elif include_omega and ctx is not None and kind < 0.45:
            e = ctx.c_n(rng.randint(0, 4))
            entries[e] = (
                num_val(rng.randint(1, 4)) if rng.random() < 0.6 else UNKNOWN
            )
        else:
            e = random_canon_term(rng, syms)
            entries[e] = (
                num_val(rng.randint(1, 4)) if rng.random() < 0.7 else UNKNOWN
            )
    omega = ctx.omega_sym if ctx is not None else None
    return Substitution(entries, omega_sym=omega)


def random_hole_free_term(
    rng: random.Random, syms: list[SkolemSymbol], depth: int, nvars: int
) -> Expr:
    """A term without the hole: a parameter, a numeral or a Skolem
    application over such terms."""
    pick = rng.random()
    if depth > 0 and pick < 0.15:
        sym = rng.choice(syms)
        args = (random_hole_free_term(rng, syms, depth - 1, nvars) for _ in range(sym.arity))
        return skolem(sym, tuple(args))
    if nvars > 1 and pick < 0.6:
        return Var(rng.randrange(1, nvars))
    return num(rng.randint(0, 10**6) if rng.random() < 0.15 else rng.randint(0, 12))


def random_linear_term(
    rng: random.Random,
    syms: list[SkolemSymbol],
    depth: int = 3,
    nvars: int = 2,
    fallback: bool = False,
) -> Expr:
    """A term affine in the hole Var(0), or with fallback set now and then
    one that is not."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(0)
        return random_hole_free_term(rng, syms, 1, nvars)
    pick = rng.random()
    if fallback and pick < 0.1:
        sym = rng.choice([s for s in syms if s.arity == 1] or syms)
        hole = random_linear_term(rng, syms, depth - 1, nvars)
        return skolem(sym, (hole,) + tuple(Var(0) for _ in range(sym.arity - 1)))
    if fallback and pick < 0.2:
        return fn("*", Var(0), random_linear_term(rng, syms, depth - 1, nvars))
    if pick < 0.45:
        return succ(random_linear_term(rng, syms, depth - 1, nvars, fallback))
    a = random_linear_term(rng, syms, depth - 1, nvars, fallback)
    if pick < 0.75:
        return fn("+", *rng.sample([a, random_linear_term(rng, syms, depth - 1, nvars)], 2))
    k = random_hole_free_term(rng, syms, 1, nvars)  # a coefficient, either side
    return fn("*", k, a) if rng.random() < 0.5 else fn("*", a, k)


def random_linear_formula(
    rng: random.Random,
    syms: list[SkolemSymbol],
    depth: int = 3,
    nvars: int = 2,
    fallback: bool = False,
) -> Expr:
    """A boolean combination of linear atoms in the hole; with fallback set,
    now and then membership at the hole and the fallback terms."""
    if depth == 0 or rng.random() < 0.3:
        if fallback and rng.random() < 0.1:
            return in_set(random_linear_term(rng, syms, 1, nvars))
        a = random_linear_term(rng, syms, 2, nvars, fallback)
        b = random_linear_term(rng, syms, 2, nvars, fallback)
        return eq(a, b) if rng.random() < 0.5 else lt(a, b)
    pick = rng.random()
    part = lambda: random_linear_formula(rng, syms, depth - 1, nvars, fallback)
    if pick < 0.3:
        return not_(part())
    if pick < 0.55:
        return and_(part(), part())
    return or_(part(), part()) if pick < 0.8 else implies(part(), part())
