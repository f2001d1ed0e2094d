"""Random expressions, canonicals and substitutions over a fixed symbol pool."""

from __future__ import annotations

import random

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
    lt,
    not_,
    num,
    or_,
    rank_of_symbol,
    skolem,
    succ,
)
from epsengine.substitution import Substitution, TOP_VAL, UNKNOWN, num_val

SYM_R1A = SkolemSymbol(eq(Var(0), Var(1)), 1)
SYM_R1B = SkolemSymbol(lt(Var(0), Var(1)), 1)
SYM_R1C = SkolemSymbol(eq(Var(0), succ(Var(1))), 1)
SYM_R2 = SkolemSymbol(eq(Var(0), skolem(SYM_R1A, (Var(1),))), 1)
SYM_R3 = SkolemSymbol(lt(skolem(SYM_R2, (Var(1),)), Var(0)), 1)
SYM_OMEGA_PLUS = SkolemSymbol(or_(in_set(Var(0)), eq(Var(0), Var(1))), 1)

FIN_SYMS = [SYM_R1A, SYM_R1B, SYM_R1C, SYM_R2, SYM_R3]


def fin_syms_below(r: int) -> list[SkolemSymbol]:
    return [s for s in FIN_SYMS if rank_of_symbol(s).n < r]


def random_term(rng: random.Random, syms: list[SkolemSymbol], depth: int = 3) -> Expr:
    if depth == 0 or rng.random() < 0.35:
        return num(rng.randint(0, 4))
    pick = rng.random()
    if pick < 0.55 and syms:
        sym = rng.choice(syms)
        return skolem(
            sym, tuple(random_term(rng, syms, depth - 1) for _ in range(sym.arity))
        )
    if pick < 0.8:
        return succ(random_term(rng, syms, depth - 1))
    a = random_term(rng, syms, depth - 1)
    b = random_term(rng, syms, depth - 1)
    return fn("+", a, b)


def random_formula(
    rng: random.Random,
    syms: list[SkolemSymbol],
    depth: int = 3,
    allow_inset: bool = False,
) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if allow_inset and rng.random() < 0.4:
            return in_set(random_term(rng, syms, 1))
        a = random_term(rng, syms, 1)
        b = random_term(rng, syms, 1)
        return eq(a, b) if rng.random() < 0.5 else lt(a, b)
    pick = rng.random()
    if pick < 0.3:
        return not_(random_formula(rng, syms, depth - 1, allow_inset))
    left = random_formula(rng, syms, depth - 1, allow_inset)
    right = random_formula(rng, syms, depth - 1, allow_inset)
    return and_(left, right) if pick < 0.65 else or_(left, right)


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
) -> Substitution:
    entries = {}
    syms = list(FIN_SYMS)
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
