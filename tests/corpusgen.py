"""Deterministic corpus of problem files for the acceptance suite.

Every problem is a text in the documented grammar, produced from a fixed
seed.  Arithmetic-only problems keep all constants and expected witnesses
at or below 4 so that exhaustive substitution search stays feasible; the
inductive problems draw on three small clause shapes and include runs
built to exercise the member-rollback step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from epsengine.language import num, substitute, to_sexpr
from epsengine.problems import parse_problem
from epsengine.substitution import Substitution
from reference import models, omega_sym

N_MAX = 4

CLAUSES = [
    "(clause (y x X) (or (not (< y x)) (in y X)))",
    "(clause (y x X) (or (= y x) (in y X)))",
    "(clause (y x X) (or (not (< (s y) x)) (in y X)))",
]


@dataclass(frozen=True)
class CorpusProblem:
    name: str
    text: str
    brute_ok: bool  # finite-rank canonicals only, values bounded by N_MAX


def _phi_text(rng: random.Random) -> str:
    k = rng.randint(1, N_MAX)
    j = rng.randint(0, N_MAX)
    return rng.choice(
        [
            f"(= x {k})",
            f"(< x {k})",
            f"(or (= x {j}) (= x {k}))",
            f"(and (< x {k + 1}) (not (= x {j})))",
            f"(not (= x {k}))",
        ]
    )


def _pa_problem(rng: random.Random, idx: int) -> CorpusProblem:
    lines: list[str] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["eps", "pred", "ind", "eps"])
        if kind == "pred":
            lines.append(f"(crit pred {rng.randint(0, N_MAX)})")
        elif kind == "ind":
            lines.append(
                f"(crit ind (x) (< x {rng.randint(1, 3)}) {rng.randint(0, N_MAX)})"
            )
        else:
            lines.append(
                f"(crit eps {rng.randint(0, N_MAX)} (exists (x) {_phi_text(rng)}))"
            )
    if rng.random() < 0.7:
        body = _phi_text(rng)
        phi = parse_problem(f"(crit eps 0 (exists (x) {body}))").crits[0].phi
        for w in range(N_MAX + 1):
            if models(Substitution.empty(), substitute(phi, {0: num(w)})):
                lines.append(f"(goal (exists (x) {body}) (candidates {w}))")
                break
    return CorpusProblem(f"pa-{idx:03d}", "\n".join(lines) + "\n", brute_ok=True)


def _forcer_lines(base_text: str, phi_text: str, member: int) -> list[str]:
    """Epsilon axioms steering a closure axiom into its rollback case.

    The first targets the clause witness for the given member: its matrix
    is that witness symbol's own index formula instantiated at the member,
    so both expansions name the same canonical term.  The second drives
    the conclusion witness of the closure axiom to the member itself.
    """
    draft = parse_problem(base_text + f"(crit closure (z) {phi_text})\n")
    closure = draft.crits[-1]
    vals = [substitute(a, {0: num(member)}) for a in closure.wit_args]
    body = substitute(
        closure.wit_sym.index_formula,
        {i + 1: v for i, v in enumerate(vals)},
    )
    lines = []
    ext = Substitution.empty(omega_sym(draft))
    for w in range(N_MAX + 1):
        if models(ext, substitute(body, {0: num(w)})):
            lines.append(f"(crit eps {w} (exists (v0) {to_sexpr(body)}))")
            break
    conclusion_body = (
        f"(not (or (not (in v0 I)) {to_sexpr(closure.phi)}))"
    )
    lines.append(f"(crit eps {member} (exists (v0) {conclusion_body}))")
    return lines


def _id1_problem(rng: random.Random, idx: int) -> CorpusProblem:
    clause = CLAUSES[rng.randrange(len(CLAUSES))]
    style = rng.random()
    lines = [clause]
    if style < 0.55:
        members = sorted(rng.sample(range(0, N_MAX), rng.randint(1, 3)))
        for m in members:
            lines.append(f"(crit inddef {m})")
        if style < 0.28:
            if rng.random() < 0.5:
                lines.append(
                    f"(crit eps {rng.randint(1, 3)} (exists (x) {_phi_text(rng)}))"
                )
        else:
            lines.append(f"(crit closure (z) (< z {rng.randint(1, 3)}))")
    elif style < 0.85:
        # rollback construction: exactly one member above the target bound
        big = rng.randint(2, N_MAX)
        k = rng.randint(1, big - 1)
        lines.append("(crit inddef 0)")
        lines.append(f"(crit inddef {big})")
        phi_text = f"(< z {k})"
        base = "\n".join(lines) + "\n"
        lines += _forcer_lines(base, phi_text, big)
        lines.append(f"(crit closure (z) {phi_text})")
    else:
        # two closures over shared members: the first rollback displaces
        # witness entries and the membership layer rebuilds in a new order
        big = rng.randint(3, N_MAX)
        mid = rng.randint(2, big - 1)
        k2 = rng.randint(1, mid - 1)
        lines.append("(crit inddef 0)")
        lines.append(f"(crit inddef {mid})")
        lines.append(f"(crit inddef {big})")
        base = "\n".join(lines) + "\n"
        lines += _forcer_lines(base, f"(< z {mid})", big)
        lines += _forcer_lines(base, f"(< z {k2})", mid)
        lines.append(f"(crit closure (z) (< z {mid}))")
        lines.append(f"(crit closure (z) (< z {k2}))")
    return CorpusProblem(f"id1-{idx:03d}", "\n".join(lines) + "\n", brute_ok=False)


def build_corpus(seed: int = 20260808, n_pa: int = 120, n_id1: int = 90):
    rng = random.Random(seed)
    out: list[CorpusProblem] = []
    for i in range(n_pa):
        out.append(_pa_problem(rng, i))
    for i in range(n_id1):
        out.append(_id1_problem(rng, i))
    return out
