"""Seeded problem generators for the benchmark workloads.

Every generator is plain text built from a `random.Random(seed)`; nothing
here imports the engine.  Each problem carries its goals together with the
witness the benchmark expects, when the family fixes one, so the run can
check the engine's answers with the evaluator in `arith`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import arith


@dataclass(frozen=True)
class Goal:
    text: str  # (exists (VAR) BODY) as written in the problem
    expect: int | None = None  # the only acceptable witness, when known


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    goals: tuple[Goal, ...] = ()


# Problem sizes.  `full` is what the benchmark measures; `tiny` is for the
# smoke test.  Costs on the reference machine are in README.md.
SIZES = {
    "full": {
        "corpus": {"n_pa": 110, "n_id1": (25, 24, 27, 14)},
        "eps_chain": {"sizes": (16, 20, 24, 28, 32)},
        "omega_ladder": {"sizes": (3, 4, 5, 6)},
    },
    "tiny": {
        "corpus": {"n_pa": 11, "n_id1": (3, 3, 3, 2)},
        "eps_chain": {"sizes": (6, 8)},
        "omega_ladder": {"sizes": (2, 3)},
    },
}


# ---------------------------------------------------------------------------
# corpus: the shapes of the acceptance corpus, drawn in fixed proportions

N_MAX = 4

CLAUSES = [
    # clause text, and the negated clause instance for member M with the
    # closure target (< v0 K) in place of the set
    ("(clause (y x X) (or (not (< y x)) (in y X)))",
     "(not (or (not (< v0 {M})) (< v0 {K})))"),
    ("(clause (y x X) (or (= y x) (in y X)))",
     "(not (or (= v0 {M}) (< v0 {K})))"),
    ("(clause (y x X) (or (not (< (s y) x)) (in y X)))",
     "(not (or (not (< (s v0) {M})) (< v0 {K})))"),
]


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


def _pa_problem(rng: random.Random, name: str, n_crits: int, goal: bool) -> Problem:
    lines: list[str] = []
    for _ in range(n_crits):
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
    goals: tuple[Goal, ...] = ()
    if goal:
        text = f"(exists (x) {_phi_text(rng)})"
        w = arith.least_witness(text, N_MAX)
        if w is not None:
            lines.append(f"(goal {text} (candidates {w}))")
            goals = (Goal(text),)
    return Problem(name, "\n".join(lines) + "\n", goals)


def _forcers(clause: int, member: int, k: int) -> list[str]:
    """Epsilon axioms steering the closure (< z k) into its rollback case.

    The first values the clause witness for `member` at its least
    counterexample; its matrix is that witness's index formula, so both
    name the same canonical term.  The second drives the closure's
    conclusion witness to `member` itself.
    """
    body = CLAUSES[clause][1].format(M=member, K=k)
    lines = []
    w = arith.least_witness(f"(exists (v0) {body})", member)
    if w is not None:
        lines.append(f"(crit eps {w} (exists (v0) {body}))")
    lines.append(
        f"(crit eps {member} (exists (v0) (not (or (not (in v0 I)) (< v0 {k})))))"
    )
    return lines


def _id1_problem(rng: random.Random, style: int, clause: int, name: str) -> Problem:
    lines = [CLAUSES[clause][0]]
    if style in (0, 1):
        for m in sorted(rng.sample(range(0, N_MAX), rng.randint(1, 3))):
            lines.append(f"(crit inddef {m})")
        if style == 0:
            if rng.random() < 0.5:
                lines.append(
                    f"(crit eps {rng.randint(1, 3)} (exists (x) {_phi_text(rng)}))"
                )
        else:
            lines.append(f"(crit closure (z) (< z {rng.randint(1, 3)}))")
    elif style == 2:
        # one member above the closure's bound: a single rollback
        big = rng.randint(2, N_MAX)
        k = rng.randint(1, big - 1)
        lines += ["(crit inddef 0)", f"(crit inddef {big})"]
        lines += _forcers(clause, big, k)
        lines.append(f"(crit closure (z) (< z {k}))")
    else:
        # two closures over shared members: the first rollback displaces
        # witness entries and the membership layer rebuilds in a new order
        big = rng.randint(3, N_MAX)
        mid = rng.randint(2, big - 1)
        k2 = rng.randint(1, mid - 1)
        lines += ["(crit inddef 0)", f"(crit inddef {mid})", f"(crit inddef {big})"]
        lines += _forcers(clause, big, mid)
        lines += _forcers(clause, mid, k2)
        lines.append(f"(crit closure (z) (< z {mid}))")
        lines.append(f"(crit closure (z) (< z {k2}))")
    return Problem(name, "\n".join(lines) + "\n")


def _dealt(rng: random.Random, n: int, values: list) -> list:
    """n values cycling through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def corpus(rng: random.Random, n_pa: int, n_id1: tuple[int, ...]) -> list[Problem]:
    """Arithmetic (pa) and inductive (id1) problems of the acceptance corpus.

    The acceptance corpus draws each problem's shape at random.  Here the
    shapes are dealt in fixed proportions, the same as its probabilities,
    and only the order and the constants are drawn, so that seeds differ
    little in the work they ask for: pa problems hold 1, 2 or 3 axioms
    and 7 in 10 have a goal; id1 problems come in the four styles of
    `n_id1`, each spread evenly over the three clauses.
    """
    sizes = _dealt(rng, n_pa, [1, 2, 3])
    goals = _dealt(rng, n_pa, [True] * 7 + [False] * 3)
    out = [
        _pa_problem(rng, f"pa-{i:03d}", k, g) for i, (k, g) in enumerate(zip(sizes, goals))
    ]
    shapes = []
    for style, count in enumerate(n_id1):
        shapes += [(style, c) for c in _dealt(rng, count, list(range(len(CLAUSES))))]
    rng.shuffle(shapes)
    out += [_id1_problem(rng, st, c, f"id1-{i:03d}") for i, (st, c) in enumerate(shapes)]
    return out


# ---------------------------------------------------------------------------
# scaling families

def eps_chain(rng: random.Random, sizes: tuple[int, ...]) -> list[Problem]:
    """Per size n, (crit eps k (exists (x) (= x k))) for k = 1..n.

    The axioms stay in the order k = 1..n: the order decides how often
    each witness search repeats, so a shuffled chain would make the cost
    depend on the seed.  The seed orders the goals and the problems.
    """
    out = []
    for n in sizes:
        lines = [f"(crit eps {k} (exists (x) (= x {k})))" for k in range(1, n + 1)]
        ks = list(range(1, n + 1))
        rng.shuffle(ks)
        goals = tuple(Goal(f"(exists (x) (= x {k}))", k) for k in ks)
        lines += [f"(goal {g.text})" for g in goals]
        out.append(Problem(f"chain-{n}", "\n".join(lines) + "\n", goals))
    rng.shuffle(out)
    return out


def omega_ladder(rng: random.Random, sizes: tuple[int, ...]) -> list[Problem]:
    """Per size c, closures (< z k) for k = c..1, each forced onto member 2c+1-k.

    The members are 0 and c+1..2c, declared by `inddef`.  Each closure
    has the two forcers of problems/rebuild_cascade.eps; the seed orders
    the closure groups.
    """
    out = []
    for c in sizes:
        pairs = [(c - i, c + 1 + i) for i in range(c)]
        rng.shuffle(pairs)
        lines = [CLAUSES[0][0], "(crit inddef 0)"]
        lines += [f"(crit inddef {big})" for big in range(c + 1, 2 * c + 1)]
        for k, big in pairs:
            lines += _forcers(0, big, k)
        lines += [f"(crit closure (z) (< z {k}))" for k, _ in pairs]
        out.append(Problem(f"ladder-{c}", "\n".join(lines) + "\n"))
    return out


FAMILIES = {
    "corpus": corpus,
    "eps_chain": eps_chain,
    "omega_ladder": omega_ladder,
}


def generate(workload: str, seed: int, size: str = "full") -> list[Problem]:
    rng = random.Random(f"{workload}:{seed}")
    return FAMILIES[workload](rng, **SIZES[size][workload])
