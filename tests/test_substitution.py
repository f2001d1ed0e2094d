import random

import pytest
from hypothesis import given, settings, strategies as st

from epsengine.language import (
    And,
    BOTTOM,
    TOP,
    CanonForm,
    CanonTerm,
    FnApp,
    Not,
    Or,
    Var,
    and_,
    eq,
    in_set,
    not_,
    num,
    or_,
    skolem,
    substitute,
)
from epsengine.substitution import (
    RecordingSubstitution,
    Substitution,
    TOP_VAL,
    UNKNOWN,
    ValueError_,
    Verdicts,
    digest,
    is_ci,
    is_correct,
    num_val,
    serialize,
)
from genexpr import (
    FIN_SYMS,
    SYM_R1A,
    SYM_R1C,
    random_formula,
    random_substitution,
    random_term,
)
from reference import (
    consulted,
    correctness_formula,
    decides,
    domain,
    is_computing,
    leaked,
    lt,
    models,
    plus,
    positive_omega,
    reduce_formula,
    reduce_term,
    stored,
    succ,
    to_term,
)

EMPTY = Substitution.empty()


def test_value_validation_rejects_zero_for_terms():
    e = CanonTerm(SYM_R1C, (1,))
    with pytest.raises(ValueError_):
        EMPTY.with_entry(e, num_val(0))
    with pytest.raises(ValueError_):
        EMPTY.with_entry(e, TOP_VAL)
    with pytest.raises(ValueError_):
        EMPTY.with_entry(CanonForm(0), num_val(1))
    # legal combinations
    EMPTY.with_entry(e, num_val(1))
    EMPTY.with_entry(e, UNKNOWN)
    EMPTY.with_entry(CanonForm(0), TOP_VAL)
    EMPTY.with_entry(CanonForm(0), UNKNOWN)


def test_reduce_pure_arithmetic():
    assert reduce_term(FnApp("s", (FnApp("s", (num(0),)),)), EMPTY) == num(2)


def test_reduce_canonical_with_value():
    c = CanonTerm(SYM_R1C, (0,))
    s = EMPTY.with_entry(c, num_val(2))
    assert reduce_term(plus(to_term(c), num(1)), s) == num(3)


def test_reduce_canonical_unknown_goes_to_zero():
    c = CanonTerm(SYM_R1C, (0,))
    s = EMPTY.with_entry(c, UNKNOWN)
    assert reduce_term(to_term(c), s) == num(0)


def test_reduce_canonical_absent_stays_without_extension():
    c = CanonTerm(SYM_R1C, (0,))
    assert reduce_term(to_term(c), stored(EMPTY)) == to_term(c)
    assert reduce_term(to_term(c), EMPTY) == num(0)


def test_reduce_noncanonical_collapses_through_arguments():
    inner = CanonTerm(SYM_R1A, (1,))
    s = EMPTY.with_entry(inner, num_val(3)).with_entry(
        CanonTerm(SYM_R1C, (3,)), num_val(4)
    )
    t = skolem(SYM_R1C, (to_term(inner),))
    assert reduce_term(t, s) == num(4)
    # absent after argument collapse: stays at the collapsed canonical form
    t2 = skolem(SYM_R1A, (to_term(inner),))
    assert reduce_term(t2, stored(s)) == skolem(SYM_R1A, (num(3),))


def test_reduce_formula_atoms_are_preserved():
    phi = not_(eq(num(0), num(0)))
    assert reduce_formula(phi, EMPTY) == phi


def test_reduce_membership_atom():
    s = EMPTY.with_entry(CanonForm(1), TOP_VAL)
    phi = or_(in_set(num(1)), eq(num(0), num(0)))
    assert reduce_formula(phi, s) == or_(TOP, eq(num(0), num(0)))
    assert reduce_formula(in_set(num(0)), s) == BOTTOM
    # absent, on the stored map: the atom stays
    assert reduce_formula(in_set(num(0)), stored(s)) == in_set(num(0))


def test_models_examples():
    assert models(EMPTY, eq(num(1), num(1)))
    assert not models(EMPTY, in_set(num(0)))
    assert models(EMPTY, not_(in_set(num(0))))
    # without the extension neither direction is decided
    assert not models(stored(EMPTY), in_set(num(0)))
    assert not models(stored(EMPTY), not_(in_set(num(0))))
    assert not decides(stored(EMPTY), in_set(num(0)))
    assert decides(EMPTY, in_set(num(0)))
    assert decides(stored(EMPTY), eq(num(0), num(0)))


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_total_extension_decides_everything(seed):
    rng = random.Random(seed)
    s = random_substitution(rng)
    phi = random_formula(rng, FIN_SYMS, depth=3)
    assert decides(s, phi)


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_reduce_term_idempotent(seed):
    rng = random.Random(seed)
    s = stored(random_substitution(rng))
    t = random_term(rng, FIN_SYMS, depth=3)
    once = reduce_term(t, s)
    assert reduce_term(once, s) == once


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_reduce_formula_commutes_with_connectives(seed):
    rng = random.Random(seed)
    s = stored(random_substitution(rng))
    a = random_formula(rng, FIN_SYMS, depth=2)
    b = random_formula(rng, FIN_SYMS, depth=2)
    assert reduce_formula(and_(a, b), s) == And(
        reduce_formula(a, s), reduce_formula(b, s)
    )
    assert reduce_formula(or_(a, b), s) == Or(
        reduce_formula(a, s), reduce_formula(b, s)
    )
    assert reduce_formula(not_(a), s) == Not(reduce_formula(a, s))


def test_correctness_formula_unknown_is_trivial():
    assert correctness_formula(CanonTerm(SYM_R1C, (2,)), UNKNOWN) == TOP


def test_correctness_formula_minimality():
    # witness 1 for (exists x) x = S y at parameter 2: head plus one exclusion
    e = CanonTerm(SYM_R1C, (2,))
    f = correctness_formula(e, num_val(1))
    head = eq(num(1), num(3))
    assert f == and_(head, not_(eq(num(0), num(3))))
    # larger witnesses exclude every smaller value, in a balanced tree
    f3 = correctness_formula(e, num_val(3))
    assert f3 == and_(
        and_(eq(num(3), num(3)), not_(eq(num(0), num(3)))),
        and_(not_(eq(num(1), num(3))), not_(eq(num(2), num(3)))),
    )


def test_correctness_formula_for_membership(ctx):
    f = correctness_formula(CanonForm(3), TOP_VAL, ctx)
    w = skolem(ctx.omega_sym, (num(3),))
    assert f == or_(not_(lt(w, num(3))), in_set(w))


def test_correctness_formula_omega_term_drops_minimality(ctx):
    # the rollback argument needs the set to stay on one side of the condition
    f = correctness_formula(ctx.c_n(3), num_val(2), ctx)
    assert f == not_(or_(not_(lt(num(2), num(3))), in_set(num(2))))


def test_correctness_formula_rejects_bad_pairs():
    from epsengine.substitution import SubstitutionError

    with pytest.raises(SubstitutionError):
        correctness_formula(CanonTerm(SYM_R1C, (2,)), TOP_VAL)
    with pytest.raises(SubstitutionError):
        correctness_formula(CanonForm(1), num_val(2))
    with pytest.raises(SubstitutionError):
        correctness_formula(CanonForm(1), TOP_VAL, None)


def correct(sub, ctx=None):
    """`is_correct` on a fresh table."""
    return is_correct(sub, ctx, Verdicts([]))


def test_empty_substitution_is_correct_cc_computing():
    assert correct(EMPTY)
    assert not is_ci(EMPTY, None, Verdicts([]))
    assert is_computing(EMPTY)


def test_member_witness_conflict_is_ci(ctx):
    s = Substitution(
        {ctx.c_n(1): num_val(1), CanonForm(1): TOP_VAL},
        omega_sym=ctx.omega_sym,
    )
    assert is_ci(s, ctx, Verdicts([]))


def test_correct_membership_entry(ctx):
    # membership of 0 is vacuously justified; membership of 3 alone is not,
    # because its witness defaults to 0 and 0 < 3 demands 0 in I
    s0 = Substitution({CanonForm(0): TOP_VAL}, omega_sym=ctx.omega_sym)
    assert correct(s0, ctx)
    s3 = Substitution({CanonForm(3): TOP_VAL}, omega_sym=ctx.omega_sym)
    assert not correct(s3, ctx)
    both = s3.with_entry(CanonForm(0), TOP_VAL)
    assert correct(both, ctx)


def test_incorrect_entry_detected():
    e = CanonTerm(SYM_R1C, (2,))  # value must satisfy x = S 2
    s = EMPTY.with_entry(e, num_val(1))
    assert not correct(s)
    s2 = EMPTY.with_entry(e, num_val(3))
    assert correct(s2)


def test_rank_filters_and_partitions(ctx):
    from epsengine.language import OMEGA, Rank

    fin_e = CanonTerm(SYM_R1C, (0,))
    s = Substitution(
        {
            fin_e: num_val(1),
            ctx.c_n(0): UNKNOWN,
            ctx.c_n(1): num_val(2),
            CanonForm(0): TOP_VAL,
            CanonForm(2): UNKNOWN,
        },
        omega_sym=ctx.omega_sym,
    )
    below, layer = s.split_omega()
    assert [r[2] for r in below] == [fin_e]
    assert {r[2] for r in layer} == {
        ctx.c_n(0),
        ctx.c_n(1),
        CanonForm(0),
        CanonForm(2),
    }
    assert domain(positive_omega(s)) == {ctx.c_n(0), CanonForm(0)}
    assert domain(s.negative_omega()) == {ctx.c_n(1), CanonForm(2)}
    assert domain(s.up_to(Rank.fin(0))) == set()
    assert domain(s.up_to(Rank.fin(1))) == {fin_e}
    assert s.up_to(OMEGA) is s  # nothing sits above Omega


def test_serialization_sorted_by_rank_then_text(ctx):
    s = Substitution(
        {
            CanonForm(0): TOP_VAL,
            CanonTerm(SYM_R1C, (0,)): num_val(1),
            ctx.c_n(1): num_val(2),
        },
        omega_sym=ctx.omega_sym,
    )
    text = serialize(s)
    i_fin = text.index("(= v0 (s v1))")
    i_omega_term = text.index("(not (or")
    i_form = text.index("(in 0 I)")
    assert i_fin < i_omega_term and i_fin < i_form
    assert digest(s) == digest(Substitution(dict(s.items()), omega_sym=ctx.omega_sym))


def test_recording_substitution_tracks_lookups():
    c = CanonTerm(SYM_R1C, (0,))
    d = CanonTerm(SYM_R1A, (1,))
    s = EMPTY.with_entry(c, num_val(2))
    rec = RecordingSubstitution(s)
    assert reduce_term(to_term(c), rec) == num(2)
    assert reduce_term(to_term(d), rec) == num(0)  # absent: ?
    assert consulted(rec) == {c, d}
    assert leaked(rec) == {d}


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_noncritical_axioms_hold(seed):
    # instances of the equality-style axioms are true under any extension
    rng = random.Random(seed)
    ext = random_substitution(rng)
    t = random_term(rng, FIN_SYMS, depth=3)
    s_term = random_term(rng, FIN_SYMS, depth=3)
    assert models(ext, eq(t, t))
    assert models(ext, or_(not_(eq(succ(s_term), num(0))), eq(num(0), num(1))))
    # s = t -> (phi(s) -> phi(t)) with the hole at Var(0)
    hole_phi = lt(Var(0), random_term(rng, FIN_SYMS, depth=2))
    inst = or_(
        not_(eq(s_term, t)),
        or_(
            not_(substitute(hole_phi, {0: s_term})),
            substitute(hole_phi, {0: t}),
        ),
    )
    assert models(ext, inst)
    # successor injectivity
    assert models(ext, or_(not_(eq(succ(s_term), succ(t))), eq(s_term, t)))


def test_plain_truth_implies_extended_truth():
    rng = random.Random(5)
    for _ in range(150):
        s = random_substitution(rng)
        phi = random_formula(rng, FIN_SYMS, depth=3)
        if models(stored(s), phi):
            assert models(s, phi)
