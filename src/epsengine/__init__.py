"""Symbolic engine for witness substitutions over arithmetic with an
inductively defined set.

The package represents a quantifier-free Skolemized language, evaluates
terms and formulas under finite substitutions, repairs unsatisfied
critical formulas by the least-rank rule until all are satisfied, and
extracts numeric witnesses for existential goals.
"""

from .language import (
    CanonForm,
    CanonTerm,
    Expr,
    InductiveContext,
    OMEGA,
    Rank,
    SkolemSymbol,
    Var,
    abstract_closed_terms,
    expand_exists,
    expand_forall,
    num,
    rank_of,
    rank_of_symbol,
    simple_rank,
    to_sexpr,
)
from .substitution import (
    Substitution,
    TOP_VAL,
    UNKNOWN,
    Value,
    is_ci,
    is_correct,
    num_val,
    serialize,
    truth,
    value,
)
from .history import HistoricalSubstitution, is_admissible, validate
from .process import (
    Goal,
    HStep,
    Outcome,
    ProcessInvariantError,
    analyze,
    extract_witness,
    h_step,
    is_solving,
    make_closure,
    make_epsilon,
    make_goal,
    make_induction,
    make_inductive_def,
    make_pred,
    run,
)
from .problems import ParseError, Problem, parse_problem, shape_check

__version__ = "0.1.0"
