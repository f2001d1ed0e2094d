"""Symbolic engine for witness substitutions over arithmetic with an
inductively defined set.

The package represents a quantifier-free Skolemized language, evaluates
terms and formulas under finite substitutions, repairs unsatisfied
critical formulas by the least-rank rule until all are satisfied, and
extracts numeric witnesses for existential goals.
"""

__version__ = "0.1.0"
