"""A small evaluator for closed arithmetic formulas in the problem syntax.

It shares no code with the engine.  The benchmark uses it to check every
witness the engine reports and to pick witnesses and forcer values while
it generates problems.  Formulas are s-expressions over numerals, one
variable, `s`, `+`, `*`, `=`, `<`, `true`, `false`, `not`, `and`, `or`
and `->`; membership atoms are not arithmetic and raise ValueError.
"""

from __future__ import annotations


def read(text: str):
    """Parse one s-expression into nested lists of strings and ints."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(int(tok) if tok.isdigit() else tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one s-expression: {text!r}")
    return stack[0][0]


def _term(t, env: dict[str, int]) -> int:
    if isinstance(t, int):
        return t
    if isinstance(t, str):
        return env[t]
    op, *args = t
    vals = [_term(a, env) for a in args]
    if op == "s":
        return vals[0] + 1
    if op == "+":
        return vals[0] + vals[1]
    if op == "*":
        return vals[0] * vals[1]
    raise ValueError(f"unknown term operator {op!r}")


def holds(f, env: dict[str, int]) -> bool:
    """Truth of a parsed formula under an assignment of its free variables."""
    if f == "true":
        return True
    if f == "false":
        return False
    op, *args = f
    if op == "=":
        return _term(args[0], env) == _term(args[1], env)
    if op == "<":
        return _term(args[0], env) < _term(args[1], env)
    if op == "not":
        return not holds(args[0], env)
    if op == "and":
        return all(holds(a, env) for a in args)
    if op == "or":
        return any(holds(a, env) for a in args)
    if op == "->":
        return not holds(args[0], env) or holds(args[1], env)
    raise ValueError(f"not an arithmetic formula: {f!r}")


def witnesses(exists_text: str, n: int) -> bool:
    """Whether n witnesses the goal text `(exists (VAR) BODY)`."""
    tag, (var,), body = read(exists_text)
    if tag != "exists":
        raise ValueError(f"not an existential: {exists_text!r}")
    return holds(body, {var: n})


def least_witness(exists_text: str, upper: int) -> int | None:
    """Least n <= upper that witnesses the goal, or None."""
    for n in range(upper + 1):
        if witnesses(exists_text, n):
            return n
    return None
