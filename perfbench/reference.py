"""Answer references that share no code with rholog.

The benchmark checks every answer rholog prints against these.  Terms are
plain tuples ``(symbol, args)`` with ``args`` a tuple of terms, so a
constant ``a`` is ``("a", ())``.  Nothing here imports rholog.
"""

from __future__ import annotations

from itertools import product


def term(symbol, *args):
    return (symbol, tuple(args))


def show(t) -> str:
    """A ground symbol term in rholog's printed syntax."""
    symbol, args = t
    if not args:
        return symbol
    return symbol + "(" + ", ".join(show(a) for a in args) + ")"


def show_hedge(items) -> str:
    """A hedge in rholog's printed syntax: ``eps``, ``t`` or ``(t1, t2)``."""
    if not items:
        return "eps"
    if len(items) == 1:
        return show(items[0])
    return "(" + ", ".join(show(t) for t in items) + ")"


def answer_block(var: str, value: str) -> str:
    """One answer of a one-variable query, as the rholog CLI prints it."""
    return f"{var} = {value}\n"


# -- rewriting with the two strat rules of examples/strat.rholog -------------

def _replace(t, i, new):
    symbol, args = t
    return (symbol, args[:i] + (new,) + args[i + 1:])


def strat(t):
    """``strat :: f(i_X) ==> g(i_X).`` then ``strat :: f(f(i_X)) ==> i_X.``"""
    symbol, args = t
    if symbol == "f" and len(args) == 1:
        yield ("g", args)
        inner_symbol, inner_args = args[0]
        if inner_symbol == "f" and len(inner_args) == 1:
            yield inner_args[0]


def rewrite(step, t):
    """Native ``rewrite``: one step at every position, pre-order."""
    yield from step(t)
    for i, arg in enumerate(t[1]):
        for new in rewrite(step, arg):
            yield _replace(t, i, new)


def rewrite_out(step, t):
    """Prelude ``rewrite_out``: every outermost redex, all its rewrites."""
    if next(step(t), None) is not None:
        yield from step(t)
        return
    for i, arg in enumerate(t[1]):
        for new in rewrite_out(step, arg):
            yield _replace(t, i, new)


def rewrite_in(step, t):
    """Prelude ``rewrite_in``: every innermost redex, all its rewrites."""
    if all(next(rewrite(step, arg), None) is None for arg in t[1]):
        yield from step(t)
    for i, arg in enumerate(t[1]):
        for new in rewrite_in(step, arg):
            yield _replace(t, i, new)


def nf(one_step, t):
    """``nf``: every normal form, depth first, duplicates kept."""
    results = one_step(t)
    first = next(results, None)
    if first is None:
        yield t
        return
    yield from nf(one_step, first)
    for result in results:
        yield from nf(one_step, result)


REWRITERS = {
    "rewrite": lambda t: rewrite(strat, t),
    "rewrite_out": lambda t: rewrite_out(strat, t),
    "rewrite_in": lambda t: rewrite_in(strat, t),
}


# -- propositional sequents over - and v -------------------------------------
#
# A formula is ("atom", name), ("not", f) or ("or", f, g).

def show_formula(f) -> str:
    if f[0] == "atom":
        return f[1]
    if f[0] == "not":
        return "-(" + show_formula(f[1]) + ")"
    return "(" + show_formula(f[1]) + " v " + show_formula(f[2]) + ")"


def atoms(f, out=None) -> set:
    out = set() if out is None else out
    if f[0] == "atom":
        out.add(f[1])
    else:
        for sub in f[1:]:
            atoms(sub, out)
    return out


def holds(f, world) -> bool:
    if f[0] == "atom":
        return world[f[1]]
    if f[0] == "not":
        return not holds(f[1], world)
    return holds(f[1], world) or holds(f[2], world)


def valid_sequent(ant, cons) -> bool:
    """Truth table: every world making all of ``ant`` true makes some of ``cons`` true."""
    names = sorted(set().union(*(atoms(f) for f in (*ant, *cons))))
    for values in product((False, True), repeat=len(names)):
        world = dict(zip(names, values))
        if all(holds(f, world) for f in ant) and not any(holds(f, world) for f in cons):
            return False
    return True
