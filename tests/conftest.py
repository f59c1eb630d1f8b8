"""Shared test helpers: term builders, random generators, and the
brute-force matching oracle used to validate the matcher."""

from __future__ import annotations

import random
import sys
from itertools import product

import pytest

from rholog.matching import decompositions
from rholog.terms import (
    HOLE,
    Apply,
    Hedge,
    Var,
    apply_subst,
    singleton,
)

#: Nesting depth of the deep-input tests: far past any recursion limit.
DEEP = 100_000


@pytest.fixture
def default_recursion_limit():
    """Run under Python's default limit, whatever earlier tests set."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


# ---------------------------------------------------------------------------
# Concise builders


def a(name, *args):
    """Application of a symbol to argument terms/hedges."""
    return Apply(name, Hedge(args))


def iv(name):
    return Var("i", name)


def sv(name):
    return Var("s", name)


def fv(name):
    return Var("f", name)


def cv(name):
    return Var("c", name)


def anon(kind, tag):
    return Var(kind, f"~{tag}", anon=True)


def h(*items):
    return Hedge(items)


# ---------------------------------------------------------------------------
# Brute-force matching oracle
#
# Independent of the matcher: enumerate candidate images per variable
# (subterms for individual variables, contiguous argument slices for
# sequence variables, subject head symbols for function variables, hollowed
# subterms for context variables), take the cartesian product, and keep the
# assignments under which the instantiated pattern equals the subject.


def _hollow(t, path):
    if not path:
        return HOLE
    i, rest = path[0], path[1:]
    items = t.args.items
    return Apply(t.head, Hedge(items[: i - 1] + (_hollow(items[i - 1], rest), )
                               + items[i:]))


def _positions(t, path=()):
    yield path
    if isinstance(t, Apply):
        for i, arg in enumerate(t.args, 1):
            yield from _positions(arg, path + (i,))


def _candidates(subject: Hedge):
    all_subterms = []
    for elem in subject:
        all_subterms.extend(sub for _, sub in decompositions(elem))
    symbols = {t.head for t in all_subterms
               if isinstance(t, Apply) and isinstance(t.head, str)}
    slices = {Hedge(())}
    arg_lists = [subject.items] + [t.args.items for t in all_subterms
                                   if isinstance(t, Apply)]
    for items in arg_lists:
        for i in range(len(items)):
            for j in range(i + 1, len(items) + 1):
                slices.add(Hedge(items[i:j]))
    contexts = []
    seen = set()
    for t in all_subterms:
        for path in _positions(t):
            ctx = _hollow(t, path)
            if ctx not in seen:
                seen.add(ctx)
                contexts.append(ctx)
    return {
        "i": list(dict.fromkeys(all_subterms)),
        "s": list(slices),
        "f": sorted(symbols),
        "c": contexts,
    }


def brute_force_matchers(pattern: Hedge, subject: Hedge):
    """The set of matchers of pattern against subject, found exhaustively.

    Returns a set of frozensets of (variable, image) pairs.
    """
    pattern_vars = []
    stack = list(pattern)
    while stack:
        elem = stack.pop()
        if isinstance(elem, Var):
            if elem not in pattern_vars:
                pattern_vars.append(elem)
        elif isinstance(elem, Apply):
            if isinstance(elem.head, Var) and elem.head not in pattern_vars:
                pattern_vars.append(elem.head)
            stack.extend(elem.args)
    pattern_vars.sort(key=lambda v: (v.kind, v.name))
    pools = _candidates(subject)
    solutions = set()
    spaces = [pools[v.kind] for v in pattern_vars]
    for images in product(*spaces):
        assignment = dict(zip(pattern_vars, images))
        if apply_subst(assignment, pattern) == subject:
            solutions.add(frozenset(assignment.items()))
    return solutions


def matcher_set(stream):
    """Solution set of a matcher stream, for comparison with the oracle."""
    return {frozenset(m.items()) for m in stream}


def named(m):
    """The bindings of a matcher's non-anonymous variables."""
    return {var: value for var, value in m.items() if not var.anon}


# ---------------------------------------------------------------------------
# Random instances (seeded, deterministic)

SYMBOLS = ("a", "b", "f", "g", "h")


def random_ground_term(rng: random.Random, depth: int) -> Apply:
    name = rng.choice(SYMBOLS)
    if depth <= 0 or rng.random() < 0.4:
        return Apply(name)
    width = rng.randint(0, 3)
    return Apply(name, Hedge(random_ground_term(rng, depth - 1)
                             for _ in range(width)))


def random_ground_hedge(rng: random.Random, max_len: int, depth: int) -> Hedge:
    return Hedge(random_ground_term(rng, depth)
                 for _ in range(rng.randint(0, max_len)))


def random_pattern(rng: random.Random, max_vars: int = 3) -> Hedge:
    """A small pattern hedge mixing all four variable kinds.

    Occasionally reuses an already-issued variable, so repeated-variable
    consistency is part of every randomized corpus.
    """
    budget = {"vars": max_vars, "fresh": 0}
    issued: dict = {"i": [], "s": [], "f": [], "c": []}

    def fresh_var(kind):
        pool = issued[kind]
        if pool and rng.random() < 0.25:
            return rng.choice(pool)
        budget["vars"] -= 1
        budget["fresh"] += 1
        if rng.random() < 0.2:
            return Var(kind, f"~o{budget['fresh']}", anon=True)
        var = Var(kind, f"V{budget['fresh']}")
        pool.append(var)
        return var

    def element(depth):
        roll = rng.random()
        if budget["vars"] > 0 and roll < 0.18:
            return fresh_var("i")
        if budget["vars"] > 0 and roll < 0.30 and depth > 0:
            return Apply(fresh_var("c"), singleton(element(depth - 1)))
        if budget["vars"] > 0 and roll < 0.42:
            head = fresh_var("f")
            width = rng.randint(0, 2)
            return Apply(head, Hedge(seq_item(depth - 1) for _ in range(width)))
        name = rng.choice(SYMBOLS)
        if depth <= 0 or rng.random() < 0.4:
            return Apply(name)
        width = rng.randint(0, 2)
        return Apply(name, Hedge(seq_item(depth - 1) for _ in range(width)))

    def seq_item(depth):
        if budget["vars"] > 0 and rng.random() < 0.18:
            return fresh_var("s")
        return element(depth)

    return Hedge(seq_item(2) for _ in range(rng.randint(1, 3)))


def random_instantiation(rng: random.Random, pattern: Hedge) -> dict:
    """A ground assignment for every variable of a pattern."""
    assignment = {}
    stack = list(pattern)
    while stack:
        elem = stack.pop()
        if isinstance(elem, Apply):
            stack.extend(elem.args)
            elem = elem.head
        if isinstance(elem, Var) and elem not in assignment:
            if elem.kind == "i":
                assignment[elem] = random_ground_term(rng, 1)
            elif elem.kind == "s":
                assignment[elem] = random_ground_hedge(rng, 2, 1)
            elif elem.kind == "f":
                assignment[elem] = rng.choice(SYMBOLS)
            else:
                shell = random_ground_term(rng, 1)
                positions = list(_positions(shell))
                assignment[elem] = _hollow(shell, rng.choice(positions))
    return assignment


def random_match_case(rng: random.Random):
    """A (pattern, subject) pair; half the time the subject is an
    instantiation of the pattern, so matchers usually exist."""
    pattern = random_pattern(rng)
    if rng.random() < 0.5:
        subject = apply_subst(random_instantiation(rng, pattern), pattern)
        assert subject.ground and subject.holes == 0
    else:
        subject = random_ground_hedge(rng, 3, 2)
    return pattern, subject
