"""Seeded workload generators.

Each generator returns the program texts rholog loads, the query texts it
answers, and for every query the answers the rholog-free references in
``reference`` expect.  The same seed always gives the same workload.

Inputs are drawn so that the work per round barely depends on the seed:
depth pools are balanced, keys are stratified over the rule base at
mirrored offsets, and prover sequents keep fixed shapes.  The spread
across seeds then measures rholog, not the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import List, Optional

from . import reference as ref


@dataclass
class Query:
    qid: str                      # names the query in reports
    load: int                     # index of the program it runs against
    text: str
    cap: Optional[int]            # answers asked for; None means all
    size: int                     # the swept size parameter
    sweep: bool                   # counts towards size_exponent
    expected: List[str]           # expected answer blocks, in order
    ordered: bool = True          # else: exact first answer, same multiset


@dataclass
class Workload:
    name: str
    loads: List[List[str]]        # each load: program texts, consulted as one
    queries: List[Query] = field(default_factory=list)


# -- rewrite ------------------------------------------------------------------

REWRITE_SWEEP = (3, 6, 9, 12)            # widths for first-answer queries
REWRITE_ALL = ((2, 3), (1, 1, 2))        # depth multisets for all-answer queries


def _f_tower(depth):
    t = ref.term("a")
    for _ in range(depth):
        t = ref.term("f", t)
    return t


def _hedge_term(rng, depths):
    depths = list(depths)
    rng.shuffle(depths)
    return ref.term("h", *[_f_tower(d) for d in depths])


def rewrite_workload(seed: int, corpus) -> Workload:
    """``nf`` of the paper's rewriting strategies on ``h(t1, ..., tw)``.

    Each ``ti`` is ``f(a)``, ``f(f(a))`` or ``f(f(f(a)))``, in equal shares
    and seeded order.  ``corpus`` maps a shipped corpus name to its text.
    """
    rng = random.Random(seed)
    wl = Workload("rewrite", [[corpus("examples/strat.rholog"),
                               corpus("prelude/rewrite.rholog")]])
    for w in REWRITE_SWEEP:
        for strategy in ("rewrite", "rewrite_in"):
            t = _hedge_term(rng, [1 + i % 3 for i in range(w)])
            first = next(ref.nf(ref.REWRITERS[strategy], t))
            wl.queries.append(Query(
                f"first/nf({strategy})/w={w}", 0,
                f"nf({strategy}(strat)) :: {ref.show(t)} ==> i_X", 1, w, True,
                [ref.answer_block("i_X", ref.show(first))]))
    for depths in REWRITE_ALL:
        for strategy in ("rewrite", "rewrite_out", "rewrite_in"):
            t = _hedge_term(rng, depths)
            answers = [ref.answer_block("i_X", ref.show(u))
                       for u in ref.nf(ref.REWRITERS[strategy], t)]
            wl.queries.append(Query(
                f"all/nf({strategy})/w={len(depths)}", 0,
                f"nf({strategy}(strat)) :: {ref.show(t)} ==> i_X", None,
                len(depths), False, answers, ordered=False))
    return wl


# -- prover -------------------------------------------------------------------

PROVER_SWEEP = (8, 12, 16, 20)           # atom occurrences per sequent
PROVER_PER_SIZE = 4                      # queries per size: valid, invalid, ...
PROVER_SHAPES = 20100126                 # fixed seed of the sequent shapes
ATOMS = ("p", "q", "r", "s", "u")
NAME_LETTERS = "abdeghjklmnopqrtuwxyz"    # no v (disjunction), no variable prefix


def _formula(rng, leaves):
    if leaves == 1:
        f = ("atom", rng.choice(ATOMS))
    else:
        k = rng.randint(1, leaves - 1)
        f = ("or", _formula(rng, k), _formula(rng, leaves - k))
    if rng.random() < 0.35:
        f = ("not", f)
    return f


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _sequent(rng, n, valid):
    """Two antecedent and two consequent formulas with ``n`` atoms in all.

    A sequent built valid has ``psi v -(psi)`` as one consequent formula;
    one not built valid may still be valid by chance.
    """
    sizes = _split(rng, n, 4)
    if valid:
        sizes.sort()                     # psi gets at least a quarter of n
    ant = [_formula(rng, sizes[0]), _formula(rng, sizes[1])]
    cons = [_formula(rng, sizes[2])]
    if valid:
        psi = _formula(rng, sizes[3] // 2)
        tautology = ("or", psi, ("not", psi))
        if sizes[3] % 2:
            tautology = ("or", _formula(rng, 1), tautology)
        cons.append(tautology)
    else:
        cons.append(_formula(rng, sizes[3]))
    rng.shuffle(cons)
    return ant, cons


def _rename(f, names):
    if f[0] == "atom":
        return ("atom", names[f[1]])
    return (f[0],) + tuple(_rename(sub, names) for sub in f[1:])


def prover_workload(seed: int, corpus) -> Workload:
    """``prove`` on random sequents over ``-`` and ``v``; one answer each.

    The sequents' shapes come from a fixed generator; the seed renames
    their atoms (one or two letters).  Proof work is heavy-tailed in the
    shape (random shapes per seed moved the total by +-20% between
    seeds), so only the text, not the work, varies with the seed.
    """
    shapes = random.Random(PROVER_SHAPES)
    rng = random.Random(seed)
    names = {}
    while len(names) < len(ATOMS):
        name = "".join(rng.choice(NAME_LETTERS) for _ in range(rng.randint(1, 2)))
        if name not in names.values():
            names[ATOMS[len(names)]] = name
    wl = Workload("prover", [[corpus("examples/prover.rholog")]])
    for n in PROVER_SWEEP:
        for k in range(PROVER_PER_SIZE):
            valid = k % 2 == 0
            sequent = _sequent(shapes, n, valid)
            while not valid and ref.valid_sequent(*sequent):
                sequent = _sequent(shapes, n, valid)
            ant, cons = ([_rename(f, names) for f in side] for side in sequent)
            text = ("prove :: sequent(ant(" + ", ".join(map(ref.show_formula, ant))
                    + "), cons(" + ", ".join(map(ref.show_formula, cons))
                    + ")) ==> i_R")
            verdict = "true" if ref.valid_sequent(ant, cons) else "false"
            wl.queries.append(Query(
                f"prove/n={n}/{k}", 0, text, None, n, True,
                [ref.answer_block("i_R", verdict)]))
    return wl


# -- rulebase -----------------------------------------------------------------

RULEBASE_SWEEP = (200, 400, 800, 1600)   # clauses of the strategy rule
RULEBASE_QUERIES = 2                     # lookups per size
RULEBASE_KEYS = 5                        # keys per lookup
SPECIAL_SHARE = 0.05                     # of each non-indexable clause kind
KEY_ARGS = ("a", "b", "c")


def rulebase_workload(seed: int, corpus=None) -> Workload:
    """A generated rule base of N clauses and ``map1`` lookups over it.

    Most clauses are ``rule :: kI(s_X) ==> vI(s_X, kI).``  A seeded share
    instead have a sequence-variable lhs (``(s_, kI(s_X), s_)``) or a
    function-variable head matching any term whose last argument is the
    marker ``mI``, so an index must still keep source order.  The last key
    of each lookup carries a marker, which gives that key two images.
    """
    rng = random.Random(seed)
    wl = Workload("rulebase", [])
    for n in RULEBASE_SWEEP:
        special = rng.sample(range(n), 2 * round(SPECIAL_SHARE * n))
        seqvar = set(special[::2])
        varhead = sorted(special[1::2])
        lines = []
        for i in range(n):
            if i in seqvar:
                lines.append(f"rule :: (s_, k{i}(s_X), s_) ==> u{i}(s_X).")
            elif i in varhead:
                lines.append(f"rule :: f_F(s_X, m{i}) ==> w{i}(f_F(s_X)).")
            else:
                lines.append(f"rule :: k{i}(s_X) ==> v{i}(s_X, k{i}).")
        lines.append("lookup := map1(rule).")
        load = len(wl.loads)
        wl.loads.append(["\n".join(lines) + "\n"])

        keyed = [i for i in range(n) if i not in varhead]
        offsets = [rng.random() for _ in range(RULEBASE_KEYS)]
        for q in range(RULEBASE_QUERIES):
            keys, images = [], []
            for k in range(RULEBASE_KEYS):
                # One key from each equal stratum of the keyed clauses, at
                # mirrored offsets in odd and even lookups.
                lo = k * len(keyed) // RULEBASE_KEYS
                hi = (k + 1) * len(keyed) // RULEBASE_KEYS
                u = offsets[k] if q % 2 == 0 else 1 - offsets[k]
                i = keyed[min(hi - 1, lo + int(u * (hi - lo)))]
                args = [ref.term(rng.choice(KEY_ARGS))]
                matches = []                       # (clause index, image)
                if k == RULEBASE_KEYS - 1:
                    # The nearest marker clause after the key's own clause
                    # in even lookups, before it in odd ones.
                    after = [j for j in varhead if j > i]
                    before = [j for j in varhead if j < i]
                    j = (after[0] if after else before[-1]) if q % 2 == 0 \
                        else (before[-1] if before else after[0])
                    matches.append((j, ref.term(f"w{j}", ref.term(f"k{i}", *args))))
                    args.append(ref.term(f"m{j}"))
                if i in seqvar:
                    matches.append((i, ref.term(f"u{i}", *args)))
                else:
                    matches.append((i, ref.term(f"v{i}", *args, ref.term(f"k{i}"))))
                keys.append(ref.term(f"k{i}", *args))
                images.append([image for _, image in sorted(matches)])
            answers = [ref.answer_block("s_X", ref.show_hedge(choice))
                       for choice in product(*images)]
            wl.queries.append(Query(
                f"lookup/N={n}/{q}", load,
                f"lookup :: {ref.show_hedge(keys)} ==> s_X", None, n, True,
                answers))
    return wl


WORKLOADS = {
    "rewrite": rewrite_workload,
    "prover": prover_workload,
    "rulebase": rulebase_workload,
}
