"""Static well-modedness checking for clauses and queries.

Every relation has input and output argument positions: for the
transformation relation ``st :: lhs ==> rhs`` the strategy and left-hand
hedge are inputs and the right-hand hedge is the output.  Built-in
predicates carry fixed modes (``is`` evaluates its right side into its
left, comparisons are all-input), and program-defined predicates declare
theirs with ``:- mode(p(+, -)).``

A query ``L_1, ..., L_n`` is well-moded when, for every ``i``:

* every input variable of ``L_i`` already occurs in an output position of
  some earlier literal (anonymous variables never count as bound);
* if ``L_i`` is negative, its output variables are anonymous or already
  bound the same way;
* if ``L_i`` is a transformation literal, its strategy term is ground.

A clause ``L_0 :- L_1, ..., L_n`` is checked the same way with the head's
input variables acting as initially bound, with the head's output variables
required to be bound once the whole body has run, and with every body
strategy's variables contained in the head strategy's variables.

The discipline guarantees that execution only ever solves matching
problems, never unification: whenever a literal is selected, its strategy
and left-hand side are ground, and a selected negative literal is ground up
to anonymous variables on its right-hand side.  The verdict depends only on
the literal sequence and the mode table, never on runtime values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple, Union

from .program import (
    Abbreviation,
    ModeDirective,
    PredClause,
    PredLiteral,
    Query,
    RhoClause,
    RhoLiteral,
    SourceProgram,
    expand_abbreviation,
)
from .terms import Hedge, Var, vars_of

#: kind labels for violations
UNBOUND_INPUT = "unbound-input"
UNBOUND_NEGATIVE_OUTPUT = "unbound-negative-output"
NONGROUND_STRATEGY = "nonground-strategy"
STRATEGY_VAR_ESCAPE = "strategy-var-escape"
UNKNOWN_PREDICATE = "unknown-predicate"

_BUILTIN_MODES = {
    ("is", 2): ((2,), (1,)),
    ("<", 2): ((1, 2), ()),
    (">", 2): ((1, 2), ()),
    ("=<", 2): ((1, 2), ()),
    (">=", 2): ((1, 2), ()),
    ("=:=", 2): ((1, 2), ()),
    ("=\\=", 2): ((1, 2), ()),
    ("true", 0): ((), ()),
    ("fail", 0): ((), ()),
    ("write", 1): ((1,), ()),
    ("nl", 0): ((), ()),
}

BUILTIN_PREDICATES = frozenset(name for name, _ in _BUILTIN_MODES)


class ModeTable:
    """Input/output positions per predicate name and arity: the 1-based
    ``+`` and ``-`` positions, each a tuple in ascending order."""

    def __init__(self):
        self._modes = dict(_BUILTIN_MODES)

    def declare(self, directive: ModeDirective) -> None:
        ins = tuple(i for i, s in enumerate(directive.spec, 1) if s == "+")
        outs = tuple(i for i, s in enumerate(directive.spec, 1) if s == "-")
        self._modes[(directive.name, len(directive.spec))] = (ins, outs)

    def split(self, name: str, args: Hedge):
        """``(ins, outs)``, the hedges of a call's ``+`` and ``-`` arguments,
        or ``None`` when the call has no mode."""
        mode = self._modes.get((name, len(args)))
        if mode is None:
            return None
        items = args.items
        return Hedge(items[i - 1] for i in mode[0]), Hedge(items[i - 1] for i in mode[1])


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    literal_index: Optional[int]
    variables: Tuple[Var, ...]
    message: str

    def __str__(self) -> str:
        at = self.where
        if self.literal_index:
            at += f", literal {self.literal_index}"
        return f"{at}: {self.message}"


def _named(vs: Iterable[Var]) -> Set[Var]:
    return {v for v in vs if not v.anon}


def _violation(kind: str, where: str, index: int, variables, text: str) -> Violation:
    """A violation of ``variables``, sorted by kind and name, whose names
    fill the ``{}`` of ``text``."""
    variables = tuple(sorted(variables, key=lambda v: (v.kind, v.name)))
    return Violation(kind, where, index, variables,
                     text.format(", ".join(v.text() for v in variables)))


def _literal_io(lit, modes: ModeTable):
    """(input vars, output vars, missing-mode flag) of a literal."""
    if isinstance(lit, RhoLiteral):
        ins = set(vars_of(lit.strategy)) | set(vars_of(lit.lhs))
        return ins, set(vars_of(lit.rhs)), False
    if isinstance(lit, PredLiteral):
        split = modes.split(lit.name, lit.args)
        if split is None:
            return set(), set(), True
        return set(vars_of(split[0])), set(vars_of(split[1])), False
    return set(), set(), False       # cut


def _check_literals(literals, bound: Set[Var], where: str, modes: ModeTable,
                    head_strategy_vars: Optional[Set[Var]]) -> Tuple[List[Violation], Set[Var]]:
    violations: List[Violation] = []
    for index, lit in enumerate(literals, 1):
        ins, outs, missing = _literal_io(lit, modes)
        if missing:
            violations.append(Violation(
                UNKNOWN_PREDICATE, where, index, (),
                f"predicate {lit.name}/{len(lit.args)} has no declared mode"))
            continue
        unbound = [v for v in ins if v not in bound]
        if unbound:
            violations.append(_violation(
                UNBOUND_INPUT, where, index, unbound,
                "input variable(s) {} not bound by any earlier output"))
        if isinstance(lit, RhoLiteral):
            strat_vars = set(vars_of(lit.strategy))
            if head_strategy_vars is None:
                if strat_vars:
                    violations.append(_violation(
                        NONGROUND_STRATEGY, where, index, strat_vars,
                        "strategy term is not ground (contains {})"))
            else:
                escaped = [v for v in strat_vars if v not in head_strategy_vars]
                if escaped:
                    violations.append(_violation(
                        STRATEGY_VAR_ESCAPE, where, index, escaped,
                        "strategy variable(s) {} do not occur in the head strategy"))
            if lit.negative:
                loose = [v for v in outs if not v.anon and v not in bound]
                if loose:
                    violations.append(_violation(
                        UNBOUND_NEGATIVE_OUTPUT, where, index, loose,
                        "output variable(s) {} of a negative literal "
                        "must be anonymous or already bound"))
                continue            # negation binds nothing
        bound |= _named(outs)
    return violations, bound


def check_query(query: Query, modes: Optional[ModeTable] = None,
                where: str = "query") -> List[Violation]:
    """All well-modedness violations of a query; an empty list means ok."""
    modes = modes or ModeTable()
    violations, _ = _check_literals(query, set(), where, modes,
                                    head_strategy_vars=None)
    return violations


def check_clause(clause: Union[RhoClause, PredClause],
                 modes: Optional[ModeTable] = None,
                 where: Optional[str] = None) -> List[Violation]:
    """All well-modedness violations of a rule or predicate clause."""
    modes = modes or ModeTable()
    if where is None:
        where = f"clause at line {clause.line}" if clause.line else "clause"
    if isinstance(clause, RhoClause):
        head_ins = set(vars_of(clause.head.strategy)) | set(vars_of(clause.head.lhs))
        head_outs = set(vars_of(clause.head.rhs))
        strategy_vars: Optional[Set[Var]] = set(vars_of(clause.head.strategy))
    else:
        split = modes.split(clause.head.head, clause.head.args)
        if split is None:
            return [Violation(
                UNKNOWN_PREDICATE, where, 0, (),
                f"predicate {clause.head.head}/{len(clause.head.args)} "
                "has no declared mode")]
        head_ins, head_outs = set(vars_of(split[0])), set(vars_of(split[1]))
        strategy_vars = None
    violations, bound = _check_literals(
        clause.body, _named(head_ins), where, modes, strategy_vars)
    loose = [v for v in head_outs if v not in bound]
    if loose:
        violations.append(_violation(
            UNBOUND_INPUT, where, 0, loose,
            "head output variable(s) {} are never bound"))
    return violations


def mode_table_of(source: SourceProgram) -> ModeTable:
    modes = ModeTable()
    for item in source:
        if isinstance(item, ModeDirective):
            modes.declare(item)
    return modes


def check_program(source: SourceProgram,
                  modes: Optional[ModeTable] = None) -> List[Violation]:
    """Check every rule clause, plus predicate clauses that rules rely on.

    Abbreviations are checked in their expanded clause form.  Predicate
    clauses are checked when their predicate is called from some rule body,
    directly or through other checked predicates.
    """
    modes = modes or mode_table_of(source)
    rho_clauses: List[RhoClause] = []
    pred_clauses: dict = {}
    for item in source:
        if isinstance(item, Abbreviation):
            rho_clauses.append(expand_abbreviation(item))
        elif isinstance(item, RhoClause):
            rho_clauses.append(item)
        elif isinstance(item, PredClause):
            pred_clauses.setdefault(item.head.head, []).append(item)

    violations: List[Violation] = []
    used: Set[str] = set()
    pending: List[str] = []

    def note_preds(body):
        for lit in body:
            if isinstance(lit, PredLiteral) and lit.name not in BUILTIN_PREDICATES:
                if lit.name not in used:
                    used.add(lit.name)
                    pending.append(lit.name)

    for clause in rho_clauses:
        violations.extend(check_clause(clause, modes))
        note_preds(clause.body)
    while pending:
        name = pending.pop()
        for clause in pred_clauses.get(name, ()):
            violations.extend(check_clause(clause, modes))
            note_preds(clause.body)
    return violations
