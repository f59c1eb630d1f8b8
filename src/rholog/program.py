"""Clause-level syntax: literals, clauses, directives, source programs.

These are the structures the parser produces and the checker and engine
consume.  Item order inside a :class:`SourceProgram` is significant: clauses
for the same strategy are tried top-down in source order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple, Union

from .terms import Apply, Hedge, Var, apply_subst, singleton, subst_builder, vars_of


@dataclass(frozen=True)
class RhoLiteral:
    """``strategy :: lhs ==> rhs`` or its negation ``strategy :: lhs =\\=> rhs``."""

    strategy: object          # Term
    lhs: Hedge
    rhs: Hedge
    negative: bool = False

    @property
    def arrow(self) -> str:
        return "=\\=>" if self.negative else "==>"

    def __repr__(self) -> str:
        return f"{self.strategy!r} :: {self.lhs!r} {self.arrow} {self.rhs!r}"


@dataclass(frozen=True)
class PredLiteral:
    """A call of a built-in or program-defined predicate."""

    term: Apply

    @property
    def name(self) -> str:
        return self.term.head

    @property
    def args(self) -> Hedge:
        return self.term.args

    def __repr__(self) -> str:
        return repr(self.term)


@dataclass(frozen=True)
class CutLiteral:
    """The ``!`` control literal."""

    def __repr__(self) -> str:
        return "!"


@dataclass(frozen=True)
class ForcedMatch:
    """An engine-internal literal that matches ``pattern`` against ``subject``.

    Selecting a transformation literal against a clause head replaces it by
    the instantiated clause body followed by one of these; by the time it is
    selected the subject has been instantiated to a ground hedge and each
    matcher extends the current answer.
    """

    pattern: Hedge
    subject: Hedge

    def __repr__(self) -> str:
        return f"{self.pattern!r} <~ {self.subject!r}"


Literal = Union[RhoLiteral, PredLiteral, CutLiteral, ForcedMatch]
Body = Tuple[Literal, ...]
Query = Tuple[Literal, ...]


@dataclass(frozen=True)
class RhoClause:
    head: RhoLiteral                  # always positive
    body: Body = ()
    line: int = 0

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- " + ", ".join(repr(l) for l in self.body) + "."


@dataclass(frozen=True)
class PredClause:
    head: Apply
    body: Body = ()
    line: int = 0

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- " + ", ".join(repr(l) for l in self.body) + "."


@dataclass(frozen=True)
class Abbreviation:
    """``name := strategy`` — shorthand for applying a strategy to the whole input."""

    name: object                      # Term
    strategy: object                  # Term
    line: int = 0

    def __repr__(self) -> str:
        return f"{self.name!r} := {self.strategy!r}."


FIXITIES = ("xfx", "xfy", "yfx", "fy", "fx", "xf", "yf")


@dataclass(frozen=True)
class OpDirective:
    priority: int
    fixity: str
    name: str
    line: int = 0

    def __repr__(self) -> str:
        return f":- op({self.priority}, {self.fixity}, {self.name})."


@dataclass(frozen=True)
class ModeDirective:
    """``:- mode(p(+, -)).`` — declares a predicate's input/output positions."""

    name: str
    spec: Tuple[str, ...]             # "+" for input, "-" for output
    line: int = 0

    def __repr__(self) -> str:
        return f":- mode({self.name}({', '.join(self.spec)}))."


Item = Union[RhoClause, PredClause, Abbreviation, OpDirective, ModeDirective]


@dataclass
class SourceProgram:
    """Parsed program items in their exact source order."""

    items: list = field(default_factory=list)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def expand_abbreviation(abbr: Abbreviation) -> RhoClause:
    """The clause an abbreviation stands for.

    ``name := strat`` becomes ``name :: s_In ==> s_Out :- strat :: s_In ==> s_Out``.
    The ``%`` in the variables' names keeps them apart from any source
    variable; clause variables are renamed on activation, so every
    abbreviation can use the same two.
    """
    s_in = Var("s", "In%")
    s_out = Var("s", "Out%")
    head = RhoLiteral(abbr.name, singleton(s_in), singleton(s_out))
    body = (RhoLiteral(abbr.strategy, singleton(s_in), singleton(s_out)),)
    return RhoClause(head, body, line=abbr.line)


def literal_vars(lit: Literal) -> Iterator[Var]:
    if isinstance(lit, RhoLiteral):
        yield from vars_of(lit.strategy)
        yield from vars_of(lit.lhs)
        yield from vars_of(lit.rhs)
    elif isinstance(lit, PredLiteral):
        yield from vars_of(lit.term)
    elif isinstance(lit, ForcedMatch):
        yield from vars_of(lit.pattern)
        yield from vars_of(lit.subject)


def apply_to_literal(subst, lit: Literal) -> Literal:
    if isinstance(lit, RhoLiteral):
        return RhoLiteral(
            apply_subst(subst, lit.strategy),
            apply_subst(subst, lit.lhs),
            apply_subst(subst, lit.rhs),
            lit.negative,
        )
    if isinstance(lit, PredLiteral):
        return PredLiteral(apply_subst(subst, lit.term))
    if isinstance(lit, ForcedMatch):
        return ForcedMatch(apply_subst(subst, lit.pattern),
                           apply_subst(subst, lit.subject))
    return lit


def literal_builder(lit: Literal, bound, local: dict):
    """``apply_to_literal`` of a clause body literal, compiled as by
    :func:`rholog.terms.subst_builder`: a function of the substitution.

    The strategy, lhs and rhs are compiled in that order, so ``local``
    gets their variables in the order ``apply_to_literal`` meets them.
    """
    if isinstance(lit, RhoLiteral):
        strategy, lhs, rhs = (subst_builder(value, bound, local)
                              for value in (lit.strategy, lit.lhs, lit.rhs))
        negative = lit.negative
        return lambda subst: RhoLiteral(strategy(subst), lhs(subst), rhs(subst),
                                        negative)
    term = subst_builder(lit.term, bound, local)
    return lambda subst: PredLiteral(term(subst))
