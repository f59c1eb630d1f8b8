"""Query evaluation: depth-first, leftmost-selection backtracking.

Consulting compiles each clause once into a :class:`CompiledClause` record:
its number ``k``, its input pattern ``head_in`` (a rule's strategy and lhs,
a predicate's ``+`` arguments), its output pattern ``head_out`` (the rhs,
the ``-`` arguments), its body and its line.  A clause's first activation
adds its instantiation plan: one builder per body literal and one for
``head_out``, compiled from the clause much as a WAM compiles a clause body
into the code that builds its instance (Warren 1983), and the clause-local
variables that each activation names afresh.  A :class:`Program` keeps the
records of each strategy, and of each predicate name and arity, in a
:class:`ClauseIndex` by the symbol that leads their input or, for a clause
led by a variable, by a symbol its input needs at depth 1 or 2 (outside any
context variable).  The index only filters: clauses are still tried
top-down in source order.  Queries run on an explicit choice-point stack
rather than the host call stack, so long derivations (normal forms of
slowly shrinking hedges, say) cannot overflow Python's recursion limit.

Selecting the leftmost literal of the current goal produces an iterator of
alternatives, each a rewritten goal:

* a positive transformation literal first checks the strategy's head symbol
  against the native combinators, then tries, in source order, the clauses
  the index gives for the heads of the subject's lhs items (and of their
  arguments): for clause ``st' :: lhs' ==> rhs' :- body`` and each matcher
  ``σ`` of the un-renamed ``(st', lhs')`` against the ground ``(st, lhs)``,
  the literal becomes ``bodyσ`` followed by a forced match of its rhs
  against ``rhs'σ``, where ``σ`` is extended with a fresh variable for each
  clause-local variable and the clause's plan builds the instance;
* a forced match enumerates matchers of its pattern against its
  now-ground subject, applying each one to the remaining goal and to the
  answer under construction;
* a negative transformation literal is ``(positive, !, fail ; true)``: its
  positive counterpart runs as frames of the same stack, and its first
  answer cuts away the ``true`` branch and fails; it never binds anything;
* ``!`` discards every choice point created since its clause's activation
  (since the start of the query, for a query-level cut);
* built-in predicates (``is``, comparisons, ``true``, ``fail``, ``write``,
  ``nl``) evaluate natively; program-defined predicates run through their
  clauses like rules, guided by their declared input/output positions.

Answers are substitutions for the query's named variables, produced lazily
in a single deterministic order.  Nothing is deduplicated: a result reached
along two derivations appears twice.
"""

from __future__ import annotations

import codecs
import heapq
import itertools
import os
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from . import strategies
from .matching import match_hedge
from .program import (
    Abbreviation,
    Body,
    CutLiteral,
    ForcedMatch,
    PredClause,
    PredLiteral,
    Query,
    RhoClause,
    RhoLiteral,
    SourceProgram,
    apply_to_literal,
    expand_abbreviation,
    literal_builder,
    literal_vars,
)
from .syntax import (
    OperatorTable,
    ParseError,
    default_operators,
    format_literal,
    format_value,
    parse_program,
    parse_query,
)
from .terms import (
    Apply,
    Hedge,
    Var,
    flat_hedge,
    int_value,
    num,
    singleton,
    subst_builder,
    vars_of,
)
from .wellmoded import BUILTIN_PREDICATES, ModeTable, check_program, check_query, mode_table_of


class ConsultError(Exception):
    """A program cannot be loaded (mode violations, illegal redefinitions)."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class ModeError(Exception):
    """A query failed the well-modedness check."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = tuple(violations)


class DepthLimitExceeded(Exception):
    pass


@dataclass(eq=False, slots=True)
class CompiledClause:
    """A clause as consulting leaves it: its head split into two patterns.

    ``k`` numbers the clause among its strategy's clauses, or among all
    clauses of its predicate's name, from 1.  ``head_in`` is what a
    selected literal's input is matched against: a rule's strategy followed
    by its lhs, or a predicate's ``+`` arguments.  ``head_out`` is a rule's
    rhs, or a predicate's ``-`` arguments.  ``plan`` is the clause's
    :class:`_Plan`, built when the clause is first activated.
    """

    k: int
    head_in: Hedge
    head_out: Hedge
    body: Body
    line: int
    plan: Optional[_Plan] = None


class _Plan(NamedTuple):
    """How to instantiate a clause for a matcher of its ``head_in``.

    ``locals`` are the variables of the body and ``head_out`` that
    ``head_in`` lacks, in the order ``apply_subst`` would meet them: body
    literal by literal (``!`` skipped; strategy, lhs, rhs), then
    ``head_out``.  ``body`` holds a builder per body literal (``None`` for
    ``!``) and ``out`` the builder of ``head_out``; each builds its
    instance from the matcher extended with a fresh variable per local.
    """

    locals: tuple
    body: tuple
    out: Callable


def _plan(clause: CompiledClause) -> _Plan:
    bound = set(vars_of(clause.head_in))
    local: dict = {}
    body = tuple(None if isinstance(lit, CutLiteral)
                 else literal_builder(lit, bound, local) for lit in clause.body)
    out = subst_builder(clause.head_out, bound, local)
    return _Plan(tuple(local), body, out)


_by_k = attrgetter("k")


class ClauseIndex:
    """One strategy's (or one predicate arity's) clauses, by a symbol they need.

    A clause's lead is item ``skip`` of its ``head_in``: the first lhs item
    of a rule (``skip`` 1, past the strategy), the first ``+`` argument of a
    predicate (``skip`` 0).  ``keyed[a]`` holds the clauses whose lead is an
    application of the symbol ``a``; ``empty`` those with no lead.  Of the
    rest, whose lead is a variable or has a variable head (``i_X``, ``s_X``,
    ``f_F(...)``, ``c_X(...)``), ``needs[a]`` holds those that need a node
    headed ``a`` in the subject (see :func:`_needed_symbol`), and
    ``var_led`` those that need none.  ``deep`` tells whether some clause
    needs its symbol at depth 2.  Each group is in source order.
    """

    __slots__ = ("skip", "keyed", "var_led", "empty", "needs", "deep")

    def __init__(self, clauses, skip: int):
        self.skip = skip
        keyed, var_led, empty, needs = {}, [], [], {}
        deep = False
        for clause in clauses:
            items = clause.head_in.items
            lead = items[skip] if len(items) > skip else None
            if lead is None:
                empty.append(clause)
            elif isinstance(lead, Apply) and isinstance(lead.head, str):
                keyed.setdefault(lead.head, []).append(clause)
            else:
                need = _needed_symbol(items[skip:])
                if need is None:
                    var_led.append(clause)
                else:
                    symbol, depth = need
                    needs.setdefault(symbol, []).append(clause)
                    deep = deep or depth == 2
        self.keyed = {symbol: tuple(group) for symbol, group in keyed.items()}
        self.var_led = tuple(var_led)
        self.empty = tuple(empty)
        self.needs = {symbol: tuple(group) for symbol, group in needs.items()}
        self.deep = deep

    def select(self, subject: Hedge):
        """The clauses whose ``head_in`` may match the ground ``subject``.

        They come in source order: the groups :meth:`_groups` keeps, merged.
        """
        groups = self._groups(subject.items, self.skip)
        if len(groups) > 1:
            return heapq.merge(*groups, key=_by_k)
        return groups[0] if groups else ()

    def may_match(self, lhs: Hedge) -> bool:
        """Whether :meth:`select` keeps any clause for a ground subject
        whose items past ``skip`` are those of ``lhs``."""
        return bool(self._groups(lhs.items, 0))

    def _groups(self, items, start):
        """The non-empty groups of clauses that may match a ground subject
        whose input items are ``items[start:]``.

        Left out are the clauses whose lead is absent while the subject's is
        not, or is another symbol, and those that need a symbol which heads
        no input item of the subject nor, when some clause needs its symbol
        at depth 2, any argument of one.  Nothing deeper is read.
        """
        if len(items) <= start:
            own = self.empty
        else:
            own = self.keyed.get(items[start].head, ())
            if self.needs:
                items = items[start:]
                heads = {item.head for item in items}
                if self.deep:
                    heads.update(arg.head for item in items for arg in item.args.items)
                needs = self.needs
                groups = [group for group in (own, self.var_led) if group]
                return groups + [needs[symbol] for symbol in heads if symbol in needs]
        if not self.var_led:
            return (own,) if own else ()
        return (own, self.var_led) if own else (self.var_led,)


def _needed_symbol(items):
    """A symbol every subject that ``items`` matches has, and its depth.

    Outside a context variable's argument, a pattern node matches only a
    subject node at its own depth: an input item (depth 1) matches an input
    item, and an argument of one (depth 2) an argument of one.  So a symbol
    that heads an item, or an argument of a function-variable-headed item,
    must head a subject node at that depth.  The first symbol heading an item is taken,
    failing that the first heading such an argument, failing that ``None``.
    A symbol under a context variable can match at any depth, and is never
    taken.
    """
    deep = None
    for item in items:
        if not isinstance(item, Apply):
            continue
        if isinstance(item.head, str):
            return item.head, 1
        if deep is None and item.head.kind == "f":
            for arg in item.args.items:
                if isinstance(arg, Apply) and isinstance(arg.head, str):
                    deep = arg.head, 2
                    break
    return deep


@dataclass
class Program:
    """A consulted program, immutable once built.

    ``rho`` maps each strategy symbol to the :class:`ClauseIndex` of its
    clauses; ``preds`` maps each predicate name to a dict from arity to the
    index of its clauses of that arity.  A name's dict holds only arities
    that have a declared mode, and may be empty.
    """

    rho: Dict[str, ClauseIndex] = field(default_factory=dict)
    preds: Dict[str, Dict[int, ClauseIndex]] = field(default_factory=dict)
    operators: OperatorTable = field(default_factory=default_operators)
    modes: ModeTable = field(default_factory=ModeTable)
    violations: tuple = ()


def consult(source: SourceProgram, operators: Optional[OperatorTable] = None,
            strict: bool = True) -> Program:
    """Build a runnable program from parsed source items.

    Abbreviations expand to their defining clauses in place, and every
    clause is compiled into a :class:`CompiledClause`.  In strict mode any
    well-modedness violation raises :class:`ConsultError`; in lenient mode
    the violations are recorded on the program instead.
    """
    violations = check_program(source)
    if strict and violations:
        raise ConsultError(
            "program is not well-moded:\n  "
            + "\n  ".join(str(v) for v in violations),
            violations)
    modes = mode_table_of(source)
    rules, preds = {}, {}
    for item in source:
        if isinstance(item, Abbreviation):
            item = expand_abbreviation(item)
        if isinstance(item, RhoClause):
            head = item.head
            symbol = head.strategy.head
            if symbol in strategies.COMBINATORS:
                raise ConsultError(
                    f"strategy {symbol!r} is a built-in combinator and "
                    f"cannot be redefined (line {item.line})")
            group = rules.setdefault(symbol, [])
            group.append(CompiledClause(
                len(group) + 1, Hedge((head.strategy,) + head.lhs.items),
                head.rhs, item.body, item.line))
        elif isinstance(item, PredClause):
            name = item.head.head
            if name in BUILTIN_PREDICATES:
                raise ConsultError(
                    f"predicate {name!r} is built-in and cannot be "
                    f"redefined (line {item.line})")
            preds.setdefault(name, []).append(item)
    return Program(
        rho={symbol: ClauseIndex(group, 1) for symbol, group in rules.items()},
        preds={name: _compile_predicate(clauses, modes)
               for name, clauses in preds.items()},
        operators=operators if operators is not None else default_operators(),
        modes=modes,
        violations=tuple(violations),
    )


def _compile_predicate(clauses, modes: ModeTable) -> Dict[int, ClauseIndex]:
    """The clauses of one predicate name, indexed per arity that has a mode."""
    by_arity = {}
    for k, clause in enumerate(clauses, 1):
        args = clause.head.args
        split = modes.split(clause.head.head, args)
        if split is not None:
            by_arity.setdefault(len(args), []).append(
                CompiledClause(k, *split, clause.body, clause.line))
    return {arity: ClauseIndex(group, 0) for arity, group in by_arity.items()}


def consult_text(text: str, strict: bool = True,
                 operators: Optional[OperatorTable] = None) -> Program:
    source, table = parse_program(text, operators)
    return consult(source, table, strict)


def read_files(paths, operators: Optional[OperatorTable] = None):
    """Parse program files, in order, into one ``(SourceProgram, OperatorTable)``.

    Operator directives carry over from file to file, starting from
    ``operators`` (which is updated in place) or the default table.  Each
    path names a file or, failing that, a shipped corpus entry, so
    ``examples/strat.rholog`` works from any directory.  Files are UTF-8,
    with or without a byte-order mark; a file that is not raises
    :class:`ConsultError`, and a syntax error names the file it is in.
    """
    table = operators if operators is not None else default_operators()
    items = SourceProgram()
    for name in paths:
        path = name
        if not os.path.exists(name):
            path = strategies.corpus_path(name)
            if not path.is_file():
                raise FileNotFoundError(f"no such program file: {name}")
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
            raise ConsultError(f"cannot read {name}: not valid UTF-8 "
                               f"at byte offset {exc.start + bom}") from None
        # Universal newlines, as reading in text mode gives them.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        try:
            source, table = parse_program(text, table)
        except ParseError as exc:
            raise ParseError(exc.message, exc.line, exc.col, name) from None
        items.items.extend(source.items)
    return items, table


class Answer:
    """Ground bindings for a query's named variables, in query order."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)

    def __getitem__(self, key):
        """The value of a variable, given as a ``Var`` or by its name."""
        for var, value in self.pairs:
            if key == (var.text() if isinstance(key, str) else var):
                return value
        raise KeyError(key)

    def __repr__(self) -> str:
        if not self.pairs:
            return "true"
        return ", ".join(f"{var.text()} = {value!r}" for var, value in self.pairs)


@dataclass(frozen=True)
class _Cut:
    """Runtime form of ``!``: prune the stack back to a fixed depth.

    With ``fail``, the literal fails after it prunes: it ends the goal of a
    negation, ``(positive, !, fail)``, as one literal that holds no
    variable, so a forced match never maps its matchers over it.
    """

    level: int
    fail: bool = False


@dataclass(eq=False, slots=True)
class _ProbeEnd:
    """Engine-internal last literal of a probe goal ``st :: lhs ==> s_P``.

    A forced match that finds it at the end of its remaining goal maps its
    matchers over the literals before it only.  The one that binds ``out``
    (``s_P``) sets ``hit`` and splices ``cut`` and then ``then(image)`` in
    its place, so the probe's own matches never rebuild the continuation;
    if ``then`` gives ``None``, that output has no continuation and the
    matcher is dropped.
    """

    out: Var
    then: Callable
    cut: tuple = ()
    hit: bool = False


class Session:
    """Evaluation context: a program plus I/O and safety configuration.

    One session is single-threaded; several sessions may share a Program.
    """

    def __init__(self, program: Optional[Program] = None, *,
                 out=None, err=None, trace=None,
                 interaction: Optional[strategies.Interaction] = None,
                 depth_limit: Optional[int] = None):
        self.program = program if program is not None else Program()
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self.trace = trace
        self.interaction = interaction
        self.depth_limit = depth_limit
        self.runtime_errors: List[str] = []
        self._fresh = itertools.count(1)

    @property
    def operators(self) -> OperatorTable:
        return self.program.operators

    # -- services used by machines and combinator handlers

    def fresh_var(self, kind: str, stem: str) -> Var:
        return Var(kind, f"{stem}#{next(self._fresh)}")

    def rename_clause(self, clause: CompiledClause, sigma: dict, cut):
        """A clause's ``(body, head_out)`` under its matcher ``sigma``.

        ``sigma`` gets a fresh variable for each of the clause's locals, in
        the plan's order, so activations of a clause stay apart; then the
        plan's builders make the instance, with ``!`` as ``cut``.  The plan
        is built at the clause's first activation.
        """
        plan = clause.plan
        if plan is None:
            plan = clause.plan = _plan(clause)
        fresh = self._fresh
        for var in plan.locals:
            sigma[var] = Var(var.kind, f"{var.name}#{next(fresh)}", var.anon)
        body = tuple([cut if build is None else build(sigma)
                      for build in plan.body])
        return body, plan.out(sigma)

    def report(self, message: str) -> None:
        self.runtime_errors.append(message)
        print(f"error: {message}", file=self.err)

    # -- solving

    def solve(self, query: Query) -> Iterator[Answer]:
        """Lazily enumerate the answers of a parsed query."""
        query_vars: List[Var] = []
        for lit in query:
            for var in literal_vars(lit):
                if not var.anon and var not in query_vars:
                    query_vars.append(var)
        goal = tuple(_Cut(0) if isinstance(lit, CutLiteral) else lit
                     for lit in query)
        machine = _Machine(self, goal, tuple(query_vars))
        for bindings in machine.run():
            yield Answer((var, bindings.get(var, var)) for var in query_vars)

    def solve_text(self, text: str, check: bool = True) -> Iterator[Answer]:
        """Parse, optionally mode-check, and solve a query string."""
        query = parse_query(text, self.operators)
        if check:
            violations = check_query(query, self.program.modes)
            if violations:
                raise ModeError(violations)
        return self.solve(query)


def _with_named(bindings: dict, sigma: dict, names) -> dict:
    """``bindings`` plus what the matcher ``sigma`` binds of the query's ``names``.

    Built here rather than in the forced-match generator, so a suspended
    generator keeps no dict of its own alive.
    """
    named = {var: sigma[var] for var in names if var in sigma}
    if not named:
        return bindings
    bindings = dict(bindings)
    bindings.update(named)
    return bindings


_COMPARISONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
}


class _ArithmeticError(Exception):
    pass


def _arith(t) -> int:
    """Evaluate a ground arithmetic expression over integers."""
    value = int_value(t)
    if value is not None:
        return value
    if isinstance(t, Apply) and isinstance(t.head, str):
        args = [_arith(a) for a in t.args]
        name = t.head
        if name == "+" and len(args) == 2:
            return args[0] + args[1]
        if name == "-" and len(args) == 2:
            return args[0] - args[1]
        if name == "-" and len(args) == 1:
            return -args[0]
        if name == "*" and len(args) == 2:
            return args[0] * args[1]
        if name == "//" and len(args) == 2:
            if args[1] == 0:
                raise _ArithmeticError("integer division by zero")
            return args[0] // args[1]
        if name == "mod" and len(args) == 2:
            if args[1] == 0:
                raise _ArithmeticError("mod by zero")
            return args[0] % args[1]
    raise _ArithmeticError(f"not an arithmetic expression: {t!r}")


class _Machine:
    """A query's depth-first search, on one explicit frame stack.

    Each frame is an iterator of ``(goal, bindings)`` alternatives; the top
    frame is advanced, an exhausted frame pops, and an empty goal yields its
    bindings as an answer.  Cut truncates the stack to a recorded depth.
    Negation and strategy probes run as frames of this stack too, so the
    depth limit counts them and no derivation recurses in Python.
    ``bindings`` hold only the query's ``names``.  A search closed before
    it is exhausted drops its frames at once: they refer back to the
    machine, and would otherwise wait for the cycle collector.
    """

    def __init__(self, session: Session, goal, names: tuple):
        self.session = session
        self.names = names
        self.tracing = session.trace is not None
        self.stack: List[Iterator] = [iter(((tuple(goal), {}),))]

    def run(self) -> Iterator[dict]:
        stack = self.stack
        session = self.session
        limit = session.depth_limit
        try:
            while stack:
                item = next(stack[-1], None)
                if item is None:
                    stack.pop()
                    continue
                goal, bindings = item
                if not goal:
                    yield bindings
                    continue
                if limit is not None and len(stack) >= limit:
                    raise DepthLimitExceeded(
                        f"choice-point stack exceeded {limit} frames")
                stack.append(self._expand(goal[0], goal[1:], bindings))
        finally:
            stack.clear()

    # -- literal expansion

    def _expand(self, lit, rest, bindings) -> Iterator:
        if isinstance(lit, _Cut):
            if self.tracing:
                self._trace(f"select ! | cut to level {lit.level}"
                            + (", fail" if lit.fail else ""))
            del self.stack[lit.level:]
            return iter(()) if lit.fail else iter(((rest, bindings),))
        if self.tracing:
            self._trace(f"select {self._lit_text(lit)}")
        if isinstance(lit, ForcedMatch):
            return self._forced_match(lit, rest, bindings)
        if isinstance(lit, RhoLiteral):
            if lit.negative:
                return self._negation(lit, rest, bindings)
            return self._positive_rho(lit, rest, bindings)
        if isinstance(lit, PredLiteral):
            return self._predicate(lit, rest, bindings)
        raise TypeError(f"cannot execute literal {lit!r}")

    def _forced_match(self, lit: ForcedMatch, rest, bindings) -> Iterator:
        if not lit.subject.ground or lit.subject.holes:
            return self._bad_input(lit)

        # A probe's end or a trailing cut holds no variable: keep it unmapped.
        end = None
        if rest and isinstance(rest[-1], (_ProbeEnd, _Cut)):
            end, rest = rest[-1], rest[:-1]

        def alts():
            for j, sigma in enumerate(match_hedge(lit.pattern, lit.subject), 1):
                if self.tracing:
                    self._trace(f"match {lit.pattern!r} against "
                                f"{lit.subject!r} | matcher {j}")
                new_rest = tuple(apply_to_literal(sigma, lt) for lt in rest) \
                    if sigma else rest
                if end is not None:
                    then = (end,)
                    if isinstance(end, _ProbeEnd) and end.out in sigma:
                        end.hit = True
                        then = end.then(sigma[end.out])
                        if then is None:
                            continue
                        then = end.cut + then
                    new_rest += then
                yield new_rest, _with_named(bindings, sigma, self.names)
        return alts()

    def _positive_rho(self, lit: RhoLiteral, rest, bindings) -> Iterator:
        strategy, lhs = lit.strategy, lit.lhs
        if not (strategy.ground and lhs.ground) or strategy.holes or lhs.holes:
            return self._bad_input(lit)
        native = strategies.expand_combinator(self, lit, rest, bindings)
        if native is not None:
            if self.tracing:
                self._trace(f"{self._lit_text(lit)} | combinator")
            return native
        if not (isinstance(strategy, Apply) and isinstance(strategy.head, str)):
            self.session.report(f"strategy {strategy!r} has no head symbol")
            return iter(())
        index = self.session.program.rho.get(strategy.head)
        if index is None:
            return iter(())
        return self._resolve(lit, rest, bindings, index,
                             flat_hedge((strategy,) + lhs.items, True, 0), lit.rhs)

    def _negation(self, lit: RhoLiteral, rest, bindings) -> Iterator:
        positive = RhoLiteral(lit.strategy, lit.lhs, lit.rhs, negative=False)
        return iter((((positive, _Cut(len(self.stack), fail=True)), bindings),
                     (rest, bindings)))

    def _predicate(self, lit: PredLiteral, rest, bindings) -> Iterator:
        name = lit.name
        arity = len(lit.args)
        if name in BUILTIN_PREDICATES:
            return self._builtin(lit, rest, bindings)
        program = self.session.program
        by_arity = program.preds.get(name)
        if by_arity is None:
            self.session.report(f"unknown predicate {name}/{arity}")
            return iter(())
        split = program.modes.split(name, lit.args)
        if split is None:
            self.session.report(f"no mode declared for {name}/{arity}")
            return iter(())
        subject, out_pattern = split
        if not subject.ground or subject.holes:
            return self._bad_input(lit)
        index = by_arity.get(arity)
        if index is None:
            return iter(())
        return self._resolve(lit, rest, bindings, index, subject, out_pattern)

    def _resolve(self, lit, rest, bindings, index: ClauseIndex, subject: Hedge,
                 out_pattern: Hedge) -> Iterator:
        """Resolve a selected literal against the clauses of ``index``.

        ``subject`` is the literal's ground input, laid out like the clauses'
        ``head_in``, and ``out_pattern`` its output.  Each clause the index
        selects has its un-renamed ``head_in`` matched against ``subject``.
        """
        clauses = index.select(subject)
        cut = _Cut(len(self.stack))

        def alts():
            for clause in clauses:
                for j, sigma in enumerate(match_hedge(clause.head_in, subject), 1):
                    if self.tracing:
                        self._trace(f"{self._lit_text(lit)} | clause {clause.k}, "
                                    f"matcher {j}")
                    body, out = self.session.rename_clause(clause, sigma, cut)
                    yield body + (ForcedMatch(out_pattern, out),) + rest, bindings
        return alts()

    def _bad_input(self, lit) -> Iterator:
        """Report that ``lit``'s input is not ground and hole-free, and fail.

        Only a query or program that failed or skipped the mode check can
        select such a literal.
        """
        self.session.report(f"input of {self._lit_text(lit)} is not "
                            "ground and hole-free")
        return iter(())

    def _builtin(self, lit: PredLiteral, rest, bindings) -> Iterator:
        name = lit.name
        args = lit.args.items
        arity = len(args)
        session = self.session
        try:
            if name == "true" and arity == 0:
                return iter(((rest, bindings),))
            if name == "fail" and arity == 0:
                return iter(())
            if name == "nl" and arity == 0:
                session.out.write("\n")
                return iter(((rest, bindings),))
            if name == "write" and arity == 1:
                session.out.write(format_value(args[0], session.operators))
                return iter(((rest, bindings),))
            if name == "is" and arity == 2:
                value = num(_arith(args[1]))
                if self.tracing:
                    self._trace(f"{self._lit_text(lit)} | builtin is = {value!r}")
                return self._forced_match(
                    ForcedMatch(singleton(args[0]), singleton(value)),
                    rest, bindings)
            if name in _COMPARISONS and arity == 2:
                holds = _COMPARISONS[name](_arith(args[0]), _arith(args[1]))
                if self.tracing:
                    self._trace(f"{self._lit_text(lit)} | builtin "
                                f"{'succeeds' if holds else 'fails'}")
                return iter(((rest, bindings),)) if holds else iter(())
        except _ArithmeticError as exc:
            session.report(f"arithmetic error in {self._lit_text(lit)}: {exc}")
            return iter(())
        session.report(f"unknown built-in call {name}/{arity}")
        return iter(())

    # -- services for combinator handlers

    def skip_probe(self, strategy, lhs: Hedge) -> bool:
        """Whether a probe of ``strategy`` on the ground ``lhs`` can have no
        output, so a combinator need not open it.

        That holds when ``strategy`` is a ground, hole-free application of a
        symbol that names no combinator and whose clause index, if it has
        one, selects no clause for ``lhs``.  A skipped probe still draws the
        one fresh-variable number that :meth:`probe` would have, so later
        numbering does not depend on the skip.
        """
        # A ground application has a symbol head; a symbol with an index
        # has clauses, so it names no combinator.
        if not (isinstance(strategy, Apply) and strategy.ground and not strategy.holes):
            return False
        index = self.session.program.rho.get(strategy.head)
        if index is not None:
            if index.may_match(lhs):
                return False
        elif strategy.head in strategies.COMBINATORS:
            return False
        next(self.session._fresh)
        return True

    def probe(self, strategy, lhs: Hedge, then, cut_to: Optional[int] = None):
        """A goal that runs ``strategy`` on ``lhs``, then ``then(output)``.

        Each output continues with the goal ``then`` returns for it, or
        fails there if it returns ``None``; with ``cut_to``, an output cuts
        the stack to that depth before it does.
        Returns the goal and its :class:`_ProbeEnd`, whose ``hit`` tells
        whether any output was reached.
        """
        end = _ProbeEnd(self.session.fresh_var("s", "Probe"), then,
                        () if cut_to is None else (_Cut(cut_to),))
        return (RhoLiteral(strategy, lhs, singleton(end.out)), end), end

    # -- tracing

    def _lit_text(self, lit) -> str:
        return format_literal(lit, self.session.operators)

    def _trace(self, text: str) -> None:
        self.session.trace.write(f"[{len(self.stack)}] {text}\n")
