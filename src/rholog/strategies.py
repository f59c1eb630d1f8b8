"""Built-in strategy combinators and the shipped strategy corpus.

The engine intercepts a transformation literal whose strategy's head symbol
names a combinator before it looks for user clauses; a strategy symbol may
therefore carry either user clauses or a native meaning, never both.

Each handler receives the running machine and rewrites the selected literal
``st :: h ==> rhs`` into alternative goals.  Handlers never add bindings
themselves: they splice fresh sub-literals whose forced matches do the
binding, so answer order falls out of plain depth-first search.  A handler
that must see a strategy's outputs runs it as a probe (``_Machine.probe``):
a goal on the same stack whose continuation runs once per output.
``first_one`` is a cut after the first output; ``first_all`` and ``nf`` are
soft cuts (Prolog's ``*->``), whose else branch runs only if the probe had
no output.  ``rewrite``, ``first_one``/``first_all`` and ``nf`` first ask
``_Machine.skip_probe`` whether the probe can have no output: its strategy
is a user symbol whose clause index selects nothing for the probed hedge.
Then they open none and go straight on: ``rewrite`` to the next position,
``first_one``/``first_all`` to the next strategy, ``nf`` to emitting its
input.  The skipped probe still draws its fresh-variable number.

The library:

``id``
    emits the input hedge unchanged, exactly once.
``compose(st_1, ..., st_n)``, n >= 2
    pipes the input through ``st_1`` then ``compose(st_2, ..., st_n)``;
    backtracking explores every stage's alternatives, earlier stages
    varying slowest.
``choice(st_1, ..., st_n)``, n >= 1
    all answers of ``st_1``, then of ``st_2``, and so on.
``first_one(st_1, ..., st_n)``, n >= 1
    the first answer of the first strategy that has any; nothing more.
``first_all(st_1, ..., st_n)``, n >= 1
    every answer of the first strategy that has any; later ones untried.
``nf(st)``
    every hedge reachable by some number of ``st`` steps on which ``st``
    fails; never fails itself, may diverge, duplicates preserved.
``iterate(st, n)``
    every result of exactly ``n`` consecutive ``st`` steps.
``map1(st)`` / ``map(st)``
    transforms each element of the input hedge separately; ``map1``
    requires single-term images, ``map`` splices arbitrary hedges.  The
    empty hedge maps to itself; the rightmost element backtracks fastest.
``interactive``
    reads strategies from the attached interaction channel, applies each to
    the current hedge, and emits the hedge current when the user finishes.
``rewrite(st)``
    rewrites one subterm of a single input term by ``st``, choosing
    subterms in leftmost-outermost order.  It walks the positions of the
    term in pre-order and runs ``st`` at each as a probe; only an output of
    exactly one term is a contractum, and the term around it is rebuilt
    for that output alone.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .matching import decompositions, plug
from .program import ForcedMatch, RhoLiteral
from .syntax import ParseError, format_hedge, parse_term
from .terms import Apply, Hedge, int_value, singleton

class Interaction:
    """Line-oriented channel for the ``interactive`` strategy."""

    def __init__(self, read_line, write_text):
        self.read = read_line       # prompt -> line, or None at end of input
        self._write = write_text

    def show(self, text: str) -> None:
        self._write(text + "\n")


def stream_interaction(infile, outfile) -> Interaction:
    def read_line(prompt: str) -> Optional[str]:
        outfile.write(prompt)
        outfile.flush()
        line = infile.readline()
        return None if line == "" else line

    return Interaction(read_line, outfile.write)


def expand_combinator(machine, lit: RhoLiteral, rest, ans) -> Iterator:
    """Alternative goals for a combinator literal, or None if not one."""
    strategy = lit.strategy
    handler = _HANDLERS.get(strategy.head) if isinstance(strategy, Apply) else None
    if handler is None:
        return None
    return handler(machine, strategy.args.items, lit, rest, ans)


def _bad(machine, message) -> Iterator:
    machine.session.report(message)
    return iter(())


def _emit(machine, lit, rest, ans, result: Hedge):
    """A single alternative that matches the literal's rhs against result."""
    return (ForcedMatch(lit.rhs, result),) + rest, ans


def _again(lit, rest):
    """The continuation that applies the literal's strategy to an output."""
    return lambda result: (RhoLiteral(lit.strategy, result, lit.rhs),) + rest


def _id(machine, args, lit, rest, ans):
    if args:
        return _bad(machine, "id takes no arguments")
    return iter([_emit(machine, lit, rest, ans, lit.lhs)])


def _compose(machine, args, lit, rest, ans):
    if len(args) < 2:
        return _bad(machine, "compose needs at least two strategies")
    mid = machine.session.fresh_var("s", "Mid")
    second = args[1] if len(args) == 2 else Apply("compose", Hedge(args[1:]))
    goal = (RhoLiteral(args[0], lit.lhs, singleton(mid)),
            RhoLiteral(second, singleton(mid), lit.rhs)) + rest
    return iter([(goal, ans)])


def _choice(machine, args, lit, rest, ans):
    if not args:
        return _bad(machine, "choice needs at least one strategy")
    return iter([((RhoLiteral(st, lit.lhs, lit.rhs),) + rest, ans)
                 for st in args])


def _first(machine, args, lit, rest, ans):
    name = lit.strategy.head
    if not args:
        return _bad(machine, f"{name} needs at least one strategy")
    # first_one cuts this frame at its first output; first_all goes on to
    # the next strategy only if a probe had no output.
    level = len(machine.stack) if name == "first_one" else None

    def alts():
        for st in args:
            if machine.skip_probe(st, lit.lhs):
                continue
            goal, end = machine.probe(
                st, lit.lhs, lambda out: (ForcedMatch(lit.rhs, out),) + rest, level)
            yield goal, ans
            if end.hit:
                return
    return alts()


def _nf(machine, args, lit, rest, ans):
    if len(args) != 1:
        return _bad(machine, "nf takes exactly one strategy")

    def alts():
        if not machine.skip_probe(args[0], lit.lhs):
            goal, end = machine.probe(args[0], lit.lhs, _again(lit, rest))
            yield goal, ans
            if end.hit:
                return
        # Irreducible: the input is its own normal form.
        yield _emit(machine, lit, rest, ans, lit.lhs)
    return alts()


def _iterate(machine, args, lit, rest, ans):
    if len(args) != 2:
        return _bad(machine, "iterate takes a strategy and a step count")
    count = int_value(args[1])
    if count is None or count < 0:
        return _bad(machine, f"iterate needs a natural number, got {args[1]!r}")
    if count == 0:
        return iter([_emit(machine, lit, rest, ans, lit.lhs)])
    mid = machine.session.fresh_var("s", "It")
    again = Apply("iterate", Hedge((args[0], Apply(str(count - 1)))))
    goal = (RhoLiteral(args[0], lit.lhs, singleton(mid)),
            RhoLiteral(again, singleton(mid), lit.rhs)) + rest
    return iter([(goal, ans)])


def _map(machine, args, lit, rest, ans):
    name = lit.strategy.head
    if len(args) != 1:
        return _bad(machine, f"{name} takes exactly one strategy")
    kind = "i" if name == "map1" else "s"
    elements = lit.lhs.items
    if not elements:
        return iter([_emit(machine, lit, rest, ans, Hedge())])
    slots = [machine.session.fresh_var(kind, f"El{i}") for i in range(len(elements))]
    goal = tuple(RhoLiteral(args[0], singleton(el), singleton(slot))
                 for el, slot in zip(elements, slots))
    goal += (ForcedMatch(lit.rhs, Hedge(slots)),) + rest
    return iter([(goal, ans)])


def _interactive(machine, args, lit, rest, ans):
    if args:
        return _bad(machine, "interactive takes no arguments")
    channel = machine.session.interaction
    if channel is None:
        return _bad(machine, "interactive needs an attached interaction channel")
    table = machine.session.operators
    level = len(machine.stack)
    channel.show(f"current hedge: {format_hedge(lit.lhs, table)}")

    def alts():
        while True:
            line = channel.read("strategy (term. or finish.)> ")
            if line is None or line.strip() in ("finish", "finish."):
                break
            text = line.strip()
            if not text:
                continue
            try:
                strategy = parse_term(text, table)
            except ParseError as exc:
                channel.show(f"cannot read strategy: {exc}")
                continue
            if isinstance(strategy, Hedge):
                channel.show("a strategy must be a term")
                continue
            # The first output cuts this frame and starts the next step.
            yield machine.probe(strategy, lit.lhs, _again(lit, rest), level)[0], ans
            channel.show("strategy failed; hedge unchanged")
        yield _emit(machine, lit, rest, ans, lit.lhs)
    return alts()


def _rewrite(machine, args, lit, rest, ans):
    if len(args) != 1:
        return _bad(machine, "rewrite takes exactly one strategy")
    if len(lit.lhs) != 1 or not isinstance(lit.lhs[0], Apply):
        return iter(())          # rewriting applies to a single term

    def alts():
        for link, redex in decompositions(lit.lhs[0]):
            lhs = singleton(redex)
            if machine.skip_probe(args[0], lhs):
                continue

            def then(out, link=link):
                if len(out.items) != 1:
                    return None
                return (ForcedMatch(lit.rhs, singleton(plug(link, out.items[0]))),) + rest
            yield machine.probe(args[0], lhs, then)[0], ans
    return alts()


_HANDLERS = {
    "id": _id,
    "compose": _compose,
    "choice": _choice,
    "first_one": _first,
    "first_all": _first,
    "nf": _nf,
    "iterate": _iterate,
    "map1": _map,
    "map": _map,
    "interactive": _interactive,
    "rewrite": _rewrite,
}

#: Strategy symbols with a native meaning.
COMBINATORS = frozenset(_HANDLERS)


# ---------------------------------------------------------------------------
# Shipped corpus

def corpus_path(name: str):
    """Filesystem path of a shipped corpus program such as
    ``prelude/rewrite.rholog`` or ``examples/flatten.rholog``."""
    from importlib.resources import files

    return files(__package__) / "corpus" / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")
