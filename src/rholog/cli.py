"""Command-line front end: batch queries, mode checking, and a REPL.

Batch mode prints each answer as ``VarName = value`` lines with a blank
line between answers, or ``false.`` when the query has none.  Exit status
is 0 when at least one answer was found (or a requested check passed), 1
when the query failed, and 2 on parse, mode, or runtime errors.

Without ``--query`` or ``--check`` an interactive shell starts: queries end
with ``.``, a ``;`` asks for the next answer, a plain newline stops,
``consult(FILE).`` loads programs, and ``halt.`` leaves.  The shell also
hosts the ``interactive`` strategy's sub-prompts.

Under ``--lenient``, mode violations print as ``warning:`` lines in batch
mode and in the shell alike, and the program or query runs anyway.

Paths given to ``--consult`` (or ``consult/1``) resolve against the current
directory first and then against the shipped corpus, so
``--consult examples/strat.rholog`` works from anywhere.

Input nested deeper, or a search recursing through strategy probes deeper,
than Python's recursion limit allows is reported as ``error: nested too
deeply``: batch mode exits 2, the shell goes on with the next command.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import List, Optional

from . import strategies
from .engine import (
    Answer,
    ConsultError,
    DepthLimitExceeded,
    Program,
    Session,
    consult,
    read_files,
)
from .program import PredLiteral, SourceProgram
from .syntax import ParseError, Parser, default_operators, format_value, parse_query
from .wellmoded import check_program, check_query

#: The report for a ``RecursionError``, wherever it is raised.
NESTED_TOO_DEEPLY = "error: nested too deeply"


def _print_answer(answer: Answer, table, out) -> None:
    if not answer.pairs:
        out.write("true.\n")
        return
    for var, value in answer.pairs:
        out.write(f"{var.text()} = {format_value(value, table)}\n")


def _report(exc: Exception, err) -> None:
    """Print a failed load or parse as one ``error:`` or ``syntax error:`` line."""
    kind = "syntax error" if isinstance(exc, ParseError) else "error"
    print(f"{kind}: {exc}", file=err)


def _load(names, table, items, lenient: bool, err):
    """Read the files ``names`` with the operators ``table`` and consult them
    after the source ``items``, printing the warnings: ``(source, table,
    program)``, or ``None`` once an error is reported."""
    try:
        source, table = read_files(names, table)
        source = SourceProgram(list(items) + source.items)
        program = consult(source, table, strict=not lenient)
    except (OSError, ConsultError, ParseError) as exc:
        _report(exc, err)
        return None
    for v in program.violations:
        print(f"warning: {v}", file=err)
    return source, table, program


def _solve(program: Program, text: str, *, lenient: bool, trace: bool,
           depth_limit: Optional[int], in_, out, err):
    """Parse and mode-check the query ``text``, then start it on ``program``:
    the :class:`Session` and its answers, or ``None`` once a syntax error or,
    unless ``lenient``, a mode violation is reported."""
    try:
        query = parse_query(text, program.operators)
    except ParseError as exc:
        _report(exc, err)
        return None
    violations = check_query(query, program.modes)
    for v in violations:
        print(f"{'warning' if lenient else 'mode violation'}: {v}", file=err)
    if violations and not lenient:
        return None
    session = Session(program, out=out, err=err, trace=err if trace else None,
                      interaction=strategies.stream_interaction(in_, out),
                      depth_limit=depth_limit)
    return session, session.solve(query)


def run_batch(files: List[str], query_text: Optional[str], *,
              check_only: bool = False, all_answers: bool = False,
              max_answers: Optional[int] = None, lenient: bool = False,
              trace: bool = False, depth_limit: Optional[int] = None,
              out=None, err=None, in_=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    if check_only:
        try:
            source, _ = read_files(files)
        except (OSError, ConsultError, ParseError) as exc:
            _report(exc, err)
            return 2
        violations = check_program(source)
        if violations:
            for v in violations:
                print(f"mode violation: {v}", file=err)
            return 2
        out.write("ok\n")
        return 0

    loaded = _load(files, None, (), lenient, err)
    if loaded is None:
        return 2
    _, table, program = loaded
    if query_text is None:
        print("error: nothing to do (give --query, --check, or no "
              "arguments for a shell)", file=err)
        return 2
    started = _solve(program, query_text, lenient=lenient, trace=trace,
                     depth_limit=depth_limit, in_=in_ or sys.stdin, out=out, err=err)
    if started is None:
        return 2
    session, answers = started

    if not all_answers and max_answers is None:
        max_answers = 1
    count = 0
    try:
        stream = answers if max_answers is None else islice(answers, max_answers)
        for answer in stream:
            if count:
                out.write("\n")
            _print_answer(answer, table, out)
            count += 1
    except DepthLimitExceeded as exc:
        print(f"error: {exc}", file=err)
        return 2
    if count == 0:
        out.write("false.\n")
    if session.runtime_errors:
        return 2
    return 0 if count else 1


class Repl:
    """An interactive query shell over an incrementally consulted program."""

    PROMPT = "?- "

    def __init__(self, *, files=(), lenient=False, trace=False,
                 depth_limit=None, in_=None, out=None, err=None):
        self.infile = in_ if in_ is not None else sys.stdin
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self.lenient = lenient
        self.trace = trace
        self.depth_limit = depth_limit
        self.items = SourceProgram()
        self.table = default_operators()
        self.program = Program(operators=self.table)
        for name in files:
            self._consult(name)

    # -- input plumbing

    def _write(self, text: str) -> None:
        self.out.write(text)
        self.out.flush()

    def _read_command(self) -> Optional[str]:
        """Accumulate lines until one ends with a clause period."""
        buffer: List[str] = []
        prompt = self.PROMPT
        while True:
            self._write(prompt)
            line = self.infile.readline()
            if line == "":
                return None
            stripped = line.strip()
            if not buffer and not stripped:
                prompt = self.PROMPT
                continue
            buffer.append(line)
            if stripped.endswith("."):
                return "".join(buffer)
            prompt = "|  "

    # -- consulting

    def _consult(self, name: str) -> None:
        loaded = _load([name], self.table.clone(), self.items.items,
                       self.lenient, self.err)
        if loaded is not None:
            self.items, self.table, self.program = loaded
            self._write(f"% consulted {name}\n")

    # -- the loop

    def run(self) -> int:
        self._write("rholog shell — queries end with '.', halt. leaves\n")
        while True:
            text = self._read_command()
            if text is None:
                self._write("\n")
                return 0
            stripped = text.strip().rstrip(".").strip()
            if stripped == "halt":
                return 0
            try:
                command = self._as_consult_command(text)
                if command is not None:
                    self._consult(command)
                else:
                    self._run_query(text)
            except RecursionError:
                print(NESTED_TOO_DEEPLY, file=self.err)

    def _as_consult_command(self, text: str) -> Optional[str]:
        try:
            query = Parser(text, self.table.clone()).parse_query()
        except ParseError:
            return None
        if len(query) == 1 and isinstance(query[0], PredLiteral) \
                and query[0].name == "consult" and len(query[0].args) == 1:
            arg = query[0].args[0]
            if hasattr(arg, "head") and isinstance(arg.head, str) and not arg.args:
                return arg.head
        return None

    def _run_query(self, text: str) -> None:
        started = _solve(self.program, text, lenient=self.lenient,
                         trace=self.trace, depth_limit=self.depth_limit,
                         in_=self.infile, out=self.out, err=self.err)
        if started is None:
            return
        _, answers = started
        try:
            exhausted = True
            for answer in answers:
                _print_answer(answer, self.table, self.out)
                self._write("; for more> ")
                line = self.infile.readline()
                if line == "" or line.strip() != ";":
                    exhausted = False
                    break
            if exhausted:
                self._write("false.\n")
        except DepthLimitExceeded as exc:
            print(f"error: {exc}", file=self.err)
        except KeyboardInterrupt:
            self._write("\n% interrupted\n")


def _positive_int(text: str) -> int:
    """The argparse type of counts and limits: a whole number of at least 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rholog",
        description="Interpreter for a strategic hedge-transformation language.")
    parser.add_argument("--consult", action="append", default=[],
                        metavar="FILE", help="program file to load (repeatable)")
    parser.add_argument("--query", metavar="TEXT", help="query to run in batch mode")
    parser.add_argument("--all", action="store_true",
                        help="print every answer instead of the first")
    parser.add_argument("--max-answers", type=_positive_int, metavar="N",
                        help="print at most N answers")
    parser.add_argument("--check", action="store_true",
                        help="only check the consulted files for well-modedness")
    parser.add_argument("--lenient", action="store_true",
                        help="report mode violations as warnings and run anyway")
    parser.add_argument("--trace", action="store_true",
                        help="log each derivation step to stderr")
    parser.add_argument("--depth-limit", type=_positive_int, metavar="N",
                        help="abort derivations deeper than N choice points")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Terms print recursively; allow deep results before Python objects.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    args = build_arg_parser().parse_args(argv)
    try:
        if args.check:
            return run_batch(args.consult, None, check_only=True)
        if args.query is not None:
            return run_batch(
                args.consult, args.query,
                all_answers=args.all, max_answers=args.max_answers,
                lenient=args.lenient, trace=args.trace,
                depth_limit=args.depth_limit)
        repl = Repl(files=args.consult, lenient=args.lenient,
                    trace=args.trace, depth_limit=args.depth_limit)
        return repl.run()
    except RecursionError:
        print(NESTED_TOO_DEEPLY, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
