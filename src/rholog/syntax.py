"""Concrete syntax: lexer, operator-precedence parser, and printer.

Programs are sequences of period-terminated items:

* ``strategy :: lhs ==> rhs.`` — a transformation fact;
* ``strategy :: lhs ==> rhs :- body.`` — a conditional transformation rule;
* ``name := strategy.`` — an abbreviation;
* ``head.`` / ``head :- body.`` — a predicate clause;
* ``:- op(Priority, Fixity, Name).`` and ``:- mode(p(+, -)).`` directives.

Hedges on either side of ``::`` / ``==>`` are written as a single term or a
parenthesized comma-separated sequence; ``eps`` is the empty hedge and
disappears when spliced into a larger hedge.  Variables are recognized by
their prefix (``i_`` individual, ``s_`` sequence, ``f_`` function, ``c_``
context); a bare prefix is an anonymous variable, fresh at each occurrence.
Comments run from ``%`` to end of line.

Operator parsing follows the usual priority/fixity discipline with
priorities 1..1200; arguments and hedge elements are parsed at priority 999,
so commas always separate elements.  Directives take effect for the rest of
the parse, and the resulting table drives printing, which round-trips.

The lexer is one regular expression matched token by token.  A token is a
plain tuple ``(type, value, offset, quoted)``; line and column come from the
offset only for an error or an item's line.  Terms are parsed by operator
precedence on an explicit stack (Pratt 1973): an open group or an operator
awaiting its operand is a frame on a list, so nesting depth costs no Python
recursion.  Items, which do not nest, are parsed by recursive descent.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from typing import List, Optional, Tuple

from .program import (
    FIXITIES,
    Abbreviation,
    CutLiteral,
    ModeDirective,
    OpDirective,
    PredClause,
    PredLiteral,
    Query,
    RhoClause,
    RhoLiteral,
    SourceProgram,
)
from .terms import (
    EMPTY_HEDGE,
    HOLE_NAME,
    Apply,
    Hedge,
    Var,
    flat_hedge,
    singleton,
    symbol_apply,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0,
                 file: Optional[str] = None):
        where = [file] if file else []
        if line:
            where.append(f"line {line}, column {col}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.message, self.line, self.col, self.file = message, line, col, file


# ---------------------------------------------------------------------------
# Operator table


class OperatorTable:
    """Priority/fixity entries for infix, prefix, and postfix operators."""

    def __init__(self, entries=None):
        self._entries: dict = dict(entries or {})

    def clone(self) -> "OperatorTable":
        return OperatorTable({name: dict(slots) for name, slots in self._entries.items()})

    @staticmethod
    def _slot(fixity: str) -> str:
        if fixity in ("xfx", "xfy", "yfx"):
            return "infix"
        if fixity in ("fy", "fx"):
            return "prefix"
        return "postfix"

    def declare(self, priority: int, fixity: str, name: str) -> None:
        if fixity not in FIXITIES:
            raise ValueError(f"unknown operator fixity {fixity!r}")
        if not 1 <= priority <= 1200:
            raise ValueError(f"operator priority {priority} out of range 1..1200")
        slots = self._entries.setdefault(name, {})
        slot = self._slot(fixity)
        old = slots.get(slot)
        if old is not None and old != (priority, fixity):
            raise ValueError(
                f"conflicting operator declaration for {name!r}: "
                f"{old[1]} {old[0]} vs {fixity} {priority}")
        slots[slot] = (priority, fixity)

    def infix(self, name: str) -> Optional[Tuple[int, str]]:
        return self._entries.get(name, {}).get("infix")

    def prefix(self, name: str) -> Optional[Tuple[int, str]]:
        return self._entries.get(name, {}).get("prefix")

    def postfix(self, name: str) -> Optional[Tuple[int, str]]:
        return self._entries.get(name, {}).get("postfix")


def default_operators() -> OperatorTable:
    table = OperatorTable()
    for name in ("is", "<", ">", "=<", ">=", "=:=", "=\\=", "->"):
        table.declare(700, "xfx", name)
    for name in ("+", "-"):
        table.declare(500, "yfx", name)
    for name in ("*", "//", "mod"):
        table.declare(400, "yfx", name)
    return table


# ---------------------------------------------------------------------------
# Lexer

#: A token is the tuple ``(type, value, offset, quoted)``: ``type`` is atom,
#: var, number, punct, end or eof, and ``offset`` indexes the source text.
Token = Tuple[str, object, int, bool]

_SYMBOL_CHARS = "+-*/\\^<>=~:.?@#&$"

# Layout (whitespace, and comments running to the end of the line, so a
# token that fails never backtracks into one), then one group per token
# kind, tried in order; ``name`` is the common case of ``word`` that needs no
# check.  ``\s``, ``\w`` and ``\d`` match exactly what ``str.isspace``,
# ``str.isalnum`` (or ``_``) and ``str.isdecimal`` accept.
_TOKEN = re.compile(rf"""(?:\s+|%[^\n]*(?=\n|\Z))*(?:
     (?P<var>[iscf]_\w*)
    |(?P<name>[a-z]\w*)
    |(?P<punct>[(),])
    |(?P<end>\.(?=[\s%]|\Z))
    |(?P<symbol>[{re.escape(_SYMBOL_CHARS)}]+)
    |(?P<word>(?!\d)\w+)
    |(?P<solo>[!;])
    |(?P<quoted>'(?:[^'\n]|'')*'(?!'))
    |(?P<number>\d+)
    |(?P<eof>\Z)
    |(?P<bad>[\s\S]))""", re.VERBOSE)


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The (line, column) of ``offset`` in ``text``, both counted from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(text: str) -> List[Token]:
    # One Var per named variable: clause variables are renamed on
    # activation, so names need only be unique within a text.  Anonymous
    # variables are numbered, each occurrence fresh.
    named: dict = {}
    anon_counter = itertools.count()
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "name":
            append(("atom", m[kind], start, False))
        elif kind == "var":
            var = named.get(m[kind])
            if var is None:
                if pos - start > 2:
                    var = named[m[kind]] = Var(text[start], text[start + 2:pos])
                else:
                    var = Var(text[start], f"~{next(anon_counter)}", anon=True)
            append(("var", var, start, False))
        elif kind == "punct":
            append(("punct", text[start], start, False))
        elif kind == "symbol" or kind == "solo":
            append(("atom", m[kind], start, False))
        elif kind == "quoted":
            append(("atom", text[start + 1:pos - 1].replace("''", "'"), start, True))
        elif kind == "number":
            append(("number", int(m[kind]), start, False))
        elif kind == "end":
            append(("end", ".", start, False))
        elif kind == "eof":
            append(("eof", None, start, False))
            return tokens
        elif kind == "word":
            word = m[kind]
            if not (word[0].isalpha() or word[0] == "_"):  # '²', '①': not digits int() reads
                raise ParseError(f"unexpected character {word[0]!r}", *_position(text, start))
            if word[0].isupper() or word[0] == "_":
                raise ParseError(
                    f"host-language variables are not supported: {word!r} "
                    "(use i_/s_/f_/c_ prefixed variables)", *_position(text, start))
            append(("atom", word, start, False))
        elif text[start] == "'":
            raise ParseError("newline in quoted atom" if "\n" in text[start:]
                             else "unterminated quoted atom", *_position(text, start))
        else:
            raise ParseError(f"unexpected character {text[start]!r}", *_position(text, start))


# ---------------------------------------------------------------------------
# Parser

# Frames of ``Parser.parse_term``, tagged by their first element.
_GROUP = "group"     # (_GROUP, head or None, head token, elements, outer maxp)
_OPERATOR = "op"     # (_OPERATOR, name, left operand or None, prio, outer maxp, operand token)


class Parser:
    def __init__(self, text: str, table: Optional[OperatorTable] = None):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.table = table if table is not None else default_operators()
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    # -- token plumbing

    def peek(self) -> Token:
        # ``next`` never moves past the final ``eof`` token.
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def line_of(self, tok: Token) -> int:
        return bisect_right(self.line_starts, tok[2])

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok[2]))

    def at_atom(self, name: str) -> bool:
        tok = self.peek()
        return tok[0] == "atom" and tok[1] == name

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok[0] == "punct" and tok[1] == ch

    def expect_atom(self, name: str) -> Token:
        if not self.at_atom(name):
            self.error(f"expected {name!r}, found {self._describe(self.peek())}")
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"expected '.', found {self._describe(tok)}")
        self.next()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok[0] == "eof":
            return "end of input"
        if tok[0] == "var":
            return f"variable {tok[1].text()!r}"
        return repr(str(tok[1]))

    # -- programs and queries

    def parse_program(self) -> SourceProgram:
        items = SourceProgram()
        while self.peek()[0] != "eof":
            items.items.append(self.parse_item())
        return items

    def parse_item(self):
        tok = self.peek()
        if self.at_atom(":-"):
            return self.parse_directive()
        left = self.parse_term(999)
        if self.at_atom("::"):
            head = self.parse_rho_tail(left, allow_negative=False)
            body: tuple = ()
            if self.at_atom(":-"):
                self.next()
                body = self.parse_body()
            self.expect_end()
            self._validate_rho_clause(head, body, tok)
            return RhoClause(head, body, line=self.line_of(tok))
        if self.at_atom(":="):
            self.next()
            strategy = self.parse_operand(999)
            self.expect_end()
            if not (isinstance(left, Apply) and isinstance(left.head, str)):
                self.error("abbreviation name must be a symbol-headed term", tok)
            self._reject_holes(left, tok)
            self._reject_holes(strategy, tok)
            return Abbreviation(left, strategy, line=self.line_of(tok))
        if self.at_atom(":-"):
            self.next()
            body = self.parse_body()
            self.expect_end()
            return self._pred_clause(left, body, tok)
        if self.peek()[0] == "end":
            self.next()
            return self._pred_clause(left, (), tok)
        self.error(f"expected '::', ':=', ':-' or '.' after clause head, "
                   f"found {self._describe(self.peek())}")

    def _pred_clause(self, head, body, tok) -> PredClause:
        if not (isinstance(head, Apply) and isinstance(head.head, str)):
            self.error("predicate clause head must be a symbol-headed term", tok)
        self._reject_holes(head, tok)
        return PredClause(head, body, line=self.line_of(tok))

    def _validate_rho_clause(self, head: RhoLiteral, body, tok) -> None:
        strategy = head.strategy
        if not (isinstance(strategy, Apply) and isinstance(strategy.head, str)):
            self.error("a clause head strategy must be a symbol-headed term", tok)

    def parse_directive(self):
        tok = self.expect_atom(":-")
        term = self.parse_operand(1200)
        self.expect_end()
        if not isinstance(term, Apply) or isinstance(term.head, Var):
            self.error("malformed directive", tok)
        if term.head == "op":
            return self._op_directive(term, tok)
        if term.head == "mode":
            return self._mode_directive(term, tok)
        self.error(f"unsupported directive {term.head!r}", tok)

    def _op_directive(self, term: Apply, tok: Token) -> OpDirective:
        args = list(term.args)
        if len(args) != 3:
            self.error("op/3 takes priority, fixity, and name", tok)
        prio_t, fix_t, name_t = args
        prio = _atom_int(prio_t)
        fixity = _atom_name(fix_t)
        name = _atom_name(name_t)
        if prio is None or fixity not in FIXITIES or name is None:
            self.error("malformed op/3 directive", tok)
        try:
            self.table.declare(prio, fixity, name)
        except ValueError as exc:
            self.error(str(exc), tok)
        return OpDirective(prio, fixity, name, line=self.line_of(tok))

    def _mode_directive(self, term: Apply, tok: Token) -> ModeDirective:
        args = list(term.args)
        if len(args) != 1 or not isinstance(args[0], Apply) \
                or not isinstance(args[0].head, str):
            self.error("mode/1 takes a predicate template like p(+, -)", tok)
        template = args[0]
        spec = []
        for arg in template.args:
            name = _atom_name(arg)
            if name not in ("+", "-"):
                self.error("mode argument positions must be + or -", tok)
            spec.append(name)
        return ModeDirective(template.head, tuple(spec), line=self.line_of(tok))

    def parse_body(self) -> tuple:
        literals = [self.parse_literal()]
        while self.at_punct(","):
            self.next()
            literals.append(self.parse_literal())
        return tuple(literals)

    def parse_query(self) -> Query:
        literals = self.parse_body()
        if self.peek()[0] == "end":
            self.next()
        if self.peek()[0] != "eof":
            self.error(f"unexpected {self._describe(self.peek())} after query")
        return literals

    def parse_literal(self):
        tok = self.peek()
        if self.at_atom("!"):
            self.next()
            return CutLiteral()
        left = self.parse_term(999)
        if self.at_atom("::"):
            return self.parse_rho_tail(left, allow_negative=True)
        if isinstance(left, Hedge):
            self.error("a hedge is not a literal", tok)
        if not (isinstance(left, Apply) and isinstance(left.head, str)):
            self.error("expected a predicate call or a '::' literal", tok)
        self._reject_holes(left, tok)
        return PredLiteral(left)

    def parse_rho_tail(self, strategy, allow_negative: bool) -> RhoLiteral:
        tok = self.expect_atom("::")
        if isinstance(strategy, Hedge) or \
                isinstance(strategy, Var) and strategy.kind == "s":
            self.error("the strategy of a '::' literal must be a term", tok)
        self._reject_holes(strategy, tok)
        lhs_tok = self.peek()
        lhs = self.parse_hedge()
        self._reject_holes(lhs, lhs_tok)
        negative = False
        if self.at_atom("==>"):
            self.next()
        elif self.at_atom("=\\=>"):
            if not allow_negative:
                self.error("=\\=> cannot appear in a clause head")
            self.next()
            negative = True
        else:
            self.error(f"expected '==>' or '=\\=>', found {self._describe(self.peek())}")
        rhs_tok = self.peek()
        rhs = self.parse_hedge()
        self._reject_holes(rhs, rhs_tok)
        return RhoLiteral(strategy, lhs, rhs, negative)

    def _reject_holes(self, value, tok) -> None:
        if value.holes:
            self.error("the hole constant cannot occur in rules or queries", tok)

    # -- hedges and terms

    def parse_hedge(self) -> Hedge:
        elem = self.parse_term(999)
        return elem if isinstance(elem, Hedge) else singleton(elem)

    def parse_operand(self, maxp: int):
        tok = self.peek()
        value = self.parse_term(maxp)
        if isinstance(value, Hedge):
            self.error("a hedge cannot stand where a term is required", tok)
        return value

    def parse_term(self, maxp: int):
        """A term, or a hedge element that is a nested hedge, of priority <= ``maxp``."""
        tokens, pos, stack = self.tokens, self.pos, []
        table = self.table
        while True:
            # A primary: a complete operand, or a frame pushed to parse inside.
            tok = tokens[pos]
            kind, value = tok[0], tok[1]
            opens = False
            if kind == "atom":
                pos += 1
                after = tokens[pos]
                if after[1] == "(" and after[0] == "punct":
                    if value == "eps" and not tok[3]:
                        self.error("eps denotes the empty hedge and takes no arguments", tok)
                    opens = True
                elif value == "eps" and not tok[3]:
                    left = EMPTY_HEDGE
                elif value == "-" and after[0] == "number":
                    pos += 1
                    left = symbol_apply(str(-after[1]), EMPTY_HEDGE)
                else:
                    entry = table.prefix(value)
                    if entry is not None and entry[0] <= maxp and self._starts_term(after):
                        prio, fixity = entry
                        stack.append((_OPERATOR, value, None, prio, maxp, after))
                        maxp = prio if fixity == "fy" else prio - 1
                        continue
                    left = symbol_apply(value, EMPTY_HEDGE)
            elif kind == "var":
                pos += 1
                after = tokens[pos]
                if after[1] == "(" and after[0] == "punct":
                    opens = True
                elif value.kind == "i" or value.kind == "s":
                    left = value
                elif value.kind == "f":
                    left = Apply(value)
                else:
                    self.error("a context variable must be applied to a term", tok)
            elif kind == "number":
                pos += 1
                left = symbol_apply(str(value), EMPTY_HEDGE)
            elif kind == "punct" and value == "(":
                opens, value = True, None
            else:
                self.error(f"expected a term, found {self._describe(tok)}", tok)
            if opens:
                pos += 1
                after = tokens[pos]
                if after[1] == ")" and after[0] == "punct":
                    pos += 1
                    left = self._close_group(value, tok, [])
                else:
                    stack.append((_GROUP, value, tok, [], maxp))
                    maxp = 999
                    continue
            left_prio = 0

            # Infix and postfix operators, then frames completed by ``left``.
            while True:
                tok = tokens[pos]
                if tok[0] == "atom":
                    entry = table.infix(tok[1])
                    if entry is not None:
                        prio, fixity = entry
                        if prio <= maxp and left_prio <= (prio if fixity == "yfx" else prio - 1):
                            if isinstance(left, Hedge):
                                self.error("a hedge cannot be an operator argument", tok)
                            pos += 1
                            stack.append((_OPERATOR, tok[1], left, prio, maxp, tokens[pos]))
                            maxp = prio if fixity == "xfy" else prio - 1
                            break
                    entry = table.postfix(tok[1])
                    if entry is not None:
                        prio, fixity = entry
                        if prio <= maxp and left_prio <= (prio - 1 if fixity == "xf" else prio):
                            if isinstance(left, Hedge):
                                self.error("a hedge cannot be an operator argument", tok)
                            pos += 1
                            left = symbol_apply(tok[1], singleton(left))
                            left_prio = prio
                            continue
                if not stack:
                    self.pos = pos
                    return left
                frame = stack.pop()
                if frame[0] is _OPERATOR:
                    _, name, first, left_prio, maxp, operand_tok = frame
                    if isinstance(left, Hedge):
                        self.error("a hedge cannot stand where a term is required", operand_tok)
                    if first is None:
                        left = symbol_apply(name, singleton(left))
                    else:
                        left = symbol_apply(name, flat_hedge(
                            (first, left), first.ground and left.ground,
                            first.holes + left.holes))
                    continue
                elems = frame[3]
                elems.append(left)
                if tok[1] == "," and tok[0] == "punct":
                    pos += 1
                    stack.append(frame)
                    maxp = 999
                    break
                if tok[1] != ")" or tok[0] != "punct":
                    self.error(f"expected ')', found {self._describe(tok)}", tok)
                pos += 1
                left = self._close_group(frame[1], frame[2], elems)
                left_prio, maxp = 0, frame[4]

    def _close_group(self, head, tok: Token, elems: list):
        """The value of ``head(elems)``, or of ``(elems)`` when ``head`` is None."""
        if head is None:
            if len(elems) == 1 and not isinstance(elems[0], Hedge):
                return elems[0]
            return Hedge(elems)
        args = Hedge(elems)
        if isinstance(head, Var):
            if head.kind == "f":
                return Apply(head, args)
            if head.kind == "c":
                if len(args) != 1 or isinstance(args[0], Var) and args[0].kind == "s":
                    self.error("a context variable applies to exactly one term", tok)
                return Apply(head, args)
            self.error(f"{head.text()} cannot take arguments", tok)
        if head == HOLE_NAME:
            self.error("hole never takes arguments", tok)
        return symbol_apply(head, args)

    def _starts_term(self, tok: Token) -> bool:
        if tok[0] == "atom":
            return self.table.infix(tok[1]) is None or tok[1] == "-"
        return tok[0] in ("number", "var") or tok[0] == "punct" and tok[1] == "("


def parse_program(text: str, table: Optional[OperatorTable] = None
                  ) -> Tuple[SourceProgram, OperatorTable]:
    """Parse a program, returning its items and the final operator table."""
    parser = Parser(text, table)
    return parser.parse_program(), parser.table


def parse_query(text: str, table: Optional[OperatorTable] = None) -> Query:
    return Parser(text, table).parse_query()


def parse_term(text: str, table: Optional[OperatorTable] = None):
    """Parse a single term or parenthesized hedge (no trailing period needed)."""
    parser = Parser(text, table)
    value = parser.parse_term(999)
    if parser.peek()[0] == "end":
        parser.next()
    if parser.peek()[0] != "eof":
        parser.error(f"unexpected {parser._describe(parser.peek())} after term")
    return value


def parse_hedge(text: str, table: Optional[OperatorTable] = None) -> Hedge:
    value = parse_term(text, table)
    return value if isinstance(value, Hedge) else singleton(value)


# ---------------------------------------------------------------------------
# Printer

_UNQUOTED_ALPHA = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_NUMERAL = re.compile(r"-?[0-9]+\Z")
_VAR_LIKE = re.compile(r"[iscf]_")


def format_value(value, table: Optional[OperatorTable] = None) -> str:
    """Render a term, hedge, or binding mapping (such as a matcher) as source text."""
    table = table if table is not None else default_operators()
    if isinstance(value, Hedge):
        return format_hedge(value, table)
    if isinstance(value, (Var, Apply)):
        return _format_term(value, table, 1200)
    if isinstance(value, dict):
        inner = ", ".join(
            f"{var.text()} -> {format_value(img, table)}"
            for var, img in sorted(value.items(), key=lambda kv: (kv[0].kind, kv[0].name)))
        return "{" + inner + "}"
    raise TypeError(f"cannot format {value!r}")


def format_hedge(h: Hedge, table: Optional[OperatorTable] = None) -> str:
    table = table if table is not None else default_operators()
    items = h.items
    if not items:
        return "eps"
    if len(items) == 1:
        return _format_term(items[0], table, 999)
    return _render(_in_parens(items), table)


def _format_term(t, table: OperatorTable, maxp: int) -> str:
    return _render([(t, maxp)], table)


def _in_parens(items) -> list:
    """Work for ``(e1, ..., en)``, next item last."""
    work = [")"]
    for k in range(len(items) - 1, 0, -1):
        work += ((items[k], 999), ", ")
    work += ((items[0], 999), "(")
    return work


def _render(work: list, table: OperatorTable) -> str:
    """The text of ``work``, a stack whose next item is last.

    A string item is written as it is, a ``(term, maxp)`` item as the term's
    text at priority at most ``maxp``, in parentheses if its operator binds
    more loosely.  Arguments come at priority 999; a sequence variable is a
    term here.  The stack stands in for recursion, so any depth prints.
    """
    out = []
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, maxp = item
        if isinstance(t, Var):
            out.append(t.text())
            continue
        head = t.head
        args = t.args.items
        if isinstance(head, str) and 1 <= len(args) <= 2:
            entry = table.infix(head) if len(args) == 2 else table.prefix(head)
            if entry is not None:
                prio, fixity = entry
                if prio > maxp:
                    out.append("(")
                    work.append(")")
                if len(args) == 2:
                    work += ((args[1], prio if fixity == "xfy" else prio - 1), f" {head} ",
                             (args[0], prio - 1 if fixity in ("xfx", "xfy") else prio))
                else:
                    out.append(f"{head} ")
                    work.append((args[0], prio if fixity == "fy" else prio - 1))
                continue
        out.append(head.text() if isinstance(head, Var) else _atom_text(head))
        if args:
            work += _in_parens(args)
    return "".join(out)


def _atom_text(name: str) -> str:
    if _NUMERAL.match(name) or name in ("!", ";", "[]"):
        return name
    if name == "eps":  # would re-read as the empty hedge
        return "'eps'"
    if _UNQUOTED_ALPHA.match(name) and not _VAR_LIKE.match(name):
        return name
    if name and all(c in _SYMBOL_CHARS for c in name):
        return name
    return "'" + name.replace("'", "''") + "'"


def format_literal(lit, table: Optional[OperatorTable] = None) -> str:
    table = table if table is not None else default_operators()
    if isinstance(lit, RhoLiteral):
        return (f"{_format_term(lit.strategy, table, 999)} :: "
                f"{format_hedge(lit.lhs, table)} {lit.arrow} "
                f"{format_hedge(lit.rhs, table)}")
    if isinstance(lit, PredLiteral):
        return _format_term(lit.term, table, 999)
    if isinstance(lit, CutLiteral):
        return "!"
    return repr(lit)


def _atom_name(t) -> Optional[str]:
    if isinstance(t, Apply) and not t.args and isinstance(t.head, str):
        return t.head
    return None


def _atom_int(t) -> Optional[int]:
    name = _atom_name(t)
    if name is not None and _NUMERAL.match(name):
        return int(name)
    return None
