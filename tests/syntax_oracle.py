"""Test-only oracle: the character-by-character tokenizer, the recursive
descent parser and the recursive printer that ``rholog.syntax`` replaced.

The regex tokenizer and the explicit-stack parser must give the same
tokens, items, item lines, operator tables and errors (message, line and
column) as these, on any input.  One difference is deliberate: the ``eof``
token after a trailing comment is placed past the comment, where this
tokenizer leaves it at the comment's ``%``.  This parser recurses through
five Python frames per nesting level.  The explicit-stack printer must
give the same text as this one for every value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from rholog.program import (
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
from rholog.syntax import (
    OperatorTable,
    ParseError,
    _atom_int,
    _atom_name,
    _atom_text,
    default_operators,
)
from rholog.terms import (
    EMPTY_HEDGE,
    HOLE_NAME,
    Apply,
    Hedge,
    Var,
    singleton,
)


@dataclass(frozen=True)
class Token:
    type: str            # atom | var | number | punct | end | eof
    value: object
    line: int
    col: int
    quoted: bool = False


_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")


def tokenize(text: str) -> List[Token]:
    # Anonymous variables are numbered per text: clause variables are
    # renamed on activation, so names need only be unique within a text.
    anon_counter = itertools.count()
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def error(msg):
        raise ParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "(),":
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in "!;":
            tokens.append(Token("atom", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    error("unterminated quoted atom")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                if text[j] == "\n":
                    error("newline in quoted atom")
                buf.append(text[j])
                j += 1
            tokens.append(Token("atom", "".join(buf), start_line, start_col, quoted=True))
            col += j - i
            i = j
            continue
        if ch.isdecimal():  # exactly the digits int() reads; not '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("number", int(text[i:j]), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "." and (i + 1 >= n or text[i + 1].isspace() or text[i + 1] == "%"):
            tokens.append(Token("end", ".", start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in _SYMBOL_CHARS:
            j = i
            while j < n and text[j] in _SYMBOL_CHARS:
                j += 1
            tokens.append(Token("atom", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if len(word) >= 2 and word[0] in "iscf" and word[1] == "_":
                kind, rest = word[0], word[2:]
                if rest:
                    tokens.append(Token("var", Var(kind, rest), start_line, start_col))
                else:
                    name = f"~{next(anon_counter)}"
                    tokens.append(Token("var", Var(kind, name, anon=True), start_line, start_col))
            elif word[0].isupper() or word[0] == "_":
                error(f"host-language variables are not supported: {word!r} "
                      "(use i_/s_/f_/c_ prefixed variables)")
            else:
                tokens.append(Token("atom", word, start_line, start_col))
            col += j - i
            i = j
            continue
        error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens


class Parser:
    def __init__(self, text: str, table: Optional[OperatorTable] = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.table = table if table is not None else default_operators()

    # -- token plumbing

    def peek(self) -> Token:
        # ``next`` never moves past the final ``eof`` token.
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.type != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def at_atom(self, name: str) -> bool:
        tok = self.peek()
        return tok.type == "atom" and tok.value == name

    def expect_atom(self, name: str) -> Token:
        if not self.at_atom(name):
            self.error(f"expected {name!r}, found {self._describe(self.peek())}")
        return self.next()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.type != "punct" or tok.value != ch:
            self.error(f"expected {ch!r}, found {self._describe(tok)}")
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.type != "end":
            self.error(f"expected '.', found {self._describe(tok)}")
        self.next()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.type == "eof":
            return "end of input"
        if tok.type == "var":
            return f"variable {tok.value.text()!r}"
        return repr(str(tok.value))

    # -- programs and queries

    def parse_program(self) -> SourceProgram:
        items = SourceProgram()
        while self.peek().type != "eof":
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
            return RhoClause(head, body, line=tok.line)
        if self.at_atom(":="):
            self.next()
            strategy = self.parse_operand(999)
            self.expect_end()
            if not (isinstance(left, Apply) and isinstance(left.head, str)):
                self.error("abbreviation name must be a symbol-headed term", tok)
            self._reject_holes(left, tok)
            self._reject_holes(strategy, tok)
            return Abbreviation(left, strategy, line=tok.line)
        if self.at_atom(":-"):
            self.next()
            body = self.parse_body()
            self.expect_end()
            return self._pred_clause(left, body, tok)
        if self.peek().type == "end":
            self.next()
            return self._pred_clause(left, (), tok)
        self.error(f"expected '::', ':=', ':-' or '.' after clause head, "
                   f"found {self._describe(self.peek())}")

    def _pred_clause(self, head, body, tok) -> PredClause:
        if not (isinstance(head, Apply) and isinstance(head.head, str)):
            self.error("predicate clause head must be a symbol-headed term", tok)
        self._reject_holes(head, tok)
        return PredClause(head, body, line=tok.line)

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
        return OpDirective(prio, fixity, name, line=tok.line)

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
        return ModeDirective(template.head, tuple(spec), line=tok.line)

    def parse_body(self) -> tuple:
        literals = [self.parse_literal()]
        while self.peek().type == "punct" and self.peek().value == ",":
            self.next()
            literals.append(self.parse_literal())
        return tuple(literals)

    def parse_query(self) -> Query:
        literals = self.parse_body()
        if self.peek().type == "end":
            self.next()
        if self.peek().type != "eof":
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
        elem = self.parse_elem()
        if isinstance(elem, Hedge):
            return elem
        return singleton(elem)

    def parse_elem(self):
        """A hedge element: a term, or a nested hedge spliced flat."""
        return self.parse_term(999)

    def parse_operand(self, maxp: int):
        tok = self.peek()
        value = self.parse_term(maxp)
        if isinstance(value, Hedge):
            self.error("a hedge cannot stand where a term is required", tok)
        return value

    def parse_term(self, maxp: int):
        left, left_prio = self.parse_primary(maxp)
        while True:
            tok = self.peek()
            if tok.type != "atom":
                return left
            entry = self.table.infix(tok.value)
            if entry is not None:
                prio, fixity = entry
                left_max = prio - 1 if fixity in ("xfx", "xfy") else prio
                right_max = prio if fixity == "xfy" else prio - 1
                if prio <= maxp and left_prio <= left_max:
                    if isinstance(left, Hedge):
                        self.error("a hedge cannot be an operator argument", tok)
                    self.next()
                    right = self.parse_operand(right_max)
                    left = Apply(tok.value, Hedge((left, right)))
                    left_prio = prio
                    continue
            entry = self.table.postfix(tok.value)
            if entry is not None:
                prio, fixity = entry
                left_max = prio - 1 if fixity == "xf" else prio
                if prio <= maxp and left_prio <= left_max:
                    if isinstance(left, Hedge):
                        self.error("a hedge cannot be an operator argument", tok)
                    self.next()
                    left = Apply(tok.value, singleton(left))
                    left_prio = prio
                    continue
            return left

    def parse_primary(self, maxp: int):
        tok = self.next()
        if tok.type == "number":
            return Apply(str(tok.value)), 0
        if tok.type == "punct" and tok.value == "(":
            return self._parse_group(tok)
        if tok.type == "var":
            return self._parse_var_primary(tok)
        if tok.type == "atom":
            return self._parse_atom_primary(tok, maxp)
        self.error(f"expected a term, found {self._describe(tok)}", tok)

    def _parse_group(self, open_tok: Token):
        if self.peek().type == "punct" and self.peek().value == ")":
            self.next()
            return EMPTY_HEDGE, 0
        elems = [self.parse_elem()]
        while self.peek().type == "punct" and self.peek().value == ",":
            self.next()
            elems.append(self.parse_elem())
        self.expect_punct(")")
        if len(elems) == 1 and not isinstance(elems[0], Hedge):
            return elems[0], 0
        return Hedge(elems), 0

    def _parse_var_primary(self, tok: Token):
        var: Var = tok.value
        if self.peek().type == "punct" and self.peek().value == "(":
            self.next()
            args, _ = self._parse_group(tok)
            if not isinstance(args, Hedge):
                args = singleton(args)
            if var.kind == "f":
                return Apply(var, args), 0
            if var.kind == "c":
                if len(args) != 1 or isinstance(args[0], Var) and args[0].kind == "s":
                    self.error("a context variable applies to exactly one term", tok)
                return Apply(var, args), 0
            self.error(f"{var.text()} cannot take arguments", tok)
        if var.kind in ("i", "s"):
            return var, 0
        if var.kind == "f":
            return Apply(var), 0
        self.error("a context variable must be applied to a term", tok)

    def _parse_atom_primary(self, tok: Token, maxp: int):
        name = tok.value
        if name == "eps" and not tok.quoted:
            if self.peek().type == "punct" and self.peek().value == "(":
                self.error("eps denotes the empty hedge and takes no arguments", tok)
            return EMPTY_HEDGE, 0
        if self.peek().type == "punct" and self.peek().value == "(":
            self.next()
            args, _ = self._parse_group(tok)
            if not isinstance(args, Hedge):
                args = singleton(args)
            if name == HOLE_NAME:
                self.error("hole never takes arguments", tok)
            return Apply(name, args), 0
        if name == "-" and self.peek().type == "number":
            value = self.next().value
            return Apply(str(-value)), 0
        entry = self.table.prefix(name)
        if entry is not None and self._starts_term(self.peek()):
            prio, fixity = entry
            if prio <= maxp:
                arg = self.parse_operand(prio if fixity == "fy" else prio - 1)
                return Apply(name, singleton(arg)), prio
        return Apply(name), 0

    def _starts_term(self, tok: Token) -> bool:
        if tok.type in ("number", "var"):
            return True
        if tok.type == "punct" and tok.value == "(":
            return True
        if tok.type == "atom":
            return self.table.infix(tok.value) is None or tok.value in ("-",)
        return False


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
    value = parser.parse_elem()
    if parser.peek().type == "end":
        parser.next()
    if parser.peek().type != "eof":
        parser.error(f"unexpected {parser._describe(parser.peek())} after term")
    return value


def parse_hedge(text: str, table: Optional[OperatorTable] = None) -> Hedge:
    value = parse_term(text, table)
    return value if isinstance(value, Hedge) else singleton(value)


# ---------------------------------------------------------------------------
# Printer: recursive, about four Python frames per nesting level

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
    if len(h) == 0:
        return "eps"
    if len(h) == 1:
        return _format_elem(h[0], table)
    return "(" + ", ".join(_format_elem(e, table) for e in h) + ")"


def _format_elem(elem, table: OperatorTable) -> str:
    if isinstance(elem, Var):
        return elem.text()
    return _format_term(elem, table, 999)


def _format_term(t, table: OperatorTable, maxp: int) -> str:
    if isinstance(t, Var):
        return t.text()
    head = t.head
    if isinstance(head, str):
        if len(t.args) == 2:
            entry = table.infix(head)
            if entry is not None:
                prio, fixity = entry
                left_max = prio - 1 if fixity in ("xfx", "xfy") else prio
                right_max = prio if fixity == "xfy" else prio - 1
                text = (f"{_format_term(t.args[0], table, left_max)} {head} "
                        f"{_format_term(t.args[1], table, right_max)}")
                return f"({text})" if prio > maxp else text
        if len(t.args) == 1:
            entry = table.prefix(head)
            if entry is not None:
                prio, fixity = entry
                arg_max = prio if fixity == "fy" else prio - 1
                text = f"{head} {_format_term(t.args[0], table, arg_max)}"
                return f"({text})" if prio > maxp else text
    name = head.text() if isinstance(head, Var) else _atom_text(head)
    if not t.args:
        return name
    return name + "(" + ", ".join(_format_elem(a, table) for a in t.args) + ")"
