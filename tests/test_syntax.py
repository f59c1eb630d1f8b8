"""Parser and printer: documented forms, diagnostics, round-trips, agreement
with the replaced front end, and nesting depth."""

import random
from pathlib import Path

import pytest

from rholog import syntax
from rholog.program import (
    Abbreviation,
    CutLiteral,
    OpDirective,
    PredClause,
    PredLiteral,
    RhoClause,
    RhoLiteral,
)
from rholog.syntax import (
    ParseError,
    format_hedge,
    format_value,
    parse_hedge,
    parse_program,
    parse_query,
    parse_term,
    tokenize,
)
from rholog.terms import Apply, Hedge, singleton

import syntax_oracle as oracle
from conftest import DEEP, a, anon, cv, fv, h, iv, sv


class TestParseProgram:
    def test_single_fact(self):
        prog, _ = parse_program("str1 :: (s_1, a, s_2) ==> (s_1, f(a), s_2).")
        assert len(prog) == 1
        clause = prog.items[0]
        assert isinstance(clause, RhoClause)
        assert clause.head.strategy == a("str1")
        assert clause.head.lhs == h(sv("1"), a("a"), sv("2"))
        assert clause.head.rhs == h(sv("1"), a("f", a("a")), sv("2"))
        assert clause.body == ()

    def test_operator_directive_scopes_rest_of_file(self):
        prog, table = parse_program(":- op(200, xfy, v).\np :: (a v b) ==> eps.")
        directive, clause = prog.items
        assert directive == OpDirective(200, "xfy", "v", line=1)
        assert clause.head.lhs == singleton(a("v", a("a"), a("b")))
        assert table.infix("v") == (200, "xfy")

    def test_abbreviation_item(self):
        prog, _ = parse_program("flatten := nf(flatten_one).")
        item = prog.items[0]
        assert isinstance(item, Abbreviation)
        assert item.name == a("flatten")
        assert item.strategy == a("nf", a("flatten_one"))

    def test_empty_program(self):
        prog, _ = parse_program("")
        assert len(prog) == 0

    def test_conditional_clause_and_order(self):
        text = """
        one :: a ==> b.
        two(i_S) :: i_X ==> i_Y :- i_S :: i_X ==> i_Y, !.
        p(a).
        """
        prog, _ = parse_program(text)
        kinds = [type(item) for item in prog.items]
        assert kinds == [RhoClause, RhoClause, PredClause]
        body = prog.items[1].body
        assert isinstance(body[0], RhoLiteral) and isinstance(body[1], CutLiteral)

    def test_comments_ignored(self):
        prog, _ = parse_program("% nothing here\nq :: a ==> a. % trailing\n")
        assert len(prog) == 1

    def test_anonymous_variables_are_fresh_per_occurrence(self):
        prog, _ = parse_program("w :: (s_, i_X, s_) ==> true.")
        lhs = prog.items[0].head.lhs
        first, _, second = lhs.items
        assert first.anon and second.anon and first != second

    def test_mode_directive(self):
        prog, _ = parse_program(":- mode(lookup(+, -)).\n")
        item = prog.items[0]
        assert item.name == "lookup" and item.spec == ("+", "-")


class TestParseQuery:
    def test_positive_literal(self):
        (lit,) = parse_query("str1 :: (a, b, a, f(a)) ==> s_X")
        assert isinstance(lit, RhoLiteral) and not lit.negative
        assert lit.rhs == singleton(sv("X"))

    def test_negative_literal_with_anonymous_output(self):
        (lit,) = parse_query("str2 :: i_X =\\=> i_")
        assert lit.negative
        assert lit.rhs[0].anon

    def test_literal_then_cut(self):
        lits = parse_query("rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X, !")
        assert isinstance(lits[0], RhoLiteral)
        assert isinstance(lits[1], CutLiteral)
        assert lits[0].strategy == a("rewrite", a("strat"))

    def test_builtin_literals(self):
        lits = parse_query("i_X is 2 + 3, i_X < 6, write(i_X), nl")
        assert all(isinstance(l, PredLiteral) for l in lits)
        assert lits[0].name == "is"

    def test_trailing_period_optional(self):
        assert parse_query("id :: a ==> a.") == parse_query("id :: a ==> a")


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "p :: a ==> .",                 # missing hedge
        "p :: a ==> b",                 # missing final period
        "hole(x) :: a ==> b.",          # reserved symbol with arguments
        "p :: hole ==> a.",             # hole inside a rule hedge
        "p :: a =\\=> b.",              # negative arrow in a head
        "X :: a ==> b.",                # host-language variable
        "p :: a ==> b :- q :: (c ==> d.",   # unbalanced
        "i_X(a) :: a ==> b.",           # individual variable applied
        ":- op(2000, xfy, vv).",        # priority out of range
        ":- nonsense(1).",              # unsupported directive
        "eps(a) :: a ==> b.",           # eps with arguments
        "s_X :: a ==> b.",              # sequence variable as strategy
        "p(s_X) :: a ==> i_Y :- s_X :: a ==> i_Y.",
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_program(bad)

    @pytest.mark.parametrize("char", ["\u00b2", "\u2460"])
    def test_digit_int_cannot_read(self, char):
        # str.isdigit accepts '²' and '①', int() does not: neither may
        # start a numeral.
        with pytest.raises(ParseError, match="unexpected character"):
            parse_query(f"id :: {char} ==> i_X")

    def test_error_carries_position(self):
        try:
            parse_program("p ::\n  hole ==> a.")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a parse error")

    def test_conflicting_operator_redeclaration(self):
        with pytest.raises(ParseError):
            parse_program(":- op(200, xfy, v).\n:- op(300, xfx, v).")


class TestVariablePrefixes:
    def test_kinds_follow_prefixes(self):
        term = parse_term("q(i_A, s_B, f_C, c_D(a), f_E(b))")
        args = term.args
        assert args[0] == iv("A")
        assert args[1] == sv("B")
        assert args[2] == Apply(fv("C"))          # bare f_C is f_C(eps)
        assert args[3] == Apply(cv("D"), singleton(a("a")))
        assert args[4] == Apply(fv("E"), singleton(a("b")))

    def test_bare_context_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_term("q(c_D)")

    def test_anonymous_function_and_context_variables(self):
        term = parse_term("q(f_, c_(a))")
        assert term.args[0].head.anon and term.args[0].head.kind == "f"
        assert term.args[1].head.anon and term.args[1].head.kind == "c"


class TestPrinter:
    def test_plain_application(self):
        assert format_value(parse_term("f(g(a), b)")) == "f(g(a), b)"

    def test_hedges(self):
        assert format_hedge(parse_hedge("(f(a), b)")) == "(f(a), b)"
        assert format_hedge(Hedge()) == "eps"
        assert format_hedge(singleton(a("a"))) == "a"

    def test_infix_printing_respects_table(self):
        _, table = parse_program(":- op(200, xfy, v).")
        assert format_value(parse_term("p v q v r", table), table) == "p v q v r"
        assert format_value(parse_term("-(p) v p", table), table) == "-(p) v p"
        assert format_value(parse_term("(p v q) v r", table), table) == "(p v q) v r"

    def test_arithmetic_parenthesization(self):
        t = parse_term("(2 + 3) * 4")
        assert format_value(t) == "(2 + 3) * 4"
        assert format_value(parse_term("2 + 3 * 4")) == "2 + 3 * 4"

    def test_quoting(self):
        assert format_value(a("Weird name")) == "'Weird name'"
        assert format_value(a("eps")) == "'eps'"
        assert format_value(a("i_trap")) == "'i_trap'"

    def test_substitution_display(self):
        sigma = {sv("Y"): h(a("a"), a("b"))}
        assert format_value(sigma) == "{s_Y -> (a, b)}"

    def test_all_seven_fixities_round_trip(self):
        _, table = parse_program(
            ":- op(300, xfx, eq).\n:- op(400, yfx, plusish).\n"
            ":- op(200, xfy, v).\n:- op(100, fy, notish).\n"
            ":- op(100, fx, boxish).\n:- op(150, xf, bangish).\n"
            ":- op(150, yf, starish).\n")
        for text in ("notish notish p", "boxish p", "p bangish",
                     "p starish starish", "a eq b",
                     "a plusish b plusish c", "notish p v q"):
            value = parse_term(text, table)
            assert parse_term(format_value(value, table), table) == value, text
        assert parse_term("notish p v q", table) == \
            a("v", a("notish", a("p")), a("q"))


class TestRoundTrip:
    def test_documented_values(self):
        for text in ["f(g(a), b)", "(f(a), b, a, f(a))", "eps",
                     "c_X(f(s_Y))", "(s_X, f_F(i_X, a, s_Y), s_Z)",
                     "h(f(f(a)), f(a))", "i_X -> i_Y", "-3", "-(p)"]:
            value = parse_term(text)
            assert parse_term(format_value(value)) == value

    def test_random_terms(self):
        rng = random.Random(11)
        from conftest import random_pattern
        for _ in range(300):
            value = random_pattern(rng)
            text = format_hedge(value)
            assert parse_hedge(text) == value or _anon_free(value)

    def test_order_preserved(self):
        text = "z :: a ==> b. y :: a ==> c. z :: a ==> d."
        prog, _ = parse_program(text)
        heads = [item.head.strategy.head for item in prog.items]
        assert heads == ["z", "y", "z"]


def _anon_free(value):
    from rholog.terms import vars_of
    return any(v.anon for v in vars_of(value))


# ---------------------------------------------------------------------------
# Differential tests against the replaced front end (tests/syntax_oracle.py)

#: Layout, quotes, comments, ends, symbol characters, and characters on
#: which ``str`` predicates and a regex could disagree: NBSP and ``\x1c`` are
#: whitespace, ``é`` a letter, ``²``/``①`` non-decimal digits, and ``Ⅻ``
#: upper case but no letter.
_CHARS = list("abfiscg_XZ019 \n\r\t'%.(),!;+-*/\\^<>=~:?@#&$") + \
    ["\u00a0", "\x1c", "\u00e9", "\u00b2", "\u2460", "\u216b"]

_CORPUS = sorted((Path(syntax.__file__).parent / "corpus").rglob("*.rholog"))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.col


def _tokens(text):
    return [(kind, value, *syntax._position(text, offset), quoted)
            for kind, value, offset, quoted in tokenize(text)]


def _oracle_tokens(text):
    return [(t.type, t.value, t.line, t.col, t.quoted) for t in oracle.tokenize(text)]


def _assert_same_tokens(text):
    new, old = _outcome(_tokens, text), _outcome(_oracle_tokens, text)
    if new[0] == old[0] == "ok":
        # The one deliberate change: eof after a trailing comment sits past
        # the comment, not on its '%'.
        last_line = text[text.rfind("\n") + 1:]
        assert new[1][-1] == ("eof", None, *syntax._position(text, len(text)), False)
        if "%" not in last_line:
            assert new[1][-1] == old[1][-1], text
        new, old = new[1][:-1], old[1][:-1]
    assert new == old, repr(text)


class TestTokenizerOracle:
    def test_random_strings(self):
        rng = random.Random(7)
        for _ in range(6000):
            _assert_same_tokens("".join(rng.choice(_CHARS)
                                        for _ in range(rng.randint(0, 24))))

    @pytest.mark.parametrize("path", _CORPUS, ids=lambda p: p.name)
    def test_corpus_file(self, path):
        _assert_same_tokens(path.read_text(encoding="utf-8"))

    def test_eof_after_trailing_comment_is_past_it(self):
        text = "p :: a ==> b.\nq. % last"
        assert _oracle_tokens(text)[-1][2:4] == (2, 4)
        assert _tokens(text)[-1][2:4] == (2, 10)

    def test_one_var_object_per_name_and_fresh_anonymous(self):
        tokens = tokenize("p :: (i_X, i_, i_X, i_) ==> i_X.")
        named = [v for kind, v, _, _ in tokens if kind == "var" and not v.anon]
        anon = [v for kind, v, _, _ in tokens if kind == "var" and v.anon]
        assert len(named) == 3 and all(v is named[0] for v in named)
        assert len(anon) == 2 and anon[0] != anon[1]


# Error-prone choices (bare c_C, hole, i_X(...)) come once, common ones thrice.
_LEAVES = ["a", "b", "p", "i_X", "s_Y", "s_", "1", "f_F", "'q r'", "v"] * 3 + \
    ["eps", "'eps'", "hole", "-", "23", "i_", "f_", "c_C", "notish", "bang", "mod", "boxish"]
_HEADS = ["f", "g", "p", "f_F", "c_"] * 3 + ["c_C", "i_X", "s_Y", "hole", "eps", "-", "notish"]
_INFIX = ["+", "-", "*", "mod", "is", "<", "->", "v", "v", "bang", "starish", "notish"]
_PREFIX = ["-", "notish", "notish", "boxish", "+", "bang", "v"]
#: Operator tables to start from: the default one, and the default one plus
#: declarations with distinct priorities or with a shared one.
_TABLES = {"default": "", "distinct": "200 xfy v, 100 fy notish, 100 fx boxish, "
           "150 xf bang, 150 yf starish", "shared": "200 xfy v, 200 fy notish, "
           "200 fx boxish, 200 xf bang, 200 yf starish"}
_DIRECTIVES = [":- op(200, xfy, v).", ":- op(100, fy, notish).", ":- op(150, xf, bang).",
               ":- mode(p(+, -))."]


def _random_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(_LEAVES)
    args = ", ".join(_random_term(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    if roll < 0.55:
        return f"{rng.choice(_HEADS)}({args})"
    if roll < 0.7:
        return f"({args})"
    if roll < 0.85:
        return (f"{_random_term(rng, depth - 1)} {rng.choice(_INFIX)} "
                f"{_random_term(rng, depth - 1)}")
    if roll < 0.93:
        return f"{rng.choice(_PREFIX)} {_random_term(rng, depth - 1)}"
    return f"{_random_term(rng, depth - 1)} {rng.choice(['bang', 'starish'])}"


def _random_literal(rng):
    roll = rng.random()
    if roll < 0.1:
        return "!"
    if roll < 0.3:
        return _random_term(rng, 2)
    arrow = "=\\=>" if roll < 0.4 else "==>"
    return (f"{_random_term(rng, 1)} :: {_random_term(rng, 3)} {arrow} "
            f"{_random_term(rng, 3)}")


def _random_item(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(_DIRECTIVES)
    if roll < 0.2:
        return f"{_random_term(rng, 2)} := {_random_term(rng, 2)}."
    body = ", ".join(_random_literal(rng) for _ in range(rng.randint(0, 2)))
    if roll < 0.4:
        return f"{_random_term(rng, 2)}{' :- ' + body if body else ''}."
    return f"{_random_literal(rng)}{' :- ' + body if body else ''}."


def _mutate(rng, text):
    """Delete, duplicate or insert one character, now and then."""
    if text and rng.random() < 0.3:
        i = rng.randrange(len(text))
        roll = rng.random()
        if roll < 0.4:
            return text[:i] + text[i + 1:]
        if roll < 0.7:
            return text[:i] + text[i] + text[i:]
        return text[:i] + rng.choice("(),.'% \n") + text[i:]
    return text


def _program(text, table, parse=syntax.parse_program):
    items, table = parse(text, table)
    return [(item, item.line) for item in items.items], table._entries


_ORACLE = {_program: lambda text, table: _program(text, table, oracle.parse_program),
           syntax.parse_query: oracle.parse_query,
           syntax.parse_term: oracle.parse_term}


def _assert_same_parse(parse, text, table):
    if "%" in text[text.rfind("\n") + 1:]:
        text += "\n"    # so that eof is not placed after a trailing comment
    assert _outcome(parse, text, table.clone()) == \
        _outcome(_ORACLE[parse], text, table.clone()), text


class TestParserOracle:
    @pytest.mark.parametrize("tables", list(_TABLES))
    def test_random_texts(self, tables):
        rng = random.Random(f"parser oracle {tables}")
        _, base = syntax.parse_program(" ".join(
            f":- op({decl.replace(' ', ', ')})." for decl in _TABLES[tables].split(", ") if decl))
        for _ in range(1200):
            sep = rng.choice([" ", "\n"])
            program = _mutate(rng, sep.join(_random_item(rng)
                                            for _ in range(rng.randint(1, 4))))
            _assert_same_parse(_program, program, base)
            query = _mutate(rng, ", ".join(_random_literal(rng)
                                           for _ in range(rng.randint(1, 3))))
            _assert_same_parse(syntax.parse_query, query, base)
            _assert_same_parse(syntax.parse_term, _mutate(rng, _random_term(rng, 4)), base)

    @pytest.mark.parametrize("path", _CORPUS, ids=lambda p: p.name)
    def test_corpus_file(self, path):
        _assert_same_parse(_program, path.read_text(encoding="utf-8"),
                           syntax.default_operators())


# ---------------------------------------------------------------------------
# Differential tests against the replaced printer (tests/syntax_oracle.py)

#: Every fixity, at priorities below, at and above the argument priority
#: 999, some shared; ``-`` and ``bang`` are both infix and prefix.
_PRINT_TABLE = ("100 xfy v, 100 fy notish, 200 fx boxish, 150 xf bang, 150 yf starish, "
                "999 xfx eq, 1000 xfy then, 1200 fx top, 999 fy neg, 200 fy -, "
                "300 fx bang, 700 yfx sep")
_PRINT_INFIX = ["v", "eq", "then", "sep", "bang", "starish", "+", "-", "*", "mod", "is", "->"]
_PRINT_PREFIX = ["notish", "boxish", "top", "neg", "-", "bang", "v", "+"]
_PRINT_HEADS = ["a", "b", "eps", "q r", "it's", "-", "23", "-7", "[]", "!", ";",
                "i_x", "Up", "", "+", "=\\="]
_PRINT_ATOMS = _PRINT_HEADS + ["hole"]


def _print_table():
    _, table = syntax.parse_program(" ".join(
        f":- op({decl.replace(' ', ', ')})." for decl in _PRINT_TABLE.split(", ")))
    return table


def _random_value(rng, depth, element=False):
    """A random term, or with ``element`` a hedge element, to print."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if roll < 0.08:
            return rng.choice([iv("X"), sv("Y") if element else iv("_Z"), anon("i", 1)])
        return a(rng.choice(_PRINT_ATOMS))
    if roll < 0.5:
        return a(rng.choice(_PRINT_INFIX), _random_value(rng, depth - 1),
                 _random_value(rng, depth - 1))
    if roll < 0.7:
        return a(rng.choice(_PRINT_PREFIX), _random_value(rng, depth - 1))
    if roll < 0.78:
        return Apply(rng.choice([fv("F"), cv("C")]), singleton(_random_value(rng, depth - 1)))
    args = [_random_value(rng, depth - 1, True) for _ in range(rng.randint(1, 3))]
    return a(rng.choice(_PRINT_HEADS), *args)


class TestPrinterOracle:
    @pytest.mark.parametrize("name", ["default", "all fixities"])
    def test_random_terms_and_hedges(self, name):
        table = syntax.default_operators() if name == "default" else _print_table()
        rng = random.Random(f"printer oracle {name}")
        for _ in range(2000):
            t = _random_value(rng, 5)
            assert format_value(t, table) == oracle.format_value(t, table), repr(t)
            hedge = Hedge(_random_value(rng, 3, True) for _ in range(rng.randint(0, 3)))
            assert format_hedge(hedge, table) == oracle.format_hedge(hedge, table)
            assert format_value(hedge, table) == oracle.format_value(hedge, table)
            matcher = {iv("A"): t, sv("B"): hedge, fv("C"): a("g")}
            assert format_value(matcher, table) == oracle.format_value(matcher, table)

    def test_every_operator_is_printed(self):
        # The random values reach each operator both at and above its priority.
        table = _print_table()
        rng = random.Random("printer oracle all fixities")
        text = " ".join(format_value(_random_value(rng, 5), table) for _ in range(2000))
        for name in ["v", "eq", "then", "sep", "notish", "boxish", "top", "neg"]:
            assert f"({name} " in text or f" {name} " in text, name
        assert "(notish " in text and "(a v " in text


# ---------------------------------------------------------------------------
# Nesting depth costs no Python recursion

def _spine(value, name, arity, position):
    """Follow argument ``position`` of ``name``-applications of ``arity``;
    return how many there were and the value below them."""
    depth = 0
    while isinstance(value, Apply) and value.head == name and len(value.args) == arity:
        value = value.args[position]
        depth += 1
    return depth, value


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepNesting:
    def test_deep_application_in_a_program(self):
        prog, _ = parse_program(f"id :: {'f(' * DEEP}a{')' * DEEP} ==> a.")
        depth, leaf = _spine(prog.items[0].head.lhs[0], "f", 1, 0)
        assert depth == DEEP and leaf.head == "a" and not leaf.args

    def test_deep_parentheses(self):
        value = parse_term("(" * DEEP + "a" + ")" * DEEP)
        assert isinstance(value, Apply) and value.head == "a" and not value.args

    def test_deep_prefix_chain(self):
        _, table = parse_program(":- op(100, fy, notish).")
        value = parse_term("notish " * DEEP + "a", table)
        depth, leaf = _spine(value, "notish", 1, 0)
        assert depth == DEEP and leaf.head == "a" and not leaf.args

    def test_deep_right_nested_infix_chain(self):
        _, table = parse_program(":- op(200, xfy, v).")
        value = parse_term(" v ".join(["a"] * (DEEP + 1)), table)
        depth, leaf = _spine(value, "v", 2, 1)
        assert depth == DEEP and leaf.head == "a" and not leaf.args

    def test_deep_application_prints(self):
        t = a("a")
        for _ in range(DEEP):
            t = a("f", t)
        assert format_value(t) == "f(" * DEEP + "a" + ")" * DEEP

    def test_deep_right_nested_infix_chain_prints(self):
        _, table = parse_program(":- op(200, xfy, v).")
        t = a("a")
        for _ in range(DEEP):
            t = a("v", a("a"), t)
        assert format_value(t, table) == " v ".join(["a"] * (DEEP + 1))

    def test_deep_left_nested_infix_chain_prints(self):
        t = a("a")
        for _ in range(DEEP):
            t = a("+", t, a("a"))
        assert format_hedge(h(t, a("b"))) == "(" + " + ".join(["a"] * (DEEP + 1)) + ", b)"

    def test_deep_prefix_chain_prints(self):
        _, table = parse_program(":- op(100, fy, notish).")
        t = a("a")
        for _ in range(DEEP):
            t = a("notish", t)
        assert format_value(t, table) == "notish " * DEEP + "a"
