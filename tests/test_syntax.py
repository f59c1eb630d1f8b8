"""Parser and printer: documented forms, diagnostics, round-trips."""

import random

import pytest

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
)
from rholog.terms import Apply, Hedge, singleton

from conftest import a, cv, fv, h, iv, sv


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
