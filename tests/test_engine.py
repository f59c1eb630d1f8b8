"""Engine semantics: clause selection, backtracking, negation, cut,
built-ins, consulting, and laziness."""

import io
import itertools
import random
import re
import sys

import pytest

from rholog.engine import (
    ClauseIndex,
    CompiledClause,
    ConsultError,
    DepthLimitExceeded,
    ModeError,
    Session,
    _Machine,
    consult,
    consult_text,
)
from rholog.matching import match_hedge
from rholog.program import CutLiteral, PredLiteral, RhoClause, RhoLiteral, SourceProgram, \
    apply_to_literal
from rholog.strategies import Interaction, corpus_path, corpus_source
from rholog.syntax import parse_hedge, parse_program, parse_term
from rholog.terms import HOLE, Apply, Hedge, Var, apply_subst, singleton, symbol_apply

from conftest import DEEP, a, random_ground_hedge, random_instantiation, random_pattern
from test_acceptance import _random_rule_system
from test_terms import _assert_facts_from_children


def hedges(session, query):
    """The sequence of values of the single answer variable."""
    out = []
    for answer in session.solve_text(query):
        (_, value), = answer.pairs
        out.append(value)
    return out


@pytest.fixture()
def elementary():
    return Session(consult_text(corpus_source("examples/strat.rholog")))


class TestClauseSelection:
    def test_two_matchers_of_one_clause(self, elementary):
        got = hedges(elementary, "str1 :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b, a, f(a))"),
                       parse_hedge("(a, b, f(a), f(a))")]

    def test_output_side_constrains_answers(self, elementary):
        answers = list(elementary.solve_text(
            "str1 :: (a, b, a, f(a)) ==> (s_X, f(a), s_Y)"))
        got = [(ans["s_X"], ans["s_Y"]) for ans in answers]
        assert got == [
            (Hedge(), parse_hedge("(b, a, f(a))")),
            (parse_hedge("(f(a), b, a)"), Hedge()),
            (parse_hedge("(a, b)"), parse_hedge("(f(a))")),
            (parse_hedge("(a, b, f(a))"), Hedge()),
        ]

    def test_clause_order_is_source_order(self):
        session = Session(consult_text(
            "pick :: i_X ==> first(i_X).\npick :: i_X ==> second(i_X).\n"))
        got = hedges(session, "pick :: a ==> i_R")
        assert got == [a("first", a("a")), a("second", a("a"))]

    MIXED = """
    pick :: (k(i_X), s_) ==> one(i_X).
    pick :: (s_, k(s_X), s_) ==> two(s_X).
    pick :: i_X ==> three(i_X).
    pick :: (m, s_) ==> four.
    pick :: (f_F(s_), s_) ==> f_F(five).
    pick :: eps ==> six.
    pick :: s_X ==> seven(s_X).
    pick :: (k(b), s_) ==> eight.
    :- mode(pk(+, -)).
    pk(k(i_X), one(i_X)).
    pk(i_X, two(i_X)).
    pk(m, three).
    pk(f_F(i_Y), f_F(four)).
    pk(k(b), five).
    :- mode(kp(-, +)).
    kp(one, m).
    kp(two(i_X), i_X).
    kp(three, k(b)).
    """

    def test_clause_order_survives_leading_symbol_skips(self):
        # Clauses whose first lhs element is headed by another symbol are
        # skipped; the rest still answer in source order.
        session = Session(consult_text(self.MIXED))
        assert hedges(session, "pick :: (k(b), m) ==> i_R") == [
            parse_term(t) for t in
            ("one(b)", "two(b)", "k(five)", "seven(k(b), m)", "eight")]
        assert hedges(session, "pick :: eps ==> i_R") == [
            a("six"), a("seven")]

    def test_predicate_clause_order_survives_leading_symbol_skips(self):
        session = Session(consult_text(self.MIXED))
        assert hedges(session, "pk(k(b), i_R)") == [
            parse_term(t) for t in ("one(b)", "two(k(b))", "k(four)", "five")]
        assert hedges(session, "pk(m, i_R)") == [
            parse_term(t) for t in ("two(m)", "three")]
        assert hedges(session, "kp(i_R, k(b))") == [
            parse_term(t) for t in ("two(k(b))", "three")]

    # Clause lhs and the rhs items that show its bindings, one per kind of
    # lead: symbol, i_X, s_X, f_F(...), c_X(...) and eps.
    LHS = [
        ("a", ""), ("(a, s_T)", "s_T"), ("b(i_X)", "i_X"),
        ("(b(s_U), s_T)", "s_U"), ("c", ""),
        ("i_X", "i_X"), ("(i_X, s_T)", "i_X"),
        ("s_X", "s_X"), ("(s_X, a, s_Y)", "s_Y"),
        ("f_F(s_A)", "f_F(s_A)"), ("(f_F, s_T)", "s_T"),
        ("c_X(i_Y)", "c_X(a)"), ("(c_X(a), s_T)", "c_X(b)"),
        ("eps", ""),
        # Var-led, but needing a symbol at depth 1 or 2, or under a context
        # variable only.
        ("(s_, b(s_X), s_)", "s_X"), ("f_F(s_, a)", "f_F(b)"),
        ("(s_, c_X(b), s_)", "c_X(a)"), ("(i_X, f_F(c_Y(a)))", "f_F(c_Y(b))"),
        ("f_F(f_G(a))", "f_G(f_F)"),
    ]
    # Keyed by some clause's lead, by none, and empty; needed symbols at
    # depth 1, 2 and deeper.
    SUBJECTS = ["a", "(a, b)", "b(c)", "(b(a, a), c)", "c", "(c, a, b)",
                "d", "(g(a), a)", "eps", "g(b, a)", "(a, f(g(a)))",
                "(c, h(g(b)))", "h(g(a))"]

    @pytest.mark.parametrize("seed", range(25))
    def test_selection_keeps_source_order(self, seed):
        # Against an oracle that tries every clause of the strategy in
        # source order and, for each matcher of its lhs, takes its rhs image.
        rng = random.Random(seed)
        lines = []
        for k in range(rng.randint(4, 14)):
            lhs, shown = rng.choice(self.LHS)
            rhs = f"(t{k}, {shown})" if shown else f"t{k}"
            lines.append(f"{rng.choice(['rule', 'rule', 'other'])} :: "
                         f"{lhs} ==> {rhs}.")
        source, table = parse_program("\n".join(lines))
        session = Session(consult(source, table))
        rules = [c.head for c in source.items if c.head.strategy == a("rule")]
        for text in self.SUBJECTS:
            subject = parse_hedge(text)
            expected = [apply_subst(sigma, head.rhs) for head in rules
                        for sigma in match_hedge(head.lhs, subject)]
            got = [ans["s_X"]
                   for ans in session.solve_text(f"rule :: {text} ==> s_X")]
            assert got == expected, (lines, text)

    @pytest.mark.parametrize("skip", [0, 1])
    def test_index_keeps_every_clause_that_matches(self, skip):
        # Random heads, past a strategy if skip is 1, against random ground
        # subjects and instances of the heads: the index leaves out no
        # clause that has a matcher, and keeps source order; may_match, given
        # the subject past its strategy, tells whether it selects any clause.
        prefix = (a("st"),) * skip
        for seed in range(400):
            rng = random.Random(seed)
            heads = [Hedge(prefix + random_pattern(rng).items)
                     for _ in range(rng.randint(1, 6))]
            index = ClauseIndex([CompiledClause(k, head, Hedge(), (), 0)
                                 for k, head in enumerate(heads, 1)], skip)
            subjects = [Hedge(prefix + random_ground_hedge(rng, 3, 2).items)
                         for _ in range(3)]
            subjects += [apply_subst(random_instantiation(rng, head), head)
                         for head in heads]
            for subject in subjects:
                chosen = [clause.k for clause in index.select(subject)]
                assert chosen == sorted(set(chosen)), (seed, heads, subject)
                assert index.may_match(Hedge(subject.items[skip:])) == bool(chosen)
                for k, head in enumerate(heads, 1):
                    if next(match_hedge(head, subject), None) is not None:
                        assert k in chosen, (seed, head, subject)

    def test_predicate_arities_keep_their_clause_numbers(self):
        trace = io.StringIO()
        session = Session(consult_text(
            ":- mode(p(+, -)).\n:- mode(p(+, +, -)).\n"
            "p(a, one).\np(a, b, two).\np(i_X, three(i_X)).\n"
            "p(i_X, i_Y, four(i_Y)).\np(a, five).\np(c, b, six).\n"),
            trace=trace)
        assert hedges(session, "p(a, i_R)") == [
            parse_term(t) for t in ("one", "three(a)", "five")]
        assert hedges(session, "p(a, b, i_R)") == [
            parse_term(t) for t in ("two", "four(b)")]
        assert hedges(session, "p(c, b, i_R)") == [
            parse_term(t) for t in ("four(b)", "six")]
        # k counts every clause of p, whatever its arity.
        assert re.findall(r"clause (\d+), matcher 1", trace.getvalue()) == [
            "1", "3", "5", "2", "4", "4", "6"]

    def test_clause_local_variables_stay_apart(self):
        # i_N is bound only by the body, and five activations of the second
        # clause are live at once: each needs its own i_N.
        session = Session(consult_text(
            "len :: eps ==> z.\n"
            "len :: (i_X, s_T) ==> s(i_N) :- len :: s_T ==> i_N.\n"))
        assert hedges(session, "len :: (a, b, c, d, e) ==> i_R") == [
            parse_term("s(s(s(s(s(z)))))")]

    @pytest.mark.parametrize("callee", ["p :: g(a) ==> b.", "p :: i_X ==> b."])
    def test_non_ground_selected_lhs_raises(self, callee):
        # The body literal's lhs keeps i_Y unbound; the error is reported
        # and the literal fails, whether or not a clause of p gets past its
        # leading symbol.
        err = io.StringIO()
        session = Session(consult_text(
            callee + "\nq :: a ==> i_Z :- p :: f(i_Y) ==> i_Z.\n",
            strict=False), err=err)
        assert list(session.solve_text("q :: a ==> i_R")) == []
        assert len(session.runtime_errors) == 1
        assert "ground and hole-free" in session.runtime_errors[0]
        assert err.getvalue().startswith("error: input of p :: f(")

    def test_no_clauses_means_failure(self):
        session = Session(consult_text(""))
        assert hedges(session, "nothing :: a ==> i_X") == []

    def test_empty_binding_answer(self):
        session = Session(consult_text("idle :: a ==> a."))
        answers = list(session.solve_text("idle :: a ==> a"))
        assert len(answers) == 1 and answers[0].pairs == ()


class TestNegation:
    def test_fails_when_positive_succeeds(self, elementary):
        assert list(elementary.solve_text(
            "str1 :: (a, b, a, f(a)) =\\=> s_")) == []

    def test_succeeds_when_positive_fails(self, elementary):
        answers = list(elementary.solve_text(
            "str1 :: (a, b, a, f(a)) =\\=> (b, s_)"))
        assert len(answers) == 1
        assert answers[0].pairs == ()     # negation binds nothing

    def test_succeeds_with_no_matching_clause(self):
        session = Session(consult_text(""))
        answers = list(session.solve_text("anything :: eps =\\=> nonexistent"))
        assert len(answers) == 1


#: Clauses whose bodies write a marker, so a probe's work shows in the output.
MARKED = (
    "pick :: a ==> b :- write(p1).\n"
    "pick :: a ==> c :- write(p2).\n"
    "step :: a ==> b :- write(s1).\n"
    "step :: a ==> c :- write(s2).\n"
    "step :: i_X ==> i_X :- write(t(i_X)), fail.\n"
)


@pytest.fixture()
def machines(monkeypatch):
    """Every ``_Machine`` built while the test runs, in order."""
    built = []
    init = _Machine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Machine, "__init__", counting_init)
    return built


class TestOneStack:
    """Negation and strategy probes run as frames of the query's machine."""

    @pytest.mark.parametrize("program, query", [
        ("loop :: i_X ==> i_Y :- first_one(loop) :: f(i_X) ==> i_Y.",
         "loop :: a ==> i_Y"),
        ("grow :: i_X ==> i_Y :- nf(grow) :: f(i_X) ==> i_Y.",
         "grow :: a ==> i_Y"),
        ("neg :: i_X ==> i_X :- neg :: f(i_X) =\\=> i_.",
         "neg :: a ==> i_Y"),
    ], ids=["first_one", "nf", "negation"])
    def test_recursion_through_probes_reaches_the_depth_limit(self, program,
                                                               query):
        # Each derivation step nests one more probe; none of them may use a
        # Python frame, so the default recursion limit is never reached.
        session = Session(consult_text(program), depth_limit=20000)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with pytest.raises(DepthLimitExceeded):
                list(session.solve_text(query))
        finally:
            sys.setrecursionlimit(old_limit)

    @pytest.mark.parametrize("query", [
        "first_one(step, pick) :: a ==> i_X",
        "first_all(pick, step) :: a ==> i_X",
        "nf(step) :: a ==> i_X",
        "step :: a =\\=> d",
        "interactive :: a ==> i_X",
    ])
    def test_one_machine_per_query(self, machines, query):
        replies = iter(["step.", "zap.", "finish."])
        session = Session(consult_text(MARKED), out=io.StringIO(),
                          interaction=Interaction(
                              lambda prompt: next(replies, None),
                              lambda text: None))
        assert list(session.solve_text(query))
        assert len(machines) == 1

    def _run(self, query):
        out = io.StringIO()
        session = Session(consult_text(MARKED), out=out)
        answers = [[value for _, value in answer.pairs]
                   for answer in session.solve_text(query)]
        return out.getvalue(), answers

    def test_first_all_interleaves_probe_and_continuation(self):
        out, answers = self._run("first_all(pick) :: a ==> i_X, write(k(i_X))")
        assert out == "p1k(b)p2k(c)"
        assert answers == [[a("b")], [a("c")]]

    def test_nf_interleaves_probe_and_continuation(self):
        out, answers = self._run("nf(step) :: a ==> i_X, write(k(i_X))")
        assert out == "s1t(b)k(b)s2t(c)k(c)t(a)"
        assert answers == [[a("b")], [a("c")]]

    def test_negation_runs_its_probe_before_the_continuation(self):
        assert self._run("step :: a =\\=> d, write(k)") == ("s1s2t(a)k", [[]])
        assert self._run("step :: a =\\=> b, write(k)") == ("s1", [])

    def test_query_cut_after_nf_leaves_no_probe_frame(self, machines):
        out = io.StringIO()
        session = Session(consult_text(MARKED), out=out)
        stream = session.solve_text("nf(step) :: a ==> i_X, write(k(i_X)), !")
        assert next(stream)["i_X"] == a("b")
        assert len(machines[0].stack) == 1       # the answer's own frame
        assert list(stream) == []
        assert out.getvalue() == "s1t(b)k(b)"


    @pytest.mark.parametrize("query", [
        "first_one(step, pick) :: a ==> i_X",
        "pick :: a =\\=> i_",
        "interactive :: a ==> i_X",
    ])
    def test_forced_matches_leave_control_literals_unmapped(self, monkeypatch,
                                                            query):
        # The cut of a first_one or interactive probe and the end of a
        # negation hold no variable; no matcher is applied to them.  No
        # clause of pick calls fail, so a mapped fail ends a negation.
        # Literals are mapped by forced matches and, at clause activation,
        # by the builders of the clause's plan: both are recorded.
        import rholog.engine

        mapped = []
        apply = rholog.engine.apply_to_literal
        compile_literal = rholog.engine.literal_builder

        def recording(subst, lit):
            mapped.append(lit)
            return apply(subst, lit)

        def recording_builder(lit, *args):
            build = compile_literal(lit, *args)

            def recorded(subst):
                mapped.append(lit)
                return build(subst)
            return recorded

        monkeypatch.setattr(rholog.engine, "apply_to_literal", recording)
        monkeypatch.setattr(rholog.engine, "literal_builder", recording_builder)
        replies = iter(["step.", "finish."])
        session = Session(consult_text(MARKED), out=io.StringIO(),
                          interaction=Interaction(
                              lambda prompt: next(replies, None),
                              lambda text: None))
        list(session.solve_text(query))
        assert mapped
        assert not [lit for lit in mapped
                    if isinstance(lit, (rholog.engine._Cut, rholog.engine._ProbeEnd))
                    or isinstance(lit, rholog.engine.PredLiteral) and lit.name == "fail"]


class TestCut:
    def test_query_cut_keeps_first_answer(self, elementary):
        got = hedges(elementary, "rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X, !")
        assert got == [parse_term("h(g(f(a)), f(a))")]

    def test_true_then_cut(self):
        session = Session(consult_text(""))
        assert len(list(session.solve_text("true, !"))) == 1

    def test_cut_freezes_redex_not_contractum(self):
        session = Session(consult_text(
            corpus_source("examples/strat.rholog")
            + corpus_source("prelude/rewrite.rholog")))
        got = hedges(session, "rewrite_left_out(strat) :: h(f(f(a)), f(a)) ==> i_X")
        assert got == [parse_term("h(g(f(a)), f(a))"), parse_term("h(a, f(a))")]

    def test_cut_is_clause_local(self):
        # The cut in inner's clause must not prune outer's second clause.
        session = Session(consult_text(
            "inner :: i_X ==> hit(i_X) :- !.\n"
            "outer :: i_X ==> i_Y :- inner :: i_X ==> i_Y.\n"
            "outer :: i_X ==> fallback.\n"))
        got = hedges(session, "outer :: a ==> i_R")
        assert got == [a("hit", a("a")), a("fallback")]


class TestBuiltins:
    def test_arithmetic_binds(self):
        session = Session(consult_text(""))
        answers = list(session.solve_text("i_X is 2 + 3"))
        assert [ans["i_X"] for ans in answers] == [a("5")]

    def test_arithmetic_operators(self):
        session = Session(consult_text(""))
        for text, value in [("2 + 3", "5"), ("2 - 5", "-3"), ("3 * 4", "12"),
                            ("7 // 2", "3"), ("7 mod 2", "1")]:
            answers = list(session.solve_text(f"i_X is {text}"))
            assert [ans["i_X"] for ans in answers] == [a(value)], text

    def test_comparisons(self):
        session = Session(consult_text(""))
        assert len(list(session.solve_text("2 < 3"))) == 1
        assert list(session.solve_text("3 < 2")) == []
        assert len(list(session.solve_text("2 =< 2, 3 >= 2, 2 =:= 2, 2 =\\= 3"))) == 1

    def test_write_and_nl(self):
        out = io.StringIO()
        session = Session(consult_text("show(i_X) :- write(i_X), nl."),
                          out=out)
        answers = list(session.solve_text("i_X is 2 + 2, write(f(i_X)), nl"))
        assert len(answers) == 1
        assert out.getvalue() == "f(4)\n"

    def test_true_fail(self):
        session = Session(consult_text(""))
        assert len(list(session.solve_text("true"))) == 1
        assert list(session.solve_text("fail")) == []

    def test_arithmetic_error_aborts_branch(self):
        err = io.StringIO()
        session = Session(consult_text(""), err=err)
        assert list(session.solve_text("i_X is a + 1", check=False)) == []
        assert session.runtime_errors
        assert "arithmetic" in err.getvalue()

    def test_comparison_names_its_left_operand_first(self):
        # Both operands are bad: the left one is evaluated, and named, first.
        session = Session(consult_text(""), err=io.StringIO())
        assert list(session.solve_text("a < b")) == []
        assert session.runtime_errors == [
            "arithmetic error in a < b: not an arithmetic expression: a"]

    def test_division_by_zero_reported(self):
        session = Session(consult_text(""), err=io.StringIO())
        assert list(session.solve_text("i_X is 1 // 0")) == []
        assert any("zero" in e for e in session.runtime_errors)


class TestUserPredicates:
    SRC = """
    :- mode(double(+, -)).
    double(i_X, i_Y) :- i_Y is i_X * 2.
    :- mode(classify(+, -)).
    classify(0, zero).
    classify(i_N, small) :- i_N < 10.
    twice :: i_X ==> i_Y :- double(i_X, i_Y).
    """

    def test_predicate_with_output(self):
        session = Session(consult_text(self.SRC))
        got = hedges(session, "twice :: 21 ==> i_R")
        assert got == [a("42")]

    def test_fact_and_rule_alternatives_in_order(self):
        session = Session(consult_text(self.SRC))
        answers = list(session.solve_text("classify(0, i_K)"))
        assert [ans["i_K"] for ans in answers] == [a("zero"), a("small")]

    def test_unknown_predicate_fails_with_report(self):
        session = Session(consult_text(""), err=io.StringIO())
        assert list(session.solve_text("mystery(a)", check=False)) == []
        assert any("mystery" in e for e in session.runtime_errors)


class TestConsult:
    def test_abbreviation_expands_to_clause(self):
        source, table = parse_program("flatten := nf(flatten_one).")
        program = consult(source, table)
        index = program.rho["flatten"]
        (clause,) = index.var_led
        assert not index.keyed and not index.empty and not index.needs
        assert isinstance(clause, CompiledClause)
        assert (clause.k, clause.line) == (1, 1)
        (body_lit,) = clause.body
        assert body_lit.strategy == parse_term("nf(flatten_one)")
        # head and body share the same in/out variables
        assert clause.head_in == Hedge((a("flatten"),) + body_lit.lhs.items)
        assert clause.head_out == body_lit.rhs

    def test_empty_source(self):
        program = consult_text("")
        assert program.rho == {} and program.preds == {}

    def test_clause_groups_keep_order(self):
        source, table = parse_program(corpus_source("examples/strat.rholog"))
        program = consult(source, table)
        index = program.rho["strat"]
        assert not index.var_led and not index.empty and not index.needs
        clauses = index.keyed["f"]
        assert index.select(parse_hedge("(strat, f(a))")) == clauses
        assert [c.k for c in clauses] == [1, 2]
        assert [c.head_in for c in clauses] == [
            parse_hedge("(strat, f(i_X))"), parse_hedge("(strat, f(f(i_X)))")]
        assert [c.head_out for c in clauses] == [
            parse_hedge("g(i_X)"), parse_hedge("i_X")]
        # Each is the rule's own rhs hedge, not a copy.
        assert all(c.head_out is item.head.rhs
                   for c, item in zip(clauses, source.items))

    def test_var_led_clauses_are_grouped_by_a_needed_symbol(self):
        index = consult_text(
            "p :: (s_, k(s_X), s_) ==> s_X.\n"
            "p :: f_F(s_X, m) ==> s_X.\n"
            "p :: (s_, c_X(k), s_) ==> c_X(a).\n"
            "p :: (i_X, f_F(c_Y(m))) ==> i_X.\n"
            "p :: (s_X, k(a)) ==> s_X.\n").rho["p"]
        assert not index.keyed and not index.empty and index.deep
        assert [c.k for c in index.var_led] == [3, 4]
        assert {symbol: [c.k for c in group]
                for symbol, group in index.needs.items()} == {"k": [1, 5], "m": [2]}
        assert [c.k for c in index.select(parse_hedge("(p, a, k(b))"))] == \
            [1, 3, 4, 5]
        assert [c.k for c in index.select(parse_hedge("(p, g(m))"))] == \
            [2, 3, 4]
        assert index.select(parse_hedge("(p, g(b), b)")) == index.var_led
        program = consult_text(corpus_source("examples/strat.rholog"))
        assert [c.k for c in program.rho["str1"].needs["a"]] == [1]

    def test_combinator_shadowing_rejected(self):
        with pytest.raises(ConsultError):
            consult_text("nf :: a ==> a.")
        with pytest.raises(ConsultError):
            consult_text("rewrite := nf(step).")

    def test_builtin_redefinition_rejected(self):
        with pytest.raises(ConsultError):
            consult_text(":- mode(write(+)).\nwrite(i_X).")

    def test_strict_mode_rejects_violations(self):
        with pytest.raises(ConsultError) as info:
            consult_text("bad :: i_X ==> i_Y.")
        assert info.value.violations

    def test_lenient_mode_records_violations(self):
        program = consult_text("bad :: i_X ==> i_Y.", strict=False)
        assert program.violations


class TestAnswerStream:
    def test_order_is_deterministic(self, elementary):
        q = "choice(str1, str2) :: (a, b, a, f(a)) ==> s_X"
        first = [dict(ans.pairs) for ans in elementary.solve_text(q)]
        second = [dict(ans.pairs) for ans in elementary.solve_text(q)]
        assert first == second

    def test_first_answer_is_lazy(self):
        # Each clause writes when its body runs: taking one answer from the
        # stream must run only the first clause's body.
        out = io.StringIO()
        session = Session(consult_text(
            "noisy :: i_X ==> one :- write(one).\n"
            "noisy :: i_X ==> two :- write(two).\n"), out=out)
        stream = session.solve_text("noisy :: a ==> i_R")
        first = next(stream)
        assert first["i_R"] == a("one")
        assert out.getvalue() == "one"
        next(stream)
        assert out.getvalue() == "onetwo"

    def test_matcher_streams_consumed_lazily(self, monkeypatch):
        # Instrument matcher-stream consumption: the first answer of a
        # twelve-way choice point must pull one solution, not all twelve.
        import rholog.engine as engine_module
        from rholog.matching import match_hedge as real_match
        pulled = [0]

        def counting_match(pattern, subject, *args, **kwargs):
            for sigma in real_match(pattern, subject, *args, **kwargs):
                pulled[0] += 1
                yield sigma

        monkeypatch.setattr(engine_module, "match_hedge", counting_match)
        session = Session(consult_text("wide :: (s_1, s_2) ==> (s_1).\n"))
        stream = session.solve_text(
            "wide :: (a, a, a, a, a, a, a, a, a, a, a) ==> s_Out")
        next(stream)
        assert pulled[0] <= 3     # head matcher + output match, no lookahead
        rest = list(stream)
        assert len(rest) == 11    # the remaining splits still arrive

    def test_duplicates_are_preserved(self):
        session = Session(consult_text(
            "again :: a ==> b.\nagain :: a ==> b.\n"))
        got = hedges(session, "again :: a ==> i_R")
        assert got == [a("b"), a("b")]

    def test_depth_limit_aborts(self):
        session = Session(consult_text(
            "grow :: i_X ==> f(i_X).\nspin := nf(grow).\n"),
            depth_limit=200)
        with pytest.raises(DepthLimitExceeded):
            list(session.solve_text("spin :: a ==> i_X"))

    def test_depth_limit_boundary(self):
        # A goal of k literals needs k + 1 frames: the query's own, and one
        # per literal selected.  A limit of 10 frames runs 9 literals and
        # stops at 10.
        session = Session(consult_text(""), depth_limit=10)
        assert len(list(session.solve_text(", ".join(["true"] * 9)))) == 1
        with pytest.raises(DepthLimitExceeded,
                           match=r"^choice-point stack exceeded 10 frames$"):
            list(session.solve_text(", ".join(["true"] * 10)))

    def test_long_derivations_fit_on_the_explicit_stack(self):
        # A 600-step normal form would overflow a recursion-based engine;
        # the choice-point stack is a plain list, so it just runs.
        session = Session(consult_text("shrink :: (a, s_X) ==> (s_X).\n"))
        query = "nf(shrink) :: (" + ", ".join(["a"] * 600) + ") ==> s_Out"
        first = next(session.solve_text(query))
        assert first["s_Out"] == Hedge()

    def test_mode_error_raised_for_bad_query(self, elementary):
        with pytest.raises(ModeError):
            list(elementary.solve_text("str1 :: i_Y ==> i_X"))

    def test_query_variable_order_in_answers(self, elementary):
        answers = list(elementary.solve_text(
            "str1 :: (a, b, a, f(a)) ==> (s_X, f(a), s_Y)"))
        assert [v.text() for v, _ in answers[0].pairs] == ["s_X", "s_Y"]

    def test_answers_replay_against_output_pattern(self, elementary):
        # Soundness check by replay: substituting an answer into the
        # query's output side gives a hedge the same query accepts exactly.
        from rholog.syntax import format_hedge
        from rholog.terms import apply_subst
        query = "str1 :: (a, b, a, f(a)) ==> (s_X, f(a), s_Y)"
        pattern = parse_hedge("(s_X, f(a), s_Y)")
        for answer in elementary.solve_text(query):
            transformed = apply_subst(dict(answer.pairs), pattern)
            replay = (f"str1 :: (a, b, a, f(a)) ==> "
                      f"{format_hedge(transformed)}")
            assert list(elementary.solve_text(replay)), replay


class TestBodyBoundContext:
    def test_context_variable_bound_by_a_body_output(self):
        # c_C is unbound when the clause is renamed: its fresh copy is
        # rebuilt around the argument a, and the body's first literal
        # binds it at each position of a in the input.
        session = Session(consult_text(
            "r :: i_X ==> i_Y :- id :: i_X ==> c_C(a), id :: c_C(b) ==> i_Y.\n"))
        assert hedges(session, "r :: f(a, g(a)) ==> i_Y") == [
            a("f", a("b"), a("g", a("a"))), a("f", a("a"), a("g", a("b")))]


class TestReplaceExample:
    def test_replacement_normal_form(self):
        session = Session(consult_text(corpus_source("examples/replace.rholog")))
        stream = session.solve_text(
            "replace_all :: (f(x, g(x, y)), x -> z, y -> a) ==> i_X")
        assert next(stream)["i_X"] == parse_term("f(z, g(z, a))")

    def test_single_replacement_steps(self):
        session = Session(consult_text(corpus_source("examples/replace.rholog")))
        stream = session.solve_text(
            "replace :: (f(x), x -> z) ==> s_Out")
        assert next(stream)["s_Out"] == parse_hedge("(f(z), x -> z)")

    def test_no_applicable_rule_returns_the_term(self):
        session = Session(consult_text(corpus_source("examples/replace.rholog")))
        stream = session.solve_text("replace_all :: (q, x -> z) ==> i_X")
        assert next(stream)["i_X"] == a("q")


class TestTrace:
    def test_trace_mentions_clause_and_matcher(self, capsys):
        trace = io.StringIO()
        session = Session(consult_text(corpus_source("examples/strat.rholog")),
                          trace=trace)
        list(session.solve_text("str1 :: (a, b, a, f(a)) ==> s_X"))
        text = trace.getvalue()
        assert "clause 1, matcher 1" in text
        assert "str1" in text

    def test_trace_numbers_clauses_in_source_order(self):
        trace = io.StringIO()
        session = Session(consult_text(
            "t :: a ==> one.\nt :: b ==> two.\nt :: c ==> three.\n"),
            trace=trace)
        assert hedges(session, "t :: c ==> i_R") == [a("three")]
        text = trace.getvalue()
        assert "clause 3, matcher 1" in text
        assert "clause 1" not in text and "clause 2" not in text

    def test_trace_covers_each_selected_literal(self):
        trace = io.StringIO()
        session = Session(consult_text(""), trace=trace)
        list(session.solve_text("true, i_X is 1 + 1, i_X < 3, !"))
        text = trace.getvalue()
        assert "select true" in text
        assert "select i_X is 1 + 1" in text
        assert "cut to level" in text


class _NamingOnDemand(dict):
    """The reference renaming: a matcher whose ``get`` gives each variable it
    leaves unbound a fresh name, so ``apply_subst`` names them in the order
    it meets them."""

    def __init__(self, bindings, counter):
        super().__init__(bindings)
        self.counter = counter

    def get(self, var):
        image = dict.get(self, var)
        if image is None:
            fresh = Var(var.kind, f"{var.name}#{next(self.counter)}", var.anon)
            image = self[var] = Apply(fresh, singleton(HOLE)) \
                if var.kind == "c" else fresh
        return image


def _rename_by_walk(clause, sigma, cut):
    """A clause's ``(body, head_out)`` under ``sigma``, by ``apply_subst``."""
    mapping = _NamingOnDemand(sigma, itertools.count(1))
    body = tuple(cut if isinstance(lit, CutLiteral)
                 else apply_to_literal(mapping, lit) for lit in clause.body)
    return body, apply_subst(mapping, clause.head_out)


def _clauses(program):
    indexes = list(program.rho.values())
    indexes += [index for by_arity in program.preds.values()
                for index in by_arity.values()]
    for index in indexes:
        groups = [index.var_led, index.empty, *index.keyed.values(),
                  *index.needs.values()]
        yield from sorted(itertools.chain(*groups), key=lambda c: c.k)


def _literal_values(lit):
    if isinstance(lit, RhoLiteral):
        return (lit.strategy, lit.lhs, lit.rhs)
    if isinstance(lit, PredLiteral):
        return (lit.term,)
    return ()


def _activate_both_ways(clause, sigma):
    session = Session(consult_text(""))
    cut = object()
    got = session.rename_clause(clause, dict(sigma), cut)
    return got, _rename_by_walk(clause, sigma, cut)


#: Locals of all four kinds, anonymous ones too, in body literals and in
#: head_out, among ``!`` and ground literals.
ALL_LOCALS = (
    "p :: i_X ==> h(i_X, c_D(i_E), s_) :-\n"
    "    write(g(f_F(s_S, i_Y), c_C(i_Z), i_, s_, f_(a), c_(i_W), i_X)),\n"
    "    nl, !, q :: i_X ==> i_R, write(i_R), nl.\n"
    "q :: i_A ==> k(i_A) :- write(f_G(s_U)), nl.\n")


class TestClauseActivation:
    """A clause's instantiation plan builds what ``apply_subst`` built."""

    def test_fresh_variable_numbering(self):
        # A local context variable's argument is numbered first.
        program = consult_text(ALL_LOCALS, strict=False)
        out, trace, err = io.StringIO(), io.StringIO(), io.StringIO()
        session = Session(program, out=out, trace=trace, err=err)
        assert list(session.solve_text("p :: a ==> i_Out", check=False)) == []
        assert out.getvalue() == (
            "g(f_F#1(s_S#2, i_Y#3), c_C#5(i_Z#4), i_, s_, f_(a), c_(i_W#9), a)\n"
            "f_G#15(s_U#16)\n"
            "k(a)\n")
        assert trace.getvalue() == (
            "[1] select p :: a ==> i_Out\n"
            "[2] p :: a ==> i_Out | clause 1, matcher 1\n"
            "[2] select write(g(f_F#1(s_S#2, i_Y#3), c_C#5(i_Z#4), i_, s_, "
            "f_(a), c_(i_W#9), a))\n"
            "[3] select nl\n"
            "[4] select ! | cut to level 1\n"
            "[2] select q :: a ==> i_R#11\n"
            "[3] q :: a ==> i_R#11 | clause 1, matcher 1\n"
            "[3] select write(f_G#15(s_U#16))\n"
            "[4] select nl\n"
            "[5] select i_R#11 <~ k(a)\n"
            "[6] match i_R#11 against k(a) | matcher 1\n"
            "[6] select write(k(a))\n"
            "[7] select nl\n"
            "[8] select i_Out <~ h(a, c_D#13(i_E#12), s_)\n")
        assert err.getvalue() == ("error: input of i_Out <~ h(a, c_D#13(i_E#12), s_) "
                                  "is not ground and hole-free\n")

    def test_plans_agree_with_apply_subst(self):
        # Every corpus clause and random rule system clause, under ground
        # images for its head_in: the same instance, the same fresh names,
        # and the right facts at every node.
        rng = random.Random(0xC1A05E)
        programs = [consult_text(path.read_text(encoding="utf-8"), strict=False)
                    for path in sorted(corpus_path("").glob("*/*.rholog"))]
        programs.append(consult_text(ALL_LOCALS, strict=False))
        # The parser admits no hole in a clause; built ones may hold some.
        x, z, c = Var("i", "X"), Var("i", "Z"), Var("c", "C")
        programs.append(consult(SourceProgram([RhoClause(
            RhoLiteral(a("holes"), Hedge((x, Apply(c, singleton(z)))),
                       Hedge((a("f", HOLE, x), x, HOLE, Apply(c, singleton(HOLE))))),
            (PredLiteral(a("write", a("g", HOLE, Var("i", "Y")))),))]),
            strict=False))
        programs += [consult(SourceProgram(_random_rule_system(rng)))
                     for _ in range(60)]
        checked = 0
        for program in programs:
            for clause in _clauses(program):
                for _ in range(3):
                    sigma = random_instantiation(rng, clause.head_in)
                    got, want = _activate_both_ways(clause, sigma)
                    assert got == want
                    got_body, got_out = got
                    for lit in got_body:
                        for value in _literal_values(lit):
                            _assert_facts_from_children(value)
                    _assert_facts_from_children(got_out)
                    checked += 1
        assert checked > 300

    def test_sequence_image_as_strategy_raises_the_same_error(self):
        # st(s_X) :: a ==> i_Y :- s_X :: a ==> i_Y, which the parser rejects.
        x, y = Var("s", "X"), Var("i", "Y")
        (clause,) = _clauses(consult(SourceProgram([RhoClause(
            RhoLiteral(a("st", x), singleton(a("a")), singleton(y)),
            (RhoLiteral(x, singleton(a("a")), singleton(y)),))]), strict=False))
        sigma = {x: parse_hedge("(b, c)")}
        with pytest.raises(ValueError) as want:
            _rename_by_walk(clause, sigma, None)
        with pytest.raises(ValueError) as got:
            Session(consult_text("")).rename_clause(clause, dict(sigma), None)
        assert str(got.value) == str(want.value) == \
            "sequence image (b, c) cannot stand as a term"

    def test_deep_ground_rhs_is_kept_not_rebuilt(self, default_recursion_limit):
        deep = a("a")
        for _ in range(DEEP):
            deep = symbol_apply("f", singleton(deep))
        program = consult(SourceProgram([RhoClause(RhoLiteral(
            a("deep"), singleton(Var("i", "X")),
            Hedge((Var("i", "X"), Var("i", "Y"), deep))))]), strict=False)
        (clause,) = _clauses(program)
        body, out = Session(program).rename_clause(
            clause, {Var("i", "X"): a("b")}, None)
        assert body == ()
        assert out.items[0] == a("b") and out.items[1] == Var("i", "Y#1")
        assert out.items[2] is deep

    def test_plans_are_built_at_first_activation(self):
        program = consult_text(corpus_source("examples/strat.rholog"))
        clauses = list(_clauses(program))
        assert all(clause.plan is None for clause in clauses)
        session = Session(program)
        assert list(session.solve_text("str1 :: (a, b, a, f(a)) ==> s_X"))
        activated = [clause for clause in clauses if clause.plan is not None]
        assert activated and len(activated) < len(clauses)
        plans = [clause.plan for clause in activated]
        list(session.solve_text("str1 :: (a, b, a, f(a)) ==> s_X"))
        assert all(clause.plan is plan for clause, plan in zip(activated, plans))
