"""Strategy combinators: documented behavior, the shipped rewriting
strategies, and the algebraic relations between the combinators."""

import io

import pytest

from rholog.engine import Session, _Machine, consult_text
from rholog.strategies import COMBINATORS, Interaction, corpus_path, corpus_source
from rholog.syntax import format_value, parse_hedge, parse_term
from rholog.terms import Hedge

from conftest import DEEP, a


def hedges(session, query):
    out = []
    for answer in session.solve_text(query):
        (_, value), = answer.pairs
        out.append(value)
    return out


@pytest.fixture()
def elementary():
    return Session(consult_text(corpus_source("examples/strat.rholog")))


@pytest.fixture()
def rewriting():
    return Session(consult_text(
        corpus_source("examples/strat.rholog")
        + corpus_source("prelude/rewrite.rholog")))


class TestId:
    def test_passes_hedge_through(self):
        session = Session(consult_text(""))
        assert hedges(session, "id :: (a, b) ==> s_X") == [parse_hedge("(a, b)")]
        assert hedges(session, "id :: eps ==> s_X") == [Hedge()]

    def test_fails_on_different_output(self):
        session = Session(consult_text(""))
        assert list(session.solve_text("id :: a ==> b")) == []

    def test_identical_sides_succeed_once(self):
        session = Session(consult_text(""))
        answers = list(session.solve_text("id :: a ==> a"))
        assert len(answers) == 1 and answers[0].pairs == ()


class TestCompose:
    def test_pipeline_both_orders(self, elementary):
        got = hedges(elementary, "compose(str1, str2) :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b, a)"), parse_hedge("(a, b, f(a))")]

    def test_identity_composition(self, elementary):
        got = hedges(elementary, "compose(id, id) :: (a, b) ==> s_X")
        assert got == [parse_hedge("(a, b)")]

    def test_duplicate_results_from_distinct_derivations(self, elementary):
        # str2 deletes one of the repeated elements; on (a, a, a) it has
        # three matchers that all produce (a, a), and each of those reduces
        # to (a) one way: three derivations of the same answer.
        got = hedges(elementary, "compose(str2, str2) :: (a, a, a) ==> s_X")
        assert got == [parse_hedge("(a)")] * 3

    def test_right_fold_equivalence(self, elementary):
        flat = hedges(elementary,
                      "compose(str1, str1, str2) :: (a, b, a, f(a)) ==> s_X")
        nested = hedges(elementary,
                        "compose(str1, compose(str1, str2)) :: (a, b, a, f(a)) ==> s_X")
        assert flat == nested

    def test_goal_after_compose_keeps_its_order(self):
        out = io.StringIO()
        session = Session(consult_text(""), out=out)
        answers = list(session.solve_text(
            "compose(id, id) :: a ==> i_X, write(one), write(two), write(three)"))
        assert len(answers) == 1
        assert out.getvalue() == "onetwothree"

    def test_needs_two_strategies(self, elementary):
        elementary.err = io.StringIO()
        assert hedges(elementary, "compose(str1) :: (a) ==> s_X") == []
        assert elementary.runtime_errors


class TestChoice:
    def test_concatenates_answer_streams(self, elementary):
        got = hedges(elementary, "choice(str1, str2) :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b, a, f(a))"),
                       parse_hedge("(a, b, f(a), f(a))"),
                       parse_hedge("(a, b, f(a))")]

    def test_single_alternative(self, elementary):
        assert hedges(elementary, "choice(id) :: (a, b) ==> s_X") == \
            [parse_hedge("(a, b)")]

    def test_failing_first_alternative(self, elementary):
        got = hedges(elementary, "choice(str2, id) :: (b, c) ==> s_X")
        assert got == [parse_hedge("(b, c)")]


class TestFirstOneAndAll:
    def test_first_one_single_answer(self, elementary):
        got = hedges(elementary, "first_one(str1, str2) :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b, a, f(a))")]

    def test_first_all_commits_to_first_applicable(self, elementary):
        got = hedges(elementary, "first_all(str1, str2) :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b, a, f(a))"),
                       parse_hedge("(a, b, f(a), f(a))")]

    def test_first_all_skips_failing_strategies(self, elementary):
        got = hedges(elementary, "first_all(str2, str1) :: (a, a) ==> s_X")
        assert got == [parse_hedge("(a)")]

    def test_first_one_of_id_once(self, elementary):
        assert hedges(elementary, "first_one(id) :: (a, b) ==> s_X") == \
            [parse_hedge("(a, b)")]

    def test_first_all_of_two_ids_consults_first_only(self, elementary):
        assert hedges(elementary, "first_all(id, id) :: (a) ==> s_X") == \
            [parse_hedge("(a)")]

    def test_first_one_commits_before_the_output_match(self, elementary):
        # str1's second result would satisfy the output pattern, but
        # first_one has already committed to the first one: the goal fails.
        assert list(elementary.solve_text(
            "first_one(str1) :: (a, b, a, f(a)) ==> (a, s_X)")) == []
        assert len(list(elementary.solve_text(
            "str1 :: (a, b, a, f(a)) ==> (a, s_X)"))) == 1


class TestNf:
    def test_both_normal_form_derivations(self, elementary):
        got = hedges(elementary,
                     "nf(compose(str1, str2)) :: (a, b, a, f(a)) ==> s_X")
        assert got == [parse_hedge("(f(a), b)")] * 2

    def test_irreducible_input_returned_once(self, elementary):
        assert hedges(elementary, "nf(str2) :: (a, b) ==> s_X") == \
            [parse_hedge("(a, b)")]

    def test_results_are_irreducible(self, elementary):
        for result in hedges(elementary, "nf(str1) :: (a, a) ==> s_X"):
            text = "str1 :: (" + ", ".join("f(a)" for _ in result) + ") ==> s_"
            assert list(elementary.solve_text(text, check=False)) == []


class TestIterate:
    def test_zero_iterations_is_identity(self, elementary):
        assert hedges(elementary, "iterate(str1, 0) :: (a, b) ==> s_X") == \
            [parse_hedge("(a, b)")]

    def test_one_iteration_equals_single_application(self, elementary):
        once = hedges(elementary, "iterate(str1, 1) :: (a, b, a, f(a)) ==> s_X")
        plain = hedges(elementary, "str1 :: (a, b, a, f(a)) ==> s_X")
        assert once == plain

    def test_two_iterations_enumerate_step_pairs(self):
        session = Session(consult_text(corpus_source("examples/flatten.rholog")))
        got = hedges(session,
                     "iterate(flatten_one, 2) :: f(a, f(b, f(c)), f(d)) ==> i_X")
        assert parse_term("f(a, b, c, f(d))") in got
        assert parse_term("f(a, b, f(c), d)") in got

    def test_step_pairs_keep_duplicate_derivations(self, elementary):
        # (a, a) wraps either element first; both two-step paths end at
        # (f(a), f(a)), and both derivations are reported.
        got = hedges(elementary, "iterate(str1, 2) :: (a, a) ==> s_X")
        assert got == [parse_hedge("(f(a), f(a))")] * 2

    def test_many_steps_are_counted(self):
        # The depth limit turns a step count that never reaches 0 into a
        # failure rather than a hang.
        session = Session(consult_text("succ :: i_N ==> s(i_N).\n"),
                          depth_limit=1000)
        for steps in (6, 7, 12):
            assert hedges(session, f"iterate(succ, {steps}) :: z ==> i_X") == \
                [parse_term("s(" * steps + "z" + ")" * steps)]

    def test_fails_when_short_of_steps(self, elementary):
        assert hedges(elementary, "iterate(str1, 3) :: (a, b) ==> s_X") == []

    def test_step_count_must_be_natural(self, elementary):
        import io
        elementary.err = io.StringIO()
        assert hedges(elementary, "iterate(str1, many) :: (a) ==> s_X") == []
        assert any("natural number" in e for e in elementary.runtime_errors)


class TestMaps:
    def test_map1_elementwise(self):
        session = Session(consult_text(corpus_source("examples/flatten.rholog")))
        got = hedges(session,
                     "map1(flatten) :: (a, f(f(a)), g(a, g(b))) ==> s_X")
        assert got[0] == parse_hedge("(a, f(a), g(a, b))")

    def test_map1_empty_hedge(self, elementary):
        assert hedges(elementary, "map1(str1) :: eps ==> s_X") == [Hedge()]
        assert hedges(elementary, "map(str1) :: eps ==> s_X") == [Hedge()]

    def test_map1_fails_if_any_element_fails(self, elementary):
        # str1 rewrites hedges containing a; the element b alone fails.
        assert hedges(elementary, "map1(str1) :: (a, b) ==> s_X") == []

    def test_map_splices_arbitrary_hedges(self):
        session = Session(consult_text("dup :: i_X ==> (i_X, i_X).\n"))
        got = hedges(session, "map(dup) :: (a, b) ==> s_X")
        assert got == [parse_hedge("(a, a, b, b)")]

    def test_map1_rejects_hedge_valued_elements(self):
        session = Session(consult_text("dup :: i_X ==> (i_X, i_X).\n"))
        assert hedges(session, "map1(dup) :: (a, b) ==> s_X") == []

    def test_map1_output_length_matches(self, elementary):
        for result in hedges(elementary, "map1(id) :: (a, b, c) ==> s_X"):
            assert len(result) == 3

    def test_rightmost_varies_fastest(self):
        session = Session(consult_text(
            "two :: a ==> one.\ntwo :: a ==> other.\n"))
        got = hedges(session, "map1(two) :: (a, a) ==> s_X")
        assert got == [parse_hedge("(one, one)"), parse_hedge("(one, other)"),
                       parse_hedge("(other, one)"), parse_hedge("(other, other)")]


class TestRewrite:
    def test_leftmost_outermost_order(self, rewriting):
        got = hedges(rewriting, "rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X")
        assert got == [parse_term("h(g(f(a)), f(a))"),
                       parse_term("h(a, f(a))"),
                       parse_term("h(f(g(a)), f(a))"),
                       parse_term("h(f(f(a)), g(a))")]

    def test_no_redex_fails(self, rewriting):
        assert hedges(rewriting, "rewrite(strat) :: b ==> i_X") == []

    def test_root_redex_only(self, rewriting):
        assert hedges(rewriting, "rewrite(strat) :: f(a) ==> i_X") == \
            [parse_term("g(a)")]

    def test_applies_to_single_terms_only(self, rewriting):
        assert hedges(rewriting, "rewrite(strat) :: (f(a), f(a)) ==> s_X") == []

    def test_matches_clause_bootstrap(self, rewriting):
        native = hedges(rewriting, "rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X")
        clause = hedges(rewriting,
                        "rewrite_by_clause(strat) :: h(f(f(a)), f(a)) ==> i_X")
        assert native == clause

    def test_only_single_term_outputs_rewrite(self):
        # At f(a) and g(c) the inner strategy outputs eps or two terms:
        # no answer there, and the next output at the same position counts.
        session = Session(consult_text("""
            st :: f(i_X) ==> eps.
            st :: g(i_X) ==> (i_X, i_X).
            st :: a ==> (b, b).
            st :: a ==> b.
            st :: a ==> eps.
            st :: a ==> c.
        """))
        assert hedges(session, "rewrite(st) :: h(f(a), g(c)) ==> s_X") == \
            [parse_hedge(t) for t in ["h(f(b), g(c))", "h(f(c), g(c))"]]
        assert hedges(session, "rewrite(st) :: f(c) ==> i_X") == []

    def test_inner_side_effects_and_answer_order(self):
        # What the inner strategy writes, and when, pins the order in which
        # positions and their outputs are tried; the cut in the a-clause
        # stays inside its position.
        session = Session(consult_text("""
            mark :: i_X ==> i_X :- write(try(i_X)), fail.
            mark :: f(i_X) ==> g(i_X) :- write(f(i_X)).
            mark :: f(i_X) ==> (i_X, i_X) :- write(two(i_X)).
            mark :: a ==> b :- write(a), !.
            mark :: a ==> c :- write(never).
            mark :: k(i_X) ==> eps :- write(gone(i_X)).
        """))
        session.out = io.StringIO()
        answers = [answer["i_Y"] for answer in session.solve_text(
            "rewrite(mark) :: h(f(a), k(a)) ==> i_Y, write(out(i_Y)), nl")]
        assert answers == [parse_term(t) for t in
                           ["h(g(a), k(a))", "h(f(b), k(a))", "h(f(a), k(b))"]]
        assert session.out.getvalue() == (
            "try(h(f(a), k(a)))try(f(a))f(a)out(h(g(a), k(a)))\n"
            "two(a)try(a)aout(h(f(b), k(a)))\n"
            "try(k(a))gone(a)try(a)aout(h(f(a), k(b)))\n")
        # Five positions, one fresh variable each: numbering is pinned too.
        assert session.fresh_var("i", "Next").name == "Next#6"

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_term(self):
        # One redex, at the bottom of f(g(f(...a...))): the walk and the
        # rebuilt answer above it cost no Python recursion.
        session = Session(consult_text("strat :: a ==> b."))
        spine = "".join("fg"[k % 2] + "(" for k in range(DEEP))
        answers = list(session.solve_text(f"rewrite(strat) :: {spine}a{')' * DEEP} ==> i_X"))
        assert len(answers) == 1
        assert format_value(answers[0]["i_X"]) == f"{spine}b{')' * DEEP}"


class TestSkippedProbes:
    """A probe of a user strategy that has no clause for the probed hedge
    is not opened, yet draws its fresh-variable number."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        """The lhs of every probe a combinator opens, in order."""
        lhs = []
        probe = _Machine.probe

        def counted(machine, strategy, hedge, *args):
            lhs.append(hedge)
            return probe(machine, strategy, hedge, *args)

        monkeypatch.setattr(_Machine, "probe", counted)
        return lhs

    @pytest.fixture()
    def none(self):
        # none has clauses, but none for the symbols probed below.
        return Session(consult_text(corpus_source("examples/strat.rholog")
                                    + "none :: b ==> c.\nnone :: (d, s_) ==> e.\n"))

    def test_rewrite_opens_only_positions_with_a_clause(self, elementary, opened):
        # 1,003 positions: the root, 1,000 a's, f(a) and its a.  Only f(a)
        # has a clause of strat; every position draws one number.
        args = "a, " * 1000 + "f(a)"
        assert hedges(elementary, f"rewrite(strat) :: h({args}) ==> i_X") == [
            parse_term(f"h({'a, ' * 1000}g(a))")]
        assert opened == [parse_hedge("f(a)")]
        assert elementary.fresh_var("i", "Next").name == "Next#1004"

    @pytest.mark.parametrize("query, expected, probes, next_number", [
        ("first_one(none, strat) :: f(a) ==> s_X", ["g(a)"], 1, 3),
        ("first_all(none, strat) :: f(f(a)) ==> s_X", ["g(f(a))", "a"], 1, 3),
        ("first_one(none, none, strat, str1) :: f(a) ==> s_X", ["g(a)"], 1, 4),
        ("first_all(none, undefined) :: a ==> s_X", [], 0, 3),
        ("nf(none) :: a ==> s_X", ["a"], 0, 2),
        ("nf(none) :: b ==> s_X", ["c"], 1, 3),
        ("nf(compose(none, none)) :: b ==> s_X", ["b"], 1, 3),
    ])
    def test_answers_and_numbering_as_if_opened(self, none, opened, query,
                                                expected, probes, next_number):
        assert hedges(none, query) == [parse_hedge(t) for t in expected]
        assert len(opened) == probes
        assert none.fresh_var("i", "Next").name == f"Next#{next_number}"


class TestShippedRewritingStrategies:
    CASES = [
        ("rewrite_left_out", ["h(g(f(a)), f(a))", "h(a, f(a))"]),
        ("rewrite_out", ["h(g(f(a)), f(a))", "h(a, f(a))", "h(f(f(a)), g(a))"]),
        ("rewrite_left_in", ["h(f(g(a)), f(a))"]),
        ("rewrite_left_in_one", ["h(f(g(a)), f(a))"]),
        ("rewrite_in", ["h(f(g(a)), f(a))", "h(f(f(a)), g(a))"]),
    ]

    @pytest.mark.parametrize("strategy,expected", CASES)
    def test_documented_outputs(self, rewriting, strategy, expected):
        got = hedges(rewriting, f"{strategy}(strat) :: h(f(f(a)), f(a)) ==> i_X")
        assert got == [parse_term(t) for t in expected]

    def test_corpus_listing(self):
        for required in ("prelude/rewrite.rholog",
                         "examples/flatten.rholog", "examples/replace.rholog",
                         "examples/prover.rholog", "examples/strat.rholog"):
            assert corpus_path(required).is_file()


class TestProver:
    @pytest.fixture()
    def prover(self):
        return Session(consult_text(corpus_source("examples/prover.rholog")))

    def test_first_one_applies_axiom(self, prover):
        got = hedges(prover,
                     "first_one(axiom, neg_left, neg_right, disj_left, disj_right)"
                     " :: sequent(ant(p), cons(p)) ==> s_X")
        assert got == [Hedge()]

    def test_excluded_middle_proved(self, prover):
        stream = prover.solve_text(
            "prove :: sequent(ant(eps), cons(-(p) v p)) ==> i_X")
        assert next(stream)["i_X"] == a("true")

    def test_atom_alone_refuted(self, prover):
        stream = prover.solve_text("prove :: sequent(ant(eps), cons(p)) ==> i_X")
        assert next(stream)["i_X"] == a("false")

    def test_rule_order_in_first_one_matters(self, prover):
        # Sending failure before inference_step refutes everything provable.
        stream = prover.solve_text(
            "nf(first_one(success, failure, inference_step))"
            " :: sequent(ant(eps), cons(-(p) v p)) ==> i_X")
        assert next(stream)["i_X"] == a("false")

    def test_branching_proofs(self, prover):
        cases = [
            # excluded middle over a compound formula: both branches close
            ("sequent(ant(eps), cons(-(-(p) v -(q)) v (-(p) v -(q))))", "true"),
            # commuting a disjunction needs disj_left's two subgoals
            ("sequent(ant(p v q), cons(q v p))", "true"),
            # falsifiable: p false, q true
            ("sequent(ant(eps), cons(-(p v q) v p))", "false"),
        ]
        for goal, verdict in cases:
            stream = prover.solve_text(f"prove :: {goal} ==> i_X")
            assert next(stream)["i_X"] == a(verdict), goal


class TestInteractive:
    def _scripted(self, lines):
        replies = iter(lines)
        shown = []

        def read(prompt):
            try:
                return next(replies)
            except StopIteration:
                return None

        return Interaction(read, lambda text: shown.append(text)), shown

    def test_apply_then_finish(self, elementary):
        channel, shown = self._scripted(["str1.", "finish."])
        elementary.interaction = channel
        got = hedges(elementary, "interactive :: (a) ==> s_X")
        assert got == [parse_hedge("(f(a))")]

    def test_finish_immediately(self, elementary):
        channel, _ = self._scripted(["finish."])
        elementary.interaction = channel
        assert hedges(elementary, "interactive :: (a, b) ==> s_X") == \
            [parse_hedge("(a, b)")]

    def test_failing_strategy_reports_and_reprompts(self, elementary):
        channel, shown = self._scripted(["str2.", "finish."])
        elementary.interaction = channel
        got = hedges(elementary, "interactive :: (a) ==> s_X")
        assert got == [parse_hedge("(a)")]
        assert any("failed" in line for line in shown)

    def test_end_of_input_finishes(self, elementary):
        channel, _ = self._scripted([])
        elementary.interaction = channel
        assert hedges(elementary, "interactive :: (b) ==> s_X") == \
            [parse_hedge("(b)")]

    def test_without_channel_reports_error(self, elementary):
        elementary.err = io.StringIO()
        assert hedges(elementary, "interactive :: (a) ==> s_X") == []
        assert elementary.runtime_errors


class TestCombinatorRelations:
    def test_prefix_laws_documented_case(self, elementary):
        base = "(a, b, a, f(a))"
        one = hedges(elementary, f"first_one(str1, str2) :: {base} ==> s_X")
        all_ = hedges(elementary, f"first_all(str1, str2) :: {base} ==> s_X")
        every = hedges(elementary, f"choice(str1, str2) :: {base} ==> s_X")
        assert one == all_[:len(one)] and len(one) <= 1
        assert all_ == every[:len(all_)]

    def test_native_symbols_fixed(self):
        assert COMBINATORS == {"id", "compose", "choice", "first_one",
                               "first_all", "nf", "iterate", "map1", "map",
                               "interactive", "rewrite"}
