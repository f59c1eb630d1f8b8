"""Well-modedness checker: the documented query/clause classifications."""

import os
import subprocess
import sys
from pathlib import Path

import rholog
from rholog.strategies import corpus_source
from rholog.syntax import parse_program, parse_query
from rholog.wellmoded import (
    NONGROUND_STRATEGY,
    STRATEGY_VAR_ESCAPE,
    UNBOUND_INPUT,
    UNBOUND_NEGATIVE_OUTPUT,
    UNKNOWN_PREDICATE,
    check_clause,
    check_program,
    check_query,
)

from conftest import iv


def _kinds(violations):
    return [v.kind for v in violations]


class TestQueries:
    def test_unbound_input_rejected(self):
        violations = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_Y ==> i_Z"))
        assert _kinds(violations) == [UNBOUND_INPUT]
        assert violations[0].variables == (iv("Y"),)
        assert violations[0].literal_index == 2

    def test_chained_output_accepted(self):
        assert check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X ==> i_Z")) == []

    def test_negative_output_must_be_known(self):
        violations = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X =\\=> i_Z"))
        assert _kinds(violations) == [UNBOUND_NEGATIVE_OUTPUT]
        assert violations[0].variables == (iv("Z"),)

    def test_negative_output_may_be_anonymous(self):
        assert check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X =\\=> i_")) == []

    def test_negative_output_may_be_bound(self):
        q = "str1 :: a ==> (i_X, i_Z), str2 :: i_X =\\=> i_Z"
        assert check_query(parse_query(q)) == []

    def test_strategy_must_be_ground(self):
        violations = check_query(parse_query("nf(i_S) :: a ==> i_X"))
        assert NONGROUND_STRATEGY in _kinds(violations)

    def test_violation_variables_do_not_follow_string_hashing(self):
        # A strategy's variables are gathered in a set, whose order follows
        # string hashing: under PYTHONHASHSEED=3 it is i_C, i_A, i_B.
        script = ("from rholog.syntax import parse_query\n"
                  "from rholog.wellmoded import check_query\n"
                  "for v in check_query(parse_query('f(i_A, i_B, i_C) :: a ==> i_X')):\n"
                  "    print(v.kind, v.variables)\n")
        env = dict(os.environ, PYTHONHASHSEED="3",
                   PYTHONPATH=str(Path(rholog.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             encoding="utf-8", env=env, timeout=60)
        assert run.stdout == (f"{UNBOUND_INPUT} (i_A, i_B, i_C)\n"
                              f"{NONGROUND_STRATEGY} (i_A, i_B, i_C)\n")

    def test_anonymous_input_rejected(self):
        violations = check_query(parse_query("str1 :: i_ ==> i_X"))
        assert _kinds(violations) == [UNBOUND_INPUT]

    def test_builtin_modes(self):
        assert check_query(parse_query("i_X is 2 + 3, i_X < 6")) == []
        violations = check_query(parse_query("i_X < 6"))
        assert _kinds(violations) == [UNBOUND_INPUT]

    def test_unknown_predicate_reported_distinctly(self):
        violations = check_query(parse_query("mystery(i_X)"))
        assert _kinds(violations) == [UNKNOWN_PREDICATE]


class TestClauses:
    def _clause(self, text):
        prog, _ = parse_program(text)
        return prog.items[0]

    def test_rewriting_clause_accepted(self):
        clause = self._clause(
            "rewrite(i_Str) :: c_Context(i_Redex) ==> c_Context(i_Contractum) :-\n"
            "    i_Str :: i_Redex ==> i_Contractum.")
        assert check_clause(clause) == []

    def test_body_input_must_be_bound(self):
        clause = self._clause("p :: a ==> i_Y :- q :: i_X ==> i_Y.")
        violations = check_clause(clause)
        assert UNBOUND_INPUT in _kinds(violations)
        assert any(iv("X") in v.variables for v in violations)

    def test_strategy_variable_escape(self):
        clause = self._clause("s(i_A) :: i_X ==> i_Y :- t(i_B) :: i_X ==> i_Y.")
        violations = check_clause(clause)
        assert STRATEGY_VAR_ESCAPE in _kinds(violations)
        escape = next(v for v in violations if v.kind == STRATEGY_VAR_ESCAPE)
        assert escape.variables == (iv("B"),)

    def test_head_output_never_bound(self):
        clause = self._clause("bad :: i_X ==> i_Y.")
        violations = check_clause(clause)
        assert _kinds(violations) == [UNBOUND_INPUT]
        assert violations[0].variables == (iv("Y"),)

    def test_anonymous_head_output_rejected(self):
        clause = self._clause("bad :: a ==> i_.")
        assert _kinds(check_clause(clause)) == [UNBOUND_INPUT]

    def test_violation_names_its_clause(self):
        clause = self._clause("\n\nbad :: a ==> i_Z :- q :: i_X ==> i_Y.")
        assert [str(v) for v in check_clause(clause)] == [
            "clause at line 3, literal 1: input variable(s) i_X not bound "
            "by any earlier output",
            "clause at line 3: head output variable(s) i_Z are never bound"]
        assert str(check_clause(clause, where="here")[0]).startswith(
            "here, literal 1: ")

    def test_negative_body_output_from_head_input(self):
        clause = self._clause(
            "p(i_K) :: i_X ==> true :- q :: i_X =\\=> i_K.")
        assert check_clause(clause) == []


class TestPrograms:
    def test_prover_program_is_well_moded(self):
        prog, _ = parse_program(corpus_source("examples/prover.rholog"))
        assert check_program(prog) == []

    def test_rewriting_strategies_are_well_moded(self):
        prog, _ = parse_program(corpus_source("prelude/rewrite.rholog"))
        assert check_program(prog) == []

    def test_example_programs_are_well_moded(self):
        for name in ("examples/strat.rholog", "examples/flatten.rholog",
                     "examples/replace.rholog"):
            prog, _ = parse_program(corpus_source(name))
            assert check_program(prog) == [], name

    def test_bad_clause_located(self):
        prog, _ = parse_program("ok :: a ==> a.\nbad :: i_X ==> i_Y.")
        violations = check_program(prog)
        assert len(violations) == 1
        assert "line 2" in violations[0].where

    def test_abbreviations_checked_after_expansion(self):
        prog, _ = parse_program("short := nf(step).")
        assert check_program(prog) == []

    def test_predicate_clauses_checked_only_when_used(self):
        # lookup/2 is never called from a rule body: not checked.
        unused, _ = parse_program(
            ":- mode(lookup(+, -)).\nlookup(i_K) :- i_X is i_K + 1.\n")
        assert check_program(unused) == []
        # Called from a rule body: its clause violations surface.
        used, _ = parse_program(
            ":- mode(lookup(+, -)).\n"
            "lookup(a, i_V) :- i_V is i_Missing + 1.\n"
            "s :: i_X ==> i_V :- lookup(i_X, i_V).\n")
        violations = check_program(used)
        assert UNBOUND_INPUT in _kinds(violations)


class TestRuntimeGuarantee:
    def test_selected_literals_ground_at_runtime(self):
        # str1's first result (f(a), b, a, f(a)) survives the negation:
        # str2 turns it into (f(a), b, a), which (a, s_) does not match.
        # Its second result (a, b, f(a), f(a)) is filtered out: str2 gives
        # (a, b, f(a)), which (a, s_) does match.  A literal selected with
        # a non-ground input would be reported as a runtime error.
        from rholog.engine import Session, consult_text
        from rholog.syntax import parse_hedge
        program = consult_text(corpus_source("examples/strat.rholog"))
        session = Session(program)
        answers = list(session.solve_text(
            "str1 :: (a, b, a, f(a)) ==> s_X, str2 :: (s_X) =\\=> (a, s_)"))
        assert [ans["s_X"] for ans in answers] == \
            [parse_hedge("(f(a), b, a, f(a))")]
        assert session.runtime_errors == []

    def test_checker_is_syntactic(self):
        # Same literal sequence, same verdict, regardless of any program.
        q1 = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_Y ==> i_Z"))
        q2 = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_Y ==> i_Z"))
        assert [str(v) for v in q1] == [str(v) for v in q2]
