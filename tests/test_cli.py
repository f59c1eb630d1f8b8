"""Command-line behavior: batch runs, exit codes, checking, the REPL."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rholog
from rholog.cli import Repl, main, run_batch

from conftest import DEEP


def batch(args=None, **kwargs):
    out, err, in_ = io.StringIO(), io.StringIO(), io.StringIO(kwargs.pop("stdin", ""))
    code = run_batch(out=out, err=err, in_=in_, **kwargs)
    return code, out.getvalue(), err.getvalue()


class TestBatch:
    def test_three_answers_in_order(self):
        code, out, _ = batch(
            files=["examples/strat.rholog", "prelude/rewrite.rholog"],
            query_text="rewrite_out(strat) :: h(f(f(a)), f(a)) ==> i_X",
            all_answers=True)
        assert code == 0
        assert out == ("i_X = h(g(f(a)), f(a))\n\n"
                       "i_X = h(a, f(a))\n\n"
                       "i_X = h(f(f(a)), g(a))\n")

    def test_check_only_ok(self):
        code, out, _ = batch(files=["examples/prover.rholog"],
                             query_text=None, check_only=True)
        assert code == 0 and out == "ok\n"

    def test_check_only_reports_violations(self, tmp_path):
        bad = tmp_path / "bad.rholog"
        bad.write_text("bad :: i_X ==> i_Y.\n")
        code, out, err = batch(files=[str(bad)], query_text=None,
                               check_only=True)
        assert code == 2 and "mode violation" in err

    def test_failed_query_prints_false(self):
        code, out, _ = batch(files=[], query_text="id :: a ==> b")
        assert code == 1 and out == "false.\n"

    def test_default_is_first_answer(self):
        code, out, _ = batch(files=["examples/strat.rholog"],
                             query_text="str1 :: (a, b, a, f(a)) ==> s_X")
        assert code == 0
        assert out == "s_X = (f(a), b, a, f(a))\n"

    def test_max_answers_prefix(self):
        code, out, _ = batch(
            files=["examples/strat.rholog", "prelude/rewrite.rholog"],
            query_text="rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X",
            max_answers=2)
        assert code == 0
        assert out == "i_X = h(g(f(a)), f(a))\n\ni_X = h(a, f(a))\n"

    def test_zero_variable_answer_prints_true(self):
        code, out, _ = batch(files=["examples/strat.rholog"],
                             query_text="str1 :: (a, b, a, f(a)) =\\=> (b, s_)")
        assert code == 0 and out == "true.\n"

    def test_parse_error_exit_2(self):
        code, _, err = batch(files=[], query_text="str1 :: ==> x")
        assert code == 2 and "syntax error" in err

    def test_mode_violation_exit_2(self):
        code, _, err = batch(files=["examples/strat.rholog"],
                             query_text="str1 :: i_Y ==> i_X")
        assert code == 2 and "mode violation" in err

    def test_lenient_query_runs_anyway(self):
        code, out, err = batch(files=["examples/strat.rholog"],
                               query_text="str1 :: (a, a) ==> s_X, 1 < 2",
                               lenient=True)
        assert code == 0

    def test_missing_file_exit_2(self):
        code, _, err = batch(files=["no/such/file.rholog"], query_text="true")
        assert code == 2 and "no such program file" in err

    def test_trace_goes_to_err(self):
        code, out, err = batch(files=["examples/strat.rholog"],
                               query_text="str1 :: (a, b) ==> s_X",
                               all_answers=True, trace=True)
        assert code == 0
        assert "clause 1, matcher 1" in err
        assert "clause" not in out

    def test_depth_limit_exit_2(self, tmp_path):
        spin = tmp_path / "spin.rholog"
        spin.write_text("grow :: i_X ==> f(i_X).\nspin := nf(grow).\n")
        code, _, err = batch(files=[str(spin)],
                             query_text="spin :: a ==> i_X",
                             depth_limit=100)
        assert code == 2 and "frames" in err

    @pytest.mark.parametrize("query, lenient, message", [
        ("i_X is a + 1", False, "error: arithmetic error"),
        ("nl(a)", True, "error: unknown built-in call nl/1"),
    ])
    def test_runtime_error_exit_2(self, query, lenient, message):
        # The erring literal fails and the query reports false., but the
        # exit status still says that an error happened.
        code, out, err = batch(files=[], query_text=query, lenient=lenient)
        assert code == 2
        assert out == "false.\n"
        assert message in err

    def test_byte_identical_reruns(self):
        runs = [batch(files=["examples/strat.rholog", "prelude/rewrite.rholog"],
                      query_text="rewrite(strat) :: h(f(f(a)), f(a)) ==> i_X",
                      all_answers=True)
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestMainEntry:
    def test_query_flags(self, capsys):
        code = main(["--consult", "examples/strat.rholog",
                     "--query", "str1 :: (a, b) ==> s_X", "--all"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "s_X = (f(a), b)\n"

    def test_check_flag(self, capsys):
        assert main(["--check", "--consult", "examples/prover.rholog"]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_no_answers_exit_code(self, capsys):
        assert main(["--query", "id :: a ==> b"]) == 1

    @pytest.mark.parametrize("query", [
        "str1 :: i_Y ==> i_X",
        "nosuch :: i_Y ==> i_X",
        "id :: i_Y ==> i_X",
        "map1(id) :: (a, i_Y) ==> s_X",
        "rewrite(id) :: f(i_Y) ==> i_X",
        "nf(id) :: s_Y ==> s_X",
        "first_one(id) :: i_Y ==> i_X",
    ], ids=["str1", "nosuch", "id", "map1", "rewrite", "nf", "first_one"])
    def test_unbound_lenient_input_exit_2(self, query):
        # The lhs variable is never bound: whether the strategy has clauses,
        # none, or is a combinator, the literal is reported and fails, with
        # no traceback.
        run = _run_module("--consult", "examples/strat.rholog",
                          "--lenient", "--query", query)
        assert run.returncode == 2
        assert f"error: input of {query} is not ground" in run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout == "false.\n"

    def test_unbound_lenient_clause_output_exit_2(self, tmp_path):
        # A clause whose rhs variable is never bound passes only --lenient;
        # the forced match of its output is reported, not raised.
        program = tmp_path / "loose.rholog"
        program.write_text("p :: a ==> i_Z.\n")
        run = _run_module("--consult", str(program), "--lenient",
                          "--query", "p :: a ==> i_X")
        assert run.returncode == 2
        assert "is not ground and hole-free" in run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout == "false.\n"

    def test_sequence_variable_strategy_exit_2(self, tmp_path):
        # Its image may be a hedge, which cannot stand as a strategy: the
        # clause is rejected when it is read, not when it is activated.
        program = tmp_path / "seq.rholog"
        program.write_text("st(s_X) :: a ==> i_Y :- s_X :: a ==> i_Y.\n")
        run = _run_module("--consult", str(program),
                          "--query", "st(b) :: a ==> i_Y")
        assert run.returncode == 2
        assert "the strategy of a '::' literal must be a term" in run.stderr
        assert "Traceback" not in run.stderr

    def test_digit_int_cannot_read_exit_2(self):
        run = _run_module("--query", "id :: \u00b2 ==> i_X")
        assert run.returncode == 2
        assert "syntax error: unexpected character '\u00b2'" in run.stderr
        assert "Traceback" not in run.stderr


class TestProgramFiles:
    """Files are UTF-8 (a byte-order mark is skipped); errors name the file."""

    def test_undecodable_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.rholog"
        bad.write_bytes(b"p :: a ==> \xff.\n")
        run = _run_module("--consult", str(bad), "--query", "p :: a ==> i_X")
        assert run.returncode == 2
        assert f"error: cannot read {bad}: not valid UTF-8 at byte offset 11" in run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout == ""

    def test_undecodable_file_offset_counts_the_bom(self, tmp_path):
        bad = tmp_path / "bad.rholog"
        bad.write_bytes(b"\xef\xbb\xbfp :: a ==> \xff.\n")
        run = _run_module("--consult", str(bad), "--query", "p :: a ==> i_X")
        assert run.returncode == 2
        assert "not valid UTF-8 at byte offset 14" in run.stderr
        assert "Traceback" not in run.stderr

    def test_shell_reports_undecodable_file_and_goes_on(self, tmp_path):
        bad = tmp_path / "bad.rholog"
        bad.write_bytes(b"\xff\n")
        run = _run_module(stdin=f"consult('{bad}').\nid :: a ==> i_X.\n\nhalt.\n")
        assert run.returncode == 0
        assert f"error: cannot read {bad}: not valid UTF-8 at byte offset 0" in run.stderr
        assert "Traceback" not in run.stderr
        assert "i_X = a" in run.stdout

    def test_byte_order_mark_is_skipped(self, tmp_path):
        program = tmp_path / "bom.rholog"
        program.write_bytes("\ufeffp :: a ==> b.\r\nq :: b ==> c.\n".encode("utf-8"))
        run = _run_module("--consult", str(program), "--query",
                          "p :: a ==> i_X, q :: i_X ==> i_Y")
        assert run.returncode == 0
        assert run.stdout == "i_X = b\ni_Y = c\n"
        assert "Traceback" not in run.stderr

    def test_syntax_error_names_the_file(self, tmp_path):
        program = tmp_path / "typo.rholog"
        program.write_text("p :: a ==> b.\np :: \u00b2 ==> a.\n", encoding="utf-8")
        run = _run_module("--consult", str(program), "--query", "p :: a ==> i_X")
        assert run.returncode == 2
        assert (f"syntax error: unexpected character '\u00b2' ({program}, "
                "line 2, column 6)") in run.stderr
        assert "Traceback" not in run.stderr


class TestCountFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--max-answers", "-1"), ("--max-answers", "0"), ("--max-answers", "two"),
        ("--depth-limit", "0"), ("--depth-limit", "-5"), ("--depth-limit", "1.5"),
    ])
    def test_not_a_positive_integer_is_a_usage_error(self, flag, value):
        run = _run_module("--consult", "examples/strat.rholog", flag, value,
                          "--query", "str1 :: (a, b) ==> s_X")
        assert run.returncode == 2
        assert f"argument {flag}: expected a positive integer, got '{value}'" in run.stderr
        assert "usage: rholog" in run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout == ""

    def test_positive_values_run(self):
        run = _run_module("--consult", "examples/strat.rholog", "--max-answers", "1",
                          "--depth-limit", "50", "--query", "str1 :: (a, b) ==> s_X")
        assert run.returncode == 0
        assert run.stdout == "s_X = (f(a), b)\n"


def _run_module(*args, stdin=""):
    """``python -m rholog`` with ``args``, on the rholog under test."""
    src = str(Path(rholog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, "-m", "rholog", *args],
                          input=stdin, capture_output=True, encoding="utf-8",
                          env=env, timeout=60)


#: ``f(...f(a)...)``, 5,000 applications deep.
DEEP_TERM = "f(" * 5000 + "a" + ")" * 5000


class TestProbeRecursion:
    """Probes run as frames of the query's one stack, so the depth limit
    stops a derivation that recurses through them."""

    @pytest.mark.parametrize("program, query", [
        ("loop :: i_X ==> i_Y :- first_one(loop) :: f(i_X) ==> i_Y.",
         "loop :: a ==> i_Y"),
        ("grow :: i_X ==> i_Y :- nf(grow) :: f(i_X) ==> i_Y.",
         "grow :: a ==> i_Y"),
        ("neg :: i_X ==> i_X :- neg :: f(i_X) =\\=> i_.",
         "neg :: a ==> i_Y"),
    ], ids=["first_one", "nf", "negation"])
    def test_recursion_through_probes_exit_2(self, tmp_path, program, query):
        # Each derivation step nests one more strategy probe.
        path = tmp_path / "probe.rholog"
        path.write_text(program + "\n")
        run = _run_module("--consult", str(path), "--query", query,
                          "--depth-limit", "1000")
        assert run.returncode == 2
        assert "error: choice-point stack exceeded 1000 frames" in run.stderr
        assert "Traceback" not in run.stderr


class TestRecursionBackstop:
    """Whatever exhausts Python's recursion limit ends in a rholog error.

    Comparing two deep terms still recurses; solving and printing a deep
    answer no longer do.
    """

    def test_deep_term_exit_2(self):
        run = _run_module("--query", f"id :: {DEEP_TERM} ==> {DEEP_TERM}")
        assert run.returncode == 2
        assert "error: nested too deeply" in run.stderr
        assert "Traceback" not in run.stderr

    def test_deep_answer_prints(self):
        run = _run_module("--query", f"id :: {DEEP_TERM} ==> i_X")
        assert run.returncode == 0
        assert run.stdout == f"i_X = {DEEP_TERM}\n"

    def test_shell_reports_and_goes_on(self):
        run = _run_module(stdin=f"id :: {DEEP_TERM} ==> {DEEP_TERM}.\n"
                                "id :: a ==> i_X.\n\nhalt.\n")
        assert run.returncode == 0
        assert "error: nested too deeply" in run.stderr
        assert "Traceback" not in run.stderr
        assert "i_X = a" in run.stdout


def test_deep_nonground_rhs_exit_2(tmp_path):
    # Instantiating a clause whose rhs nests a variable 100,000 deep
    # exhausts the recursion limit: a rholog error, not a traceback.
    path = tmp_path / "deep.rholog"
    path.write_text("deep :: i_X ==> " + "f(" * DEEP + "i_X" + ")" * DEEP + ".\n")
    run = _run_module("--consult", str(path), "--query", "deep :: a ==> i_Y")
    assert run.returncode == 2
    assert "error: nested too deeply" in run.stderr
    assert "Traceback" not in run.stderr


def repl_session(script, files=()):
    out, err = io.StringIO(), io.StringIO()
    repl = Repl(files=files, in_=io.StringIO(script), out=out, err=err)
    code = repl.run()
    return code, out.getvalue(), err.getvalue()


class TestRepl:
    def test_query_and_next_answer(self):
        code, out, _ = repl_session(
            "str1 :: (a, b, a, f(a)) ==> s_X.\n;\n;\nhalt.\n",
            files=["examples/strat.rholog"])
        assert code == 0
        assert "s_X = (f(a), b, a, f(a))" in out
        assert "s_X = (a, b, f(a), f(a))" in out
        assert "false." in out          # exhausted after the second ';'

    def test_stop_after_first_answer(self):
        _, out, _ = repl_session(
            "str1 :: (a, b, a, f(a)) ==> s_X.\n\nhalt.\n",
            files=["examples/strat.rholog"])
        assert out.count("s_X =") == 1

    def test_consult_command(self):
        _, out, _ = repl_session(
            "consult('examples/strat.rholog').\n"
            "str2 :: (a, a) ==> s_X.\n\nhalt.\n")
        assert "% consulted" in out
        assert "s_X = a" in out

    def test_consult_mode_violation_rejected_and_session_continues(self, tmp_path):
        bad = tmp_path / "bad.rholog"
        bad.write_text("bad :: i_X ==> i_Y.\n")
        code, out, err = repl_session(
            f"consult('{bad}').\ntrue.\n\nhalt.\n")
        assert "not well-moded" in err
        assert "true." in out           # session kept running

    def test_empty_input_reprompts(self):
        code, out, _ = repl_session("\n\ntrue.\n\nhalt.\n")
        assert code == 0 and "true." in out

    def test_eof_ends_session(self):
        code, _, _ = repl_session("")
        assert code == 0

    def test_multiline_query(self):
        _, out, _ = repl_session(
            "str1 ::\n  (a, b)\n  ==> s_X.\n\nhalt.\n",
            files=["examples/strat.rholog"])
        assert "s_X = (f(a), b)" in out

    def test_query_errors_reported(self):
        _, _, err = repl_session("str1 :: i_Y ==> i_X.\nhalt.\n",
                                 files=["examples/strat.rholog"])
        assert "mode violation" in err

    def test_interactive_strategy_through_repl(self):
        _, out, _ = repl_session(
            "interactive :: (a) ==> s_Y.\nstr1.\nfinish.\n\nhalt.\n",
            files=["examples/strat.rholog"])
        assert "current hedge: f(a)" in out
        assert "s_Y = f(a)" in out

    def test_false_for_failing_query(self):
        _, out, _ = repl_session("id :: a ==> b.\nhalt.\n")
        assert "false." in out


class TestOneQueryPath:
    """Batch mode and the shell load files and check queries the same way."""

    LENIENT_WARNING = ("warning: query, literal 1: output variable(s) i_X of a "
                       "negative literal must be anonymous or already bound\n")

    def test_batch_lenient_query_prints_its_warning(self):
        code, out, err = batch(files=["examples/strat.rholog"],
                               query_text="str1 :: (b) =\\=> i_X", lenient=True)
        assert code == 0
        assert err == self.LENIENT_WARNING
        assert out == "i_X = i_X\n"

    def test_shell_lenient_query_prints_its_warning_and_runs(self):
        out, err = io.StringIO(), io.StringIO()
        repl = Repl(files=["examples/strat.rholog"], lenient=True,
                    in_=io.StringIO("str1 :: (b) =\\=> i_X.\n\nhalt.\n"),
                    out=out, err=err)
        assert repl.run() == 0
        assert err.getvalue() == self.LENIENT_WARNING
        assert "i_X = i_X\n" in out.getvalue()

    def test_shell_reports_a_syntax_error_in_a_consulted_file_and_goes_on(self, tmp_path):
        program = tmp_path / "typo.rholog"
        program.write_text("p :: a ==> b.\np :: ==> a.\n", encoding="utf-8")
        code, out, err = repl_session(f"consult('{program}').\nid :: a ==> i_X.\n\nhalt.\n")
        assert code == 0
        assert err.startswith("syntax error: ")
        assert f"({program}, line 2" in err
        assert "% consulted" not in out
        assert "i_X = a" in out
