"""Acceptance suite: the externally checkable behavior of the interpreter.

Every criterion asserts exact values (and exact orders where an order is
documented) and prints one PASS/FAIL line; run with ``pytest -s`` to watch
them.  The property criteria (8a-8e) run large seeded-random corpora and
together stay under a minute.
"""

import random
from contextlib import contextmanager

from rholog.engine import Session, consult, consult_text
from rholog.matching import match_hedge
from rholog.program import RhoClause, RhoLiteral, SourceProgram
from rholog.strategies import corpus_source
from rholog.syntax import (
    default_operators,
    format_hedge,
    format_value,
    parse_hedge,
    parse_program,
    parse_query,
    parse_term,
)
from rholog.terms import HOLE, Apply, Hedge, Var, apply_subst, singleton
from rholog.wellmoded import (
    UNBOUND_INPUT,
    UNBOUND_NEGATIVE_OUTPUT,
    check_query,
)

from conftest import (
    a,
    brute_force_matchers,
    cv,
    fv,
    h,
    iv,
    matcher_set,
    named,
    random_ground_term,
    random_match_case,
    random_pattern,
    sv,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL — {label}")
        raise
    print(f"ACCEPTANCE PASS — {label}")


def strategy_session(*names):
    text = "".join(corpus_source(n) for n in names)
    return Session(consult_text(text))


def answer_values(session, query):
    out = []
    for answer in session.solve_text(query):
        (_, value), = answer.pairs
        out.append(value)
    return out


# -- 1: matching ------------------------------------------------------------

def test_criterion_1_matching():
    with criterion("1: context/sequence matching enumerates the documented matchers"):
        pattern = Apply(cv("X"), singleton(a("f", sv("Y"))))
        subject = a("g", a("f", a("a"), a("b")), a("h", a("f", a("a")), a("f")))
        got = {frozenset(named(m).items())
               for m in match_hedge(singleton(pattern), singleton(subject))}
        expected = {
            frozenset({(cv("X"), a("g", HOLE, a("h", a("f", a("a")), a("f")))),
                       (sv("Y"), h(a("a"), a("b")))}),
            frozenset({(cv("X"), a("g", a("f", a("a"), a("b")), a("h", HOLE, a("f")))),
                       (sv("Y"), singleton(a("a")))}),
            frozenset({(cv("X"), a("g", a("f", a("a"), a("b")),
                                   a("h", a("f", a("a")), HOLE))),
                       (sv("Y"), Hedge())}),
        }
        assert got == expected

        pattern2 = parse_hedge("(s_X, f_F(i_X, a, s_), s_Y)")
        subject2 = parse_hedge("(a, f(b), g(a, b), h(b, a))")
        found = [named(m) for m in match_hedge(pattern2, subject2)]
        assert found == [{sv("X"): parse_hedge("(a, f(b), g(a, b))"),
                          fv("F"): "h", iv("X"): a("b"), sv("Y"): Hedge()}]


# -- 2: the elementary strategy suite ---------------------------------------

def test_criterion_2_elementary_suite():
    with criterion("2: the eight elementary goals, counts, values, and orders"):
        session = strategy_session("examples/strat.rholog")

        assert answer_values(session, "str1 :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b, a, f(a))"), parse_hedge("(a, b, f(a), f(a))")]

        pairs = [(ans["s_X"], ans["s_Y"]) for ans in session.solve_text(
            "str1 :: (a, b, a, f(a)) ==> (s_X, f(a), s_Y)")]
        assert pairs == [
            (Hedge(), parse_hedge("(b, a, f(a))")),
            (parse_hedge("(f(a), b, a)"), Hedge()),
            (parse_hedge("(a, b)"), parse_hedge("(f(a))")),
            (parse_hedge("(a, b, f(a))"), Hedge()),
        ]

        assert list(session.solve_text("str1 :: (a, b, a, f(a)) =\\=> s_")) == []
        assert len(list(session.solve_text(
            "str1 :: (a, b, a, f(a)) =\\=> (b, s_)"))) == 1

        assert answer_values(
            session, "compose(str1, str2) :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b, a)"), parse_hedge("(a, b, f(a))")]

        assert answer_values(
            session, "choice(str1, str2) :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b, a, f(a))"), parse_hedge("(a, b, f(a), f(a))"),
            parse_hedge("(a, b, f(a))")]

        assert answer_values(
            session, "nf(compose(str1, str2)) :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b)")] * 2

        assert answer_values(
            session, "first_one(str1, str2) :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b, a, f(a))")]

        assert answer_values(
            session, "first_all(str1, str2) :: (a, b, a, f(a)) ==> s_X") == [
            parse_hedge("(f(a), b, a, f(a))"), parse_hedge("(a, b, f(a), f(a))")]


# -- 3: flattening ----------------------------------------------------------

def test_criterion_3_flattening():
    with criterion("3: flatten_one, flatten, and map1(flatten) results"):
        session = strategy_session("examples/flatten.rholog")
        first = next(session.solve_text(
            "flatten_one :: f(a, f(b, f(c)), f(d)) ==> i_X"))
        assert first["i_X"] == parse_term("f(a, b, f(c), f(d))")
        first = next(session.solve_text(
            "flatten :: f(a, f(b, f(c)), f(d)) ==> i_X"))
        assert first["i_X"] == parse_term("f(a, b, c, d)")
        first = next(session.solve_text(
            "map1(flatten) :: (a, f(f(a)), g(a, g(b))) ==> s_X"))
        assert first["s_X"] == parse_hedge("(a, f(a), g(a, b))")


# -- 4: replacement ---------------------------------------------------------

def test_criterion_4_replacement():
    with criterion("4: replace_all instantiates the documented term"):
        session = strategy_session("examples/replace.rholog")
        first = next(session.solve_text(
            "replace_all :: (f(x, g(x, y)), x -> z, y -> a) ==> i_X"))
        assert first["i_X"] == parse_term("f(z, g(z, a))")


# -- 5: the prover ----------------------------------------------------------

def test_criterion_5_prover():
    with criterion("5: prover consults cleanly; proves -(p) v p, refutes p"):
        session = strategy_session("examples/prover.rholog")   # strict consult
        first = next(session.solve_text(
            "prove :: sequent(ant(eps), cons(-(p) v p)) ==> i_X"))
        assert first["i_X"] == a("true")
        first = next(session.solve_text(
            "prove :: sequent(ant(eps), cons(p)) ==> i_X"))
        assert first["i_X"] == a("false")


# -- 6: rewriting strategies ------------------------------------------------

def test_criterion_6_rewriting_suite():
    with criterion("6: rewriting strategy answers, in their documented orders"):
        session = strategy_session("examples/strat.rholog", "prelude/rewrite.rholog")
        goal = "h(f(f(a)), f(a))"

        assert answer_values(session, f"rewrite(strat) :: {goal} ==> i_X") == [
            parse_term("h(g(f(a)), f(a))"), parse_term("h(a, f(a))"),
            parse_term("h(f(g(a)), f(a))"), parse_term("h(f(f(a)), g(a))")]

        assert answer_values(session, f"rewrite(strat) :: {goal} ==> i_X, !") == [
            parse_term("h(g(f(a)), f(a))")]

        assert answer_values(session, f"rewrite_left_out(strat) :: {goal} ==> i_X") == [
            parse_term("h(g(f(a)), f(a))"), parse_term("h(a, f(a))")]

        assert answer_values(session, f"rewrite_out(strat) :: {goal} ==> i_X") == [
            parse_term("h(g(f(a)), f(a))"), parse_term("h(a, f(a))"),
            parse_term("h(f(f(a)), g(a))")]

        assert answer_values(session, f"rewrite_left_in(strat) :: {goal} ==> i_X") == [
            parse_term("h(f(g(a)), f(a))")]
        assert answer_values(session,
                             f"rewrite_left_in_one(strat) :: {goal} ==> i_X") == [
            parse_term("h(f(g(a)), f(a))")]

        assert answer_values(session, f"rewrite_in(strat) :: {goal} ==> i_X") == [
            parse_term("h(f(g(a)), f(a))"), parse_term("h(f(f(a)), g(a))")]


# -- 7: well-modedness classifications ---------------------------------------

def test_criterion_7_well_modedness():
    with criterion("7: the four documented queries classify exactly"):
        rejected = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_Y ==> i_Z"))
        assert [v.kind for v in rejected] == [UNBOUND_INPUT]
        assert rejected[0].variables == (iv("Y"),)

        assert check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X ==> i_Z")) == []

        rejected = check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X =\\=> i_Z"))
        assert [v.kind for v in rejected] == [UNBOUND_NEGATIVE_OUTPUT]
        assert rejected[0].variables == (iv("Z"),)

        assert check_query(parse_query("str1 :: a ==> i_X, str2 :: i_X =\\=> i_")) == []


# -- 8: property suites -------------------------------------------------------

N_MATCH_CASES = 10_000
N_ROUNDTRIP = 10_000
N_REWRITE_SYSTEMS = 1_000
N_PREFIX_CASES = 1_000


def _match_corpus():
    rng = random.Random(0xA11CE)
    return [random_match_case(rng) for _ in range(N_MATCH_CASES)]


def test_criterion_8a_matcher_soundness():
    with criterion(f"8a: {N_MATCH_CASES} random matches round-trip"):
        for pattern, subject in _match_corpus():
            for sigma in match_hedge(pattern, subject):
                assert apply_subst(sigma, pattern) == subject


def test_criterion_8b_matcher_completeness():
    with criterion(f"8b: solution sets equal the brute-force oracle on "
                   f"{N_MATCH_CASES} cases"):
        for pattern, subject in _match_corpus():
            assert matcher_set(match_hedge(pattern, subject)) == \
                brute_force_matchers(pattern, subject)


def test_criterion_8c_parser_round_trip():
    with criterion(f"8c: {N_ROUNDTRIP} random values survive print-parse"):
        rng = random.Random(0xB0B)
        table = default_operators()
        for _ in range(N_ROUNDTRIP):
            if rng.random() < 0.5:
                value = random_ground_term(rng, 3)
            else:
                value = _named_only(random_pattern(rng))
            text = format_hedge(value, table) if isinstance(value, Hedge) \
                else format_value(value, table)
            reparsed = parse_hedge(text, table) if isinstance(value, Hedge) \
                else parse_term(text, table)
            assert reparsed == value, text


def _named_only(hedge):
    """Anonymous variables do not round-trip by design (each occurrence is
    fresh), so the round-trip corpus names them."""
    from rholog.terms import Hedge as _H, Apply as _A, Var as _V

    def fix(elem):
        if isinstance(elem, _V):
            return _V(elem.kind, "n" + elem.name.replace("~", "u"), False)
        if isinstance(elem, _A):
            head = fix(elem.head) if isinstance(elem.head, _V) else elem.head
            return _A(head, _H(fix(x) for x in elem.args))
        return elem

    return _H(fix(x) for x in hedge)


def _random_rule_system(rng):
    """One to three single-term rewrite rules, well-moded by construction."""
    n_vars = rng.randint(0, 2)
    variables = [iv(f"V{i}") for i in range(n_vars)]

    def lhs_term(depth):
        if depth <= 0 or rng.random() < 0.35:
            if variables and rng.random() < 0.45:
                return rng.choice(variables)
            return a(rng.choice(("a", "b", "f", "g")))
        return Apply(rng.choice(("f", "g", "h")),
                     Hedge(lhs_term(depth - 1) for _ in range(rng.randint(1, 2))))

    def rhs_term(pool, depth):
        if depth <= 0 or rng.random() < 0.4:
            if pool and rng.random() < 0.5:
                return rng.choice(pool)
            return a(rng.choice(("a", "b", "k")))
        return Apply(rng.choice(("f", "g", "k")),
                     Hedge(rhs_term(pool, depth - 1)
                           for _ in range(rng.randint(0, 2))))

    clauses = []
    for _ in range(rng.randint(1, 3)):
        lhs = lhs_term(2)
        if isinstance(lhs, Var):          # a bare-variable lhs rewrites anything
            lhs_vars = [lhs]
        else:
            from rholog.terms import vars_of
            lhs_vars = list(set(vars_of(lhs)))
        rhs = rhs_term(lhs_vars, 2)
        clauses.append(RhoClause(RhoLiteral(a("r"), singleton(lhs),
                                            singleton(rhs))))
    return clauses


_REWRITE_ITEMS = parse_program(corpus_source("prelude/rewrite.rholog"))[0].items


def test_criterion_8d_native_vs_clause_rewrite():
    with criterion(f"8d: native and clause-coded rewrite agree on "
                   f"{N_REWRITE_SYSTEMS} random rule systems"):
        rng = random.Random(0xD1CE)
        for _ in range(N_REWRITE_SYSTEMS):
            source = SourceProgram(list(_REWRITE_ITEMS) + _random_rule_system(rng))
            session = Session(consult(source))
            subject = format_value(random_ground_term(rng, 4))
            native = answer_values(
                session, f"rewrite(r) :: {subject} ==> i_Out")
            clause = answer_values(
                session, f"rewrite_by_clause(r) :: {subject} ==> i_Out")
            assert native == clause


def test_criterion_8e_combinator_prefix_laws():
    with criterion(f"8e: first_one <= first_all <= choice on "
                   f"{N_PREFIX_CASES} random cases"):
        rng = random.Random(0xFACADE)
        for _ in range(N_PREFIX_CASES):
            items = []
            for name in ("r0", "r1"):
                for clause in _random_rule_system(rng):
                    items.append(RhoClause(RhoLiteral(
                        a(name), clause.head.lhs, clause.head.rhs)))
            session = Session(consult(SourceProgram(items)))
            subject = format_value(random_ground_term(rng, 3))
            one = answer_values(session, f"first_one(r0, r1) :: {subject} ==> s_O")
            all_ = answer_values(session, f"first_all(r0, r1) :: {subject} ==> s_O")
            every = answer_values(session, f"choice(r0, r1) :: {subject} ==> s_O")
            assert len(one) <= 1
            assert one == all_[:len(one)]
            assert all_ == every[:len(all_)]
