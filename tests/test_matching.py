"""Matcher behavior: documented cases, enumeration order, and the
soundness/completeness properties against the brute-force oracle."""

import random

import pytest

from rholog.matching import check_subject, decompositions, match_hedge
from rholog.terms import HOLE, Apply, Hedge, apply_subst, singleton

from conftest import (
    a,
    anon,
    brute_force_matchers,
    cv,
    fv,
    h,
    iv,
    matcher_set,
    named,
    random_match_case,
    sv,
)


class TestDocumentedCases:
    def test_context_and_sequence_example(self):
        # c_X(f(s_Y)) against g(f(a, b), h(f(a), f)): three matchers, found
        # outermost-first.
        pattern = Apply(cv("X"), singleton(a("f", sv("Y"))))
        subject = a("g", a("f", a("a"), a("b")), a("h", a("f", a("a")), a("f")))
        got = [named(m) for m in match_hedge(singleton(pattern), singleton(subject))]
        assert got == [
            {cv("X"): a("g", HOLE, a("h", a("f", a("a")), a("f"))),
             sv("Y"): h(a("a"), a("b"))},
            {cv("X"): a("g", a("f", a("a"), a("b")), a("h", HOLE, a("f"))),
             sv("Y"): singleton(a("a"))},
            {cv("X"): a("g", a("f", a("a"), a("b")), a("h", a("f", a("a")), HOLE)),
             sv("Y"): Hedge()},
        ]

    def test_function_variable_example(self):
        pattern = h(sv("X"),
                    Apply(fv("F"), h(iv("X"), a("a"), anon("s", "w"))),
                    sv("Y"))
        subject = h(a("a"), a("f", a("b")), a("g", a("a"), a("b")),
                    a("h", a("b"), a("a")))
        got = [named(m) for m in match_hedge(pattern, subject)]
        assert {sv("X"): h(a("a"), a("f", a("b")), a("g", a("a"), a("b"))),
                fv("F"): "h", iv("X"): a("b"), sv("Y"): Hedge()} in got

    def test_two_way_sequence_match(self):
        pattern = h(sv("1"), a("a"), sv("2"))
        subject = h(a("a"), a("b"), a("a"), a("f", a("a")))
        got = [named(m) for m in match_hedge(pattern, subject)]
        assert got == [
            {sv("1"): Hedge(), sv("2"): h(a("b"), a("a"), a("f", a("a")))},
            {sv("1"): h(a("a"), a("b")), sv("2"): singleton(a("f", a("a")))},
        ]

    def test_head_clash_is_empty(self):
        assert list(match_hedge(h(a("a")), h(a("b")))) == []

    def test_all_splits_shortest_first(self):
        # Frozen from the brute-force enumeration of the three splits.
        pattern = h(sv("X"), sv("Y"))
        subject = h(a("a"), a("b"))
        got = [named(m) for m in match_hedge(pattern, subject)]
        assert got == [
            {sv("X"): Hedge(), sv("Y"): h(a("a"), a("b"))},
            {sv("X"): singleton(a("a")), sv("Y"): singleton(a("b"))},
            {sv("X"): h(a("a"), a("b")), sv("Y"): Hedge()},
        ]
        assert matcher_set(match_hedge(pattern, subject)) == \
            brute_force_matchers(pattern, subject)

    def test_single_term_cases(self):
        assert [named(m) for m in match_hedge(h(iv("X")), h(a("f", a("a"))))] == \
            [{iv("X"): a("f", a("a"))}]
        got = [named(m) for m in match_hedge(h(Apply(fv("F"), singleton(sv("Args")))),
                                             h(a("h", a("b"), a("a"))))]
        assert got == [{fv("F"): "h", sv("Args"): h(a("b"), a("a"))}]
        # Unique by construction: round-trips through application.
        sigma = got[0]
        assert apply_subst(sigma, Apply(fv("F"), singleton(sv("Args")))) == \
            a("h", a("b"), a("a"))

    def test_context_over_two_positions(self):
        got = [named(m) for m in match_hedge(h(Apply(cv("C"), singleton(a("a")))),
                                             h(a("f", a("a"), a("a"))))]
        assert got == [{cv("C"): a("f", HOLE, a("a"))},
                       {cv("C"): a("f", a("a"), HOLE)}]

    def test_repeated_variables_constrain(self):
        pattern = h(sv("1"), iv("x"), sv("2"), iv("x"), sv("3"))
        subject = h(a("a"), a("b"), a("a"), a("f", a("a")))
        got = [named(m) for m in match_hedge(pattern, subject)]
        assert [g[iv("x")] for g in got] == [a("a")]

    def test_repeated_context_variable(self):
        # Both occurrences of c_X must carve their subjects identically.
        pattern = h(Apply(cv("X"), singleton(iv("Y"))),
                    Apply(cv("X"), singleton(iv("Z"))))
        subject = h(a("f", a("a")), a("f", a("b")))
        got = [named(m) for m in match_hedge(pattern, subject)]
        assert got == [
            {cv("X"): HOLE, iv("Y"): a("f", a("a")), iv("Z"): a("f", a("b"))},
            {cv("X"): a("f", HOLE), iv("Y"): a("a"), iv("Z"): a("b")},
        ]
        assert matcher_set(match_hedge(pattern, subject)) == \
            brute_force_matchers(pattern, subject)

    def test_repeated_function_variable(self):
        pattern = h(Apply(fv("F"), singleton(iv("Y"))),
                    Apply(fv("F"), singleton(iv("Z"))))
        assert [named(m) for m in match_hedge(
            pattern, h(a("g", a("a")), a("g", a("b"))))] == [
            {fv("F"): "g", iv("Y"): a("a"), iv("Z"): a("b")}]
        assert list(match_hedge(pattern, h(a("g", a("a")), a("k", a("b"))))) == []


class TestHolePositions:
    def test_leaf(self):
        assert _hole_positions(a("a")) == [()]

    def test_preorder_walk(self):
        t = a("h", a("f", a("f", a("a"))), a("f", a("a")))
        assert _hole_positions(t) == \
            [(), (1,), (1, 1), (1, 1, 1), (2,), (2, 1)]

    def test_flat_term(self):
        assert _hole_positions(a("f", a("b"), a("c"))) == [(), (1,), (2,)]

    def test_decompositions_rebuild_subject(self):
        t = a("h", a("f", a("f", a("a"))), a("f", a("a")))
        from rholog.terms import apply_context
        for ctx, sub in decompositions(t):
            assert apply_context(ctx, sub) == t


class TestOrderProperties:
    def test_context_order_follows_hole_positions(self):
        rng = random.Random(7)
        from conftest import random_ground_term
        for _ in range(50):
            subject = random_ground_term(rng, 3)
            pattern = Apply(cv("X"), singleton(iv("Y")))
            contexts = [m.get(cv("X"))
                        for m in match_hedge(singleton(pattern), singleton(subject))]
            expected = [_hollow_at(subject, p) for p in _preorder(subject)]
            assert contexts == expected

    def test_sequence_bindings_shortest_first(self):
        rng = random.Random(8)
        from conftest import random_ground_hedge
        for _ in range(50):
            subject = random_ground_hedge(rng, 4, 2)
            pattern = h(sv("1"), iv("X"), sv("2"))
            lengths = [len(m.get(sv("1")))
                       for m in match_hedge(pattern, subject)]
            assert lengths == sorted(lengths)

    def test_order_determinism(self):
        rng = random.Random(9)
        for _ in range(50):
            pattern, subject = random_match_case(rng)
            first = list(match_hedge(pattern, subject))
            second = list(match_hedge(pattern, subject))
            assert first == second


def _preorder(t, path=()):
    """Every position of ``t`` as a path of 1-based argument indices,
    root first, then each argument's positions left to right."""
    yield path
    for i, arg in enumerate(t.args, 1):
        yield from _preorder(arg, path + (i,))


def _hole_positions(t):
    """The position of the hole in each context ``decompositions`` yields."""
    out = []
    for ctx, _ in decompositions(t):
        path = ()
        while ctx != HOLE:
            i = next(i for i, arg in enumerate(ctx.args, 1) if arg.holes)
            path += (i,)
            ctx = ctx.args[i - 1]
        out.append(path)
    return out


def _hollow_at(t, path):
    if not path:
        return HOLE
    i, rest = path[0], path[1:]
    items = t.args.items
    return Apply(t.head, Hedge(items[:i - 1] + (_hollow_at(items[i - 1], rest),)
                               + items[i:]))


from hypothesis import given, strategies as st


@given(st.randoms(use_true_random=False))
def test_soundness_property(rng):
    pattern, subject = random_match_case(rng)
    for sigma in match_hedge(pattern, subject):
        assert apply_subst(sigma, pattern) == subject


class TestAgainstOracle:
    def test_small_corpus_sound_and_complete(self):
        rng = random.Random(2024)
        for _ in range(300):
            pattern, subject = random_match_case(rng)
            found = list(match_hedge(pattern, subject))
            for sigma in found:
                assert apply_subst(sigma, pattern) == subject
            seen = [frozenset(m.items()) for m in found]
            assert len(seen) == len(set(seen)), "duplicate matcher emitted"
            assert set(seen) == brute_force_matchers(pattern, subject)

    def test_failure_is_empty_stream(self):
        assert list(match_hedge(h(a("a")), h(a("b")))) == []
        assert list(match_hedge(Hedge(), h(a("a")))) == []

    def test_subject_must_be_ground(self):
        with pytest.raises(ValueError):
            list(match_hedge(h(a("a")), h(iv("X"))))
        with pytest.raises(ValueError):
            list(match_hedge(h(a("a")), singleton(a("f", HOLE))))

    def test_deep_subject_needs_no_recursion(self):
        # f(f(...f(a)...)) 10,000 levels deep, far past the default
        # recursion limit: checking and matching it must not walk it.
        t = a("a")
        for _ in range(10_000):
            t = Apply("f", singleton(t))
        check_subject(singleton(t))
        matchers = list(match_hedge(h(iv("X")), singleton(t)))
        assert len(matchers) == 1
        assert matchers[0].get(iv("X")) is t
