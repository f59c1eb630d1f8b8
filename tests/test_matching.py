"""Matcher behavior: documented cases, enumeration order, and the
soundness/completeness properties against the brute-force oracle."""

import random

import pytest

from rholog.matching import decompositions, match_hedge, plug
from rholog.terms import (
    HOLE,
    Apply,
    Hedge,
    Var,
    apply_context,
    apply_subst,
    flat_hedge,
    singleton,
)

from conftest import (
    DEEP,
    a,
    anon,
    brute_force_matchers,
    cv,
    fv,
    h,
    iv,
    matcher_set,
    named,
    random_ground_hedge,
    random_ground_term,
    random_instantiation,
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
        for link, sub in decompositions(t):
            assert apply_context(plug(link, HOLE), sub) == t


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
    for link, _ in decompositions(t):
        ctx = plug(link, HOLE)
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
        matchers = list(match_hedge(h(iv("X")), singleton(t)))
        assert len(matchers) == 1
        assert matchers[0].get(iv("X")) is t

    def test_deep_pattern_needs_no_recursion(self):
        # f(f(...f(i_X, s_Y)..., s_Y), s_Y) 10,000 levels deep: descending
        # into arguments is a loop, and the trailing s_Y opens no choice
        # point, so nothing nests per level.
        t, pattern = a("a"), iv("X")
        for _ in range(10_000):
            t = Apply("f", singleton(t))
            pattern = Apply("f", h(pattern, sv("Y")))
        assert list(match_hedge(singleton(pattern), singleton(t))) == \
            [{iv("X"): a("a"), sv("Y"): Hedge()}]


# ---------------------------------------------------------------------------
# Order oracle: the substitution-based matcher the environment-based one
# replaced.  Every binding is applied to the rest of the pattern before it
# is matched, so a repeated variable becomes a ground subpattern.  It is
# slow but plainly canonical; the matcher must yield the same matchers in
# the same order.


def _oracle(pattern: Hedge, subject: Hedge):
    return _oracle_seq(pattern.items, subject.items)


def _oracle_seq(pat, subj):
    if not pat:
        if not subj:
            yield {}
        return
    p0, rest = pat[0], pat[1:]
    if isinstance(p0, Var) and p0.kind == "s":
        if not rest:
            yield {p0: Hedge(subj)}
            return
        for k in range(len(subj) + 1):
            image = Hedge(subj[:k])
            for tail in _oracle_seq(_oracle_bind(rest, {p0: image}), subj[k:]):
                tail[p0] = image
                yield tail
        return
    if not subj:
        return
    s0, subj_rest = subj[0], subj[1:]
    if isinstance(p0, Var):
        for tail in _oracle_seq(_oracle_bind(rest, {p0: s0}), subj_rest):
            tail[p0] = s0
            yield tail
        return
    if p0.ground:
        if p0 == s0:
            yield from _oracle_seq(rest, subj_rest)
        return
    head = p0.head
    if isinstance(head, Var) and head.kind == "c":
        for link, sub in decompositions(s0):
            ctx = plug(link, HOLE)
            inner = apply_subst({head: ctx}, p0.args[0])
            for sigma in _oracle_seq((inner,), (sub,)):
                sigma[head] = ctx
                for tail in _oracle_seq(_oracle_bind(rest, sigma), subj_rest):
                    tail.update(sigma)
                    yield tail
        return
    if isinstance(head, Var):
        args = apply_subst({head: s0.head}, p0.args)
        for sigma in _oracle_seq(args.items, s0.args.items):
            sigma[head] = s0.head
            for tail in _oracle_seq(_oracle_bind(rest, sigma), subj_rest):
                tail.update(sigma)
                yield tail
        return
    if s0.head != head:
        return
    for sigma in _oracle_seq(p0.args.items, s0.args.items):
        for tail in _oracle_seq(_oracle_bind(rest, sigma), subj_rest):
            tail.update(sigma)
            yield tail


def _oracle_bind(pat, sigma):
    return apply_subst(sigma, Hedge(pat)).items if pat else pat


def _assert_same_order(pattern, subject):
    assert list(match_hedge(pattern, subject)) == list(_oracle(pattern, subject))


_cX = lambda t: Apply(cv("X"), singleton(t))  # noqa: E731
_fF = lambda *ts: Apply(fv("F"), Hedge(ts))  # noqa: E731

#: Non-linear patterns that reach each bound-variable branch of the matcher:
#: a bound sequence, context and function variable, and a bound individual
#: variable met again inside a context.
_NON_LINEAR = [
    (h(sv("X"), sv("X")), h(a("a"), a("b"), a("a"), a("b"))),
    (h(sv("X"), sv("X")), h(a("a"), a("b"), a("a"))),
    (h(sv("X"), sv("X")), Hedge()),
    (h(sv("X"), a("a"), sv("X")), h(a("b"), a("a"), a("b"))),
    (h(sv("X"), a("a"), sv("X")), h(a("a"), a("a"), a("a"), a("a"))),
    (h(sv("X"), a("a"), sv("X")), h(a("a"), a("a"), a("a"))),
    (h(sv("X"), sv("Y"), sv("X")), h(a("a"), a("b"), a("a"), a("b"), a("a"))),
    (h(_cX(a("a")), _cX(a("b"))), h(a("f", a("a"), a("c")), a("f", a("b"), a("c")))),
    (h(_cX(a("a")), _cX(a("b"))), h(a("f", a("a"), a("c")), a("f", a("b"), a("d")))),
    (h(_cX(a("a")), _cX(a("b"))), h(a("f", a("c"), a("a")), a("f", a("d"), a("b")))),
    (h(_cX(a("a")), _cX(a("b"))), h(a("a"), a("b"))),
    (h(_cX(a("b")), _cX(a("b"))), h(a("f", a("a"), a("b")), a("f", a("a")))),
    (h(_cX(a("a")), _cX(a("b"))), h(a("f", a("a")), a("g", a("b")))),
    (h(_cX(_cX(a("a")))), h(a("f", a("f", a("a"))))),
    (h(_cX(_cX(a("a")))), h(a("f", a("g", a("a"))))),
    (h(_cX(_cX(a("a")))), h(a("a"))),
    (h(_fF(iv("X")), _fF(iv("X"))), h(a("g", a("a")), a("g", a("a")))),
    (h(_fF(iv("X")), _fF(iv("X"))), h(a("g", a("a")), a("k", a("a")))),
    (h(_fF(iv("X")), _fF(iv("X"))), h(a("g", a("a")), a("g", a("b")))),
    (h(iv("X"), _cX(iv("X"))), h(a("a"), a("f", a("a"), a("g", a("a"))))),
    (h(iv("X"), _cX(iv("X"))), h(a("f", a("a")), a("f", a("a")))),
    # A sequence variable before each kind of item its split check decides
    # on: a ground term, a symbol head, a bound and an unbound function
    # variable head, a bound individual variable, two unbound ones (where
    # only the length bound cuts), a bound and an unbound sequence variable,
    # and a context variable head.
    (h(sv("1"), a("b"), sv("2")), h(a("a"), a("b"), a("a"), a("b"))),
    (h(sv("1"), a("f", iv("Y")), sv("2")),
     h(a("f", a("a")), a("g", a("b")), a("f", a("b")))),
    (h(_fF(iv("X")), sv("1"), _fF(iv("Y")), sv("2")),
     h(a("g", a("a")), a("f", a("a")), a("g", a("b")), a("g", a("c")))),
    (h(sv("1"), _fF(a("b")), sv("2")), h(a("a"), a("f", a("b")), a("g", a("b")))),
    (h(iv("X"), sv("1"), iv("X"), sv("2")), h(a("a"), a("b"), a("a"), a("a"))),
    (h(sv("1"), iv("X"), iv("Y")), h(a("a"), a("b"), a("c"))),
    (h(sv("X"), a("b"), sv("1"), sv("X")), h(a("a"), a("b"), a("c"), a("a"))),
    (h(sv("X"), a("b"), sv("1"), sv("X")), h(a("a"), a("b"), a("a"))),
    (h(sv("1"), sv("2"), a("b")), h(a("b"), a("b"))),
    (h(sv("1"), _cX(a("b")), sv("2")), h(a("a"), a("f", a("b")), a("b"))),
    # Repeated context variables: the second occurrence plugs the first's
    # context, which until then is only a position.
    (h(_cX(iv("Y")), _cX(iv("Z"))), h(a("f", a("a"), a("b")), a("f", a("c"), a("b")))),
    (h(_cX(_fF(a("b"))), sv("1"), _cX(iv("Z"))),
     h(a("g", a("f", a("b"))), a("a"), a("g", a("c")))),
    (h(_cX(_cX(iv("Y")))), h(a("f", a("f", a("a"))))),
    (h(sv("1"), _cX(iv("Y")), sv("2"), _cX(a("a"))),
     h(a("f", a("a")), a("g", a("b")), a("g", a("a")))),
]


#: What follows the sequence variable ``s_1`` in a ``_split_case`` pattern,
#: with the items that must come before ``s_1`` to bind its variable: one
#: entry for each way the split check decides.
_FOLLOWERS = {
    "ground": lambda rng: ((), random_ground_term(rng, 1)),
    "symbol": lambda rng: ((), a(rng.choice("abf"), iv("Y"))),
    "bound f": lambda rng: ((_fF(sv("A")),), _fF(iv("Y"))),
    "bound i": lambda rng: ((iv("X"),), iv("X")),
    "bound s": lambda rng: ((sv("X"),), sv("X")),
    "s": lambda rng: ((), sv("2")),
    "c": lambda rng: (rng.choice(((), (_cX(iv("Z")),))), _cX(iv("Y"))),
}


def _split_case(rng, follower):
    """A hedge of 3 to 6 items in which ``s_1`` is followed by ``follower``'s
    item, and a subject of at most 8 items: half the time an instance of
    the pattern, so that matchers usually exist."""
    before, item = _FOLLOWERS[follower](rng)
    core = before + (sv("1"), item)
    fillers = [rng.choice((a(rng.choice("ab")), iv(f"W{n}"), sv(f"T{n}")))
               for n in range(max(0, rng.randint(3, 6) - len(core)))]
    cut = rng.randint(0, len(fillers))
    pattern = Hedge(fillers[:cut] + list(core) + fillers[cut:])
    if rng.random() < 0.5:
        subject = apply_subst(random_instantiation(rng, pattern), pattern)
        if len(subject) <= 8:
            return pattern, subject
    return pattern, random_ground_hedge(rng, 8, 1)


class TestOrderAgainstSubstitution:
    def test_seeded_corpus(self):
        rng = random.Random(5)
        for _ in range(500):
            _assert_same_order(*random_match_case(rng))

    @pytest.mark.parametrize("pattern, subject", _NON_LINEAR)
    def test_non_linear(self, pattern, subject):
        _assert_same_order(pattern, subject)

    def test_non_linear_cases_match(self):
        # The fixed cases are not all failures: most of them have matchers.
        assert sum(1 for p, s in _NON_LINEAR if any(match_hedge(p, s))) >= 10

    @pytest.mark.parametrize("follower", sorted(_FOLLOWERS))
    def test_split_checks(self, follower):
        # 100 cases for each kind of item after a sequence variable, 700 in
        # all; enough of them have matchers that a split skipped wrongly
        # shows as a lost matcher.
        rng = random.Random(f"split-{follower}")
        matched = 0
        for _ in range(100):
            pattern, subject = _split_case(rng, follower)
            _assert_same_order(pattern, subject)
            matched += any(match_hedge(pattern, subject))
        assert matched >= 40


@given(st.randoms(use_true_random=False))
def test_order_property(rng):
    _assert_same_order(*random_match_case(rng))


# ---------------------------------------------------------------------------
# The position walk against the recursive decompositions it replaced

def _recursive_decompositions(t):
    """All (context, subterm) splits of a ground term, leftmost-outermost.

    Positions come in pre-order: ``(hole, t)`` itself first, then each
    argument's splits left to right.  Filling the context's hole with the
    subterm reconstructs ``t``.
    """
    if not isinstance(t, Apply):
        raise TypeError(f"only applications decompose into contexts: {t!r}")
    yield HOLE, t
    items = t.args.items
    for i, arg in enumerate(items):
        for ctx, sub in _recursive_decompositions(arg):
            wrapped = Apply(t.head, Hedge(items[:i] + (ctx,) + items[i + 1:]))
            yield wrapped, sub


def _link_path(link):
    """The 1-based argument path from the root to a position's link."""
    path = []
    while link is not None:
        node, i, link = link
        path.append(i + 1)
    return tuple(reversed(path))


class TestPositionWalk:
    def test_against_recursive_decompositions(self):
        rng = random.Random(11)
        for _ in range(300):
            t = random_ground_term(rng, 5)
            expected = list(_recursive_decompositions(t))
            walked = list(decompositions(t))
            assert [sub for _, sub in walked] == [sub for _, sub in expected]
            assert [plug(link, HOLE) for link, _ in walked] == [ctx for ctx, _ in expected]
            assert [_link_path(link) for link, _ in walked] == list(_preorder(t))

    def test_plug_fills_its_position(self):
        t = a("h", a("f", a("f", a("a"))), a("f", a("a")))
        for link, sub in decompositions(t):
            assert plug(link, sub) == t
            assert plug(link, a("k")) == apply_context(_hollow_at(t, _link_path(link)), a("k"))
        link, sub = list(decompositions(t))[3]
        assert sub == a("a") and plug(link, a("b")) == \
            a("h", a("f", a("f", a("b"))), a("f", a("a")))

    def test_root_position_has_no_link(self):
        t = a("f", a("a"))
        assert next(decompositions(t)) == (None, t)
        assert plug(None, a("b")) == a("b")

    @pytest.mark.parametrize("value", [iv("X"), h(a("a"))])
    def test_only_applications_decompose(self, value):
        with pytest.raises(TypeError):
            next(decompositions(value))


def _chain(depth, leaf):
    """``f(g(f(...leaf...)))``: ``depth`` applications above ``leaf``, the
    one at depth ``k`` from the top headed ``"fg"[k % 2]``."""
    t = leaf
    for k in reversed(range(depth)):
        t = a("fg"[k % 2], t)
    return t


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepTerms:
    def test_walk_and_plug(self):
        t = _chain(DEEP, a("a"))
        count = 0
        for link, sub in decompositions(t):
            count += 1
        assert count == DEEP + 1 and sub == a("a")
        new = plug(link, a("b"))
        for k in range(DEEP):
            assert new.head == "fg"[k % 2]
            new = new.args.items[0]
        assert new == a("b")

    def test_context_at_the_deepest_position(self):
        t = _chain(DEEP, a("a"))
        for depth, (link, sub) in enumerate(decompositions(t)):
            pass
        assert depth == DEEP and sub == a("a")
        ctx = plug(link, HOLE)
        while ctx.head != "hole":
            ctx = ctx.args.items[0]
            depth -= 1
        assert depth == 0

    def test_context_is_built_only_where_the_argument_can_match(self, monkeypatch):
        # c_X(b) against f(...f(b)...): only the leaf has head b, so only
        # there is a context plugged; plugging at every position would be
        # quadratic in depth.
        import rholog.matching

        depth = 20_000
        t = a("b")
        for _ in range(depth):
            t = a("f", t)
        plugged = []

        def counting_plug(link, new):
            plugged.append(new)
            assert len(plugged) == 1, "a context was plugged at a position b cannot match"
            return plug(link, new)

        monkeypatch.setattr(rholog.matching, "plug", counting_plug)
        matchers = list(match_hedge(h(Apply(cv("X"), singleton(a("b")))), h(t)))
        assert len(matchers) == 1 and plugged == [HOLE]
        ctx = matchers[0][cv("X")]
        for _ in range(depth):
            assert ctx.head == "f" and ctx.holes == 1
            ctx = ctx.args.items[0]
        assert ctx == HOLE

    def test_a_lazy_context_is_plugged_once(self, monkeypatch):
        # c_X(f_F(b)) against f(...f(b)...): f_F(b) has no symbol lead, so
        # every position is tried, but only the one above the leaf matches,
        # and only its context is plugged.
        import rholog.matching

        depth = 20_000
        t = a("b")
        for _ in range(depth):
            t = a("f", t)
        plugged = []

        def counting_plug(link, new):
            plugged.append(new)
            assert len(plugged) == 1, "a context was plugged at a position that failed"
            return plug(link, new)

        monkeypatch.setattr(rholog.matching, "plug", counting_plug)
        pattern = Apply(cv("X"), singleton(Apply(fv("F"), singleton(a("b")))))
        matchers = list(match_hedge(h(pattern), h(t)))
        assert len(matchers) == 1 and plugged == [HOLE]
        assert matchers[0][fv("F")] == "f"
        ctx = matchers[0][cv("X")]
        for _ in range(depth - 1):
            assert ctx.head == "f" and ctx.holes == 1
            ctx = ctx.args.items[0]
        assert ctx == HOLE


class TestSplitsThatCannotMatch:
    """A sequence variable's splits that cannot match build no image."""

    @pytest.fixture
    def images(self, monkeypatch):
        import rholog.matching

        built = []

        def counting_flat_hedge(items, ground, holes):
            built.append(items)
            return flat_hedge(items, ground, holes)

        monkeypatch.setattr(rholog.matching, "flat_hedge", counting_flat_hedge)
        return built

    def test_a_split_that_cannot_start_builds_no_image(self, images):
        # (s_1, b, s_2) against a, ..., a, b: b starts only at the last
        # item, so s_1 gets one image and the trailing s_2 the other.
        subject = Hedge((a("a"),) * 1000 + (a("b"),))
        matchers = list(match_hedge(h(sv("1"), a("b"), sv("2")), subject))
        assert [named(m) for m in matchers] == \
            [{sv("1"): Hedge((a("a"),) * 1000), sv("2"): Hedge()}]
        assert len(images) == 2

    def test_a_split_past_the_length_bound_builds_no_image(self, images):
        # (s_1, i_X, i_Y) against 1000 a's: the two individual variables
        # take exactly the last two items, so only one split fits.
        subject = Hedge((a("a"),) * 1000)
        matchers = list(match_hedge(h(sv("1"), iv("X"), iv("Y")), subject))
        assert [named(m) for m in matchers] == \
            [{sv("1"): Hedge((a("a"),) * 998), iv("X"): a("a"), iv("Y"): a("a")}]
        assert len(images) == 1
