"""Core value types: contexts, substitution, hedges."""

import random

import pytest
from hypothesis import given, strategies as st

from rholog.matching import decompositions, match_hedge, plug
from rholog.syntax import format_value, parse_term
from rholog.terms import (
    EMPTY_HEDGE,
    HOLE,
    Apply,
    Hedge,
    Var,
    apply_context,
    apply_subst,
    int_value,
    singleton,
    vars_of,
)

from conftest import (
    a,
    cv,
    fv,
    h,
    iv,
    random_ground_term,
    random_instantiation,
    random_match_case,
    sv,
)


class TestApplyContext:
    def test_fills_the_hole(self):
        ctx = a("f", HOLE, a("b"))
        assert apply_context(ctx, a("g", a("a"))) == a("f", a("g", a("a")), a("b"))

    def test_identity_context(self):
        t = a("f", a("a"), a("b"))
        assert apply_context(HOLE, t) == t

    def test_nested_hole(self):
        # Derived by substituting the hole by hand.
        ctx = a("g", a("f", a("a"), a("b")), a("h", HOLE, a("f")))
        expected = a("g", a("f", a("a"), a("b")), a("h", a("f", a("a")), a("f")))
        assert apply_context(ctx, a("f", a("a"))) == expected

    def test_result_is_hole_free_and_contains_argument(self):
        ctx = a("f", a("g", HOLE), a("b"))
        filled = apply_context(ctx, a("k", a("a")))
        assert filled.holes == 0
        assert a("k", a("a")) in {sub for _, sub in decompositions(filled)}

    @pytest.mark.parametrize("bad", [a("f", a("a")), a("f", HOLE, HOLE)])
    def test_malformed_context_rejected(self, bad):
        with pytest.raises(ValueError):
            apply_context(bad, a("a"))


class TestApplySubst:
    def test_image_of_mixed_hedge(self):
        # All four variable kinds at once: the context image wraps the
        # individual image, the function image renames the head, the
        # sequence images splice flat.
        sigma = ({
            cv("Ctx"): a("f", HOLE),
            iv("Term"): a("g", sv("X")),
            fv("Funct"): "g",
            sv("Terms1"): EMPTY_HEDGE,
            sv("Terms2"): h(a("b"), a("c")),
        })
        hedge = h(
            Apply(cv("Ctx"), singleton(iv("Term"))),
            Apply(fv("Funct"), h(sv("Terms1"), a("a"), sv("Terms2"))),
        )
        expected = h(a("f", a("g", sv("X"))), a("g", a("a"), a("b"), a("c")))
        assert apply_subst(sigma, hedge) == expected

    def test_identity_is_identity(self):
        hedge = h(a("f", iv("X"), sv("Y")), sv("Z"))
        assert apply_subst({}, hedge) == hedge

    def test_empty_splice(self):
        sigma = ({sv("X"): EMPTY_HEDGE})
        assert apply_subst(sigma, h(a("a"), sv("X"), a("b"))) == h(a("a"), a("b"))

    def test_application_is_simultaneous(self):
        # The image of i_X mentions s_Y, but s_Y's own image is not applied
        # to it: application happens in a single pass.
        sigma = ({iv("X"): a("f", sv("Y")), sv("Y"): singleton(a("b"))})
        result = apply_subst(sigma, h(iv("X"), sv("Y")))
        assert result == h(a("f", sv("Y")), a("b"))

    def test_no_hole_introduced(self):
        sigma = ({cv("C"): a("f", HOLE), iv("X"): a("a")})
        result = apply_subst(sigma, singleton(Apply(cv("C"), singleton(iv("X")))))
        assert result.holes == 0


class TestHedge:
    def test_concat_unit(self):
        # Concatenation is construction from the parts: eps is its unit.
        assert Hedge((EMPTY_HEDGE, h(a("a"), a("b")))) == h(a("a"), a("b"))
        assert Hedge((h(a("a")), h(a("b"), a("c")))) == h(a("a"), a("b"), a("c"))
        assert Hedge((EMPTY_HEDGE, EMPTY_HEDGE)) == EMPTY_HEDGE

    def test_flattening_is_canonical(self):
        left = Hedge((Hedge((a("a"), a("b"))), Hedge((a("c"),))))
        right = Hedge((a("a"), Hedge((a("b"), a("c")))))
        assert left == right == h(a("a"), a("b"), a("c"))

    def test_slicing_returns_hedges(self):
        hedge = h(a("a"), a("b"), a("c"))
        assert hedge[1:] == h(a("b"), a("c"))
        assert hedge[0] == a("a")


class TestNumerals:
    def test_decimal_names_denote_integers(self):
        assert int_value(a("42")) == 42
        assert int_value(a("-7")) == -7
        assert int_value(a("f", a("1"))) is None

    def test_digits_int_cannot_read_are_names(self):
        # '²'.isdigit() holds, but int('²') raises.
        assert int_value(a("\u00b2")) is None
        assert int_value(a("-\u00b2")) is None


class TestInvariants:
    def test_hole_never_takes_arguments(self):
        with pytest.raises(ValueError):
            Apply("hole", singleton(a("a")))

    def test_context_var_single_argument(self):
        with pytest.raises(ValueError):
            Apply(cv("C"), h(a("a"), a("b")))
        with pytest.raises(ValueError):
            Apply(cv("C"), h(sv("S")))


# -- randomized invariants -------------------------------------------------

_names = st.sampled_from(["a", "b", "f", "g"])


def _terms(depth=3):
    return st.recursive(
        _names.map(Apply),
        lambda children: st.tuples(_names, st.lists(children, max_size=3)).map(
            lambda nw: Apply(nw[0], Hedge(nw[1]))),
        max_leaves=8)


@given(st.lists(st.lists(_terms(), max_size=3), min_size=2, max_size=4))
def test_hedge_flattening_associative(groups):
    nested = Hedge(Hedge(g) for g in groups)
    flat = Hedge(t for g in groups for t in g)
    assert nested == flat


@given(_terms(), _terms(), st.data())
def test_context_application_reinserts_argument(shell, arg, data):
    positions = [()] + [p for p in _all_positions(shell) if p]
    path = data.draw(st.sampled_from(positions))
    ctx = _dig(shell, path)
    filled = apply_context(ctx, arg)
    assert filled.holes == 0
    assert _subterm_at(filled, path) == arg


def _all_positions(t, path=()):
    yield path
    for i, child in enumerate(t.args, 1):
        yield from _all_positions(child, path + (i,))


def _dig(t, path):
    if not path:
        return HOLE
    i, rest = path[0], path[1:]
    items = t.args.items
    return Apply(t.head, Hedge(items[:i - 1] + (_dig(items[i - 1], rest),) + items[i:]))


def _subterm_at(t, path):
    for i in path:
        t = t.args[i - 1]
    return t


# -- cached facts ------------------------------------------------------------

_open_leaves = st.sampled_from(
    [iv("X"), sv("Y"), HOLE, Apply(fv("F")), Apply(cv("C"), singleton(a("a")))])


def _open_terms():
    """Ground terms from _terms(), mixed with holes and every variable kind."""
    return st.recursive(
        st.one_of(_terms(), _open_leaves),
        lambda children: st.tuples(_names, st.lists(children, max_size=3)).map(
            lambda nw: Apply(nw[0], Hedge(nw[1]))),
        max_leaves=8)


def _holes_by_walk(value):
    if isinstance(value, Hedge):
        return sum(_holes_by_walk(item) for item in value.items)
    if isinstance(value, Apply):
        return (value.head == "hole") + _holes_by_walk(value.args)
    return 0


def _nested(value):
    """The value and every Apply and Hedge inside it."""
    if isinstance(value, (Apply, Hedge)):
        yield value
        for item in (value.args if isinstance(value, Apply) else value).items:
            yield from _nested(item)


@given(st.lists(_open_terms(), max_size=4), st.lists(_open_terms(), max_size=4),
       _terms(), _terms(), st.data())
def test_cached_facts_agree_with_a_full_walk(left, right, shell, image, data):
    hedge = Hedge((Hedge(left), Hedge(right)))
    i, j = sorted(data.draw(st.integers(0, len(hedge))) for _ in range(2))
    ctx = _dig(shell, data.draw(st.sampled_from(list(_all_positions(shell)))))
    images = {iv("X"): image, sv("Y"): Hedge((image, shell)), fv("F"): "g",
              cv("C"): ctx}
    keep = data.draw(st.lists(st.booleans(), min_size=4, max_size=4))
    sigma = ({v: img for (v, img), k in zip(images.items(), keep) if k})
    values = [hedge, hedge[i:j], apply_subst(sigma, hedge),
              apply_subst(sigma, hedge[i:j]), apply_context(ctx, image)]
    values += [apply_context(ctx, t) for t in hedge if isinstance(t, Apply)]
    for value in values:
        for v in _nested(value):
            assert v.ground == (next(vars_of(v), None) is None)
            assert v.holes == _holes_by_walk(v)
            if v.ground:
                assert apply_subst(sigma, v) is v


# -- facts of built values --------------------------------------------------

def _assert_facts_from_children(value):
    """Every node's ``ground``/``holes`` equal what its children give."""
    for node in _nested(value):
        if isinstance(node, Hedge):
            assert not any(isinstance(item, Hedge) for item in node.items)
            assert node.ground == all(item.ground for item in node.items)
            assert node.holes == sum(item.holes for item in node.items)
        else:
            assert node.ground == (not isinstance(node.head, Var) and node.args.ground)
            assert node.holes == (1 if node.head == "hole" else node.args.holes)


@pytest.mark.parametrize("seed", range(4))
def test_built_values_carry_the_facts_of_their_children(seed):
    rng = random.Random(seed)
    for _ in range(150):
        pattern, subject = random_match_case(rng)
        built = [pattern, subject, singleton(pattern), singleton(subject)]
        # Matcher images, and the pattern rebuilt from each matcher.
        for sigma in match_hedge(pattern, subject):
            built += [v for v in sigma.values() if not isinstance(v, str)]
            built.append(apply_subst(sigma, pattern))
        # Sequence images that splice, and part of them only, so that the
        # result keeps some variables.
        sigma = random_instantiation(rng, pattern)
        built.append(apply_subst(sigma, pattern))
        part = {v: img for v, img in sigma.items() if rng.random() < 0.5}
        built.append(apply_subst(part, pattern))
        holed = {v: Hedge((HOLE, img)) if v.kind == "s" else img
                 for v, img in part.items()}
        built.append(apply_subst(holed, pattern))
        # Every position of a ground term, plugged with the hole, with the
        # subterm itself, with another term and with a variable.
        t = random_ground_term(rng, 3)
        other = random_ground_term(rng, 2)
        for link, sub in decompositions(t):
            ctx = plug(link, HOLE)
            built += [ctx, plug(link, sub), plug(link, other), plug(link, iv("X")),
                      apply_context(ctx, other), singleton(sub)]
            built.append(parse_term(format_value(ctx)))
        # A context under a context variable: rebuilt through its variable head.
        built.append(apply_context(Apply(cv("C"), singleton(HOLE)), t))
        built.append(singleton(iv("X")))
        built += [parse_term(format_value(pattern)), parse_term(format_value(t))]
        for value in built:
            _assert_facts_from_children(value)


# -- variable occurrences ----------------------------------------------------

def _var_terms():
    """Terms with variables of every kind, several names each, at any depth."""
    leaves = st.one_of(_terms(), st.sampled_from(
        [iv("X"), iv("Y"), HOLE, Apply(fv("F")), Apply(fv("G"), h(a("a")))]))

    def grow(children):
        items = st.lists(st.one_of(children, st.sampled_from([sv("S"), sv("T")])),
                         max_size=3)
        return st.one_of(
            st.tuples(st.sampled_from(["f", "g", fv("F"), fv("G")]), items).map(
                lambda hw: Apply(hw[0], Hedge(hw[1]))),
            st.tuples(st.sampled_from([cv("C"), cv("D")]), children).map(
                lambda cw: Apply(cw[0], singleton(cw[1]))))
    return st.recursive(leaves, grow, max_leaves=10)


def _vars_by_recursion(value):
    """Pre-order variable occurrences: an application's head, then its arguments."""
    if isinstance(value, Var):
        yield value
    elif isinstance(value, Apply):
        if isinstance(value.head, Var):
            yield value.head
        yield from _vars_by_recursion(value.args)
    else:
        for item in value.items:
            yield from _vars_by_recursion(item)


@given(st.lists(st.one_of(_var_terms(), st.sampled_from([sv("S"), sv("T")])),
                max_size=4))
def test_vars_of_is_the_pre_order_walk(items):
    hedge = Hedge(items)
    assert list(vars_of(hedge)) == list(_vars_by_recursion(hedge))
    for value in _nested(hedge):
        assert list(vars_of(value)) == list(_vars_by_recursion(value))


def test_vars_of_deep_term_needs_no_recursion():
    t = iv("X")
    for _ in range(10_000):
        t = a("f", t)
    assert list(vars_of(t)) == [iv("X")]
