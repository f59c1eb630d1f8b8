"""Matching of variable patterns against ground hedges.

A matching equation pairs a pattern hedge (which may contain all four
variable kinds) with a ground, hole-free subject hedge.  Such an equation
has finitely many solutions (*matchers*); :func:`match_hedge` enumerates
them lazily, exactly once each, in a fixed canonical order:

* the leftmost unresolved pattern element is decomposed first;
* a sequence variable tries shorter prefixes of the subject before longer
  ones;
* a context variable tries hole positions in pre-order (leftmost-outermost);
* a function variable takes the head symbol of the subject term.

Bindings are applied to the remaining pattern as soon as they are made, so
a repeated variable simply turns later occurrences into ground subpatterns.
The enumeration is pure and deterministic; failure is an empty stream.

The context traversal order is a module-level toggle: flipping
``TRAVERSAL`` to ``"innermost"`` makes context variables (and with them the
``rewrite`` combinator) explore deepest subterms first.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .terms import (
    EMPTY_SUBST,
    Apply,
    HOLE,
    Hedge,
    Subst,
    Var,
    apply_subst,
    singleton,
)

#: Default traversal order for context-variable enumeration.
TRAVERSAL = "outermost"


def match_hedge(pattern: Hedge, subject: Hedge, subst: Subst = EMPTY_SUBST,
                traversal: Optional[str] = None) -> Iterator[Subst]:
    """Enumerate every matcher of ``pattern`` against the ground ``subject``.

    Any bindings already present in ``subst`` are applied to the pattern
    before matching starts, and extended copies of ``subst`` are yielded.
    """
    if not isinstance(pattern, Hedge) or not isinstance(subject, Hedge):
        raise TypeError("match_hedge expects hedges on both sides")
    check_subject(subject)
    if len(subst):
        pattern = apply_subst(subst, pattern)
    order = traversal or TRAVERSAL
    return _match_seq(pattern.items, subject.items, subst, order)


def check_subject(subject: Hedge) -> None:
    """Raise ValueError unless ``subject`` is ground and hole-free."""
    if not subject.ground or subject.holes:
        raise ValueError(f"subject must be ground and hole-free: {subject!r}")


def match_term(pattern, subject, subst: Subst = EMPTY_SUBST,
               traversal: Optional[str] = None) -> Iterator[Subst]:
    """Matching specialized to single terms (singleton hedges)."""
    return match_hedge(singleton(pattern), singleton(subject), subst, traversal)


def _match_seq(pat: tuple, subj: tuple, subst: Subst, order: str) -> Iterator[Subst]:
    if not pat:
        if not subj:
            yield subst
        return
    p0, rest = pat[0], pat[1:]

    if isinstance(p0, Var) and p0.kind == "s":
        if not rest:
            # A trailing sequence variable can only take the whole rest.
            yield subst._bind_unchecked(p0, Hedge(subj))
            return
        # Shortest prefixes first.
        for k in range(len(subj) + 1):
            bound = subst._bind_unchecked(p0, Hedge(subj[:k]))
            yield from _match_seq(_rewrite(rest, p0, bound), subj[k:], bound, order)
        return

    if not subj:
        return
    s0, subj_rest = subj[0], subj[1:]

    if isinstance(p0, Var):  # individual variable
        bound = subst._bind_unchecked(p0, s0)
        yield from _match_seq(_rewrite(rest, p0, bound), subj_rest, bound, order)
        return

    if p0.ground:  # a ground element matches only itself
        if p0 == s0:
            yield from _match_seq(rest, subj_rest, subst, order)
        return

    head = p0.head
    if isinstance(head, Var) and head.kind == "c":
        if not isinstance(s0, Apply):
            return
        for ctx, sub in decompositions(s0, order):
            bound = subst._bind_unchecked(head, ctx)
            inner = apply_subst({head: ctx}, p0.args[0])
            for extended in _match_seq((inner,), (sub,), bound, order):
                yield from _match_seq(
                    _rewrite_diff(rest, extended, subst), subj_rest, extended, order)
        return

    if isinstance(head, Var):  # function variable
        if not (isinstance(s0, Apply) and isinstance(s0.head, str)):
            return
        bound = subst._bind_unchecked(head, s0.head)
        args = apply_subst({head: s0.head}, p0.args)
        for extended in _match_seq(args.items, s0.args.items, bound, order):
            yield from _match_seq(
                _rewrite_diff(rest, extended, subst), subj_rest, extended, order)
        return

    # Symbol-headed application.
    if not (isinstance(s0, Apply) and s0.head == head):
        return
    for extended in _match_seq(p0.args.items, s0.args.items, subst, order):
        yield from _match_seq(
            _rewrite_diff(rest, extended, subst), subj_rest, extended, order)


def _rewrite(pat: tuple, var: Var, subst: Subst) -> tuple:
    """Apply the binding of ``var`` to the remaining pattern elements."""
    if not pat:
        return pat
    image = {var: subst.get(var)}
    return apply_subst(image, Hedge(pat)).items


def _rewrite_diff(pat: tuple, extended: Subst, base: Subst) -> tuple:
    """Apply the bindings added between ``base`` and ``extended``."""
    added = extended.added_since(base)
    if not added or not pat:
        return pat
    return apply_subst(added, Hedge(pat)).items


def hole_positions(t, traversal: Optional[str] = None) -> Tuple[Tuple[int, ...], ...]:
    """Every position of the ground term ``t``, in traversal order.

    Positions are paths of 1-based argument indices; the root is ``()``.
    The outermost order is a pre-order walk (root first, then each
    argument's positions left to right); the innermost order visits each
    argument's positions before the node itself.
    """
    order = traversal or TRAVERSAL
    out: list = []

    def walk(node, path):
        if order == "outermost":
            out.append(path)
        for i, arg in enumerate(node.args, 1):
            walk(arg, path + (i,))
        if order != "outermost":
            out.append(path)

    walk(t, ())
    return tuple(out)


def decompositions(t, traversal: Optional[str] = None) -> Iterator[tuple]:
    """All (context, subterm) splits of a ground term, in traversal order.

    Filling the context's hole with the subterm reconstructs ``t``.  The
    first outermost decomposition is ``(hole, t)`` itself.
    """
    order = traversal or TRAVERSAL
    if not isinstance(t, Apply):
        raise TypeError(f"only applications decompose into contexts: {t!r}")
    if order == "outermost":
        yield HOLE, t
    items = t.args.items
    for i, arg in enumerate(items):
        for ctx, sub in decompositions(arg, order):
            wrapped = Apply(t.head, Hedge(items[:i] + (ctx,) + items[i + 1:]))
            yield wrapped, sub
    if order != "outermost":
        yield HOLE, t
