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

Each matcher is a fresh ``dict`` from the pattern's variables to their
images.  Bindings are applied to the remaining pattern as soon as they are
made, so a repeated variable simply turns later occurrences into ground
subpatterns; the bindings made inside an element are then merged into each
matcher of the elements after it.  The enumeration is pure and
deterministic; failure is an empty stream.
"""

from __future__ import annotations

from typing import Iterator

from .terms import Apply, HOLE, Hedge, Var, apply_subst


def match_hedge(pattern: Hedge, subject: Hedge) -> Iterator[dict]:
    """Enumerate every matcher of ``pattern`` against the ground ``subject``."""
    if not isinstance(pattern, Hedge) or not isinstance(subject, Hedge):
        raise TypeError("match_hedge expects hedges on both sides")
    check_subject(subject)
    return _match_seq(pattern.items, subject.items)


def check_subject(subject: Hedge) -> None:
    """Raise ValueError unless ``subject`` is ground and hole-free."""
    if not subject.ground or subject.holes:
        raise ValueError(f"subject must be ground and hole-free: {subject!r}")


def _match_seq(pat: tuple, subj: tuple) -> Iterator[dict]:
    """Matchers of the pattern items ``pat``, binding only their variables."""
    if not pat:
        if not subj:
            yield {}
        return
    p0, rest = pat[0], pat[1:]

    if isinstance(p0, Var) and p0.kind == "s":
        if not rest:
            # A trailing sequence variable can only take the whole rest.
            yield {p0: Hedge(subj)}
            return
        # Shortest prefixes first.
        for k in range(len(subj) + 1):
            image = Hedge(subj[:k])
            for tail in _match_seq(_bind(rest, {p0: image}), subj[k:]):
                tail[p0] = image
                yield tail
        return

    if not subj:
        return
    s0, subj_rest = subj[0], subj[1:]

    if isinstance(p0, Var):  # individual variable
        for tail in _match_seq(_bind(rest, {p0: s0}), subj_rest):
            tail[p0] = s0
            yield tail
        return

    if p0.ground:  # a ground element matches only itself
        if p0 == s0:
            yield from _match_seq(rest, subj_rest)
        return

    head = p0.head
    if isinstance(head, Var) and head.kind == "c":
        if not isinstance(s0, Apply):
            return
        for ctx, sub in decompositions(s0):
            inner = apply_subst({head: ctx}, p0.args[0])
            for sigma in _match_seq((inner,), (sub,)):
                sigma[head] = ctx
                for tail in _match_seq(_bind(rest, sigma), subj_rest):
                    tail.update(sigma)
                    yield tail
        return

    if isinstance(head, Var):  # function variable
        if not (isinstance(s0, Apply) and isinstance(s0.head, str)):
            return
        args = apply_subst({head: s0.head}, p0.args)
        for sigma in _match_seq(args.items, s0.args.items):
            sigma[head] = s0.head
            for tail in _match_seq(_bind(rest, sigma), subj_rest):
                tail.update(sigma)
                yield tail
        return

    # Symbol-headed application.
    if not (isinstance(s0, Apply) and s0.head == head):
        return
    for sigma in _match_seq(p0.args.items, s0.args.items):
        for tail in _match_seq(_bind(rest, sigma), subj_rest):
            tail.update(sigma)
            yield tail


def _bind(pat: tuple, sigma: dict) -> tuple:
    """The remaining pattern items with ``sigma`` applied."""
    if not pat:
        return pat
    return apply_subst(sigma, Hedge(pat)).items


def decompositions(t) -> Iterator[tuple]:
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
        for ctx, sub in decompositions(arg):
            wrapped = Apply(t.head, Hedge(items[:i] + (ctx,) + items[i + 1:]))
            yield wrapped, sub
