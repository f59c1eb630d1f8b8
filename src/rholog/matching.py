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

Splits and positions that cannot match are passed over before any image or
context is built, and nothing is reordered.  A sequence variable followed by
more pattern tries only the splits after which the rest of its hedge can
still fit and the next item can start there (:func:`_splits`).  A context
variable passes over positions whose head differs from a symbol-headed
argument pattern's, and binds the zipper link of each position it tries,
not its context: the context is plugged only when a matcher is yielded or
the variable is met again, and then goes back into the same slot.

The search keeps its bindings in one environment, a ``dict``: it binds,
recurses and unbinds on backtracking, and the dict's insertion order serves
as the trail of a Prolog machine (Warren 1983).  The pattern is never
rewritten.  A variable met again is checked against its binding instead: an
individual variable by equality, a sequence variable by comparing its image
with the next slice of the subject, a function variable by comparing head
symbols, and a context variable by walking its context down to the hole in
step with the subject, then matching its argument pattern there.  Only
choice points (a sequence variable that is not last in its hedge, a context
variable) open a nested generator; everything else is a loop over pending
``(pattern, subject)`` frames.  Each matcher is a fresh ``dict`` copied from
the environment, holding exactly the pattern's variables.  The enumeration
is deterministic; failure is an empty stream.
"""

from __future__ import annotations

from typing import Iterator

from .terms import Apply, HOLE, HOLE_NAME, Hedge, Var, flat_hedge, plug


def match_hedge(pattern: Hedge, subject: Hedge) -> Iterator[dict]:
    """Enumerate every matcher of ``pattern`` against the ground ``subject``."""
    if not isinstance(pattern, Hedge) or not isinstance(subject, Hedge):
        raise TypeError("match_hedge expects hedges on both sides")
    if not subject.ground or subject.holes:
        raise ValueError(f"subject must be ground and hole-free: {subject!r}")
    # The search yields its one environment; each matcher is a copy of it.
    return map(dict, _match(pattern.items, 0, subject.items, 0, None, {}))


def _match(pat: tuple, i: int, subj: tuple, j: int, later, env: dict):
    """Yield ``env`` once for each way of matching ``pat[i:]`` against
    ``subj[j:]`` and then each ``(pat, i, subj, j, later)`` frame of ``later``.

    Bindings go into ``env`` and are there when the matcher is yielded.  A
    call may return with bindings of its own still in ``env``: each choice
    point drops everything bound since it began before it tries its next
    alternative and before it returns.
    """
    while True:
        if i == len(pat):
            if j != len(subj):
                return
            if later is None:
                yield env
                return
            pat, i, subj, j, later = later
            continue
        p = pat[i]
        i += 1

        if isinstance(p, Var):
            image = env.get(p)
            if p.kind == "s":
                if image is not None:  # compare with the bound slice
                    k = j + len(image.items)
                    if subj[j:k] != image.items:
                        return
                    j = k
                elif i == len(pat):  # a trailing sequence variable takes the rest
                    env[p] = flat_hedge(subj[j:], True, 0)
                    j = len(subj)
                else:  # shortest prefixes first
                    mark = len(env)
                    for k in _splits(pat, i, subj, j, env):
                        env[p] = flat_hedge(subj[j:k], True, 0)
                        yield from _match(pat, i, subj, k, later, env)
                        _undo(env, mark)
                    return
                continue
            if j == len(subj):
                return
            if image is None:
                env[p] = subj[j]
            elif image != subj[j]:
                return
            j += 1
            continue

        if j == len(subj):
            return
        s = subj[j]  # ground, so an application with a symbol head
        j += 1
        if p.ground:  # a ground element matches only itself
            if p != s:
                return
            continue
        head = p.head
        if isinstance(head, Var):
            image = env.get(head)
            if head.kind == "c":
                if image is None:  # hole positions in pre-order
                    mark = len(env)
                    frame = (pat, i, subj, j, later)
                    # A symbol-headed argument can match only a subterm
                    # with the same head; other positions are passed over.
                    arg = p.args.items[0]
                    lead = arg.head if isinstance(arg, Apply) \
                        and isinstance(arg.head, str) else None
                    for link, sub in decompositions(s):
                        if lead is not None and sub.head != lead:
                            continue
                        # The context stays a link (a tuple) until a
                        # matcher or a second occurrence needs it; the
                        # root's is the hole.
                        env[head] = HOLE if link is None else link
                        for _ in _match(p.args.items, 0, (sub,), 0, frame, env):
                            if type(env[head]) is tuple:
                                env[head] = plug(env[head], HOLE)
                            yield env
                        _undo(env, mark)
                    return
                if type(image) is tuple:  # plugged in place: the trail holds
                    image = env[head] = plug(image, HOLE)
                s = _at_hole(image, s)
                if s is None:
                    return
                later = (pat, i, subj, j, later)
                pat, i, subj, j = p.args.items, 0, (s,), 0
                continue
            if image is None:
                env[head] = s.head
            elif image != s.head:
                return
        elif head != s.head:
            return
        later = (pat, i, subj, j, later)
        pat, i, subj, j = p.args.items, 0, s.args.items, 0


def _splits(pat: tuple, i: int, subj: tuple, j: int, env: dict):
    """The ends ``k``, shortest first, of the images ``subj[j:k]`` worth
    trying for the sequence variable before ``pat[i]``.

    A split is passed over if ``pat[i:]`` cannot fill ``subj[k:]``, or if
    ``pat[i]`` cannot start at ``subj[k]``.  ``pat[i:]`` needs an item for
    each term and the image of each bound sequence variable, and no more
    unless it holds an unbound one.  At ``subj[k]``, a ground term must
    equal it, a symbol or bound function variable head must be its head,
    and a bound individual variable's image must equal it.
    """
    stop, exact = len(subj), True
    for q in pat[i:]:
        if isinstance(q, Var) and q.kind == "s":
            image = env.get(q)
            if image is None:
                exact = False
            else:
                stop -= len(image.items)
        else:
            stop -= 1
    ends = range(max(j, stop) if exact else j, stop + 1)
    q = pat[i]
    if isinstance(q, Var):  # of the variables, only a bound ``i_`` decides
        q = env.get(q) if q.kind == "i" else None
        if q is None:
            return ends
    head = q.head
    if isinstance(head, Var):
        head = None if head.kind == "c" else env.get(head)
        if head is None:
            return ends
    if q.ground:  # the heads first: most terms differ there
        return [k for k in ends if subj[k].head == head and subj[k] == q]
    return [k for k in ends if subj[k].head == head]


def _undo(env: dict, mark: int) -> None:
    """Drop the bindings made after ``env`` held ``mark`` of them."""
    while len(env) > mark:
        env.popitem()


def _at_hole(ctx, t):
    """The subterm of ``t`` at the hole of ``ctx`` if ``t`` fills ``ctx``, else None."""
    while ctx.head != HOLE_NAME:
        if ctx.head != t.head:
            return None
        items, subj = ctx.args.items, t.args.items
        if len(items) != len(subj):
            return None
        k = next(k for k, arg in enumerate(items) if arg.holes)
        if items[:k] != subj[:k] or items[k + 1:] != subj[k + 1:]:
            return None
        ctx, t = items[k], subj[k]
    return t


def decompositions(t) -> Iterator[tuple]:
    """Every ``(link, subterm)`` split of a ground term, leftmost-outermost.

    Positions come in pre-order: ``t`` itself first, with link ``None``;
    then each argument's positions, left to right.  The link is the context
    around the subterm as a zipper (Huet 1997): the parent chain
    ``(node, arg_index, parent_link)``, where argument ``arg_index`` of
    ``node`` is the subterm and ``parent_link`` is ``node``'s own link.  The
    walk keeps its own stack and builds no term: ``plug(link, HOLE)`` is the
    context as a term with a hole, and ``plug(link, subterm)`` is ``t``.
    """
    if not isinstance(t, Apply):
        raise TypeError(f"only applications decompose into contexts: {t!r}")
    stack = [(None, t)]
    while stack:
        link, t = stack.pop()
        yield link, t
        items = t.args.items
        for i in range(len(items) - 1, -1, -1):
            stack.append(((t, i, link), items[i]))

