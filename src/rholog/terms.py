"""Immutable syntax trees (variables, terms, hedges, contexts) and substitution.

A *term* is an individual variable, the reserved constant ``hole``, or an
application of a head to an argument hedge; the head is a function symbol
(plain ``str``), a function variable, or a context variable (whose argument
hedge always holds exactly one term).  Function symbols have flexible arity:
the same symbol may be applied to any number of arguments, and a constant
like ``a`` is the application of ``a`` to the empty hedge.

A *hedge* is a flat, ordered sequence of terms and sequence variables; the
empty hedge is written ``eps``.  Hedges flatten on construction, so
concatenation is associative with ``eps`` as its unit and no hedge ever
contains another hedge as an element.

A *context* is a term containing exactly one occurrence of ``hole``;
applying a context to a term replaces the hole with that term.

Everything here is immutable and compares structurally, so the backtracking
machinery can share values freely without copying.  Every :class:`Apply`
and :class:`Hedge` carries two facts, fixed when it is built from its
children's: ``ground`` (it contains no variable of any kind) and ``holes``
(how many times ``hole`` occurs in it).  Groundness and hole checks are
therefore O(1), and substitution returns ground sub-values as they are,
shared rather than copied.

``Hedge(items)`` and ``Apply(head, args)`` check and compute everything:
the hedge flattens nested hedges and folds its items' facts, the
application checks its head against its arguments.  Code that already
knows the answers builds through the two trusted constructors instead,
which set the slots directly and look at no item:
:func:`flat_hedge` takes a tuple that is already flat (terms and sequence
variables, no hedge) and that tuple's exact ``ground`` and ``holes``;
:func:`symbol_apply` takes a function symbol and its argument hedge.  A
wrong fact passed to :func:`flat_hedge` is never detected and silently
breaks matching and substitution, so callers pass only facts they have
just checked or computed from the children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

HOLE_NAME = "hole"

#: Variable kinds, keyed by their source-syntax prefix letter.
KINDS = ("i", "s", "f", "c")


@dataclass(frozen=True, slots=True)
class Var:
    """A variable of one of the four kinds.

    The kind is the prefix letter of the concrete syntax (``i_X`` is the
    individual variable ``Var("i", "X")``).  Anonymous variables keep the
    ``anon`` flag and carry a unique generated name, so every textual
    occurrence of ``i_`` is a distinct variable while still printing as a
    bare prefix.
    """

    kind: str
    name: str
    anon: bool = False
    # Dicts keyed by variables hash them on every lookup.
    _hash: int = field(init=False, repr=False, compare=False)

    # A variable is never ground and holds no hole.
    ground = False
    holes = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.anon)))

    def __hash__(self) -> int:
        return self._hash

    def text(self) -> str:
        return f"{self.kind}_" if self.anon else f"{self.kind}_{self.name}"

    def __repr__(self) -> str:
        return self.text()


class Hedge:
    """A flat, immutable sequence of terms and sequence variables."""

    __slots__ = ("items", "ground", "holes")

    def __init__(self, items: Iterable = ()):
        flat: list = []
        ground = True
        holes = 0
        for item in items:
            if isinstance(item, Hedge):
                flat.extend(item.items)
            else:
                flat.append(item)
            if not item.ground:
                ground = False
            holes += item.holes
        _set_items(self, tuple(flat))
        _set_hedge_ground(self, ground)
        _set_hedge_holes(self, holes)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Hedge is immutable")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Hedge(self.items[index])
        return self.items[index]

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hedge) and self.items == other.items

    def __hash__(self) -> int:
        return hash(("hedge", self.items))

    def __repr__(self) -> str:
        return _bounded_repr(self)


# The slot descriptors: they store past the immutability guard.
_set_items = Hedge.items.__set__
_set_hedge_ground = Hedge.ground.__set__
_set_hedge_holes = Hedge.holes.__set__
_new = object.__new__


def flat_hedge(items: tuple, ground: bool, holes: int) -> Hedge:
    """The hedge of ``items``, which must already be flat, with the given facts.

    Trusted: ``ground`` and ``holes`` must be exactly those of ``items``.
    """
    hedge = _new(Hedge)
    _set_items(hedge, items)
    _set_hedge_ground(hedge, ground)
    _set_hedge_holes(hedge, holes)
    return hedge


EMPTY_HEDGE = Hedge()


@dataclass(frozen=True, slots=True)
class Apply:
    """Application of a head to an argument hedge.

    ``head`` is a function symbol name, a function variable, or a context
    variable.  A context variable is applied to exactly one term; the
    reserved symbol ``hole`` never takes arguments.
    """

    head: Union[str, Var]
    args: Hedge = EMPTY_HEDGE
    ground: bool = field(init=False, compare=False, repr=False)
    holes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        head, args = self.head, self.args
        if isinstance(head, Var):
            if head.kind == "c" and (len(args) != 1
                                     or getattr(args.items[0], "kind", "") == "s"):
                raise ValueError("a context variable applies to exactly one term")
            if head.kind in ("i", "s"):
                raise ValueError(f"{head.text()} cannot head an application")
        elif head == HOLE_NAME and args:
            raise ValueError("hole never takes arguments")
        object.__setattr__(self, "ground", args.ground and not isinstance(head, Var))
        object.__setattr__(self, "holes", 1 if head == HOLE_NAME else args.holes)

    def __repr__(self) -> str:
        return _bounded_repr(self)


_set_head = Apply.head.__set__
_set_args = Apply.args.__set__
_set_apply_ground = Apply.ground.__set__
_set_apply_holes = Apply.holes.__set__


def symbol_apply(symbol: str, args: Hedge) -> Apply:
    """``Apply(symbol, args)`` for a function symbol, without the checks.

    A symbol head adds nothing to its arguments' facts; ``hole``, which
    takes no arguments and is a hole itself, goes through ``Apply``.
    """
    if symbol == HOLE_NAME:
        return Apply(symbol, args)
    t = _new(Apply)
    _set_head(t, symbol)
    _set_args(t, args)
    _set_apply_ground(t, args.ground)
    _set_apply_holes(t, args.holes)
    return t


def _bounded_repr(value, depth: int = 40) -> str:
    """Debug text in rough source syntax; very deep values are elided."""
    if depth <= 0:
        return "..."
    if isinstance(value, Var):
        return value.text()
    if isinstance(value, Hedge):
        if not value.items:
            return "eps"
        inner = ", ".join(_bounded_repr(i, depth - 1) for i in value.items)
        return inner if len(value.items) == 1 else f"({inner})"
    name = value.head.text() if isinstance(value.head, Var) else value.head
    if not value.args:
        return name
    return name + "(" + ", ".join(_bounded_repr(a, depth - 1)
                                  for a in value.args) + ")"


#: The reserved constant marking the insertion point of a context.
HOLE = Apply(HOLE_NAME)

# A term is a Var of kind "i" or an Apply; hedge elements additionally allow
# Vars of kind "s".  We keep these as plain unions rather than a class
# hierarchy: matching and printing dispatch on the two cases anyway.
Term = Union[Var, Apply]


def num(value: int) -> Apply:
    """The numeral constant for an integer."""
    return Apply(str(value))


def int_value(t) -> Optional[int]:
    """The integer a numeral constant denotes, or None."""
    if isinstance(t, Apply) and not t.args and isinstance(t.head, str):
        name = t.head
        if name.isdecimal() or (name.startswith("-") and name[1:].isdecimal()):
            return int(name)
    return None


def singleton(t) -> Hedge:
    """The hedge of the one element ``t``; a hedge is already its own."""
    if isinstance(t, Hedge):
        return t
    return flat_hedge((t,), t.ground, t.holes)


def vars_of(value) -> Iterator[Var]:
    """All variable occurrences in a term, hedge, or hedge element, in pre-order.

    The walk keeps its own stack, so nesting depth costs no recursion, and
    it never enters a ground sub-value.
    """
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, Var):
            yield value
        elif isinstance(value, Apply):
            if not value.ground:
                if isinstance(value.head, Var):
                    yield value.head
                stack.extend(reversed(value.args.items))
        elif isinstance(value, Hedge):
            if not value.ground:
                stack.extend(reversed(value.items))
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a syntax value: {value!r}")


def apply_subst(subst, value):
    """Apply a substitution to a term, hedge, or hedge element.

    Application is simultaneous: images are not themselves rewritten.  The
    image of a sequence variable splices into the surrounding hedge, a bound
    function variable replaces the head of its application, and a bound
    context variable application ``c_X(t)`` becomes its context image with
    the (rewritten) argument in place of the hole.  Ground values come back
    as the very same objects.

    ``subst`` is a ``dict``, typically a matcher; a variable it leaves
    unbound stays as it is.  Clause activation does not come here: it runs
    builders compiled by :func:`subst_builder`.
    """
    if isinstance(value, Hedge):
        if value.ground:
            return value
        return _apply_items(subst, value.items)
    result = _apply_elem(subst, value)
    if isinstance(result, Hedge):
        raise ValueError(f"sequence image {result!r} cannot stand as a term")
    return result


def _apply_items(subst, items: tuple) -> Hedge:
    """The hedge of ``items`` under ``subst``, sequence images spliced in."""
    flat = []
    ground = True
    holes = 0
    for item in items:
        if not item.ground:
            item = _apply_elem(subst, item)
            if not item.ground:
                ground = False
            if isinstance(item, Hedge):
                flat.extend(item.items)
                holes += item.holes
                continue
        flat.append(item)
        holes += item.holes
    return flat_hedge(tuple(flat), ground, holes)


def _apply_elem(subst, elem):
    if isinstance(elem, Var):
        image = subst.get(elem)
        return elem if image is None else image
    if isinstance(elem, Apply):
        if elem.ground:
            return elem
        head = elem.head
        if not isinstance(head, Var):
            return symbol_apply(head, _apply_items(subst, elem.args.items))
        if head.kind == "c":
            arg = apply_subst(subst, elem.args.items[0])
            ctx = subst.get(head)
            if ctx is None:
                return Apply(head, singleton(arg))
            return apply_context(ctx, arg)
        image = subst.get(head)
        return Apply(head if image is None else image,
                     _apply_items(subst, elem.args.items))
    raise TypeError(f"not a syntax value: {elem!r}")


def subst_builder(value, bound, local: dict) -> Callable:
    """``apply_subst`` of ``value``, compiled into a function of the substitution.

    The substitution binds each variable of ``bound`` to a ground image, as
    a matcher of a ground, hole-free subject does, and each other variable
    of ``value`` to a variable of its kind (a fresh one, at clause
    activation); a local context variable then heads its instantiated
    argument.  So the facts of every built node are known here: it is
    ground exactly when its source holds only variables of ``bound``, and
    it holds as many holes as its source.  The function therefore builds
    hedges and symbol applications through the trusted constructors, and
    looks up only the variables it meets.  Ground sub-values are kept, not
    compiled, so they cost no recursion, now or when the function runs.

    The variables outside ``bound`` are added to ``local``, a dict used as
    an ordered set, in the order :func:`apply_subst` first meets them: in
    pre-order, except that a context variable comes after its argument.
    """
    if isinstance(value, Var) and value.kind == "s" and value in bound:
        def sequence_image(subst):
            raise ValueError(f"sequence image {subst[value]!r} cannot stand as a term")
        return sequence_image
    return _builder(value, bound, local)[0]


# The builders below take what they use as default arguments: a plan keeps
# one function per non-ground node, and defaults cost less than closure cells.

def _builder(value, bound, local: dict):
    """The builder of ``value``, and whether what it builds is ground."""
    if value.ground:
        return (lambda subst, value=value: value), True
    if isinstance(value, Hedge):
        return _hedge_builder(value, bound, local)
    if isinstance(value, Var):
        if value not in bound:
            local[value] = None
        return itemgetter(value), value in bound
    head = value.head
    if not isinstance(head, Var):
        args, ground = _hedge_builder(value.args, bound, local)
        return (lambda subst, head=head, args=args:
                symbol_apply(head, args(subst))), ground
    if head.kind == "c":
        arg, ground = _builder(value.args.items[0], bound, local)
        if head in bound:
            return (lambda subst, head=head, arg=arg:
                    apply_context(subst[head], arg(subst))), ground
        local[head] = None
        return (lambda subst, head=head, arg=arg:
                Apply(subst[head], singleton(arg(subst)))), False
    if head not in bound:
        local[head] = None
    args, ground = _builder(value.args, bound, local)
    if head in bound:
        return (lambda subst, head=head, args=args:
                symbol_apply(subst[head], args(subst))), ground
    return (lambda subst, head=head, args=args:
            Apply(subst[head], args(subst))), False


# How an item of a hedge is built: the ground item itself, the item's
# image, the items of a sequence variable's image, or the item's builder.
_ITEM, _IMAGE, _SPLICE, _BUILT = range(4)


def _hedge_builder(hedge: Hedge, bound, local: dict):
    """The builder of a non-ground hedge, and whether what it builds is ground."""
    parts = []
    ground = True
    for item in hedge.items:
        if item.ground:
            parts.append((_ITEM, item))
        elif isinstance(item, Var):
            if item not in bound:
                local[item] = None
                ground = False
                parts.append((_IMAGE, item))
            else:
                parts.append((_SPLICE if item.kind == "s" else _IMAGE, item))
        else:
            build, item_ground = _builder(item, bound, local)
            ground = ground and item_ground
            parts.append((_BUILT, build))
    holes = hedge.holes
    if len(parts) == 1:
        how, x = parts[0]
        if how == _SPLICE:      # the image is the hedge
            return itemgetter(x), True
        if how == _IMAGE:
            return (lambda subst, var=x, ground=ground, holes=holes:
                    flat_hedge((subst[var],), ground, holes)), ground
        return (lambda subst, build=x, ground=ground, holes=holes:
                flat_hedge((build(subst),), ground, holes)), ground

    def build_hedge(subst, parts=tuple(parts), ground=ground, holes=holes):
        items = []
        for how, x in parts:
            if how == _ITEM:
                items.append(x)
            elif how == _IMAGE:
                items.append(subst[x])
            elif how == _SPLICE:
                items += subst[x].items
            else:
                items.append(x(subst))
        return flat_hedge(tuple(items), ground, holes)
    return build_hedge, ground


def apply_context(ctx, t):
    """Replace the single hole of ``ctx`` with the term ``t``."""
    if not (isinstance(ctx, Apply) and ctx.holes == 1):
        raise ValueError(f"malformed context (not one hole): {ctx!r}")
    # Walk down the arguments that hold the hole, then rebuild upwards.
    link = None
    while ctx.head != HOLE_NAME:
        items = ctx.args.items
        i = next(i for i, arg in enumerate(items) if arg.holes)
        link = (ctx, i, link)
        ctx = items[i]
    return plug(link, t)


def plug(link, new):
    """The term ``link`` leads into, with ``new`` at its position.

    A link is a parent chain ``(node, arg_index, parent_link)``: argument
    ``arg_index`` of ``node`` is the position, and ``parent_link`` is
    ``node``'s own link, ``None`` at the top (see
    :func:`rholog.matching.decompositions`).  Only the spine above the
    position is rebuilt.
    """
    while link is not None:
        node, i, link = link
        args = node.args
        items = args.items
        old = items[i]
        items = items[:i] + (new,) + items[i + 1:]
        if node.ground:  # a symbol head; only the replaced child's facts change
            new = symbol_apply(node.head, flat_hedge(
                items, new.ground, args.holes - old.holes + new.holes))
        else:
            new = Apply(node.head, Hedge(items))
    return new
