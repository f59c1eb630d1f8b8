"""Span recorder that wraps rholog's layer functions from outside.

Every wrapped call is a span; so is every ``next()`` on a lazy result
(matcher streams, decompositions, combinator alternatives, solution
streams).  A span has a name, start, end, parent span and query id.  Spans
stay in memory and are written out when the run ends.  A layer's self
time is its spans' durations minus the time their child spans cover.

Nothing under ``src/`` is edited: :meth:`Recorder.install` replaces each
target in every ``rholog`` module that holds it, and
:meth:`Recorder.uninstall` puts the originals back.  Targets a later
version of rholog no longer has are skipped and listed in
``Recorder.missing``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

#: Spans kept for the span file; later ones still count toward self times.
SPAN_CAP = 50_000

# Kinds of target.
CALL = "call"          # the call is a span
LAZY = "lazy"          # each next() on the returned iterator is a span
BOTH = "both"          # the call and each next() on its result are spans

#: (span name, module, attribute path, kind, collapse).  With collapse, a
#: call made while a span of the same name is innermost gets no span of
#: its own: recursion stays inside one span and counts once.
TARGETS = (
    ("syntax.parse", "rholog.syntax", "parse_program", CALL, False),
    ("syntax.parse", "rholog.syntax", "parse_query", CALL, False),
    ("syntax.format", "rholog.syntax", "format_value", CALL, True),
    ("wellmoded.check", "rholog.wellmoded", "check_program", CALL, True),
    ("wellmoded.check", "rholog.wellmoded", "check_query", CALL, True),
    ("wellmoded.check", "rholog.wellmoded", "check_clause", CALL, True),
    ("wellmoded.check", "rholog.wellmoded", "mode_table_of", CALL, True),
    ("engine.consult", "rholog.engine", "consult", CALL, False),
    ("engine.query", "rholog.engine", "Session.solve_text", CALL, False),
    ("engine.rename", "rholog.engine", "Session.rename_clause", CALL, False),
    ("engine.solve", "rholog.engine", "Session.solve", LAZY, True),
    # The machine loop of sub-searches (negation, strategy probes) belongs
    # to the engine, not to the combinator that started it.
    ("engine.solve", "rholog.engine", "_Machine.run", LAZY, True),
    ("strategies.combinator", "rholog.strategies", "expand_combinator", BOTH, False),
    ("matching.match", "rholog.matching", "match_hedge", BOTH, False),
    ("matching.decomp", "rholog.matching", "decompositions", LAZY, True),
    ("terms.apply_subst", "rholog.terms", "apply_subst", CALL, True),
    ("program.apply_to_literal", "rholog.program", "apply_to_literal", CALL, False),
)


class Recorder:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []                  # open spans: [id, name, start, child time]
        self.self_time = defaultdict(float)
        self.calls = Counter()           # spans opened by calls, per name
        self.counts = Counter()          # items, streams and constructions
        self.root_time = 0.0             # time inside some outermost span
        self.qid = 0
        self.names = []                  # span name of each name index
        self._name_index = {}
        self.spans = array("d")          # id, name index, start, end, parent, qid
        self.span_total = 0
        self.missing = []
        self._undo = []

    # -- spans

    def begin(self, name: str) -> None:
        self.stack.append([self.span_total, name, self.clock(), 0.0])
        self.span_total += 1

    def end(self) -> None:
        end = self.clock()
        sid, name, start, child = self.stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.root_time += duration
            parent_id = -1
        if sid < SPAN_CAP:
            index = self._name_index.get(name)
            if index is None:
                index = self._name_index[name] = len(self.names)
                self.names.append(name)
            self.spans.extend((sid, index, start, end, parent_id, self.qid))

    def write_spans(self, path, query_names) -> None:
        """The kept spans as CSV, times in seconds of ``perf_counter``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,query\n")
            s = self.spans
            for k in range(0, len(s), 6):
                out.write(f"{int(s[k])},{self.names[int(s[k + 1])]},{s[k + 2]:.9f},"
                          f"{s[k + 3]:.9f},{int(s[k + 4])},{query_names[int(s[k + 5])]}\n")

    # -- wrappers

    def _call(self, fn, name, collapse):
        rec = self

        def wrapper(*args, **kwargs):
            if collapse and rec.stack and rec.stack[-1][1] == name:
                return fn(*args, **kwargs)
            rec.calls[name] += 1
            rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end()
        return wrapper

    def _lazy(self, fn, name, collapse, with_call):
        rec = self

        def wrapper(*args, **kwargs):
            if collapse and rec.stack and rec.stack[-1][1] == name:
                return fn(*args, **kwargs)
            if with_call:
                rec.calls[name] += 1
                rec.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end()
                if result is None:       # expand_combinator: not a combinator
                    return None
            else:
                result = fn(*args, **kwargs)
            rec.counts[name + ".streams"] += 1
            return _SpanIterator(rec, name, iter(result))
        return wrapper

    def _count_init(self, init):
        counts = self.counts

        def wrapper(obj, *args, **kwargs):
            counts["terms.hedges"] += 1
            init(obj, *args, **kwargs)
        return wrapper

    # -- installation

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "rholog" or name.startswith("rholog.")}
        for name, module_name, path, kind, collapse in TARGETS:
            owner = modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if kind == CALL:
                wrapper = self._call(original, name, collapse)
            else:
                wrapper = self._lazy(original, name, collapse, kind == BOTH)
            if outer:                    # a method: patch its class only
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        hedge = getattr(modules.get("rholog.terms"), "Hedge", None)
        if hedge is None:
            self.missing.append("rholog.terms.Hedge")
        else:
            self._patch(hedge, "__init__", hedge.__init__,
                        self._count_init(hedge.__init__))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _SpanIterator:
    """Wraps a lazy result so that each ``next()`` is a span."""

    __slots__ = ("_rec", "_name", "_it", "_yielded")

    def __init__(self, rec, name, it):
        self._rec = rec
        self._name = name
        self._it = it
        self._yielded = False

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        rec.begin(self._name)
        try:
            item = next(self._it)
        finally:
            rec.end()
        rec.counts[self._name + ".items"] += 1
        if not self._yielded:
            self._yielded = True
            rec.counts[self._name + ".productive"] += 1
        return item
