"""Reference-speed timing.

The host's speed drifts by tens of percent between processes and within
one process over seconds, and CPU time drifts with it.  So a fixed
pure-Python reference loop runs between timed intervals, and each
interval's raw duration is rescaled to the speed at which that loop takes
``REF_SECONDS``:

    reference-speed seconds = raw seconds * REF_SECONDS / (mean of the
    reference loops just before and just after the interval)

On a 2-core x86-64 VM, the loop's speed and rholog's speed correlated at 0.8 from
one query to the next, and the correlation faded within a second or two,
so the loops next to an interval track it better than a round-wide mean.

The loop keeps nothing alive between iterations and runs with the
collector off, so the heap rholog builds cannot change its speed.
"""

from __future__ import annotations

import gc
import time

#: Iterations of the reference loop in one sample.
REF_ITERATIONS = 70

#: About the median time of one sample on the machine the benchmark was
#: defined on (2-core x86-64 VM, CPython 3.11).  Fixed for good: changing
#: it rescales every reference-speed figure.
REF_SECONDS = 0.0070

_TERM = ("h", (("f", (("f", (("a", ()),)),)), ("k", (("f", (("b", ()),)),
                                                    ("f", (("f", (("c", ()),)),)))),
               ("f", (("f", (("f", (("a", ()),)),)),))))


def _rewrites(t):
    """Every ``f(x) -> g(x)`` step in the tuple term ``t``, pre-order."""
    symbol, args = t
    if symbol == "f":
        yield ("g", args)
    for i, arg in enumerate(args):
        for new in _rewrites(arg):
            yield (symbol, args[:i] + (new,) + args[i + 1:])


def reference_loop(iterations: int = REF_ITERATIONS) -> int:
    """Term rewriting in plain Python: the kind of work rholog does."""
    count = 0
    for _ in range(iterations):
        for t in _rewrites(_TERM):
            for _u in _rewrites(t):
                count += 1
    return count


def reference_sample() -> float:
    """Seconds for one reference loop, with the collector kept out of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference-loop samples taken between timed intervals.

    Call :meth:`sample` before each interval and once after the last; the
    interval between samples ``k`` and ``k + 1`` is then rescaled by
    ``factors()[k]``.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        self.samples.append(reference_sample())

    def factors(self) -> list:
        s = self.samples
        return [2 * REF_SECONDS / (s[k] + s[k + 1]) for k in range(len(s) - 1)]
