"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q

They pin the rholog-free references to hand-checked values, check that
workloads depend only on the seed and that rholog's answers match them,
and check that reference-speed timing and the tracer do what run.py
relies on.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import rholog  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import timing, tracer, workloads  # noqa: E402
from perfbench.run import Bench  # noqa: E402

T = ref.term
A = T("a")


def f(x):
    return T("f", x)


def g(x):
    return T("g", x)


def shown(terms):
    return [ref.show(t) for t in terms]


# -- references ---------------------------------------------------------------

def test_rewriters_match_the_acceptance_suite():
    # tests/test_acceptance.py, criterion 6, on h(f(f(a)), f(a)).
    goal = T("h", f(f(A)), f(A))
    assert shown(ref.REWRITERS["rewrite"](goal)) == [
        "h(g(f(a)), f(a))", "h(a, f(a))", "h(f(g(a)), f(a))", "h(f(f(a)), g(a))"]
    assert shown(ref.REWRITERS["rewrite_out"](goal)) == [
        "h(g(f(a)), f(a))", "h(a, f(a))", "h(f(f(a)), g(a))"]
    assert shown(ref.REWRITERS["rewrite_in"](goal)) == [
        "h(f(g(a)), f(a))", "h(f(f(a)), g(a))"]


def test_nf_keeps_every_derivation():
    # f(f(a)) steps to g(f(a)), a and f(g(a)); two of them reach g(g(a)).
    assert shown(ref.nf(ref.REWRITERS["rewrite"], f(f(A)))) == ["g(g(a))", "a", "g(g(a))"]
    assert shown(ref.nf(ref.REWRITERS["rewrite"], g(A))) == ["g(a)"]


def test_truth_table():
    p, q = ("atom", "p"), ("atom", "q")
    assert ref.valid_sequent([p], [p])
    assert ref.valid_sequent([], [("or", p, ("not", p))])
    assert ref.valid_sequent([("or", p, q)], [q, p])
    assert not ref.valid_sequent([("or", p, q)], [p])
    assert not ref.valid_sequent([], [p])
    assert ref.show_formula(("not", ("or", p, q))) == "-((p v q))"


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    first, again, other = (make(seed, rholog.corpus_source) for seed in (7, 7, 8))
    assert first == again
    assert [q.text for q in first.queries] != [q.text for q in other.queries]
    assert all(q.expected for q in first.queries)


def test_prover_sequents_are_about_half_valid():
    wl = workloads.prover_workload(1, rholog.corpus_source)
    valid = sum(q.expected == ["i_R = true\n"] for q in wl.queries)
    assert len(wl.queries) // 4 <= valid <= 3 * len(wl.queries) // 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rholog_answers_match_the_references(name):
    bench = Bench(rholog, workloads.WORKLOADS[name](3, rholog.corpus_source))
    bench.round(timing.Clock(), repeats=1)
    assert bench.failures == {}
    assert bench.attempted == len(bench.wl.queries)


def test_a_wrong_answer_counts_as_failed():
    wl = workloads.rewrite_workload(3, rholog.corpus_source)
    wl.queries = wl.queries[:2]
    wl.queries[1].expected = ["i_X = a\n"]
    bench = Bench(rholog, wl)
    bench.round(timing.Clock(), repeats=1)
    assert bench.attempted == 2 and bench.failed == 1
    assert list(bench.failures) == [wl.queries[1].qid]


# -- reference-speed timing ---------------------------------------------------

@contextlib.contextmanager
def _contended():
    """A thread spinning in Python takes about half of the interpreter."""
    stop = threading.Event()

    def spin():
        n = 0
        while not stop.is_set():
            n += 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)          # share the interpreter finely
    hog = threading.Thread(target=spin, daemon=True)
    hog.start()
    try:
        yield
    finally:
        stop.set()
        hog.join(timeout=10)
        sys.setswitchinterval(old)
    assert not hog.is_alive()


def test_reference_speed_holds_when_the_interpreter_slows_down():
    # Quiet and contended rounds alternate, so drift of the host cancels.
    # Raw times roughly double under contention; reference-speed times
    # must stay within 0.25, the widest bound a metric may have.
    wl = workloads.prover_workload(1, rholog.corpus_source)
    wl.queries = [q for q in wl.queries if q.size == workloads.PROVER_SWEEP[1]]
    bench = Bench(rholog, wl)
    clock = timing.Clock()
    quiet, busy = [0.0, 0.0], [0.0, 0.0]
    for _ in range(3):
        r = bench.round(clock, repeats=1)
        quiet[0] += r["raw_wall"]
        quiet[1] += r["wall"]
        with _contended():
            r = bench.round(clock, repeats=1)
        busy[0] += r["raw_wall"]
        busy[1] += r["wall"]
    assert bench.failures == {}
    assert busy[0] / quiet[0] > 1.5
    assert abs(busy[1] / quiet[1] - 1) < 0.25


# -- tracer -------------------------------------------------------------------

def _traced_counts(wl):
    bench = Bench(rholog, wl)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        bench.round(timing.Clock(), recorder, repeats=1)
    finally:
        recorder.uninstall()
    assert bench.failures == {}
    return recorder


def test_tracer_counts_repeat_and_originals_come_back():
    wl = workloads.rewrite_workload(5, rholog.corpus_source)
    wl.queries = wl.queries[:4] + wl.queries[-3:]
    originals = (rholog.engine.match_hedge, rholog.strategies.decompositions,
                 rholog.engine.Session.solve, rholog.terms.Hedge.__init__)
    first, second = _traced_counts(wl), _traced_counts(wl)
    assert (rholog.engine.match_hedge, rholog.strategies.decompositions,
            rholog.engine.Session.solve, rholog.terms.Hedge.__init__) == originals
    assert first.missing == []
    assert first.counts == second.counts and first.calls == second.calls
    for name in ("engine.rename", "terms.apply_subst", "program.apply_to_literal",
                 "syntax.parse", "engine.consult"):
        assert first.calls[name] > 0, name
    for name in ("matching.match.streams", "matching.decomp.items",
                 "strategies.combinator.streams", "terms.hedges"):
        assert first.counts[name] > 0, name
    assert first.stack == []
    assert 0 < first.root_time


def test_self_times_add_up_to_the_outermost_spans():
    recorder = _traced_counts(workloads.prover_workload(2, rholog.corpus_source))
    assert sum(recorder.self_time.values()) == pytest.approx(recorder.root_time, rel=1e-6)
    assert recorder.counts["matching.decomp.items"] == 0
