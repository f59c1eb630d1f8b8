"""Benchmark of the rholog interpreter.

Run from the root of a rholog checkout:

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 10 --trace 0

It drives rholog through its public API in the order ``rholog --consult
... --query ... [--all]`` does: ``parse_program`` for each file, then
``consult`` (which mode-checks), then ``Session.solve_text`` and
``format_value`` for each answer.  Every answer is checked against a
reference that shares no code with rholog (``reference.py``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it reports per-layer counts and self times from a run with every layer
wrapped (``tracer.py``).  Times are in reference-speed seconds
(``timing.py``).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; details go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

if __package__ in (None, ""):            # run as a script
    sys.path.insert(0, str(ROOT))
from perfbench import timing, tracer, workloads  # noqa: E402

#: Choice-point bound for every query, so a broken change fails, not hangs.
DEPTH_LIMIT = 10_000
#: Times each program is loaded per round; setup_s takes the median.
SETUP_REPEATS = 3
#: Rounds measured at least, however long they take.
MIN_ROUNDS = 3


def import_rholog():
    """rholog from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rholog
    if src not in Path(rholog.__file__).resolve().parents:
        raise ImportError(f"rholog was not imported from {src}")
    return rholog


class Bench:
    def __init__(self, rholog, workload):
        self.rl = rholog
        self.wl = workload
        self.sink = io.StringIO()
        self.attempted = 0
        self.failed = 0
        self.failures = {}               # qid -> first reason
        self.streams = {}                # qid -> sha256 of the printed answers
        self.answers = 0

    # -- one program, one query

    def load(self, texts):
        rl = self.rl
        table = rl.default_operators()
        source = rl.SourceProgram()
        for text in texts:
            part, table = rl.parse_program(text, table)
            source.items.extend(part.items)
        return rl.consult(source, table, strict=True), table

    def query(self, program, table, q):
        """(seconds to first answer, seconds to all asked, answer blocks)."""
        rl = self.rl
        session = rl.Session(program, out=self.sink, err=self.sink,
                             depth_limit=DEPTH_LIMIT)
        blocks = []
        first = None
        start = time.perf_counter()
        answers = session.solve_text(q.text)
        for answer in answers if q.cap is None else islice(answers, q.cap):
            blocks.append("".join(f"{var.text()} = {rl.format_value(value, table)}\n"
                                  for var, value in answer.pairs))
            if first is None:
                first = time.perf_counter() - start
        total = time.perf_counter() - start
        if session.runtime_errors:
            raise RuntimeError("; ".join(session.runtime_errors))
        return (total if first is None else first), total, blocks

    def check(self, q, blocks) -> None:
        self.attempted += 1
        self.answers += len(blocks)
        stream = "\n".join(blocks) if blocks else "false.\n"
        digest = hashlib.sha256(stream.encode()).hexdigest()
        if q.ordered:
            ok = blocks == q.expected
        else:
            ok = blocks[:1] == q.expected[:1] and sorted(blocks) == sorted(q.expected)
        if not ok:
            self.fail(q, f"answers differ from the reference ({len(blocks)} "
                         f"printed, {len(q.expected)} expected)")
        elif self.streams.setdefault(q.qid, digest) != digest:
            self.fail(q, "answer stream changed between rounds")

    def fail(self, q, reason: str) -> None:
        print(f"FAILED {self.wl.name} {q.qid}: {reason}", file=sys.stderr)
        self.failed += 1
        self.failures.setdefault(q.qid, reason)

    def safe_query(self, program, table, q):
        try:
            first, total, blocks = self.query(program, table, q)
        except Exception as exc:         # the run goes on; the query counts failed
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail(q, f"{type(exc).__name__}: {exc}")
            return None
        self.check(q, blocks)
        return first, total

    # -- rounds

    def round(self, clock, recorder=None, repeats=SETUP_REPEATS):
        """Every load and query once, with reference loops between them.

        Returns reference-speed and raw figures: setup (sum over loads of
        the median over repeats), per-query first and all times, and the
        total of all timed intervals.
        """
        setups, times = [], {}           # raw seconds, by interval
        for index, texts in enumerate(self.wl.loads):
            loads = []
            for _ in range(repeats):
                gc.collect()
                clock.sample()
                if recorder is not None:
                    recorder.qid = 0
                start = time.perf_counter()
                program, table = self.load(texts)
                loads.append((len(clock.samples) - 1, time.perf_counter() - start))
            setups.append(loads)
            for k, q in enumerate(self.wl.queries, 1):
                if q.load != index:
                    continue
                gc.collect()
                clock.sample()
                if recorder is not None:
                    recorder.qid = k
                result = self.safe_query(program, table, q)
                if result is not None:
                    times[q.qid] = (len(clock.samples) - 1,) + result
            del program, table
        clock.sample()
        factors = clock.factors()

        setup = raw_setup = wall = raw_wall = 0.0
        for loads in setups:
            setup += statistics.median(raw * factors[k] for k, raw in loads)
            raw_setup += statistics.median(raw for _, raw in loads)
            wall += sum(raw * factors[k] for k, raw in loads)
            raw_wall += sum(raw for _, raw in loads)
        scaled = {}
        for qid, (k, first, total) in times.items():
            scaled[qid] = (first * factors[k], total * factors[k], first, total)
            wall += total * factors[k]
            raw_wall += total
        return {"setup": setup, "raw_setup": raw_setup, "times": scaled,
                "wall": wall, "raw_wall": raw_wall}

    def memory_pass(self) -> float:
        """Highest tracemalloc peak, in MB, over the workload's queries."""
        peak = 0
        tracemalloc.start()
        try:
            for index, texts in enumerate(self.wl.loads):
                program, table = self.load(texts)
                for q in self.wl.queries:
                    if q.load == index:
                        gc.collect()
                        tracemalloc.reset_peak()
                        self.safe_query(program, table, q)
                        peak = max(peak, tracemalloc.get_traced_memory()[1])
                del program, table
        finally:
            tracemalloc.stop()
        return peak / 1e6


def summarize(rounds, queries):
    """Per-round sums, then the median over rounds."""
    def med(values):
        return statistics.median(values) if values else float("nan")

    out = {
        "setup_s": med([r["setup"] for r in rounds]),
        "raw_setup_s": med([r["raw_setup"] for r in rounds]),
    }
    for key, col in (("first_answer_s", 0), ("all_answers_s", 1),
                     ("raw_first_answer_s", 2), ("raw_all_answers_s", 3)):
        out[key] = med([sum(t[col] for t in r["times"].values()) for r in rounds])
    per_query = {q.qid: med([r["times"][q.qid][1] for r in rounds if q.qid in r["times"]])
                 for q in queries}
    out["size_exponent"] = size_exponent(queries, per_query)
    out["per_query_all_s"] = per_query
    return out


def size_exponent(queries, per_query) -> float:
    """Least-squares slope of log(time) on log(size) over the size sweep.

    Times of the sweep's queries at one size are summed first, so query
    families with different constants share one slope.
    """
    by_size = {}
    for q in queries:
        if q.sweep and not math.isnan(per_query[q.qid]):
            by_size[q.size] = by_size.get(q.size, 0.0) + per_query[q.qid]
    xs = [math.log(s) for s in by_size]
    ys = [math.log(t) for t in by_size.values()]
    if len(xs) < 2:
        return float("nan")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def measure(bench, seconds):
    """End-to-end metrics: a memory pass, then rounds for ``seconds``."""
    peak = bench.memory_pass()
    clock = timing.Clock()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(bench.round(clock))
    summary = summarize(rounds, bench.wl.queries)
    metrics = {name: summary[name] for name in
               ("setup_s", "first_answer_s", "all_answers_s", "size_exponent")}
    metrics["peak_mem_mb"] = peak
    report = {
        "rounds": len(rounds),
        "raw": {k: v for k, v in summary.items() if k.startswith("raw_")},
        "per_query_all_s": summary["per_query_all_s"],
        "reference_sample_median_s": statistics.median(clock.samples),
        "per_round": [{"setup_s": r["setup"], "raw_setup_s": r["raw_setup"],
                       "all_answers_s": sum(t[1] for t in r["times"].values()),
                       "raw_all_answers_s": sum(t[3] for t in r["times"].values())}
                      for r in rounds],
    }
    return metrics, report


def traced(bench, seconds):
    """Per-layer metrics: untraced rounds for a baseline, then one traced round."""
    clock = timing.Clock()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds / 2:
        rounds.append(bench.round(clock))
    recorder = tracer.Recorder()
    answers_before = bench.answers
    recorder.install()
    try:
        traced_round = bench.round(clock, recorder, repeats=1)
    finally:
        recorder.uninstall()
    base = summarize(rounds, bench.wl.queries)
    tr = summarize([traced_round], bench.wl.queries)
    # Self times are rescaled by the traced round's own reference speed.
    factor = traced_round["wall"] / traced_round["raw_wall"]
    st, calls, counts = recorder.self_time, recorder.calls, recorder.counts
    streams = counts["matching.match.streams"]
    metrics = {
        "syntax.parse_s": st["syntax.parse"] * factor,
        "syntax.format_s": st["syntax.format"] * factor,
        "wellmoded.check_s": st["wellmoded.check"] * factor,
        "engine.consult_s": st["engine.consult"] * factor,
        "engine.clauses_tried": calls["engine.rename"],
        "engine.rename_s": st["engine.rename"] * factor,
        "engine.solve_s": st["engine.solve"] * factor,
        "engine.answers": bench.answers - answers_before,
        "matching.streams": streams,
        "matching.matchers": counts["matching.match.items"],
        "matching.match_s": st["matching.match"] * factor,
        "matching.productive_frac":
            counts["matching.match.productive"] / streams if streams else 0.0,
        "matching.decompositions": counts["matching.decomp.items"],
        "matching.decomp_s": st["matching.decomp"] * factor,
        "strategies.combinator_calls": counts["strategies.combinator.streams"],
        "strategies.combinator_s": st["strategies.combinator"] * factor,
        "terms.apply_subst_calls": calls["terms.apply_subst"],
        "terms.apply_subst_s": st["terms.apply_subst"] * factor,
        "terms.hedges_built": counts["terms.hedges"],
        "program.apply_to_literal_calls": calls["program.apply_to_literal"],
        "program.apply_to_literal_s": st["program.apply_to_literal"] * factor,
        "trace.overhead_frac": (tr["setup_s"] + tr["all_answers_s"])
        / (base["setup_s"] + base["all_answers_s"]) - 1,
        "trace.covered_frac": recorder.root_time / traced_round["raw_wall"],
    }
    report = {
        "untraced_rounds": len(rounds),
        "self_time_raw_s": dict(st),
        "calls": dict(calls),
        "counts": dict(counts),
        "spans": recorder.span_total,
        "spans_kept": min(recorder.span_total, tracer.SPAN_CAP),
        "missing_targets": recorder.missing,
    }
    return metrics, report, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rholog = import_rholog()
    except ImportError as exc:
        print(f"error: cannot import rholog: {exc}", file=sys.stderr)
        return 2
    # Terms print recursively, as in the CLI.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, rholog.corpus_source)
    bench = Bench(rholog, wl)
    if args.trace:
        metrics, report, recorder = traced(bench, args.seconds)
        listed = spec["per_layer"]
    else:
        metrics, report = measure(bench, args.seconds)
        listed = spec["end_to_end"]
        recorder = None
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError("metrics computed differ from those BENCHMARK.json lists")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "metrics": metrics, "attempted": bench.attempted,
        "failures": bench.failures, "answer_sha256": bench.streams,
        "queries": {q.qid: q.text for q in wl.queries},
    })
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if recorder is not None:
        names = ["load"] + [q.qid for q in wl.queries]
        recorder.write_spans(RESULTS / f"{wl.name}-spans.csv", names)

    failed = bench.failed
    streams = hashlib.sha256("".join(bench.streams.values()).encode()).hexdigest()
    print(json.dumps({"workload": wl.name, "failed_frac": failed / max(bench.attempted, 1),
                      "streams_sha256": streams, **report.get("raw", {})}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
