"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload prover --seeds 1 2 3 4 5 --seconds 10

Runs ``run.py`` once per seed, one process at a time, and prints for each
metric its median, quartiles and quartile spread as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  With ``--trace 1`` and
``--repeat 2`` it also checks that every count repeats exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["end_to_end"] + spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    counts = [m["name"] for m in listed if m["unit"] == "count"]

    results = {}
    ok = True
    for seed in args.seeds:
        for _ in range(args.repeat):
            start = time.perf_counter()
            out = run_once(args.workload, seed, seconds, args.trace)
            ok &= out["correct"] and out["failed"] == 0
            results.setdefault(seed, []).append(
                {k: v["value"] for k, v in out["metrics"].items()})
            print(f"seed {seed} ({time.perf_counter() - start:.0f} s): " + ", ".join(
                f"{k}={v:.4g}" for k, v in results[seed][-1].items()), flush=True)

    first = [runs[0] for runs in results.values()]
    print(f"\n{args.workload}: {len(first)} seeds, all correct: {ok}")
    for name in first[0]:
        values = [r[name] for r in first]
        bound = bounds.get(name)
        if len(values) >= 2:
            median, q1, q3, share = spread(values)
        else:
            median, q1, q3, share = values[0], values[0], values[0], 0.0
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  > bound/3"
        print(f"  {name:34s} median {median:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g}"
              f" spread {share:6.3f}  bound {bound}{flag}")
    if args.repeat > 1:
        unequal = [(seed, n) for seed, runs in results.items() for n in counts
                   if n in runs[0] and len({r[n] for r in runs}) > 1]
        print(f"counts repeat exactly: {not unequal}" + (f" {unequal}" if unequal else ""))
        ok &= not unequal
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
