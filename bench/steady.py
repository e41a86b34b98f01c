"""Steadiness of the end-to-end metrics: one workload, many runs, many seeds.

    python3 bench/steady.py --workload decompose --runs 10 --seconds 20

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json.  A spread under a third of the bound is marked
steady; setup_s has no spread limit, only a bound on its median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        began = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
        elapsed = time.perf_counter() - began
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed} ({elapsed:.1f} s): correct {result['correct']}, "
              f"failed {result['failed']}/"
              f"{result['attempted']}, " + ", ".join(
                  f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs of {seconds:g} s; failed share "
          f"{'same in every run' if len(shares) == 1 else 'DIFFERS'}: {sorted(shares)}")
    print(f"  {'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} "
          f"{'bound':>6s}")
    for name, bound in bounds.items():
        med, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
        verdict = "" if name == "setup_s" else ("steady" if share < bound / 3 else "UNSTEADY")
        print(f"  {name:18s} {med:10.4g} {q1:10.4g} {q3:10.4g} {share:8.2%} {bound:6.2f} "
              f"{verdict}")


if __name__ == "__main__":
    main()
