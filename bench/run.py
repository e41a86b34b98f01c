"""Benchmark of the amlab command line: rounds of fixed jobs, run in-process.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: amlab is imported from the
checkout's src/ directory, never from an installed copy.  Set-up imports
amlab, writes the workload's JSON inputs from the seed and runs one
untimed warm-up job.  Then whole rounds run for at most --seconds (at
least one round); a round is one pass over the workload's jobs in a fixed order, each one an
`amlab.cli.main(argv)` call with --out set, which reloads every input from
JSON.  Every report is checked by code that does not use amlab (check.py).

The last line of standard output is one JSON object with the jobs
attempted and failed and, with --trace 0, the end-to-end metrics or, with
--trace 1, the per-layer metrics of a traced run (spans.py).
"""

import time

START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import cases
import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "round_s.p50": "s", "round_cpu_s.p50": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def import_amlab_cli():
    src = ROOT / "src"
    if not (src / "amlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no amlab sources at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import amlab.cli
    return amlab.cli


def run_job(cli, job, out_path):
    """One job in-process: (exit code, wall s, cpu s, traceback or None)."""
    out_path.unlink(missing_ok=True)
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    error = None
    try:
        rc = cli.main(job.argv + ["--out", str(out_path)])
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # a traceback is a failed job, not a failed benchmark
        rc, error = None, traceback.format_exc()
    return rc, time.perf_counter() - wall, time.process_time() - cpu, error


class Judge:
    """Checks each job's outcome; an outcome seen before keeps its verdict."""

    def __init__(self):
        self.verdicts = {}
        self.unexpected = 0

    def judge(self, index, job, rc, out_path, error):
        report = out_path.read_bytes() if out_path.exists() else b""
        key = (index, rc, hashlib.sha256(report).digest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check(job, rc, report, error)
            if self.verdicts[key] is not None:
                print(f"FAILED {job.name}: {self.verdicts[key]}"
                      + (" (known fault)" if job.known_fault else ""), file=sys.stderr)
        failure = self.verdicts[key]
        if failure is not None and not job.known_fault:
            self.unexpected += 1
        return failure is None

    @staticmethod
    def _check(job, rc, report, error):
        if error is not None:
            return f"raised\n{error}"
        try:
            job.check(json.loads(report), rc)
        except check.CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report (exit {rc}): {exc!r}"
        return None


def set_up(cli, generate, seed, work):
    """Write the inputs and run one warm-up job; returns (jobs, seconds)."""
    t0 = time.perf_counter()
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
    jobs = generate(directory, seed, cli.main)
    run_job(cli, jobs[0], directory / "warm-up.json")
    return jobs, time.perf_counter() - t0


def run(workload, seed, seconds, trace):
    cli = import_amlab_cli()
    import_s = time.perf_counter() - START
    generate = cases.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setups = [set_up(cli, generate, seed, work) for _ in range(SETUP_REPEATS)]
        jobs = setups[-1][0]
        setup_s = import_s + statistics.median(s for _, s in setups)
        tracer = None
        if trace:
            tracer = spans.Tracer()
            tracer.install()
        judge = Judge()
        attempted = failed = 0
        rounds = []
        began = time.perf_counter()
        try:
            # whole rounds only, and none that the last one says would end past --seconds
            while not rounds or time.perf_counter() - began + rounds[-1][0] <= seconds:
                wall = cpu = 0.0
                for index, job in enumerate(jobs):
                    out_path = work / f"report-{index}.json"
                    if tracer:
                        tracer.job = (len(rounds), index)
                    rc, w, c, error = run_job(cli, job, out_path)
                    wall, cpu = wall + w, cpu + c
                    attempted += 1
                    failed += not judge.judge(index, job, rc, out_path, error)
                rounds.append((wall, cpu))
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    round_s = statistics.median(w for w, _ in rounds)
    summary = {
        "setup_s": setup_s,
        "round_s.p50": round_s,
        "round_cpu_s.p50": statistics.median(c for _, c in rounds),
        "jobs_per_s": len(jobs) * len(rounds) / sum(w for w, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload}, seed {seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"round_s.p50 {round_s:.4f} s{' (traced)' if trace else ''}")
    if trace:
        values, units = tracer.metrics(len(rounds)), spans.PER_LAYER_UNITS
        path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        values, units = summary, END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    return {"correct": judge.unexpected == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
