"""One benchmark process: import cusplab, prepare a workload, run it.

Started by ``run.py`` in a fresh interpreter.  With ``--setup-only`` it
stops once the workload is prepared; otherwise it warms up, runs whole rounds
of the job list, stopping at the round boundary nearest to ``--seconds``
of timed work, checks every
output, and prints one JSON object as its last line.  ``ready`` is the
``time.monotonic()`` reading when the first timed job could start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _run_round(jobs, tracer):
    """Time every job of one round; returns [(output, error, seconds)] and
    the wall time of the round.  Checks run later, outside this interval."""
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failing job is counted, not fatal
            out, err = None, exc
        results.append((out, err, time.perf_counter() - t0))
    return results, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = ROOT / ".perfbench-out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import cusplab
        import workloads

        if not Path(cusplab.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"cusplab imported from {cusplab.__file__}, not from this checkout")
        workload = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        return _measure(args, workload, ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, ready: float) -> int:
    for job in workload.warmup:
        out, err, _ = _run_round([job], None)[0][0]
        job.failure(out, err)  # records first reports for the byte-identity check
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()

    rounds, phase, attempted, failed = 0, 0.0, 0, 0
    times: list[float] = []
    unexpected: list[str] = []
    wall = 0.0
    # stop at the round boundary nearest to --seconds of timed work
    while rounds == 0 or phase + wall / 2 < args.seconds:
        results, wall = _run_round(workload.jobs, tracer)
        phase += wall
        rounds += 1
        for job, (out, err, seconds) in zip(workload.jobs, results):
            attempted += 1
            times.append(seconds)
            message = job.failure(out, err)
            if message is None:
                continue
            failed += 1
            if not job.expected(message):
                unexpected.append(message)
        del results
        gc.collect()

    for message in unexpected[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    completed = attempted - failed
    result = {
        "ready": ready,
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "jobs_per_s": completed / phase,
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer, rounds)
        result["layers"]["bench.traced_jobs_per_s"] = (completed / phase, "1/s")
        trace_file = ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "count"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
