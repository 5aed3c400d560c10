"""cusplab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload <probe-sweep|fem-solve|lab-batch>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("probe-sweep", "fem-solve", "lab-batch")

#: fresh interpreters started only to time set-up, half before and half
#: after the measuring process, which adds one more sample; setup_s is the
#: median, so that neither one slow start nor a slow minute of the host moves it
SETUP_STARTS = 6
#: a run must end within this many seconds
DEADLINE_S = 170.0

#: one BLAS/OpenMP thread, so that runs do not compete for the cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _start_worker(args, extra: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; returns its JSON result and the
    time from starting the interpreter to the worker being ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = {**os.environ, **THREAD_ENV}
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "cusplab" / "__init__.py").is_file():
        print(f"no cusplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()

    def start(extra):
        return _start_worker(args, extra, DEADLINE_S - (time.monotonic() - began))

    try:
        setup_only = 0 if args.trace else SETUP_STARTS // 2
        setup_samples = [start(["--setup-only"])[1] for _ in range(setup_only)]
        result, setup = start([])
        setup_samples.append(setup)
        setup_samples += [start(["--setup-only"])[1] for _ in range(setup_only)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "jobs_per_s": {"value": result["jobs_per_s"], "unit": "1/s"},
            "job_p50_s": {"value": result["job_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} jobs, "
          f"{result['failed']} failed", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
