"""Self-test of the benchmark's checks: each must reject a wrong answer.

    python3 perfbench/selftest.py

Feeds every check a deliberately wrong output and fails unless the check
raises; also confirms that correct outputs pass, and that counting CG
iterations through a callback leaves the solution bit-identical.  Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402

F = Fraction
results: list[tuple[str, bool]] = []


def rejects(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailure:
        results.append((f"rejects {label}", True))
        return
    results.append((f"rejects {label}", False))


def accepts(label: str, fn, *args) -> None:
    try:
        fn(*args)
        results.append((f"accepts {label}", True))
    except CheckFailure as exc:
        results.append((f"accepts {label} ({exc})", False))


def unit_checks() -> None:
    n, p, a, g = 2, F(2), F(1, 2), F(3)
    right = float(checks.thm6_ceiling(n, p, a, g))
    accepts("thm6 value", checks.check_threshold_value, "thm6", right, F(14, 3))
    rejects("thm6 off by 1e-6", checks.check_threshold_value, "thm6", right * (1 + 1e-6), F(14, 3))
    rejects("invalid marker for a valid formula", checks.check_threshold_value, "thm6", "inf", F(14, 3))
    rejects("value for an invalid formula", checks.check_threshold_value, "thm8", 3.0, None)
    good = {"a": 0.5, "q": 1.2, "r": 2.4}
    s = F(2)
    accepts("witness", checks.check_witness, good, n, p, a, g, s)
    rejects("witness with r above the Sobolev bound", checks.check_witness, {**good, "r": 20.0}, n, p, a, g, s)
    rejects("missing witness below the ceiling", checks.check_witness, None, n, p, a, g, s)
    rejects("witness above the ceiling", checks.check_witness, good, n, p, a, g, F(3))
    rejects("finite verdict for t^-1.5", checks.check_power_verdict, "Ia", "finite", -1.5)
    rejects("divergent verdict for t^-0.5", checks.check_power_verdict, "Ia", "divergent", -0.5)
    rejects("inconclusive verdict outside the band", checks.check_power_verdict, "Ia", "inconclusive", -0.5)
    rejects("A_p satisfied outside the window", checks.check_ap,
            {"verdict": "satisfied", "sup_estimate": "inf"}, 2, 2.0, 2.5)
    rejects("A_p sup below 1", checks.check_ap, {"verdict": "satisfied", "sup_estimate": 0.9}, 2, 2.0, 0.5)
    ratios = [(10.0**-k, 1.0) for k in range(1, 6)]
    rejects("blow_up at 0.75x", checks.check_probe, "blow_up", ratios, F(3, 4))
    rejects("bounded at 1.25x", checks.check_probe, "bounded", ratios, F(5, 4))
    rejects("non-positive ratio", checks.check_probe, "bounded", ratios[:-1] + [(1e-5, 0.0)], F(3, 4))
    rejects("flat mollify norms", checks.check_strictly_decreasing, "norms", [1.0, 1.0, 0.5])
    accepts("FEM job", checks.check_fem_job, 1e-12, 1e-10, 1.05, 1.0)
    rejects("weak residual above 10 tol", checks.check_fem_job, 2e-9, 1e-10, 1.0, 1.0)
    rejects("program L2 error 20% off", checks.check_fem_job, 1e-12, 1e-10, 1.2, 1.0)
    rejects("first-order ladder", checks.check_order, [4e-3, 2e-3, 1e-3])
    accepts("residual at tol", checks.check_residual, 1e-10, 1e-10)
    rejects("residual 2% above tol", checks.check_residual, 1.02e-10, 1e-10)
    rejects("degenerate witness (0.3, 1.6, 8.0) at s = 3.36", checks.check_witness,
            {"a": 0.3, "q": 1.6, "r": 8.0}, 2, F("1.6"), F("0.1"), F("2.7"), F("3.36"))

    # the independent L2 error: exact on P1 fields, sees a constant shift
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    linear = lambda x, y: 2.0 * x - y  # noqa: E731
    vals = linear(verts[:, 0], verts[:, 1])
    e0 = checks.l2_error_independent(verts, tris, vals, linear)
    e1 = checks.l2_error_independent(verts, tris, vals + 0.3, linear)
    results.append(("independent L2 error exact on a P1 field", e0 < 1e-14))
    results.append(("independent L2 error sees a constant shift", abs(e1 - 0.3) < 1e-12))


def probe_job_checks() -> None:
    job = workloads._probe_job(2, F(2), F(1, 2), F(3), F(3, 4))
    report = types.SimpleNamespace(verdict="bounded", ratios=((0.1, 1.0), (0.01, 1.0), (0.001, 1.0)))
    accepts("probe job output", job.check, report)
    rejects("probe job with a wrong verdict", job.check, types.SimpleNamespace(**{**vars(report), "verdict": "blow_up"}))


def kept_failure_is_specific() -> None:
    """A kept failing job that fails for another reason counts as unexpected."""
    job = workloads.Job("fem", lambda: None, lambda out: checks.check_fem_job(1e-12, 1e-10, 1.2, 1.0),
                        expected_failure="relative residual")
    message = job.failure(None, None)
    results.append(("kept failing job failing for another reason is unexpected",
                    message is not None and not job.expected(message)))


def _mutate_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data["results"])
    path.write_text(json.dumps(data))


def _flip(verdict: str) -> str:
    return {"finite": "divergent", "divergent": "finite", "satisfied": "violated",
            "violated": "satisfied", "bounded": "blow_up", "blow_up": "bounded"}[verdict]


MUTATIONS = {
    "exponents": lambda r: r["thm6"].update(s_max=r["thm6"]["s_max"] * 1.01) if "thm6" in r else None,
    "ap-check": lambda r: r["ap"].update(verdict=_flip(r["ap"]["verdict"])),
    "distortion": lambda r: r["report"]["Ia"].update(verdict=_flip(r["report"]["Ia"]["verdict"])),
    "mollify": lambda r: r.update(norms=r["norms"][::-1]),
    "solve": lambda r: r.update(residual=1e-9),
    "probe": lambda r: r["probe"].update(verdict=_flip(r["probe"]["verdict"])),
    "report": lambda r: r["distortion"]["Ia_below"].update(
        verdict=_flip(r["distortion"]["Ia_below"]["verdict"])),
}


def lab_job_checks(workdir: Path) -> None:
    """Run every lab-batch job once, then corrupt its output files."""
    wl = workloads.lab_batch(0, workdir)
    for job in wl.jobs:
        cli_job = job.run.__self__
        if job.expected_failure:
            try:
                out, err = job.run(), None
            except Exception as exc:
                out, err = None, exc
            message = job.failure(out, err)
            results.append((f"kept failing {cli_job.command} fails with {job.expected_failure!r}",
                            message is not None and job.expected(message)))
            continue
        rc = job.run()
        accepts(f"{cli_job.command} output", job.check, rc)
        rejects(f"{cli_job.command} exit code 4", job.check, 4)
        report = cli_job.out / "report.json"
        original = report.read_bytes()
        report.write_bytes(original + b" ")
        rejects(f"{cli_job.command} report.json changed between passes", job.check, rc)
        if "queries_csv" in cli_job.config.read_text():
            report.write_bytes(original)
            table = cli_job.out / "thresholds.csv"
            lines = table.read_text().splitlines()
            cells = lines[1].split(",")
            cells[5] = repr(float(cells[5]) * 1.01)
            table.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
            rejects("exponents batch with a wrong thresholds.csv row", job.check, rc)
            continue
        _mutate_json(report, MUTATIONS[cli_job.command])
        cli_job.first_report = None  # test the content check, not byte-identity
        rejects(f"{cli_job.command} with a wrong result", job.check, rc)


def cg_callback_is_inert() -> None:
    import cusplab.pde as pde
    import tracing
    from cusplab.geometry import Box
    from cusplab.weights import Weight

    mesh = pde.triangulate(Box((0.0, 0.0), (1.0, 1.0)), 1 / 24)
    w = Weight.polynomial(1.0, 2)
    _, _, f = pde.manufactured_rhs("sin(pi*x)*sin(pi*y)", "(x**2+y**2)**0.5")
    plain = pde.solve_dirichlet(mesh, w, f).values
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = pde.solve_dirichlet(mesh, w, f).values
    finally:
        tracer.uninstall()
    results.append(("CG iterations counted", tracer.cg_iterations > 0))
    results.append(("traced solve bit-identical", np.array_equal(plain, traced)))


def main() -> int:
    workdir = ROOT / ".perfbench-out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        unit_checks()
        probe_job_checks()
        kept_failure_is_specific()
        lab_job_checks(workdir)
        cg_callback_is_inert()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad}/{len(results)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
