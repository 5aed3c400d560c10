"""Layer tracing from outside the program.

:func:`install` wraps public functions of every ``cusplab`` module at the
places the program looks them up: modules import functions by name, so each
module attribute bound to a wrapped function is replaced, not just the
defining one.  Each call records a span (name, start, end, parent span, job
id, one count) in memory; :func:`layer_metrics` derives per-layer totals and
self times from the spans once the run is over.

CG iterations are counted through a ``callback`` passed to SciPy's ``cg``;
the callback only reads the iterate, so solutions are bit-identical with and
without it (``selftest.py`` checks this).
"""

from __future__ import annotations

import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import cusplab
import cusplab.cli
import cusplab.cuspmap
import cusplab.exponents
import cusplab.geometry
import cusplab.mollifier
import cusplab.pde
import cusplab.probe
import cusplab.weights

CLI_COMMANDS = ("exponents", "ap-check", "distortion", "mollify", "solve", "probe", "report")

# (defining module, attribute, span name, count taken from (args, kwargs, result))
_TARGETS: list[tuple[Any, str, str, Callable | None]] = [
    (cusplab.geometry, "integrate", "geometry.integrate", lambda a, k, r: r.verdict.value),
    (cusplab.geometry, "fixed_grid_sum", "geometry.fixed_grid_sum", None),
    (cusplab.weights, "ap_ratio", "weights.ap_ratio", None),
    (cusplab.weights, "theorem10_condition", "weights.theorem10_condition", None),
    (cusplab.probe, "run_probe", "probe.run_probe", None),
    (cusplab.probe, "embedding_ratio", "probe.embedding_ratio", None),
    (cusplab.cuspmap, "distortion_Ia", "cuspmap.distortion", None),
    (cusplab.cuspmap, "jacobian_Ja", "cuspmap.distortion", None),
    (cusplab.exponents, "thm6_threshold", "exponents.threshold", None),
    (cusplab.exponents, "thm8_threshold", "exponents.threshold", None),
    (cusplab.exponents, "cor2_threshold", "exponents.threshold", None),
    (cusplab.exponents, "besov_threshold", "exponents.threshold", None),
    (cusplab.exponents, "select_witness", "exponents.select_witness", None),
    (cusplab.mollifier, "mollify_many", "mollifier.mollify_many",
     lambda a, k, r: len(a[2]) * len(a[3].rule[0])),
    (cusplab.mollifier, "convergence_test", "mollifier.convergence_test", None),
    (cusplab.pde, "triangulate", "pde.triangulate", lambda a, k, r: len(r.vertices)),
    (cusplab.pde, "assemble", "pde.assemble", None),
    (cusplab.pde, "solve_dirichlet", "pde.solve_dirichlet", None),
    (cusplab.pde, "weak_residual", "pde.weak_residual", None),
    (cusplab.pde, "manufactured_rhs", "pde.manufactured_rhs", None),
    (cusplab.pde, "write_mesh", "pde.write_mesh", None),
    (cusplab.cli, "main", "cli.main", None),
]


class Tracer:
    """Span recorder.  ``spans`` rows are
    ``[name, start, end, parent_index, job_id, count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.grid_keys: set = set()
        self.cli_bytes: list[int] = []
        self.cg_iterations = 0
        self.cg_unknowns = 0
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None,
             label: Callable | None = None) -> Callable:
        """``label(args)`` sets the span's count before the call (kept if the
        call raises); ``count(args, kwargs, result)`` replaces it after."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job,
                    label(args) if label else 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cusplab" or k.startswith("cusplab.")]
        for home, attr, name, count in _TARGETS:
            label = None
            if name == "geometry.fixed_grid_sum":
                count = self._grid_count
            elif name == "cli.main":
                count, label = self._cli_done, lambda args: args[0][0]
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, count, label)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        weight_call = cusplab.weights.Weight.__call__
        self._replace(cusplab.weights.Weight, "__call__",
                      self.wrap("weights.Weight", weight_call, lambda a, k, r: len(r)))
        self._replace(cusplab.pde, "spla", types.SimpleNamespace(cg=self._counting_cg(cusplab.pde.spla.cg)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _grid_count(self, args, kwargs, result) -> int:
        grid = args[1]
        # cheap identity of a grid's content: domain, size and its end cells
        self.grid_keys.add((grid.domain, grid.cell_count, grid.weights[0], grid.weights[-1],
                            grid.points[0].tobytes(), grid.points[-1].tobytes()))
        return grid.cell_count

    def _cli_done(self, args, kwargs, result) -> str:
        argv = args[0]
        out = Path(argv[argv.index("--out") + 1])
        self.cli_bytes.append(sum(f.stat().st_size for f in out.iterdir() if f.is_file()))
        return argv[0]

    def _counting_cg(self, cg: Callable) -> Callable:
        def counted(A, b, *args, **kwargs):
            def callback(xk):
                self.cg_iterations += 1

            self.cg_unknowns += len(b)
            return cg(A, b, *args, callback=callback, **kwargs)

        return counted


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts and times are totals divided by the number
    of timed rounds; rates, ratios and per-command medians are not."""
    spans = tracer.spans
    own = _self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    units = defaultdict(int)
    verdicts = defaultdict(int)
    children_of = defaultdict(lambda: defaultdict(int))
    cmd_times = defaultdict(list)
    for i, (name, start, end, parent, _job, n) in enumerate(spans):
        count[name] += 1
        total[name] += end - start
        self_total[name] += own[i]
        if name == "geometry.integrate":
            verdicts[n] += 1
        elif name == "cli.main":
            cmd_times[n].append(end - start)
        else:
            units[name] += n
        if parent >= 0:
            children_of[spans[parent][0]][name] += 1
    per = 1.0 / rounds

    ratios = count["probe.embedding_ratio"]
    grid_sum_s = total["geometry.fixed_grid_sum"]
    solve_s = total["pde.solve_dirichlet"]
    m: dict[str, tuple[float, str]] = {
        "geometry.integrate_calls": (count["geometry.integrate"] * per, "count"),
        "geometry.integrate_s": (total["geometry.integrate"] * per, "s"),
        "geometry.integrate_self_s": (self_total["geometry.integrate"] * per, "s"),
        "geometry.grid_sums": (count["geometry.fixed_grid_sum"] * per, "count"),
        "geometry.distinct_grids": (len(tracer.grid_keys), "count"),
        "geometry.cells_evaluated": (units["geometry.fixed_grid_sum"] * per, "count"),
        "geometry.grid_sum_s": (grid_sum_s * per, "s"),
        "geometry.cells_per_s": (units["geometry.fixed_grid_sum"] / grid_sum_s if grid_sum_s else 0.0, "1/s"),
        "geometry.verdicts_finite": (verdicts["finite"] * per, "count"),
        "geometry.verdicts_divergent": (verdicts["divergent"] * per, "count"),
        "geometry.verdicts_inconclusive": (verdicts["inconclusive"] * per, "count"),
        "weights.weight_points": (units["weights.Weight"] * per, "count"),
        "weights.weight_s": (total["weights.Weight"] * per, "s"),
        "weights.ap_balls": (count["weights.ap_ratio"] * per, "count"),
        "weights.ap_ratio_s": (total["weights.ap_ratio"] * per, "s"),
        "weights.theorem10_s": (total["weights.theorem10_condition"] * per, "s"),
        "probe.run_probe_s": (total["probe.run_probe"] * per, "s"),
        "probe.ratio_calls": (ratios * per, "count"),
        "probe.embedding_ratio_s": (total["probe.embedding_ratio"] * per, "s"),
        "probe.integrals_per_ratio": (
            children_of["probe.embedding_ratio"]["geometry.integrate"] / ratios if ratios else 0.0, "ratio"),
        "cuspmap.distortion_calls": (count["cuspmap.distortion"] * per, "count"),
        "cuspmap.distortion_s": (total["cuspmap.distortion"] * per, "s"),
        "exponents.threshold_calls": (count["exponents.threshold"] * per, "count"),
        "exponents.threshold_s": (total["exponents.threshold"] * per, "s"),
        "exponents.witness_calls": (count["exponents.select_witness"] * per, "count"),
        "exponents.witness_s": (total["exponents.select_witness"] * per, "s"),
        "mollifier.kernel_evals": (units["mollifier.mollify_many"] * per, "count"),
        "mollifier.mollify_s": (total["mollifier.mollify_many"] * per, "s"),
        "mollifier.convergence_test_self_s": (self_total["mollifier.convergence_test"] * per, "s"),
        "pde.vertices": (units["pde.triangulate"] * per, "count"),
        "pde.triangulate_s": (total["pde.triangulate"] * per, "s"),
        "pde.assemble_calls": (count["pde.assemble"] * per, "count"),
        "pde.assemble_s": (total["pde.assemble"] * per, "s"),
        "pde.solve_s": (solve_s * per, "s"),
        "pde.cg_s": (self_total["pde.solve_dirichlet"] * per, "s"),
        "pde.cg_iterations": (tracer.cg_iterations * per, "count"),
        "pde.unknowns_per_s": (tracer.cg_unknowns / solve_s if solve_s else 0.0, "1/s"),
        "pde.weak_residual_s": (total["pde.weak_residual"] * per, "s"),
        "pde.manufactured_rhs_s": (total["pde.manufactured_rhs"] * per, "s"),
        "pde.write_mesh_s": (total["pde.write_mesh"] * per, "s"),
    }
    for command in CLI_COMMANDS:
        times = cmd_times.get(command)
        m[f"cli.{command}_s"] = (statistics.median(times) if times else 0.0, "s")
    m["cli.self_s"] = (self_total["cli.main"] * per, "s")
    m["cli.bytes_written"] = (sum(tracer.cli_bytes) * per, "bytes")
    return m
