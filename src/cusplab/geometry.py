"""Domains, graded quadrature grids, and refinement-based integral verdicts.

The integration engine never asks for a value at the singular face ``x_n = 0``
(or at the center of a ball): every node is a cell centroid strictly inside
the domain.  Finiteness and divergence are decided from a refinement trace in
which each level doubles the resolved decades next to the singular face: a
tail ``t**(c-1)`` there adds at least as much per decade from one level to
the next exactly when ``c <= 0``, and that is how divergence is read, over
levels that share their cross grid so that only the window changed.

Cusp domains are never meshed directly.  Integrals over ``H_g`` are computed
in reference coordinates ``(u, t)`` on the unit box, ``x_i = u_i * g_i(t)``,
``x_n = t``, with the profiles pure powers ``g_i(t) = t**gamma_i`` and the
cross-section volume ``G(t) = prod g_i(t) = t**(gamma - 1)`` folded in as an
analytic weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Box",
    "Ball",
    "CuspDomain",
    "Domain",
    "EvaluationError",
    "IntegralVerdict",
    "QuadratureGrid",
    "RefinementSchedule",
    "SLOPE_BAND",
    "Verdict",
    "fixed_grid_sum",
    "grid",
    "h1_domain",
    "integrate",
    "integrate_all",
    "radius",
    "scaling_exponent",
    "unit_interval",
]


class EvaluationError(RuntimeError):
    """Integrand returned a non-finite value at an interior node."""


def radius(points: np.ndarray) -> np.ndarray:
    """``|x|`` of each row of ``points``, the same bits as
    ``np.linalg.norm(points, axis=-1)``.

    That norm adds a row's squares in column order, and so does this, a
    column at a time instead of by a strided reduce along each row, several
    times faster on two or three columns.  numpy's reduce sums eight or
    more terms pairwise, so rows that wide go to the norm itself.
    """
    width = points.shape[-1]
    if width > 7:
        return np.linalg.norm(points, axis=-1)
    sq = points[..., 0] * points[..., 0]
    for k in range(1, width):
        sq += points[..., k] * points[..., k]
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``prod (lo_i, hi_i)``.

    ``singular_axis`` marks an axis whose *lower* face may carry an
    integrable singularity; refinement then grades toward that face.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    singular_axis: int | None = None

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, expected {self.dim}")
        return bool(np.all(x > self.lo) and np.all(x < self.hi))


@dataclass(frozen=True)
class Ball:
    """Open ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, expected {self.dim}")
        return bool(np.linalg.norm(x - np.asarray(self.center)) < self.radius)


@dataclass(frozen=True)
class CuspDomain:
    """Anisotropic power cusp ``{0 < x_n < 1, 0 < x_i < g_i(x_n)}``.

    Profiles are pure powers ``g_i(t) = t**exponents[i]`` with every
    exponent >= 1, so the cross-section volume is ``G(t) = t**(gamma - 1)``.
    """

    dim: int
    exponents: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("cusp domain needs dimension >= 2")
        if len(self.exponents) != self.dim - 1:
            raise ValueError("need one profile exponent per transverse axis")
        if any(g < 1.0 for g in self.exponents):
            raise ValueError("profile exponents must be >= 1")
        object.__setattr__(self, "exponents", tuple(float(g) for g in self.exponents))

    @property
    def gamma(self) -> float:
        """Aggregate exponent ``1 + sum gamma_i`` (equals n for the Lipschitz case)."""
        return 1.0 + float(sum(self.exponents))

    def profiles(self, t):
        """Per-axis widths ``g_i(t)``, shape ``(..., n-1)``."""
        t = np.asarray(t, dtype=float)
        return t[..., None] ** np.asarray(self.exponents)

    def cross_section(self, t):
        """Cross-section volume ``G(t) = prod_i g_i(t)``."""
        return np.asarray(t, dtype=float) ** (self.gamma - 1.0)

    @classmethod
    def isotropic(cls, dim: int, gamma: float) -> "CuspDomain":
        """Cusp with aggregate exponent ``gamma`` shared equally by the
        ``dim - 1`` transverse axes, each profile exponent ``(gamma-1)/(dim-1)``."""
        return cls(dim=dim, exponents=((float(gamma) - 1.0) / (dim - 1),) * (dim - 1))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, expected {self.dim}")
        t = x[-1]
        if not (0.0 < t < 1.0):
            return False
        return bool(np.all(x[:-1] > 0.0) and np.all(x[:-1] < self.profiles(t)))


Domain = Union[Box, Ball, CuspDomain]


def h1_domain(dim: int) -> CuspDomain:
    """The Lipschitz reference cusp (all profile exponents equal to 1)."""
    return CuspDomain.isotropic(dim, dim)


def unit_interval() -> Box:
    """``(0, 1)`` with the singular face at 0, for reduced 1-D integrals."""
    return Box(lo=(0.0,), hi=(1.0,), singular_axis=0)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Centroid-rule cells over a reference box, mapped to physical points.

    ``weights`` carry each cell's reference volume times any analytic factor
    (cusp cross-section, polar radius), so ``sum(weights * f(points))``
    approximates the physical integral.
    """

    domain: Domain
    points: np.ndarray
    weights: np.ndarray

    @property
    def cell_count(self) -> int:
        return int(self.weights.shape[0])


def _axis_cells(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, m + 1)
    return 0.5 * (edges[1:] + edges[:-1]), np.diff(edges)


def _graded_axis_cells(
    lo: float, hi: float, decades: float, panels_per_decade: int
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric panels on ``(lo, hi]`` resolving ``decades`` decades above ``lo``."""
    span = hi - lo
    m = max(2, int(math.ceil(decades * panels_per_decade)))
    # offsets from the singular face, geometric from span*10**-decades up to span
    edges = lo + span * 10.0 ** (-decades * (1.0 - np.arange(m + 1) / m))
    edges[-1] = hi
    return 0.5 * (edges[1:] + edges[:-1]), np.diff(edges)


def _tensor_cells(per_axis: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Centers ``(N, dim)`` and volumes ``(N,)`` of the product cells,
    row-major (last axis fastest)."""
    dim = len(per_axis)
    shape = tuple(len(c) for c, _ in per_axis)
    centers, volumes = np.empty(shape + (dim,)), 1.0
    for ax, (c, w) in enumerate(per_axis):
        along = (slice(None),) + (None,) * (dim - 1 - ax)
        centers[..., ax] = c[along]
        volumes = volumes * w[along]
    return centers.reshape(-1, dim), volumes.reshape(-1)


def _cusp_reference_grid(
    domain: CuspDomain, decades: float, panels_per_decade: int, cells: int
) -> QuadratureGrid:
    n = domain.dim
    t_cells = _graded_axis_cells(0.0, 1.0, decades, panels_per_decade)
    per_axis = [_axis_cells(0.0, 1.0, cells) for _ in range(n - 1)] + [t_cells]
    points, volumes = _tensor_cells(per_axis)
    t = points[:, -1]
    points[:, :-1] *= domain.profiles(t)  # reference centers to physical points
    return QuadratureGrid(domain, points, volumes * domain.cross_section(t))


def _box_grid(
    box: Box, decades: float, panels_per_decade: int, cells: int
) -> QuadratureGrid:
    per_axis = []
    for ax in range(box.dim):
        if box.singular_axis == ax:
            per_axis.append(
                _graded_axis_cells(box.lo[ax], box.hi[ax], decades, panels_per_decade)
            )
        else:
            per_axis.append(_axis_cells(box.lo[ax], box.hi[ax], cells))
    return QuadratureGrid(box, *_tensor_cells(per_axis))


def _ball_grid(
    ball: Ball, decades: float, panels_per_decade: int, cells: int
) -> QuadratureGrid:
    """A disc as the polar box ``(rho, theta)``, graded toward its center."""
    if ball.dim != 2:
        raise NotImplementedError("grid-based ball quadrature is 2-D only")
    r_cells = _graded_axis_cells(0.0, ball.radius, decades, panels_per_decade)
    th_cells = _axis_cells(0.0, 2.0 * math.pi, cells)
    polar, volumes = _tensor_cells([r_cells, th_cells])
    rho, theta = polar[:, 0], polar[:, 1]
    points = np.stack(
        [
            ball.center[0] + rho * np.cos(theta),
            ball.center[1] + rho * np.sin(theta),
        ],
        axis=-1,
    )
    return QuadratureGrid(ball, points, volumes * rho)


def grid(
    domain: Domain, decades: float, panels_per_decade: int, cells: int
) -> QuadratureGrid:
    """Quadrature grid over ``domain``.

    A graded axis (the cusp's ``t``, a box's singular axis, a disc's polar
    radius) resolves ``decades`` decades next to its singular end with
    ``panels_per_decade`` geometric panels per decade.  Every other axis,
    the disc's angle included, has ``cells`` uniform cells.
    """
    if isinstance(domain, CuspDomain):
        return _cusp_reference_grid(domain, decades, panels_per_decade, cells)
    if isinstance(domain, Ball):
        return _ball_grid(domain, decades, panels_per_decade, cells)
    if isinstance(domain, Box):
        return _box_grid(domain, decades, panels_per_decade, cells)
    raise TypeError(f"unsupported domain type {type(domain)!r}")


# ---------------------------------------------------------------------------
# integral verdicts
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    """The one verdict vocabulary: finite/divergent for integrals,
    satisfied/violated for the A_p condition and quasiisometry,
    bounded/blow-up for sharpness probes, and inconclusive for any of them.
    The values are the strings written to reports and CSV files."""

    FINITE = "finite"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    BOUNDED = "bounded"
    BLOW_UP = "blow_up"

    def __str__(self) -> str:
        return self.value


#: band around zero inside which a :func:`scaling_exponent` decides nothing
SLOPE_BAND = 0.01


def scaling_exponent(scales: Sequence[float], trace: Sequence[float]) -> float:
    """Least-squares slope of ``log(trace)`` against ``log(scales)``."""
    return float(np.polyfit(np.log(scales), np.log(trace), 1)[0])


@dataclass(frozen=True)
class IntegralVerdict:
    """Outcome of adaptive integration with divergence detection.

    ``value`` is meaningful only for a finite verdict; ``trace`` holds the
    successive refinement estimates that justify the verdict.
    """

    value: float
    verdict: Verdict
    trace: tuple[float, ...]

    @property
    def finite(self) -> bool:
        return self.verdict is Verdict.FINITE

    @property
    def divergent(self) -> bool:
        return self.verdict is Verdict.DIVERGENT

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "verdict": self.verdict.value,
            "trace": list(self.trace),
        }


#: factor by which the resolved window deepens from level to level
DEEPEN = 2.0
#: cross-axis cells at refinement level 0
CROSS_CELLS = 12


@dataclass(frozen=True)
class RefinementSchedule:
    """Refinement plan for :func:`integrate`.

    The resolved window next to the singular face (a disc's center) starts
    at ``start_decades`` decades and multiplies by :data:`DEEPEN` each level
    (capped at ``max_decades``), while panel density per decade stays fixed,
    so :func:`_verdict` can compare what each refinement adds per decade
    once the cross grid stays fixed.  Cross axes start at
    :data:`CROSS_CELLS` cells and double for three levels (in three or more
    dimensions, once, up to 24); a box without a singular axis starts at
    ``uniform_start`` cells per axis and doubles for six, and has no window
    to deepen.
    """

    start_decades: float = 1.0
    max_decades: float = 256.0
    panels_per_decade: int = 24
    uniform_start: int = 8

    def __post_init__(self):
        if not math.isfinite(self.max_decades):
            raise ValueError("max_decades must be finite for refinement to end")


DEFAULT_SCHEDULE = RefinementSchedule()


def _level_args(
    domain: Domain, schedule: RefinementSchedule, level: int
) -> tuple[float, int, int]:
    """The ``(decades, panels_per_decade, cells)`` passed to :func:`grid` at
    ``level``, with every argument the domain's grid does not read set to 0,
    so that equal arguments mean an equal grid."""
    decades = min(schedule.start_decades * DEEPEN**level, schedule.max_decades)
    if isinstance(domain, Box) and domain.singular_axis is None:
        decades, cells = 0.0, schedule.uniform_start * 2 ** min(level, 6)
    elif domain.dim == 1:
        cells = 0  # a 1-D singular box is its graded axis alone
    else:
        cells = CROSS_CELLS * 2 ** min(level, 3)
    if domain.dim > 2:
        cells = min(cells, 24)  # keep tensor cell counts tractable
    return decades, schedule.panels_per_decade, cells


def fixed_grid_sum(f: Callable[[np.ndarray], np.ndarray], grid: QuadratureGrid) -> float:
    """Quadrature sum of ``f`` on one grid; raises on non-finite interior values."""
    vals = np.asarray(f(grid.points), dtype=float)
    if vals.shape != (grid.cell_count,):
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected ({grid.cell_count},)"
        )
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned a non-finite value at an interior node")
    return float(np.dot(vals, grid.weights))


def _agrees(a: float, b: float, tol: float) -> bool:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return False  # keep refining; an all-zero trace is resolved at the end
    return abs(a - b) <= tol * scale


def _verdict(trace: Sequence[float], depths: Sequence[float], tol: float) -> Verdict | None:
    """Finite or Divergent once ``trace`` decides it, None while it does not.

    ``depths`` are the windows, in decades, of the last levels, up to this
    one, that share its cross grid.  Finite once the last two estimates agree
    to relative ``tol``; Divergent once, over three such levels, the last
    refinement added at least as much per newly resolved decade as the one
    before, with one sign: for a tail ``t**(c-1)`` exactly ``c <= 0``.
    """
    if len(trace) >= 2 and _agrees(trace[-1], trace[-2], tol):
        return Verdict.FINITE
    if len(depths) >= 3:
        (i0, i1, i2), (d0, d1, d2) = trace[-3:], depths[-3:]
        a, b = i1 - i0, i2 - i1
        same_sign = a != 0.0 and b != 0.0 and (a > 0.0) == (b > 0.0)
        if i0 != 0.0 and same_sign and d0 < d1 < d2:
            if abs(b) / (d2 - d1) >= abs(a) / (d1 - d0) * (1 - 1e-9):
                return Verdict.DIVERGENT
    return None


def integrate_all(
    evaluate: Callable[[np.ndarray, list[int]], Iterable[np.ndarray]],
    count: int,
    domain: Domain,
    schedule: RefinementSchedule | None = None,
    tol: float = 1e-3,
) -> list[IntegralVerdict | EvaluationError]:
    """Integrate ``count`` integrands over ``domain`` on one refinement ladder.

    Each level's grid is built once, after the previous level's grid is
    dropped, and ``evaluate(points, active)`` yields the ``(N,)`` values of
    the still-active integrands, in the order of the ascending indices in
    ``active``; a generator that computes each array only when asked keeps
    one integrand's values alive at a time.  Every integrand keeps its own
    trace and leaves the ladder once :func:`_verdict` decides it, so
    integrand ``i``'s outcome is the verdict ``integrate(f_i, domain,
    schedule, tol)`` returns, or the :class:`EvaluationError` it raises, bit
    for bit.  On a box graded along one face, a Finite read where only the
    window was refined turns Divergent if :func:`_verdict` reads the cross
    axes, one octave per step, so.  A non-finite value ends an integrand
    Inconclusive once :func:`_verdict` has compared increments on one cross
    grid; before that it is Divergent if the last level raised
    ``|estimate|``, and otherwise its slot holds the error while every other
    integrand goes on.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    traces: list[list[float]] = [[] for _ in range(count)]
    results: list[IntegralVerdict | EvaluationError | None] = [None] * count
    active = list(range(count))
    prev_args = None
    depths: list[float] = []  # windows of the levels on this level's cross grid
    # a box's singular face may hold its singularity at one point, which only
    # the cross axes resolve
    face_box = isinstance(domain, Box) and domain.singular_axis is not None and domain.dim > 1
    for level in itertools.count():
        args = _level_args(domain, schedule, level)
        if not active or args == prev_args:
            break
        if prev_args is None or args[2] != prev_args[2]:
            depths = []
        prev_args = args
        depths.append(args[0])
        cross_fixed = face_box and len(depths) > 1
        level_grid = grid(domain, *args)
        undecided, settled = [], []
        for i, vals in zip(active, evaluate(level_grid.points, active), strict=True):
            trace = traces[i]
            try:
                trace.append(fixed_grid_sum(lambda _pts, v=vals: v, level_grid))
            except EvaluationError as exc:
                # after increments that did not grow per decade, overflow
                # ends the ladder undecided; before the rule could compare
                # them, overflow after |estimate| grew is divergence manifesting
                if len(depths) > 3:
                    results[i] = IntegralVerdict(trace[-1], Verdict.INCONCLUSIVE, tuple(trace))
                elif len(trace) >= 2 and abs(trace[-1]) > abs(trace[-2]):
                    results[i] = IntegralVerdict(trace[-1], Verdict.DIVERGENT, tuple(trace))
                else:
                    results[i] = exc
                continue
            finally:
                del vals  # free these values before the next are computed
            verdict = _verdict(trace, depths, tol)
            if verdict is None:
                undecided.append(i)
            elif verdict is Verdict.FINITE and cross_fixed:
                settled.append(i)
            else:
                results[i] = IntegralVerdict(trace[-1], verdict, tuple(trace))
        del level_grid
        # only the window was refined, so the cross axes may yet diverge: the
        # estimates on a quarter, a half and all of this level's cross cells
        # are a ladder of their own, one octave per step
        octaves: dict[int, list[float]] = {i: [] for i in settled}
        for cells in (args[2] // 4, args[2] // 2) if settled else ():
            coarse = grid(domain, args[0], args[1], cells)
            for i, vals in zip(settled, evaluate(coarse.points, settled), strict=True):
                total = float(np.dot(vals, coarse.weights))
                octaves[i].append(total if math.isfinite(total) else math.nan)
                del vals
        for i in settled:
            across = _verdict(octaves[i] + traces[i][-1:], (0.0, 1.0, 2.0), tol)
            verdict = Verdict.DIVERGENT if across is Verdict.DIVERGENT else Verdict.FINITE
            results[i] = IntegralVerdict(traces[i][-1], verdict, tuple(traces[i]))
        active = undecided
    for i in active:
        trace = traces[i]
        if all(v == 0.0 for v in trace):
            results[i] = IntegralVerdict(0.0, Verdict.FINITE, tuple(trace))
        else:
            results[i] = IntegralVerdict(trace[-1], Verdict.INCONCLUSIVE, tuple(trace))
    return results


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: Domain,
    schedule: RefinementSchedule | None = None,
    tol: float = 1e-3,
) -> IntegralVerdict:
    """Integrate ``f`` over ``domain`` and decide finiteness.

    ``f`` must accept an ``(N, n)`` array of interior points and return
    ``(N,)`` values; singular behavior is allowed only at the boundary or the
    origin.  This is the one-integrand case of :func:`integrate_all`: the
    verdict is Finite or Divergent as :func:`_verdict` decides, Inconclusive
    if the schedule runs out first: at the first level whose grid equals the
    previous level's, so no verdict ever compares a grid with itself.  A box
    without a singular axis has no window to compare per decade, so there
    only an overflow after a rise in ``|estimate|`` reads Divergent.  The
    :class:`EvaluationError` that :func:`integrate_all` holds in its slot is
    raised.
    """
    (outcome,) = integrate_all(lambda pts, _: [f(pts)], 1, domain, schedule, tol)
    if isinstance(outcome, EvaluationError):
        raise outcome
    return outcome
