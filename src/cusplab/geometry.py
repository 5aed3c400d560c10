"""Domains, graded quadrature grids and rules, refinement-based verdicts.

Every fixed Gauss rule, :data:`NODES` nodes a panel, comes from one cached
source, :func:`gauss_jacobi`: :func:`graded_gauss`, graded toward a singular
end, and :func:`gauss_panels` on edges :func:`halved_toward` a steep end,
for the power integrals of :mod:`cusplab.weights` and the mollifier, and the
probe's Gauss–Jacobi rules, summed by :func:`fixed_grid_sum` pairwise in a
fixed order.  No command calls the refinement ladder, :func:`integrate`, any
more.  It never asks for a value at the singular face ``x_n = 0``: every
node is a cell centroid strictly inside the domain.  Finiteness and
divergence are decided from a refinement trace in which each level doubles
the resolved decades next to the singular face: a tail ``t**(c-1)`` there
adds at least as much per decade from one level to the next exactly when
``c <= 0``, and that is how divergence is read, over levels that share
their cross grid so that only the window changed.

Grids cover boxes and cusps.  A ball has no grid: it is a region for the
exact radial reduction in :mod:`cusplab.weights`.  Cusp domains are never
meshed directly.  Integrals over ``H_g`` are computed in reference
coordinates ``(u, t)`` on the unit box, ``x_i = u_i * g_i(t)``,
``x_n = t``, with the profiles pure powers ``g_i(t) = t**gamma_i`` and the
cross-section volume ``G(t) = prod g_i(t) = t**(gamma - 1)`` folded in as an
analytic weight.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np
from scipy import special

__all__ = [
    "Box",
    "Ball",
    "CuspDomain",
    "Domain",
    "EvaluationError",
    "IntegralVerdict",
    "NODES",
    "QuadratureGrid",
    "RefinementSchedule",
    "SLOPE_BAND",
    "Verdict",
    "fixed_grid_sum",
    "gauss_jacobi",
    "gauss_panels",
    "graded_gauss",
    "grid",
    "h1_domain",
    "halved_toward",
    "integrate",
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
    (the cusp cross-section), so ``sum(weights * f(points))``
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


def _reference_box(domain: Domain) -> Box:
    """The box whose grid :func:`grid` maps onto ``domain``: a box itself,
    or a cusp's unit box in ``(u, t)`` graded toward ``t = 0``."""
    if isinstance(domain, Box):
        return domain
    if isinstance(domain, CuspDomain):
        n = domain.dim
        return Box((0.0,) * n, (1.0,) * n, singular_axis=n - 1)
    raise TypeError(f"unsupported domain type {type(domain)!r}")


def grid(
    domain: Domain, decades: float, panels_per_decade: int, cells: int
) -> QuadratureGrid:
    """Quadrature grid over a box or a cusp, built on its reference box.

    A graded axis (the cusp's ``t``, a box's singular axis) resolves
    ``decades`` decades next to its singular end with ``panels_per_decade``
    geometric panels per decade.  Every other axis has ``cells`` uniform
    cells.  A cusp's reference centers are scaled by its profiles and
    weighted by its cross-section.  Any other domain, a ball included,
    raises ``TypeError``.
    """
    ref = _box_grid(_reference_box(domain), decades, panels_per_decade, cells)
    points, weights = ref.points, ref.weights
    if isinstance(domain, CuspDomain):
        t = points[:, -1]
        points[:, :-1] *= domain.profiles(t)
        weights = weights * domain.cross_section(t)
    return QuadratureGrid(domain, points, weights)


#: Gauss nodes per panel of every fixed rule
NODES = 16


@functools.lru_cache(maxsize=256)
def gauss_jacobi(k: float = 0.0, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The :data:`NODES` Gauss nodes and weights on ``(0, 1)`` for ``x**(c-1)
    (1-x)**k`` (Golub–Welsch, *Math. Comp.* 23, 1969), built once per
    process and shared by every caller, so the arrays are read-only."""
    x, w = special.roots_jacobi(NODES, k, c - 1.0)
    nodes, weights = 0.5 * (x + 1.0), w / 2.0 ** (k + c)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on each panel between consecutive ``edges``."""
    y, w = gauss_jacobi()
    edges = np.asarray(edges, dtype=float)
    start, width = edges[:-1, None], np.diff(edges)[:, None]
    return (start + width * y).ravel(), (width * w).ravel()


def halved_toward(lo: float, hi: float, slope: float) -> np.ndarray:
    """Edges of ``(lo, hi)`` halved toward ``hi`` until the last panel is at
    most ``8 (hi - lo) / slope`` wide: an integrand of log-slope ``slope``
    across the interval has its mass within about that of ``hi``."""
    count = math.ceil(math.log2(slope / 8.0)) if slope > 8.0 else 0
    return np.concatenate([[lo], hi - (hi - lo) * 0.5 ** np.arange(1.0, count + 1.0), [hi]])


def graded_gauss(span: float, decades: int, jacobi: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The log-nodes, which can lie below the float range, and the weights of
    a rule for ``∫_0^span x**jacobi f(x) dx``, ``jacobi > -1``, graded toward
    0 (Schwab, *Computing* 53, 1994).

    Each decade above ``a = span * 10**-decades`` is one Gauss–Legendre
    panel, the power in its weights; so is ``(0, a)`` when ``jacobi`` is 0.
    Otherwise ``w = (x/a)**(jacobi + 1)`` maps ``(0, a)`` and its power onto
    ``(0, 1)`` with no power, which takes this rule: an ``f`` varying like a
    small power of ``x`` becomes a larger one of ``w``.  The top decade is
    :func:`halved_toward` ``span`` with slope ``jacobi``.  No weight is
    negative, so sums keep the discrete Hölder inequality.
    """
    edges = span * 10.0 ** -np.arange(decades, -1.0, -1.0)
    if decades:
        edges = np.concatenate([edges[:-2], halved_toward(edges[-2], span, jacobi)])
    if not jacobi:
        nodes, weights = gauss_panels(np.concatenate([[0.0], edges]))
        return np.log(nodes), weights
    nodes, weights = gauss_panels(edges)
    first, e = edges[0], jacobi + 1.0
    log_w, w_weights = graded_gauss(1.0, decades)
    log_nodes = np.concatenate([math.log(first) + log_w / e, np.log(nodes)])
    return log_nodes, np.concatenate([first**e / e * w_weights, weights * nodes**jacobi])


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

    The resolved window next to the singular face starts
    at ``start_decades`` decades and multiplies by :data:`DEEPEN` each level
    (capped at ``max_decades``), while panel density per decade stays fixed,
    so :func:`_verdict` can compare what each refinement adds per decade
    once the cross grid stays fixed.  A cusp's cross axes start at
    :data:`CROSS_CELLS` cells and double for three levels (in three or more
    dimensions, once, up to 24).
    """

    start_decades: float = 1.0
    max_decades: float = 256.0
    panels_per_decade: int = 24

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
    if domain.dim == 1:
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
    # a pairwise sum in a fixed order, whatever the BLAS thread count
    return float(np.add.reduce(vals * grid.weights))


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


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: CuspDomain | Box,
    schedule: RefinementSchedule | None = None,
    tol: float = 1e-3,
) -> IntegralVerdict:
    """Integrate ``f`` over a cusp or a graded interval and decide finiteness.

    ``f`` must accept an ``(N, n)`` array of interior points and return
    ``(N,)`` values; singular behavior is allowed only at the boundary or the
    origin.  The verdict is Finite or Divergent as :func:`_verdict` decides,
    Inconclusive if the schedule runs out first: at the first level whose
    grid equals the previous level's, so no verdict ever compares a grid
    with itself.  ``domain`` is a cusp or a 1-D box graded at its lower end;
    any other raises ``TypeError``.  A non-finite value ends the ladder
    Inconclusive once :func:`_verdict` has compared increments on one cross
    grid; before that it is Divergent if the last level raised
    ``|estimate|``, and otherwise its :class:`EvaluationError` is raised.
    """
    graded_interval = isinstance(domain, Box) and domain.dim == 1 and domain.singular_axis == 0
    if not (isinstance(domain, CuspDomain) or graded_interval):
        raise TypeError(f"the ladder integrates a cusp or a graded interval, not {domain!r}")
    schedule = schedule or DEFAULT_SCHEDULE
    trace: list[float] = []
    prev_args = None
    depths: list[float] = []  # windows of the levels on this level's cross grid
    for level in itertools.count():
        args = _level_args(domain, schedule, level)
        if args == prev_args:
            break
        if prev_args is None or args[2] != prev_args[2]:
            depths = []
        prev_args = args
        depths.append(args[0])
        try:
            trace.append(fixed_grid_sum(f, grid(domain, *args)))
        except EvaluationError:
            # after increments that did not grow per decade, overflow ends
            # the ladder undecided; before the rule could compare them,
            # overflow after |estimate| grew is divergence manifesting
            if len(depths) > 3:
                return IntegralVerdict(trace[-1], Verdict.INCONCLUSIVE, tuple(trace))
            if len(trace) >= 2 and abs(trace[-1]) > abs(trace[-2]):
                return IntegralVerdict(trace[-1], Verdict.DIVERGENT, tuple(trace))
            raise
        verdict = _verdict(trace, depths, tol)
        if verdict is not None:
            return IntegralVerdict(trace[-1], verdict, tuple(trace))
    if all(v == 0.0 for v in trace):
        return IntegralVerdict(0.0, Verdict.FINITE, tuple(trace))
    return IntegralVerdict(trace[-1], Verdict.INCONCLUSIVE, tuple(trace))
