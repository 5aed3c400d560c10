"""Power weights, Muckenhoupt A_p verification, and power integrals.

A weight is ``|x|**alpha``, handled through an exact radial reduction: the
integral of a radial power over a ball is a 1-D integral of
``rho**(beta+n-1)`` times the fraction of the sphere ``|x| = rho`` inside the
ball, available in closed form through the regularized incomplete beta
function.  The balls' cap geometry, :func:`_cap_geometry`, holds
everything no power changes: fixed nodes on each cap and their weights, all
through one ``betainc`` call; :func:`_ball_power_integrals` then gives the
A_p averages and ball power integrals of any powers on it, a closed form on
the inner ball plus each cap's sum, for any number of balls in one array
pass.  A ball's integrals depend only on its radius and its centre's
distance from the origin, so a family's geometry has one row per distinct
such pair: the lattice centres ``±10**-k e_i`` share their distances, and
the default family's 147 balls in 2-D (189 in 3-D) are 84 distinct ones.
:func:`ap_check` builds each family's geometry once per process and shares
it between every weight and ``p``.  A single ball (:func:`ap_ratio`,
:func:`power_integral`) is a geometry of one row, built for its call.  A
cusp power integral is one power of
``t`` times a bounded factor; the cap and ``t`` take the one graded Gauss
rule, :func:`cusplab.geometry.graded_gauss`, and the cross axes Gauss panels
halved toward 1 for a large power.  All read the exact rule first:
``|x|**beta`` is integrable near the origin iff ``beta + n > 0``
(``beta + gamma > 0`` at a cusp's tip).

Infinite averages are reported as ``math.inf`` (a distinguished value), never
as a floating overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc, gamma as _gamma

from .geometry import (
    Ball,
    CuspDomain,
    EvaluationError,
    IntegralVerdict,
    NODES,
    ValidityError,
    Verdict,
    _tensor_cells,
    gauss_panels,
    graded_gauss,
    halved_toward,
    radius,
)

__all__ = [
    "ApReport",
    "BallFamily",
    "MAX_BALLS",
    "Weight",
    "ap_check",
    "ap_ratio",
    "polynomial_ap_range",
    "power_integral",
    "sphere_surface",
    "theorem10_condition",
]


def sphere_surface(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / _gamma(n / 2.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """The power weight ``|x|**alpha`` on ``R**dim``."""

    dim: int
    alpha: float

    @classmethod
    def polynomial(cls, alpha: float, dim: int) -> "Weight":
        return cls(dim=dim, alpha=float(alpha))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, expected {self.dim}")
        return self.at_radii(radius(x))

    def at_radii(self, r: np.ndarray) -> np.ndarray:
        """The weight at points whose distances to the origin are ``r``."""
        if self.alpha < 0 and np.any(r == 0.0):
            raise ZeroDivisionError("polynomial weight with alpha < 0 at the origin")
        with np.errstate(divide="ignore"):
            return r**self.alpha


def polynomial_ap_range(n: int, p: float) -> tuple[float, float]:
    """Open alpha interval on which ``|x|**alpha`` satisfies A_p."""
    if p <= 1:
        raise ValueError("A_p needs p > 1")
    return (-float(n), float(n) * (p - 1.0))


# ---------------------------------------------------------------------------
# radial reduction for polynomial weights on balls
# ---------------------------------------------------------------------------


#: decades of the graded rule of every power integral
_DECADES = 40

# the cap rule: theta on (0, pi], graded toward 0, where the cap starts at the
# origin when the sphere passes through it; rho = lo + (hi - lo) * s with
# s = sin(theta/2)**2 has no square root at either end of the cap, and
# (1 - cos(theta))/2 in its place would round to 0 for small theta
_LOG_THETA, _THETA_W = graded_gauss(math.pi, _DECADES)
_CAP_S = np.sin(0.5 * np.exp(_LOG_THETA)) ** 2
_CAP_DS = 0.5 * np.sin(np.exp(_LOG_THETA)) * _THETA_W


@dataclass(frozen=True)
class _CapGeometry:
    """Everything of a row of balls in ``R**dim`` that no power changes:
    each ball's inner radius ``R - d`` (a Python float, for the closed
    form's scalar power; ``>= 0`` exactly when the closed ball holds the
    origin), and its cap nodes ``rho`` with their weights ``shell``, one
    read-only row per ball."""

    dim: int
    surface: float
    inner: tuple[float, ...]
    rho: np.ndarray
    shell: np.ndarray


def _cap_geometry(n: int, d: Sequence[float], radii: Sequence[float]) -> _CapGeometry:
    """The cap geometry of the balls in ``R**n`` of radii ``radii`` whose
    centres lie at distances ``d`` from the origin.

    The fraction of the sphere ``|x| = rho`` inside a ball is 1 on
    ``[0, R - d]``, where :func:`_ball_power_integrals` takes a closed form,
    and falls to 0 across the cap ``[|d - R|, d + R]``, which takes the cap
    rule; every cap node of every ball goes through one ``betainc`` call.
    Each row is computed elementwise, so a ball has the bits it has on its
    own, and ``R**2`` is Python's power of a float.  None of it depends on
    a power, so one geometry serves every weight and every exponent.
    """
    surface = sphere_surface(n)
    dist, size = np.array(d, dtype=float), np.array(radii, dtype=float)
    inner = size - dist
    lo, hi = np.abs(inner), dist + size
    rho = lo[:, None] + (hi - lo)[:, None] * _CAP_S
    shell = np.zeros_like(rho)  # a centred ball has no cap
    cap = dist > 0.0
    if cap.any():
        with np.errstate(over="ignore", invalid="ignore"):
            # the fraction of the sphere within angle acos(mu) of the centre
            r, c = rho[cap], dist[cap, None]
            radius_sq = np.array([R**2 for R in size[cap].tolist()])[:, None]
            mu = np.clip((r * r + c * c - radius_sq) / (2.0 * r * c), -1.0, 1.0)
            half = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - mu * mu)
            width = (surface * (hi - lo))[cap, None]
            shell[cap] = width * _CAP_DS * np.where(mu >= 0.0, half, 1.0 - half)
    rho.flags.writeable = shell.flags.writeable = False
    return _CapGeometry(n, surface, tuple(inner.tolist()), rho, shell)


def _ball_power_integrals(
    geometry: _CapGeometry, betas: Sequence[float], rows: Sequence[int] | None = None
) -> list[list[float]]:
    """``∫_ball |x|**beta dx`` for each beta over each ball of ``geometry``
    (or of its ``rows``), all on its node set: one list per beta, one value
    per ball.

    A ball's value is the closed form on ``[0, R - d]`` plus its cap nodes'
    sum ``sum(shell * rho**(beta + n - 1))``.  Every beta shares the nodes
    and the closed form's radius, so the discrete Hölder inequality between
    any two of them holds.  A beta with ``beta + n <= 0`` needs the origin
    outside the closed ball, so leave such balls out of ``rows``; a value
    past the float range comes back ``inf`` or ``nan``.  Each row's sum is
    its own, so a ball's values are the bits it has on its own, in any
    subset of rows: the closed form keeps a scalar power, which may round
    otherwise than an array power.
    """
    inner, rho, shell = geometry.inner, geometry.rho, geometry.shell
    if rows is not None:
        inner, rho, shell = [inner[k] for k in rows], rho[rows], shell[rows]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for beta in betas:
            e = beta + geometry.dim
            closed = [geometry.surface * np.float64(i) ** e / e if i > 0.0 else 0.0 for i in inner]
            out.append((closed + np.sum(shell * rho ** (e - 1.0), axis=1)).tolist())
    return out


def _diverges(beta: float, dim: float, at_origin: bool) -> bool:
    """The exact rule: ``|x|**beta`` is not integrable over a region iff the
    origin is in the closed region and ``beta + dim <= 0``, with ``dim`` the
    region's dimension there: ``n`` for a ball, the aggregate ``gamma`` at a
    cusp's tip (always in its closure)."""
    return at_origin and beta + dim <= 0.0


def _ap_ratios(w: Weight, p: float, geometry: _CapGeometry) -> list[float]:
    """The ratio of :func:`ap_ratio` on each ball of ``geometry``, with one
    call of :func:`_ball_power_integrals` for all balls whose averages are
    finite by the exact rule."""
    if p <= 1:
        raise ValueError("A_p needs p > 1")
    if w.dim != geometry.dim:
        raise ValueError(f"a weight on R**{w.dim} and balls in R**{geometry.dim}")
    dual = 1.0 / (1.0 - p)
    ratios = [math.inf] * len(geometry.inner)
    finite, rows = range(len(ratios)), None
    if any(_diverges(w.alpha * power, w.dim, True) for power in (1.0, dual)):
        # an average diverges on each ball whose closure holds the origin
        finite = rows = [k for k, inner in enumerate(geometry.inner) if inner < 0.0]
    integrals = _ball_power_integrals(geometry, (0.0, w.alpha, w.alpha * dual), rows)
    for k, vol, int_w, int_dual in zip(finite, *integrals):
        try:  # a volume that underflowed to 0 leaves no average
            avg_w, avg_dual = int_w / vol, int_dual / vol
            ratio = avg_w * avg_dual ** (p - 1.0)
        except (OverflowError, ZeroDivisionError):
            continue
        # a true ratio is >= 1: 0, inf or nan means an average left the float range
        if 0.0 < ratio < math.inf:
            ratios[k] = ratio
    return ratios


def ap_ratio(w: Weight, p: float, ball: Ball) -> float:
    """A_p product ``(avg_B w) * (avg_B w**(1/(1-p)))**(p-1)`` on one ball.

    A divergent average is reported as ``inf``; otherwise both averages are
    ball power integrals over the ball's volume, all three on the node set
    of :func:`_cap_geometry`, which makes the returned ratio >= 1 exactly
    (discrete Hölder).  A product that floats cannot form, from an average
    that under- or overflowed or a power past the float range, is ``inf``
    too.  The ball's one-row geometry is built for this call alone.
    """
    geometry = _cap_geometry(w.dim, [float(np.linalg.norm(ball.center))], [ball.radius])
    return _ap_ratios(w, p, geometry)[0]


# ---------------------------------------------------------------------------
# A_p verification over a ball family
# ---------------------------------------------------------------------------


#: the most balls a family may hold; :func:`ap_check` keeps each family's
#: cap geometry, at most ``MAX_BALLS * 656 * 2`` floats (43 MB)
MAX_BALLS = 4096


def _measures_fit(n: int, r: float) -> bool:
    """Whether a ball of radius ``r`` in ``R**n`` has a positive finite
    float ``r**2`` and volume."""
    try:
        square, volume = r**2, float(sphere_surface(n)) / n * r**n
    except OverflowError:
        return False
    return 0.0 < square < math.inf and 0.0 < volume < math.inf


@dataclass(frozen=True)
class BallFamily:
    """Sampling plan: log-radial lattice around the singular point plus
    seeded uniform random centers, radii geometric between the given bounds.

    A plan of more than :data:`MAX_BALLS` balls raises ``ValueError``, and
    radii outside ``0 < r_min <= r_max``, or with no positive finite float
    ``R**2`` and ball volume in ``R**dim``, raise :class:`ValidityError`,
    both before any ball is built.
    """

    dim: int
    r_min: float = 1e-3
    r_max: float = 1.0
    n_radii: int = 7
    n_random: int = 8
    lattice_decades: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        count = self.n_radii * (1 + 2 * self.dim * self.lattice_decades + self.n_random)
        if count > MAX_BALLS:
            raise ValueError(f"a ball family holds at most {MAX_BALLS} balls, got {count}")
        if not 0.0 < self.r_min <= self.r_max:
            raise ValidityError(
                f"ball radii need 0 < r_min <= r_max, got r_min = {self.r_min:g}, r_max = {self.r_max:g}"
            )
        for r in (self.r_min, self.r_max):  # R**2 and the volume are monotone in R
            if not _measures_fit(self.dim, r):
                raise ValidityError(
                    f"radius {r:g} gives no positive finite float R**2 and ball volume in dimension {self.dim}"
                )

    def balls(self) -> list[Ball]:
        radii = np.geomspace(self.r_min, self.r_max, self.n_radii)
        centers: list[np.ndarray] = [np.zeros(self.dim)]
        for k in range(1, self.lattice_decades + 1):
            dist = 10.0 ** (-k + 1)
            for ax in range(self.dim):
                for sign in (+1.0, -1.0):
                    c = np.zeros(self.dim)
                    c[ax] = sign * dist
                    centers.append(c)
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_random):
            centers.append(rng.uniform(-1.0, 1.0, size=self.dim))
        return [Ball(tuple(c), float(r)) for c in centers for r in radii]


@dataclass(frozen=True)
class ApReport:
    """A_p verdict for ``|x|**alpha``, pinned to the analytic window
    ``analytic_range``; the ratios sampled over a ball family, the largest
    of them ``sup_estimate`` (>= 1 always), serve as a cross-check only.
    """

    p: float
    sup_estimate: float
    ball_count: int
    verdict: Verdict
    analytic_range: tuple[float, float]
    ratios: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "sup_estimate": self.sup_estimate,
            "ball_count": self.ball_count,
            "verdict": self.verdict.value,
            "analytic_range": list(self.analytic_range),
        }


@functools.lru_cache(maxsize=4)
def _family_geometry(family: BallFamily) -> tuple[tuple[int, ...], _CapGeometry]:
    """A family's layout and cap geometry, built once per process for each
    family and read-only.

    A ball's integrals depend only on its radius and its centre's distance
    from the origin, so the geometry has one row per distinct such pair, in
    first-seen order; the layout gives each ball's row.
    """
    keys = [(float(np.linalg.norm(b.center)), b.radius) for b in family.balls()]
    row_of: dict[tuple[float, float], int] = {}
    layout = tuple(row_of.setdefault(k, len(row_of)) for k in keys)
    return layout, _cap_geometry(family.dim, [k[0] for k in row_of], [k[1] for k in row_of])


def ap_check(w: Weight, p: float, family: BallFamily | None = None) -> ApReport:
    """Sample the A_p ratio over a ball family and deliver the analytic
    verdict ``-n < alpha < n(p-1)``.

    The family's layout and cap geometry come from :func:`_family_geometry`,
    shared by every weight and every ``p`` checked on an equal family, and
    the ratios from one call of :func:`_ball_power_integrals` on its rows
    whose averages are finite.  Each ratio is the bits of :func:`ap_ratio`
    on its ball, whatever the process checked before.
    """
    layout, geometry = _family_geometry(family or BallFamily(dim=w.dim))
    ratio_of = _ap_ratios(w, p, geometry)
    ratios = tuple(ratio_of[k] for k in layout)
    sup = max(ratios) if ratios else 1.0
    lo, hi = polynomial_ap_range(w.dim, p)
    verdict = Verdict.SATISFIED if lo < w.alpha < hi else Verdict.VIOLATED
    return ApReport(p, sup, len(layout), verdict, (lo, hi), ratios)


# ---------------------------------------------------------------------------
# power integrals and integrability conditions
# ---------------------------------------------------------------------------


def _cusp_power_integral(beta: float, cusp: CuspDomain) -> float:
    """``∫_cusp |x|**beta dx`` with ``c = beta + gamma > 0``: in reference
    coordinates ``x_i = u_i * t**gamma_i``, ``x_n = t``, it is
    ``∫_0^1 t**(c-1) R(t) dt`` with the bounded cross average ``R(t) =
    ∫ (1 + sum u_i**2 t**(2 (gamma_i - 1)))**(beta/2) du`` over the unit box.
    ``t`` takes the graded rule with power ``c - 1``, one panel at a time,
    and each ``u_i`` Gauss–Legendre panels :func:`halved_toward` 1 with
    slope ``beta/2``, the log-slope of ``(1 + u_i**2)**(beta/2)`` at
    ``u_i = 1``."""
    u, u_w = gauss_panels(halved_toward(0.0, 1.0, 0.5 * beta))
    cross, cross_w = _tensor_cells([(u * u, u_w)] * (cusp.dim - 1))  # u_i**2
    log_t, t_w = graded_gauss(1.0, _DECADES, beta + cusp.gamma - 1.0)
    # t**(2 (gamma_i - 1)) from log t: t itself can lie below the float range
    stretch = np.exp(np.multiply.outer(log_t, 2.0 * (np.asarray(cusp.exponents) - 1.0)))
    averages = np.empty_like(log_t)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(log_t), NODES):
            ratio_sq = 1.0 + stretch[k : k + NODES] @ cross.T  # (|x|/t)**2
            averages[k : k + NODES] = ratio_sq ** (0.5 * beta) @ cross_w
        return float(t_w @ averages)


def power_integral(w: Weight, power: float, region: Ball | CuspDomain) -> IntegralVerdict:
    """Verdict and value for ``∫_region w(x)**power dx`` over a ball or a cusp.

    The exact rule (:func:`_diverges`) decides divergence, with value
    ``inf`` and an empty trace.  Otherwise it is finite with an empty trace,
    the value :func:`_ball_power_integrals` (one row) or
    :func:`_cusp_power_integral`, or raises :class:`EvaluationError` if that
    is not a finite float.  A box, or any other region, raises ``TypeError``.
    """
    if not isinstance(region, (Ball, CuspDomain)):
        raise TypeError(f"power_integral takes a ball or a cusp, not {type(region).__name__}")
    beta = w.alpha * power
    if isinstance(region, Ball):
        d = float(np.linalg.norm(region.center))
        if _diverges(beta, region.dim, d <= region.radius):
            return IntegralVerdict(math.inf, Verdict.DIVERGENT, ())
        ((value,),) = _ball_power_integrals(_cap_geometry(w.dim, [d], [region.radius]), (beta,))
    elif _diverges(beta, region.gamma, True):
        return IntegralVerdict(math.inf, Verdict.DIVERGENT, ())
    else:
        value = _cusp_power_integral(beta, region)
    if not math.isfinite(value):
        raise EvaluationError(f"the integral of |x|**{beta:g} is not a finite float")
    return IntegralVerdict(value, Verdict.FINITE, ())


def theorem10_condition(w: Weight, domain: Ball | CuspDomain) -> IntegralVerdict:
    """Finiteness verdict for ``∫ w**(-n/2)``, the solvability hypothesis of
    the weighted Dirichlet problem."""
    return power_integral(w, -w.dim / 2.0, domain)
