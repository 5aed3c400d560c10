"""Weight functions, Muckenhoupt A_p verification, and power integrals.

Polynomial weights ``|x|**alpha`` are handled through an exact radial
reduction: the integral of a radial power over a ball is a 1-D integral of
``rho**(beta+n-1)`` times the fraction of the sphere ``|x| = rho`` inside the
ball, available in closed form through the regularized incomplete beta
function.  One function, :func:`_ball_power_integrals`, evaluates it for
both the A_p averages and ball power integrals: a closed form on the inner
ball and fixed nodes on the cap, with no refinement ladder.  Both read the
exact rule first: ``|x|**beta`` is integrable near the origin iff
``beta + n > 0`` (``beta + gamma > 0`` at a cusp's tip).

Infinite averages are reported as ``math.inf`` (a distinguished value), never
as a floating overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc, gamma as _gamma

from .geometry import (
    Ball,
    Box,
    CuspDomain,
    Domain,
    EvaluationError,
    IntegralVerdict,
    Verdict,
    grid,
    integrate,
    radius,
)

__all__ = [
    "ApReport",
    "BallFamily",
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
    """A nonnegative weight, either ``|x|**alpha`` or a tabulated function.

    The tabulated kind wraps a vectorized callable sampled on quadrature
    nodes; a finite sample can refute but never certify an A_p supremum, so
    tabulated verdicts are at best Inconclusive.
    """

    dim: int
    alpha: float | None = None
    table: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.table is None):
            raise ValueError("specify exactly one of alpha (polynomial) or table")

    @classmethod
    def polynomial(cls, alpha: float, dim: int) -> "Weight":
        return cls(dim=dim, alpha=float(alpha))

    @classmethod
    def tabulated(cls, fn: Callable[[np.ndarray], np.ndarray], dim: int) -> "Weight":
        return cls(dim=dim, table=fn)

    @property
    def is_polynomial(self) -> bool:
        return self.alpha is not None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, expected {self.dim}")
        if self.is_polynomial:
            r = radius(x)
            if self.alpha < 0 and np.any(r == 0.0):
                raise ZeroDivisionError("polynomial weight with alpha < 0 at the origin")
            with np.errstate(divide="ignore"):
                vals = r**self.alpha
        else:
            vals = np.asarray(self.table(x), dtype=float)
            if np.any(vals < 0.0):
                raise ValueError("tabulated weight produced a negative value")
        return vals


def polynomial_ap_range(n: int, p: float) -> tuple[float, float]:
    """Open alpha interval on which ``|x|**alpha`` satisfies A_p."""
    if p <= 1:
        raise ValueError("A_p needs p > 1")
    return (-float(n), float(n) * (p - 1.0))


# ---------------------------------------------------------------------------
# radial reduction for polynomial weights on balls
# ---------------------------------------------------------------------------


# the cap rule: theta on (0, pi], graded toward 0, where the cap starts at the
# origin when the sphere passes through it; rho = lo + (hi - lo) * s with
# s = sin(theta/2)**2 has no square root at either end of the cap, and
# (1 - cos(theta))/2 in its place would round to 0 for small theta
_THETA = grid(Box((0.0,), (math.pi,), singular_axis=0), 20.0, 48, 1)
_CAP_S = np.sin(0.5 * _THETA.points[:, 0]) ** 2
_CAP_DS = 0.5 * np.sin(_THETA.points[:, 0]) * _THETA.weights


def _ball_power_integrals(n: int, betas: Sequence[float], ball: Ball) -> list[float]:
    """``∫_ball |x|**beta dx`` for each beta, all on one node set.

    With ``d`` the centre's distance from the origin, the fraction of the
    sphere ``|x| = rho`` inside the ball is 1 on ``[0, R - d]``, a closed
    form, and falls to 0 across the cap ``[|d - R|, d + R]``, which takes the
    cap rule.  Every beta shares the nodes and the closed form's radius, so
    the discrete Hölder inequality between any two of them holds.  A beta
    with ``beta + n <= 0`` needs the origin outside the closed ball; a value
    past the float range comes back ``inf`` or ``nan``.
    """
    d = float(np.linalg.norm(ball.center))
    inner, surface = ball.radius - d, sphere_surface(n)
    lo, hi = abs(inner), d + ball.radius
    rho = lo + (hi - lo) * _CAP_S
    shell, out = 0.0, []  # a centred ball has no cap
    with np.errstate(over="ignore", invalid="ignore"):
        if d > 0.0:
            # the fraction of the sphere within angle acos(mu) of the centre
            mu = np.clip((rho * rho + d * d - ball.radius**2) / (2.0 * rho * d), -1.0, 1.0)
            half = 0.5 * betainc((n - 1) / 2.0, 0.5, 1.0 - mu * mu)
            shell = surface * (hi - lo) * _CAP_DS * np.where(mu >= 0.0, half, 1.0 - half)
        for beta in betas:
            e = beta + n
            total = surface * np.float64(inner) ** e / e if inner > 0.0 else 0.0
            out.append(float(total + np.sum(shell * rho ** (e - 1.0))))
    return out


def _same_grid_ball_averages(
    w: Weight, powers: Sequence[float], ball: Ball
) -> list[float]:
    """Averages of ``w**power`` over a ball, all on one node set.

    Sharing nodes keeps the discrete Hölder inequality exact, so the A_p
    product of the returned averages is >= 1 by construction.
    """
    if w.is_polynomial:
        betas = [0.0] + [w.alpha * power for power in powers]
        vol, *integrals = _ball_power_integrals(w.dim, betas, ball)
        return [integral / vol for integral in integrals]
    # the disc's polar grid, graded toward its centre: on the default 2-D
    # ball family, a tabulated |x|**alpha gives ratios within 1.2% of the
    # radial rule above at alpha = 1, p = 2 (median 2e-6)
    nodes = grid(ball, 2.0, 48, 96)
    wv = w(nodes.points)
    vol = float(np.sum(nodes.weights))
    out = []
    with np.errstate(divide="ignore"):
        for power in powers:
            vals = wv**power
            if not np.all(np.isfinite(vals)):
                out.append(math.inf)
            else:
                out.append(float(np.dot(vals, nodes.weights)) / vol)
    return out


def _diverges_at_origin(w: Weight, power: float, region: Domain) -> bool:
    """The exact rule for polynomial weights: ``|x|**beta``, ``beta = alpha *
    power``, is not integrable over ``region`` iff the origin is in the
    closed region and ``beta + dim <= 0``, with ``dim`` the region's
    dimension there: ``n`` for a ball or a box, the aggregate ``gamma`` at a
    cusp's tip.  Always False for a tabulated weight."""
    if not w.is_polynomial:
        return False
    if isinstance(region, CuspDomain):
        return w.alpha * power + region.gamma <= 0.0
    if isinstance(region, Ball):
        at_origin = float(np.linalg.norm(region.center)) <= region.radius
    else:
        at_origin = all(lo <= 0.0 <= hi for lo, hi in zip(region.lo, region.hi))
    return at_origin and w.alpha * power + region.dim <= 0.0


def ap_ratio(w: Weight, p: float, ball: Ball) -> float:
    """A_p product ``(avg_B w) * (avg_B w**(1/(1-p)))**(p-1)`` on one ball.

    A divergent average is reported as ``inf``; otherwise the two averages
    are evaluated on a shared node set, which makes the returned ratio >= 1
    exactly (discrete Hölder).
    """
    if p <= 1:
        raise ValueError("A_p needs p > 1")
    dual = 1.0 / (1.0 - p)
    if any(_diverges_at_origin(w, power, ball) for power in (1.0, dual)):
        return math.inf
    avg_w, avg_dual = _same_grid_ball_averages(w, (1.0, dual), ball)
    if not (math.isfinite(avg_w) and math.isfinite(avg_dual)):
        return math.inf
    return avg_w * avg_dual ** (p - 1.0)


# ---------------------------------------------------------------------------
# A_p verification over a ball family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallFamily:
    """Sampling plan: log-radial lattice around the singular point plus
    seeded uniform random centers, radii geometric between the given bounds."""

    dim: int
    r_min: float = 1e-3
    r_max: float = 1.0
    n_radii: int = 7
    n_random: int = 8
    lattice_decades: int = 3
    seed: int = 0

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
    """Sampled A_p verdict.

    ``sup_estimate`` is the largest sampled ratio (>= 1 always); for
    polynomial weights the verdict is pinned to the analytic alpha range and
    the numeric sample serves as a cross-check only.
    """

    p: float
    sup_estimate: float
    ball_count: int
    verdict: Verdict
    analytic_range: tuple[float, float] | None = None
    ratios: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "sup_estimate": self.sup_estimate,
            "ball_count": self.ball_count,
            "verdict": self.verdict.value,
            "analytic_range": list(self.analytic_range) if self.analytic_range else None,
        }


def ap_check(w: Weight, p: float, family: BallFamily | None = None) -> ApReport:
    """Estimate the A_p supremum over a ball family and deliver a verdict.

    Polynomial weights get the analytic verdict ``-n < alpha < n(p-1)``;
    tabulated weights are Violated only when a sampled average diverges,
    otherwise Inconclusive (a finite sample cannot certify a supremum).
    """
    family = family or BallFamily(dim=w.dim)
    balls = family.balls()
    ratios = tuple(ap_ratio(w, p, b) for b in balls)
    sup = max(ratios) if ratios else 1.0
    if w.is_polynomial:
        lo, hi = polynomial_ap_range(w.dim, p)
        verdict = Verdict.SATISFIED if lo < w.alpha < hi else Verdict.VIOLATED
        return ApReport(p, sup, len(balls), verdict, (lo, hi), ratios)
    verdict = Verdict.VIOLATED if not math.isfinite(sup) else Verdict.INCONCLUSIVE
    return ApReport(p, sup, len(balls), verdict, None, ratios)


# ---------------------------------------------------------------------------
# power integrals and integrability conditions
# ---------------------------------------------------------------------------


def power_integral(w: Weight, power: float, region: Domain) -> IntegralVerdict:
    """Verdict and value for ``∫_region w(x)**power dx``.

    A polynomial weight follows the exact rule first
    (:func:`_diverges_at_origin`); otherwise it is reduced as follows.

    On a ball, to :func:`_ball_power_integrals`: a finite verdict with an
    empty trace, as the exact rule's verdicts have, or
    :class:`EvaluationError` when the value is too large for a float.

    On a cusp, to reference coordinates, where ``|x|**beta * G(t) =
    t**(beta+gamma-1) * (|x|/t)**beta`` and ``|x|/t`` stays between 1 and
    ``sqrt(n)``: the singularity is the one power of ``t``.
    """
    if _diverges_at_origin(w, power, region):
        return IntegralVerdict(math.inf, Verdict.DIVERGENT, ())
    if w.is_polynomial and isinstance(region, Ball):
        beta = w.alpha * power
        (value,) = _ball_power_integrals(w.dim, (beta,), region)
        if not math.isfinite(value):
            raise EvaluationError(f"the ball integral of |x|**{beta:g} is not a finite float")
        return IntegralVerdict(value, Verdict.FINITE, ())
    if w.is_polynomial and isinstance(region, CuspDomain):
        n = region.dim
        beta = w.alpha * power
        expo = beta + region.gamma - 1.0
        slopes = np.asarray(region.exponents) - 1.0

        def h(ref: np.ndarray) -> np.ndarray:
            t = ref[:, -1]
            across = ref[:, :-1] * t[:, None] ** slopes  # x_i / t
            ratio = np.sqrt(1.0 + np.sum(across**2, axis=1))  # |x| / t
            return t**expo * ratio**beta

        return integrate(h, Box((0.0,) * n, (1.0,) * n, singular_axis=n - 1))

    def f(pts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return w(pts) ** power

    return integrate(f, region)


def theorem10_condition(w: Weight, domain: Domain) -> IntegralVerdict:
    """Finiteness verdict for ``∫ w**(-n/2)``, the solvability hypothesis of
    the weighted Dirichlet problem."""
    return power_integral(w, -w.dim / 2.0, domain)
