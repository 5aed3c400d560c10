"""Empirical sharpness probes for the embedding thresholds.

A trial family concentrates at the cusp tip at scale ``eps``; the ratio
``||u||_{L_s(D,w)} / ||u||_{W^1_p(D,w)}`` stays bounded as ``eps`` shrinks
exactly when ``s`` is below the admissibility ceiling.  Near the ceiling the
attainable drift is slow (the ratio moves like a small power of ``eps``), so
the verdict margins are calibrated to the growth across the last two decades
of the schedule plus the total growth across the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exponents import EmbeddingQuery
from .geometry import CuspDomain, RefinementSchedule, Verdict, integrate
from .weights import Weight

__all__ = [
    "ProbeReport",
    "TrialFamily",
    "TrialFunction",
    "embedding_ratio",
    "run_probe",
]


@dataclass(frozen=True)
class TrialFunction:
    """Lipschitz trial function vanishing outside the domain, with explicit
    gradient components."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]  # (N, n) components


def _tip_bump(eps: float) -> TrialFunction:
    def value(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return np.maximum(0.0, 1.0 - r / eps)

    def grad(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        inside = (r < eps) & (r > 0.0)
        g = np.zeros_like(pts)
        g[inside] = -pts[inside] / (r[inside, None] * eps)
        return g

    return TrialFunction(value, grad)


#: radius outside which a power spike vanishes
_SPIKE_OUTER = 0.5


def _power_spike(beta: float, eps: float) -> TrialFunction:
    cap = eps**-beta

    def value(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        v = np.minimum(np.maximum(r, 1e-300) ** -beta, cap) - _SPIKE_OUTER**-beta
        return np.maximum(0.0, v)

    def grad(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        live = (r > eps) & (r < _SPIKE_OUTER)
        g = np.zeros_like(pts)
        g[live] = -beta * r[live, None] ** (-beta - 2.0) * pts[live]
        return g

    return TrialFunction(value, grad)


@dataclass(frozen=True)
class TrialFamily:
    """Family of admissible trial functions on a weighted cusp domain.

    ``kind`` is ``"tip_bump"`` (cone of height 1 and radius eps at the tip)
    or ``"power_spike"`` (truncated radial power with exponent ``beta``).
    """

    kind: str
    beta: float | None = None

    def member(self, eps: float) -> TrialFunction:
        if self.kind == "tip_bump":
            return _tip_bump(eps)
        if self.kind == "power_spike":
            if self.beta is None:
                raise ValueError("power_spike needs a beta exponent")
            return _power_spike(self.beta, eps)
        raise ValueError(f"unknown trial family kind {self.kind!r}")


_NORM_SCHEDULE = RefinementSchedule(
    start_decades=2.0,
    max_decades=40.0,
    panels_per_decade=32,
    uniform_start=16,
)
_NORM_TOL = 1e-4


def embedding_ratio(
    u: TrialFunction,
    p: float,
    s: float,
    weight: Weight,
    domain: CuspDomain,
) -> float:
    """``||u||_{L_s(D,w)} / ||u||_{W^1_p(D,w)}`` by graded quadrature.

    The Sobolev norm is the value norm plus the sum of the first-derivative
    component norms; both norms are 1-homogeneous, so the ratio is invariant
    under scaling of ``u``.  Identically-zero trial functions are rejected.
    """

    def p_power(pts):
        return np.abs(u.value(pts)) ** p * weight(pts)

    def s_power(pts):
        return np.abs(u.value(pts)) ** s * weight(pts)

    num = integrate(s_power, domain, schedule=_NORM_SCHEDULE, tol=_NORM_TOL)
    val = integrate(p_power, domain, schedule=_NORM_SCHEDULE, tol=_NORM_TOL)
    if num.verdict is not Verdict.FINITE or val.verdict is not Verdict.FINITE:
        raise ArithmeticError("trial-function norm did not stabilize")
    grad_norms = []
    for axis in range(domain.dim):

        def g_power(pts, axis=axis):
            return np.abs(u.grad(pts)[:, axis]) ** p * weight(pts)

        gv = integrate(g_power, domain, schedule=_NORM_SCHEDULE, tol=_NORM_TOL)
        if gv.verdict is not Verdict.FINITE:
            raise ArithmeticError("trial-function gradient norm did not stabilize")
        grad_norms.append(gv.value ** (1.0 / p))
    denom = val.value ** (1.0 / p) + sum(grad_norms)
    if denom <= 0.0:
        raise ValueError("trial function is identically zero on the domain")
    return num.value ** (1.0 / s) / denom


@dataclass(frozen=True)
class ProbeReport:
    """Ratio trace over the shrinking-scale schedule and the verdict.

    ``blow_up`` needs the ratio to climb by the growth factor across the
    last two decades; ``bounded`` needs the increase across the last two
    decades *and* across the whole schedule to stay within the variation
    margin (a decaying trace is bounded evidence, not ambiguity).
    """

    s: float
    ratios: tuple[tuple[float, float], ...]
    verdict: Verdict
    growth_two_decades: float
    growth_total: float

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "ratios": [[e, r] for e, r in self.ratios],
            "verdict": self.verdict.value,
            "growth_two_decades": self.growth_two_decades,
            "growth_total": self.growth_total,
        }


def run_probe(
    query: EmbeddingQuery,
    s: float,
    family_kind: str = "tip_bump",
    epsilons: Sequence[float] | None = None,
    growth: float = 1.3,
    variation: float = 0.2,
    beta: float | None = None,
) -> ProbeReport:
    """Probe the embedding at exponent ``s`` with a shrinking trial family.

    The default schedule spans four decades (1e-1 down to 1e-5, two points
    per decade).  Any quadrature failure yields an inconclusive verdict.
    """
    if epsilons is None:
        epsilons = np.geomspace(1e-1, 1e-5, 9)
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    if len(epsilons) < 3:
        raise ValueError("need at least three scales")
    span = math.log10(epsilons[0] / epsilons[-1])
    if span < 4.0 - 1e-9:
        raise ValueError("schedule must span at least four decades")
    n = query.n
    domain = CuspDomain.isotropic(n, query.gamma)
    weight = Weight.polynomial(float(query.alpha), n)
    family = TrialFamily(family_kind, beta=beta)

    ratios = []
    try:
        for eps in epsilons:
            ratios.append((eps, embedding_ratio(family.member(eps), float(query.p), s, weight, domain)))
    except ArithmeticError:
        return ProbeReport(s, tuple(ratios), Verdict.INCONCLUSIVE, math.nan, math.nan)

    values = [r for _, r in ratios]
    # index of the entry two decades above the smallest scale
    target = epsilons[-1] * 100.0
    idx = min(range(len(epsilons)), key=lambda i: abs(math.log10(epsilons[i] / target)))
    g2 = values[-1] / values[idx]
    gtot = values[-1] / values[0]
    if g2 >= growth:
        verdict = Verdict.BLOW_UP
    elif g2 <= 1.0 + variation and gtot <= 1.0 + variation:
        verdict = Verdict.BOUNDED
    else:
        verdict = Verdict.INCONCLUSIVE
    return ProbeReport(s, tuple(ratios), verdict, g2, gtot)
