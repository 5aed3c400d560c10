"""Empirical sharpness probes for the embedding thresholds.

A trial family concentrates at the cusp tip at scale ``eps``; the ratio
``||u||_{L_s(D,w)} / ||u||_{W^1_p(D,w)}`` stays bounded as ``eps`` shrinks
exactly when ``s`` is below the admissibility ceiling.  The tip bump's ratio
behaves like ``eps**kappa``, ``kappa = (alpha+gamma)/s - (alpha+gamma)/p + 1``,
which is zero exactly at the Thm 6 ceiling, so the verdict is the sign of the
exponent fitted over the last two decades of scales (:class:`ProbeReport`).

Every norm integral of a probe, ``(2 + n)`` per scale (the ``L_s`` and
``L_p`` powers of the value and the ``L_p`` power of each gradient
component), is decided on one refinement ladder
(:func:`cusplab.geometry.integrate_all`): each level's grid is built once,
the weight and the radii ``|x|`` of its points are computed once per level,
the radii shared by every scale's radial trial function, each scale's value
and gradient once per level, and each integral still stops by its own
trace, so the ratios are the same bits as when every integral runs its own
ladder.

Only the ``L_s`` powers depend on ``s``.  The other ``(1 + n)`` integrals
of each scale, the ``W^1_p(D,w)`` denominator, are kept for the most recent
trial family (its kind, ``beta`` and scales, with ``p``, the weight, the
domain and the norm schedule and tolerance), so a probe of the same family
at another exponent integrates only its ``L_s`` powers and reads the rest
from that one-entry memo, with the same bits as a probe that starts cold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .exponents import EmbeddingQuery
from .geometry import (
    SLOPE_BAND,
    CuspDomain,
    EvaluationError,
    IntegralVerdict,
    RefinementSchedule,
    Verdict,
    integrate_all,
    radius,
    scaling_exponent,
)
from .weights import Weight

__all__ = [
    "ProbeReport",
    "TrialFamily",
    "TrialFunction",
    "embedding_ratio",
    "probe_scales",
    "run_probe",
]


@dataclass(frozen=True)
class TrialFunction:
    """Radial Lipschitz trial function vanishing outside the domain, with
    explicit gradient components.

    Both families depend on ``|x|`` alone, so ``value`` takes the radii
    ``r`` (N,) of the points and ``grad`` the points (N, n) and their radii;
    the probe computes ``r`` once per quadrature level and shares it across
    every scale.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (N, n) components


def _tip_bump(eps: float) -> TrialFunction:
    def value(r: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - r / eps)

    def grad(pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        # an infinite denominator off the support and at the tip makes the
        # quotient ±0 there, with no mask on the (N, n) division
        den = r * eps
        den[(r >= eps) | (r == 0.0)] = np.inf
        return pts / -den[:, None]  # -pts / den, without negating an (N, n) array

    return TrialFunction(value, grad)


#: radius outside which a power spike vanishes
_SPIKE_OUTER = 0.5


def _power_spike(beta: float, eps: float) -> TrialFunction:
    # a cap past the float range is inf, so the spike is uncapped
    with np.errstate(over="ignore"):
        cap = np.float64(eps) ** -beta

    def value(r: np.ndarray) -> np.ndarray:
        v = np.minimum(np.maximum(r, 1e-300) ** -beta, cap) - _SPIKE_OUTER**-beta
        return np.maximum(0.0, v)

    def grad(pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        live = (r > eps) & (r < _SPIKE_OUTER)
        g = np.zeros_like(pts)
        g[live] = -beta * r[live, None] ** (-beta - 2.0) * pts[live]
        return g

    return TrialFunction(value, grad)


@dataclass(frozen=True)
class TrialFamily:
    """Family of admissible trial functions on a weighted cusp domain.

    ``kind`` is ``"tip_bump"`` (cone of height 1 and radius eps at the tip)
    or ``"power_spike"`` (truncated radial power with exponent ``beta``);
    any other kind, or a power spike without ``beta``, raises ValueError.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("tip_bump", "power_spike"):
            raise ValueError(f"unknown trial family kind {self.kind!r}")
        if self.kind == "power_spike" and self.beta is None:
            raise ValueError("power_spike needs a beta exponent")

    def member(self, eps: float) -> TrialFunction:
        if self.kind == "tip_bump":
            return _tip_bump(eps)
        return _power_spike(self.beta, eps)


_NORM_SCHEDULE = RefinementSchedule(
    start_decades=2.0,
    max_decades=40.0,
    panels_per_decade=32,
)
_NORM_TOL = 1e-4


#: the outcomes of the most recent keyed family, ``(key, outcomes)``; its
#: ``L_s`` slots are None, the rest its ``W^1_p`` denominator integrals
_denominators: tuple[tuple, list[IntegralVerdict | EvaluationError | None]] | None = None


def _ratios(
    members: Sequence[TrialFunction],
    p: float,
    s: float,
    weight: Weight,
    domain: CuspDomain,
    family: tuple | None = None,
) -> Iterator[float]:
    """The embedding ratio of each trial function in turn, from one
    refinement ladder shared by all ``len(members) * (2 + n)`` norm integrals.

    Integrand ``k * (2 + n) + j`` belongs to ``members[k]``: ``j = 0`` is the
    ``L_s`` power, ``j = 1`` the ``L_p`` power and ``j = 2 + a`` the ``L_p``
    power of gradient component ``a``.  At each level the weight and the
    radii ``|x|`` of the points are computed once, the radii shared by every
    member, and each member's value and gradient once, freed before the next
    member's.  A norm that fails to stabilize raises ArithmeticError, and one
    that cannot be evaluated its EvaluationError, when its member's turn
    comes, so the ratios of earlier members are yielded first.

    ``family`` is a key that names the members (``run_probe`` passes the
    trial family and its scales); with it, the outcomes of the ``j >= 1``
    integrals, which do not depend on ``s``, are kept together with ``p``,
    the weight, the domain and the norm schedule and tolerance.  The next
    call with that same key integrates only the ``L_s`` powers on the
    ladder.  Each integrand's outcome is the one it gets on a ladder of its
    own, whatever else shares the ladder (:func:`integrate_all`), so the
    ratios are the same bits either way.  Without a key nothing is kept.
    """
    global _denominators
    per = 2 + domain.dim
    key = None if family is None else (family, p, weight, domain, _NORM_SCHEDULE, _NORM_TOL)
    hit = key is not None and _denominators is not None and _denominators[0] == key
    # the integrands on this ladder, by their index k * (2 + n) + j
    todo = range(0, len(members) * per, per if hit else 1)

    def evaluate(points: np.ndarray, active: list[int]) -> Iterator[np.ndarray]:
        w, r = weight(points), radius(points)
        for k, norms in itertools.groupby((todo[i] for i in active), key=lambda i: i // per):
            u, v, g = members[k], None, None
            for i in norms:
                j = i % per
                if j < 2:
                    if v is None:
                        v = u.value(r)
                    yield np.abs(v) ** (s if j == 0 else p) * w
                else:
                    if g is None:
                        v, g = None, u.grad(points, r)  # no value power follows
                    yield np.abs(g[:, j - 2]) ** p * w

    with np.errstate(over="ignore"):  # fixed_grid_sum judges an infinite power
        outcomes = integrate_all(evaluate, len(todo), domain, _NORM_SCHEDULE, _NORM_TOL)
    if hit:
        verdicts = list(_denominators[1])
        verdicts[::per] = outcomes
    else:
        verdicts = outcomes
        if key is not None:
            # a kept error holds no traceback, and with it no level's grid
            kept = [
                v.with_traceback(None) if isinstance(v, EvaluationError) else v for v in verdicts
            ]
            kept[::per] = [None] * len(members)
            _denominators = (key, kept)

    def decided(i: int) -> IntegralVerdict:
        if isinstance(verdicts[i], EvaluationError):
            # raised afresh, so a kept error's traceback does not grow per probe
            raise verdicts[i].with_traceback(None)
        return verdicts[i]

    for k in range(len(members)):
        num, val = decided(k * per), decided(k * per + 1)
        if num.verdict is not Verdict.FINITE or val.verdict is not Verdict.FINITE:
            raise ArithmeticError("trial-function norm did not stabilize")
        grad_norms = []
        for axis in range(domain.dim):
            gv = decided(k * per + 2 + axis)
            if gv.verdict is not Verdict.FINITE:
                raise ArithmeticError("trial-function gradient norm did not stabilize")
            grad_norms.append(gv.value ** (1.0 / p))
        denom = val.value ** (1.0 / p) + sum(grad_norms)
        if denom <= 0.0:
            raise ValueError("trial function is identically zero on the domain")
        yield num.value ** (1.0 / s) / denom


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
    This is the one-scale case of the probe's shared refinement ladder.
    """
    return next(_ratios([u], p, s, weight, domain))


@dataclass(frozen=True)
class ProbeReport:
    """Ratio trace over the shrinking-scale schedule and the verdict.

    ``kappa_fit`` is the slope of ``log(ratio)`` against ``log(eps)`` over
    the last two decades (at least two scales): ``blow_up`` below
    ``-SLOPE_BAND``, ``bounded`` above it, ``inconclusive`` between, and nan
    with the ratios found so far when a norm fails.
    """

    s: float
    ratios: tuple[tuple[float, float], ...]
    verdict: Verdict
    kappa_fit: float

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "ratios": [[e, r] for e, r in self.ratios],
            "verdict": self.verdict.value,
            "kappa_fit": self.kappa_fit,
        }


def probe_scales(epsilons: Sequence[float]) -> list[float]:
    """The scales of a probe, largest first; raises ValueError unless there
    are at least three, all positive and finite, spanning at least four
    decades."""
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ValueError("scales must be positive and finite")
    if len(epsilons) < 3:
        raise ValueError("need at least three scales")
    span = math.log10(epsilons[0] / epsilons[-1])
    if span < 4.0 - 1e-9:
        raise ValueError("schedule must span at least four decades")
    return epsilons


def run_probe(
    query: EmbeddingQuery,
    s: float,
    family_kind: str = "tip_bump",
    epsilons: Sequence[float] | None = None,
    beta: float | None = None,
) -> ProbeReport:
    """Probe the embedding at exponent ``s`` with a shrinking trial family.

    The default schedule spans four decades (1e-1 down to 1e-5, two points
    per decade).  Any norm that fails yields an inconclusive verdict.
    """
    epsilons = probe_scales(np.geomspace(1e-1, 1e-5, 9) if epsilons is None else epsilons)
    n = query.n
    domain = CuspDomain.isotropic(n, query.gamma)
    weight = Weight.polynomial(float(query.alpha), n)
    family = TrialFamily(family_kind, beta=beta)

    members = [family.member(eps) for eps in epsilons]
    scale_ratios = _ratios(members, float(query.p), s, weight, domain, (family, tuple(epsilons)))

    ratios = []
    try:
        for eps, ratio in zip(epsilons, scale_ratios):
            ratios.append((eps, ratio))
    except (ArithmeticError, EvaluationError):
        return ProbeReport(s, tuple(ratios), Verdict.INCONCLUSIVE, math.nan)

    eps, values = np.array(ratios).T
    fit = max(2, np.count_nonzero(eps <= 100.0 * (1 + 1e-9) * eps[-1]))
    kappa = scaling_exponent(eps[-fit:], values[-fit:])
    if kappa < -SLOPE_BAND:
        verdict = Verdict.BLOW_UP
    elif kappa > SLOPE_BAND:
        verdict = Verdict.BOUNDED
    else:
        verdict = Verdict.INCONCLUSIVE
    return ProbeReport(s, tuple(ratios), verdict, kappa)
