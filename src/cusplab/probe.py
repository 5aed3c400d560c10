"""Empirical sharpness probes for the embedding thresholds.

A trial family concentrates at the cusp tip at scale ``eps``; the ratio
``||u||_{L_s(D,w)} / ||u||_{W^1_p(D,w)}`` stays bounded as ``eps`` shrinks
exactly when ``s`` is below the admissibility ceiling.  The tip bump's ratio
behaves like ``eps**kappa``, ``kappa = (alpha+gamma)/s - (alpha+gamma)/p + 1``,
which is zero exactly at the Thm 6 ceiling, so the verdict is the sign of the
exponent fitted over the last two decades of scales (:class:`ProbeReport`).

Every norm integral of a scale, ``(2 + n)`` of them (the ``L_s`` and ``L_p``
powers of the value and the ``L_p`` power of each gradient component), is
finite by exponent arithmetic, so each is one sum over one fixed Gauss rule
fitted to the trial function's support (Golub–Welsch, *Math. Comp.* 23,
1969), with no refinement and no verdict of its own.  Every rule comes
from :func:`cusplab.geometry.gauss_jacobi`, which builds each once per
process, with :data:`cusplab.geometry.NODES` nodes.  In reference
coordinates ``x_n = t``, ``x_i = u_i * t**gamma_i`` and with ``rho = |x|/t``:

- each transverse axis takes Gauss–Legendre nodes ``u``, but the one
  whose gradient component is integrated takes the Jacobi weight ``u**p``;
- the support edge ``t*(u)``, where ``t * rho(t, u)`` reaches a break
  radius of the trial function, is solved at each cross node;
- ``t = t* * tau`` takes Gauss–Jacobi nodes for the weight
  ``tau**(alpha+gamma-1) * (1-tau)**k``, with ``k = s`` for ``L_s``,
  ``k = p`` for the ``L_p`` value and ``k = 0`` for gradients (the value
  vanishes like ``(1-tau)`` at the edge);
- a piece between two break radii (the power spike's cap ``eps`` and its
  outer radius ``1/2``) is mapped by ``log t`` and split into Gauss–Legendre
  panels whose widths double from a first one at most ``_FIRST_PANEL``
  wide, so that a steep ``r**(-beta*s)`` just above ``eps`` is resolved;
  only the top panel takes ``(1-x)**k``.

So what is left in each integrand is smooth, and the ratios are those of
the exact integrals to about 1e-13.

The scales of a family are probed in passes of at most ``NODES**3`` nodes
an integral, the grid of one ``n = 3`` scale: all nine scales of an
``n = 2`` tip bump in one.  A pass solves every support edge in one Newton
iteration, and builds each integral's nodes, weights, radii and weight
values, the last from the radii, once for all its scales, each scale's rows
one contiguous slice.
Each scale's values are taken, and its slices summed, in its turn, so its
ratio has the bits it has when probed alone, and a norm that cannot be
evaluated stops the probe before any later scale's trial function runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .exponents import EmbeddingQuery, ValidityError
from .geometry import (
    SLOPE_BAND,
    CuspDomain,
    EvaluationError,
    QuadratureGrid,
    Verdict,
    _tensor_cells,
    fixed_grid_sum,
    gauss_jacobi,
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
    """Radial Lipschitz trial function, with explicit gradient components.

    Both families depend on ``|x|`` alone, so ``value`` takes the radii
    ``r`` (N,) of the points and ``grad`` the points (N, n) and their radii.
    ``breaks`` are the increasing radii where the function is not smooth,
    the last the outer radius of its support, where its value vanishes.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (N, n) components
    breaks: tuple[float, ...]


def _tip_bump(eps: float) -> TrialFunction:
    def value(r: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - r / eps)

    def grad(pts: np.ndarray, r: np.ndarray) -> np.ndarray:
        # an infinite denominator off the support and at the tip makes the
        # quotient ±0 there, with no mask on the (N, n) division
        den = r * eps
        den[(r >= eps) | (r == 0.0)] = np.inf
        return pts / -den[:, None]  # -pts / den, without negating an (N, n) array

    return TrialFunction(value, grad, (eps,))


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

    return TrialFunction(value, grad, (min(eps, _SPIKE_OUTER), _SPIKE_OUTER))


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


#: log-width, at most, of the first panel above an inner break: 16 nodes sum
#: a power ``t**-q`` over it to 3e-14 for any ``q`` up to 2500
_FIRST_PANEL = 0.01


def _support_edges(breaks: np.ndarray, cross: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The ``t`` at which ``|x(t, u)| = t * rho(t, u)`` reaches each radius
    of ``breaks`` at each cross node ``u`` (the last axis of ``cross``
    holds its coordinates), or 1 where it passes the cusp's top; the shape
    is ``breaks.shape + cross.shape[:-1]``.

    ``|x(t, u)|**2 = t**2 + sum u_i**2 t**(2 gamma_i)`` is convex and
    increasing in ``t`` and at least ``b**2`` at ``t = b``, so Newton's
    method on it from ``t = b`` falls to the edge without overshooting it,
    on any cusp and at any scale.  An edge that has stopped moving stays
    where it is, so every (radius, node) pair takes the steps it would take
    alone, and one pass solves them all.
    """
    b = breaks.reshape(breaks.shape + (1,) * (cross.ndim - 1))
    t = np.broadcast_to(b, breaks.shape + cross.shape[:-1]).copy()
    squares = cross * cross
    for _ in range(64):
        # keep this form of the power: numpy takes a power 2 as a square only
        # when its exponent is one value broadcast along the loop (n = 2),
        # so a loop along t instead would move the last bits at n = 3
        widths = squares * t[..., None] ** (2.0 * exponents)  # x_i**2
        slope = 2.0 * t + 2.0 * (exponents * widths).sum(axis=-1) / t  # d|x|**2/dt
        step = (t * t + widths.sum(axis=-1) - b * b) / slope
        nxt = np.minimum(t, t - step)
        if np.array_equal(nxt, t):
            break
        t = nxt
    return np.minimum(t, 1.0)


def _panel_count(span: float) -> int:
    """Log panels, widths doubling from the first, over a piece ``span`` wide
    in ``log t``, so that the first is at most ``_FIRST_PANEL`` wide."""
    return max(1, math.ceil(math.log2(span / _FIRST_PANEL + 1.0)))


def _passes(sizes: Sequence[int], cap: int) -> Iterator[slice]:
    """Consecutive runs of members whose grids hold at most ``cap`` nodes
    together, or one member whose grid alone holds more."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total + size > cap and i > start:
            yield slice(start, i)
            start, total = i, 0
        total += size
    yield slice(start, len(sizes))


def _ratios(
    members: Sequence[TrialFunction],
    p: float,
    s: float,
    weight: Weight,
    domain: CuspDomain,
) -> Iterator[float]:
    """The embedding ratio of each trial function in turn, its ``2 + n``
    norm integrals each one sum on a fixed rule fitted to its support.

    Integral ``j = 0`` is the ``L_s`` power, ``j = 1`` the ``L_p`` power and
    ``j = 2 + a`` the ``L_p`` power of gradient component ``a``.  Near the
    tip each integrand, with the cross-section, is ``t**(alpha+gamma-1+e)``
    times a smooth factor, ``e = 0`` but ``p (gamma_a - 1)`` for a
    transverse component ``a``, whose ``|x_a|**p`` also holds ``u_a**p``;
    both powers go into the Gauss weights, built once for all members.

    Consecutive members with as many break radii share one Newton pass for
    their support edges and are taken in passes of at most ``NODES**3``
    nodes an integral (module docstring).  A member's values and sums wait
    for its turn, so a norm that cannot be evaluated raises its
    EvaluationError after the ratios of earlier members, and no later
    member is evaluated.
    """
    n, c = domain.dim, weight.alpha + domain.gamma
    if weight.dim != n:  # the weight is taken from radii, which do not show it
        raise ValueError(f"points have dimension {n}, expected {weight.dim}")
    exponents = np.asarray(domain.exponents)

    def cross_rule(axis: int | None) -> tuple[np.ndarray, np.ndarray]:
        # the weight u**p on ``axis`` comes out of the weights again, so the
        # sum takes the integrand as it is
        u, w = gauss_jacobi(0.0, p + 1.0)
        return _tensor_cells([(u, w / u**p) if a == axis else gauss_jacobi() for a in range(n - 1)])

    # the cross rules: Gauss–Legendre, then u**p on each transverse axis in turn
    crosses = [cross_rule(None)] + [cross_rule(a) for a in range(n - 1)]
    cross_nodes = np.stack([u for u, _ in crosses])  # (rules, C, n - 1)
    # (cross rule, k, e) of each integral j
    specs = [(0, s, 0.0), (0, p, 0.0)]
    specs += [(a + 1, 0.0, p * (exponents[a] - 1.0)) for a in range(n - 1)]
    specs.append((0, 0.0, 0.0))
    nodes = len(gauss_jacobi()[0])  # NODES, as the rules have it

    def log_pieces(t, w, tops, spans, panels, k):
        """A member's first-piece nodes and weights (C, NODES), with the
        pieces between its later break radii appended along the t axis."""
        ts, ws = [t], [w]
        for i in range(1, len(tops)):
            # panels in log t whose widths double from the bottom one; only
            # the top panel of the top piece is weighted by (1-y)**k
            low, span, count = tops[i - 1][:, None], spans[i - 1][:, None], panels[i - 1]
            k_top = k if i == len(tops) - 1 else 0.0
            edges = (2.0 ** np.arange(count + 1) - 1.0) / (2.0**count - 1.0)
            for m in range(count):
                k_m = k_top if m == count - 1 else 0.0
                y, w = gauss_jacobi(k_m)
                width = span * (edges[m + 1] - edges[m])
                t = low * np.exp(span * edges[m] + width * y)
                ts.append(t)
                ws.append(w * t**domain.gamma * width / (1.0 - y) ** k_m)
        return np.concatenate(ts, axis=1)[None], np.concatenate(ws, axis=1)[None]

    def pass_grid(tops, spans, panels, v, k, e):
        """The nodes (M, n) and weights (M,) of integral (v, k, e) over the
        members of a pass, whose edges at cross rule v are ``tops`` (S, B, C),
        and the bounds of each member's rows."""
        cross, cross_w = crosses[v]
        k_top = k if tops.shape[1] == 1 else 0.0
        tau, w = gauss_jacobi(k_top, c + e)
        top = tops[:, 0, :, None]
        t = top * tau
        w = w * top**domain.gamma * tau ** (domain.gamma - c - e) / (1.0 - tau) ** k_top
        # blocks (members, C, T) of members with as many t nodes
        if tops.shape[1] == 1:
            blocks = [(t, w)]
        else:
            blocks = [log_pieces(*member, k) for member in zip(t, w, tops, spans, panels)]
        points, weights, sizes = [], [], [0]
        for t, w in blocks:
            x = np.empty(t.shape + (n,))
            x[..., :-1] = cross[:, None, :] * t[..., None] ** exponents  # as in _support_edges
            x[..., -1] = t
            points.append(x.reshape(-1, n))
            weights.append((w * cross_w[:, None]).ravel())
            sizes += [t[0].size] * len(t)
        return np.concatenate(points), np.concatenate(weights), np.cumsum(sizes)

    def integrand(u: TrialFunction, j: int, r: np.ndarray, w: np.ndarray) -> Callable:
        def f(points: np.ndarray) -> np.ndarray:
            if j < 2:
                return np.abs(u.value(r)) ** (s if j == 0 else p) * w
            return np.abs(u.grad(points, r)[:, j - 2]) ** p * w

        return f

    for _, run in itertools.groupby(members, key=lambda u: len(u.breaks)):
        run = list(run)
        # the edge of each break radius at each cross rule's nodes, (S, B, rules, C),
        # and the log panels of each piece above the first, (S, B - 1, rules)
        edges = _support_edges(np.array([u.breaks for u in run], dtype=float), cross_nodes, exponents)
        spans = np.log(edges[:, 1:] / edges[:, :-1])
        panels = np.vectorize(_panel_count, otypes=[int])(spans.max(axis=-1))
        # the nodes of each member's largest grid
        grid_nodes = (1 + panels.sum(axis=1)).max(axis=1) * nodes * cross_nodes.shape[1]
        for chunk in _passes(grid_nodes.tolist(), nodes**3):
            grids = []
            with np.errstate(over="ignore"):
                for v, k, e in specs:
                    points, weights, bounds = pass_grid(
                        edges[chunk, :, v], spans[chunk, :, v], panels[chunk, :, v], v, k, e
                    )
                    r = radius(points)
                    grids.append((points, weights, r, weight.at_radii(r), bounds))
            for i, u in enumerate(run[chunk]):
                norms = []
                with np.errstate(over="ignore"):  # fixed_grid_sum judges an infinite power
                    for j, (points, weights, r, w, bounds) in enumerate(grids):
                        rows = slice(bounds[i], bounds[i + 1])
                        grid = QuadratureGrid(domain, points[rows], weights[rows])
                        norms.append(fixed_grid_sum(integrand(u, j, r[rows], w[rows]), grid))
                denom = norms[1] ** (1.0 / p) + sum(g ** (1.0 / p) for g in norms[2:])
                if denom <= 0.0:
                    raise ValueError("trial function is identically zero on the domain")
                yield norms[0] ** (1.0 / s) / denom


def embedding_ratio(
    u: TrialFunction,
    p: float,
    s: float,
    weight: Weight,
    domain: CuspDomain,
) -> float:
    """``||u||_{L_s(D,w)} / ||u||_{W^1_p(D,w)}`` on the probe's fixed rule.

    The Sobolev norm is the value norm plus the sum of the first-derivative
    component norms; both norms are 1-homogeneous, so the ratio is invariant
    under scaling of ``u``.  Identically-zero trial functions are rejected.
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
    are at least three, all in ``(0, 1]``, spanning at least four decades.
    A scale above 1 would have a support that passes the cusp's top
    ``t = 1``, where the fitted rule converges only algebraically."""
    epsilons = sorted((float(e) for e in epsilons), reverse=True)
    if not all(0.0 < e <= 1.0 for e in epsilons):
        raise ValueError("scales must lie in (0, 1]")
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
    Raises ValidityError unless ``s > 0``.
    """
    if not s > 0:
        raise ValidityError(f"s must be > 0, got {float(s):g}")
    epsilons = probe_scales(np.geomspace(1e-1, 1e-5, 9) if epsilons is None else epsilons)
    n = query.n
    domain = CuspDomain.isotropic(n, query.gamma)
    weight = Weight.polynomial(float(query.alpha), n)
    family = TrialFamily(family_kind, beta=beta)

    members = [family.member(eps) for eps in epsilons]
    scale_ratios = _ratios(members, float(query.p), s, weight, domain)

    ratios = []
    try:
        for eps, ratio in zip(epsilons, scale_ratios):
            ratios.append((eps, ratio))
    except EvaluationError:
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
