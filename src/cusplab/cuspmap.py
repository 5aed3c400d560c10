"""The explicit cusp homeomorphism, its closed-form Jacobian, quasiisometry
checks, and the two distortion integrals that control composition bounds.

The map sends the Lipschitz reference cusp ``H_1`` onto the power cusp
``H_g`` by scaling each transverse coordinate with the profile raised to a
power ``a`` and bending the axis coordinate to ``x_n**a``:

    (x_1, ..., x_n)  ->  (x_1 g_1(x_n)**a / x_n, ..., x_n**a),  0 < a <= 1.

Its Jacobian has the closed form ``a * x_n**(a-n) * G(x_n)**a`` and its
derivative norm blows up like ``x_n**(a-1)`` toward the tip, which is why the
map is not quasiisometric for ``a < 1`` but still induces bounded composition
operators in the mean-distortion sense.  Both distortion integrals reduce to
``∫_0^1 t**beta dt``, which is ``1/(beta+1)`` when ``beta > -1`` and diverges
otherwise: each verdict is that closed form, with no refinement ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .geometry import (
    SLOPE_BAND,
    CuspDomain,
    IntegralVerdict,
    Verdict,
    radius,
    scaling_exponent,
)

__all__ = [
    "CuspMap",
    "DistortionReport",
    "QuasiisometryReport",
    "check_quasiisometry",
    "distortion_Ia",
    "distortion_report",
    "ia_exponent_q_threshold",
    "ja_exponent_s_bound",
    "jacobian_Ja",
]


@dataclass(frozen=True)
class CuspMap:
    """Homeomorphism from the reference cusp ``H_1`` onto a power cusp.

    ``a = 1`` with all profile exponents equal to 1 is the identity.
    """

    target: CuspDomain
    a: float = 1.0

    def __post_init__(self):
        _check_bending(self.a)

    @property
    def dim(self) -> int:
        return self.target.dim

    # -- pointwise maps -----------------------------------------------------

    def _check_source(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, expected {self.dim}")
        return x

    def apply(self, x) -> np.ndarray:
        """Map points of ``H_1`` into the target cusp; rejects outside points."""
        single = np.asarray(x).ndim == 1
        pts = self._check_source(x)
        t = pts[:, -1]
        inside = (t > 0) & (t < 1) & np.all(pts[:, :-1] > 0, axis=1) & np.all(
            pts[:, :-1] < t[:, None], axis=1
        )
        if not np.all(inside):
            raise ValueError("point outside the reference cusp H_1")
        out = np.empty_like(pts)
        out[:, :-1] = pts[:, :-1] * self.target.profiles(t) ** self.a / t[:, None]
        out[:, -1] = t**self.a
        return out[0] if single else out

    # -- Jacobian -----------------------------------------------------------

    def jacobian(self, x) -> np.ndarray:
        """Closed-form Jacobian determinant ``a * t**(a-n) * G(t)**a``, t = x_n.

        Collapsed to a single power of ``t`` so the identity parameters give
        exactly 1 at every point.
        """
        single = np.asarray(x).ndim == 1
        pts = self._check_source(x)
        t = pts[:, -1]
        if np.any(t <= 0.0):
            raise ZeroDivisionError("Jacobian undefined at x_n = 0")
        n, a = self.dim, self.a
        expo = a - n + a * (self.target.gamma - 1.0)
        vals = a * t**expo
        return vals[0] if single else vals


# ---------------------------------------------------------------------------
# quasiisometry check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiisometryReport:
    """Sampled two-sided Lipschitz constant and its trend across scales.

    ``scale_trace`` holds one Q estimate per shrinking band next to the
    singular face; a geometric climb of the trace refutes quasiisometry.
    """

    q_estimate: float
    verdict: Verdict
    scale_trace: tuple[float, ...]
    jacobian_consistent: bool | None = None

    def to_dict(self) -> dict:
        return {
            "q_estimate": self.q_estimate,
            "verdict": self.verdict.value,
            "scale_trace": list(self.scale_trace),
            "jacobian_consistent": self.jacobian_consistent,
        }


def _sample_h1_band(rng, n: int, t_lo: float, t_hi: float, count: int) -> np.ndarray:
    t = rng.uniform(t_lo, min(t_hi, 0.99), size=count)
    u = rng.uniform(0.05, 0.95, size=(count, n - 1))
    pts = np.empty((count, n))
    pts[:, :-1] = u * t[:, None]
    pts[:, -1] = t
    return pts


#: bands ``x_n in (4**-(k+1), 4**-k)`` sampled, k = 0, 1, ...
_QI_BANDS = 5
#: difference quotients sampled per band
_QI_PAIRS = 256


def check_quasiisometry(mapping, seed: int = 0) -> QuasiisometryReport:
    """Estimate difference quotients of a map of ``H_1`` on shrinking bands.

    ``mapping`` needs ``dim`` and a vectorized ``apply``; ``jacobian`` is
    used when available to cross-check ``Q**-n <= |J| <= Q**n``.  Bands are
    ``x_n in (4**-(k+1), 4**-k)``; the verdict is violated when the slope of
    the per-band Q estimates against the band scale ``4**-k`` (``a - 1`` for
    the cusp map) is below ``-SLOPE_BAND``, and satisfied otherwise.
    """
    n = mapping.dim
    rng = np.random.default_rng(seed)
    scales = 4.0 ** -np.arange(_QI_BANDS + 1.0)
    trace = []
    for t_hi, t_lo in zip(scales, scales[1:]):
        x = _sample_h1_band(rng, n, t_lo, t_hi, _QI_PAIRS)
        step = 1e-4 * t_lo
        direction = rng.normal(size=(_QI_PAIRS, n))
        direction /= radius(direction)[:, None]
        z = x + step * direction
        # nudge pairs back inside the open cusp
        z[:, -1] = np.clip(z[:, -1], t_lo * (1 + 1e-9), 1.0 - 1e-9)
        z[:, :-1] = np.clip(z[:, :-1], 1e-12, z[:, -1][:, None] * (1 - 1e-9))
        moved = mapping.apply(z) - mapping.apply(x)
        quot = radius(moved) / radius(z - x)
        q_band = max(float(np.max(quot)), 1.0 / float(np.min(quot)))
        trace.append(q_band)
    slope = scaling_exponent(scales[:-1], trace)
    verdict = Verdict.VIOLATED if slope < -SLOPE_BAND else Verdict.SATISFIED
    q = float(max(trace))
    jac_ok = None
    if hasattr(mapping, "jacobian") and verdict is Verdict.SATISFIED:
        x = _sample_h1_band(rng, n, 0.05, 0.95, _QI_PAIRS)
        jac = np.abs(mapping.jacobian(x))
        jac_ok = bool(
            np.all(jac <= q**n * (1 + 1e-6)) and np.all(jac >= q**-n * (1 - 1e-6))
        )
    return QuasiisometryReport(q, verdict, tuple(trace), jac_ok)


# ---------------------------------------------------------------------------
# distortion integrals
# ---------------------------------------------------------------------------


def _check_bending(a: float) -> None:
    if not (0.0 < a <= 1.0):
        raise ValueError("bending exponent a must lie in (0, 1]")


def ia_exponent_q_threshold(n: int, p: float, alpha: float, gamma: float, a: float) -> float:
    """q below which the mean-distortion integral is finite:
    ``n p / (a (alpha + gamma) + p - a p)``."""
    _check_bending(a)
    return n * p / (a * (alpha + gamma) + p - a * p)


def ja_exponent_s_bound(n: int, r: float, alpha: float, gamma: float, a: float) -> float:
    """s below which the weighted-Jacobian integral is finite:
    ``a (alpha + gamma) r / n``."""
    _check_bending(a)
    return a * (alpha + gamma) * r / n


def _cross_section_power(domain: CuspDomain, expo: float, k: float) -> IntegralVerdict:
    """Verdict for ``∫_0^1 t**expo * G(t)**k dt``.

    ``G(t)**k = t**((gamma-1) k)`` is folded into one power ``t**beta``,
    whose integral over (0, 1) is ``1/(beta+1)`` when ``beta > -1`` and
    diverges otherwise.  Both verdicts have an empty trace; a finite value
    is always a float, since ``beta > -1`` gives ``beta + 1 >= 2**-53``.
    """
    beta = expo + (domain.gamma - 1.0) * k
    if beta <= -1.0:
        return IntegralVerdict(math.inf, Verdict.DIVERGENT, ())
    return IntegralVerdict(1.0 / (beta + 1.0), Verdict.FINITE, ())


def distortion_Ia(
    p: float,
    q: float,
    a: float,
    alpha: float,
    domain: CuspDomain,
) -> IntegralVerdict:
    """Verdict for the reduced mean-distortion integral of the cusp map.

    The n-dimensional integrand collapses along cross-sections to
    ``t**((p(a-1) - a(alpha+1) + n) q/(p-q) + n - 1) * G(t)**(-a q/(p-q))``
    on ``(0, 1)``.
    """
    if not (1.0 <= q < p):
        raise ValueError("need 1 <= q < p")
    _check_bending(a)
    n = domain.dim
    qq = q / (p - q)
    expo = (p * (a - 1.0) - a * (alpha + 1.0) + n) * qq + n - 1.0
    return _cross_section_power(domain, expo, -a * qq)


def jacobian_Ja(
    r: float,
    s: float,
    a: float,
    alpha: float,
    domain: CuspDomain,
) -> IntegralVerdict:
    """Verdict for the reduced weighted-Jacobian integral
    ``t**((a(alpha+1) - n) r/(r-s) + n - 1) * G(t)**(a r/(r-s))`` on ``(0, 1)``."""
    if not (s < r):
        raise ValueError("need s < r")
    _check_bending(a)
    n = domain.dim
    rr = r / (r - s)
    expo = (a * (alpha + 1.0) - n) * rr + n - 1.0
    return _cross_section_power(domain, expo, a * rr)


@dataclass(frozen=True)
class DistortionReport:
    """Verdicts for both distortion integrals plus the analytic thresholds."""

    p: float
    q: float
    r: float
    s: float
    alpha: float
    a: float
    Ia: IntegralVerdict
    Ja: IntegralVerdict
    q_threshold: float
    s_bound: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "alpha": self.alpha,
            "a": self.a,
            "Ia": self.Ia.to_dict(),
            "Ja": self.Ja.to_dict(),
            "q_threshold": self.q_threshold,
            "s_bound": self.s_bound,
        }


def distortion_report(
    p: float,
    q: float,
    r: float,
    s: float,
    a: float,
    alpha: float,
    domain: CuspDomain,
) -> DistortionReport:
    """Run both distortion integrals for one exponent tuple."""
    n = domain.dim
    gamma = domain.gamma
    return DistortionReport(
        p=p,
        q=q,
        r=r,
        s=s,
        alpha=alpha,
        a=a,
        Ia=distortion_Ia(p, q, a, alpha, domain),
        Ja=jacobian_Ja(r, s, a, alpha, domain),
        q_threshold=ia_exponent_q_threshold(n, p, alpha, gamma, a),
        s_bound=ja_exponent_s_bound(n, r, alpha, gamma, a),
    )
