"""Closed-form exponent calculus for the weighted cusp embeddings.

Every admissibility threshold and transfer formula is evaluated exactly in
rational arithmetic whenever the inputs are rational (int or Fraction), so
algebraic identities between formulas can be tested with ``==``; float
inputs fall through to float arithmetic with an advertised 1e-12 tolerance.
``math.inf`` is a first-class threshold value (vanishing denominators are
legitimate).

Preconditions are not raised as exceptions: each report carries a
``validity`` list naming the violated conditions, and a threshold is only
meaningful when that list is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

from .geometry import IntegralVerdict
from .weights import Weight, power_integral

__all__ = [
    "EmbeddingQuery",
    "FLOAT_TOL",
    "ThresholdReport",
    "ValidityError",
    "Witness",
    "besov_threshold",
    "cor2_threshold",
    "cor4_bound",
    "lemma3_transfer",
    "select_witness",
    "thm3_Kw",
    "thm6_threshold",
    "thm8_threshold",
    "thm9_sstar",
    "witness_satisfies",
]

FLOAT_TOL = 1e-12

Number = Union[int, float, Fraction]


class ValidityError(ValueError):
    """A strict precondition of a transfer formula is violated."""


def _rat(x: Number) -> Number:
    """Keep rationals exact, leave floats as floats."""
    if isinstance(x, Rational):
        return Fraction(x)
    return float(x)


@dataclass(frozen=True)
class EmbeddingQuery:
    """One embedding question: dimension, integrability p, weight power
    alpha, aggregate cusp exponent gamma, derivative order m."""

    n: int
    p: Number
    alpha: Number
    gamma: Number
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", _rat(self.p))
        object.__setattr__(self, "alpha", _rat(self.alpha))
        object.__setattr__(self, "gamma", _rat(self.gamma))
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.m < 1:
            raise ValueError("derivative order must be >= 1")

    @property
    def sigma(self) -> Number:
        return (self.gamma - 1) / Fraction(self.n - 1)

    @classmethod
    def from_sigma(cls, n: int, p: Number, alpha: Number, sigma: Number, m: int = 1):
        gamma = _rat(sigma) * (n - 1) + 1
        return cls(n=n, p=p, alpha=alpha, gamma=gamma, m=m)

    def validity(self) -> list[str]:
        """Violated structural conditions (A_p window, p range, gamma >= n)."""
        bad = []
        if not self.p > 1:
            bad.append("p must exceed 1")
        if self.gamma < self.n:
            bad.append("gamma must be at least the dimension")
        if not (-self.n < self.alpha < self.n * (self.p - 1)):
            bad.append("alpha outside the polynomial A_p window (-n, n(p-1))")
        return bad

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": float(self.p),
            "alpha": float(self.alpha),
            "gamma": float(self.gamma),
            "m": self.m,
            "sigma": float(self.sigma),
        }


@dataclass(frozen=True)
class Witness:
    """Exponent triple certifying a compact embedding constructively."""

    a: float
    q: float
    r: float

    def to_dict(self) -> dict:
        return {"a": self.a, "q": self.q, "r": self.r}


@dataclass(frozen=True)
class ThresholdReport:
    """Admissibility ceiling ``s_max`` for one formula, with violated
    preconditions listed in ``validity`` (the value is meaningful only when
    that list is empty)."""

    s_max: Number
    formula_id: str
    validity: tuple[str, ...] = ()
    witness: Optional[Witness] = None

    @property
    def valid(self) -> bool:
        return not self.validity

    def to_dict(self) -> dict:
        s = self.s_max
        return {
            "s_max": "inf" if s == math.inf else float(s),
            "formula_id": self.formula_id,
            "validity": list(self.validity),
            "witness": self.witness.to_dict() if self.witness else None,
        }


# ---------------------------------------------------------------------------
# threshold formulas
# ---------------------------------------------------------------------------


def thm6_threshold(query: EmbeddingQuery) -> ThresholdReport:
    """Compactness ceiling ``(alpha + gamma) p / (alpha + gamma - p)`` for the
    weighted-to-weighted embedding on the power cusp."""
    bad = query.validity()
    if not query.p < query.alpha + query.gamma:
        bad = bad + ["p must be below alpha + gamma"]
    if bad:
        return ThresholdReport(math.inf, "Thm6", tuple(bad))
    s = (query.alpha + query.gamma) * query.p / (query.alpha + query.gamma - query.p)
    return ThresholdReport(s, "Thm6")


def thm8_threshold(query: EmbeddingQuery) -> ThresholdReport:
    """Ceiling ``(alpha + gamma) p / (gamma - p)`` for the unweighted-source
    embedding into the weighted Lebesgue space; needs ``1 < p < gamma``."""
    bad = []
    if not (1 < query.p < query.gamma):
        bad.append("p must lie in (1, gamma)")
    if query.gamma < query.n:
        bad.append("gamma must be at least the dimension")
    if not query.alpha + query.gamma > 0:
        bad.append("alpha + gamma must be positive")
    if bad:
        return ThresholdReport(math.inf, "Thm8", tuple(bad))
    s = (query.alpha + query.gamma) * query.p / (query.gamma - query.p)
    return ThresholdReport(s, "Thm8")


def cor2_threshold(query: EmbeddingQuery) -> ThresholdReport:
    """Thm6 ceiling written in the isotropic-singularity form
    ``(sigma(n-1) + 1 + alpha) p / (sigma(n-1) + alpha - (p-1))``."""
    sig = query.sigma
    n = query.n
    bad = query.validity()
    denom = sig * (n - 1) + query.alpha - (query.p - 1)
    if not denom > 0:
        bad = bad + ["p must be below alpha + gamma"]
    if bad:
        return ThresholdReport(math.inf, "Cor2", tuple(bad))
    s = (sig * (n - 1) + 1 + query.alpha) * query.p / denom
    return ThresholdReport(s, "Cor2")


def besov_threshold(query: EmbeddingQuery) -> ThresholdReport:
    """Comparison ceiling ``(n + alpha) p / (sigma(alpha + n - 1) - (p-1))``
    from the irregular-boundary embedding literature."""
    sig = query.sigma
    bad = []
    denom = sig * (query.alpha + query.n - 1) - (query.p - 1)
    if not denom > 0:
        bad.append("sigma(alpha + n - 1) must exceed p - 1")
    if bad:
        return ThresholdReport(math.inf, "Besov", tuple(bad))
    s = (query.n + query.alpha) * query.p / denom
    return ThresholdReport(s, "Besov")


def lemma3_transfer(p0: Number, q0: Number, p: Number) -> Number:
    """Transfer an embedding exponent along ``1/p - 1/q = 1/p0 - 1/q0``.

    Requires ``p >= p0`` and the strict gap ``1/p > 1/p0 - 1/q0``.
    """
    p0, q0, p = _rat(p0), _rat(q0), _rat(p)
    if p < p0:
        raise ValidityError("p must be at least p0")
    gap = _inv(p) - (_inv(p0) - _inv(q0))
    if not gap > 0:
        raise ValidityError("1/p must exceed 1/p0 - 1/q0")
    return 1 / gap


def _inv(x: Number) -> Number:
    return (Fraction(1) if isinstance(x, Rational) else 1.0) / x


def cor4_bound(p0: Number, qstar0: Number, p: Number, m: int = 1) -> Number:
    """Lower bound on the order-m embedding exponent,
    ``p p0 q* / (p0 q* - m p (q* - p0))``; ``inf`` when the chain's
    denominator is exhausted."""
    p0, q0, p = _rat(p0), _rat(qstar0), _rat(p)
    denom = p0 * q0 - m * p * (q0 - p0)
    if not denom > 0:
        return math.inf
    return p * p0 * q0 / denom


def thm9_sstar(p: Number, s: Number, m: int) -> Number:
    """Order-m target exponent ``p s / (s - m (s - p))``; ``inf`` on a
    vanishing or negative denominator."""
    p, s = _rat(p), _rat(s)
    denom = s - m * (s - p)
    if not denom > 0:
        return math.inf
    return p * s / denom


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


def _clearly_below(x: float, bound: float) -> bool:
    """Strict ``x < bound`` with ``FLOAT_TOL`` relative slack, so that a tie
    that float rounding happens to break is not accepted."""
    return x < bound - FLOAT_TOL * abs(bound)


def witness_satisfies(query: EmbeddingQuery, s: Number, w: Witness) -> bool:
    """Substitute a triple into the strict chain inequalities, ``q < p``
    included, each with ``FLOAT_TOL`` relative slack."""
    n, p = query.n, float(query.p)
    ag = float(query.alpha + query.gamma)
    ok_p = _clearly_below(w.q, p)
    ok_q = _clearly_below(w.q, n * p / (w.a * ag + p - w.a * p))
    ok_r = _clearly_below(w.r, n * w.q / (n - w.q))
    ok_s = _clearly_below(float(s), w.a * ag * w.r / n)
    return bool(ok_p and ok_q and ok_r and ok_s and 0.0 < w.a < 1.0)


#: the witness search tries a = k / _A_GRID for k = 1, ..., _A_GRID - 1
_A_GRID = 1000


def select_witness(query: EmbeddingQuery, s: Number) -> Optional[Witness]:
    """Search for ``(a, q, r)`` certifying compactness at exponent ``s``.

    Sweeps ``a`` over a uniform grid of (0, 1); for each ``a`` the feasible
    ``q`` and ``r`` intervals are intersected and mid-points taken.  Returns
    None when ``s`` is at or above the admissibility ceiling (no triple can
    satisfy the strict chain) or the query is invalid; raises ValidityError
    unless ``s > 0``.
    """
    s = float(s)
    if not s > 0:
        raise ValidityError("need s > 0")
    report = thm6_threshold(query)
    if not report.valid:
        return None
    if s >= float(report.s_max):
        return None
    n, p = query.n, float(query.p)
    ag = float(query.alpha + query.gamma)
    for k in range(1, _A_GRID):
        a = k / _A_GRID
        q_hi = min(p, n * p / (a * ag + p - a * p))
        r_lo = max(s, n * s / (a * ag), 1.0)
        q_lo = max(1.0, n * r_lo / (n + r_lo))
        if q_lo >= q_hi:
            continue
        q = 0.5 * (q_lo + q_hi)
        r_hi = n * q / (n - q)
        if r_lo >= r_hi:
            continue
        r = 0.5 * (r_lo + r_hi)
        w = Witness(a=a, q=q, r=r)
        if witness_satisfies(query, s, w):
            return w
    return None


# ---------------------------------------------------------------------------
# weighted norm conditions
# ---------------------------------------------------------------------------


def thm3_Kw(
    w: Weight,
    domain,
    p: float,
    q: float,
    r: float,
    s: float,
) -> tuple[IntegralVerdict, IntegralVerdict]:
    """Finiteness over ``domain``, a ball or a cusp, of the two weighted norms
    gating the quasiisometric route: ``||w**(-1/p)||_{L_{pq/(p-q)}}`` and
    ``||w**(1/s)||_{L_{rs/(r-s)}}``; the verdicts' values are the norms when
    finite (the second norm alone gates the unweighted-source variant).
    """
    if not q < p:
        raise ValueError("need q < p")
    if not s < r:
        raise ValueError("need s < r")
    e1 = -q / (p - q)  # integrand w**e1 for the first norm
    e2 = r / (r - s)  # integrand w**e2 for the second
    v1 = power_integral(w, e1, domain)
    v2 = power_integral(w, e2, domain)
    if v1.finite:
        norm1 = v1.value ** ((p - q) / (p * q))
        v1 = IntegralVerdict(norm1, v1.verdict, v1.trace)
    if v2.finite:
        norm2 = v2.value ** ((r - s) / (r * s))
        v2 = IntegralVerdict(norm2, v2.verdict, v2.trace)
    return v1, v2
