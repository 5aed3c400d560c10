"""Correctness checks for benchmark jobs, computed without the program.

Every check raises :class:`CheckFailure` when an output is wrong.  Expected
values come from closed forms evaluated here in exact rational arithmetic,
from the pure-power integrability rule, from an independent quadrature, or
from a property the method must have (a residual bound, an order of
convergence, a monotone sequence).  No check compares against a stored copy
of the program's earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Pure-power verdicts are not checked when |beta + 1| is inside this band:
#: there the refinement trace cannot separate t^-1 from its neighbours.
POWER_BAND = 0.05

#: Relative tolerance for thresholds printed as floats by the program.
THRESHOLD_RTOL = 1e-9


class CheckFailure(AssertionError):
    """A job's output contradicts an independently known answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# closed-form thresholds (exact rationals; None where the formula is invalid)
# ---------------------------------------------------------------------------


def _basic_valid(n: int, p: Fraction, alpha: Fraction, gamma: Fraction) -> bool:
    return p > 1 and gamma >= n and -n < alpha < n * (p - 1)


def thm6_ceiling(n, p, alpha, gamma):
    """``(alpha+gamma) p / (alpha+gamma-p)``, the compactness ceiling."""
    ag = alpha + gamma
    if not (_basic_valid(n, p, alpha, gamma) and p < ag):
        return None
    return ag * p / (ag - p)


def thm8_ceiling(n, p, alpha, gamma):
    if not (1 < p < gamma and gamma >= n and alpha + gamma > 0):
        return None
    return (alpha + gamma) * p / (gamma - p)


def cor2_ceiling(n, p, alpha, gamma):
    sigma = (gamma - 1) / (n - 1)
    denom = sigma * (n - 1) + alpha - (p - 1)
    if not (_basic_valid(n, p, alpha, gamma) and denom > 0):
        return None
    return (sigma * (n - 1) + 1 + alpha) * p / denom


def besov_ceiling(n, p, alpha, gamma):
    sigma = (gamma - 1) / (n - 1)
    denom = sigma * (alpha + n - 1) - (p - 1)
    if not denom > 0:
        return None
    return (n + alpha) * p / denom


CEILINGS = {
    "thm6": thm6_ceiling,
    "thm8": thm8_ceiling,
    "cor2": cor2_ceiling,
    "besov": besov_ceiling,
}


def check_threshold_value(label: str, reported, expected) -> None:
    """``reported`` is the program's float (or "inf"/"invalid" marker)."""
    if expected is None:
        require(reported in ("inf", "invalid"), f"{label}: expected invalid, got {reported!r}")
        return
    require(not isinstance(reported, str), f"{label}: expected {float(expected)}, got {reported!r}")
    value = float(reported)
    require(
        abs(value - float(expected)) <= THRESHOLD_RTOL * abs(float(expected)),
        f"{label}: {value!r} differs from closed form {float(expected)!r}",
    )


def check_threshold_block(block: dict, n, p, alpha, gamma) -> None:
    for key, formula in CEILINGS.items():
        check_threshold_value(key, block[key]["s_max"], formula(n, p, alpha, gamma))


def check_witness(witness, n, p, alpha, gamma, s) -> None:
    """A witness exists exactly below the Thm6 ceiling and satisfies the
    three strict chain inequalities, substituted here in exact arithmetic
    (the reported floats are converted to the rationals they denote)."""
    ceiling = thm6_ceiling(n, p, alpha, gamma)
    if ceiling is None or s >= ceiling:
        require(witness is None, f"witness {witness} returned at or above the ceiling")
        return
    require(witness is not None, "no witness below the ceiling")
    a, q, r = (Fraction(float(witness[k])) for k in ("a", "q", "r"))
    ag = alpha + gamma
    require(0 < a < 1, f"witness a={float(a)} outside (0, 1)")
    require(q < n * p / (a * ag + p - a * p), "witness q violates the distortion bound")
    require(r < n * q / (n - q), "witness r violates the Sobolev bound")
    require(s < a * ag * r / n, "witness does not reach s")


# ---------------------------------------------------------------------------
# pure-power rule for the reduced distortion integrals
# ---------------------------------------------------------------------------


def ia_beta(n, p, q, a, alpha, gamma) -> float:
    """Exponent of the reduced mean-distortion integrand ``t**beta``."""
    k = q / (p - q)
    return (p * (a - 1.0) - a * (alpha + 1.0) + n) * k + n - 1.0 - a * k * (gamma - 1.0)


def ja_beta(n, r, s, a, alpha, gamma) -> float:
    """Exponent of the reduced weighted-Jacobian integrand ``t**beta``."""
    k = r / (r - s)
    return (a * (alpha + 1.0) - n) * k + n - 1.0 + a * k * (gamma - 1.0)


def check_power_verdict(label: str, verdict: str, beta: float) -> bool:
    """``∫_0^1 t^beta dt`` is finite iff ``beta > -1``.  Returns False when
    ``beta`` is inside the band and the verdict was not checked."""
    if abs(beta + 1.0) <= POWER_BAND:
        return False
    expected = "finite" if beta > -1.0 else "divergent"
    require(verdict == expected, f"{label}: t^{beta:.4f} is {expected}, program says {verdict}")
    return True


# ---------------------------------------------------------------------------
# A_p, probe, mollifier
# ---------------------------------------------------------------------------


def check_ap(ap: dict, n: int, p: float, alpha: float) -> None:
    expected = "satisfied" if -n < alpha < n * (p - 1.0) else "violated"
    require(ap["verdict"] == expected, f"A_p verdict {ap['verdict']}, rule says {expected}")
    sup = ap["sup_estimate"]
    require(sup == "inf" or float(sup) >= 1.0, f"A_p sup estimate {sup} below 1")


def check_probe(verdict: str, ratios, s_factor: Fraction) -> None:
    """Below 0.8x the ceiling the ratio stays bounded; above 1.2x it blows up."""
    require(len(ratios) >= 3, "probe returned fewer than three scales")
    for eps, ratio in ratios:
        require(math.isfinite(ratio) and ratio > 0.0, f"ratio {ratio} at eps={eps}")
    if s_factor <= Fraction(4, 5):
        require(verdict == "bounded", f"probe at {float(s_factor)}x ceiling says {verdict}")
    elif s_factor >= Fraction(6, 5):
        require(verdict == "blow_up", f"probe at {float(s_factor)}x ceiling says {verdict}")


def check_strictly_decreasing(label: str, values) -> None:
    values = [float(v) for v in values]
    require(len(values) >= 2, f"{label}: fewer than two values")
    for a, b in zip(values, values[1:]):
        require(b < a, f"{label}: {values} not strictly decreasing")


# ---------------------------------------------------------------------------
# finite elements
# ---------------------------------------------------------------------------

# Degree-4 six-point rule on the reference triangle (barycentric, weights sum to 1).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_BARY = np.array(
    [
        [_A1, _A1, 1 - 2 * _A1], [_A1, 1 - 2 * _A1, _A1], [1 - 2 * _A1, _A1, _A1],
        [_A2, _A2, 1 - 2 * _A2], [_A2, 1 - 2 * _A2, _A2], [1 - 2 * _A2, _A2, _A2],
    ]
)
_BARY_W = np.array([_W1] * 3 + [_W2] * 3)


def l2_error_independent(vertices, triangles, values, exact) -> float:
    """L2 distance between a P1 field and ``exact`` by a degree-4 rule,
    a different quadrature from the program's mid-edge rule."""
    p = vertices[triangles]  # (M, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    pts = np.einsum("qk,mkd->mqd", _BARY, p)
    uh = np.einsum("qk,mk->mq", _BARY, values[triangles])
    ue = exact(pts[..., 0], pts[..., 1])
    err2 = ((uh - ue) ** 2) @ _BARY_W * area
    return float(math.sqrt(np.sum(err2)))


def check_residual(residual: float, tol: float) -> None:
    """The solver promises a relative 2-norm residual of at most ``tol``."""
    require(residual <= tol, f"relative residual {residual:.4e} above tol {tol:g}")


def check_fem_job(weak: float, tol: float, l2_program: float, l2_bench: float) -> None:
    require(weak <= 10.0 * tol, f"weak residual {weak:.3e} above 10*tol")
    require(math.isfinite(l2_bench) and l2_bench > 0.0, f"independent L2 error {l2_bench}")
    require(
        abs(l2_program - l2_bench) <= 0.1 * l2_bench,
        f"program L2 error {l2_program:.4e} disagrees with independent {l2_bench:.4e}",
    )


def check_order(errors, expected: float = 2.0, slack: float = 0.3) -> None:
    """Observed orders log2(e_h / e_{h/2}) along a halving ladder."""
    for e0, e1 in zip(errors, errors[1:]):
        order = math.log2(e0 / e1)
        require(abs(order - expected) <= slack, f"observed order {order:.3f} outside {expected}±{slack}")
