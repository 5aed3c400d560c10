import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import dblquad, quad

from cusplab.geometry import Ball, Box, CuspDomain, EvaluationError, Verdict, h1_domain, integrate
from cusplab.weights import (
    BallFamily,
    Weight,
    ap_check,
    ap_ratio,
    polynomial_ap_range,
    power_integral,
    theorem10_condition,
)


class TestEval:
    def test_constant(self):
        w = Weight.polynomial(0.0, 2)
        assert w(np.array([[0.3, -2.0]]))[0] == 1.0

    def test_square(self):
        w = Weight.polynomial(2.0, 2)
        assert w(np.array([[3.0, 4.0]]))[0] == pytest.approx(25.0)

    def test_unit_vector_negative_power(self):
        w = Weight.polynomial(-1.0, 2)
        assert w(np.array([[0.6, 0.8]]))[0] == pytest.approx(1.0)

    def test_singular_point_rejected(self):
        w = Weight.polynomial(-1.0, 2)
        with pytest.raises(ZeroDivisionError):
            w(np.array([[0.0, 0.0]]))

    def test_tabulated_nonnegative_enforced(self):
        w = Weight.tabulated(lambda p: p[:, 0], 2)
        with pytest.raises(ValueError):
            w(np.array([[-1.0, 0.0]]))

    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Weight(dim=2)


class TestApRatio:
    def test_constant_weight_ratio_one(self):
        w = Weight.polynomial(0.0, 2)
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == pytest.approx(1.0)

    def test_radial_oracle(self):
        # polar oracle: avg|x| = 2/3, avg|x|^-1 = 2 on the unit ball
        w = Weight.polynomial(1.0, 2)
        r = ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0))
        assert r == pytest.approx(4.0 / 3.0, rel=1e-3)

    def test_non_locally_summable_is_inf(self):
        w = Weight.polynomial(-3.0, 2)
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == math.inf

    def test_divergent_dual_average_is_inf(self):
        w = Weight.polynomial(3.0, 2)  # dual power -3 <= -n
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == math.inf

    def test_ratio_at_least_one_everywhere(self):
        rng = np.random.default_rng(7)
        w = Weight.polynomial(1.0, 2)
        for _ in range(20):
            c = rng.uniform(-1, 1, 2)
            r = rng.uniform(1e-3, 1.0)
            assert ap_ratio(w, 2.0, Ball(tuple(c), r)) >= 1.0 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        p=st.floats(1.1, 4.0),
        place=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        center=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        decade=st.floats(-3.0, 0.0),
    )
    def test_polynomial_ratio_at_least_one_on_random_balls(self, n, p, place, center, decade):
        # discrete Hölder on the shared radial nodes, anywhere in the window
        lo, hi = polynomial_ap_range(n, p)
        alpha = lo + place * (hi - lo)
        assume(lo < alpha < hi)
        ball = Ball(tuple(center[:n]), 10.0**decade)
        assert ap_ratio(Weight.polynomial(alpha, n), p, ball) >= 1.0 - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(1.1, 4.0),
        place=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        decade=st.floats(-3.0, 0.0),
    )
    def test_tabulated_ratio_at_least_one_on_random_balls(self, p, place, center, decade):
        # the same power sampled on the disc's polar nodes
        lo, hi = polynomial_ap_range(2, p)
        alpha = lo + place * (hi - lo)
        assume(lo < alpha < hi)
        w = Weight.tabulated(lambda x: np.linalg.norm(x, axis=-1) ** alpha, 2)
        assert ap_ratio(w, p, Ball(center, 10.0**decade)) >= 1.0 - 1e-12

    def test_scale_invariance_at_origin(self):
        w = Weight.polynomial(1.5, 2)
        vals = [ap_ratio(w, 3.0, Ball((0.0, 0.0), r)) for r in (1e-3, 1e-2, 0.1, 1.0)]
        assert max(vals) / min(vals) < 1.01

    def test_needs_p_above_one(self):
        with pytest.raises(ValueError):
            ap_ratio(Weight.polynomial(0.0, 2), 1.0, Ball((0.0, 0.0), 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_finite_iff_exact_rule_at_window_edges(self, n, p):
        # |x|**beta is integrable near the origin iff beta + n > 0, so just
        # inside the A_p window both averages are finite and just outside
        # one of them is not, on balls with the origin inside, off-center
        # or on the sphere
        lo, hi = polynomial_ap_range(n, p)
        off = (0.3,) + (0.0,) * (n - 1)
        on = (0.5,) + (0.0,) * (n - 1)
        balls = [Ball((0.0,) * n, 1.0), Ball(off, 0.5), Ball(on, 0.5)]
        for margin in (0.02, 0.05):
            for alpha, finite in (
                (lo + margin, True),
                (lo - margin, False),
                (hi - margin, True),
                (hi + margin, False),
            ):
                w = Weight.polynomial(alpha, n)
                for ball in balls:
                    r = ap_ratio(w, p, ball)
                    assert math.isfinite(r) is finite, (alpha, ball)
                    assert r >= 1.0


class TestApCheck:
    def test_analytic_range(self):
        assert polynomial_ap_range(2, 2.0) == (-2.0, 2.0)

    def test_inside_range_satisfied(self):
        rep = ap_check(Weight.polynomial(1.0, 2), 2.0)
        assert rep.verdict == "satisfied"
        assert rep.analytic_range == (-2.0, 2.0)
        assert rep.sup_estimate >= 1.0

    def test_outside_range_violated(self):
        rep = ap_check(Weight.polynomial(3.0, 2), 2.0)
        assert rep.verdict == "violated"

    def test_constant_weight_sup_one(self):
        rep = ap_check(Weight.polynomial(0.0, 2), 1.5)
        assert rep.verdict == "satisfied"
        assert rep.sup_estimate == pytest.approx(1.0)

    def test_verdict_grid(self):
        for n in (2, 3):
            for p in (1.5, 2.0, 3.0):
                lo, hi = polynomial_ap_range(n, p)
                for alpha, inside in [
                    (0.0, True),
                    ((lo + hi) / 2, True),
                    (lo - 0.5, False),
                    (hi + 0.5, False),
                ]:
                    rep = ap_check(
                        Weight.polynomial(alpha, n),
                        p,
                        BallFamily(dim=n, n_radii=2, n_random=1, lattice_decades=1),
                    )
                    assert (rep.verdict == "satisfied") is inside

    def test_tabulated_never_satisfied(self):
        w = Weight.tabulated(lambda p: 1.0 + p[:, 0] ** 2, 2)
        rep = ap_check(w, 2.0, BallFamily(dim=2, n_radii=2, n_random=2, lattice_decades=1))
        assert rep.verdict in ("inconclusive", "violated")
        assert rep.verdict != "satisfied"

    def test_report_serializable(self):
        rep = ap_check(Weight.polynomial(0.0, 2), 1.5, BallFamily(dim=2, n_radii=2, n_random=0, lattice_decades=1))
        d = rep.to_dict()
        assert {"p", "sup_estimate", "ball_count", "verdict", "analytic_range"} <= set(d)


def _measure(w, region):
    """The weighted measure ``∫_region w dx``, which must read finite."""
    v = power_integral(w, 1.0, region)
    assert v.verdict is Verdict.FINITE
    return v.value


class TestWeightedMeasure:
    def test_lebesgue_on_h1(self):
        w = Weight.polynomial(0.0, 2)
        assert _measure(w, h1_domain(2)) == pytest.approx(0.5, rel=1e-3)

    def test_radial_oracle_on_ball(self):
        w = Weight.polynomial(-0.5, 2)
        exact = 2 * math.pi * quad(lambda r: r**0.5, 0, 1)[0]  # 4 pi / 3
        assert _measure(w, Ball((0.0, 0.0), 1.0)) == pytest.approx(exact, rel=1e-3)

    def test_alpha_zero_matches_plain_integral(self):
        w = Weight.polynomial(0.0, 2)
        box = Box((0.2, 0.1), (0.9, 0.8))
        plain = integrate(lambda p: np.ones(len(p)), box).value
        assert _measure(w, box) == pytest.approx(plain, rel=1e-6)

    def test_additive_over_disjoint_boxes(self):
        w = Weight.polynomial(1.0, 2)
        left = Box((0.1, 0.1), (0.5, 0.9))
        right = Box((0.5, 0.1), (0.9, 0.9))
        both = Box((0.1, 0.1), (0.9, 0.9))
        assert _measure(w, left) + _measure(w, right) == pytest.approx(
            _measure(w, both), rel=1e-3
        )

    def test_tabulated_divergent_ball_integral_not_finite(self):
        # |x|**-2.5 is not integrable near the origin in 2-D
        w = Weight.tabulated(lambda x: np.linalg.norm(x, axis=-1) ** -2.5, 2)
        assert not power_integral(w, 1.0, Ball((0.0, 0.0), 1.0)).finite

    @staticmethod
    def _disc_power(beta):
        w = Weight.tabulated(lambda x: np.linalg.norm(x, axis=-1) ** beta, 2)
        return power_integral(w, 1.0, Ball((0.0, 0.0), 1.0))

    @settings(max_examples=20, deadline=None)
    @given(beta=st.floats(-2.6, -2.0))
    @example(beta=-2.0)
    def test_tabulated_power_on_disc_divergent_from_minus_two(self, beta):
        assert self._disc_power(beta).verdict is Verdict.DIVERGENT

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(-1.9, 1.0))
    @example(beta=-1.9)
    @example(beta=1.0)
    def test_tabulated_power_on_disc_finite_above_minus_two(self, beta):
        # the disc is a polar box graded toward its center: exactly 2 pi / (beta + 2)
        v = self._disc_power(beta)
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(2.0 * math.pi / (beta + 2.0), rel=1e-3)

    @pytest.mark.parametrize("beta", [-1.99, -1.97, -1.96])
    def test_tabulated_power_on_disc_overflow_ends_inconclusive(self, beta):
        # |x|**beta overflows at the deepest level while the increments per
        # decade shrink: the integral is finite, 2 pi / (beta + 2), and the
        # ladder ends undecided with its trace so far, without raising
        w = Weight.tabulated(lambda x: np.linalg.norm(x, axis=-1) ** beta, 2)
        with np.errstate(over="ignore"):
            v = power_integral(w, 1.0, Ball((0.0, 0.0), 1.0))
        assert v.verdict is Verdict.INCONCLUSIVE
        assert len(v.trace) >= 3 and v.value == v.trace[-1]

    def test_divergent_reported_as_inf(self):
        w = Weight.polynomial(-2.5, 2)
        assert power_integral(w, 1.0, Ball((0.0, 0.0), 1.0)).verdict is Verdict.DIVERGENT

    def test_doubling_inside_ap_range(self):
        w = Weight.polynomial(1.0, 2)
        rng = np.random.default_rng(3)
        centers = [np.zeros(2)] + [rng.uniform(-0.5, 0.5, 2) for _ in range(5)]
        ratios = []
        for c in centers:
            for r in (1e-2, 0.1, 0.3):
                m1 = _measure(w, Ball(tuple(c), r))
                m2 = _measure(w, Ball(tuple(c), 2 * r))
                ratios.append(m2 / m1)
        assert max(ratios) < 16.0  # one constant for the whole family


def _ball_power_oracle(n, beta, d, radius):
    """``∫_B |x|**beta`` over a ball of the given radius whose centre is at
    distance ``d`` from the origin, in 2-D or 3-D, by mpmath: the closed form
    on the inner ball ``|x| < radius - d``, and ``mpmath.quad`` on the cap
    ``|d - radius| < |x| < d + radius``.  The cap integrand ``|S| rho**(e-1)
    * fraction`` with ``e = beta + n`` is integrated in ``u = rho**e``, where
    it is bounded: in ``rho`` it is singular at ``rho = 0`` when the sphere
    passes through the origin, and tanh-sinh loses 4e-3 there at e = 0.1."""
    with mp.workdps(20):
        d, radius, e = mp.mpf(d), mp.mpf(radius), mp.mpf(beta) + n
        surface = 2 * mp.pi if n == 2 else 4 * mp.pi
        total = surface * (radius - d) ** e / e if d < radius else mp.mpf(0)
        if d > 0:

            def fraction(u):
                rho = u ** (1 / e)
                mu = (rho * rho + d * d - radius * radius) / (2 * rho * d)
                mu = min(max(mu, -1), 1)
                return mp.acos(mu) / mp.pi if n == 2 else (1 - mu) / 2

            cap = mp.quad(fraction, [abs(d - radius) ** e, (d + radius) ** e])
            total += surface / e * cap
        return float(total)


class TestBallPowerOracle:
    """``power_integral`` of ``|x|**beta`` on a ball against an mpmath
    oracle, with the origin inside, on the sphere, near it, or outside."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        decade=st.floats(-3.0, 0.0),
        ratio=st.floats(0.0, 3.0),
        share=st.floats(0.0, 1.0),
        axis=st.integers(0, 2),
    )
    @example(n=2, decade=-1.0, ratio=0.0, share=0.3, axis=0)
    @example(n=2, decade=0.0, ratio=1.0, share=0.0, axis=1)
    @example(n=3, decade=-3.0, ratio=1.0, share=0.0, axis=2)
    # beta = -2.784 just outside the sphere through the origin: 7.3e-3 and
    # inconclusive on a refinement ladder
    @example(n=3, decade=math.log10(0.0152), ratio=1.0 + 1e-3, share=0.0197, axis=0)
    @example(n=2, decade=-2.0, ratio=1.0 - 1e-3, share=0.1, axis=1)
    @example(n=3, decade=-0.5, ratio=1.0 + 1e-3, share=0.0, axis=0)
    @example(n=3, decade=0.0, ratio=1.0 - 1e-3, share=1.0, axis=2)
    def test_matches_mpmath(self, n, decade, ratio, share, axis):
        # beta + n in [0.1, 2n], radius in [1e-3, 1], d / radius in [0, 3]
        beta = 0.1 + share * (2 * n - 0.1) - n
        radius = 10.0**decade
        center = [0.0] * n
        center[axis % n] = ratio * radius
        v = power_integral(Weight.polynomial(beta, n), 1.0, Ball(tuple(center), radius))
        assert v.verdict is Verdict.FINITE
        exact = _ball_power_oracle(n, beta, ratio * radius, radius)
        assert v.value == pytest.approx(exact, rel=1e-3)
        assert v.trace == ()

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_and_the_ratio_is_inf(self):
        # ∫ |x|**-300 over a ball 0.01 from the origin is about 1e598
        ball = Ball((0.5, 0.0), 0.49)
        with pytest.raises(EvaluationError):
            power_integral(Weight.polynomial(-300.0, 2), 1.0, ball)
        assert ap_ratio(Weight.polynomial(300.0, 2), 2.0, ball) == math.inf


class TestTheorem10Condition:
    def test_constant_weight_gives_volume(self):
        w = Weight.polynomial(0.0, 2)
        box = Box((0.0, 0.0), (0.5, 0.4))
        v = theorem10_condition(w, box)
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(0.2, rel=1e-6)

    def test_alpha_one_finite_in_2d(self):
        w = Weight.polynomial(1.0, 2)
        v = theorem10_condition(w, Ball((0.0, 0.0), 1.0))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(2 * math.pi, rel=1e-3)  # radial: 2pi * ∫ dr

    def test_near_critical_cusp_is_finite(self):
        # ∫ |x|**-2.95 over {0 < x1 < t**2, 0 < t < 1} = ∫ t**-0.95 h(t) dt
        # with h(t) = ∫_0^1 (1 + u**2 t**2)**-1.475 du
        dom = CuspDomain(dim=2, exponents=(2.0,))
        v = theorem10_condition(Weight.polynomial(2.95, 2), dom)
        h = lambda t: quad(lambda u: (1 + u * u * t * t) ** -1.475, 0, 1)[0]
        exact = quad(h, 0, 1, weight="alg", wvar=(-0.95, 0))[0]
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(exact, rel=1e-3)

    def test_cusp_divergence_by_the_exact_rule(self):
        # |x|**-3 * G(t) ~ t**-1 on the gamma = 3 cusp
        v = theorem10_condition(Weight.polynomial(3.0, 2), CuspDomain(dim=2, exponents=(2.0,)))
        assert v.verdict is Verdict.DIVERGENT
        assert v.value == math.inf

    @pytest.mark.parametrize("alpha", [2.0, 2.25, 2.5, 3.0])
    def test_square_divergence_by_the_exact_rule(self, alpha):
        # |x|**-alpha is not integrable near the corner at the origin
        v = theorem10_condition(Weight.polynomial(alpha, 2), Box((0.0, 0.0), (1.0, 1.0)))
        assert v.verdict is Verdict.DIVERGENT
        assert v.value == math.inf and v.trace == ()

    def test_box_away_from_origin_is_integrated(self):
        v = theorem10_condition(Weight.polynomial(3.0, 2), Box((0.5, 0.5), (1.0, 1.0)))
        assert v.verdict is Verdict.FINITE
        exact = dblquad(lambda y, x: (x * x + y * y) ** -1.5, 0.5, 1.0, 0.5, 1.0)[0]
        assert v.value == pytest.approx(exact, rel=1e-3)

    def test_alpha_two_divergent_in_2d(self):
        w = Weight.polynomial(2.0, 2)
        v = theorem10_condition(w, Ball((0.0, 0.0), 1.0))
        assert v.verdict is Verdict.DIVERGENT


class TestExactPowerRule:
    """``∫ |x|**beta`` over a region reads divergent iff the origin is in the
    closed region and ``beta`` plus the region's dimension there (``n`` for a
    ball or a box, ``gamma`` at a cusp's tip) is at most 0."""

    @settings(max_examples=40, deadline=None)
    @given(
        # the far side holds integrands that overflow at the first level
        beta=st.floats(-6.0, 2.0) | st.floats(-400.0, -6.0),
        n=st.sampled_from([2, 3]),
        offset=st.floats(0.0, 1.0),
        radius=st.floats(0.1, 2.0),
    )
    @example(beta=-300.0, n=2, offset=0.0, radius=math.sqrt(2.0))  # solve, alpha = 300
    def test_ball_around_origin(self, beta, n, offset, radius):
        assume(abs(beta + n) > 0.05)
        # the origin is inside, or on the sphere when offset = 1
        ball = Ball((offset * radius,) + (0.0,) * (n - 1), radius)
        v = power_integral(Weight.polynomial(beta, n), 1.0, ball)
        assert v.divergent == (beta + n <= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(-6.0, 2.0),
        lo=st.tuples(*[st.sampled_from([0.0, -0.5, -1.0])] * 2),
        hi=st.tuples(*[st.sampled_from([0.5, 1.0])] * 2),
    )
    def test_box_holding_origin(self, beta, lo, hi):
        # no cell centroid of these boxes falls on the origin
        assume(abs(beta + 2.0) > 0.05)
        v = power_integral(Weight.polynomial(beta, 2), 1.0, Box(lo, hi))
        assert v.divergent == (beta + 2.0 <= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(-8.0, 2.0),
        n=st.sampled_from([2, 3]),
        extra=st.floats(0.0, 2.0),
    )
    def test_cusp(self, beta, n, extra):
        domain = CuspDomain.isotropic(n, n + extra)
        assume(abs(beta + domain.gamma) > 0.05)
        v = power_integral(Weight.polynomial(beta, n), 1.0, domain)
        assert v.divergent == (beta + domain.gamma <= 0.0)


class TestHigherDimension:
    def test_theorem10_on_3d_cusp(self):
        dom = CuspDomain(dim=3, exponents=(2.0, 1.5))  # aggregate exponent 4.5
        fine = theorem10_condition(Weight.polynomial(1.0, 3), dom)
        assert fine.verdict is Verdict.FINITE
        coarse = theorem10_condition(Weight.polynomial(3.0, 3), dom)
        assert coarse.verdict is Verdict.DIVERGENT

    def test_tabulated_zero_set_violates(self):
        w = Weight.tabulated(lambda p: np.maximum(0.0, p[:, 0]), 2)
        rep = ap_check(w, 2.0, BallFamily(dim=2, n_radii=2, n_random=1, lattice_decades=1))
        assert rep.verdict == "violated"
