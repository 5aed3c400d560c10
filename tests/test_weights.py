import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from cusplab.geometry import Ball, Box, CuspDomain, EvaluationError, ValidityError, Verdict, h1_domain, radius
from cusplab.weights import (
    MAX_BALLS,
    BallFamily,
    Weight,
    ap_check,
    ap_ratio,
    polynomial_ap_range,
    power_integral,
    theorem10_condition,
)
from cusplab.weights import _family_geometry


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

    @pytest.mark.parametrize("alpha", [-1.5, 0.0, 0.5, 2.0])
    def test_at_radii_has_the_bits_of_the_call(self, alpha):
        w = Weight.polynomial(alpha, 3)
        x = np.random.default_rng(4).standard_normal((50, 3))
        assert w.at_radii(radius(x)).tobytes() == w(x).tobytes()

    def test_at_radii_rejects_the_singular_point(self):
        with pytest.raises(ZeroDivisionError):
            Weight.polynomial(-1.0, 2).at_radii(np.array([0.5, 0.0]))
        assert Weight.polynomial(1.0, 2).at_radii(np.array([0.0]))[0] == 0.0



class TestApRatio:
    def test_constant_weight_ratio_one(self):
        w = Weight.polynomial(0.0, 2)
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == pytest.approx(1.0)

    def test_radial_oracle(self):
        # polar oracle: avg|x| = 2/3, avg|x|^-1 = 2 on the unit ball
        w = Weight.polynomial(1.0, 2)
        r = ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0))
        assert r == pytest.approx(4.0 / 3.0, rel=1e-3, abs=0)

    def test_non_locally_summable_is_inf(self):
        w = Weight.polynomial(-3.0, 2)
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == math.inf

    def test_divergent_dual_average_is_inf(self):
        w = Weight.polynomial(3.0, 2)  # dual power -3 <= -n
        assert ap_ratio(w, 2.0, Ball((0.0, 0.0), 1.0)) == math.inf

    @pytest.mark.parametrize(
        "ball",
        [Ball((0.0, 0.0), 0.001), Ball((0.0, 0.0), 0.1)],
        ids=["weight-average-underflows", "dual-power-overflows"],
    )
    def test_product_past_the_float_range_is_inf(self, ball):
        # p = 400, alpha = 300 is inside the A_p window, but avg |x|**300
        # underflows to 0 on the small ball, and avg_dual**399 passes the
        # float range on both
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ap_ratio(Weight.polynomial(300.0, 2), 400.0, ball) == math.inf

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

    def test_steep_weight_keeps_its_analytic_verdict(self):
        # 29 of the 147 default balls have no float ratio; every other ratio
        # is a finite one >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ap_check(Weight.polynomial(300.0, 2), 400.0)
        assert rep.verdict == "satisfied"
        assert rep.sup_estimate == math.inf
        assert sum(map(math.isinf, rep.ratios)) == 29
        assert all(r >= 1.0 - 1e-12 for r in rep.ratios)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        alpha=st.floats(-4.0, 12.0),
        p=st.floats(1.1, 4.0),
        n_radii=st.integers(1, 3),
        n_random=st.integers(0, 3),
        lattice_decades=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @example(n=2, alpha=3.0, p=2.0, n_radii=2, n_random=2, lattice_decades=1, seed=0)  # dual -3
    @example(n=3, alpha=-3.5, p=2.0, n_radii=2, n_random=2, lattice_decades=1, seed=0)
    @example(n=2, alpha=300.0, p=400.0, n_radii=7, n_random=8, lattice_decades=3, seed=0)
    def test_ratios_are_each_balls_own(self, n, alpha, p, n_radii, n_random, lattice_decades, seed):
        # one array pass over the family's distinct balls gives every ball the
        # bits of its own ap_ratio: divergent, overflowing and finite alike
        family = BallFamily(dim=n, n_radii=n_radii, n_random=n_random,
                            lattice_decades=lattice_decades, seed=seed)
        w = Weight.polynomial(alpha, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ap_check(w, p, family)
            own = tuple(ap_ratio(w, p, b) for b in family.balls())
        assert [r.hex() for r in rep.ratios] == [r.hex() for r in own]

    @pytest.mark.parametrize(
        "n, alpha, p, sup, digest",
        [
            (2, 1.0, 2.0, "0x1.94b4c31818cebp+0", "553802f3e07e92d8"),
            (3, 1.0, 2.0, "0x1.3b8f0158804e8p+0", "80fa97d2e0d01dd4"),
            (2, -1.5, 2.0, "0x1.c5ad3297bf1e1p+1", "e97e2d9d044f5e12"),
        ],
    )
    def test_sup_estimate_bits(self, n, alpha, p, sup, digest):
        # the default family's largest ratio and a digest of all its ratios:
        # the bits that summing one ball at a time gives
        rep = ap_check(Weight.polynomial(alpha, n), p)
        assert rep.sup_estimate.hex() == sup
        ratios = " ".join(r.hex() for r in rep.ratios)
        assert hashlib.sha256(ratios.encode()).hexdigest()[:16] == digest

    def test_report_serializable(self):
        rep = ap_check(Weight.polynomial(0.0, 2), 1.5, BallFamily(dim=2, n_radii=2, n_random=0, lattice_decades=1))
        d = rep.to_dict()
        assert {"p", "sup_estimate", "ball_count", "verdict", "analytic_range"} <= set(d)


def _hex(ratios):
    return [r.hex() for r in ratios]


class TestSharedGeometry:
    """ap_check takes a family's layout and cap geometry from one cached
    entry per family; every ratio keeps the bits of its own ball."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cold_and_warm_ratios_are_equal(self, n):
        family = BallFamily(dim=n, seed=5)
        weights = [Weight.polynomial(a, n) for a in (-0.5 * n, 0.25, 0.9 * n, 3.0 * n)]
        weights_hex = []
        for w in weights:
            _family_geometry.cache_clear()
            weights_hex.append(_hex(ap_check(w, 2.0, family).ratios))
        for w, cold in zip(weights, weights_hex):
            assert _hex(ap_check(w, 2.0, family).ratios) == cold
        for w, cold in zip(reversed(weights), reversed(weights_hex)):
            assert _hex(ap_check(w, 2.0, family).ratios) == cold

    def test_ten_checks_build_the_geometry_once(self, monkeypatch):
        import cusplab.weights as weights_module

        calls = []
        betainc = weights_module.betainc
        monkeypatch.setattr(weights_module, "betainc", lambda *a: calls.append(1) or betainc(*a))
        _family_geometry.cache_clear()
        family = BallFamily(dim=2, seed=11)
        for k in range(10):
            ap_check(Weight.polynomial(-1.5 + 0.5 * k, 2), 1.5 + 0.25 * k, family)
        info = _family_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_divergent_origin_balls_share_the_entry(self):
        family = BallFamily(dim=2, n_radii=3, n_random=2, lattice_decades=2, seed=3)
        inside, past = Weight.polynomial(1.0, 2), Weight.polynomial(-2.5, 2)
        _family_geometry.cache_clear()
        reports = [ap_check(w, 2.0, family) for w in (inside, past)]
        assert _family_geometry.cache_info().misses == 1
        for w, rep in zip((inside, past), reports):
            assert _hex(rep.ratios) == _hex(ap_ratio(w, 2.0, b) for b in family.balls())
        # |x|**-2.5 diverges on exactly the balls whose closure holds the origin
        at_origin = [float(np.linalg.norm(b.center)) <= b.radius for b in family.balls()]
        assert [math.isinf(r) for r in reports[1].ratios] == at_origin
        assert any(at_origin) and not all(at_origin)

    def test_a_family_in_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="R\\*\\*2 and balls in R\\*\\*3"):
            ap_check(Weight.polynomial(0.5, 2), 2.0, BallFamily(dim=3))

    def test_cached_arrays_are_read_only(self):
        _, geometry = _family_geometry(BallFamily(dim=3))
        for array in (geometry.rho, geometry.shell):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_a_family_over_the_cap_raises_before_its_balls(self, monkeypatch):
        def balls(self):
            raise AssertionError("balls() built")

        monkeypatch.setattr(BallFamily, "balls", balls)
        with pytest.raises(ValueError, match=f"at most {MAX_BALLS} balls, got {MAX_BALLS + 1}"):
            BallFamily(dim=2, n_radii=MAX_BALLS + 1, n_random=0, lattice_decades=0)
        with pytest.raises(ValueError, match="at most"):
            BallFamily(dim=10**6)  # 7 * (1 + 6 * 10**6 + 8) balls
        # 8 * (1 + 2 * 1 * 3 + 505) = 4096 balls, the cap itself
        BallFamily(dim=1, n_radii=8, n_random=505)

    @pytest.mark.parametrize(
        "plan",
        [{"r_max": 1e200}, {"r_min": 2.0}, {"r_min": -0.001}, {"r_min": 1e-200}, {"r_min": 0.0},
         {"r_min": math.nan}, {"r_max": math.inf}],
        ids=["huge", "reversed", "negative", "tiny", "zero", "nan", "inf"],
    )
    @pytest.mark.filterwarnings("error")
    def test_radii_out_of_range_raise_before_any_work(self, plan):
        with pytest.raises(ValidityError):
            BallFamily(dim=3, **plan)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), lo=st.floats(-165.0, 155.0), span=st.floats(0.0, 6.0),
           alpha=st.floats(-0.99, 3.0))
    @example(n=2, lo=-161.0, span=1.0, alpha=0.25)  # off-centre volumes underflow to 0
    @example(n=3, lo=100.0, span=2.5, alpha=0.25)
    def test_radii_in_range_give_ratios_without_warnings(self, n, lo, span, alpha):
        # every radius the rule admits gives each ball a ratio >= 1 or inf
        try:
            family = BallFamily(dim=n, r_min=10.0**lo, r_max=10.0 ** (lo + span), n_radii=3, n_random=2)
        except ValidityError:
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ap_check(Weight.polynomial(alpha * n, n), 2.0, family)
        assert all(r >= 1.0 - 1e-12 for r in rep.ratios)


def _measure(w, region):
    """The weighted measure ``∫_region w dx``, which must read finite."""
    v = power_integral(w, 1.0, region)
    assert v.verdict is Verdict.FINITE
    return v.value


class TestWeightedMeasure:
    def test_lebesgue_on_h1(self):
        w = Weight.polynomial(0.0, 2)
        assert _measure(w, h1_domain(2)) == pytest.approx(0.5, rel=1e-3, abs=0)

    def test_radial_oracle_on_ball(self):
        w = Weight.polynomial(-0.5, 2)
        exact = 2 * math.pi * quad(lambda r: r**0.5, 0, 1)[0]  # 4 pi / 3
        assert _measure(w, Ball((0.0, 0.0), 1.0)) == pytest.approx(exact, rel=1e-3, abs=0)

    def test_alpha_zero_matches_plain_integral(self):
        # the volume of a cusp is ∫_0^1 G(t) dt = 1/gamma
        dom = CuspDomain(dim=3, exponents=(2.0, 1.5))
        assert _measure(Weight.polynomial(0.0, 3), dom) == pytest.approx(1.0 / 4.5, rel=1e-12, abs=0)

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
        assert v.value == pytest.approx(exact, rel=1e-8, abs=0)
        assert v.trace == ()

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_and_the_ratio_is_inf(self):
        # ∫ |x|**-300 over a ball 0.01 from the origin is about 1e598
        ball = Ball((0.5, 0.0), 0.49)
        with pytest.raises(EvaluationError):
            power_integral(Weight.polynomial(-300.0, 2), 1.0, ball)
        assert ap_ratio(Weight.polynomial(300.0, 2), 2.0, ball) == math.inf


def _cusp_power_oracle(c, exponent):
    """``∫ |x|**beta`` over the 2-D cusp ``{0 < x_1 < t**exponent}``, ``beta
    = c - 1 - exponent``, by mpmath on its 1-D reduction ``∫_0^1 t**(c-1)
    R(t) dt``, with ``R(t) = ∫_0^1 (1 + u**2 s)**(beta/2) du = 2F1(-beta/2,
    1/2; 3/2; -s)`` and ``s = t**(2 (exponent - 1))``.  In ``v = t**c`` the
    integral is ``∫_0^1 R(v**(1/c)) dv / c``, with breakpoints at the images
    of ``t = 10**-k``."""
    with mp.workdps(20):
        c, g = mp.mpf(c), mp.mpf(exponent)
        beta = c - 1 - g
        R = lambda t: mp.hyp2f1(-beta / 2, 0.5, 1.5, -(t ** (2 * (g - 1))))
        edges = [mp.mpf(0)] + [mp.mpf(10) ** -k for k in (12, 6, 3, 2, 1)] + [mp.mpf(1)]
        return float(mp.quad(lambda v: R(v ** (1 / c)), [e**c for e in edges]) / c)


class TestCuspPowerOracle:
    """``power_integral`` of ``|x|**beta`` on 2-D cusps against mpmath, from
    ``beta + gamma = c`` next to 0 to far from it, and exponents from the
    Lipschitz 1 up."""

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(0.002, 4.0), exponent=st.floats(1.0, 3.0))
    @example(c=0.002, exponent=1.0)
    @example(c=0.002, exponent=1.0001)  # R(t) moves over thousands of decades
    @example(c=0.002, exponent=1.05)
    @example(c=4.0, exponent=3.0)
    # large powers on gamma = 3: t**(c-1) and (1 + u**2 t**2)**(beta/2) both
    # put their mass next to t = 1 and u = 1
    @example(c=50.0, exponent=2.0)
    @example(c=103.0, exponent=2.0)
    @example(c=203.0, exponent=2.0)
    def test_matches_mpmath(self, c, exponent):
        dom = CuspDomain(dim=2, exponents=(exponent,))
        v = power_integral(Weight.polynomial(c - dom.gamma, 2), 1.0, dom)
        assert v.verdict is Verdict.FINITE and v.trace == ()
        assert v.value == pytest.approx(_cusp_power_oracle(c, exponent), rel=1e-8, abs=0)


class TestCuspPowerBits:
    """The bits of cusp power integrals on the graded rule."""

    def test_near_critical_digest(self):
        # theorem10_condition on the 2-D gamma = 3 cusp at c = 3 - alpha, and
        # power_integral on the 3-D cusp (1.25, 1.25) at c = 0.002 and 0.005
        cusp2, cusp3 = CuspDomain.isotropic(2, 3.0), CuspDomain(3, (1.25, 1.25))
        values = [
            theorem10_condition(Weight.polynomial(alpha, 2), cusp2).value
            for alpha in (0.5, 1.0, 2.95)
        ]
        values += [
            power_integral(Weight.polynomial(c - cusp3.gamma, 3), 1.0, cusp3).value
            for c in (0.002, 0.005)
        ]
        hexes = " ".join(v.hex() for v in values)
        assert hashlib.sha256(hexes.encode()).hexdigest()[:16] == "236c54963d1a7cf2"

    def test_large_power(self):
        # beta = 100 > 16: each cross axis takes panels halved toward u = 1
        v = power_integral(Weight.polynomial(100.0, 3), 1.0, CuspDomain(3, (1.5, 2.0)))
        assert v.value.hex() == "0x1.d51b877938f10p+61"


class TestTheorem10Condition:
    def test_constant_weight_gives_volume(self):
        # a disc off the origin, so its cap takes the graded rule
        w = Weight.polynomial(0.0, 2)
        v = theorem10_condition(w, Ball((0.3, 0.1), 0.5))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(math.pi * 0.25, rel=1e-8, abs=0)

    def test_alpha_one_finite_in_2d(self):
        w = Weight.polynomial(1.0, 2)
        v = theorem10_condition(w, Ball((0.0, 0.0), 1.0))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(2 * math.pi, rel=1e-3, abs=0)  # radial: 2pi * ∫ dr

    def test_near_critical_cusp_is_finite(self):
        # ∫ |x|**-2.95 over {0 < x1 < t**2, 0 < t < 1} = ∫ t**-0.95 h(t) dt
        # with h(t) = ∫_0^1 (1 + u**2 t**2)**-1.475 du
        dom = CuspDomain(dim=2, exponents=(2.0,))
        v = theorem10_condition(Weight.polynomial(2.95, 2), dom)
        h = lambda t: quad(lambda u: (1 + u * u * t * t) ** -1.475, 0, 1)[0]
        exact = quad(h, 0, 1, weight="alg", wvar=(-0.95, 0))[0]
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(exact, rel=1e-3, abs=0)

    def test_cusp_divergence_by_the_exact_rule(self):
        # |x|**-3 * G(t) ~ t**-1 on the gamma = 3 cusp
        v = theorem10_condition(Weight.polynomial(3.0, 2), CuspDomain(dim=2, exponents=(2.0,)))
        assert v.verdict is Verdict.DIVERGENT
        assert v.value == math.inf

    @pytest.mark.parametrize("alpha", [2.0, 2.25, 2.5, 3.0])
    def test_square_divergence_by_the_exact_rule(self, alpha):
        # |x|**-alpha is not integrable near the corner at the origin; like
        # `cusplab solve`, the square's condition is read on the disc around it
        v = theorem10_condition(Weight.polynomial(alpha, 2), Ball((0.0, 0.0), math.sqrt(2.0)))
        assert v.verdict is Verdict.DIVERGENT
        assert v.value == math.inf and v.trace == ()

    @pytest.mark.parametrize("alpha, power", [(3.0, -1.0), (0.0, -1.0), (400.0, -0.004)])
    def test_box_is_not_a_region(self, alpha, power):
        # a box has no exact reduction; (400, -0.004) is |x|**-1.6, finite,
        # where |x|**400 under- and overflows at nodes of a box grid
        w = Weight.polynomial(alpha, 2)
        with pytest.raises(TypeError):
            power_integral(w, power, Box((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(TypeError):
            theorem10_condition(w, Box((0.5, 0.5), (1.0, 1.0)))

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
    @pytest.mark.parametrize("c", [0.002, 0.005])
    def test_near_critical_3d_cusp_never_reads_divergent(self, c):
        # ∫ |x|**beta over the gamma = 3.5 cusp with beta + gamma = c > 0:
        # nearly all of it is the tail t**(c-1) next to the tip.  The values
        # agree to 4e-10 with the rule at 80 decades of 24 points
        alpha = 2.0 * (3.5 - c) / 3.0  # beta = -3 alpha / 2
        v = theorem10_condition(Weight.polynomial(alpha, 3), CuspDomain.isotropic(3, 3.5))
        assert v.verdict is Verdict.FINITE and v.trace == ()
        assert v.value == pytest.approx({0.002: 498.4922530, 0.005: 198.5041529}[c], rel=1e-8, abs=0)

    def test_theorem10_on_3d_cusp(self):
        dom = CuspDomain(dim=3, exponents=(2.0, 1.5))  # aggregate exponent 4.5
        fine = theorem10_condition(Weight.polynomial(1.0, 3), dom)
        assert fine.verdict is Verdict.FINITE
        coarse = theorem10_condition(Weight.polynomial(3.0, 3), dom)
        assert coarse.verdict is Verdict.DIVERGENT
