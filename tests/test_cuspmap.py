import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cusplab.cuspmap import (
    CuspMap,
    check_quasiisometry,
    distortion_Ia,
    distortion_report,
    ia_exponent_q_threshold,
    ja_exponent_s_bound,
    jacobian_Ja,
)
from cusplab.geometry import SLOPE_BAND, CuspDomain, Verdict, h1_domain, scaling_exponent


HG = CuspDomain(dim=2, exponents=(2.0,))


def interior_sample(rng, n, count):
    t = rng.uniform(0.02, 0.98, count)
    u = rng.uniform(0.02, 0.98, (count, n - 1))
    pts = np.empty((count, n))
    pts[:, :-1] = u * t[:, None]
    pts[:, -1] = t
    return pts


def fd_jacobian_det(m, x, h=1e-6):
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
    return np.linalg.det(J)


class TestApply:
    def test_identity_parameters(self):
        m = CuspMap(h1_domain(2), a=1.0)
        x = np.array([0.3, 0.7])
        assert np.array_equal(m.apply(x), x)

    def test_printed_formula(self):
        m = CuspMap(HG, a=0.5)
        y = m.apply([0.1, 0.5])
        assert y[0] == pytest.approx(0.1 * 0.25**0.5 / 0.5)
        assert y[1] == pytest.approx(0.5**0.5)
        assert y[1] == pytest.approx(0.70710678, abs=1e-8)

    def test_top_face_fixed(self):
        m = CuspMap(HG, a=0.5)
        y = m.apply([0.25, 1.0 - 1e-12])
        assert y[0] == pytest.approx(0.25, rel=1e-9)
        assert y[1] == pytest.approx(1.0, rel=1e-9)

    def test_outside_source_rejected(self):
        m = CuspMap(HG, a=0.5)
        with pytest.raises(ValueError):
            m.apply([0.9, 0.5])  # x_1 > x_n: outside H_1

    def test_image_lands_in_target(self):
        m = CuspMap(HG, a=0.5)
        pts = interior_sample(np.random.default_rng(0), 2, 200)
        for y in m.apply(pts):
            assert HG.contains(y)

    def test_a_range_enforced(self):
        with pytest.raises(ValueError):
            CuspMap(HG, a=0.0)
        with pytest.raises(ValueError):
            CuspMap(HG, a=1.5)


class TestJacobian:
    def test_printed_value(self):
        m = CuspMap(HG, a=0.5)
        assert m.jacobian([0.01, 0.25]) == pytest.approx(
            0.5 * 0.25 ** (-1.5) * 0.25, rel=1e-12
        )

    def test_identity_gives_exactly_one(self):
        for n in (2, 3):
            m = CuspMap(h1_domain(n), a=1.0)
            pts = interior_sample(np.random.default_rng(2), n, 100)
            assert np.all(m.jacobian(pts) == 1.0)

    def test_matches_finite_difference_determinant(self):
        # the planar map, and an anisotropic 3-D map
        cases = [
            (CuspMap(HG, a=0.5), interior_sample(np.random.default_rng(3), 2, 1000)),
            (
                CuspMap(CuspDomain(dim=3, exponents=(2.0, 1.5)), a=0.7),
                interior_sample(np.random.default_rng(4), 3, 200),
            ),
        ]
        for m, pts in cases:
            jac = m.jacobian(pts)
            for x, j in zip(pts, jac):
                fd = fd_jacobian_det(m, x)
                assert abs(fd - j) / abs(j) < 1e-6

    def test_rejects_zero_height(self):
        m = CuspMap(HG, a=0.5)
        with pytest.raises(ZeroDivisionError):
            m.jacobian([0.0, 0.0])


class TestQuasiisometry:
    def test_identity(self):
        rep = check_quasiisometry(CuspMap(h1_domain(2), a=1.0))
        assert rep.verdict == "satisfied"
        assert rep.q_estimate == pytest.approx(1.0, abs=1e-6)
        assert rep.jacobian_consistent

    def test_linear_scaling(self):
        class Twice:
            dim = 2

            def apply(self, p):
                return 2.0 * np.asarray(p)

        rep = check_quasiisometry(Twice())
        assert rep.verdict == "satisfied"
        assert rep.q_estimate == pytest.approx(2.0, rel=1e-6)

    def test_cusp_map_violates(self):
        rep = check_quasiisometry(CuspMap(HG, a=0.5))
        assert rep.verdict == "violated"
        # Q estimates grow without bound toward the tip
        assert rep.scale_trace[-1] > 4.0 * rep.scale_trace[0]

    @staticmethod
    def band_slope(rep):
        return scaling_exponent(4.0 ** -np.arange(len(rep.scale_trace)), rep.scale_trace)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8, 0.95])
    def test_slope_of_cusp_map_is_a_minus_one(self, n, a):
        # |D(map)| grows like x_n**(a - 1) toward the tip
        for seed in range(4):
            rep = check_quasiisometry(CuspMap(h1_domain(n), a), seed=seed)
            assert abs(self.band_slope(rep) - (a - 1.0)) <= 0.06
            assert rep.verdict == "violated"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bi_lipschitz_maps_read_flat(self, n):
        class Dilation:
            dim = n

            def apply(self, p):
                return 2.0 * np.asarray(p)

        for mapping in (CuspMap(h1_domain(n), 1.0), Dilation()):
            for seed in range(4):
                rep = check_quasiisometry(mapping, seed=seed)
                assert abs(self.band_slope(rep)) < SLOPE_BAND
                assert rep.verdict == "satisfied"


class TestDistortionIntegrals:
    def test_thresholds_from_closed_forms(self):
        assert ia_exponent_q_threshold(2, 2.0, 0.0, 3.0, 0.5) == pytest.approx(1.6)
        assert ja_exponent_s_bound(2, 3.0, 0.0, 3.0, 0.5) == pytest.approx(2.25)

    @pytest.mark.parametrize("a", [0.0, -0.5, 1.5])
    def test_bending_outside_unit_interval_rejected_everywhere(self, a):
        with pytest.raises(ValueError, match="bending exponent"):
            ia_exponent_q_threshold(2, 2.0, 0.0, 3.0, a)
        with pytest.raises(ValueError, match="bending exponent"):
            ja_exponent_s_bound(2, 3.0, 0.0, 3.0, a)
        with pytest.raises(ValueError, match="bending exponent"):
            distortion_Ia(2.0, 1.2, a, 0.0, HG)
        with pytest.raises(ValueError, match="bending exponent"):
            jacobian_Ja(3.0, 2.0, a, 0.0, HG)
        with pytest.raises(ValueError, match="bending exponent"):
            CuspMap(HG, a)

    def test_bending_one_is_allowed(self):
        assert ia_exponent_q_threshold(2, 2.0, 0.0, 3.0, 1.0) == pytest.approx(4.0 / 3.0)
        assert ja_exponent_s_bound(2, 3.0, 0.0, 3.0, 1.0) == pytest.approx(4.5)

    def test_ia_dichotomy(self):
        below = distortion_Ia(2.0, 1.2, 0.5, 0.0, HG)
        assert below.verdict is Verdict.FINITE
        # reduced integrand at q=1.2 is t^{1/4}: value 0.8
        assert below.value == pytest.approx(0.8, rel=1e-3)
        above = distortion_Ia(2.0, 1.9, 0.5, 0.0, HG)
        assert above.verdict is Verdict.DIVERGENT

    def test_ja_dichotomy(self):
        below = jacobian_Ja(3.0, 2.0, 0.5, 0.0, HG)
        assert below.verdict is Verdict.FINITE
        # reduced integrand at s=2 is t^{-1/2}: value 2
        assert below.value == pytest.approx(2.0, rel=1e-3)
        above = jacobian_Ja(3.0, 2.5, 0.5, 0.0, HG)
        assert above.verdict is Verdict.DIVERGENT

    def test_ia_flip_monotone_in_q(self):
        verdicts = [
            distortion_Ia(2.0, q, 0.5, 0.0, HG).verdict for q in np.linspace(1.05, 1.95, 10)
        ]
        flips = [
            (a, b) for a, b in zip(verdicts, verdicts[1:]) if a is not b
        ]
        assert Verdict.FINITE not in [b for _, b in flips]  # never flips back to finite
        assert verdicts[0] is Verdict.FINITE and verdicts[-1] is Verdict.DIVERGENT

    def test_ja_flip_monotone_in_s(self):
        verdicts = [
            jacobian_Ja(3.0, s, 0.5, 0.0, HG).verdict for s in np.linspace(1.2, 2.9, 10)
        ]
        first_div = verdicts.index(Verdict.DIVERGENT)
        assert all(v is Verdict.DIVERGENT for v in verdicts[first_div:])
        assert all(v is Verdict.FINITE for v in verdicts[:first_div])

    def test_identity_parameters_finite_for_all_q(self):
        h1 = h1_domain(2)
        for q in (1.0, 1.3, 1.7, 1.95):
            v = distortion_Ia(2.0, q, 1.0, 0.0, h1)
            assert v.verdict is Verdict.FINITE

    @pytest.mark.parametrize("q,beta", [(1.85, -7.0 / 15.0), (1.8727, -0.9421838)])
    def test_near_threshold_finite_in_3d(self, q, beta):
        # the reduced integrand is t**beta; the cross-section power must be
        # folded into it, or its factors under- and overflow at deep levels
        v = distortion_Ia(2.0, q, 0.8, 0.5, CuspDomain(dim=3, exponents=(1.0, 1.0)))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(1.0 / (beta + 1.0), rel=2e-3)

    def test_exponent_preconditions(self):
        with pytest.raises(ValueError):
            distortion_Ia(2.0, 2.0, 0.5, 0.0, HG)  # q >= p
        with pytest.raises(ValueError):
            jacobian_Ja(3.0, 3.0, 0.5, 0.0, HG)  # s >= r

    def test_report_bundle(self):
        rep = distortion_report(2.0, 1.2, 3.0, 2.0, 0.5, 0.0, HG)
        assert rep.q_threshold == pytest.approx(1.6)
        assert rep.s_bound == pytest.approx(2.25)
        d = rep.to_dict()
        assert d["Ia"]["verdict"] == "finite"
        assert d["Ja"]["verdict"] == "finite"


# the drawn queries: n in {2, 3}, p, alpha, gamma >= n and a, with the
# exponent a factor of its threshold that is at least 0.1% away from 1
QUERIES = dict(
    n=st.sampled_from([2, 3]),
    p=st.floats(1.5, 3.0),
    alpha=st.floats(-0.5, 1.5),
    extra=st.floats(0.0, 2.0),
    a=st.floats(0.5, 1.0),
    factor=st.floats(0.5, 0.999) | st.floats(1.001, 1.5),
)


def ia_beta(n, p, q, a, alpha, gamma):
    """Ia's reduced exponent, in exact rationals of the float arguments."""
    p, q, a, alpha, gamma = map(Fraction, (p, q, a, alpha, gamma))
    k = q / (p - q)
    return (p * (a - 1) - a * (alpha + 1) + n) * k + n - 1 - a * k * (gamma - 1)


def ja_beta(n, r, s, a, alpha, gamma):
    """Ja's reduced exponent, in exact rationals of the float arguments."""
    r, s, a, alpha, gamma = map(Fraction, (r, s, a, alpha, gamma))
    k = r / (r - s)
    return (a * (alpha + 1) - n) * k + n - 1 + a * k * (gamma - 1)


def assert_closed_form(v, beta):
    """``∫_0^1 t**beta dt``: ``1/(beta+1)`` to 1e-12 relative when beta > -1,
    divergent otherwise, with an empty trace either way."""
    assert v.trace == ()
    if beta > -1:
        assert v.verdict is Verdict.FINITE
        assert abs(Fraction(v.value) * (beta + 1) - 1) <= Fraction(1, 10**12)
    else:
        assert v.verdict is Verdict.DIVERGENT
        assert v.value == math.inf


class TestThresholdProperties:
    """Outside a 0.1% margin, the distortion verdicts are the sign the closed
    forms give: Ia is finite iff q < q*, Ja iff s < s*.  Each is the closed
    form of ``∫_0^1 t**beta dt`` for the exact reduced exponent."""

    @settings(max_examples=60, deadline=None)
    @given(**QUERIES)
    def test_ia_verdict_is_threshold_sign(self, n, p, alpha, extra, a, factor):
        gamma = n + extra
        q = factor * ia_exponent_q_threshold(n, p, alpha, gamma, a)
        assume(1.0 <= q < p)
        domain = CuspDomain.isotropic(n, gamma)
        v = distortion_Ia(p, q, a, alpha, domain)
        assert v.verdict is (Verdict.FINITE if factor < 1.0 else Verdict.DIVERGENT)
        assert_closed_form(v, ia_beta(n, p, q, a, alpha, domain.gamma))

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(2.0, 4.0), **QUERIES)
    def test_ja_verdict_is_threshold_sign(self, n, p, alpha, extra, a, factor, r):
        gamma = n + extra
        s = factor * ja_exponent_s_bound(n, r, alpha, gamma, a)
        assume(s < r)
        domain = CuspDomain.isotropic(n, gamma)
        v = jacobian_Ja(r, s, a, alpha, domain)
        assert v.verdict is (Verdict.FINITE if factor < 1.0 else Verdict.DIVERGENT)
        assert_closed_form(v, ja_beta(n, r, s, a, alpha, domain.gamma))


class TestClosedForm:
    """Exponents where the refinement ladder the closed form replaced was
    wrong."""

    @pytest.mark.parametrize(
        "n,p,alpha,gamma,a,q,value",
        [
            # beta = 71.225: the refinement ladder read 0.003262, 76% off
            (3, 2.0, 0.25, 4.0, 0.3, 1.990654, 0.013846),
            # beta = -0.99875: the ladder ended inconclusive
            (2, 2.0, 0.0, 3.0, 0.5, 1.5998, 800.4),
            # q clipped to p(1 - 1e-9), beta about 5e8: the ladder read 0.0
            (2, 2.0, -0.5, 2.0, 1.0, 2.0 * (1 - 1e-9), 2e-9),
        ],
        ids=["beta-71", "beta-near-minus-1", "q-clipped"],
    )
    def test_ia_where_the_ladder_was_wrong(self, n, p, alpha, gamma, a, q, value):
        domain = CuspDomain.isotropic(n, gamma)
        v = distortion_Ia(p, q, a, alpha, domain)
        assert_closed_form(v, ia_beta(n, p, q, a, alpha, domain.gamma))
        assert v.value == pytest.approx(value, rel=1e-4)
