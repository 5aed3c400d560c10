import numpy as np
import pytest

from cusplab.cuspmap import (
    CuspMap,
    check_quasiisometry,
    distortion_Ia,
    distortion_report,
    ia_exponent_q_threshold,
    ja_exponent_s_bound,
    jacobian_Ja,
)
from cusplab.geometry import CuspDomain, Verdict, h1_domain


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

    def test_bijectivity_roundtrip(self):
        m = CuspMap(HG, a=0.5)
        pts = interior_sample(np.random.default_rng(1), 2, 500)
        back = m.apply_inverse(m.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-10

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
        m = CuspMap(HG, a=0.5)
        pts = interior_sample(np.random.default_rng(3), 2, 1000)
        jac = m.jacobian(pts)
        for x, j in zip(pts, jac):
            fd = fd_jacobian_det(m, x)
            assert abs(fd - j) / abs(j) < 1e-6

    def test_matches_derivative_matrix_determinant(self):
        m = CuspMap(CuspDomain(dim=3, exponents=(2.0, 1.5)), a=0.7)
        pts = interior_sample(np.random.default_rng(4), 3, 200)
        dets = np.linalg.det(m.derivative_matrix(pts))
        assert np.allclose(dets, m.jacobian(pts), rtol=1e-12)

    def test_rejects_zero_height(self):
        m = CuspMap(HG, a=0.5)
        with pytest.raises(ZeroDivisionError):
            m.jacobian([0.0, 0.0])


class TestDerivativeNorm:
    def test_identity_norm_one(self):
        m = CuspMap(h1_domain(2), a=1.0)
        pts = interior_sample(np.random.default_rng(5), 2, 50)
        assert np.allclose(m.derivative_norm(pts), 1.0)

    def test_blowup_envelope(self):
        m = CuspMap(HG, a=0.5)
        c1 = m.derivative_norm_bound_constant()
        pts = interior_sample(np.random.default_rng(6), 2, 400)
        norms = m.derivative_norm(pts)
        assert np.all(norms <= c1 * pts[:, -1] ** (m.a - 1.0) + 1e-12)
        assert np.all(np.isfinite(norms))

    def test_matches_finite_differences(self):
        m = CuspMap(HG, a=0.5)
        pts = interior_sample(np.random.default_rng(7), 2, 50)
        h = 1e-6
        for x in pts:
            J = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                J[:, j] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
            assert abs(np.linalg.norm(J, 2) - m.derivative_norm(x)) < 1e-4


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


class TestDistortionIntegrals:
    def test_thresholds_from_closed_forms(self):
        assert ia_exponent_q_threshold(2, 2.0, 0.0, 3.0, 0.5) == pytest.approx(1.6)
        assert ja_exponent_s_bound(2, 3.0, 0.0, 3.0, 0.5) == pytest.approx(2.25)

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


class TestScaledProfiles:
    def test_scaled_profile_jacobian_consistency(self):
        dom = CuspDomain(dim=2, exponents=(2.0,), scale_bounds=(0.7, 0.7))
        m = CuspMap(dom, a=0.6)
        pts = interior_sample(np.random.default_rng(11), 2, 300)
        dets = np.linalg.det(m.derivative_matrix(pts))
        assert np.allclose(dets, m.jacobian(pts), rtol=1e-12)

    def test_scaled_profile_image_domain(self):
        dom = CuspDomain(dim=2, exponents=(2.0,), scale_bounds=(0.7, 0.7))
        m = CuspMap(dom, a=0.6)
        assert m.image.scale_bounds[1] == pytest.approx(0.7**0.6)
        pts = interior_sample(np.random.default_rng(12), 2, 200)
        for y in m.apply(pts):
            assert m.image.contains(y)

    def test_scaled_roundtrip(self):
        dom = CuspDomain(dim=2, exponents=(2.0,), scale_bounds=(0.5, 0.9))
        m = CuspMap(dom, a=0.4)
        pts = interior_sample(np.random.default_rng(13), 2, 200)
        back = m.apply_inverse(m.apply(pts))
        assert np.max(np.abs(back - pts)) < 1e-10
