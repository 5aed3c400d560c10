import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.exponents import EmbeddingQuery
from cusplab.geometry import CuspDomain
from cusplab.probe import (
    TrialFamily,
    embedding_ratio,
    probe_scales,
    run_probe,
)
from cusplab.weights import Weight

Q230 = EmbeddingQuery(2, 2, 0, 3)
HG = CuspDomain(dim=2, exponents=(2.0,))
W0 = Weight.polynomial(0.0, 2)


class TestEmbeddingRatio:
    def test_weight_of_another_dimension_rejected(self):
        u = TrialFamily("tip_bump").member(1e-2)
        with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
            embedding_ratio(u, 2.0, 5.0, Weight.polynomial(0.0, 3), HG)

    def test_scale_invariance(self):
        fam = TrialFamily("tip_bump")
        u = fam.member(1e-2)
        base = embedding_ratio(u, 2.0, 5.0, W0, HG)

        from cusplab.probe import TrialFunction

        for c in (3.0, 0.2):
            scaled = TrialFunction(
                value=lambda r, c=c: c * u.value(r),
                grad=lambda p, r, c=c: c * u.grad(p, r),
                breaks=u.breaks,
            )
            assert embedding_ratio(scaled, 2.0, 5.0, W0, HG) == pytest.approx(
                base, rel=1e-9, abs=0
            )

    def test_alpha_zero_matches_unweighted_path(self):
        fam = TrialFamily("tip_bump")
        u = fam.member(1e-2)
        a = embedding_ratio(u, 2.0, 4.0, W0, HG)
        b = embedding_ratio(u, 2.0, 4.0, Weight.polynomial(0.0, 2), HG)
        assert a == b

    def test_power_spike_family(self):
        fam = TrialFamily("power_spike", beta=0.45)
        u = fam.member(1e-3)
        r = embedding_ratio(u, 2.0, 5.0, W0, HG)
        assert math.isfinite(r) and r > 0.0

    @pytest.mark.parametrize("beta", [0.45, 20.0])
    def test_power_spike_cap_is_the_float_power(self, beta):
        # inside eps the spike is its cap eps**-beta, less the outer level
        for eps in np.geomspace(1e-1, 1e-5, 9):
            u = TrialFamily("power_spike", beta=beta).member(float(eps))
            with np.errstate(over="ignore"):
                inner = u.value(np.array([0.0, 0.5 * eps]))
            assert np.all(inner == float(eps) ** -beta - 0.5**-beta)

    def test_power_spike_cap_past_the_float_range_is_inf(self):
        # 1e-5**-70 is past 1.8e308: the member builds and is uncapped
        u = TrialFamily("power_spike", beta=70.0).member(1e-5)
        with np.errstate(over="ignore"):
            vals = u.value(np.array([0.0, 1e-5, 0.25]))
        assert vals[0] == vals[1] == math.inf
        assert vals[2] == 0.25**-70.0 - 0.5**-70.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            TrialFamily("mystery")
        with pytest.raises(ValueError):
            TrialFamily("power_spike")

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf])
    def test_power_spike_needs_positive_finite_beta(self, beta):
        # at beta <= 0 the spike's value is 0 everywhere but its grad is not
        with pytest.raises(ValueError, match="beta > 0"):
            TrialFamily("power_spike", beta=beta)
        with pytest.raises(ValueError, match="beta > 0"):
            run_probe(Q230, 5.0, family_kind="power_spike", beta=beta)


class TestRunProbe:
    def test_below_threshold_bounded(self):
        rep = run_probe(Q230, 5.0)
        assert rep.verdict == "bounded"
        # kappa(5) = 3/5 - 3/2 + 1
        assert rep.kappa_fit == pytest.approx(0.1, abs=5e-3)

    def test_above_threshold_blow_up(self):
        rep = run_probe(Q230, 7.0)
        assert rep.verdict == "blow_up"
        # kappa(7) = 3/7 - 3/2 + 1
        assert rep.kappa_fit == pytest.approx(3 / 7 - 0.5, abs=5e-3)

    def test_blow_up_requires_growth_margin(self):
        rep = run_probe(Q230, 7.0)
        i_two = next(
            i for i, (e, _) in enumerate(rep.ratios) if abs(e / (rep.ratios[-1][0] * 100) - 1) < 1e-9
        )
        assert rep.ratios[-1][1] >= 1.3 * rep.ratios[i_two][1]

    def test_verdict_monotone_in_s(self):
        verdicts = [run_probe(Q230, s).verdict for s in (4.0, 4.8, 7.2, 8.0)]
        first_blow = verdicts.index("blow_up")
        assert all(v == "blow_up" for v in verdicts[first_blow:])
        assert all(v == "bounded" for v in verdicts[:first_blow])

    def test_classical_regime_sanity(self):
        # Lipschitz domain (gamma = n), p = 1.5: classical ceiling np/(n-p) = 6
        q = EmbeddingQuery(2, 1.5, 0, 2)
        rep = run_probe(q, 5.0)
        assert rep.verdict == "bounded"

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            run_probe(Q230, 5.0, epsilons=[1e-1, 1e-2])
        with pytest.raises(ValueError):
            run_probe(Q230, 5.0, epsilons=np.geomspace(1e-1, 1e-3, 5))

    def test_scales_above_one_are_rejected(self):
        # such a support passes the cusp's top t = 1, where the fitted rule
        # converges only algebraically
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            run_probe(Q230, 5.0, epsilons=np.geomspace(2.0, 1e-4, 5))
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            probe_scales([1e-5, 1.0 + 1e-12, 1e-2])
        assert probe_scales(np.geomspace(1e-4, 1.0, 5))[0] == 1.0

    def test_report_serializable(self):
        rep = run_probe(Q230, 5.0)
        d = rep.to_dict()
        assert d["verdict"] == "bounded"
        assert len(d["ratios"]) == 9


class TestWeightedProbe:
    def test_weighted_query_verdicts(self):
        # weight |x| shifts the ceiling to (1+3)*2/(1+3-2) = 4
        q = EmbeddingQuery(2, 2, 1, 3)
        assert run_probe(q, 3.2).verdict == "bounded"
        assert run_probe(q, 5.0).verdict == "blow_up"


class TestFittedExponent:
    """The tip bump's ratio behaves like eps**kappa with the closed form
    kappa(s) = (alpha+gamma)/s - (alpha+gamma)/p + 1, zero at the Thm 6
    ceiling s* = (alpha+gamma)p/(alpha+gamma-p)."""

    @settings(max_examples=12, deadline=None)
    @given(
        p=st.floats(1.6, 2.2),
        alpha=st.floats(0.0, 1.0),
        total=st.floats(3.5, 5.0),  # alpha + gamma
        factor=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 1.5)),  # s / s*
    )
    def test_kappa_fit_matches_closed_form(self, p, alpha, total, factor):
        s = factor * total * p / (total - p)
        kappa = total / s - total / p + 1.0
        rep = run_probe(EmbeddingQuery(2, p, alpha, total - alpha), s)
        assert abs(rep.kappa_fit - kappa) <= 5e-3
        assert rep.verdict == ("bounded" if kappa > 0.0 else "blow_up")

    def test_band_around_the_ceiling(self):
        # kappa(s) = 3/s - 1/2 for Q230, whose ceiling is 6
        verdicts = {k: run_probe(Q230, 6.0 * k / 100).verdict for k in range(90, 111)}
        assert all(verdicts[k] == "bounded" for k in range(90, 99))
        assert all(verdicts[k] == "inconclusive" for k in range(99, 103))
        assert all(verdicts[k] == "blow_up" for k in range(103, 111))
