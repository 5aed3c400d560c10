import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.geometry import (
    Ball,
    Box,
    CuspDomain,
    DEFAULT_SCHEDULE,
    EvaluationError,
    GROWTH,
    RefinementSchedule,
    Verdict,
    _level_args,
    fixed_grid_sum,
    grid,
    h1_domain,
    integrate,
    unit_interval,
)


def ones(p):
    return np.ones(len(p))


class TestDomains:
    def test_cusp_membership(self):
        dom = CuspDomain(dim=2, exponents=(2.0,))
        assert dom.contains((0.01, 0.5))  # 0.01 < 0.25
        assert not dom.contains((0.3, 0.5))  # 0.3 > 0.25
        assert h1_domain(2).contains((0.4, 0.5))

    def test_membership_dimension_mismatch(self):
        dom = CuspDomain(dim=2, exponents=(2.0,))
        with pytest.raises(ValueError):
            dom.contains((0.1, 0.2, 0.3))

    def test_aggregate_gamma(self):
        assert CuspDomain(dim=2, exponents=(2.0,)).gamma == 3.0
        assert h1_domain(3).gamma == 3.0  # Lipschitz case: gamma = n
        assert CuspDomain(dim=3, exponents=(2.0, 3.0)).gamma == 6.0

    def test_gamma_at_least_dimension(self):
        for n in (2, 3, 4):
            assert h1_domain(n).gamma == n
            dom = CuspDomain(dim=n, exponents=(1.5,) * (n - 1))
            assert dom.gamma >= n
            assert dom.sigma >= 1.0

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError):
            CuspDomain(dim=2, exponents=(0.5,))
        with pytest.raises(ValueError):
            CuspDomain(dim=2, exponents=(1.0, 1.0))

    def test_box_membership(self):
        b = Box((0.0, 0.0), (1.0, 2.0))
        assert b.contains((0.5, 1.5))
        assert not b.contains((1.5, 0.5))
        assert b.volume == 2.0


class TestGrids:
    def test_uniform_box_grid(self):
        g = grid(Box((0.0,), (1.0,)), 0.0, 12, 8)
        assert np.allclose(g.widths, g.widths[0])  # no singular axis: uniform
        assert g.total_measure() == pytest.approx(1.0)

    def test_h1_grid_finer_near_singular_face(self):
        g = grid(h1_domain(2), 3.0, 12, 32)
        t = g.centers[:, -1]
        wt = g.widths[:, -1]
        order = np.argsort(t)
        assert wt[order][0] < wt[order][-1] / 100.0
        assert g.total_measure() == pytest.approx(0.5, rel=1e-2)

    def test_cusp_grid_total_measure(self):
        dom = CuspDomain(dim=2, exponents=(2.0,))
        g = grid(dom, 10.0, 12, 64)
        assert g.total_measure() == pytest.approx(1.0 / 3.0, rel=1e-2)

    def test_cell_count_monotone_in_levels(self):
        counts = [
            grid(h1_domain(2), *_level_args(h1_domain(2), DEFAULT_SCHEDULE, k)).cell_count
            for k in range(5)
        ]
        assert all(c2 > c1 for c1, c2 in zip(counts, counts[1:]))

    def test_isotropic_cusp(self):
        dom = CuspDomain.isotropic(3, 4.0)
        assert dom.exponents == (1.5, 1.5)
        assert dom.gamma == 4.0
        assert CuspDomain.isotropic(2, 2) == h1_domain(2)


class TestIntegrate:
    def test_constant_on_h1(self):
        v = integrate(ones, h1_domain(2))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(0.5, rel=1e-3)

    def test_inverse_sqrt_on_h1(self):
        v = integrate(lambda p: p[:, 1] ** -0.5, h1_domain(2))
        assert v.verdict is Verdict.FINITE
        assert v.value == pytest.approx(2.0 / 3.0, rel=2e-3)

    def test_inverse_square_divergent(self):
        # reduced 1-D integrand is 1/x_n: logarithmic divergence
        v = integrate(lambda p: p[:, 1] ** -2.0, h1_domain(2))
        assert v.verdict is Verdict.DIVERGENT

    def test_power_oracles_on_interval(self):
        v = integrate(lambda p: p[:, 0] ** 0.25, unit_interval())
        assert v.value == pytest.approx(0.8, rel=1e-3)
        v = integrate(lambda p: p[:, 0] ** -0.5, unit_interval())
        assert v.value == pytest.approx(2.0, rel=1e-3)

    def test_divergence_spectrum(self):
        for expo in (-1.0, -1.05, -1.5, -3.0):
            v = integrate(lambda p, e=expo: p[:, 0] ** e, unit_interval())
            assert v.verdict is Verdict.DIVERGENT, expo
        for expo in (-0.9, -0.5, 0.0, 2.0):
            v = integrate(lambda p, e=expo: p[:, 0] ** e, unit_interval())
            assert v.verdict is Verdict.FINITE, expo

    def test_log_divergence_with_regular_part(self):
        v = integrate(lambda p: 100.0 + p[:, 0] ** -1.0, unit_interval())
        assert v.verdict is Verdict.DIVERGENT

    def test_inconclusive_near_boundary_exponent(self):
        v = integrate(lambda p: p[:, 0] ** -0.999, unit_interval())
        assert v.verdict is Verdict.INCONCLUSIVE

    def test_finite_requires_trace_agreement(self):
        v = integrate(lambda p: p[:, 0] ** 0.25, unit_interval(), tol=1e-3)
        assert abs(v.trace[-1] - v.trace[-2]) <= 1e-3 * abs(v.trace[-1])

    def test_divergent_requires_trace_growth(self):
        v = integrate(lambda p: p[:, 0] ** -1.5, unit_interval())
        assert abs(v.trace[-1]) >= GROWTH * abs(v.trace[-2])
        assert abs(v.trace[-2]) >= GROWTH * abs(v.trace[-3])

    def test_zero_integrand(self):
        v = integrate(lambda p: np.zeros(len(p)), unit_interval())
        assert v.verdict is Verdict.FINITE and v.value == 0.0

    def test_linearity(self):
        f = lambda p: p[:, 0] ** -0.5
        g = lambda p: p[:, 0] ** 0.25
        combo = integrate(lambda p: 2.0 * f(p) + 3.0 * g(p), unit_interval())
        assert combo.verdict is Verdict.FINITE
        assert combo.value == pytest.approx(2.0 * 2.0 + 3.0 * 0.8, rel=3e-3)

    def test_non_finite_interior_value_raises(self):
        def bad(p):
            out = np.ones(len(p))
            out[len(p) // 2] = np.nan
            return out

        with pytest.raises(EvaluationError):
            integrate(bad, unit_interval())

    def test_ball_integral(self):
        v = integrate(ones, Ball((0.0, 0.0), 1.0))
        assert v.value == pytest.approx(math.pi, rel=1e-3)

    def test_verdict_serializable(self):
        v = integrate(ones, unit_interval())
        d = v.to_dict()
        assert set(d) == {"value", "verdict", "trace"}
        assert d["verdict"] == "finite"


class TestRefinementProperties:
    def test_accuracy_nonincreasing_on_analytic_set(self):
        # smooth integrands on a box: midpoint error is O(h^2), strictly down
        box = Box((0.0,), (1.0,))
        cases = [
            (lambda p: p[:, 0] ** 2, 1.0 / 3.0),
            (lambda p: np.sin(p[:, 0]), 1.0 - math.cos(1.0)),
            (lambda p: np.exp(p[:, 0]), math.e - 1.0),
        ]
        for f, exact in cases:
            errs = [
                abs(fixed_grid_sum(f, grid(box, 0.0, 12, 4 * 2**k)) - exact)
                for k in (3, 4, 5)
            ]
            assert errs[1] <= errs[0] and errs[2] <= errs[1]
        # graded path: the refinement tail shrinks toward the singular face
        for expo, exact in ((-0.5, 2.0), (-0.25, 4.0 / 3.0)):
            errs = [
                abs(
                    fixed_grid_sum(
                        lambda p, e=expo: p[:, 0] ** e,
                        grid(unit_interval(), 2.0 * k, 12, 1),
                    )
                    - exact
                )
                for k in (1, 2)
            ]
            assert errs[1] <= errs[0]

    def test_monotone_under_subdivision_for_convex_nonnegative(self):
        # midpoint sums of convex integrands grow toward the true value
        box = Box((0.0,), (1.0,))
        for f in (
            lambda p: p[:, 0] ** 2,
            lambda p: np.exp(p[:, 0]),
            lambda p: 1.0 / (1.0 + p[:, 0]),
        ):
            ests = [
                fixed_grid_sum(f, grid(box, 0.0, 12, 4 * 2**k))
                for k in (1, 2, 3, 4)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))


class TestDivergenceDiscrimination:
    def test_divergent_with_large_regular_part_in_higher_dimension(self):
        # ratios converge onto the deepening factor from above; the verdict
        # must land before the integrand overflows near the face
        dom = CuspDomain(dim=3, exponents=(2.0, 1.5))

        def f(p):
            return np.linalg.norm(p, axis=-1) ** -4.5

        v = integrate(f, dom)
        assert v.verdict is Verdict.DIVERGENT

    def test_near_boundary_exponents_stay_inconclusive(self):
        for expo in (-0.98, -0.999):
            v = integrate(lambda p, e=expo: p[:, 0] ** e, unit_interval())
            assert v.verdict is Verdict.INCONCLUSIVE, expo

    def test_overflow_during_growth_reads_divergent(self):
        # value overflows at deep levels, but the trace is already inflating
        def f(p):
            with np.errstate(over="ignore"):
                return p[:, 0] ** -120.0

        v = integrate(f, unit_interval())
        assert v.verdict is Verdict.DIVERGENT


DOMAINS = {
    "cusp": h1_domain(2),
    "cusp-3d": CuspDomain(dim=3, exponents=(2.0, 1.5)),
    "ball": Ball((0.1, -0.2), 0.5),
    "uniform-box": Box((0.0, 0.0), (1.0, 0.5)),
    "singular-box": Box((0.0, 0.0), (1.0, 1.0), singular_axis=1),
    "interval": unit_interval(),
}


class TestStoppingRule:
    def test_unbounded_window_rejected(self):
        with pytest.raises(ValueError):
            RefinementSchedule(max_decades=math.inf)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(DOMAINS)),
        start=st.floats(0.25, 4.0),
        deepest=st.floats(0.5, 8.0),
        panels=st.integers(1, 6),
        uniform=st.integers(1, 4),
    )
    def test_no_grid_is_evaluated_twice(self, kind, start, deepest, panels, uniform):
        domain = DOMAINS[kind]
        schedule = RefinementSchedule(
            start_decades=start, max_decades=deepest, panels_per_decade=panels,
            uniform_start=uniform,
        )
        expected = [_level_args(domain, schedule, 0)]
        while (nxt := _level_args(domain, schedule, len(expected))) != expected[-1]:
            expected.append(nxt)
        seen = []

        def alternating(pts):
            # estimates 1, 2, 1, 2, ... times the measure: never agree,
            # never grow, so only the stopping rule ends the ladder
            seen.append(pts.tobytes())
            return np.full(len(pts), 1.0 + len(seen) % 2)

        v = integrate(alternating, domain, schedule=schedule)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert len(seen) == len(expected)
        assert len(set(seen)) == len(seen)
