import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from cusplab.geometry import Box, h1_domain
from cusplab.mollifier import (
    MollifierKernel,
    MollifySpec,
    SmoothField,
    _bump_mass,
    commutation_check,
    convergence_test,
    inset_contains,
    mollify,
)
from cusplab.weights import Weight

SQUARE = Box((0.0, 0.0), (1.0, 1.0))
SPEC = MollifySpec(r=0.1, delta=0.15)


def sample_lattice(lo=0.3, hi=0.7, k=5):
    xs = np.linspace(lo, hi, k)
    return np.array([[x, y] for x in xs for y in xs])


class TestKernel:
    def test_unit_mass_against_independent_quadrature(self):
        k = MollifierKernel(dim=2)
        mass, _ = dblquad(
            lambda y, x: k.profile(np.array([[x, y]]))[0], -1, 1, -1, 1, epsabs=1e-12
        )
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mass_matches_mpmath(self, dim):
        # the radial integral of exp(-1/(1-r**2)) r**(dim-1) times the sphere
        with mp.workdps(30):
            d = mp.mpf(dim)
            radial = mp.quad(lambda r: mp.exp(-1 / (1 - r * r)) * r ** (d - 1), [0, 1])
            exact = float(radial * 2 * mp.pi ** (d / 2) / mp.gamma(d / 2))
        assert _bump_mass(dim) == pytest.approx(exact, rel=4e-15, abs=0.0)

    def test_kernel_nonnegative_and_supported_in_ball(self):
        k = MollifierKernel(dim=2)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, (500, 2))
        vals = k.profile(pts)
        assert np.all(vals >= 0.0)
        outside = np.linalg.norm(pts, axis=1) >= 1.0
        assert np.all(vals[outside] == 0.0)

    def test_spec_validates_radius(self):
        with pytest.raises(ValueError):
            MollifySpec(r=0.2, delta=0.1)


class TestMollify:
    def test_constant_reproduced(self):
        c = mollify(lambda p: np.full(len(p), 3.7), SPEC, [0.5, 0.5], region=SQUARE)
        assert c == pytest.approx(3.7, rel=1e-3, abs=0)

    def test_linear_reproduced_by_symmetry(self):
        v = mollify(lambda p: p[:, 0] + 2.0 * p[:, 1], SPEC, [0.4, 0.6], region=SQUARE)
        assert v == pytest.approx(1.6, rel=1e-3, abs=0)

    def test_quadratic_second_moment(self):
        # A_r |x|^2 at 0 equals r^2 times the kernel's second moment
        # ∫ |z|^2 ω(z) dz, here in polar form over the unit disc
        bump = lambda r: math.exp(-1.0 / (1.0 - r * r))
        mass = quad(lambda r: bump(r) * r, 0, 1)[0]
        second_moment = quad(lambda r: bump(r) * r**3, 0, 1)[0] / mass
        spec = MollifySpec(r=0.1, delta=0.2)
        v = mollify(lambda p: np.sum(p**2, axis=1), spec, [0.0, 0.0])
        assert v == pytest.approx(0.01 * second_moment, rel=1e-3, abs=0)

    def test_point_too_close_to_boundary(self):
        with pytest.raises(ValueError):
            mollify(lambda p: np.ones(len(p)), SPEC, [0.05, 0.5], region=SQUARE)

    def test_sup_bound(self):
        f = lambda p: np.sin(7 * p[:, 0]) * np.cos(5 * p[:, 1])
        pts = sample_lattice()
        from cusplab.mollifier import mollify_many

        k = MollifierKernel(dim=2)
        vals = mollify_many(f, 0.1, pts, k)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-4  # kernel is a probability density

    def test_pointwise_linearity(self):
        f = lambda p: np.sin(p[:, 0])
        g = lambda p: p[:, 1] ** 2
        combo = lambda p: 2.0 * f(p) + 3.0 * g(p)
        x = [0.5, 0.4]
        vf = mollify(f, SPEC, x)
        vg = mollify(g, SPEC, x)
        vc = mollify(combo, SPEC, x)
        assert vc == pytest.approx(2.0 * vf + 3.0 * vg, rel=1e-12, abs=0)


class TestFromString:
    PTS = np.array([[0.3, 0.7], [0.9, 0.2], [0.55, 0.55]])

    def test_x_y_spell_x0_x1(self):
        a = SmoothField.from_string("exp(x/2)*sin(y) + x*y**2", 2)
        b = SmoothField.from_string("exp(x0/2)*sin(x1) + x0*x1**2", 2)
        for alpha in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert np.array_equal(a.derivative(alpha)(self.PTS), b.derivative(alpha)(self.PTS))

    @pytest.mark.parametrize(
        "text,dim,name",
        [("sin(t)", 2, "'t'"), ("x0 + x2", 2, "'x2'"), ("x + y", 1, "'y'"), ("a*b", 2, "'a'")],
    )
    def test_unknown_variable_is_named(self, text, dim, name):
        with pytest.raises(ValueError, match=f"unknown variable {name}"):
            SmoothField.from_string(text, dim)

    @pytest.mark.parametrize("text", ["x0*", "", "1e", "sin(x0", "x0 = 1"])
    def test_syntax_error_is_value_error(self, text):
        with pytest.raises(ValueError):
            SmoothField.from_string(text, 2)

    @pytest.mark.parametrize("text", ["tan", "S", "Id", "I*x0", "nan", "oo", "1/0", "x0 + zoo"])
    def test_no_real_finite_formula(self, text):
        with pytest.raises(ValueError, match="not a real, finite formula"):
            SmoothField.from_string(text, 2)

    def test_constants_are_formulas(self):
        f = SmoothField.from_string("pi + E*x", 2)
        assert np.allclose(f(self.PTS), np.pi + np.e * self.PTS[:, 0], rtol=1e-15)


class TestCommutation:
    def test_polynomial_first_order(self):
        f = SmoothField.from_string("x0**3 + 2*x0*x1**2 - x1**3", 2)
        d = commutation_check(f, (1, 0), SPEC, sample_lattice(), step=1e-4)
        assert d < 1e-6

    def test_constant_function_both_sides_zero(self):
        f = SmoothField.from_string("5.0", 2)
        assert commutation_check(f, (1, 0), SPEC, sample_lattice()) == 0.0
        assert commutation_check(f, (2, 0), SPEC, sample_lattice()) == 0.0

    def test_sine_second_order(self):
        f = SmoothField.from_string("sin(x0)", 2)
        d = commutation_check(f, (2, 0), SPEC, sample_lattice(), step=1e-4)
        assert d < 1e-6

    def test_all_multiindices_up_to_two(self):
        f = SmoothField.from_string("exp(x0/2)*sin(x1) + x0*x1", 2)
        for alpha in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
            assert commutation_check(f, alpha, SPEC, sample_lattice(), step=1e-4) < 1e-6

    def test_second_order_in_step(self):
        # central differences: discrepancy should shrink ~quadratically
        f = SmoothField.from_string("sin(2*x0)*x1**2", 2)
        pts = sample_lattice(k=3)
        d_coarse = commutation_check(f, (1, 0), SPEC, pts, step=1e-2)
        d_fine = commutation_check(f, (1, 0), SPEC, pts, step=1e-3)
        assert d_fine < d_coarse / 20.0


class TestConvergence:
    def test_constant_function_zero_error(self):
        seq = convergence_test(
            lambda p: np.full(len(p), 2.0), None, 2.0, 0.15, [0.1, 0.05], SQUARE
        )
        assert all(v < 1e-3 for _, v in seq)

    def test_lipschitz_decay_weighted(self):
        w = Weight.polynomial(1.0, 2)
        f = lambda p: np.linalg.norm(p - np.array([0.7, 0.7]), axis=-1)
        seq = convergence_test(f, w, 2.0, 0.15, [0.1, 0.05, 0.025, 0.0125], SQUARE)
        norms = [v for _, v in seq]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_coordinate_function_weighted(self):
        # linear functions mollify to themselves up to quadrature noise
        w = Weight.polynomial(1.0, 2)
        seq = convergence_test(lambda p: p[:, 0], w, 2.0, 0.15, [0.1, 0.05, 0.025], SQUARE)
        assert all(v < 1e-3 for _, v in seq)

    def test_h1_inset_region(self):
        f = lambda p: np.linalg.norm(p - np.array([0.25, 0.75]), axis=-1)
        seq = convergence_test(f, None, 2.0, 0.12, [0.08, 0.04, 0.02], h1_domain(2))
        norms = [v for _, v in seq]
        assert all(b < a * 1.001 for a, b in zip(norms, norms[1:]))

    def test_radius_must_stay_below_delta(self):
        with pytest.raises(ValueError):
            convergence_test(lambda p: p[:, 0], None, 2.0, 0.05, [0.1], SQUARE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "radii, cells, message",
        [([0.1], 0, "cells >= 1"), ([0.1], -3, "cells >= 1"), ([], 64, "at least one radius")],
        ids=["no-cells", "negative-cells", "no-radii"],
    )
    def test_range_rules_raise_before_any_work(self, radii, cells, message):
        with pytest.raises(ValueError, match=message):
            convergence_test(lambda p: p[:, 0], None, 2.0, 0.15, radii, SQUARE, cells=cells)


class TestInset:
    def test_box_inset(self):
        assert inset_contains(SQUARE, (0.5, 0.5), 0.2)
        assert not inset_contains(SQUARE, (0.1, 0.5), 0.2)

    def test_h1_inset(self):
        h1 = h1_domain(2)
        assert inset_contains(h1, (0.25, 0.75), 0.1)
        assert not inset_contains(h1, (0.45, 0.5), 0.1)  # near the hypotenuse
