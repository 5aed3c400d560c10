import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from cusplab.exponents import ValidityError
from cusplab.geometry import Box, h1_domain
from cusplab.mollifier import (
    MollifierKernel,
    MollifySpec,
    SmoothField,
    _bump_mass,
    _inset_grid,
    commutation_check,
    convergence_test,
    inset_contains,
    mollify,
    mollify_many,
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

    @pytest.mark.parametrize("r, delta", [(0.2, 0.1), (0.0, 0.1), (-0.05, 0.1), (math.nan, 0.1)])
    def test_spec_radius_outside_range_is_a_validity_error(self, r, delta):
        with pytest.raises(ValidityError, match="0 < r < delta"):
            MollifySpec(r=r, delta=delta)


class TestMollify:
    def test_constant_reproduced(self):
        c = mollify(lambda x0, x1: 3.7, SPEC, [0.5, 0.5], region=SQUARE)
        assert c == pytest.approx(3.7, rel=1e-3, abs=0)

    def test_linear_reproduced_by_symmetry(self):
        v = mollify(lambda x0, x1: x0 + 2.0 * x1, SPEC, [0.4, 0.6], region=SQUARE)
        assert v == pytest.approx(1.6, rel=1e-3, abs=0)

    def test_quadratic_second_moment(self):
        # A_r |x|^2 at 0 equals r^2 times the kernel's second moment
        # ∫ |z|^2 ω(z) dz, here in polar form over the unit disc
        bump = lambda r: math.exp(-1.0 / (1.0 - r * r))
        mass = quad(lambda r: bump(r) * r, 0, 1)[0]
        second_moment = quad(lambda r: bump(r) * r**3, 0, 1)[0] / mass
        spec = MollifySpec(r=0.1, delta=0.2)
        v = mollify(lambda x0, x1: x0**2 + x1**2, spec, [0.0, 0.0])
        assert v == pytest.approx(0.01 * second_moment, rel=1e-3, abs=0)

    def test_point_too_close_to_boundary(self):
        with pytest.raises(ValueError):
            mollify(lambda x0, x1: 1.0, SPEC, [0.05, 0.5], region=SQUARE)

    def test_sup_bound(self):
        f = lambda x0, x1: np.sin(7 * x0) * np.cos(5 * x1)
        pts = sample_lattice()
        k = MollifierKernel(dim=2)
        vals = mollify_many(f, 0.1, pts, k)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-4  # kernel is a probability density

    def test_pointwise_linearity(self):
        f = lambda x0, x1: np.sin(x0)
        g = lambda x0, x1: x1**2
        combo = lambda x0, x1: 2.0 * f(x0, x1) + 3.0 * g(x0, x1)
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
            lambda x0, x1: 2.0, None, 2.0, 0.15, [0.1, 0.05], SQUARE
        )
        assert all(v < 1e-3 for _, v in seq)

    def test_lipschitz_decay_weighted(self):
        w = Weight.polynomial(1.0, 2)
        f = lambda x0, x1: np.sqrt((x0 - 0.7) ** 2 + (x1 - 0.7) ** 2)
        seq = convergence_test(f, w, 2.0, 0.15, [0.1, 0.05, 0.025, 0.0125], SQUARE)
        norms = [v for _, v in seq]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_coordinate_function_weighted(self):
        # linear functions mollify to themselves up to quadrature noise
        w = Weight.polynomial(1.0, 2)
        seq = convergence_test(lambda x0, x1: x0, w, 2.0, 0.15, [0.1, 0.05, 0.025], SQUARE)
        assert all(v < 1e-3 for _, v in seq)

    def test_h1_inset_region(self):
        f = lambda x0, x1: np.sqrt((x0 - 0.25) ** 2 + (x1 - 0.75) ** 2)
        seq = convergence_test(f, None, 2.0, 0.12, [0.08, 0.04, 0.02], h1_domain(2))
        norms = [v for _, v in seq]
        assert all(b < a * 1.001 for a, b in zip(norms, norms[1:]))

    def test_radius_must_stay_below_delta(self):
        with pytest.raises(ValueError):
            convergence_test(lambda x0, x1: x0, None, 2.0, 0.05, [0.1], SQUARE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p, radii, cells, message",
        [
            (2.0, [0.1], 0, "cells >= 1"),
            (2.0, [0.1], -3, "cells >= 1"),
            (2.0, [], 64, "at least one radius"),
            (0.0, [0.1], 64, "p >= 1"),
            (-1.0, [0.1], 64, "p >= 1"),
            (0.5, [0.1], 64, "p >= 1"),
            (math.nan, [0.1], 64, "p >= 1"),
            (2.0, [0.1, -0.05], 64, "0 < r < delta"),
            (2.0, [0.0], 64, "0 < r < delta"),
            (2.0, [0.15], 64, "0 < r < delta"),
        ],
        ids=[
            "no-cells", "negative-cells", "no-radii", "p-0", "p-negative", "p-below-1", "p-nan",
            "r-negative", "r-0", "r-at-delta",
        ],
    )
    def test_range_rules_raise_before_any_work(self, p, radii, cells, message):
        def untouched(*coords):
            raise AssertionError("the field was evaluated")

        w = Weight.polynomial(1.0, 2)
        with pytest.raises(ValidityError, match=message):
            convergence_test(untouched, w, p, 0.15, radii, SQUARE, cells=cells)


def reference_mollify(f, r, points):
    """The row-per-node algorithm the coordinate form replaced: every shifted
    node a row of an ``(N * K, dim)`` array, the field on its columns, then
    the ``(N, K)`` values times the weights."""
    z, wts = MollifierKernel(points.shape[1]).rule
    shifted = points.T[:, :, None] - r * z.T[:, None, :]
    flat = shifted.reshape(points.shape[1], -1).T
    vals = np.asarray(f(*(flat[:, a] for a in range(flat.shape[1]))), dtype=float)
    return np.broadcast_to(vals, flat.shape[:1]).copy().reshape(len(points), len(z)) @ wts


# constants, Abs, Max, Piecewise, separable and fully mixed formulas
FORMULAS_2D = [
    "3.5",
    "Abs(x - 0.5)*y",
    "Max(x, y)",
    "Piecewise((x, x < y), (y**2, True))",
    "x0*(1-x0)*x1",
    "sin(2*x0)*cos(3*x1)",
    "exp(y)",
    "sin(x*y) + cos(x + y)",
    "exp(-(x**2 + y**2))*sin(x*y)",
]
BIT_CASES = [
    *[(text, 2, Box((0.0, 0.0), (1.0, 1.0)), 24) for text in FORMULAS_2D],
    *[(text, 2, h1_domain(2), 32) for text in FORMULAS_2D],
    ("-2", 1, Box((0.0,), (1.0,)), 64),
    ("Abs(x - 0.4) + sin(3*x)", 1, Box((0.0,), (1.0,)), 64),
    ("Piecewise((x**2, x < 0.5), (1 - x, True))", 1, Box((0.0,), (1.0,)), 64),
    ("0.25", 3, Box((0.0,) * 3, (1.0,) * 3), 8),
    ("sin(x0)*cos(2*x1)*exp(x2)", 3, Box((0.0,) * 3, (1.0,) * 3), 8),
    ("Max(x0, x2) + Abs(x1 - 0.5)", 3, Box((0.0,) * 3, (1.0,) * 3), 8),
    ("sin(x0*x1*x2) + x0*x1 + cos(x2)", 3, Box((0.0,) * 3, (1.0,) * 3), 8),
]


class TestCoordinateForm:
    @pytest.mark.parametrize(
        "text, dim, region, cells",
        BIT_CASES,
        ids=[f"{dim}d-{type(region).__name__}-{text}" for text, dim, region, _ in BIT_CASES],
    )
    def test_bit_identical_to_the_row_per_node_rule(self, text, dim, region, cells):
        f = SmoothField.from_string(text, dim).lambdified()
        pts, _ = _inset_grid(region, 0.1, cells)
        kernel = MollifierKernel(dim)
        for r in (0.08, 0.03):
            assert np.array_equal(mollify_many(f, r, pts, kernel), reference_mollify(f, r, pts))

    def test_lambdified_is_the_field_in_coordinate_form(self):
        field = SmoothField.from_string("exp(x/2)*sin(y) + x*y**2", 2)
        pts = sample_lattice()
        for alpha in [(0, 0), (1, 0), (1, 1)]:
            values = field.lambdified(alpha)(pts[:, 0], pts[:, 1])
            assert np.array_equal(values, field.derivative(alpha)(pts))
        assert field.lambdified() is field.lambdified((0, 0))

    @pytest.mark.filterwarnings("error")
    def test_hull_nodes_outside_the_ball_are_never_read(self):
        # log(r**2 (1 - |z|**2)) at x - r z: finite inside the kernel's ball,
        # not finite at the tensor hull's corners
        f = lambda x0, x1: np.log(0.01 - ((x0 - 0.5) ** 2 + (x1 - 0.5) ** 2))
        value = mollify_many(f, 0.1, np.array([[0.5, 0.5]]), MollifierKernel(2))
        assert np.isfinite(value).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "f",
        [lambda x0, x1: np.log(x0 - 0.55), lambda x0, x1: np.where(x1 > 0.45, np.inf, x0)],
        ids=["nan", "inf"],
    )
    def test_non_finite_kept_value_is_a_validity_error(self, f):
        with pytest.raises(ValidityError, match="not finite within r = 0.1"):
            mollify_many(f, 0.1, sample_lattice(0.5, 0.6, 3), MollifierKernel(2))

    @pytest.mark.filterwarnings("error")
    def test_field_not_finite_on_the_inset_is_a_validity_error(self):
        f = SmoothField.from_string("log(x - 0.5)", 2).lambdified()
        with pytest.raises(ValidityError, match="not finite on the inset region"):
            convergence_test(f, None, 2.0, 0.15, [0.1], SQUARE, cells=16)


class TestInset:
    def test_box_inset(self):
        assert inset_contains(SQUARE, (0.5, 0.5), 0.2)
        assert not inset_contains(SQUARE, (0.1, 0.5), 0.2)

    def test_h1_inset(self):
        h1 = h1_domain(2)
        assert inset_contains(h1, (0.25, 0.75), 0.1)
        assert not inset_contains(h1, (0.45, 0.5), 0.1)  # near the hypotenuse
