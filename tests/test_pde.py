import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cusplab import pde
from cusplab.geometry import Box, CuspDomain
from cusplab.pde import (
    CuspSection,
    assemble,
    convergence_rate,
    energy_norm_error,
    l2_error,
    manufactured_rhs,
    solve_dirichlet,
    triangulate,
    weak_residual,
    write_mesh,
)
from cusplab.weights import Weight

SQUARE = Box((0.0, 0.0), (1.0, 1.0))
W1 = Weight.polynomial(1.0, 2)


class TestTriangulate:
    def test_coarse_square(self):
        m = triangulate(SQUARE, 0.5)
        assert len(m.triangles) >= 8
        assert np.sum(m.areas) == pytest.approx(1.0, rel=1e-12)
        assert m.h <= 0.5

    def test_refinement_scaling(self):
        n1 = len(triangulate(SQUARE, 1 / 8).vertices)
        n2 = len(triangulate(SQUARE, 1 / 16).vertices)
        assert 3.0 < n2 / n1 < 5.0

    def test_graded_mesh_small_edges_near_origin(self):
        h = 1 / 8
        m = triangulate(SQUARE, h, grade_exponent=2.0)
        assert m.min_edge < h / 4

    def test_positive_orientation(self):
        for mesh in (triangulate(SQUARE, 0.3), triangulate(SQUARE, 0.1, grade_exponent=2.0)):
            assert np.all(mesh.areas > 0)

    def test_boundary_flags(self):
        m = triangulate(SQUARE, 0.25)
        on_edge = (
            (m.vertices[:, 0] == 0.0)
            | (m.vertices[:, 0] == 1.0)
            | (m.vertices[:, 1] == 0.0)
            | (m.vertices[:, 1] == 1.0)
        )
        assert np.array_equal(m.boundary, on_edge)

    def test_cusp_section(self):
        dom = CuspDomain(dim=2, exponents=(2.0,))
        m = triangulate(CuspSection(dom, eps=1e-3), 1 / 16, grade_exponent=2.0)
        assert np.all(m.areas > 0)
        assert np.sum(m.areas) == pytest.approx(1.0 / 3.0, rel=2e-2)

    def test_zero_area_triangles_rejected(self):
        # grading exponent 40 merges the t-nodes next to the truncation face
        section = CuspSection(CuspDomain.isotropic(2, 3.0), eps=1e-3)
        with pytest.raises(ValueError, match="zero area"):
            triangulate(section, 0.125, grade_exponent=40.0)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            triangulate(SQUARE, 0.0)
        with pytest.raises(ValueError):
            CuspSection(CuspDomain(dim=2, exponents=(2.0,)), eps=2.0)


class TestAssemble:
    def test_interior_row_sums_vanish_for_constant_weight(self):
        # full-stencil row sums of the Laplace stiffness vanish (constants
        # are in the kernel); reassemble without boundary elimination
        mesh = triangulate(SQUARE, 0.25)
        free = dataclasses.replace(mesh, boundary=np.zeros(len(mesh.vertices), bool))
        system = assemble(free, 1.0, 0.0)
        sums = np.asarray(system.stiffness.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) < 1e-12

    def test_exact_symmetry(self):
        system = assemble(triangulate(SQUARE, 1 / 8), W1, 0.0)
        diff = (system.stiffness - system.stiffness.T).toarray()
        assert np.all(diff == 0.0)

    def test_spd_for_weighted_case(self):
        system = assemble(triangulate(SQUARE, 1 / 8), W1, 0.0)
        eigs = np.linalg.eigvalsh(system.stiffness.toarray())
        assert eigs.min() > 0.0

    def test_weight_must_be_positive(self):
        mesh = triangulate(SQUARE, 0.25)
        with pytest.raises(ValueError):
            assemble(mesh, lambda p: p[:, 0] - 0.5, 0.0)

    def test_load_is_integral_of_f(self):
        # f = 1: sum of all hat loads equals the area
        mesh = triangulate(SQUARE, 0.25)
        free = dataclasses.replace(mesh, boundary=np.zeros(len(mesh.vertices), bool))
        system = assemble(free, 1.0, 1.0)
        assert np.sum(system.load) == pytest.approx(1.0, rel=1e-12)


class TestSolve:
    def test_classical_manufactured_convergence(self):
        u_fn, gu_fn, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        l2s, h1s = [], []
        for h in (1 / 16, 1 / 32, 1 / 64):
            sol = solve_dirichlet(triangulate(SQUARE, h), 1.0, f_fn)
            l2s.append(l2_error(sol, u_fn))
            h1s.append(energy_norm_error(sol, gu_fn))
        r2 = convergence_rate(l2s)
        r1 = convergence_rate(h1s)
        assert not r2.inconclusive and abs(r2.estimate - 2.0) <= 0.3
        assert not r1.inconclusive and abs(r1.estimate - 1.0) <= 0.3

    def test_sign_convention_recovers_positive_bump(self):
        # f = -2 pi^2 sin sin with unit weight gives u = +sin sin
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 16), 1.0, f_fn)
        center = np.argmin(np.linalg.norm(sol.mesh.vertices - 0.5, axis=1))
        assert sol.values[center] == pytest.approx(1.0, rel=5e-2)

    def test_zero_rhs_zero_solution(self):
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 16), 1.0, 0.0)
        assert np.all(sol.values == 0.0)
        assert sol.residual == 0.0 and sol.energy == 0.0 and sol.iterations == 0

    def test_weighted_manufactured_solution(self):
        u_fn, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 32), W1, f_fn, tol=1e-10)
        assert l2_error(sol, u_fn) < 5e-3
        assert weak_residual(sol, W1, f_fn) <= 10.0 * 1e-10

    def test_weighted_rate_reported_between_one_and_two(self):
        u_fn, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        errs = [
            l2_error(solve_dirichlet(triangulate(SQUARE, h), W1, f_fn), u_fn)
            for h in (1 / 8, 1 / 16, 1 / 32)
        ]
        rate = convergence_rate(errs)
        assert not rate.inconclusive
        assert 1.0 <= rate.estimate <= 2.5  # reported, not asserted sharply

    def test_solver_residual_below_tolerance(self):
        _, _, f_fn = manufactured_rhs("x*(1-x)*y*(1-y)", "1")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 32), 1.0, f_fn, tol=1e-10)
        assert sol.residual <= 1e-10

    def test_true_residual_meets_tol_on_fine_mesh(self):
        # CG's recursive residual can drift below the true one; the reported
        # residual is the true ||Kx - b|| / ||b||, about 6e-12 here
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "(x**2+y**2)**(0.5)")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 256), W1, f_fn, tol=1e-10)
        assert sol.residual <= 1e-10

    def test_energy_identity(self):
        _, _, f_fn = manufactured_rhs("x*(1-x)*y*(1-y)", "1")
        mesh = triangulate(SQUARE, 1 / 16)
        sol = solve_dirichlet(mesh, 1.0, f_fn)
        system = assemble(mesh, 1.0, f_fn)
        galerkin_rhs = float(-system.load @ sol.values[system.interior])
        assert sol.energy == pytest.approx(galerkin_rhs, rel=1e-9)

    def test_scaling_invariance(self):
        _, _, f_fn = manufactured_rhs("x*(1-x)*y*(1-y)", "1")
        mesh = triangulate(SQUARE, 1 / 16)
        a = solve_dirichlet(mesh, 1.0, f_fn)
        b = solve_dirichlet(mesh, 7.0, lambda p: 7.0 * f_fn(p))
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_discrete_maximum_principle(self):
        # nonpositive divergence-form data forces a nonnegative solution on
        # the nonobtuse structured mesh
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 16), W1, -1.0)
        assert sol.values.min() >= -1e-12
        assert sol.values.max() > 0.0

    def test_cusp_section_solve(self):
        dom = CuspDomain(dim=2, exponents=(2.0,))
        mesh = triangulate(CuspSection(dom, eps=1e-3), 1 / 16, grade_exponent=2.0)
        sol = solve_dirichlet(mesh, W1, -1.0)
        assert sol.residual <= 1e-10
        assert np.all(sol.values[mesh.boundary] == 0.0)


class TestWeakResidual:
    def test_exact_solution_small_residual(self):
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 16), W1, f_fn, tol=1e-10)
        assert weak_residual(sol, W1, f_fn) <= 1e-9

    def test_perturbation_increases_residual(self):
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        mesh = triangulate(SQUARE, 1 / 16)
        sol = solve_dirichlet(mesh, 1.0, f_fn)
        base = weak_residual(sol, 1.0, f_fn)
        bumped = sol.values.copy()
        bumped[mesh.interior[len(mesh.interior) // 2]] += 1.0
        worse = weak_residual(dataclasses.replace(sol, values=bumped), 1.0, f_fn)
        assert worse > 100.0 * max(base, 1e-14)


class TestRatesAndIO:
    def test_convergence_rate_clean_sequence(self):
        rate = convergence_rate([1e-2, 2.5e-3, 6.25e-4])
        assert rate.estimate == pytest.approx(2.0)
        assert not rate.inconclusive

    def test_convergence_rate_non_monotone(self):
        rate = convergence_rate([1e-2, 2e-2, 5e-3])
        assert rate.inconclusive and rate.estimate is None

    def test_mesh_roundtrip(self, tmp_path):
        mesh = triangulate(SQUARE, 0.3)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"mesh {len(mesh.vertices)} {len(mesh.triangles)}"
        vlines = lines[1 : 1 + len(mesh.vertices)]
        tlines = lines[1 + len(mesh.vertices) :]
        assert len(tlines) == len(mesh.triangles)
        assert all(line.split()[0] == "v" for line in vlines)
        assert all(line.split()[0] == "t" for line in tlines)
        verts = np.array([[float(t) for t in line.split()[1:3]] for line in vlines])
        flags = np.array([bool(int(line.split()[3])) for line in vlines])
        tris = np.array([[int(t) for t in line.split()[1:]] for line in tlines])
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(flags, mesh.boundary)
        assert np.array_equal(tris, mesh.triangles)


CUSP3 = CuspSection(CuspDomain.isotropic(2, 3.0), eps=1e-3)


class TestMultigrid:
    """CG preconditioned by one multigrid V-cycle with alternating zebra
    line relaxation: iteration counts flat in h on both mesh families."""

    @pytest.mark.parametrize(
        "region, grade",
        [(SQUARE, None), (SQUARE, 2.0), (CUSP3, None), (CUSP3, 1.5)],
        ids=["square", "square-graded-2", "cusp", "cusp-graded-1.5"],
    )
    def test_iterations_flat_in_h(self, region, grade):
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        for h in (1 / 32, 1 / 64, 1 / 128):
            sol = solve_dirichlet(triangulate(region, h, grade_exponent=grade), W1, f_fn)
            assert sol.residual <= 1e-10
            assert 1 <= sol.iterations <= 15, (h, sol.iterations)

    @pytest.mark.parametrize("region, grade", [(SQUARE, None), (CUSP3, 1.5)], ids=["square", "cusp"])
    def test_matches_direct_solve(self, region, grade):
        mesh = triangulate(region, 1 / 64, grade_exponent=grade)
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        sol = solve_dirichlet(mesh, W1, f_fn)
        system = assemble(mesh, W1, f_fn)
        direct = spla.spsolve(system.stiffness.tocsc(), -system.load)
        got = sol.values[system.interior]
        assert np.max(np.abs(got - direct)) <= 1e-8 * np.max(np.abs(direct))

    def test_finest_cusp_rung_meets_tol(self):
        # the finest cusp rung of the fem-solve benchmark: gamma = 3, graded
        # 1.5, weight |x|^0.5, 92k unknowns
        u_text = "x*(y**2-x)*(y-0.001)*(1-y)"
        _, _, f_fn = manufactured_rhs(u_text, "(x**2+y**2)**(0.25)")
        mesh = triangulate(CUSP3, 1 / 256, grade_exponent=1.5)
        sol = solve_dirichlet(mesh, Weight.polynomial(0.5, 2), f_fn, tol=1e-10)
        assert sol.residual <= 1e-10
        assert sol.iterations <= 15

    def test_small_system_is_one_direct_solve(self):
        mesh = triangulate(SQUARE, 1 / 16)
        assert len(mesh.interior) == 484
        sol = solve_dirichlet(mesh, W1, -1.0)
        assert sol.iterations == 1
        assert sol.residual <= 1e-10

    def test_thin_box_axis_stops_coarsening(self):
        # 15 cells across: that axis reaches 2 cells and then stays fixed
        mesh = triangulate(Box((0.0, 0.0), (1.0, 0.01)), 1e-3)
        sol = solve_dirichlet(mesh, W1, -1.0)
        assert sol.residual <= 1e-10
        assert sol.iterations <= 15

    def test_vcycle_is_symmetric(self):
        mesh = triangulate(CUSP3, 1 / 64, grade_exponent=1.5)
        system = assemble(mesh, W1, 0.0)
        mg = pde._Multigrid(system.stiffness, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        assert len(mg.levels) >= 2
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, system.stiffness.shape[0]))
        mu, mv = mg.vcycle(u), mg.vcycle(v)
        assert v @ mu == pytest.approx(u @ mv, rel=1e-12)
        assert u @ mu > 0.0 and v @ mv > 0.0

    def test_hierarchy_freed_when_solve_returns(self, monkeypatch):
        made = []

        class Recorded(pde._Multigrid):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(pde, "_Multigrid", Recorded)
        gc.disable()
        try:
            solve_dirichlet(triangulate(SQUARE, 1 / 32), W1, -1.0)
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()
