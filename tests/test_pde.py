import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from cusplab import pde
from cusplab.geometry import Box, CuspDomain
from cusplab.pde import (
    CuspSection,
    assemble,
    convergence_rate,
    l2_error,
    manufactured_rhs,
    solve_dirichlet,
    triangulate,
    weak_residual,
    write_mesh,
)
from cusplab.weights import Weight

SQUARE = Box((0.0, 0.0), (1.0, 1.0))
CUSP3 = CuspSection(CuspDomain.isotropic(2, 3.0), eps=1e-3)
W1 = Weight.polynomial(1.0, 2)


class TestTriangulate:
    def test_coarse_square(self):
        m = triangulate(SQUARE, 0.5)
        assert len(m.triangles) >= 8
        assert np.sum(m.areas) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert m.h <= 0.5

    def test_refinement_scaling(self):
        n1 = len(triangulate(SQUARE, 1 / 8).vertices)
        n2 = len(triangulate(SQUARE, 1 / 16).vertices)
        assert 3.0 < n2 / n1 < 5.0

    def test_graded_mesh_small_edges_near_origin(self):
        h = 1 / 8
        m = triangulate(SQUARE, h, grade_exponent=2.0)
        p = m.vertices[m.triangles]
        edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        assert np.min(np.linalg.norm(edges, axis=1)) < h / 4

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
        assert np.sum(m.areas) == pytest.approx(1.0 / 3.0, rel=2e-2, abs=0)

    @pytest.mark.parametrize(
        "region, grade",
        [(SQUARE, None), (SQUARE, 3.0), (CUSP3, None)],
        ids=["square", "graded-square", "cusp3"],
    )
    def test_cell_areas_interleaved_are_the_mesh_areas(self, region, grade):
        # triangulate counts zero-area triangles from the cell areas
        m = triangulate(region, 1 / 256, grade_exponent=grade)
        area1, area2 = pde._cell_areas(m.vertices.reshape(*m.grid_shape, 2))
        interleaved = np.stack([area1, area2], axis=-1).ravel()
        assert np.array_equal(interleaved.view(np.uint64), m.areas.view(np.uint64))

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
        assert np.sum(system.load) == pytest.approx(1.0, rel=1e-12, abs=0)


def _edge_midpoints(mesh):
    """(M, 3, 2) midpoints of the three edges of every triangle, edges
    ordered ``(v0 v1, v1 v2, v2 v0)``."""
    p = mesh.vertices[mesh.triangles]
    return 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)


def _reference_assemble(mesh, w, f):
    """Element-by-element P1 assembly through COO triplets: the oracle for
    :func:`assemble`, which works on the structured grid instead."""
    mids = _edge_midpoints(mesh).reshape(-1, 2)
    wbar = w(mids).reshape(-1, 3).mean(axis=1)
    fvals = f(mids).reshape(-1, 3)
    areas = mesh.areas
    p = mesh.vertices[mesh.triangles]
    # the hat of vertex k has gradient: its opposite edge turned, over 2A
    opposite = p[:, [1, 2, 0]] - p[:, [2, 0, 1]]
    grads = np.stack([opposite[..., 1], -opposite[..., 0]], axis=-1) / (2.0 * areas)[:, None, None]
    local = np.einsum("tkd,tld->tkl", grads, grads) * (areas * wbar)[:, None, None]
    # the hat of vertex k is 1/2 at midpoints k and k-1, 0 at the third
    local_load = 0.5 * (fvals + np.roll(fvals, 1, axis=1)) * (areas / 3.0)[:, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    size = len(mesh.vertices)
    K = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size)).tocsr()
    load = np.zeros(size)
    np.add.at(load, mesh.triangles.ravel(), local_load.ravel())
    return K[mesh.interior][:, mesh.interior].tocsr(), load[mesh.interior]


def _no_boundary(mesh):
    return dataclasses.replace(mesh, boundary=np.zeros(len(mesh.vertices), bool))


ORACLE_MESHES = {
    "square": lambda: triangulate(SQUARE, 1 / 16),
    "graded-square": lambda: triangulate(SQUARE, 1 / 16, grade_exponent=2.0),
    "graded-cusp": lambda: triangulate(CUSP3, 1 / 32, grade_exponent=1.5),
    "thin-box": lambda: triangulate(Box((0.0, 0.0), (1.0, 0.01)), 1e-3),
    "no-boundary": lambda: _no_boundary(triangulate(SQUARE, 1 / 16)),
}


class TestAssembleOracle:
    """The grid assembly against element-by-element COO assembly."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    def test_matches_element_assembly(self, name):
        mesh = ORACLE_MESHES[name]()
        w = Weight.polynomial(0.5, 2)
        _, _, f = manufactured_rhs("sin(pi*x)*sin(pi*y)*exp(x)", "(x**2+y**2)**0.25")
        K_ref, load_ref = _reference_assemble(mesh, w, f)
        system = assemble(mesh, w, f)
        K = system.stiffness
        assert np.array_equal(K.indptr, K_ref.indptr)
        assert np.array_equal(K.indices, K_ref.indices)
        assert np.max(np.abs(K.data - K_ref.data)) <= 1e-14 * np.max(np.abs(K_ref.data))
        assert np.max(np.abs(system.load - load_ref)) <= 1e-14 * np.max(np.abs(load_ref))
        assert np.array_equal(system.interior, mesh.interior)
        assert (K != K.T).nnz == 0

    def test_fields_sampled_once_per_unique_edge(self):
        mesh = triangulate(CUSP3, 1 / 16, grade_exponent=1.5)
        n0, n1 = mesh.grid_shape
        seen = []

        def recording(points):
            seen.append(points.copy())
            return np.ones(len(points))

        assemble(mesh, recording, 0.0)
        edges = (n0 - 1) * n1 + n0 * (n1 - 1) + (n0 - 1) * (n1 - 1)
        assert len(seen) == 1 and seen[0].shape == (edges, 2)
        assert len(np.unique(seen[0], axis=0)) == edges


def _reference_l2_error(solution, exact):
    """Per-triangle mid-edge rule: the oracle for :func:`l2_error`, which
    works on the unique edges of the structured grid instead."""
    mesh = solution.mesh
    v = solution.values[mesh.triangles]
    uh = 0.5 * np.stack([v[:, 0] + v[:, 1], v[:, 1] + v[:, 2], v[:, 2] + v[:, 0]], axis=1)
    ue = np.asarray(exact(_edge_midpoints(mesh).reshape(-1, 2)), dtype=float).reshape(-1, 3)
    err2 = np.sum((uh - ue) ** 2, axis=1) * mesh.areas / 3.0
    return float(math.sqrt(np.sum(err2)))


class TestL2ErrorOracle:
    """The grid ``l2_error`` against the per-triangle mid-edge rule."""

    @pytest.mark.parametrize("name", ["square", "graded-cusp", "thin-box"])
    def test_matches_per_triangle_rule(self, name):
        mesh = ORACLE_MESHES[name]()
        u, _, _ = manufactured_rhs("sin(pi*x)*sin(pi*y)*exp(x)", "1")
        noise = np.random.default_rng(2).standard_normal(len(mesh.vertices))
        sol = pde.FemSolution(mesh, u(mesh.vertices) + 1e-3 * noise, 0.0, 0.0, 0)
        want = _reference_l2_error(sol, u)
        assert l2_error(sol, u) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_exact_sampled_once_per_unique_edge(self):
        mesh = triangulate(CUSP3, 1 / 16, grade_exponent=1.5)
        n0, n1 = mesh.grid_shape
        seen = []

        def recording(points):
            seen.append(points.copy())
            return np.zeros(len(points))

        l2_error(pde.FemSolution(mesh, np.zeros(len(mesh.vertices)), 0.0, 0.0, 0), recording)
        edges = (n0 - 1) * n1 + n0 * (n1 - 1) + (n0 - 1) * (n1 - 1)
        assert len(seen) == 1 and seen[0].shape == (edges, 2)
        assert len(np.unique(seen[0], axis=0)) == edges


class TestManufacturedRhs:
    RNG = np.random.default_rng(7)
    PTS = RNG.uniform(0.01, 1.0, size=(2000, 2))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 2.5])
    def test_against_hand_derived_f(self, alpha):
        # u = sin(pi x) sin(pi y), w = |x|^alpha:
        # f = w lap(u) + grad(w).grad(u)
        #   = -2 pi^2 r^a u + a pi r^(a-2) (x cos(pi x) sin(pi y) + y sin(pi x) cos(pi y))
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", f"(x**2+y**2)**({alpha / 2.0!r})")
        x, y = self.PTS.T
        r = np.hypot(x, y)
        sx, cx, sy, cy = np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)
        expected = -2.0 * np.pi**2 * r**alpha * sx * sy + alpha * np.pi * r ** (alpha - 2.0) * (
            x * cx * sy + y * sx * cy
        )
        got = f_fn(self.PTS)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_x_y_and_x0_x1_bit_identical(self):
        a = manufactured_rhs("sin(pi*x)*sin(pi*y)*exp(x)", "(x**2+y**2)**0.25")
        b = manufactured_rhs("sin(pi*x0)*sin(pi*x1)*exp(x0)", "(x0**2+x1**2)**0.25")
        for fa, fb in zip(a, b):
            assert np.array_equal(fa(self.PTS), fb(self.PTS))

    @pytest.mark.parametrize("u_text,w_text", [("sin(t)", "1"), ("x*y", "t"), ("x0*", "1")])
    def test_unreadable_text_raises_value_error(self, u_text, w_text):
        with pytest.raises(ValueError):
            manufactured_rhs(u_text, w_text)


class TestSolve:
    def test_classical_manufactured_convergence(self):
        u_fn, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        l2s = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            sol = solve_dirichlet(triangulate(SQUARE, h), 1.0, f_fn)
            l2s.append(l2_error(sol, u_fn))
        r2 = convergence_rate(l2s)
        assert not r2.inconclusive and abs(r2.estimate - 2.0) <= 0.3

    def test_sign_convention_recovers_positive_bump(self):
        # f = -2 pi^2 sin sin with unit weight gives u = +sin sin
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        sol = solve_dirichlet(triangulate(SQUARE, 1 / 16), 1.0, f_fn)
        center = np.argmin(np.linalg.norm(sol.mesh.vertices - 0.5, axis=1))
        assert sol.values[center] == pytest.approx(1.0, rel=5e-2, abs=0)

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
        assert sol.energy == pytest.approx(galerkin_rhs, rel=1e-9, abs=0)

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



def _reference_zebra_lines(A, shape):
    """``(axis, colour, banded)`` in pre-smoothing order, ``banded`` the
    tridiagonal of ``A`` along the colour's lines in ``solve_banded((1, 1),
    ...)`` layout: the line blocks of the increment-form smoother."""
    m0, m1 = shape
    diag = A.diagonal(0).reshape(shape)
    along0 = np.zeros(shape)  # coupling of (i, j) to (i + 1, j)
    along0[:-1] = A.diagonal(m1).reshape(m0 - 1, m1)
    along1 = np.append(A.diagonal(1), 0.0).reshape(shape)  # (i, j) to (i, j + 1)
    along1[:, -1] = 0.0
    lines = []
    for axis, d, up in ((0, diag.T, along0.T), (1, diag, along1)):
        for colour in (0, 1):
            u = up[colour::2].ravel()
            banded = np.zeros((3, len(u)))
            banded[0, 1:] = u[:-1]
            banded[1] = d[colour::2].ravel()
            banded[2, :-1] = u[:-1]
            lines.append((axis, colour, banded))
    return lines


def _reference_relax(A, x, b, shape, axis, colour, banded):
    """Increment-form zebra line relaxation: the full residual ``b - A x``
    on the colour's lines, solved by ``solve_banded`` and added to ``x``."""
    r = pde._rows_along(b - A @ x, shape, axis)[colour::2]
    rows = pde._rows_along(x, shape, axis)[colour::2]
    rows += solve_banded((1, 1), banded, r.ravel()).reshape(rows.shape)


SMOOTHER_MESHES = {
    "square": lambda: triangulate(SQUARE, 1 / 64),
    "graded-cusp": lambda: triangulate(CUSP3, 1 / 64, grade_exponent=1.5),
}


def _coarsened_from_odd(mg):
    """The levels of ``mg`` whose finer level has an odd cell count along an
    axis: there the interpolation does not nest."""
    return [
        level
        for finer, level in zip(mg.levels, mg.levels[1:])
        if any((m + 1) % 2 for m in finer[1])
    ]


class TestLineSmoother:
    """Zebra line relaxation with pre-factored line blocks and the couplings
    off the lines against the increment form it replaced."""

    @pytest.mark.parametrize("name", sorted(SMOOTHER_MESHES))
    def test_one_sweep_matches_increment_form(self, name):
        mesh = SMOOTHER_MESHES[name]()
        K = assemble(mesh, W1, 0.0).stiffness
        mg = pde._Multigrid(K, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        assert _coarsened_from_odd(mg)
        rng = np.random.default_rng(3)
        for A, shape, sweeps, _, _ in mg.levels:
            reference = {(axis, colour): banded for axis, colour, banded in _reference_zebra_lines(A, shape)}
            assert [sweep[:2] for sweep in sweeps] == list(reference)
            for sweep in sweeps:
                x, b = rng.standard_normal((2, A.shape[0]))
                for start in (x, np.zeros_like(x)):
                    want = start.copy()
                    _reference_relax(A, want, b, shape, *sweep[:2], reference[sweep[:2]])
                    got = start.copy()
                    pde._relax(got, b, shape, sweep, from_zero=not start.any())
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(SMOOTHER_MESHES))
    def test_off_keeps_every_entry_but_the_line_blocks(self, name):
        mesh = SMOOTHER_MESHES[name]()
        K = assemble(mesh, W1, 0.0).stiffness
        mg = pde._Multigrid(K, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        odd = [id(level[0]) for level in _coarsened_from_odd(mg)]
        for A, shape, sweeps, _, _ in mg.levels:
            numbers = np.arange(A.shape[0]).reshape(shape)
            for axis, colour, off, d, e in sweeps:
                index = pde._rows_along(numbers, shape, axis)[colour::2].ravel()
                T = (A[index] - off).tocoo()
                # what off leaves out is the diagonal and the neighbours on one line
                step = np.abs(T.col - index[T.row])
                assert set(np.unique(step)) <= {0, 1 if axis == 1 else shape[1]}
                assert np.array_equal(np.sort(T.col[T.col == index[T.row]]), np.sort(index))
                # lines of one colour couple only where the grids do not nest
                same = np.zeros(A.shape[0], bool)
                same[index] = True
                coupling = np.abs(off.data[same[off.indices]])
                big = coupling.size and coupling.max() > 1e-8 * np.abs(A.data).max()
                assert bool(big) == (id(A) in odd)

    def test_indefinite_line_block_raises(self):
        K = assemble(triangulate(SQUARE, 1 / 16), W1, 0.0).stiffness
        with pytest.raises(pde.SolverError, match="not positive definite"):
            pde._zebra_lines(-K, (22, 22))


def _random_spd_stencil(rng, shape):
    """The stencil of a random SPD 7-point matrix on the grid of ``shape``:
    negative couplings along the three kinds of edge, and a diagonal above
    the sum of their sizes in each row."""
    m0, m1 = shape
    upper = {}
    for d0, d1 in ((0, 1), (1, 0), (1, 1)):
        band = -rng.uniform(0.1, 1.0, shape)
        band[m0 - d0 :] = 0.0
        band[:, m1 - d1 :] = 0.0
        upper[(d0, d1)] = band
    upper[(0, 0)] = rng.uniform(0.1, 1.0, shape)
    stencil = pde._symmetric(upper)
    upper[(0, 0)] += sum(np.abs(band) for d, band in stencil.items() if d != (0, 0))
    return pde._symmetric(upper)


def _csr(stencil, shape):
    return pde._stencil_csr(stencil, np.arange(shape[0] * shape[1]).reshape(shape), np.ravel)


class TestGalerkin:
    """Coarse operators formed on stencil bands against the CSR product."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 13), st.integers(1, 13), st.integers(0, 2**32 - 1))
    # odd and even cell counts, a grid one line wide, and an axis of 2 cells,
    # which stays fixed while the other axis coarsens
    @example(7, 5, 0)
    @example(8, 6, 1)
    @example(9, 1, 2)
    @example(1, 12, 3)
    def test_matches_the_csr_product(self, m0, m1, seed):
        shape = (m0, m1)
        stencil = _random_spd_stencil(np.random.default_rng(seed), shape)
        # two levels, so that the second coarsens a stencil wider than 7 points
        for _ in range(2):
            A = _csr(stencil, shape)
            P0, P1 = pde._interpolation(m0 + 1), pde._interpolation(m1 + 1)
            P = sparse.kron(P0, P1, format="csr")
            want = (P.T @ A @ P).toarray()
            # the size of the terms summed into each entry: the scale of its rounding
            scale = (abs(P).T @ abs(A) @ abs(P)).toarray()
            stencil = pde._galerkin(stencil, shape)
            shape = m0, m1 = P0.shape[1], P1.shape[1]
            got = _csr(stencil, shape).toarray()
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("region, grade", [(SQUARE, None), (CUSP3, 1.5)], ids=["square", "cusp"])
    def test_every_level_equals_its_transpose(self, region, grade):
        mesh = triangulate(region, 1 / 128, grade_exponent=grade)
        K = assemble(mesh, W1, 0.0).stiffness
        mg = pde._Multigrid(K, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        assert len(mg.levels) >= 3
        for A, *_ in mg.levels:
            At = A.T.tocsr()
            At.sort_indices()
            assert np.array_equal(At.indptr, A.indptr)
            assert np.array_equal(At.indices, A.indices)
            assert At.data.tobytes() == A.data.tobytes()


class TestMultigrid:
    """CG preconditioned by one multigrid V-cycle with alternating zebra
    line relaxation: iteration counts flat in h on both mesh families."""

    # CG iterations at h = 1/32, 1/64, 1/128 as the increment-form smoother
    # with solve_banded gave them
    RECORDED_ITERATIONS = {
        "square": (SQUARE, None, (7, 7, 7)),
        "square-graded-2": (SQUARE, 2.0, (8, 7, 8)),
        "cusp": (CUSP3, None, (9, 9, 10)),
        "cusp-graded-1.5": (CUSP3, 1.5, (9, 9, 10)),
    }

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

    @pytest.mark.parametrize("name", sorted(RECORDED_ITERATIONS))
    def test_iterations_as_recorded(self, name):
        region, grade, recorded = self.RECORDED_ITERATIONS[name]
        _, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        counts = tuple(
            solve_dirichlet(triangulate(region, h, grade_exponent=grade), W1, f_fn).iterations
            for h in (1 / 32, 1 / 64, 1 / 128)
        )
        assert counts == recorded

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

    def test_thin_box_and_finest_cusp_rung_iterations_as_recorded(self):
        _, _, f_fn = manufactured_rhs("x*(y**2-x)*(y-0.001)*(1-y)", "(x**2+y**2)**(0.25)")
        finest = solve_dirichlet(triangulate(CUSP3, 1 / 256, grade_exponent=1.5), Weight.polynomial(0.5, 2), f_fn)
        thin = solve_dirichlet(triangulate(Box((0.0, 0.0), (1.0, 0.01)), 1e-3), W1, -1.0)
        assert (finest.iterations, thin.iterations) == (12, 8)

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

    def test_one_line_wide_grid_solves(self):
        # 2 cells across: the finest level is one line wide, with no odd lines
        mesh = triangulate(Box((0.0, 0.0), (1.0, 0.001)), 1e-3)
        assert mesh.grid_shape[1] - 2 == 1 and len(mesh.interior) > pde._COARSEST
        sol = solve_dirichlet(mesh, W1, -1.0)
        assert sol.residual <= 1e-10

    def test_vcycle_is_symmetric(self):
        mesh = triangulate(CUSP3, 1 / 64, grade_exponent=1.5)
        system = assemble(mesh, W1, 0.0)
        mg = pde._Multigrid(system.stiffness, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        assert len(mg.levels) >= 2
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, system.stiffness.shape[0]))
        mu, mv = mg.vcycle(u), mg.vcycle(v)
        assert v @ mu == pytest.approx(u @ mv, rel=1e-12, abs=0)
        assert u @ mu > 0.0 and v @ mv > 0.0

    def test_vcycle_is_symmetric_on_the_square(self):
        # 91 cells per axis: level 1 is coarsened from an odd cell count, as
        # level 1 of the cusp above is along one axis
        mesh = SMOOTHER_MESHES["square"]()
        system = assemble(mesh, W1, 0.0)
        mg = pde._Multigrid(system.stiffness, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
        assert _coarsened_from_odd(mg)
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((2, system.stiffness.shape[0]))
        mu, mv = mg.vcycle(u), mg.vcycle(v)
        assert v @ mu == pytest.approx(u @ mv, rel=1e-12, abs=0)
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
