"""Weighted P1 finite elements for the degenerate Dirichlet problem
``div(w grad u) = f`` with zero boundary values.

Sign convention: testing the divergence form against a hat function and
integrating by parts gives ``∫ w grad(u) . grad(phi) dx = -∫ f phi dx``, so
the assembled stiffness matrix is solved against the negated load vector.
The weight is sampled at the three edge midpoints of each triangle; pinning
the weight's singular point to a mesh vertex keeps every sample point away
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
import sympy as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, splu

from .geometry import Box, CuspDomain, radius
from .mollifier import SmoothField
from .weights import Weight

__all__ = [
    "AssembledSystem",
    "ConvergenceRate",
    "CuspSection",
    "FemSolution",
    "Mesh",
    "SolverError",
    "assemble",
    "convergence_rate",
    "l2_error",
    "manufactured_rhs",
    "solve_dirichlet",
    "triangulate",
    "weak_residual",
    "write_mesh",
]


class SolverError(RuntimeError):
    """Iterative solve failed to converge within its iteration cap."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation: vertices, positively oriented triangles,
    per-vertex boundary flags, and the shape of the structured vertex grid
    (vertex ``(i, j)`` is numbered ``i * grid_shape[1] + j``, and cell
    ``(i, j)`` is split along its diagonal from ``(i, j)`` to
    ``(i+1, j+1)``, as :func:`triangulate` does; :func:`assemble`,
    :func:`l2_error` and the multigrid solve rely on that layout)."""

    vertices: np.ndarray  # (N, 2)
    triangles: np.ndarray  # (M, 3) int
    boundary: np.ndarray  # (N,) bool
    grid_shape: tuple[int, int]

    def _edge_lengths(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        e = np.concatenate(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=0
        )
        return radius(e)

    @property
    def h(self) -> float:
        """Longest edge."""
        return float(np.max(self._edge_lengths()))

    @property
    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)


@dataclass(frozen=True)
class CuspSection:
    """Polygonal truncation of a 2-D power cusp at ``x_n = eps``."""

    domain: CuspDomain
    eps: float = 1e-3

    def __post_init__(self):
        if self.domain.dim != 2:
            raise ValueError("cusp sections are meshed in 2-D only")
        if not (0.0 < self.eps < 1.0):
            raise ValueError("truncation height must lie in (0, 1)")


def _structured_nodes(n: int, grade: float | None) -> np.ndarray:
    s = np.linspace(0.0, 1.0, n + 1)
    if grade is not None and grade > 1.0:
        s = s**grade
    return s


def triangulate(
    region: Box | CuspSection,
    h: float,
    grade_exponent: float | None = None,
) -> Mesh:
    """Structured triangulation of a box or a cusp section at mesh size ``h``.

    ``grade_exponent > 1`` concentrates vertices toward the origin corner
    (boxes) or the truncation face (cusp sections).  Boxes must be 2-D.
    The longest edge is at most ``h`` on ungraded boxes only; graded meshes
    and cusp sections can be coarser, and ``Mesh.h`` reports the longest
    edge the mesh really has.  Every triangle is positively oriented by
    construction; a grading so steep that node coordinates coincide in
    floating point leaves triangles of zero area and raises ``ValueError``.
    """
    if h <= 0:
        raise ValueError("mesh size must be positive")
    if isinstance(region, Box):
        if region.dim != 2:
            raise ValueError("triangulation is 2-D only")
        lo = np.asarray(region.lo)
        hi = np.asarray(region.hi)
        ext = hi - lo
        nx = max(2, int(math.ceil(ext[0] / h * math.sqrt(2.0))))
        ny = max(2, int(math.ceil(ext[1] / h * math.sqrt(2.0))))
        sx = lo[0] + ext[0] * _structured_nodes(nx, grade_exponent)
        sy = lo[1] + ext[1] * _structured_nodes(ny, grade_exponent)
        xx, yy = np.meshgrid(sx, sy, indexing="ij")
        verts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        on_bnd = (
            (xx == sx[0])
            | (xx == sx[-1])
            | (yy == sy[0])
            | (yy == sy[-1])
        ).ravel()
    elif isinstance(region, CuspSection):
        dom = region.domain
        nt = max(2, int(math.ceil((1.0 - region.eps) / h * math.sqrt(2.0))))
        nu = max(2, int(math.ceil(1.0 / h)))
        t = region.eps + (1.0 - region.eps) * _structured_nodes(nt, grade_exponent)
        u = _structured_nodes(nu, None)
        uu, tt = np.meshgrid(u, t, indexing="ij")
        g = dom.profiles(tt.ravel())[:, 0].reshape(tt.shape)
        verts = np.stack([(uu * g).ravel(), tt.ravel()], axis=-1)
        on_bnd = (
            (uu == 0.0) | (uu == 1.0) | (tt == t[0]) | (tt == t[-1])
        ).ravel()
        nx, ny = nu, nt
    else:
        raise TypeError(f"cannot triangulate {type(region)!r}")

    # cell (i, j), row-major, has corners a = (i, j), b = (i+1, j),
    # c = (i+1, j+1), d = (i, j+1), vertex (i, j) numbered i*(ny+1) + j;
    # it gives the triangles (a, b, c) and (a, c, d)
    a = (np.arange(nx, dtype=np.int64)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    b = a + (ny + 1)
    triangles = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)
    # the cell areas on the vertex grid, interleaved, are Mesh.areas bit for bit
    area1, area2 = _cell_areas(verts.reshape(nx + 1, ny + 1, 2))
    degenerate = int(np.count_nonzero(area1 <= 0.0) + np.count_nonzero(area2 <= 0.0))
    if degenerate:
        raise ValueError(
            f"{degenerate} of {len(triangles)} triangles have zero area: the grading"
            " merges nodes in floating point"
        )
    return Mesh(vertices=verts, triangles=triangles, boundary=on_bnd, grid_shape=(nx + 1, ny + 1))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssembledSystem:
    """Interior stiffness/load pair with the index map back to vertices.

    ``load[i] = ∫ f phi_i`` exactly as written in the divergence form; the
    Galerkin right-hand side of the Dirichlet problem is ``-load``.
    """

    stiffness: sparse.csr_matrix
    load: np.ndarray
    interior: np.ndarray


def _sampled(fn, points: np.ndarray) -> np.ndarray:
    """A constant or a vectorised callable sampled at ``points``."""
    if isinstance(fn, (int, float)):
        return np.full(len(points), float(fn))
    return np.asarray(fn(points), dtype=float)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def _edge_means(grid: np.ndarray) -> np.ndarray:
    """Means of a vertex-grid array over the two ends of each unique edge of
    the structured triangulation, laid end to end: the edges along axis 0,
    then along axis 1, then across each cell from ``(i, j)`` to
    ``(i+1, j+1)``.  Of the vertex coordinates, these are the edge
    midpoints; :func:`_on_edges` splits the result by kind."""
    tail = grid.shape[2:]
    return 0.5 * np.concatenate(
        [
            (grid[:-1] + grid[1:]).reshape(-1, *tail),
            (grid[:, :-1] + grid[:, 1:]).reshape(-1, *tail),
            (grid[:-1, :-1] + grid[1:, 1:]).reshape(-1, *tail),
        ]
    )


def _on_edges(values: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge values in the order of :func:`_edge_means` on the vertex
    grid of ``shape``, as three grid arrays, one per kind of edge."""
    n0, n1 = shape
    cut0, cut1 = (n0 - 1) * n1, (n0 - 1) * n1 + n0 * (n1 - 1)
    return (
        values[:cut0].reshape(n0 - 1, n1),
        values[cut0:cut1].reshape(n0, n1 - 1),
        values[cut1:].reshape(n0 - 1, n1 - 1),
    )


def _cell_areas(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas of the triangles ``(a, b, c)`` and ``(a, c, d)`` of every cell
    of the vertex grid ``X`` (see :func:`assemble`)."""
    ab, ac, ad = X[1:, :-1] - X[:-1, :-1], X[1:, 1:] - X[:-1, :-1], X[:-1, 1:] - X[:-1, :-1]
    return (
        0.5 * (ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0]),
        0.5 * (ac[..., 0] * ad[..., 1] - ac[..., 1] * ad[..., 0]),
    )


#: the 7-point stencil of the structured triangulation, columns ascending
_STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))


def _stencil_csr(
    keep: np.ndarray,
    diag: np.ndarray,
    along0: np.ndarray,
    along1: np.ndarray,
    across: np.ndarray,
) -> sparse.csr_matrix:
    """The rows and columns ``keep`` of the symmetric 7-point matrix on the
    vertex grid of shape ``diag.shape``, from its diagonal and its couplings
    of ``(i, j)`` to ``(i+1, j)``, ``(i, j+1)`` and ``(i+1, j+1)``; kept
    vertices are renumbered in order."""
    n0, n1 = diag.shape
    vals = np.zeros((n0, n1, 7))
    vals[1:, 1:, 0] = across
    vals[1:, :, 1] = along0
    vals[:, 1:, 2] = along1
    vals[:, :, 3] = diag
    vals[:, :-1, 4] = along1
    vals[:-1, :, 5] = along0
    vals[:-1, :-1, 6] = across
    # the kept number of every vertex, -1 for dropped ones and off the grid
    number = np.full((n0 + 2, n1 + 2), -1, dtype=np.int32)
    number[1:-1, 1:-1] = np.where(keep, np.cumsum(keep, dtype=np.int32) - 1, -1).reshape(n0, n1)
    cols = np.stack(
        [number[1 + di : n0 + 1 + di, 1 + dj : n1 + 1 + dj] for di, dj in _STENCIL], axis=-1
    )
    cols[~keep.reshape(n0, n1)] = -1
    # flat masks select without building index arrays
    present = cols.ravel() >= 0
    indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int32)
    np.cumsum(present.reshape(-1, 7).sum(axis=1, dtype=np.int32)[keep], out=indptr[1:])
    size = len(indptr) - 1
    return sparse.csr_matrix(
        (vals.ravel()[present], cols.ravel()[present], indptr), shape=(size, size)
    )


def assemble(
    mesh: Mesh,
    w: Weight | Callable[[np.ndarray], np.ndarray] | float,
    f: Callable[[np.ndarray], np.ndarray] | float,
) -> AssembledSystem:
    """Weighted stiffness ``∫ w grad(phi_i),grad(phi_j)`` and load ``∫ f phi_i``.

    The weight is averaged per triangle from the three edge midpoints (exact
    for quadratics); assembly fails if a midpoint sample is not positive.
    The load takes ``f`` at the same midpoints.

    Assembly runs on the structured grid of :func:`triangulate`: cell
    ``(i, j)`` holds the triangles ``(a, b, c)`` and ``(a, c, d)`` with
    ``a = (i, j)``, ``b = (i+1, j)``, ``c = (i+1, j+1)``, ``d = (i, j+1)``,
    so every edge runs along axis 0, along axis 1 or across a cell.  ``w``
    and ``f`` are each called once, on the midpoints of the unique edges of
    the three kinds in that order; each triangle adds its P1 entries
    ``wbar (E_k . E_l) / (4 A)``, with ``E_k`` the edge opposite vertex
    ``k``, into grid arrays for the diagonal and the three couplings, which
    fill the fixed 7-point pattern of a CSR matrix.
    """
    n0, n1 = mesh.grid_shape
    X = mesh.vertices.reshape(n0, n1, 2)
    mids = _edge_means(X)
    wvals = _sampled(w, mids)
    if not np.all(np.isfinite(wvals)) or np.any(wvals <= 0.0):
        raise ValueError("weight must be positive and finite at quadrature nodes")
    w0, w1, wx = _on_edges(wvals, (n0, n1))
    f0, f1, fx = _on_edges(_sampled(f, mids), (n0, n1))

    # edge vectors of cell (i, j): a->b, b->c, a->c, a->d, d->c
    e0, e1 = X[1:] - X[:-1], X[:, 1:] - X[:, :-1]
    ab, bc, ac, ad, dc = e0[:, :-1], e1[1:], X[1:, 1:] - X[:-1, :-1], e1[:-1], e0[:, 1:]
    area1, area2 = _cell_areas(X)
    s1 = (w0[:, :-1] + w1[1:] + wx) / 3.0 / (4.0 * area1)
    s2 = (wx + w0[:, 1:] + w1[:-1]) / 3.0 / (4.0 * area2)

    # (a, b, c) has opposite edges -bc, ac, -ab; (a, c, d) has dc, ad, -ac
    diag = np.zeros((n0, n1))
    diag[:-1, :-1] += s1 * _dot(bc, bc) + s2 * _dot(dc, dc)
    diag[1:, :-1] += s1 * _dot(ac, ac)
    diag[1:, 1:] += s1 * _dot(ab, ab) + s2 * _dot(ad, ad)
    diag[:-1, 1:] += s2 * _dot(ac, ac)
    along0 = np.zeros((n0 - 1, n1))
    along0[:, :-1] -= s1 * _dot(bc, ac)
    along0[:, 1:] -= s2 * _dot(ad, ac)
    along1 = np.zeros((n0, n1 - 1))
    along1[1:] -= s1 * _dot(ac, ab)
    along1[:-1] -= s2 * _dot(dc, ac)
    across = s1 * _dot(bc, ab) + s2 * _dot(dc, ad)

    # the hat of a vertex is 1/2 at the midpoints of its two edges in a
    # triangle and 0 at the third
    third1, third2 = area1 / 3.0, area2 / 3.0
    load = np.zeros((n0, n1))
    load[:-1, :-1] += (f0[:, :-1] + fx) * third1 + (fx + f1[:-1]) * third2
    load[1:, :-1] += (f1[1:] + f0[:, :-1]) * third1
    load[1:, 1:] += (fx + f1[1:]) * third1 + (f0[:, 1:] + fx) * third2
    load[:-1, 1:] += (f1[:-1] + f0[:, 1:]) * third2
    load *= 0.5

    K = _stencil_csr(~mesh.boundary, diag, along0, along1, across)
    interior = mesh.interior
    return AssembledSystem(K, load.ravel()[interior], interior)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


#: a level with at most this many unknowns is factored by ``splu``: the
#: bottom of the multigrid hierarchy, or a whole small system, which CG then
#: solves in one iteration
_COARSEST = 500
#: CG iterations per pass; 7 to 14 reach tol = 1e-10 on squares and cusp
#: sections, graded or not, at every h down to 1/256
_MAX_ITERATIONS = 100


def _interpolation(cells: int) -> sparse.csr_matrix:
    """Linear interpolation in index space from ``(cells + 1) // 2`` cells
    (at least 2) to ``cells`` cells, on the interior nodes of both grids.

    Fine node ``i`` sits at coarse position ``i * coarse / cells``; the grids
    need not nest, so odd cell counts coarsen like even ones.
    """
    coarse = max(2, (cells + 1) // 2)
    fine = np.arange(1, cells)
    s = fine * coarse / cells
    left = np.floor(s).astype(np.int64)
    theta = s - left
    rows = np.concatenate([fine, fine]) - 1
    cols = np.concatenate([left, left + 1]) - 1
    vals = np.concatenate([1.0 - theta, theta])
    keep = (cols >= 0) & (cols < coarse - 1) & (vals != 0.0)
    return sparse.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(cells - 1, coarse - 1)
    )


def _rows_along(v: np.ndarray, shape: tuple[int, int], axis: int) -> np.ndarray:
    """A view of the grid vector ``v`` whose rows are its lines along ``axis``."""
    grid = v.reshape(shape)
    return grid.T if axis == 0 else grid


def _zebra_lines(A: sparse.csr_matrix, shape: tuple[int, int]) -> list:
    """The colour sweeps of zebra line relaxation on ``A``, in pre-smoothing
    order: even then odd lines along axis 0, then along axis 1.

    Each sweep is ``(axis, colour, off, d, e)`` for the colour's unknowns
    listed line by line, ``index``: ``T`` is the tridiagonal of ``A`` along
    those lines, laid end to end with zero coupling from one line to the
    next, and ``d, e`` are its ``dpttrf`` factors (``T`` is a principal
    submatrix of SPD ``A``, so SPD); ``off = A[index] - T`` keeps every
    other entry of those rows.  Galerkin levels coarsened from odd cell
    counts couple lines two apart, so ``off`` keeps the entries between
    lines of one colour too, and ``T`` takes the couplings above its
    diagonal, so ``off`` also keeps the rounding by which a Galerkin
    operator's couplings below differ from them.  A sweep is then exactly
    the update ``x[index] += T^-1 (b - A x)[index]``.  Built once per level,
    with the hierarchy; a line block that ``dpttrf`` cannot factor raises
    :class:`SolverError`.
    """
    # in A's own index type, so that scipy need not check the arrays' range
    numbers = np.arange(A.shape[0], dtype=A.indices.dtype).reshape(shape)
    diag = A.diagonal()
    sweeps = []
    for axis, step in ((0, shape[1]), (1, 1)):
        along = A.diagonal(step)  # coupling of unknown k to unknown k + step
        for colour in (0, 1):
            lines = _rows_along(numbers, shape, axis)[colour::2]
            if lines.size == 0:  # a grid one line wide has no odd lines
                continue
            index = lines.ravel()
            d = diag[index]
            # coupling of each unknown to the next on its line, 0 at line ends
            e = np.zeros(lines.shape)
            e[:, :-1] = along[lines[:, :-1]]
            e = e.ravel()[:-1]
            k = np.arange(len(index), dtype=index.dtype)
            T = sparse.csr_matrix(
                (
                    np.concatenate([d, e, e]),
                    (np.concatenate([k, k[:-1], k[1:]]), np.concatenate([index, index[1:], index[:-1]])),
                ),
                shape=(len(index), A.shape[1]),
            )
            off = A[index] - T
            off.eliminate_zeros()
            d, e, info = dpttrf(d, e)
            if info != 0:
                raise SolverError(
                    f"line block of {len(index)} unknowns is not positive definite"
                    f" (dpttrf info {info})"
                )
            sweeps.append((axis, colour, off, d, e))
    return sweeps


def _relax(x, b, shape, sweep, from_zero=False) -> None:
    """Set the lines of one colour to the exact solve on them, the other
    unknowns held fixed: ``T^-1 (b - off @ x)`` on the colour's unknowns,
    read and written through strided views of the grid.  With ``from_zero``
    the caller promises ``x == 0``, which skips the product."""
    axis, colour, off, d, e = sweep
    r = _rows_along(b, shape, axis)[colour::2].flatten()  # a copy: dpttrs writes into it
    if not from_zero:
        r -= off @ x
    lines = _rows_along(x, shape, axis)[colour::2]
    lines[...] = dpttrs(d, e, r, overwrite_b=True)[0].reshape(lines.shape)


class _Multigrid:
    """Geometric multigrid on the structured grid of interior unknowns.

    Each level halves the cell count along both axes through
    :func:`_interpolation`, with Galerkin coarse operators ``P^T A P``,
    until at most ``_COARSEST`` unknowns remain; that level is factored by
    ``splu``.  :meth:`vcycle` applies one symmetric V-cycle, smoothed by
    zebra line Gauss-Seidel alternating between the axes (Trottenberg,
    Oosterlee and Schüller, *Multigrid*, 2001, §5.1), so it is an SPD
    preconditioner for CG.  Each level's line blocks are factored once, when
    the hierarchy is built (:func:`_zebra_lines`), so a colour sweep costs
    one product with the couplings off its lines and one pre-factored
    tridiagonal solve.  The cycle is a loop over ``levels``, not a
    recursion, so the hierarchy holds no reference to itself and is freed
    as soon as the solve drops it.
    """

    def __init__(self, A: sparse.csr_matrix, shape: tuple[int, int]):
        # (operator, grid shape, zebra lines, 1-D interpolations along each axis)
        self.levels = []
        while A.shape[0] > _COARSEST:
            P0, P1 = _interpolation(shape[0] + 1), _interpolation(shape[1] + 1)
            self.levels.append((A, shape, _zebra_lines(A, shape), P0, P1))
            P = sparse.kron(P0, P1, format="csr")
            A = (P.T @ (A @ P)).tocsr()
            shape = (P0.shape[1], P1.shape[1])
        # A is SPD: symmetric ordering and no pivoting factor it a third faster
        self.coarsest = splu(
            A.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        self.cycles = 0

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle from a zero guess; the prolongation ``P0 ⊗ P1`` is
        applied as ``P0 X P1^T`` on grid-shaped ``X``, never formed."""
        self.cycles += 1
        rhs, pre = [b], []
        for A, shape, sweeps, P0, P1 in self.levels:
            x = np.zeros_like(rhs[-1])
            for k, sweep in enumerate(sweeps):
                _relax(x, rhs[-1], shape, sweep, from_zero=k == 0)
            pre.append(x)
            rhs.append((P0.T @ (rhs[-1] - A @ x).reshape(shape) @ P1).ravel())
        x = self.coarsest.solve(rhs.pop())
        for A, shape, sweeps, P0, P1 in reversed(self.levels):
            x = pre.pop() + (P0 @ x.reshape(P0.shape[1], P1.shape[1]) @ P1.T).ravel()
            b = rhs.pop()
            for sweep in reversed(sweeps):
                _relax(x, b, shape, sweep)
        return x


@dataclass(frozen=True)
class FemSolution:
    """Discrete solution with zero boundary values, solver residual,
    weighted Dirichlet energy ``u^T K u`` and the number of CG iterations."""

    mesh: Mesh
    values: np.ndarray
    residual: float
    energy: float
    iterations: int


def solve_dirichlet(
    mesh: Mesh,
    w,
    f,
    tol: float = 1e-10,
) -> FemSolution:
    """Conjugate-gradient solve of the weighted Dirichlet problem.

    CG on the SPD interior system down to relative residual ``tol``,
    preconditioned by one multigrid V-cycle (:class:`_Multigrid`) on the
    mesh's structured grid, and capped at ``_MAX_ITERATIONS`` iterations per
    pass.  CG stops on its own recursive residual, which drifts from the
    true ``||Kx - b|| / ||b||`` in floating point, so a solve whose true
    residual is above ``tol`` is restarted once from its result and fails
    if it is still above.  ``iterations`` counts the V-cycles applied, one
    per CG iteration over both passes.
    """
    system = assemble(mesh, w, f)
    K = system.stiffness
    rhs = -system.load
    n = K.shape[0]
    # the solution outlives the solve, so it is allocated before the
    # hierarchy: placed above the hierarchy's freed memory, it would keep
    # that memory resident and raise the peak RSS of later solves
    values = np.zeros(len(mesh.vertices))
    if not np.any(rhs):
        return FemSolution(mesh, values, 0.0, 0.0, 0)
    mg = _Multigrid(K, (mesh.grid_shape[0] - 2, mesh.grid_shape[1] - 2))
    M = LinearOperator(K.shape, matvec=mg.vcycle, dtype=float)
    x = None
    for _ in range(2):
        x, info = spla.cg(K, rhs, x0=x, rtol=tol, atol=0.0, maxiter=_MAX_ITERATIONS, M=M)
        if info != 0:
            raise SolverError(
                f"conjugate gradient stopped after {info} iterations without reaching"
                f" relative residual {tol:g} on {n} unknowns"
            )
        res = float(np.linalg.norm(K @ x - rhs) / np.linalg.norm(rhs))
        if res <= tol:
            break
    else:
        raise SolverError(
            f"true relative residual {res:.4g} is above {tol:g} on {n} unknowns"
            " after a restart"
        )
    values[system.interior] = x
    energy = float(x @ (K @ x))
    return FemSolution(mesh, values, res, energy, mg.cycles)


def weak_residual(solution: FemSolution, w, f) -> float:
    """Residual of the weak form over interior hat functions.

    Computes ``max_i |<u, phi_i>_w + F(phi_i)|`` over the interior hats,
    normalized by the 2-norm scale of both sides (the same scale the
    iterative solver promises its relative residual against).
    """
    system = assemble(solution.mesh, w, f)
    u = solution.values[system.interior]
    lhs = system.stiffness @ u
    rhs = -system.load
    res = lhs - rhs
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-300)
    return float(np.max(np.abs(res)) / scale)


# ---------------------------------------------------------------------------
# errors, rates, manufactured solutions
# ---------------------------------------------------------------------------


def l2_error(solution: FemSolution, exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """L2 distance to a reference field by the mid-edge rule (exact for P2).

    Runs on the structured grid, as :func:`assemble` does: ``exact`` is
    called once, on the midpoints of the unique edges (about 3N points), the
    P1 values there are the means of the two ends, and each cell adds the
    squared errors on its triangles' edges times a third of their areas.
    """
    mesh = solution.mesh
    n0, n1 = mesh.grid_shape
    X = mesh.vertices.reshape(n0, n1, 2)
    err = _edge_means(solution.values.reshape(n0, n1)) - _sampled(exact, _edge_means(X))
    d0, d1, dx = _on_edges(err**2, (n0, n1))
    area1, area2 = _cell_areas(X)
    err2 = (d0[:, :-1] + d1[1:] + dx) * area1 + (dx + d0[:, 1:] + d1[:-1]) * area2
    return float(math.sqrt(np.sum(err2) / 3.0))


@dataclass(frozen=True)
class ConvergenceRate:
    """Observed orders from an error sequence at h, h/2, h/4, ..."""

    orders: tuple[float, ...]
    estimate: float | None
    inconclusive: bool


def convergence_rate(errors: Sequence[float]) -> ConvergenceRate:
    """log2 ratios of successive errors; Inconclusive when non-monotone."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two error levels")
    if any(e <= 0 for e in errors) or any(
        errors[i + 1] >= errors[i] for i in range(len(errors) - 1)
    ):
        return ConvergenceRate((), None, True)
    orders = tuple(
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    )
    return ConvergenceRate(orders, orders[-1], False)


def manufactured_rhs(u_text: str, w_text: str) -> tuple[Callable, Callable, Callable]:
    """Symbolic oracle: from ``u`` and ``w`` build ``f = div(w grad u)``.

    Returns vectorized ``(u, grad_u, f)``; both texts are read by
    :meth:`SmoothField.from_string`.
    """
    x, y = sp.symbols("x0:2")  # the variables of SmoothField
    u = SmoothField.from_string(u_text, 2)
    w = SmoothField.from_string(w_text, 2).expr
    fexpr = sp.diff(w * sp.diff(u.expr, x), x) + sp.diff(w * sp.diff(u.expr, y), y)
    gx, gy = u.derivative((1, 0)), u.derivative((0, 1))

    def grad_vec(pts):
        return np.stack([gx(pts), gy(pts)], axis=-1)

    return u, grad_vec, SmoothField(fexpr, 2)


# ---------------------------------------------------------------------------
# mesh I/O and solution export
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path) -> None:
    """Plain text: header, then ``v x y flag`` lines, then ``t i j k`` lines."""
    with open(path, "w") as fh:
        fh.write(f"mesh {len(mesh.vertices)} {len(mesh.triangles)}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"v {float(x)!r} {float(y)!r} {int(b)}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"t {i} {j} {k}\n")
