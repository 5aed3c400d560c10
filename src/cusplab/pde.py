"""Weighted P1 finite elements for the degenerate Dirichlet problem
``div(w grad u) = f`` with zero boundary values.

Sign convention: testing the divergence form against a hat function and
integrating by parts gives ``∫ w grad(u) . grad(phi) dx = -∫ f phi dx``, so
the assembled stiffness matrix is solved against the negated load vector.
The weight is sampled at the three edge midpoints of each triangle; pinning
the weight's singular point to a mesh vertex keeps every sample point away
from it.

``sympy`` is imported inside :func:`manufactured_rhs`, the one function here
that differentiates a formula, so importing this module does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
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


def _shifted(v: np.ndarray, d: tuple[int, int]) -> np.ndarray:
    """The grid array ``v`` read at ``p + d`` for each grid point ``p``, 0
    where ``p + d`` is off the grid."""
    (n0, n1), (d0, d1) = v.shape, d
    out = np.zeros(v.shape)
    out[max(-d0, 0) : max(n0 - d0, 0), max(-d1, 0) : max(n1 - d1, 0)] = v[
        max(d0, 0) : n0 + min(d0, 0), max(d1, 0) : n1 + min(d1, 0)
    ]
    return out


def _symmetric(upper: dict) -> dict:
    """The stencil of a symmetric matrix on a grid from its upper half.

    A stencil maps each offset ``d = (d0, d1)`` to a grid array holding the
    entry from grid point ``p`` to ``p + d`` at ``p``, 0 where ``p + d`` is
    off the grid.  ``upper`` holds the offsets ``d >= (0, 0)``; the entry
    from ``p`` to ``p - d`` is the one from ``p - d`` to ``p``, so each
    lower band is its upper band shifted and every entry below the diagonal
    is bit for bit its mirror.  Offsets come out ascending, which are the
    columns of a row in grid order.
    """
    full = dict(upper)
    for (d0, d1), v in upper.items():
        if (d0, d1) != (0, 0):
            full[(-d0, -d1)] = _shifted(v, (-d0, -d1))
    return dict(sorted(full.items()))


def _stencil_csr(stencil: dict, number: np.ndarray, rows: Callable) -> sparse.csr_matrix:
    """Some rows of the matrix whose stencil (see :func:`_symmetric`) is
    ``stencil``, offsets ascending and at most 2 along each axis.

    ``rows`` takes a grid array to its entries at the wanted rows, in their
    order, and ``number`` is the grid of column numbers, ascending in grid
    order and -1 for a dropped grid point; an entry is kept where its column
    is, even if it is 0.
    """
    n0, n1 = number.shape
    # the numbers on a grid padded by 2, so that every offset stays inside it
    pad = np.full((n0 + 4, n1 + 4), -1, dtype=np.int32)
    pad[2:-2, 2:-2] = number
    kept, k = rows(number), len(stencil)
    vals = np.empty((k,) + kept.shape)
    cols = np.empty(vals.shape, dtype=np.int32)
    for at, ((d0, d1), v) in enumerate(stencil.items()):
        vals[at] = rows(v)
        cols[at] = rows(pad[2 + d0 : n0 + 2 + d0, 2 + d1 : n1 + 2 + d1])
    vals, cols = vals.reshape(k, kept.size), cols.reshape(k, kept.size)
    present = cols >= 0
    indptr = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=0, dtype=np.int32), out=indptr[1:])
    # filled offset by offset and read row by row, in CSR's order: several
    # times faster than filling one column per offset
    present = present.T
    return sparse.csr_matrix(
        (vals.T[present], cols.T[present], indptr),
        shape=(kept.size, int(np.count_nonzero(number >= 0))),
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
    along0 = np.zeros((n0, n1))
    along0[:-1, :-1] -= s1 * _dot(bc, ac)
    along0[:-1, 1:] -= s2 * _dot(ad, ac)
    along1 = np.zeros((n0, n1))
    along1[1:, :-1] -= s1 * _dot(ac, ab)
    along1[:-1, :-1] -= s2 * _dot(dc, ac)
    across = np.zeros((n0, n1))
    across[:-1, :-1] = s1 * _dot(bc, ab) + s2 * _dot(dc, ad)

    # the hat of a vertex is 1/2 at the midpoints of its two edges in a
    # triangle and 0 at the third
    third1, third2 = area1 / 3.0, area2 / 3.0
    load = np.zeros((n0, n1))
    load[:-1, :-1] += (f0[:, :-1] + fx) * third1 + (fx + f1[:-1]) * third2
    load[1:, :-1] += (f1[1:] + f0[:, :-1]) * third1
    load[1:, 1:] += (fx + f1[1:]) * third1 + (f0[:, 1:] + fx) * third2
    load[:-1, 1:] += (f1[:-1] + f0[:, 1:]) * third2
    load *= 0.5

    interior = mesh.interior
    keep = ~mesh.boundary.reshape(n0, n1)
    number = np.where(keep, np.cumsum(keep, dtype=np.int32).reshape(n0, n1) - 1, -1)
    upper = {(0, 0): diag, (0, 1): along1, (1, 0): along0, (1, 1): across}
    K = _stencil_csr(_symmetric(upper), number, lambda grid: grid[keep])
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
    need not nest, so odd cell counts coarsen like even ones, and the
    Galerkin operators below them couple nodes two apart, up to 25 stencil
    points.  A coarsening that nests, taking the last fine cell whole on odd
    counts, would keep every level at 9 points, but it raises the CG
    iterations at h = 1/32, 1/64, 1/128 from (7, 7, 7) to (7, 8, 9) on the
    square and from (9, 9, 10) to (9, 11, 12) on the cusp, and from 12 to 13
    on the finest graded cusp rung of the benchmark.
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


def _diagonal_stencil(A: sparse.csr_matrix, shape: tuple[int, int]) -> dict:
    """The stencil (see :func:`_symmetric`) of the symmetric 7-point matrix
    ``A`` on the grid of ``shape``, read off its diagonals: the band of
    offset ``(d0, d1)`` lies on diagonal ``d0 * shape[1] + d1``, at the
    points whose neighbour at that offset is on the grid.  Bands that are
    all 0, as the couplings across the cells of a square are, are left
    out."""
    m0, m1 = shape
    n = m0 * m1
    upper = {}
    for d0, d1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        k = d0 * m1 + d1
        band = np.zeros(n)
        if k < n:
            band[: n - k] = A.diagonal(k)
        band = band.reshape(shape)
        band[m0 - d0 :] = 0.0
        band[:, m1 - d1 :] = 0.0
        if (d0, d1) == (0, 0) or band.any():
            upper[(d0, d1)] = band
    return _symmetric(upper)


@functools.lru_cache(maxsize=128)
def _restriction(cells: int, offsets: tuple) -> tuple[sparse.csr_matrix, tuple]:
    """One axis of a Galerkin product in stencil form, built once per
    process for each cell count and set of offsets, and read-only.

    For ``P = _interpolation(cells)``, from ``c`` coarse to ``m`` fine nodes,
    and the fine offsets ``offsets`` along the axis: the matrix whose block
    ``(D, d)``, of shape ``(c, m)``, holds ``P[i, I] * P[i + d, I + D]`` at
    ``(I, i)``, and the coarse offsets ``D`` that occur, ascending.  The
    block takes the part of a fine band of offset ``d`` along this axis that
    lands on coarse offset ``D``.
    """
    P = _interpolation(cells)
    m, c = P.shape
    # the coarse nodes of each fine node, two at most, padded with weight 0
    node = np.repeat(np.arange(m), np.diff(P.indptr))
    slot = np.arange(P.nnz) - P.indptr[node]
    near = np.zeros((m, 2), dtype=np.int64)
    weight = np.zeros((m, 2))
    near[node, slot] = P.indices
    weight[node, slot] = P.data
    parts = []
    for k, d in enumerate(offsets):
        i = np.arange(max(-d, 0), min(m, m - d))
        w = weight[i, :, None] * weight[i + d, None, :]
        hit = w != 0.0
        I = np.broadcast_to(near[i, :, None], w.shape)[hit]
        J = np.broadcast_to(near[i + d, None, :], w.shape)[hit]
        col = k * m + np.broadcast_to(i[:, None, None], w.shape)[hit]
        parts.append((J - I, I, col, w[hit]))
    D, I, col, val = (np.concatenate(part) for part in zip(*parts))
    coarse = np.unique(D)
    row = np.searchsorted(coarse, D) * c + I
    R = sparse.csr_matrix((val, (row, col)), shape=(len(coarse) * c, len(offsets) * m))
    for a in (R.data, R.indices, R.indptr):
        a.flags.writeable = False
    return R, tuple(coarse.tolist())


def _galerkin(stencil: dict, shape: tuple[int, int]) -> dict:
    """The stencil of the Galerkin operator ``P^T A P``, ``P = P0 ⊗ P1`` the
    interpolations along the axes of the grid of ``shape``, from the stencil
    of ``A``, formed in stencil notation (Trottenberg, Oosterlee and
    Schüller, *Multigrid*, 2001).

    ``A = U + U^T`` for ``U`` the upper half of ``A``'s stencil with half its
    diagonal, so ``P^T A P = G + G^T`` with ``G = P^T U P``.  ``G``'s band of
    coarse offset ``D`` is the sum over ``U``'s bands ``U_d`` of
    ``R0[D0, d0] U_d R1[D1, d1]^T`` (:func:`_restriction`): two 1-D
    contractions, each one sparse-by-dense product over all bands at once.
    Only the upper half of ``G + G^T`` is formed and then mirrored, so the
    coarse operator is exactly symmetric.
    """
    m0, m1 = shape
    upper = {d: v for d, v in stencil.items() if d >= (0, 0)}
    along0 = tuple(sorted({d0 for d0, _ in upper}))
    along1 = tuple(sorted({d1 for _, d1 in upper}))
    R0, coarse0 = _restriction(m0 + 1, along0)
    R1, coarse1 = _restriction(m1 + 1, along1)
    c0, c1 = R0.shape[0] // len(coarse0), R1.shape[0] // len(coarse1)
    # U's bands as blocks of one array: block row d0, block column d1
    U = np.zeros((len(along0) * m0, len(along1) * m1))
    for (d0, d1), v in upper.items():
        a, b = along0.index(d0) * m0, along1.index(d1) * m1
        U[a : a + m0, b : b + m1] = 0.5 * v if (d0, d1) == (0, 0) else v
    # G^T as blocks: block row D1, block column D0
    Gt = R1 @ (R0 @ U).T
    G = {
        (D0, D1): Gt[b * c1 : (b + 1) * c1, a * c0 : (a + 1) * c0].T
        for a, D0 in enumerate(coarse0)
        for b, D1 in enumerate(coarse1)
    }
    coarse = {}
    zero = np.zeros((c0, c1))
    for D in sorted({max(D, (-D[0], -D[1])) for D in G}):
        band = G.get(D, zero) + _shifted(G.get((-D[0], -D[1]), zero), D)
        if D == (0, 0) or band.any():
            coarse[D] = band
    return _symmetric(coarse)


def _rows_along(v: np.ndarray, shape: tuple[int, int], axis: int) -> np.ndarray:
    """A view of the grid vector ``v`` whose rows are its lines along ``axis``."""
    grid = v.reshape(shape)
    return grid.T if axis == 0 else grid


def _zebra_lines(A: sparse.csr_matrix, shape: tuple[int, int], stencil: dict | None = None) -> list:
    """The colour sweeps of zebra line relaxation on ``A``, in pre-smoothing
    order: even then odd lines along axis 0, then along axis 1.

    Each sweep is ``(axis, colour, off, d, e)`` for the colour's unknowns
    listed line by line: ``d, e`` are the ``dpttrf`` factors of ``T``, the
    tridiagonal of ``A`` along those lines laid end to end with zero
    coupling from one line to the next (a principal submatrix of SPD ``A``,
    so SPD), and ``off`` holds the other entries of those rows of ``A``, so
    that a sweep is exactly the update ``x += T^-1 (b - A x)`` on them.  All
    three come from ``stencil``, ``A``'s stencil (see :func:`_symmetric`),
    which is read off ``A``'s diagonals when not given (a 7-point ``A``):
    ``d`` and ``e`` are its diagonal and the band along the lines, and
    ``off`` is built from its other bands.  Levels coarsened from odd cell
    counts couple lines two apart, so ``off`` holds couplings between lines
    of one colour too.  Built once per level, with the hierarchy; a line
    block that ``dpttrf`` cannot factor raises :class:`SolverError`.
    """
    if stencil is None:
        stencil = _diagonal_stencil(A, shape)
    numbers = np.arange(A.shape[0], dtype=np.int32).reshape(shape)
    sweeps = []
    for axis, step in ((0, (1, 0)), (1, (0, 1))):
        line = {(0, 0), step, (-step[0], -step[1])}
        rest = {d: v for d, v in stencil.items() if d not in line}
        # the coupling of each unknown to the next on its line, 0 at line ends
        along = stencil[step] if step in stencil else np.zeros(shape)
        for colour in (0, 1):

            def rows(grid, axis=axis, colour=colour):
                return _rows_along(grid, shape, axis)[colour::2]

            if rows(numbers).size == 0:  # a grid one line wide has no odd lines
                continue
            off = _stencil_csr(rest, numbers, rows)
            d, e, info = dpttrf(rows(stencil[(0, 0)]).ravel(), rows(along).ravel()[:-1])
            if info != 0:
                raise SolverError(
                    f"line block of {len(d)} unknowns is not positive definite"
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
    preconditioner for CG.

    The hierarchy is built in stencil form and applied in CSR form.  Each
    level is a stencil (see :func:`_symmetric`), the finest read off ``A``'s
    diagonals and each coarser one its Galerkin product (:func:`_galerkin`);
    every level's operator, the couplings off its lines
    (:func:`_zebra_lines`) and its line blocks' factors come from its
    stencil, so every level is exactly symmetric.  A sweep then costs one
    product with the couplings off its lines and one pre-factored
    tridiagonal solve.  The products stay CSR because ``csr_matvec`` is the
    faster product: 0.63 ms against 1.26 ms from the five shifted band
    slices of the square's finest level at h = 1/256.  The cycle is a loop
    over ``levels``, not a recursion, so the hierarchy holds no reference to
    itself and is freed as soon as the solve drops it.
    """

    def __init__(self, A: sparse.csr_matrix, shape: tuple[int, int]):
        # (operator, grid shape, zebra lines, 1-D interpolations along each axis)
        self.levels = []
        stencil = _diagonal_stencil(A, shape)
        while A.shape[0] > _COARSEST:
            P0, P1 = _interpolation(shape[0] + 1), _interpolation(shape[1] + 1)
            self.levels.append((A, shape, _zebra_lines(A, shape, stencil), P0, P1))
            stencil = _galerkin(stencil, shape)
            shape = (P0.shape[1], P1.shape[1])
            A = _stencil_csr(stencil, np.arange(shape[0] * shape[1]).reshape(shape), np.ravel)
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
    import sympy as sp

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
    """Plain text: header, then ``v x y flag`` lines, then ``t i j k`` lines,
    each coordinate its float ``repr``; formatted from the arrays' Python
    lists and written at once."""
    x, y = mesh.vertices.T.tolist()
    i, j, k = mesh.triangles.T.tolist()
    text = "".join(
        [
            f"mesh {len(x)} {len(i)}\n",
            *map("v {!r} {!r} {:d}\n".format, x, y, mesh.boundary.tolist()),
            *map("t {} {} {}\n".format, i, j, k),
        ]
    )
    with open(path, "w") as fh:
        fh.write(text)
