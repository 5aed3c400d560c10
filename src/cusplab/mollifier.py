"""Smooth approximation by convolution with a normalized bump kernel.

The kernel is the standard ``exp(-1/(1-|x|^2))`` bump supported in the
closed unit ball, normalized once per dimension by radial Gauss panels
halved toward the sphere and cached.  Convolution values use a fixed tensor
Gauss rule on the bounding box of the rescaled support, so results are
reproducible and the commutation identity with derivatives can be checked
by finite differences with the quadrature error cancelling between the two
sides.  Both rules are :func:`cusplab.geometry.gauss_panels`.

Fields are coordinate functions ``f(x0, …, x_{dim-1})`` of arrays that
broadcast together, the form ``sympy.lambdify`` returns, and must act
element by element.  Each coordinate of the shifted nodes is an outer
difference of the points and the 16 per-axis kernel nodes, so a term in one
coordinate costs ``N * 16`` evaluations per radius and a term mixing all of
them ``N * 16**dim``; the ``K`` nodes inside the kernel's ball then take one
matrix-vector product (:func:`mollify_many`).

``sympy`` waits for its first use, in :class:`SmoothField`'s constructor,
parser and lambdifier, so that a process that reads no formula never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .exponents import ValidityError
from .geometry import (
    Box, CuspDomain, Domain, _axis_cells, _tensor_cells, gauss_panels, halved_toward, radius
)
from .weights import Weight, polynomial_ap_range, sphere_surface

if TYPE_CHECKING:
    import sympy as sp

__all__ = [
    "MollifierKernel",
    "MollifySpec",
    "SmoothField",
    "commutation_check",
    "convergence_test",
    "inset_contains",
    "mollify",
    "mollify_many",
]


def _bump_profile(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    mask = rho < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[mask] = np.exp(-1.0 / (1.0 - rho[mask] ** 2))
    return out


@lru_cache(maxsize=8)
def _bump_mass(dim: int) -> float:
    """Integral of the raw bump over the unit ball: Gauss panels in the
    radius halved toward 1, where the bump flattens, to a last panel 1/16
    wide (a log-slope of 128)."""
    r, w = gauss_panels(halved_toward(0.0, 1.0, 128.0))
    return sphere_surface(dim) * float(np.add.reduce(w * _bump_profile(r) * r ** (dim - 1)))


@dataclass(frozen=True)
class MollifierKernel:
    """Normalized radial bump with its cached convolution rule.

    :data:`cusplab.geometry.NODES` Gauss–Legendre points per axis on the box
    ``[-1, 1]^dim``; the kernel vanishes to all orders at the sphere, so the
    tensor rule sees a smooth integrand.
    """

    dim: int

    @property
    def normalization(self) -> float:
        return 1.0 / _bump_mass(self.dim)

    def profile(self, z: np.ndarray) -> np.ndarray:
        """Kernel values at points of the unit ball (normalized)."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.normalization * _bump_profile(radius(z))

    @property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (K, dim) in the unit box and weights already times the kernel."""
        return _kernel_rule(self.dim)[2:]


@lru_cache(maxsize=8)
def _kernel_rule(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-axis Gauss nodes ``y`` of the tensor hull ``y**dim`` (row-major,
    last axis fastest), the flat hull indices of the nodes where the kernel is
    positive, those ``K`` nodes ``(K, dim)`` and their weights times the kernel."""
    y, w = gauss_panels([-1.0, 1.0])
    pts, wts = _tensor_cells([(y, w)] * dim)
    kernel_vals = _bump_profile(radius(pts)) / _bump_mass(dim)
    keep = np.flatnonzero(kernel_vals > 0.0)
    return y, keep, pts[keep], (wts * kernel_vals)[keep]


@dataclass(frozen=True)
class MollifySpec:
    """Mollification radius ``r`` inside an inset distance ``delta > r``."""

    r: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.r < self.delta):
            raise ValidityError("need 0 < r < delta")


def mollify_many(
    f: Callable[..., np.ndarray],
    r: float,
    points: np.ndarray,
    kernel: MollifierKernel,
) -> np.ndarray:
    """Vectorized ``(A_r f)(x) = ∫ ω(z) f(x - r z) dz`` at many points.

    ``f`` is a coordinate field ``f(x0, …, x_{dim-1})``: it takes one array
    per coordinate, the arrays broadcasting together, and returns values
    that broadcast to their common shape, as ``sympy.lambdify`` and
    :meth:`SmoothField.lambdified` build them.  It must act element by
    element, since the field sees the kernel's whole tensor hull.

    Coordinate ``a`` of the shifted nodes is the outer difference
    ``points[:, a] - r * y`` of the ``N`` points and the 16 per-axis nodes
    ``y``, shaped ``(N, 1, …, 16, …, 1)`` with the 16 at axis ``a + 1``.  So a
    subexpression of one coordinate runs on ``N * 16`` values and one of all
    of them on the hull's ``N * 16**dim``.  The ``K`` hull nodes inside the
    kernel's ball (144 of 256 in 2-D) are gathered into a C-contiguous
    ``(N, K)`` matrix, and one matrix-vector product with the weights gives
    the values.  Hull nodes outside the ball are dropped unread, so they
    raise no floating-point warning; a non-finite value at a kept node raises
    :class:`~cusplab.exponents.ValidityError`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    y, keep, _, wts = _kernel_rule(kernel.dim)
    coords = [
        (points[:, a, None] - r * y).reshape((n,) + (1,) * a + (-1,) + (1,) * (dim - 1 - a))
        for a in range(dim)
    ]
    with np.errstate(all="ignore"):
        hull = np.broadcast_to(np.asarray(f(*coords), dtype=float), (n,) + y.shape * dim)
    # take, not fancy indexing: the matrix must be C-contiguous for the
    # product to keep its bits
    out = np.take(hull.reshape(n, -1), keep, axis=1) @ wts
    # every kept weight is positive, so a non-finite kept value leaves its
    # row's sum non-finite: checking the N sums checks the N * K values
    if not np.isfinite(out).all():
        raise ValidityError(f"the field is not finite within r = {r:g} of every point")
    return out


def mollify(
    f: Callable[..., np.ndarray],
    spec: MollifySpec,
    x,
    region: Domain | None = None,
) -> float:
    """Mollified value of the coordinate field ``f`` (see :func:`mollify_many`)
    at one point of the inset region ``D_delta``.

    When ``region`` is given, the point must sit deeper than the
    mollification radius (distance to the boundary above ``r``).
    """
    x = np.asarray(x, dtype=float)
    if region is not None and not inset_contains(region, x, spec.r):
        raise ValueError("point closer to the boundary than the mollification radius")
    kernel = MollifierKernel(x.shape[-1])
    return float(mollify_many(f, spec.r, x[None, :], kernel)[0])


# ---------------------------------------------------------------------------
# inset membership
# ---------------------------------------------------------------------------


def _inset_mask(region: Domain, pts: np.ndarray, delta: float) -> np.ndarray:
    """Which rows of ``pts`` lie in the region deeper than ``delta``."""
    if isinstance(region, Box):
        lo = np.asarray(region.lo)
        hi = np.asarray(region.hi)
        return np.all(pts > lo + delta, axis=1) & np.all(pts < hi - delta, axis=1)
    if isinstance(region, CuspDomain):
        if region.dim != 2 or region.exponents != (1.0,):
            raise NotImplementedError("insets are implemented for boxes and 2-D H_1")
        x1, x2 = pts[:, 0], pts[:, 1]
        # triangle 0 < x1 < x2 < 1: left edge, top edge, hypotenuse
        dist = np.minimum(np.minimum(x1, 1.0 - x2), (x2 - x1) / math.sqrt(2.0))
        return (dist > delta) & (0 < x1) & (x1 < x2) & (x2 < 1)
    raise NotImplementedError(f"inset membership for {type(region)!r}")


def inset_contains(region: Domain, x, delta: float) -> bool:
    """Is ``x`` in the region with distance to the boundary above ``delta``?"""
    return bool(_inset_mask(region, np.asarray(x, dtype=float)[None, :], delta)[0])


def _inset_grid(region: Domain, delta: float, cells: int) -> tuple[np.ndarray, float]:
    """Centroid nodes of the inset region on a uniform background grid."""
    if isinstance(region, CuspDomain):
        lo, hi = (0.0,) * region.dim, (1.0,) * region.dim
    elif isinstance(region, Box):
        lo, hi = region.lo, region.hi
    else:
        raise NotImplementedError(f"norm grid for {type(region)!r}")
    pts, _ = _tensor_cells([_axis_cells(a, b, cells) for a, b in zip(lo, hi)])
    vol = float(np.prod((np.asarray(hi) - np.asarray(lo)) / cells))
    return pts[_inset_mask(region, pts, delta)], vol


# ---------------------------------------------------------------------------
# smooth test fields
# ---------------------------------------------------------------------------


class SmoothField:
    """Test function with analytic derivatives, built from a sympy expression.

    Used to verify the derivative-commutation identity on functions whose
    weak and classical derivatives coincide.
    """

    def __init__(self, expr: sp.Expr, dim: int):
        import sympy as sp

        self.expr = expr
        self.dim = dim
        self._vars = sp.symbols(f"x0:{dim}")
        self._cache: dict[tuple[int, ...], Callable] = {}

    @classmethod
    def from_string(cls, text: str, dim: int) -> "SmoothField":
        """The one parser of formula text: variables ``x0 … x{dim-1}``, with
        ``x, y`` for ``x0, x1``; ValueError for anything else."""
        import sympy as sp

        vars_ = sp.symbols(f"x0:{dim}")
        expr = sp.sympify(text, locals=dict(zip("xy", vars_)))
        if not isinstance(expr, sp.Expr) or expr.has(sp.Lambda, sp.I, sp.nan, sp.zoo, sp.oo, -sp.oo):
            raise ValueError(f"{text!r} is not a real, finite formula")
        unknown = sorted(map(str, expr.free_symbols - set(vars_)))
        if unknown:
            raise ValueError(f"unknown variable {unknown[0]!r} in {text!r}")
        return cls(expr, dim)

    def lambdified(self, alpha: Sequence[int] | None = None) -> Callable[..., np.ndarray]:
        """``D^alpha`` of the field (the field itself by default) as a
        coordinate function ``f(x0, …, x_{dim-1})`` of arrays that broadcast
        together, the form :func:`mollify_many` takes.  A constant comes back
        as a scalar."""
        alpha = (0,) * self.dim if alpha is None else tuple(int(a) for a in alpha)
        if alpha not in self._cache:
            import sympy as sp

            expr = self.expr
            for var, order in zip(self._vars, alpha):
                if order:
                    expr = sp.diff(expr, var, order)
            fn = sp.lambdify(self._vars, expr, "numpy", cse=True)
            self._cache[alpha] = fn
        return self._cache[alpha]

    def derivative(self, alpha: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
        fn = self.lambdified(alpha)

        def evaluate(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            vals = fn(*(pts[:, i] for i in range(self.dim)))
            return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()

        return evaluate

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.derivative((0,) * self.dim)(pts)


# ---------------------------------------------------------------------------
# commutation and convergence checks
# ---------------------------------------------------------------------------


def _fd_of_mollified(
    f: Callable[..., np.ndarray],
    r: float,
    kernel: MollifierKernel,
    x: np.ndarray,
    alpha,
    step: float,
) -> np.ndarray:
    """Central finite difference of ``A_r f`` of multi-order ``alpha``, ``f``
    a coordinate field."""
    order = sum(alpha)
    A = lambda pts: mollify_many(f, r, pts, kernel)
    if order == 0:
        return A(x)
    if order == 1:
        ax = alpha.index(1)
        e = np.zeros(x.shape[1])
        e[ax] = step
        return (A(x + e) - A(x - e)) / (2.0 * step)
    if order == 2 and 2 in alpha:
        ax = alpha.index(2)
        e = np.zeros(x.shape[1])
        e[ax] = step
        return (A(x + e) - 2.0 * A(x) + A(x - e)) / step**2
    if order == 2:
        ax1, ax2 = [i for i, a in enumerate(alpha) if a == 1]
        e1 = np.zeros(x.shape[1])
        e2 = np.zeros(x.shape[1])
        e1[ax1] = step
        e2[ax2] = step
        return (
            A(x + e1 + e2) - A(x + e1 - e2) - A(x - e1 + e2) + A(x - e1 - e2)
        ) / (4.0 * step**2)
    raise NotImplementedError("multi-indices up to order 2 are supported")


def commutation_check(
    f: SmoothField,
    alpha: Sequence[int],
    spec: MollifySpec,
    samples: np.ndarray,
    step: float = 1e-4,
) -> float:
    """Max over samples of |finite-difference D^alpha(A_r f) - A_r(D^alpha f)|.

    Both sides ride on the same convolution rule, so the discrepancy is pure
    finite-difference error, second order in ``step``.
    """
    alpha = tuple(int(a) for a in alpha)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    kernel = MollifierKernel(samples.shape[1])
    lhs = _fd_of_mollified(f.lambdified(), spec.r, kernel, samples, alpha, step)
    rhs = mollify_many(f.lambdified(alpha), spec.r, samples, kernel)
    return float(np.max(np.abs(lhs - rhs)))


def convergence_test(
    f: Callable[..., np.ndarray],
    weight: Weight | None,
    p: float,
    delta: float,
    radii: Sequence[float],
    region: Domain,
    cells: int = 64,
) -> list[tuple[float, float]]:
    """Norm sequence ``||A_r f - f||_{L_p(D_delta, w)}`` over decreasing radii.

    ``f`` is a coordinate field (see :func:`mollify_many`).  Every radius is
    measured on the same inset node set, so the sequence is comparable entry
    to entry.  ``cells < 1``, an empty ``radii``, ``p < 1``, a radius outside
    ``(0, delta)`` and a weight outside the A_p window raise
    :class:`~cusplab.exponents.ValidityError` before any work; so do an empty
    inset region and a field that is not finite on the inset nodes or within
    a radius of them.
    """
    radii = list(radii)
    if cells < 1:
        raise ValidityError(f"need cells >= 1, got {cells}")
    if not radii:
        raise ValidityError("need at least one radius")
    if not p >= 1.0:
        raise ValidityError(f"need p >= 1, got {p:g}")
    if not all(0.0 < r < delta for r in radii):
        raise ValidityError(f"need 0 < r < delta = {delta:g} for every radius")
    if weight is not None:
        lo, hi = polynomial_ap_range(weight.dim, p)
        if not (lo < weight.alpha < hi):
            raise ValidityError(
                f"weight power {weight.alpha} outside the A_p window ({lo}, {hi})"
            )
    pts, vol = _inset_grid(region, delta, cells)
    if pts.shape[0] == 0:
        raise ValidityError("inset region is empty at this delta")
    wvals = weight(pts) if weight is not None else np.ones(pts.shape[0])
    with np.errstate(all="ignore"):
        fvals = f(*(pts[:, a] for a in range(pts.shape[1])))
    fvals = np.broadcast_to(np.asarray(fvals, dtype=float), pts.shape[:1])
    if not np.isfinite(fvals).all():
        raise ValidityError("the field is not finite on the inset region")
    out = []
    kernel = MollifierKernel(dim=pts.shape[1])
    for r in radii:
        diff = mollify_many(f, r, pts, kernel) - fvals
        norm = float((np.sum(np.abs(diff) ** p * wvals) * vol) ** (1.0 / p))
        out.append((float(r), norm))
    return out
