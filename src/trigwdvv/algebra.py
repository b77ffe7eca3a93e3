"""Tangent-space multiplication and its limit on block subspaces.

The product u * v = sum_alpha c_alpha (alpha, u)(alpha, v) coth((alpha, x)) alpha
is commutative by construction; its associativity is the matrix form of the
WDVV equations.  On the subspace where coordinates are constant on blocks, the
product of tangent vectors has a finite limit obtained by dropping the block
subsystem and projecting every remaining covector; this module computes that
limit, the closure (tangency) residual behind it, the structure constants in
the block basis, and the decomposition of the restricted inner product matrix
in terms of the projected tensor.
"""

from __future__ import annotations

import copy

import numpy as np

from .configurations import (
    BCnParameters,
    Configuration,
    Partition,
    build_bcN_root_system,
    restrict_configuration,
)
from .errors import DegenerateHError, DimensionError
from .prepotential import DEFAULT_THRESHOLD, active_pairings, coth, h_function, tensor_generic

_H_FLOOR = 1e-6


class ProductContext:
    """A configuration together with an admissible evaluation point.

    ``active`` holds (A, c, z) from ``active_pairings`` at that point.
    """

    def __init__(self, config: Configuration, x, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.active = active_pairings(config, x, threshold)
        self.config = config


def multiply(ctx: ProductContext, u, v) -> np.ndarray:
    """u * v = sum over active members of c (alpha,u)(alpha,v) coth((alpha,x)) alpha."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = ctx.config.dimension
    if u.shape != (n,) or v.shape != (n,):
        raise DimensionError(f"u, v must have shape ({n},)")
    A, c, z = ctx.active
    # the pairing product is grouped first so u * v == v * u holds exactly
    pairings = (A @ u) * (A @ v)
    return A.T @ (c * coth(z) * pairings)


def associativity_residual(ctx: ProductContext, u, v, w) -> float:
    """Scaled max-abs entry of (u*v)*w - u*(v*w)."""
    left = multiply(ctx, multiply(ctx, u, v), w)
    right = multiply(ctx, u, multiply(ctx, v, w))
    scale = max(1.0, float(np.abs(left).max()), float(np.abs(right).max()))
    return float(np.abs(left - right).max()) / scale


class RestrictionContext:
    """BC_N data restricted to the subspace of a block partition.

    Per run, built once: the ambient BC_N(r, s, q) configuration, the
    partition and its block basis, the projected configuration and its family
    parameters ``params`` (m = block sizes), the block-subsystem mask from
    ``Partition.block_coordinates``, and the vectors, multiplicities and
    projections of the active members outside the subsystem.  These
    arrays are read-only and shared by every point of the run.

    Per point: x_tilde in block-basis coordinates, the embedded point
    sum_k x_tilde_k f_k, which must be admissible for every covector outside
    the block subsystem, coth of those covectors' pairings with it, and
    ``projected_tensor``, tensor_generic of the projected configuration at
    x_tilde.  ``at(x_tilde)`` gives the run's context at a point, and the
    functions below that evaluate at a point take such a context (given the
    per-run context, they raise AttributeError).
    """

    def __init__(
        self, r: float, s: float, q: float, part: Partition, threshold: float = DEFAULT_THRESHOLD
    ) -> None:
        self.part = part
        self.threshold = float(threshold)
        self.params = BCnParameters(n=part.n, r=float(r), s=float(s), q=float(q), m=part.blocks)
        self.ambient_config = build_bcN_root_system(part.N, r, s, q)
        self.projected_config = restrict_configuration(part.N, r, s, q, part, self.ambient_config)
        self.block_basis = part.block_indicators()  # rows are f_1..f_n
        self.m = np.asarray(part.blocks, dtype=float)
        coords, self.in_subsystem = part.block_coordinates(self.ambient_config.vectors)
        c = self.ambient_config.multiplicities
        keep = (~self.in_subsystem) & (c != 0.0)
        self._A_out = self.ambient_config.vectors[keep]
        self._c_out = c[keep]
        # projected covectors: sum_k (alpha, f_k)/m_k * f_k
        self._proj_out = (coords[keep] / self.m) @ self.block_basis

    def at(self, x_tilde) -> "RestrictionContext":
        """This run's context at the point ``x_tilde``, sharing the per-run data."""
        x_tilde = np.asarray(x_tilde, dtype=float)
        if x_tilde.shape != (self.part.n,):
            raise DimensionError(f"x_tilde has shape {x_tilde.shape}, expected ({self.part.n},)")
        point = copy.copy(self)
        point.x_tilde, point.x_embedded = x_tilde, self.block_basis.T @ x_tilde
        _, _, z = active_pairings(
            self.ambient_config, point.x_embedded, self.threshold, among=~self.in_subsystem
        )
        point._coth_out = coth(z)
        point.projected_tensor = tensor_generic(self.projected_config, x_tilde, self.threshold)
        return point

    def subsystem_members(self) -> np.ndarray:
        """Vectors of the block subsystem (within-block differences)."""
        return self.ambient_config.vectors[self.in_subsystem]


def restricted_multiply(rctx: RestrictionContext, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace, for u, v tangent to it.

    Sums over covectors outside the block subsystem with each covector replaced
    by its orthogonal projection; the result is again constant on blocks.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    N = rctx.part.N
    if u.shape != (N,) or v.shape != (N,):
        raise DimensionError(f"u, v must have shape ({N},)")
    A = rctx._A_out
    if not len(A):
        return np.zeros(N)
    w = rctx._c_out * rctx._coth_out * (A @ u) * (A @ v)
    return rctx._proj_out.T @ w


def tangency_residuals(rctx: RestrictionContext, u, v) -> np.ndarray:
    """Tangency residuals at ``rctx``'s point, one per row alpha of ``subsystem_members()``.

    Each is |sum over beta outside the subsystem of c (beta,u)(beta,v)(alpha,beta) coth((beta,x))|
    scaled by the sum of absolute summands.  The sums vanish when u and v are
    constant on blocks; non-tangent inputs are accepted so the necessity of
    tangency can be demonstrated.  An empty subsystem gives an empty array.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    A = rctx._A_out
    # one row of summands per alpha; each row is reduced along its own
    # contiguous axis, so it sums exactly as a single alpha's summands would
    terms = rctx._c_out * (A @ u) * (A @ v) * (rctx.subsystem_members() @ A.T) * rctx._coth_out
    return np.abs(terms.sum(axis=1)) / np.maximum(1.0, np.abs(terms).sum(axis=1))


def structure_constants(rctx: RestrictionContext) -> np.ndarray:
    """C[i][j][k] with f_i * f_j = sum_k C[i][j][k] f_k, from restricted products.

    Equals ``projected_tensor`` divided by m_k in the last index, but is
    computed without it; tests check the two routes against each other.
    """
    n = rctx.part.n
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            y = restricted_multiply(rctx, rctx.block_basis[i], rctx.block_basis[j])
            coeffs = (rctx.block_basis @ y) / rctx.m
            C[i, j, :] = coeffs
            C[j, i, :] = coeffs
    return C


def h_b_decomposition_residual(rctx: RestrictionContext) -> float:
    """Deviation of diag(m) from sum_i h^{-1} sinh(2 x~_i) F~_i, scaled; F~ is ``projected_tensor``.

    Vanishes exactly when the multiplicity constraint holds for (r, s, q) and
    N = sum of blocks.  Requires |h(x~)| >= 1e-6.
    """
    h = h_function(rctx.params, rctx.x_tilde)
    if abs(h) < _H_FLOOR:
        raise DegenerateHError(f"|h(x~)| = {abs(h):.3e} < {_H_FLOOR}; decomposition undefined")
    S = np.einsum("i,ijk->jk", np.sinh(2.0 * rctx.x_tilde) / h, rctx.projected_tensor)
    target = np.diag(rctx.m)
    scale = max(1.0, float(np.abs(S).max()), float(np.abs(target).max()))
    return float(np.abs(target - S).max()) / scale
