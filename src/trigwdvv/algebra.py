"""Tangent-space multiplication and its limit on block subspaces.

The product u * v = sum_alpha c_alpha (alpha, u)(alpha, v) coth((alpha, x)) alpha
is commutative by construction; its associativity is the matrix form of the
WDVV equations.  On the subspace where coordinates are constant on blocks, the
product of tangent vectors has a finite limit: the same product over the
covectors outside the block subsystem, projected onto the subspace.  This
module computes that limit, the closure (tangency) residual behind it, the
structure constants in the block basis, and the decomposition of the
restricted inner product matrix in terms of the projected tensor.
"""

from __future__ import annotations

import copy

import numpy as np

from .configurations import (
    BCnParameters,
    Configuration,
    Partition,
    _restriction,
    build_bcN_root_system,
)
from .errors import DegenerateHError, DimensionError
from .prepotential import DEFAULT_THRESHOLD, active_pairings, coth, h_function, metric_B, tensor_generic

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

    Per run, built once and shared by every point: the partition and its
    block basis, the projected configuration and its family parameters
    ``params`` (m = block sizes), ``subsystem``, the vectors of the block
    subsystem of BC_N(r, s, q) as ``Partition.block_coordinates`` marks it,
    and ``outside``, BC_N with the subsystem's multiplicities set to 0 (the
    same members in the same order).

    Per point: x_tilde in block-basis coordinates, the embedded point
    sum_k x_tilde_k f_k, ``product``, the ``ProductContext`` of ``outside``
    there (the point must be admissible for every covector outside the
    subsystem), and ``projected_tensor``, tensor_generic of the projected
    configuration at x_tilde.  ``at(x_tilde)`` gives the run's context at a
    point, and the functions below that evaluate at a point take such a
    context (given the per-run context, they raise AttributeError).
    """

    def __init__(
        self, r: float, s: float, q: float, part: Partition, threshold: float = DEFAULT_THRESHOLD
    ) -> None:
        self.part = part
        self.threshold = float(threshold)
        self.params = BCnParameters(n=part.n, r=float(r), s=float(s), q=float(q), m=part.blocks)
        ambient = build_bcN_root_system(part.N, r, s, q)
        self.projected_config, in_subsystem = _restriction(part, ambient)
        self.block_basis = part.block_indicators()  # rows are f_1..f_n
        self.m = np.asarray(part.blocks, dtype=float)
        self.subsystem = ambient.vectors[in_subsystem]
        self.outside = ambient._with_multiplicities(np.where(in_subsystem, 0.0, ambient.multiplicities))

    def at(self, x_tilde) -> "RestrictionContext":
        """This run's context at the point ``x_tilde``, sharing the per-run data."""
        x_tilde = np.asarray(x_tilde, dtype=float)
        if x_tilde.shape != (self.part.n,):
            raise DimensionError(f"x_tilde has shape {x_tilde.shape}, expected ({self.part.n},)")
        point = copy.copy(self)
        point.x_tilde, point.x_embedded = x_tilde, self.block_basis.T @ x_tilde
        point.product = ProductContext(self.outside, point.x_embedded, self.threshold)
        point.projected_tensor = tensor_generic(self.projected_config, x_tilde, self.threshold)
        return point


def restricted_multiply(rctx: RestrictionContext, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace, for u, v tangent to it.

    w = ``multiply`` over the covectors outside the block subsystem, projected
    onto the block subspace as sum_k (f_k, w)/m_k f_k: constant on blocks, exactly.
    """
    F = rctx.block_basis
    return F.T @ ((F @ multiply(rctx.product, u, v)) / rctx.m)


def tangency_residuals(rctx: RestrictionContext, u, v) -> np.ndarray:
    """Tangency residuals at ``rctx``'s point, one per row alpha of ``subsystem``.

    Each is |sum over beta outside the subsystem of c (beta,u)(beta,v)(alpha,beta) coth((beta,x))|
    scaled by the sum of absolute summands.  The sums vanish when u and v are
    constant on blocks; non-tangent inputs are accepted so the necessity of
    tangency can be demonstrated.  An empty subsystem gives an empty array.
    """
    A, c, z = rctx.product.active
    # one row of summands per alpha; each row is reduced along its own
    # contiguous axis, so it sums exactly as a single alpha's summands would
    terms = c * (A @ u) * (A @ v) * (rctx.subsystem @ A.T) * coth(z)
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
    S = metric_B(rctx.projected_tensor, rctx.x_tilde) / h
    target = np.diag(rctx.m)
    scale = max(1.0, float(np.abs(S).max()), float(np.abs(target).max()))
    return float(np.abs(target - S).max()) / scale
