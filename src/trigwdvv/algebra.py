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
    MERGE_TOL,
    Partition,
    build_bcN_root_system,
    restrict_configuration,
)
from .errors import DegenerateHError, DimensionError, PreconditionError
from .prepotential import DEFAULT_THRESHOLD, active_pairings, coth, h_function, tensor_generic

_H_FLOOR = 1e-6


class ProductContext:
    """A configuration together with an admissible evaluation point.

    ``active`` holds (A, c, z) from ``active_pairings`` at that point.
    """

    def __init__(self, config: Configuration, x, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.active = active_pairings(config, x, threshold)
        self.config = config
        self.x = np.asarray(x, dtype=float)
        self.threshold = float(threshold)


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
    partition and its block basis, the projected configuration, the f-hat
    coordinates of every ambient member, the block-subsystem mask, and the
    vectors, multiplicities and projections of the active members outside the
    subsystem.  These arrays are read-only and shared by every point of the
    run.

    Per point: x_tilde in block-basis coordinates, the embedded point
    sum_k x_tilde_k f_k, which must be admissible for every covector outside
    the block subsystem, and coth of those covectors' pairings with it.
    ``at(x_tilde)`` gives the run's context at a point; a context constructed
    without ``x_tilde`` carries the run data only, and the functions below
    that evaluate at a point need one with a point.
    """

    def __init__(
        self,
        r: float,
        s: float,
        q: float,
        part: Partition,
        x_tilde=None,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.r, self.s, self.q = float(r), float(s), float(q)
        self.part = part
        self.threshold = float(threshold)
        self.ambient_config = build_bcN_root_system(part.N, r, s, q)
        self.projected_config = restrict_configuration(part.N, r, s, q, part, self.ambient_config)
        self.block_basis = part.block_indicators()  # rows are f_1..f_n
        self.m = np.asarray(part.blocks, dtype=float)
        # f-hat coordinates (alpha, f_k) of every ambient member; zero rows are
        # exactly the block subsystem.
        self._coords = self.ambient_config.vectors @ self.block_basis.T
        self.in_subsystem = np.abs(self._coords).max(axis=1) <= MERGE_TOL
        c = self.ambient_config.multiplicities
        keep = (~self.in_subsystem) & (c != 0.0)
        self._A_out = self.ambient_config.vectors[keep]
        self._c_out = c[keep]
        # projected covectors: sum_k (alpha, f_k)/m_k * f_k
        self._proj_out = (self._coords[keep] / self.m) @ self.block_basis
        self.x_tilde = self.x_embedded = self._coth_out = None
        if x_tilde is not None:
            self._place(x_tilde)

    def at(self, x_tilde) -> "RestrictionContext":
        """This run's context at the point ``x_tilde``, sharing the per-run data."""
        point = copy.copy(self)
        point._place(x_tilde)
        return point

    def _place(self, x_tilde) -> None:
        x_tilde = np.asarray(x_tilde, dtype=float)
        if x_tilde.shape != (self.part.n,):
            raise DimensionError(f"x_tilde has shape {x_tilde.shape}, expected ({self.part.n},)")
        x_embedded = self.block_basis.T @ x_tilde
        _, _, z = active_pairings(
            self.ambient_config, x_embedded, self.threshold, among=~self.in_subsystem
        )
        self.x_tilde, self.x_embedded, self._coth_out = x_tilde, x_embedded, coth(z)

    def subsystem_members(self) -> np.ndarray:
        """Vectors of the block subsystem (within-block differences)."""
        return self.ambient_config.vectors[self.in_subsystem]

    def params(self) -> BCnParameters:
        """The projected family parameters (m = block sizes)."""
        return BCnParameters(
            n=self.part.n, r=self.r, s=self.s, q=self.q, m=tuple(float(b) for b in self.part.blocks)
        )


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


def tangency_residual(rctx: RestrictionContext, u, v, alpha) -> float:
    """|sum over beta outside the subsystem of c (beta,u)(beta,v)(alpha,beta) coth((beta,x))|.

    ``alpha`` must belong to the block subsystem, which must be nonempty.  The
    sum vanishes when u and v are constant on blocks; non-tangent inputs are
    accepted so the necessity of tangency can be demonstrated.  Scaled by the
    sum of absolute summands.
    """
    if not rctx.in_subsystem.any():
        raise PreconditionError("partition has no repeated blocks: the subsystem is empty")
    alpha = np.asarray(alpha, dtype=float)
    if not (np.abs(rctx.subsystem_members() - alpha) <= MERGE_TOL).all(axis=1).any():
        raise PreconditionError(f"alpha = {alpha.tolist()} is not a subsystem covector")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    A = rctx._A_out
    terms = rctx._c_out * (A @ u) * (A @ v) * (A @ alpha) * rctx._coth_out
    scale = max(1.0, float(np.abs(terms).sum()))
    return abs(float(terms.sum())) / scale


def structure_constants(rctx: RestrictionContext) -> np.ndarray:
    """C[i][j][k] with f_i * f_j = sum_k C[i][j][k] f_k, from restricted products.

    Equals tensor_generic of the projected configuration at x_tilde divided by
    m_k in the last index; tests check the two routes against each other.
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
    """Deviation of diag(m) from sum_i h^{-1} sinh(2 x~_i) F~_i, scaled.

    Vanishes exactly when the multiplicity constraint holds for (r, s, q) and
    N = sum of blocks.  Requires |h(x~)| >= 1e-6.
    """
    p = rctx.params()
    h = h_function(p, rctx.x_tilde)
    if abs(h) < _H_FLOOR:
        raise DegenerateHError(f"|h(x~)| = {abs(h):.3e} < {_H_FLOOR}; decomposition undefined")
    Ft = tensor_generic(rctx.projected_config, rctx.x_tilde, rctx.threshold)
    S = np.einsum("i,ijk->jk", np.sinh(2.0 * rctx.x_tilde) / h, Ft)
    target = np.diag(rctx.m)
    scale = max(1.0, float(np.abs(S).max()), float(np.abs(target).max()))
    return float(np.abs(target - S).max()) / scale
