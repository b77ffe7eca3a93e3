"""Tangent-space multiplication and its limit on block subspaces.

The covector product u * v = sum_alpha c_alpha (alpha, u)(alpha, v) coth((alpha, x)) alpha
is commutative by construction.  With a metric G, the associativity of
u o v = G^{-1}(u * v) is the matrix form of the WDVV equations: G = diag(m)
for a BC_n family (B / h under the multiplicity relation), G = B(x) for an explicit
configuration.  On the subspace where coordinates are constant on blocks, the
product of tangent vectors has a finite limit: the same product over the
covectors outside the block subsystem, projected onto the subspace.  This
module computes that limit, its tangency residual and the structure constants.
"""

from __future__ import annotations

import numpy as np

from .configurations import BCnParameters, Configuration, Partition, _bcn_members, _restriction
from .errors import DimensionError
from .prepotential import DEFAULT_THRESHOLD, active_pairings, coth


def multiply(active, u, v) -> np.ndarray:
    """u * v = sum over active members of c (alpha,u)(alpha,v) coth((alpha,x)) alpha.

    ``active`` is (A, c, z) from ``active_pairings`` at the point x.
    """
    A, c, z = active
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = A.shape[1]
    if u.shape != (n,) or v.shape != (n,):
        raise DimensionError(f"u, v must have shape ({n},)")
    # the pairing product is grouped first so u * v == v * u holds exactly
    pairings = (A @ u) * (A @ v)
    return A.T @ (c * coth(z) * pairings)


def associativity_residual(active, u, v, w, raise_index) -> float:
    """Scaled max-abs entry of (u o v) o w - u o (v o w), where u o v = raise_index(u * v).

    ``active`` is as in ``multiply``.  ``raise_index`` maps the covector
    u * v to a vector through the source's metric G: G^{-1}(u * v).
    """

    def product(a, b):
        return raise_index(multiply(active, a, b))

    left = product(product(u, v), w)
    right = product(u, product(v, w))
    scale = max(1.0, float(np.abs(left).max()), float(np.abs(right).max()))
    return float(np.abs(left - right).max()) / scale


class RestrictionContext:
    """BC_N data restricted to the subspace of a block partition.

    Built once per run from one set of BC_N(r, s, q)'s member arrays and
    shared by every point: the partition and its block basis, the projected
    configuration and its family parameters ``params`` (m = block sizes),
    ``subsystem``, the block subsystem's vectors as ``_restriction`` marks
    them, and ``outside``, BC_N with the subsystem's multiplicities set to 0
    (the same members in the same order).  The functions below that evaluate
    at a point take the context and ``pairings(x_tilde, threshold)`` at that
    point, the margin θ being the caller's.
    """

    def __init__(self, r: float, s: float, q: float, part: Partition) -> None:
        self.part = part
        self.params = BCnParameters(n=part.n, r=r, s=s, q=q, m=part.blocks)
        vectors, mults = _bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N))
        self.projected_config, in_subsystem = _restriction(part, vectors, mults)
        self.block_basis = part.block_indicators()  # rows are f_1..f_n
        self.m = np.asarray(part.blocks, dtype=float)
        self.subsystem = vectors[in_subsystem]
        self.outside = Configuration(part.N, vectors, np.where(in_subsystem, 0.0, mults))

    def pairings(self, x_tilde, threshold: float = DEFAULT_THRESHOLD) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``active_pairings`` of ``outside`` at the embedded point sum_k x_tilde_k f_k.

        ``x_tilde`` is in block-basis coordinates, and the point must be
        admissible for every covector outside the subsystem, with the margin
        ``threshold`` as in ``active_pairings``.
        """
        x_tilde = np.asarray(x_tilde, dtype=float)
        if x_tilde.shape != (self.part.n,):
            raise DimensionError(f"x_tilde has shape {x_tilde.shape}, expected ({self.part.n},)")
        return active_pairings(self.outside, self.block_basis.T @ x_tilde, threshold)


def restricted_multiply(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace, for u, v tangent to it.

    ``active`` is ``rctx.pairings`` at the point.  w = ``multiply`` over the
    covectors outside the block subsystem, projected onto the block subspace
    as sum_k (f_k, w)/m_k f_k: constant on blocks, exactly.
    """
    return _project(rctx, multiply(active, u, v))


def _project(rctx: RestrictionContext, w) -> np.ndarray:
    """sum_k (f_k, w)/m_k f_k, the covector w projected onto the block subspace."""
    F = rctx.block_basis
    return F.T @ ((F @ w) / rctx.m)


def tangency_residuals(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Tangency residuals at the point of ``active``, one per row alpha of ``subsystem``.

    Each is |(alpha, u * v)| = |sum_beta t_beta (alpha,beta)|, u * v being ``multiply`` over the members
    beta outside the subsystem and t_beta = c (beta,u)(beta,v) coth((beta,x)), scaled by the bound
    max(1, sum_beta |t_beta| sum_k |alpha_k||beta_k|).  The sums vanish for u, v constant on blocks;
    non-tangent inputs are accepted, to show tangency is needed.  An empty subsystem gives an empty array.
    """
    A, c, z = active
    product = multiply(active, u, v)
    t = c * coth(z) * ((A @ u) * (A @ v))
    scale = np.abs(rctx.subsystem) @ (np.abs(A).T @ np.abs(t))
    return np.abs(rctx.subsystem @ product) / np.maximum(1.0, scale)


def structure_constants(rctx: RestrictionContext, active) -> np.ndarray:
    """C[i][j][k] with f_i * f_j = sum_k C[i][j][k] f_k, from restricted products.

    ``active`` is ``rctx.pairings`` at the point.  C equals the projected
    configuration's tensor there divided by m_k in the last index, but is
    computed without it; tests check the two routes against each other.
    The weights c coth(z) and the pairings (alpha, f_i) are formed once per
    call, and the pair weights c coth(z) (alpha, f_i)(alpha, f_j) once per row
    i, as ``multiply`` forms them; each pair i <= j then takes ``multiply``'s
    sum over the members and ``restricted_multiply``'s projection.  Those
    pairings are integer sums, so every product has the bits of
    ``restricted_multiply(rctx, active, f_i, f_j)``.
    """
    A, c, z = active
    F, n = rctx.block_basis, rctx.part.n
    weights = c * coth(z)
    fA = F @ A.T  # row i is (alpha, f_i) over the members
    C = np.zeros((n, n, n))
    for i in range(n):
        for j, w in enumerate(weights * (fA[i] * fA[i:]), start=i):
            C[i, j] = C[j, i] = (F @ _project(rctx, A.T @ w)) / rctx.m
    return C
