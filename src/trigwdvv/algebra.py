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
    at a point take the context and ``pairings(x_tilde)`` at that point.
    """

    def __init__(
        self, r: float, s: float, q: float, part: Partition, threshold: float = DEFAULT_THRESHOLD
    ) -> None:
        self.part = part
        self.threshold = float(threshold)
        self.params = BCnParameters(n=part.n, r=float(r), s=float(s), q=float(q), m=part.blocks)
        vectors, mults = _bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N))
        self.projected_config, in_subsystem = _restriction(part, vectors, mults)
        self.block_basis = part.block_indicators()  # rows are f_1..f_n
        self.m = np.asarray(part.blocks, dtype=float)
        self.subsystem = vectors[in_subsystem]
        self.outside = Configuration(part.N, vectors, np.where(in_subsystem, 0.0, mults))

    def pairings(self, x_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``active_pairings`` of ``outside`` at the embedded point sum_k x_tilde_k f_k.

        ``x_tilde`` is in block-basis coordinates, and the point must be
        admissible for every covector outside the subsystem.
        """
        x_tilde = np.asarray(x_tilde, dtype=float)
        if x_tilde.shape != (self.part.n,):
            raise DimensionError(f"x_tilde has shape {x_tilde.shape}, expected ({self.part.n},)")
        return active_pairings(self.outside, self.block_basis.T @ x_tilde, self.threshold)


def restricted_multiply(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace, for u, v tangent to it.

    ``active`` is ``rctx.pairings`` at the point.  w = ``multiply`` over the
    covectors outside the block subsystem, projected onto the block subspace
    as sum_k (f_k, w)/m_k f_k: constant on blocks, exactly.
    """
    F = rctx.block_basis
    return F.T @ ((F @ multiply(active, u, v)) / rctx.m)


def tangency_residuals(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Tangency residuals at the point of ``active``, one per row alpha of ``subsystem``.

    Each is |sum over beta outside the subsystem of c (beta,u)(beta,v)(alpha,beta) coth((beta,x))|
    scaled by the sum of absolute summands.  The sums vanish when u and v are
    constant on blocks; non-tangent inputs are accepted so the necessity of
    tangency can be demonstrated.  An empty subsystem gives an empty array.
    """
    A, c, z = active
    # one row of summands per alpha; each row is reduced along its own
    # contiguous axis, so it sums exactly as a single alpha's summands would
    terms = c * (A @ u) * (A @ v) * (rctx.subsystem @ A.T) * coth(z)
    return np.abs(terms.sum(axis=1)) / np.maximum(1.0, np.abs(terms).sum(axis=1))


def structure_constants(rctx: RestrictionContext, active) -> np.ndarray:
    """C[i][j][k] with f_i * f_j = sum_k C[i][j][k] f_k, from restricted products.

    ``active`` is ``rctx.pairings`` at the point.  C equals the projected
    configuration's tensor there divided by m_k in the last index, but is
    computed without it; tests check the two routes against each other.
    """
    n = rctx.part.n
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            y = restricted_multiply(rctx, active, rctx.block_basis[i], rctx.block_basis[j])
            coeffs = (rctx.block_basis @ y) / rctx.m
            C[i, j, :] = coeffs
            C[j, i, :] = coeffs
    return C

