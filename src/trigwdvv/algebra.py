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

from .configurations import BCnParameters, Partition, _bcn_members, _read_only, _restriction
from .errors import DimensionError
from .prepotential import _finite, _matvec, _point, coth


def _operands(A: np.ndarray, names: str, *vectors, lead: tuple = ()) -> list[np.ndarray]:
    """``vectors`` as float arrays; one of a shape other than (*lead, n), n = A's column count, raises DimensionError."""
    shape = (*lead, A.shape[1])
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != shape for v in vectors):
        raise DimensionError(f"{names} must have shape {shape}")
    return vectors


def multiply(active, u, v) -> np.ndarray:
    """u * v = sum over active members of c (alpha,u)(alpha,v) coth((alpha,x)) alpha.

    ``active`` is (A, c, z) from ``active_pairings`` at the point x.
    """
    A, c, z = active
    u, v = _operands(A, "u, v", u, v)
    # the pairing product is grouped first so u * v == v * u holds exactly
    pairings = (A @ u) * (A @ v)
    return A.T @ (c * coth(z) * pairings)


def associativity_residual(active, u, v, w, raise_index):
    """Max-abs entry of (u o v) o w - u o (v o w) over the larger side's, with no floor; 0 when both vanish.

    u o v = raise_index(u * v), where ``active`` is as in ``multiply`` and
    ``raise_index`` maps a covector to a vector through the source's metric G.
    The four products share one weight c coth(z) and the pairings A u, A v and
    A w, so a point costs one coth and nine passes over A, not four and twelve;
    each product is grouped as ``multiply`` groups it, so the residual is the
    four-``multiply`` composition's bit for bit.  u, v, w of shape (..., n) and z
    of (..., M) give one residual a point, of shape (...), and ``raise_index`` maps
    (..., n) to (..., n).  Every pass over A is a stacked matrix-vector product,
    ``A @ d[..., None]`` and ``A.T @ t[..., None]``, so each point of a block reads
    the bits it reads alone, a point whose sides both vanish included, and a
    non-finite point moves only its own entry.
    """
    A, c, z = active
    u, v, w = _operands(A, "u, v, w", u, v, w, lead=np.shape(z)[:-1])
    weight = c * coth(z)

    def product(Aa, Ab):  # a o b from the pairings A a and A b
        return raise_index(_matvec(A.T, weight * (Aa * Ab)))

    Au, Av, Aw = _matvec(A, u), _matvec(A, v), _matvec(A, w)
    left = product(_matvec(A, product(Au, Av)), Aw)
    right = product(Au, _matvec(A, product(Av, Aw)))
    scale = np.maximum(np.abs(left).max(axis=-1), np.abs(right).max(axis=-1))  # a NaN on either side stays NaN
    # where both sides vanish, so does their difference: 0 / 1 reads 0
    return np.abs(left - right).max(axis=-1) / np.where(scale, scale, 1.0)


class RestrictionContext:
    """BC_N data restricted to the subspace of a block partition.

    Built once per run from one set of BC_N(r, s, q)'s member arrays and shared
    by every point: the block basis F (rows f_1..f_n), the block sizes ``m``, the
    projected configuration and its family parameters ``params``, and BC_N's
    members split once as ``_restriction`` marks them, in BC_N's order and
    read-only, with no configuration built: ``subsystem``, the block subsystem's
    vectors, ``outside``, the (vectors, multiplicities) of every other member, and
    ``outside_active``, its (A, c) of nonzero multiplicity; P = F A^T and the
    absolute values of ``subsystem`` and A, which bound the tangency sums, too.
    The functions below take the context and its ``pairings`` at points x_tilde
    (..., n), each point's bits as alone.
    """

    def __init__(self, r: float, s: float, q: float, part: Partition) -> None:
        self.params = BCnParameters(n=part.n, r=r, s=s, q=q, m=part.blocks)
        self.block_basis = part.block_indicators()
        self.m = np.asarray(part.blocks, dtype=float)
        vectors, mults = _bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N))
        self.projected_config, in_subsystem = _restriction(self.block_basis, vectors, mults)
        self.subsystem = vectors[in_subsystem]
        V, c = self.outside = _read_only(vectors[~in_subsystem], mults[~in_subsystem])
        A, _ = self.outside_active = self.outside if c.all() else _read_only(V[c != 0.0], c[c != 0.0])
        self._P = self.block_basis @ A.T
        self._abs_subsystem = np.abs(self.subsystem)
        self._abs_outside = np.abs(A)

    def pairings(self, x_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, c, z): ``outside_active`` and its pairings z = P^T x_tilde, (alpha, sum_k x_tilde_k f_k) for each
        member alpha, at x_tilde (n,) or a block (b, n) in block-basis coordinates, read by ``prepotential._point``;
        a point that is not finite raises DomainError.  No margin is tested: each column of P is the projected
        configuration's vector of its member, so the sampler's margin rule has kept every |z| >= theta."""
        A, c = self.outside_active
        return A, c, _matvec(self._P.T, _finite(_point(x_tilde, len(self.m), True)))


def restricted_multiply(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace, for u, v tangent to it.

    ``active`` is ``rctx.pairings`` at the point.  w = ``multiply`` over the
    covectors outside the block subsystem, projected onto the block subspace
    as sum_k (f_k, w)/m_k f_k: constant on blocks, exactly.
    """
    return rctx.block_basis.T @ ((rctx.block_basis @ multiply(active, u, v)) / rctx.m)


def tangency_residuals(rctx: RestrictionContext, active, u, v) -> np.ndarray:
    """Tangency residuals at the points of ``active``, one per row alpha of ``subsystem``.

    Each is |(alpha, u * v)| = |sum_beta t_beta (alpha,beta)|, u * v being ``multiply`` over the members
    beta outside the subsystem and t_beta = c (beta,u)(beta,v) coth((beta,x)), over the bound
    max(1, sum_beta |t_beta| sum_k |alpha_k||beta_k|), floored since it vanishes at r = s = q = 0.
    t is formed once and u * v is A^T t, grouped as ``multiply`` groups it; the bound reads the
    context's absolute members.  The sums vanish for u, v constant on blocks; non-tangent inputs are
    accepted, to show tangency is needed.  z of shape (..., M') and u, v of (..., N) give (..., S) by
    ``_matvec``, each point's bits as alone; an empty subsystem gives S = 0.
    """
    A, c, z = active
    u, v = _operands(A, "u, v", u, v, lead=np.shape(z)[:-1])
    t = c * coth(z) * (_matvec(A, u) * _matvec(A, v))
    scale = _matvec(rctx._abs_subsystem, _matvec(rctx._abs_outside.T, np.abs(t)))
    return np.abs(_matvec(rctx.subsystem, _matvec(A.T, t))) / np.maximum(1.0, scale)


def structure_constants(rctx: RestrictionContext, active) -> np.ndarray:
    """C[i][j][k] with f_i * f_j = sum_k C[i][j][k] f_k, from restricted products.

    ``active`` is ``rctx.pairings`` at the points, z of shape (..., M').  With P[k]
    the context's pairings (alpha, f_k) over the members and w = c coth(z), the block
    coefficients of ``restricted_multiply(rctx, active, f_i, f_j)`` are
    C[i][j][k] = sum_alpha w P[i] P[j] P[k] / m_k: one stacked matmul of the
    (..., n, n, M') products, a GEMM per row i of a point, as alone.  C equals the
    projected configuration's tensor divided by m_k in the last index, but is
    computed without it; tests check the two routes against each other.
    """
    _, c, z = active
    P, w = rctx._P, c * coth(z)
    return (P * (w[..., None, None, :] * P[:, None, :])) @ P.T / rctx.m
