"""Residuals of the WDVV equations F_i P^{-1} F_j = F_j P^{-1} F_i.

WDVV for one invertible pivot P in the span of the slices F_k implies it for
every other (Marshakov-Mironov-Morozov 1996).  On the BC_n family and its
rescaling every covector has at most two nonzero entries, so F_ijk = 0 for
distinct i, j, k: each slice F_i is an arrow matrix, and the tensor is one
n x n array V[i, k] = F_ikk (``arrow_slices``).  ``arrow_residuals`` takes every
family check at a diagonal pivot, ``verify-wdvv``'s diag(B) and ``verify-susy``'s
identity, in O(n^3) memory and O(n^4) flops a point, with no n^4 array and no LU.
An explicit configuration's check is ``pivot_residuals``', at whichever of B and
a generic eta.F = sum_k eta_k F_k is better conditioned, under ``usable_pivots``'
cap.  Both kernels evaluate the pairs i < j only, each equation being
antisymmetric in (i, j).  Every slice and every pivot is symmetric (the F_ijk are
third derivatives of one prepotential), so their singular values are the
|eigenvalues| of ``np.linalg.eigvalsh``, which reads lower triangles only.
``scaled`` divides the max-abs commutator entry by the operand norms with no
floor, so it stays relative where they are small (in the far field ||B^{-1}|| is
of order e^-10); ``raw`` keeps the unscaled entry.  A verifier that cannot fail
verifies nothing, so the controls matter as much as the positive checks.
"""

from __future__ import annotations

import numpy as np

from .configurations import _upper_pairs
from .errors import DomainError

# A pivot whose spectral condition number is above this is unusable: usable_pivots refuses a point none
# of whose candidates is usable, and the verifiers' sampling loop (cli._sampled) discards and resamples
# it, since near-singular pivots produce meaningless residuals, not counterexamples.
CONDITION_CAP = 1e8


def _refusals(refused, text):
    """Each point's refusal, None where ``refused`` is False, else ``text(index)``, as nested lists of its
    shape: a block's is a list of b, and a lone point's, of shape (), is its own None or text."""
    out = np.full(np.shape(refused), None, dtype=object)
    if refused.any():
        for index in map(tuple, np.argwhere(refused)):
            out[index] = text(index)
    return out.tolist()


def usable_pivots(pivots) -> tuple:
    """(pivot, singular values, condition number, refusal) of each point's best candidate in a (..., p, n, n) stack.

    The usable-pivot rule, the only one in the package: a non-finite candidate raises DomainError naming
    it (in a block, the first of the first point that has one); otherwise each point's candidate k of
    smallest spectral condition number (+inf when its smallest singular value is 0), the first one on a
    tie, is chosen, and its refusal is None, or "pivot k has condition number ... above 1e+08" when even
    it is above CONDITION_CAP.  A refused point is data, not an error: its pivot and singular values are
    the identity's, so that a caller factorises the whole block and drops that point.  The singular
    values come largest first, the |eigenvalues| from one ``eigvalsh`` of the stack, which reads the lower
    triangles only, since every pivot the package forms (B(x), eta.F) is symmetric.  The leading axes
    (...) are those of every output, each point's bits as alone.
    """
    P = np.asarray(pivots, dtype=float)
    finite = np.isfinite(P).all(axis=(-2, -1))
    if not finite.all():
        raise DomainError(f"pivot {int(finite.argmin()) % P.shape[-3]} is not finite")
    sv = np.sort(np.abs(np.linalg.eigvalsh(P)), axis=-1)[..., ::-1]
    conditions = np.divide(sv[..., 0], sv[..., -1], out=np.full(sv.shape[:-1], np.inf), where=sv[..., -1] != 0.0)
    k, condition = conditions.argmin(axis=-1), conditions.min(axis=-1)
    chosen = np.arange(k.size), k.ravel()  # each point's candidate in the flattened stack
    pivot = P.reshape(-1, *P.shape[-3:])[chosen].reshape(P.shape[:-3] + P.shape[-2:])
    sv = sv.reshape(-1, *sv.shape[-2:])[chosen].reshape(sv.shape[:-2] + sv.shape[-1:])
    refused = condition > CONDITION_CAP
    if refused.any():
        pivot[refused], sv[refused] = np.eye(P.shape[-1]), 1.0
    text = "pivot {} has condition number {:.3e} above {:g}"
    return pivot, sv, condition, _refusals(refused, lambda p: text.format(k[p], condition[p], CONDITION_CAP))


def pivot_residuals(tensor, pivots) -> tuple[tuple, list | str | None]:
    """((scaled, raw, condition), refusals) of F_i P^{-1} F_j - F_j P^{-1} F_i at one pivot P a point.

    ``pivots`` is a (..., p, n, n) stack of candidates, of which ``usable_pivots`` chooses each point's P and
    refusal: ``B[None]`` for the metric alone, ``[B, eta.F]`` a point for an explicit ``verify-wdvv``.  The last
    axis of ``raw`` and ``scaled`` runs over the pairs i < j in ``np.triu_indices(n, 1)`` order: ``raw[k]`` is
    the max-abs entry of the k-th pair's commutator-like matrix and ``scaled[k]`` raw / (||F_i|| ||F_j|| ||P^{-1}||)
    in the spectral norm, 0 where F_i or F_j is zero; ``condition`` is P's spectral condition number.  A
    non-finite tensor raises DomainError, and the candidates pass ``usable_pivots``, both before any solve.

    The slices F_i are symmetric, and the norms ||F_i|| are their largest |eigenvalues|, from one
    ``eigvalsh`` of the tensor's lower triangles.  P is factorized once, against all n^2 columns of the
    tensor, and one matmul gives every F_i P^{-1} F_j; of its n^4 entries, the pairs i < j are gathered
    once, since M_ji = -M_ij.  A tensor of shape (..., n, n, n) gives ``raw`` and ``scaled`` of shape
    (..., n(n-1)/2), each point's bits as alone, from one ``eigvalsh``, one stacked ``solve`` and one
    stacked matmul; a lone candidate stack serves every tensor.
    """
    T = np.asarray(tensor, dtype=float)
    if not np.isfinite(T).all():
        raise DomainError("the tensor is not finite")
    n = T.shape[-1]
    i, j = _upper_pairs(n)
    norms = np.abs(np.linalg.eigvalsh(T)).max(-1)
    P, sv, condition, refusals = usable_pivots(pivots)
    scale = norms[..., i] * norms[..., j] * (1.0 / sv[..., -1])[..., None]  # times ||P^{-1}||
    # X[..., a, (j, b)] = (P^{-1} F_j)[a, b]: one LU a point
    X = np.linalg.solve(P, T.swapaxes(-3, -2).reshape(*T.shape[:-3], n, n * n))
    # G[..., i, j, a, b] = (F_i P^{-1} F_j)[a, b], stacked over i: OpenBLAS threads the
    # flat T.reshape(n * n, n) @ X at n >= 16, which ran up to 6x slower on 2 vCPUs
    G = (T @ X[..., None, :, :]).reshape(T.shape + (n,)).swapaxes(-3, -2)
    M = G[..., i, j, :, :]  # M[..., pair, a, b] = M_ij[a, b] for the pairs i < j
    M -= G[..., j, i, :, :]
    raw = np.abs(M, out=M).max(axis=(-2, -1))
    scaled = np.divide(raw, scale, out=np.zeros_like(raw), where=scale > 0.0)
    return (scaled, raw, condition), refusals


def arrow_slices(active) -> np.ndarray:
    """V[..., i, k] = F_ikk = sum_alpha c_alpha a_i a_k^2 coth((alpha, x)) from ``active_pairings``' (A, c, z): every
    nonzero entry of the tensor where each member has at most two nonzero entries (slice F_i is diag(V[i]) plus
    row and column i, V[:, i]).  One (n x M)(M x n) GEMM a point, (A^T * c coth z) @ (A * A), each point's bits
    as alone."""
    A, c, z = active
    return ((c / np.tanh(z))[..., None] * A).swapaxes(-1, -2) @ (A * A)


def arrow_residuals(V, B) -> tuple[tuple, list | str | None]:
    """((scaled, raw, condition), refusals) of F_i D F_j - F_j D F_i, D = diag(B)^{-1}, for arrow slices.

    ``V`` is ``arrow_slices``' V[i, k] = F_ikk, whose slices F_i are arrow matrices, and ``B`` the
    pivot's diagonal: B_kk = (sinh 2x @ V)_k for a family's ``verify-wdvv`` (at the family's
    multiplicities B is diagonal, its off-diagonal metric identity holding for every (r, s, q)), and
    ones for ``verify-susy``'s commuting form, whose rescaled metric is a multiple of the identity.
    The values are ``pivot_residuals``' over the pairs i < j, at the pivot diag(B).  For b outside
    {i, j}

        M_ij[i, b] = d_b V[b,i] V[j,b] + d_j V[j,i] V[b,j] - d_i V[j,i] V[b,i],  d = 1 / B_kk,

    and M_ij[j, b] is minus the same with i and j swapped; M_ij[i, j] = (V^T D V)[i, j]
    - d_i V[j,i]^2 - d_j V[i,j]^2, and every entry outside rows and columns {i, j} is zero, as
    is the antisymmetric M_ij's diagonal.  So one (n, n, n) array R[i, j, b] and one GEMM
    hold every pair's entries.  ||F_i|| is the spectral norm, from one ``eigvalsh`` of the n
    arrow slices scattered from V, ||D|| = 1 / min|B_kk| and the condition number is
    max|B_kk| / min|B_kk|.  No LU is taken and no condition cap applies: each entry is a sum of
    at most n + 3 terms, each bounded by ||D|| ||F_i|| ||F_j||, so the rounding in ``scaled``
    does not grow with the condition number.  A non-finite V raises DomainError, and then a
    non-finite B ("pivot 0 is not finite", ``usable_pivots``' text).  A point with a zero B_kk is
    refused, "the diagonal pivot B has B_kk = 0 at k = ...", at its first zero: its condition number
    is +inf, and its B is replaced by ones, so nothing divides by zero and its values, which the
    caller drops, are finite.  V of shape (..., n, n) and B of (..., n) give each output and the
    refusals (``usable_pivots``' form) those leading axes, each point's bits as alone, from one
    ``eigvalsh`` of every point's n slices.
    """
    if not np.isfinite(V).all():
        raise DomainError("the tensor is not finite")
    if not np.isfinite(B).all():
        raise DomainError("pivot 0 is not finite")
    n = V.shape[-1]
    absB = np.abs(B)
    lo, hi = absB.min(axis=-1, keepdims=True), absB.max(axis=-1, keepdims=True)
    refused = lo[..., 0] == 0.0
    refusals = _refusals(refused, lambda p: f"the diagonal pivot B has B_kk = 0 at k = {int(absB[p].argmin())}")
    if refused.any():
        B, lo, hi = (np.where(refused[..., None], fill, a) for fill, a in ((1.0, B), (1.0, lo), (np.inf, hi)))
    d, W = 1.0 / B, V.swapaxes(-1, -2)  # W[..., i, k] = V[..., k, i] = F_iik, the arms
    norms = _arrow_norms(V, W)
    dV, dW = V * d[..., None, :], d[..., None] * W  # dV[j, b] = d_b V[j, b], dW[i, b] = d_i V[b, i]
    R = dW[..., None, :, :] - dW[..., None, :]  # R[i, j, b]: V[j,i] (d_j V[b,j] - d_i V[b,i]), then the first term
    R *= W[..., None]
    R += W[..., None, :] * dV[..., None, :, :]
    k = np.arange(n)
    R[..., k, :, k] = R[..., :, k, k] = 0.0  # b = i and b = j: entries on M_ij's diagonal or in the (i, j) entry below
    S = np.abs(R, out=R).max(axis=-1)  # S[i, j] = max_b |M_ij[i, b]|, S[j, i] = max_b |M_ij[j, b]|
    C = (W * d[..., None, :]) @ V
    C -= dW * W
    C -= dV * V
    i, j = _upper_pairs(n)
    raw = np.maximum(np.maximum(S[..., i, j], S[..., j, i]), np.abs(C[..., i, j]))
    scale = norms[..., i] * norms[..., j] / lo
    return (np.divide(raw, scale, out=np.zeros_like(raw), where=scale > 0.0), raw, hi[..., 0] / lo[..., 0]), refusals


def _arrow_norms(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The spectral norms of the arrow slices F_i = diag(V[i]) plus row and column i, W[i]: the largest
    |eigenvalue| of each, from one ``eigvalsh`` of the (..., n, n, n) stack, freed before the caller's own."""
    n = V.shape[-1]
    k = np.arange(n)
    F = np.zeros((*V.shape[:-2], n, n, n))
    F[..., k, k, :] = F.swapaxes(-1, -2)[..., k, k, :] = W
    F[..., k, k] = V
    return np.abs(np.linalg.eigvalsh(F)).max(axis=-1)

