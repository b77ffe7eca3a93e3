"""Residuals of the WDVV equations F_i P^{-1} F_j = F_j P^{-1} F_i.

The theorem's three forms differ only in the pivot P: the metric B (pair
form), one generic eta.F = sum_k eta_k F_k (pivot form: the equations for one
invertible eta.F imply them for every pivot), or the identity (commuting form,
for the rescaled tensor whose metric is a multiple of the identity).  Each
equation is antisymmetric in (i, j), so one kernel evaluates the pairs i < j
against a stack of pivots.  Every slice F_k and every pivot is symmetric (the
F_ijk are third derivatives of one prepotential), so the kernel takes their
singular values as the |eigenvalues| of ``np.linalg.eigvalsh``, which reads
the lower triangle of each pivot and each slice only.  ``scaled`` divides the
max-abs commutator entry by the operand norms with no floor, so it stays
relative where they are small (in the far field ||B^{-1}|| is of order e^-10);
``raw`` keeps the unscaled entry.  A verifier that cannot fail verifies
nothing, so the controls matter as much as the positive checks.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, SingularMatrixError

# A pivot whose spectral condition number is above this is unusable:
# usable_pivots refuses it, and the verifiers' sampling loop (cli._sampled)
# discards and resamples the point, since near-singular pivots produce
# meaningless residuals, not counterexamples.
CONDITION_CAP = 1e8


def usable_pivots(pivots) -> tuple[np.ndarray, np.ndarray]:
    """(singular values, condition numbers) of a (p, n, n) stack of usable symmetric pivots.

    The usable-pivot rule, the only one in the package: a non-finite pivot
    raises DomainError naming it, and a pivot whose spectral condition number
    (+inf when its smallest singular value is 0) is above CONDITION_CAP raises
    SingularMatrixError.  ``sv[p]`` holds pivot p's singular values, largest
    first: its |eigenvalues| from ``eigvalsh``, which reads the lower triangle
    only, since every pivot the package forms (B(x), eta.F) is symmetric.
    """
    P = np.asarray(pivots, dtype=float)
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"pivot {int(finite.argmin())} is not finite")
    sv = np.sort(np.abs(np.linalg.eigvalsh(P)), axis=1)[:, ::-1]
    condition = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] != 0.0)
    unusable = condition > CONDITION_CAP
    if unusable.any():
        k = int(unusable.argmax())
        raise SingularMatrixError(f"pivot {k} has condition number {condition[k]:.3e} above {CONDITION_CAP:g}")
    return sv, condition


def pivot_residuals(tensor: np.ndarray, pivots=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scaled, raw, condition) of F_i P^{-1} F_j - F_j P^{-1} F_i for every pivot P.

    ``pivots`` is a (p, n, n) stack: ``B[None]`` for the pair form, ``[B, eta.F]``
    for the pair and pivot forms, None for P = identity.  ``raw`` and ``scaled``
    are (p, n(n-1)/2) arrays over the pairs i < j in ``np.triu_indices(n, 1)``
    order: ``raw[p, k]`` is the max-abs entry of the commutator-like matrix of
    the k-th pair (i, j) and ``scaled[p, k]`` is raw / (||F_i|| ||F_j|| ||P^{-1}||)
    in the spectral norm, 0 where F_i or F_j is zero; ``condition[p]`` is pivot p's spectral
    condition number (1 for the identity).  A non-finite tensor raises
    DomainError, and the pivots pass ``usable_pivots``, both before any solve.

    The slices F_i are symmetric, and the norms ||F_i|| are their largest
    |eigenvalues|, from one ``eigvalsh`` of the tensor's lower triangles.  Each
    pivot is factorized once, against all n^2 columns of the tensor, and one
    matmul per pivot gives every F_i P^{-1} F_j; of its n^4 entries, the pairs
    i < j are gathered once, since M_ji = -M_ij.
    """
    T = np.asarray(tensor, dtype=float)
    if not np.isfinite(T).all():
        raise DomainError("the tensor is not finite")
    n = T.shape[0]
    rhs = T.transpose(1, 0, 2).reshape(1, n, n * n)  # rhs[0, a, (j, b)] = F_j[a, b]
    if pivots is None:
        X = rhs
        condition = inv_norm = np.ones(1)
    else:
        P = np.asarray(pivots, dtype=float)
        sv, condition = usable_pivots(P)
        inv_norm = 1.0 / sv[:, -1]
        X = np.linalg.solve(P, rhs)  # X[p, :, (j, b)] = P_p^{-1} F_j: one LU per pivot
    norms = np.abs(np.linalg.eigvalsh(T)).max(axis=1)
    i, j = _upper_pairs(n)
    raw = np.empty((len(X), len(i)))
    for p, Xp in enumerate(X):  # one pivot at a time keeps G at n^4 entries and M at half that
        # G[i, a, j, b] = (F_i P_p^{-1} F_j)[a, b], stacked over i: OpenBLAS threads the
        # flat T.reshape(n * n, n) @ Xp at n >= 16, which ran up to 6x slower on 2 vCPUs
        G = (T @ Xp).reshape(n, n, n, n)
        M = G[i, :, j, :]  # M[pair, a, b] = M_ij[a, b] for the pairs i < j
        M -= G[j, :, i, :]
        raw[p] = np.abs(M, out=M).max(axis=(1, 2))
    scale = norms[i] * norms[j] * inv_norm[:, None]
    return np.divide(raw, scale, out=np.zeros_like(raw), where=scale > 0.0), raw, condition


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index arrays of the pairs i < j of range(n), read-only."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs
