"""Residuals of the WDVV equations F_i P^{-1} F_j = F_j P^{-1} F_i.

The theorem's three forms differ only in the pivot P: the metric B (pair
form), any F_k (pivot form), or the identity (commuting form, for the
rescaled tensor whose metric is a multiple of the identity).  One kernel
evaluates all pairs (i, j) against a stack of pivots.  ``scaled`` divides the
max-abs commutator entry by the operand norms (multiplicities of order ten
inflate absolute residuals without signaling failure); ``raw`` keeps the
unscaled entry because negative controls are judged against it.  A verifier
that cannot fail verifies nothing, so the controls matter as much as the
positive checks.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularMatrixError

# A pivot whose spectral condition number is above this is unusable:
# pivot_residuals refuses it, and the verification drivers discard and
# resample the point, since near-singular pivots produce meaningless
# residuals, not counterexamples.
CONDITION_CAP = 1e8


def pivot_residuals(tensor: np.ndarray, pivots=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scaled, raw, condition) of F_i P^{-1} F_j - F_j P^{-1} F_i for every pivot P.

    ``pivots`` is a (p, n, n) stack, e.g. ``B[None]`` for the pair form or the
    tensor itself for the pivot form (P = F_k), or None for P = identity.
    ``raw[p, i, j]`` is the max-abs entry of the commutator-like matrix and
    ``scaled[p, i, j]`` is raw / max(1, ||F_i|| ||F_j|| ||P^{-1}||) in the
    spectral norm; both vanish exactly for i = j and are exactly symmetric in
    (i, j).  ``condition[p]`` is the spectral condition number of pivot p
    (1 for the identity; +inf when the smallest singular value is 0).  A
    non-finite tensor or pivot raises DomainError naming it, and a pivot
    whose condition number is above CONDITION_CAP raises SingularMatrixError,
    both before any solve.  Each pivot is factorized once, against all n^2
    columns of the tensor, and one matmul per pivot gives every F_i P^{-1} F_j.
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
        finite = np.isfinite(P).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"pivot {int(finite.argmin())} is not finite")
        sv = np.linalg.svd(P, compute_uv=False)
        condition = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] != 0.0)
        unusable = condition > CONDITION_CAP
        if unusable.any():
            k = int(unusable.argmax())
            raise SingularMatrixError(
                f"pivot {k} has condition number {condition[k]:.3e} above {CONDITION_CAP:g}"
            )
        inv_norm = 1.0 / sv[:, -1]
        X = np.linalg.solve(P, rhs)  # X[p, :, (j, b)] = P_p^{-1} F_j: one LU per pivot
    raw = np.empty((len(X), n, n))
    for p, Xp in enumerate(X):  # one pivot at a time keeps G and M at n^4 entries each
        # G[i, a, j, b] = (F_i P_p^{-1} F_j)[a, b], stacked over i: OpenBLAS threads the
        # flat T.reshape(n * n, n) @ Xp at n >= 16, which ran up to 6x slower on 2 vCPUs
        G = (T @ Xp).reshape(n, n, n, n)
        top = (G.transpose(0, 2, 1, 3) - G.transpose(2, 0, 1, 3)).max(axis=(2, 3))  # over [i, j, a, b]
        raw[p] = np.maximum(top, top.T)  # M_ji = -M_ij exactly, so this is max |M_ij|
    norms = np.linalg.svd(T, compute_uv=False)[:, 0]
    scale = np.maximum(1.0, np.outer(norms, norms) * inv_norm[:, None, None])
    return raw / scale, raw, condition
