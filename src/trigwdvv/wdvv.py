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

from .errors import SingularMatrixError

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
    pivot whose condition number is above CONDITION_CAP raises
    SingularMatrixError before any solve.  Non-finite input is not refused by
    name: a NaN in a pivot or the tensor makes numpy's SVD raise LinAlgError,
    and an infinite pivot entry gives NaN ``condition`` and ``scaled``.
    """
    T = np.asarray(tensor, dtype=float)
    if pivots is None:
        X = T[None]
        condition = inv_norm = np.ones(1)
    else:
        P = np.asarray(pivots, dtype=float)
        sv = np.linalg.svd(P, compute_uv=False)
        condition = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] != 0.0)
        unusable = condition > CONDITION_CAP
        if unusable.any():
            k = int(unusable.argmax())
            raise SingularMatrixError(
                f"pivot {k} has condition number {condition[k]:.3e} above {CONDITION_CAP:g}"
            )
        inv_norm = 1.0 / sv[:, -1]
        # X[p, j] = P_p^{-1} F_j; explicit 4-D stacks read the same in numpy 1.x and 2.x
        X = np.linalg.solve(P[:, None], T[None])
    n = T.shape[0]
    raw = np.empty((len(X), n, n))
    for p, Xp in enumerate(X):  # one pivot at a time keeps G at n^4 entries
        G = T[:, None] @ Xp[None]  # G[i, j] = F_i P_p^{-1} F_j
        M = G - G.swapaxes(0, 1)
        raw[p] = np.abs(M, out=M).max(axis=(-2, -1))
    norms = np.linalg.svd(T, compute_uv=False)[:, 0]
    scale = np.maximum(1.0, np.outer(norms, norms) * inv_norm[:, None, None])
    return raw / scale, raw, condition

