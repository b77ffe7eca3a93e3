"""Residuals of the WDVV equations F_i P^{-1} F_j = F_j P^{-1} F_i.

The theorem's forms differ only in the pivot P.  WDVV for one invertible
pivot in the span of the slices F_k implies it for every other
(Marshakov-Mironov-Morozov 1996), and both the metric B = sum_k sinh(2x_k) F_k
and a generic eta.F = sum_k eta_k F_k lie in that span, so ``verify-wdvv``
takes one check per point, at whichever of the two is better conditioned.  The identity is the
pivot of the commuting form, for the rescaled tensor whose metric is a multiple
of the identity.  Each equation is antisymmetric in (i, j), so the kernel
evaluates the pairs i < j only.  Every slice F_k and every pivot is symmetric
(the F_ijk are third derivatives of one prepotential), so the kernel takes
their singular values as the |eigenvalues| of ``np.linalg.eigvalsh``, which
reads the lower triangle of each pivot and each slice only.  ``scaled`` divides
the max-abs commutator entry by the operand norms with no floor, so it stays
relative where they are small (in the far field ||B^{-1}|| is of order e^-10);
``raw`` keeps the unscaled entry.  A verifier that cannot fail verifies
nothing, so the controls matter as much as the positive checks.
"""

from __future__ import annotations

import functools

import numpy as np

from .configurations import _read_only
from .errors import DomainError, SingularMatrixError

# A pivot whose spectral condition number is above this is unusable:
# usable_pivots refuses a stack of candidates none of which is usable, and the
# verifiers' sampling loop (cli._sampled) discards and resamples the point,
# since near-singular pivots produce meaningless residuals, not counterexamples.
CONDITION_CAP = 1e8


def usable_pivots(pivots) -> tuple[int, np.ndarray, float]:
    """(k, singular values, condition number) of the best-conditioned of a (p, n, n) stack of symmetric pivots.

    The usable-pivot rule, the only one in the package: a non-finite candidate
    raises DomainError naming it; otherwise the candidate k of smallest spectral
    condition number (+inf when its smallest singular value is 0), the first one
    on a tie, is chosen, and SingularMatrixError is raised when even it is above
    CONDITION_CAP.  Its singular values come largest first: its |eigenvalues|
    from one ``eigvalsh`` of the stack, which reads the lower triangles only,
    since every pivot the package forms (B(x), eta.F) is symmetric.
    """
    P = np.asarray(pivots, dtype=float)
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"pivot {int(finite.argmin())} is not finite")
    sv = np.sort(np.abs(np.linalg.eigvalsh(P)), axis=1)[:, ::-1]
    condition = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] != 0.0)
    k = int(condition.argmin())
    if condition[k] > CONDITION_CAP:
        raise SingularMatrixError(f"pivot {k} has condition number {condition[k]:.3e} above {CONDITION_CAP:g}")
    return k, sv[k], float(condition[k])


def pivot_residuals(tensor: np.ndarray, pivots=None) -> tuple[np.ndarray, np.ndarray, float]:
    """(scaled, raw, condition) of F_i P^{-1} F_j - F_j P^{-1} F_i at one pivot P.

    ``pivots`` is a (p, n, n) stack of candidates, of which ``usable_pivots``
    chooses P: ``B[None]`` for the metric alone, ``verify-wdvv``'s ``[B, eta.F]``,
    or None for P = identity.  ``raw`` and ``scaled`` are 1-D over the pairs i < j
    in ``np.triu_indices(n, 1)`` order: ``raw[k]`` is the max-abs entry of the
    commutator-like matrix of the k-th pair (i, j) and ``scaled[k]`` is
    raw / (||F_i|| ||F_j|| ||P^{-1}||) in the spectral norm, 0 where F_i or F_j
    is zero; ``condition`` is P's spectral condition number (1 for the
    identity).  A non-finite tensor raises DomainError, and the candidates pass
    ``usable_pivots``, both before any solve.

    The slices F_i are symmetric, and the norms ||F_i|| are their largest
    |eigenvalues|, from one ``eigvalsh`` of the tensor's lower triangles.  P is
    factorized once, against all n^2 columns of the tensor, and one matmul gives
    every F_i P^{-1} F_j; of its n^4 entries, the pairs i < j are gathered once,
    since M_ji = -M_ij.
    """
    T = np.asarray(tensor, dtype=float)
    if not np.isfinite(T).all():
        raise DomainError("the tensor is not finite")
    n = T.shape[0]
    X = T.transpose(1, 0, 2).reshape(n, n * n)  # X[a, (j, b)] = F_j[a, b]
    condition = inv_norm = 1.0
    if pivots is not None:
        P = np.asarray(pivots, dtype=float)
        k, sv, condition = usable_pivots(P)
        inv_norm = 1.0 / sv[-1]
        X = np.linalg.solve(P[k], X)  # X[:, (j, b)] = P^{-1} F_j: one LU
    norms = np.abs(np.linalg.eigvalsh(T)).max(axis=1)
    i, j = _upper_pairs(n)
    # G[i, a, j, b] = (F_i P^{-1} F_j)[a, b], stacked over i: OpenBLAS threads the
    # flat T.reshape(n * n, n) @ X at n >= 16, which ran up to 6x slower on 2 vCPUs
    G = (T @ X).reshape(n, n, n, n)
    M = G[i, :, j, :]  # M[pair, a, b] = M_ij[a, b] for the pairs i < j
    M -= G[j, :, i, :]
    raw = np.abs(M, out=M).max(axis=(1, 2))
    scale = norms[i] * norms[j] * inv_norm
    return np.divide(raw, scale, out=np.zeros_like(raw), where=scale > 0.0), raw, condition


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index arrays of the pairs i < j of range(n), read-only."""
    return _read_only(*np.triu_indices(n, 1))


@functools.lru_cache(maxsize=64)
def _off_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index arrays of the pairs i != j of range(n) in row-major order,
    ``np.nonzero(~np.eye(n, dtype=bool))``, read-only."""
    return _read_only(*np.nonzero(~np.eye(n, dtype=bool)))
