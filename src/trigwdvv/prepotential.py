"""Scalar prepotential, third-derivative tensors and the sinh-weighted metric.

The third derivatives of sum_alpha c_alpha f((alpha, x)) have two independent
representations: a direct weighted sum of coth over the configuration
(``tensor_generic``) and the explicit five-term formula in the b, b~, b_ij
helpers (``tensor_closed_form``).  Their agreement is one of the package's
core checks, so neither path may call the other.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import BCnParameters, Configuration
from .errors import DimensionError, DomainError, SingularityError

# Minimum distance from every active hyperplane (alpha, x) = 0; keeps all coth
# factors and condition numbers O(1)..O(10) at default sampling.
DEFAULT_THRESHOLD = 0.05

# Truncation threshold for the trilogarithm power series.
_LI3_TERM_FLOOR = 1e-16


def eval_f(z: float) -> float:
    """f(z) = z^3/6 - Li3(e^{-2z})/4 for z > 0.

    Li3 is summed as sum_{k>=1} w^k / k^3 with w = e^{-2z}, truncated once a
    term falls below 1e-16.  Requires z > 0 so that |w| < 1.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"eval_f requires z > 0, got z = {z}")
    w = math.exp(-2.0 * z)
    li3 = 0.0
    k = 1
    while True:
        term = w**k / k**3
        li3 += term
        if term < _LI3_TERM_FLOOR:
            break
        k += 1
    return z**3 / 6.0 - 0.25 * li3


def coth(z):
    return 1.0 / np.tanh(z)


def hyperbolic_helpers(x, threshold: float = DEFAULT_THRESHOLD):
    """The coth-type helpers (b, b~, b_pair) at a point.

    b[i] = coth(x_i), bt[i] = coth(2 x_i), and b_pair[i][j] =
    coth(x_i + x_j) + coth(x_i - x_j) off the diagonal, 0 on it.  All sinh
    arguments (x_i, 2 x_i, x_i +- x_j) must stay at least ``threshold`` away
    from zero, regardless of which outputs the caller consumes.  A non-finite
    point raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError(f"point {x.tolist()} is not finite")
    n = x.shape[0]
    plus = x[:, None] + x[None, :]
    minus = x[:, None] - x[None, :]
    off = ~np.eye(n, dtype=bool)
    args = np.concatenate([x, 2.0 * x, plus[off], minus[off]])
    bad = np.abs(args) < threshold
    if bad.any():
        worst = float(args[bad][np.argmin(np.abs(args[bad]))])
        raise SingularityError(
            f"sinh argument {worst:.6g} is within {threshold} of zero at x = {x.tolist()}"
        )
    b = coth(x)
    bt = coth(2.0 * x)
    b_pair = np.zeros((n, n))
    if n > 1:
        b_pair[off] = coth(plus[off]) + coth(minus[off])
    return b, bt, b_pair


def identity_residuals(x, k: int, j: int, threshold: float = DEFAULT_THRESHOLD):
    """Residuals of the two sinh/coth identities at indices (k, j).

    First: A_k b_kj + A_j b_jk - 2(cosh 2x_k + cosh 2x_j) with A_k = sinh 2x_k,
    defined for k != j (reported as 0 for k == j, where it does not constrain).
    Second: A_k b_jk + A_j b_kj, which vanishes for all k, j.
    """
    x = np.asarray(x, dtype=float)
    _, _, b_pair = hyperbolic_helpers(x, threshold)
    A = np.sinh(2.0 * x)
    second = float(A[k] * b_pair[j, k] + A[j] * b_pair[k, j])
    if k == j:
        return 0.0, second
    first = float(
        A[k] * b_pair[k, j] + A[j] * b_pair[j, k] - 2.0 * (math.cosh(2.0 * x[k]) + math.cosh(2.0 * x[j]))
    )
    return first, second


def _active_margin(config: Configuration, x: np.ndarray, threshold: float):
    """(A, c, z, ok) for the active members of ``config`` at the point x.

    A member is active when its multiplicity is nonzero.  A, c and z = A @ x
    are the active vectors, multiplicities and pairings; ok is true iff x is
    finite and every |z| >= threshold, so a NaN pairing fails.  z is None when
    x is not finite.  The one margin rule of ``active_pairings`` and
    ``is_admissible``.
    """
    active = config.multiplicities != 0.0
    A, c = config.vectors[active], config.multiplicities[active]
    if not np.isfinite(x).all():
        return A, c, None, False
    z = A @ x
    return A, c, z, bool((np.abs(z) >= threshold).all())


def active_pairings(config: Configuration, x, threshold: float = DEFAULT_THRESHOLD):
    """Vectors, multiplicities and pairings (alpha, x) of the active members of ``config``.

    A member is active when its multiplicity is nonzero.  A non-finite point
    raises DomainError.  Every active member must satisfy |(alpha, x)| >=
    threshold; otherwise SingularityError names the nearest one (or the first
    NaN pairing).  Returns (A, c, z) with z = A @ x.
    """
    x = np.asarray(x, dtype=float)
    n = config.dimension
    if x.shape != (n,):
        raise DimensionError(f"point has shape {x.shape}, expected ({n},)")
    A, c, z, ok = _active_margin(config, x, threshold)
    if not ok:
        if z is None:
            raise DomainError(f"point {x.tolist()} is not finite")
        idx = int(np.argmin(np.abs(z)))
        raise SingularityError(
            f"point {x.tolist()} lies within {threshold} of the hyperplane of "
            f"member {A[idx].tolist()} ((alpha, x) = {z[idx]:.6g})"
        )
    return A, c, z


def tensor_generic(config: Configuration, x, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Third-derivative tensor F_ijk = sum_alpha c_alpha a_i a_j a_k coth((alpha, x)).

    Members with zero multiplicity are skipped; every active member must
    satisfy |(alpha, x)| >= threshold.  One GEMM over the active members,
    (A^T * c coth z) @ AA with AA[m, (j, k)] = a_j a_k: exactly symmetric in
    (j, k), symmetric in i only up to rounding.
    """
    A, c, z = active_pairings(config, x, threshold)
    n = config.dimension
    AA = (A[:, :, None] * A[:, None, :]).reshape(len(A), n * n)
    return ((A.T * (c * coth(z))) @ AA).reshape(n, n, n)


def tensor_closed_form(p: BCnParameters, x, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The explicit BC_n third-derivative formula (delta-symbol form).

    Diagonal: r m_k b_k + 4(2s m_k + q m_k(m_k - 1)) bt_k
    + q m_k sum_{j != k} m_j b_pair[k][j].  Entries with one repeated index a
    and a single index b carry q m_a m_b b_pair[b][a]; all others vanish.
    """
    x = np.asarray(x, dtype=float)
    n, r, s, q = p.n, p.r, p.s, p.q
    m = p.m_array
    b, bt, b_pair = hyperbolic_helpers(x, threshold)
    F = np.zeros((n, n, n))
    diag = r * m * b + 4.0 * (2.0 * s * m + q * m * (m - 1.0)) * bt + q * m * (b_pair @ m)
    pair_val = q * np.outer(m, m) * b_pair.T  # [a, b] -> q m_a m_b b_pair[b][a]
    F[np.diag_indices(n, 3)] = diag
    # (i, i, j), (i, j, i) and (j, i, i) with i != j never coincide: one write per entry
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    F[i, i, j] = F[i, j, i] = F[j, i, i] = pair_val[i, j]
    return F


def metric_B(tensor: np.ndarray, x) -> np.ndarray:
    """B = sum_k sinh(2 x_k) F_k, the sinh-weighted contraction of the tensor."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return (np.sinh(2.0 * x) @ np.asarray(tensor).reshape(n, n * n)).reshape(n, n)


def h_function(p: BCnParameters, x) -> float:
    """h(x) = 2q sum_k m_k cosh(2 x_k) + r."""
    x = np.asarray(x, dtype=float)
    return float(2.0 * p.q * (p.m_array * np.cosh(2.0 * x)).sum() + p.r)


def is_admissible(config: Configuration, x, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True iff x keeps a margin ``threshold`` from every active hyperplane.

    Requires a finite x, |(alpha, x)| >= threshold for every member with
    nonzero multiplicity (the rule of ``active_pairings``) and
    |sinh(2 x_k)| >= threshold for every coordinate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (config.dimension,) or not _active_margin(config, x, threshold)[3]:
        return False
    return bool(np.abs(np.sinh(2.0 * x)).min() >= threshold)
