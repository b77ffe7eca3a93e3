"""Third-derivative tensors of the prepotential, their coth helpers and the sinh-weighted metric.

The third derivatives of sum_alpha c_alpha f((alpha, x)) have two independent representations: a
weighted sum of coth over the active members (``tensor_generic``, or ``wdvv.arrow_slices`` where every
member has at most two nonzero entries) and, for the BC_n family, the explicit five-term formula in the
b, b~, b_ij helpers, whose nonzero entries F_ikk ``closed_form_arrows`` writes.  Their agreement is one
of the package's core checks, so neither path may call the other.  ``active_pairings`` gives the
(A, c, z) of a point, the one input of every sum over members here, the metric B (``metric_B``, with
no tensor) among them, and in ``algebra``, ``wdvv`` and ``susy``.  ``metric_identity_residuals``
compares B with h diag(m), and ``_two_path`` one quantity by two routes.  Every function that reads a
point or its pairings, ``active_pairings`` aside, has one form over leading axes: x of shape (..., n)
or z of (..., M), every output with those axes and each point's bits as alone.  The commands call them
with a block (b, n); a lone point (n,) gives numpy float64 scalars.
"""

from __future__ import annotations

import numpy as np

from .configurations import BCnParameters, Configuration, _off_pairs, _upper_pairs
from .errors import DimensionError, DomainError, SingularityError

# Minimum distance from every active hyperplane (alpha, x) = 0; keeps all coth
# factors and condition numbers O(1)..O(10) at default sampling.
DEFAULT_THRESHOLD = 0.05

def coth(z):
    return 1.0 / np.tanh(z)


def _hyperbolic_helpers(x: np.ndarray):
    """The coth-type helpers (b, b~, b_pair) at a point x of shape (n,), or at each of a block (b, n).

    b[i] = coth(x_i), bt[i] = coth(2 x_i), and b_pair[i][j] =
    coth(x_i + x_j) + coth(x_i - x_j) off the diagonal, 0 on it, each with x's leading axis.  A
    non-finite x raises DomainError.  The sinh arguments x_i, 2 x_i and x_i +- x_j are not tested
    against the margin: each is a pairing of a BC_n covector, which the sampler's margin rule, ``_margin``,
    has kept at least theta from zero, whatever its multiplicity.
    """
    _finite(x)
    n = x.shape[-1]
    i, j = _off_pairs(n)
    xi, xj = x[..., i], x[..., j]
    b = coth(x)
    bt = coth(2.0 * x)
    b_pair = np.zeros((*x.shape, n))
    b_pair[..., i, j] = coth(xi + xj) + coth(xi - xj)
    return b, bt, b_pair


def _point(x, n: int, block: bool = False) -> np.ndarray:
    """x as a float array; a shape other than (n,), or than (b, n) where ``block`` allows a block of
    points, raises DimensionError naming the shapes accepted."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) and not (block and x.ndim == 2 and x.shape[1] == n):
        raise DimensionError(f"point has shape {x.shape}, expected ({n},)" + f" or (b, {n})" * block)
    return x


def _matvec(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M @ d for each d of shape (..., k), one matrix-vector product a vector, so each reads its bits as alone."""
    return (M @ d[..., None])[..., 0]


def _finite(x: np.ndarray) -> np.ndarray:
    """x of shape (..., n), or DomainError naming its first point that is not finite."""
    xs = x.reshape(-1, x.shape[-1])
    bad = ~np.isfinite(xs).all(-1)
    if bad.any():
        raise DomainError(f"point {xs[bad][0].tolist()} is not finite")
    return x


def _margin(A: np.ndarray, x: np.ndarray, threshold: float, rows=None):
    """(z, ok): z = A @ x for the covectors A (rows), or its entries at ``rows``, and ok iff x is finite
    and every |z| >= threshold (a NaN pairing fails, an empty z passes).  x of shape (..., n) gives z of
    (..., M) by ``_matvec``, each point's bits as alone, and ok of shape (...).  The one margin rule: the
    sampler applies it to every candidate, and ``active_pairings`` to a point given from outside.  matmul
    warns on a non-finite x, so a caller that may pass one tests x first, as ``active_pairings`` does."""
    z = _matvec(A, x)
    if rows is not None:
        z = z[..., rows]
    ok = np.abs(z).min(-1, initial=np.inf) >= threshold
    if not np.isfinite(x).all():  # a point with a non-finite coordinate fails whatever its pairings
        ok &= np.isfinite(x).all(-1)
    return z, ok


def active_pairings(config: Configuration, x, threshold: float = DEFAULT_THRESHOLD):
    """(A, c, z): the active members of ``config`` (nonzero multiplicity) and their pairings (alpha, x).

    A and c are ``config.active_members``, shared read-only by every point; z is ``config.vectors @ x`` at
    ``config.active_rows``, the one route to z, which ``cli._sampled`` takes too.  This is the one refusal of a
    point outside the sampler, for the ``tensor`` command's given point: one that is not finite raises
    DomainError, and one within ``threshold`` of an active member's hyperplane SingularityError naming the
    nearest member (or its first NaN pairing).
    """
    A, c = config.active_members
    x = _finite(_point(x, config.dimension))
    z, ok = _margin(config.vectors, x, threshold, config.active_rows)
    if not ok:
        k = int(np.argmin(np.abs(z)))
        raise SingularityError(f"point {x.tolist()} lies within {threshold} of the hyperplane of "
                               f"member {A[k].tolist()} ((alpha, x) = {z[k]:.6g})")
    return A, c, z


def tensor_generic(active) -> np.ndarray:
    """Third-derivative tensor F_ijk = sum_alpha c_alpha a_i a_j a_k coth((alpha, x)).

    ``active`` is (A, c, z) from ``active_pairings`` at the point x.  One GEMM
    over the active members, (A^T * c coth z) @ AA with AA[m, (j, k)] = a_j a_k, one multiply
    each by einsum (a zero as +0.0): exactly symmetric in (j, k), in i only up to rounding.
    z of shape (..., M) gives a (..., n, n, n) tensor, one GEMM per point, each point's bits as alone.
    """
    A, c, z = active
    n = A.shape[1]
    AA = np.einsum("mi,mj->mij", A, A).reshape(len(A), n * n)
    return ((A.T * (c * coth(z))[..., None, :]) @ AA).reshape(*z.shape[:-1], n, n, n)


def closed_form_arrows(p: BCnParameters, x) -> np.ndarray:
    """The explicit BC_n third derivatives V[i, k] = F_ikk, the tensor's every nonzero entry (delta-symbol form).

    Diagonal: V[k, k] = F_kkk = r m_k b_k + 4(2s m_k + q m_k(m_k - 1)) bt_k + q m_k sum_{j != k} m_j b_pair[k][j];
    off it, V[i, k] = F_ikk = q m_i m_k b_pair[i][k].  Every other entry, F_ijk with i, j, k distinct,
    vanishes.  A block, x of shape (b, n), gives (b, n, n), each point's bits as alone.  A non-finite point
    raises DomainError; the margin is the sampler's, which every point it admits keeps (``_hyperbolic_helpers``).
    """
    x = _point(x, p.n, True)
    rm, wt, qm, qmm = p.closed_form_weights
    b, bt, b_pair = _hyperbolic_helpers(x)
    V = qmm * b_pair  # b_pair's diagonal is 0, and the diagonal is written next
    V.reshape(*x.shape[:-1], -1)[..., :: p.n + 1] = rm * b + wt * bt + qm * (b_pair @ p.m_array)
    return V


def metric_B(active, x) -> np.ndarray:
    """B = sum_k sinh(2 x_k) F_k from (A, c, z) of ``active_pairings`` at x, with no tensor: F_kij = sum_alpha
    c a_k a_i a_j coth z gives B = (A^T w) @ A, w = c coth z (A sinh 2x), one (n x M)(M x n) product.  The upper
    triangle is copied onto the lower, so B is exactly symmetric, as ``wdvv.usable_pivots``' eigvalsh assumes.
    x of shape (..., n) and z of (..., M) give (..., n, n), one GEMV and one GEMM a point, each's bits as alone."""
    A, c, z = active
    x = _point(x, A.shape[1], True)
    B = (A.T * (c * coth(z) * _matvec(A, np.sinh(2.0 * x)))[..., None, :]) @ A
    i, j = _upper_pairs(A.shape[1])
    B[..., j, i] = B[..., i, j]
    return B


def h_function(p: BCnParameters, x) -> float | np.ndarray:
    """h(x) = 2q sum_k m_k cosh(2 x_k) + r at x of shape (..., n), each point's as alone."""
    x = _point(x, p.n, True)
    return 2.0 * p.q * (p.m_array * np.cosh(2.0 * x)).sum(axis=-1) + p.r


def _two_path(got, want, axes=None) -> float | np.ndarray:
    """max|got - want| / max(1, max|want|), floored as want can vanish (each does at r = s = q = 0):
    one quantity by two routes, for structure_constants_two_path, hat_tensor_two_path,
    restriction_config_match (the vectors, then the multiplicities) and gauge_residual.  The maxima
    are over ``axes``: None for every axis, the value axes for each point of a block, as alone."""
    dev, top = np.abs(got - want).max(axes), np.abs(want).max(axes)
    return dev / np.fmax(1.0, top)  # fmax: a NaN top leaves the floor, as max(1.0, nan) does


def metric_identity_residuals(p: BCnParameters, active, x, named=None) -> tuple:
    """(off-diagonal, diagonal) max-abs deviation of ``metric_B(active, x)`` from h(x) diag(m),
    each over max(1, max_k |h m_k|), floored as h can vanish.  A non-finite B or h (sinh and cosh overflow for
    |x| above about 355) raises DomainError naming the first of B and h that is not finite, at the first such point:
    its row of ``named``, x by default (``verify-susy`` names its sampled x^, of which x = x^ / sqrt(m)).
    (A, c, z) with z of shape (..., M) at x of (..., n) gives two arrays of shape (...), each point's bits as alone.
    For the members of ``p`` both vanish if r + 8s + 2q(N - 2) = 0, the off-diagonal part for every (r, s, q).
    """
    h = h_function(p, x)
    B = metric_B(active, x)
    n = B.shape[-1]
    for name, value in (("B", B), ("h", h)):
        if not np.isfinite(value).all():
            points = np.reshape(x if named is None else named, (-1, n))
            k = np.isfinite(value).reshape(len(points), -1).all(-1).argmin()
            raise DomainError(f"{name} is not finite at the point {points[k].tolist()}")
    target = h[..., None] * p.m_array
    flat = B.reshape(*B.shape[:-2], n * n)
    diag = np.abs(flat[..., :: n + 1] - target).max(-1)
    flat = np.abs(flat)
    flat[..., :: n + 1] = 0.0  # the target is diagonal: off the diagonal, |B_ij| itself
    scale = np.fmax(1.0, np.abs(target).max(-1))  # fmax: a NaN top leaves the floor, as max(1.0, nan) does
    return flat.max(-1) / scale, diag / scale
