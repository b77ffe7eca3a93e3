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


def _hyperbolic_helpers(x: np.ndarray, threshold: float):
    """The coth-type helpers (b, b~, b_pair) at a point x of shape (n,), or at each of a block (b, n).

    b[i] = coth(x_i), bt[i] = coth(2 x_i), and b_pair[i][j] =
    coth(x_i + x_j) + coth(x_i - x_j) off the diagonal, 0 on it, each with x's leading axis.  All
    sinh arguments (x_i, 2 x_i, x_i +- x_j) must stay at least ``threshold`` away from zero,
    regardless of which outputs the caller consumes: a non-finite x raises DomainError, and an
    argument inside the margin SingularityError naming the nearest one (in a block, of any point).
    """
    if not np.isfinite(x).all():
        raise DomainError(f"point {x.tolist()} is not finite")
    n = x.shape[-1]
    i, j = _off_pairs(n)
    xi, xj = x[..., i], x[..., j]
    plus, minus = xi + xj, xi - xj
    # |2 x_k| >= |x_k|, so the x piece is nearer: the margin needs three minima, not the joined array
    if min(np.abs(a).min(initial=np.inf) for a in (x, plus, minus)) < threshold:
        args = np.concatenate([x, 2.0 * x, plus, minus], axis=-1)
        bad = np.abs(args) < threshold
        worst = float(args[bad][np.argmin(np.abs(args[bad]))])
        raise SingularityError(
            f"sinh argument {worst:.6g} is within {threshold} of zero at x = {x.tolist()}"
        )
    b = coth(x)
    bt = coth(2.0 * x)
    b_pair = np.zeros((*x.shape, n))
    b_pair[..., i, j] = coth(plus) + coth(minus)
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


def _margin(A: np.ndarray, x: np.ndarray, threshold: float, rows=None):
    """(z, ok): z = A @ x for the covectors A (rows), or its entries at ``rows``, and ok iff x is finite
    and every |z| >= threshold (a NaN pairing fails, an empty z passes).  x of shape (..., n) gives z of
    (..., M) by ``_matvec``, each point's bits as alone, and ok of shape (...); matmul warns on a
    non-finite x, so a caller that may pass one tests x first, as ``_admitted`` does."""
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
    ``config.active_rows``, the one route to z, which ``cli._sampled`` takes too.  A point that is not
    finite, or within ``threshold`` of an active member's hyperplane, is refused by ``_admitted``.
    """
    A, c = config.active_members
    return A, c, _admitted(A, _point(x, config.dimension), threshold, config.vectors, config.active_rows)


def _admitted(A: np.ndarray, x: np.ndarray, threshold: float, vectors=None, rows=None) -> np.ndarray:
    """z of ``_margin(vectors, x, threshold, rows)`` (A = vectors[rows], A itself by default) at x (..., n) if every point
    keeps the margin; else the first point refused raises, for ``active_pairings`` and ``RestrictionContext.pairings``
    alike: DomainError if not finite, else SingularityError naming its nearest member (or its first NaN pairing)."""
    xs = x.reshape(-1, x.shape[-1])
    if not np.isfinite(xs).all():
        raise DomainError(f"point {xs[~np.isfinite(xs).all(-1)][0].tolist()} is not finite")
    z, ok = _margin(A if vectors is None else vectors, x, threshold, rows)
    if not ok.all():
        k = int(np.argmin(ok))
        zk = z.reshape(-1, z.shape[-1])[k]
        idx = int(np.argmin(np.abs(zk)))
        raise SingularityError(f"point {xs[k].tolist()} lies within {threshold} of the hyperplane of "
                               f"member {A[idx].tolist()} ((alpha, x) = {zk[idx]:.6g})")
    return z


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


def closed_form_arrows(p: BCnParameters, x, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The explicit BC_n third derivatives V[i, k] = F_ikk, the tensor's every nonzero entry (delta-symbol form).

    Diagonal: V[k, k] = F_kkk = r m_k b_k + 4(2s m_k + q m_k(m_k - 1)) bt_k + q m_k sum_{j != k} m_j b_pair[k][j];
    off it, V[i, k] = F_ikk = q m_i m_k b_pair[i][k].  Every other entry, F_ijk with i, j, k distinct,
    vanishes.  A block, x of shape (b, n), gives (b, n, n), each point's bits as alone, or raises if any
    point is refused.
    """
    x = _point(x, p.n, True)
    rm, wt, qm, qmm = p.closed_form_weights
    b, bt, b_pair = _hyperbolic_helpers(x, threshold)
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
