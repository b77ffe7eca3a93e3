"""Independent oracles used by the test suite.

These stay deliberately separate from the library paths they check: the
scalar prepotential f(z) = z^3/6 - Li3(e^{-2z})/4 (``eval_f``) lives here, with
its trilogarithm re-summed with math.fsum as a check, third derivatives come from
finite differences of the prepotential built on it, the fermionic operators are dense
Kronecker products (``DenseFermionicSpace``, up to n = 5) and signed permutations of
the basis (``FermionicSpace``, with ``anticommutation_residual`` in O(n^2 4^n) time):
the operator algebra of the N = 4 mechanics depends on n alone and reads no
prepotential, so it is tested here and ``verify-susy`` does not report it.  The
anticommutation residual is also read off dense products of the scattered operator
arrays, the four-fermion term is built from the dense operators both by
products of contracted operators and by literal eight-index loops, BC_n family
members are listed one by one and merged by a pairwise scan, the metric's diagonality
is read off B against m_l h, WDVV residuals are taken one pair (i, j) at a
time with an explicit inverse for the pivot norm (and, for bit-for-bit
comparison, by the full commutator pass over every (i, j) with a separate SVD
for the norms), the gauge relation between the two Hamiltonian forms is
differentiated by central stencils on scalar test fields,
admissible points are drawn by box-uniform rejection through the admissibility
predicate ``is_admissible``, and by the sampler's spacing one candidate at a time
(``sequential_admissible_points``), the hyperbolic identities behind the metric's
diagonal structure are evaluated by ``identity_residuals`` (on the closed form's coth
helpers at one point, ``hyperbolic_helpers``, which refuses a point that is not 1-D), the associativity
residual is composed from four ``multiply`` calls, the tangency
residual of a restriction is summed one subsystem covector at a time and the
restricted product one outside member at a time, the
closed-form BC_n tensor is filled one index pair at a time, and the generic
tensor and its metric are contracted by ``einsum`` instead of one GEMM.  The
coth helpers, the closed-form tensor and the metric identity are also kept in
their masked form, with n x n sum and difference arrays, an ``np.eye`` mask and
``np.diag_indices``, and the generic tensor's member
outer products by broadcasting, as bit-for-bit references for the index-array
routes of the library.
"""

import math

import numpy as np

from trigwdvv.algebra import RestrictionContext, multiply
from trigwdvv.configurations import BCnParameters, Configuration, _integer, _read_only
from trigwdvv.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    PreconditionError,
    SamplingError,
    SingularityError,
)
from trigwdvv.prepotential import (
    DEFAULT_THRESHOLD,
    _margin,
    active_pairings,
    _hyperbolic_helpers,
    coth,
    h_function,
)
from trigwdvv.sampling import DEFAULT_BOX, MAX_ATTEMPTS_PER_POINT, admissible_points, box_bounds, covers_every_pair
from trigwdvv.susy import bosonic_potential
from trigwdvv.wdvv import usable_pivots

# the dense fermionic space's limit: each operator is a dim x dim matrix
DENSE_N_CAP = 5  # dim = 2^(2n) <= 1024

# antisymmetric pairing on the two fermionic species, eps[0][1] = 1
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])


class MarginError(ValueError):
    """A finite-difference step would leave the admissible region."""


def li3_fsum(w: float, terms: int = 400) -> float:
    """Trilogarithm by compensated summation of the defining series."""
    return math.fsum(w**k / k**3 for k in range(1, terms + 1))


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


def merge_pairwise(members) -> list[tuple[tuple[float, ...], float]]:
    """(vector, multiplicity) slots of ``members`` by the pairwise merge rule.

    Each member is compared with the vector of every earlier slot and joins
    the earliest one equal to it, coordinate by coordinate as floats.
    """
    merged: list[list] = []
    for vec, mult in members:
        vec = tuple(float(v) for v in vec)
        for slot in merged:
            if slot[0] == vec:
                slot[1] += float(mult)
                break
        else:
            merged.append([vec, float(mult)])
    return [(vec, mult) for vec, mult in merged]


def bcn_members(p) -> list[tuple[tuple[float, ...], float]]:
    """The (vector, multiplicity) members of the BC_n family for ``p``, unmerged.

    In construction order: e_i with r m_i; 2e_i with s m_i + q m_i (m_i - 1) / 2;
    then e_i + e_j and e_i - e_j with q m_i m_j for each i < j.
    """
    n, r, s, q, m = p.n, p.r, p.s, p.q, p.m
    members = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        members.append((tuple(e), r * m[i]))
    for i in range(n):
        e = [0.0] * n
        e[i] = 2.0
        members.append((tuple(e), s * m[i] + 0.5 * q * m[i] * (m[i] - 1.0)))
    for i in range(n):
        for j in range(i + 1, n):
            plus = [0.0] * n
            plus[i], plus[j] = 1.0, 1.0
            minus = [0.0] * n
            minus[i], minus[j] = 1.0, -1.0
            members.append((tuple(plus), q * m[i] * m[j]))
            members.append((tuple(minus), q * m[i] * m[j]))
    return members


def sample_points(rng, pattern, count, box=DEFAULT_BOX, threshold=DEFAULT_THRESHOLD) -> np.ndarray:
    """(count, dimension) array of the first points of ``admissible_points``, the stream a run draws from:
    one request, and a second only to raise the SamplingError of a point out of attempts."""
    take = admissible_points(rng, pattern, box, threshold)
    x, _ = take(count)
    if len(x) < count:
        take(count - len(x))
    return x


def is_admissible(pattern: np.ndarray, x, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True iff x is finite, has shape (n,) and keeps |(alpha, x)| >= ``threshold`` for every
    row alpha of the (M, n) covector array ``pattern``; no multiplicity is read.  The margin
    rule of ``active_pairings`` and ``sampling.admissible_points``, and no other."""
    x = np.asarray(x, dtype=float)
    return x.shape == pattern.shape[1:] and bool(np.isfinite(x).all()) and bool(_margin(pattern, x, threshold)[1])


def sequential_admissible_points(rng, pattern, box=DEFAULT_BOX, threshold=DEFAULT_THRESHOLD):
    """Endless stream of (x, z), one candidate at a time: the sampler's reference.

    Each candidate is ``rng.uniform(lo, hi - width, n)``, spaced by theta times its rank
    ``np.sort(x).searchsorted(x)`` when ``covers_every_pair(pattern)`` and theta > 0, with
    z = pattern @ x tested by ``is_admissible``; a point gets at most MAX_ATTEMPTS_PER_POINT
    candidates, and the SamplingError is raised when the point that exhausts them is requested.
    """
    lo, hi = box_bounds(box)
    n = pattern.shape[1]
    spaced = threshold > 0.0 and covers_every_pair(pattern)
    width = (n - 1) * threshold if spaced else 0.0
    while True:
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi - width, n)
            if spaced:
                x += threshold * np.sort(x).searchsorted(x)
            if is_admissible(pattern, x, threshold):
                yield x, pattern @ x
                break
        else:
            raise SamplingError(f"no admissible point after {MAX_ATTEMPTS_PER_POINT} attempts")


def rejection_sample_points(rng, pattern, count, box=DEFAULT_BOX, threshold=DEFAULT_THRESHOLD) -> np.ndarray:
    """(count, dimension) admissible points by box-uniform rejection.

    Each candidate is ``rng.uniform(lo, hi, n)`` and is kept if
    ``is_admissible`` accepts it; a point gets at most MAX_ATTEMPTS_PER_POINT
    candidates.
    """
    lo, hi = float(box[0]), float(box[1])
    out = np.empty((count, pattern.shape[1]))
    for idx in range(count):
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi, pattern.shape[1])
            if is_admissible(pattern, x, threshold):
                out[idx] = x
                break
        else:
            raise SamplingError(f"no admissible point after {MAX_ATTEMPTS_PER_POINT} attempts")
    return out


def associativity_residual_by_multiply(active, u, v, w, raise_index) -> float:
    """(u o v) o w - u o (v o w) with u o v = raise_index(multiply(active, u, v)), four ``multiply``
    calls that each pair and weight afresh: max-abs entry over the larger side's, 0 when both vanish."""

    def product(a, b):
        return raise_index(multiply(active, a, b))

    left = product(product(u, v), w)
    right = product(u, product(v, w))
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    return float(np.abs(left - right).max()) / scale if scale else 0.0


def tangency_residual(rctx: RestrictionContext, active, u, v, alpha) -> float:
    """|sum over beta outside the subsystem of c (beta,u)(beta,v)(alpha,beta) coth((beta,x))|.

    ``active`` is ``rctx.pairings`` at the point x.  ``alpha`` must belong to the block subsystem, which must be nonempty.  The
    sum vanishes when u and v are constant on blocks; non-tangent inputs are
    accepted so the necessity of tangency can be demonstrated.  Scaled by the
    bound sum_beta |t_beta| sum_k |alpha_k||beta_k| of the absolute summands,
    t_beta = c (beta,u)(beta,v) coth((beta,x)), and by at least 1.
    """
    if not len(rctx.subsystem):
        raise PreconditionError("partition has no repeated blocks: the subsystem is empty")
    alpha = np.asarray(alpha, dtype=float)
    if not (rctx.subsystem == alpha).all(axis=1).any():
        raise PreconditionError(f"alpha = {alpha.tolist()} is not a subsystem covector")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    A, c, z = active
    t = c * (A @ u) * (A @ v) * coth(z)
    scale = max(1.0, float((np.abs(t) * (np.abs(A) @ np.abs(alpha))).sum()))
    return abs(float((t * (A @ alpha)).sum())) / scale


def restricted_multiply_loop(part, r, s, q, x_tilde, u, v) -> np.ndarray:
    """Limit of u * v on the block subspace of ``part``, summed one member of BC_N(r, s, q) at a time.

    Each member beta of ``bcn_members`` at m = (1, ..., 1) whose projection
    P beta = sum_k (beta, f_k)/m_k f_k is nonzero adds
    c coth((beta, x)) (beta, u)(beta, v) P beta at x = sum_k x_tilde_k f_k.
    """
    block = np.repeat(np.arange(part.n), part.blocks)  # the block of each coordinate
    x = np.asarray(x_tilde, dtype=float)[block]
    out = np.zeros(part.N)
    for beta, c in bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N)):
        beta = np.array(beta)
        sums = np.bincount(block, weights=beta, minlength=part.n)  # (beta, f_k)
        if c != 0.0 and sums.any():
            out += c / math.tanh(beta @ x) * (beta @ u) * (beta @ v) * (sums / np.array(part.blocks))[block]
    return out


def hyperbolic_helpers(x):
    """The closed form's coth helpers (b, b~, b_pair) at one point: ``prepotential._hyperbolic_helpers``
    behind the one-point shape rule, so a point that is not 1-D raises DimensionError.  The library
    reads them only through ``closed_form_arrows``, which takes a block of points too."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"point has shape {x.shape}, expected (n,)")
    return _hyperbolic_helpers(x)


def tensor_closed_form_loop(p, x) -> np.ndarray:
    """The explicit BC_n third-derivative formula, filled entry by entry."""
    n, r, s, q, m = p.n, p.r, p.s, p.q, p.m_array
    b, bt, b_pair = hyperbolic_helpers(np.asarray(x, dtype=float))
    F = np.zeros((n, n, n))
    diag = r * m * b + 4.0 * (2.0 * s * m + q * m * (m - 1.0)) * bt + q * m * (b_pair @ m)
    pair_val = q * np.outer(m, m) * b_pair.T
    for a in range(n):
        F[a, a, a] = diag[a]
        for bb in range(n):
            if bb != a:
                F[a, a, bb] = F[a, bb, a] = F[bb, a, a] = pair_val[a, bb]
    return F


def hyperbolic_helpers_masked(x):
    """(b, bt, b_pair) through n x n arrays x_i +- x_j and an ``np.eye`` mask."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    plus = x[:, None] + x[None, :]
    minus = x[:, None] - x[None, :]
    off = ~np.eye(n, dtype=bool)
    b_pair = np.zeros((n, n))
    b_pair[off] = coth(plus[off]) + coth(minus[off])
    return coth(x), coth(2.0 * x), b_pair


def tensor_closed_form_masked(p, x) -> np.ndarray:
    """The closed-form BC_n tensor with its weights formed at the point and its diagonal by ``np.diag_indices``."""
    n, r, s, q, m = p.n, p.r, p.s, p.q, np.asarray(p.m, dtype=float)
    b, bt, b_pair = hyperbolic_helpers_masked(x)
    F = np.zeros((n, n, n))
    F[np.diag_indices(n, 3)] = r * m * b + 4.0 * (2.0 * s * m + q * m * (m - 1.0)) * bt + q * m * (b_pair @ m)
    pair_val = q * np.outer(m, m) * b_pair.T
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    F[i, i, j] = F[i, j, i] = F[j, i, i] = pair_val[i, j]
    return F


def identity_residuals(x, k: int, j: int):
    """Residuals of the two sinh/coth identities at indices (k, j).

    First: A_k b_kj + A_j b_jk - 2(cosh 2x_k + cosh 2x_j) with A_k = sinh 2x_k,
    defined for k != j (reported as 0 for k == j, where it does not constrain).
    Second: A_k b_jk + A_j b_kj, which vanishes for all k, j.  The indices
    follow the package's integer rule (1.0 reads as 1; a bool, str, None or
    0.5 raises ParameterError), and one outside 0..n-1 raises DimensionError.
    """
    x = np.asarray(x, dtype=float)
    _, _, b_pair = hyperbolic_helpers(x)
    k, j = (_integer(i, f"indices must be integers, got ({k!r}, {j!r})") for i in (k, j))
    if k not in range(len(x)) or j not in range(len(x)):
        raise DimensionError(f"indices ({k}, {j}) must lie in 0..{len(x) - 1}")
    A = np.sinh(2.0 * x)
    second = float(A[k] * b_pair[j, k] + A[j] * b_pair[k, j])
    if k == j:
        return 0.0, second
    first = float(
        A[k] * b_pair[k, j] + A[j] * b_pair[j, k] - 2.0 * (math.cosh(2.0 * x[k]) + math.cosh(2.0 * x[j]))
    )
    return first, second


def metric_identity_residuals_masked(p, tensor, x) -> tuple[float, float]:
    """The metric identity's (off-diagonal, diagonal) residuals of the tensor's B by the einsum definition."""
    return metric_identity_masked(p, metric_B_einsum(tensor, x), x)


def metric_identity_masked(p, B, x) -> tuple[float, float]:
    """The metric identity's (off-diagonal, diagonal) residuals from |B - h diag(m)| and an ``np.eye`` mask."""
    target = h_function(p, x) * np.asarray(p.m, dtype=float)
    dev = np.abs(B - np.diag(target))
    scale = max(1.0, float(np.abs(target).max()))
    off = dev[~np.eye(len(target), dtype=bool)].max(initial=0.0)
    return float(off) / scale, float(np.diag(dev).max()) / scale


def tensor_generic_broadcast(active) -> np.ndarray:
    """``tensor_generic`` with the member outer products a_j a_k formed by broadcasting."""
    A, c, z = active
    n = A.shape[1]
    AA = (A[:, :, None] * A[:, None, :]).reshape(len(A), n * n)
    return ((A.T * (c * coth(z))) @ AA).reshape(n, n, n)


def tensor_generic_einsum(config, x, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """F_ijk = sum_alpha c_alpha a_i a_j a_k coth((alpha, x)) as one four-operand einsum."""
    A, c, z = active_pairings(config, x, threshold)
    return np.einsum("m,mi,mj,mk->ijk", c * coth(z), A, A, A)


def metric_B_einsum(tensor, x) -> np.ndarray:
    """B = sum_k sinh(2 x_k) F_k as an einsum."""
    return np.einsum("k,klt->lt", np.sinh(2.0 * np.asarray(x, dtype=float)), tensor)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| of the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid, side="right") / a.size
    Fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(Fa - Fb).max())


def pair_residual(tensor, i: int, j: int, pivot=None) -> tuple[float, float]:
    """(scaled, raw) residual of F_i P^{-1} F_j = F_j P^{-1} F_i for one pair.

    ``pivot`` None means the identity.  raw is the max-abs entry of the
    commutator-like matrix; scaled divides it by ||F_i|| ||P^{-1}|| ||F_j||
    in the spectral norm, and is 0 where that scale is 0.
    """
    Fi, Fj = tensor[i], tensor[j]
    if pivot is None:
        M = Fi @ Fj - Fj @ Fi
        inv_norm = 1.0
    else:
        M = Fi @ np.linalg.solve(pivot, Fj) - Fj @ np.linalg.solve(pivot, Fi)
        inv_norm = np.linalg.norm(np.linalg.inv(pivot), 2)
    raw = float(np.abs(M).max())
    scale = np.linalg.norm(Fi, 2) * inv_norm * np.linalg.norm(Fj, 2)
    return (raw / scale if scale else 0.0), raw


def pivot_residuals_full(tensor, pivots=None) -> tuple[np.ndarray, np.ndarray, float]:
    """``wdvv.pivot_residuals`` by the full commutator pass, for bit-for-bit comparison.

    ``pivots`` None is the identity, the dense reference for ``wdvv.arrow_residuals`` at B = ones, the
    commuting form.  At the pivot that ``usable_pivots`` chooses from the stack, every commutator
    (i, j) and (j, i) is formed from the strided swap of all n^4 entries of the
    product, raw is the (n, n) max(top, top.T) of their signed maxima, and the
    norms ||F_i|| come from a separate ``eigvalsh`` of the tensor's symmetric
    slices, the largest |eigenvalue| of each.
    """
    T = np.asarray(tensor, dtype=float)
    n = T.shape[0]
    X = T.transpose(1, 0, 2).reshape(n, n * n)
    condition = inv_norm = 1.0
    if pivots is not None:
        P = np.asarray(pivots, dtype=float)
        pivot, sv, condition, _ = usable_pivots(P)
        inv_norm = 1.0 / sv[-1]
        X = np.linalg.solve(pivot, X)
    G = (T @ X).reshape(n, n, n, n)
    top = (G.transpose(0, 2, 1, 3) - G.transpose(2, 0, 1, 3)).max(axis=(2, 3))
    raw = np.maximum(top, top.T)
    norms = np.abs(np.linalg.eigvalsh(T)).max(axis=1)
    scale = np.outer(norms, norms) * inv_norm
    return np.divide(raw, scale, out=np.zeros_like(raw), where=scale > 0.0), raw, condition


def diagonality_report(tensor, p, x) -> tuple[float, float]:
    """(max off-diagonal |B_lt|, max |B_ll - m_l h(x)|) for B built from the tensor.

    The off-diagonal part vanishes for every parameter choice; the diagonal
    deviation vanishes exactly under the multiplicity constraint and equals
    m_l * delta * cosh(2 x_l) entrywise when the constraint residual is delta.
    """
    x = np.asarray(x, dtype=float)
    B = metric_B_einsum(tensor, x)
    off = B - np.diag(np.diag(B))
    offdiag_max = float(np.abs(off).max()) if p.n > 1 else 0.0
    h = h_function(p, x)
    diag_deviation = float(np.abs(np.diag(B) - p.m_array * h).max())
    return offdiag_max, diag_deviation


def prepotential_value(config, x) -> float:
    """sum over active members of c * f(|(alpha, x)|).

    The even reflection leaves every third derivative unchanged
    (d^3/dz^3 f(|z|) = coth z for z != 0), so pair covectors with negative
    pairings are fine.
    """
    x = np.asarray(x, dtype=float)
    return math.fsum(
        c * eval_f(abs(float(alpha @ x)))
        for alpha, c in zip(config.vectors, config.multiplicities)
        if c != 0.0
    )


def _fd3_once(fun, x, i, j, k, h):
    # nested central differences: sum of signed corner evaluations / (8 h^3)
    total = 0.0
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                d = np.zeros(len(x))
                d[i] += s1 * h
                d[j] += s2 * h
                d[k] += s3 * h
                total += s1 * s2 * s3 * fun(x + d)
    return total / (8.0 * h**3)


def fd_third_derivative(fun, x, i, j, k, h=1e-2):
    """Third partial derivative by central differences at steps h and h/2.

    One Richardson level removes the O(h^2) truncation term; plain step-1e-2
    differences are not accurate enough for the doubled covectors (the error
    carries a 2^5 factor from the chain rule).
    """
    coarse = _fd3_once(fun, x, i, j, k, h)
    fine = _fd3_once(fun, x, i, j, k, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def fd_tensor(config, x, h=1e-2):
    """Full third-derivative tensor of the scalar prepotential, by differences."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    fun = lambda y: prepotential_value(config, y)
    T = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                val = fd_third_derivative(fun, x, i, j, k, h)
                for idx in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                    T[idx] = val
    return T


class DenseFermionicSpace:
    """Matrix representation of 2n fermionic mode pairs on dimension 2^(2n).

    Modes are ordered (a=1, j=1..n) then (a=2, j=1..n) and realized by a
    Jordan-Wigner construction; ``psi[a][j]`` is the annihilator and
    ``psibar[a][j]`` carries a factor -1/2 on the creator, so that
    {psi^{aj}, psibar_b^k} = -1/2 delta_jk delta_ab holds exactly.
    Indices a and j are zero-based here.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ParameterError("n must be >= 1")
        if n > DENSE_N_CAP:
            raise ParameterError(f"n = {n} exceeds the dense fermionic cap {DENSE_N_CAP} (dim 2^(2n) <= 1024)")
        self.n = n
        self.dim = 2 ** (2 * n)
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        zmat = np.array([[1.0, 0.0], [0.0, -1.0]])
        ident = np.eye(2)
        modes = []
        for p in range(2 * n):
            mats = [zmat] * p + [lower] + [ident] * (2 * n - p - 1)
            M = mats[0]
            for factor in mats[1:]:
                M = np.kron(M, factor)
            M.setflags(write=False)
            modes.append(M)
        self.psi = [[modes[a * n + j] for j in range(n)] for a in range(2)]
        self.psibar = [[(-0.5) * modes[a * n + j].T for j in range(n)] for a in range(2)]
        for row in self.psibar:
            for M in row:
                M.setflags(write=False)


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B + B @ A


def dense_anticommutation_residual(targets: np.ndarray, coefficients: np.ndarray) -> float:
    """Max-abs deviation of every anticommutator {P, Q}, q >= p, of the operators
    whose column s is ``coefficients[k, s]`` at row ``targets[k, s]``, scattered into
    dense matrices, from -1/2 I for the partner pairs q = p + 2n and 0 otherwise.
    NaN if any deviation is NaN."""
    dim = targets.shape[1]
    ops = []
    for T, C in zip(targets, coefficients):
        M = np.zeros((dim, dim))
        M[T, np.arange(dim)] = C
        ops.append(M)
    partner = len(ops) // 2
    worst = []
    for p in range(len(ops)):
        for q in range(p, len(ops)):
            dev = anticommutator(ops[p], ops[q])
            if q == p + partner:
                dev += 0.5 * np.eye(dim)
            worst.append(np.abs(dev).max())
    return float(np.max(worst))


class FermionicSpace:
    """The 4n Jordan-Wigner operators of 2n fermionic modes on dimension 2^(2n), as
    ``DenseFermionicSpace`` builds them, without its dim x dim matrices or its cap.

    Modes are ordered (a=1, j=1..n) then (a=2, j=1..n); mode p is the p-th
    tensor factor, bit 2n-1-p of a basis index.  The annihilator of mode p
    clears that bit with the sign (-1)^(occupied modes before p); its psibar
    sets the bit with the same sign times -1/2, so that
    {psi^{aj}, psibar_b^k} = -1/2 delta_jk delta_ab holds exactly.

    Each operator is a signed partial permutation of the basis and is stored
    as one row of two read-only (4n, dim) arrays: column s of operator k is
    ``coefficients[k, s]`` at row ``targets[k, s]``, with coefficient 0 where
    the operator annihilates s.  Rows are psi (a, j), then psibar (a, j), row
    a*n + j of each half, a and j zero-based.  No dim x dim matrix is formed:
    checking every anticommutator (``anticommutation_residual``) takes
    O(n^2 dim) time and O(n dim) memory, 0.0007 / 0.0025 / 0.018 / 0.13 s at
    n = 4 / 5 / 6 / 7 on a 2-vCPU Xeon with numpy 2.4, and building the
    arrays 0.01 s at n = 7.
    """

    def __init__(self, n: int) -> None:
        n = _integer(n, f"n must be an integer, got {n!r}")
        if n < 1:
            raise ParameterError("n must be >= 1")
        self.n = n
        self.dim = 4**n
        states = np.arange(self.dim)
        bit = (2 * n - 1) - np.arange(2 * n)[:, None]
        occupied = (states >> bit) & 1
        sign = 1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) & 1)
        self.targets, self.coefficients = _read_only(
            np.vstack([states ^ (1 << bit)] * 2), np.vstack([sign * occupied, -0.5 * sign * (1 - occupied)]))


def anticommutation_residual(fs: FermionicSpace) -> float:
    """Max-abs deviation of every anticommutator of the 4n operators from its
    expected value: -1/2 I for the 2n partner pairs {psi^{aj}, psibar_a^j},
    zero otherwise.

    Each unordered pair (P, Q) = (row p, row q), q >= p, is taken once; {P, Q}
    and {Q, P} are the same sum.  Column s of PQ holds C_q[s] C_p[T_q[s]] at
    row T_p[T_q[s]], and column s of QP the mirror entry.  Where the two rows
    coincide, the column's entry is their sum; elsewhere each stands alone.
    A partner pair's expected -1/2 I adds a third entry, at row s, to each
    column of its deviation; on any other pair the entry at row s is 0 or
    repeats one of the two products, so two arrays cover the column.  Time
    O(n^2 dim), memory O(n dim).  A non-finite coefficient gives a non-finite
    residual.
    """
    T, C = fs.targets, fs.coefficients
    partner = len(T) // 2
    states = np.arange(fs.dim)
    worst = []
    with np.errstate(invalid="ignore"):  # 0 * inf in a mask is NaN, which the residual carries
        for p in range(len(T)):
            Tq, Cq, Tp, Cp = T[p:], C[p:], T[p], C[p]
            # a 1-d source gathers faster by indexing, a 2-d one by np.take
            rows_pq, vals_pq = Tp[Tq], Cp[Tq]
            vals_pq *= Cq
            rows_qp, vals_qp = np.take(Tq, Tp, axis=1), np.take(Cq, Tp, axis=1)
            vals_qp *= Cp
            same = rows_pq == rows_qp
            # multiplied by the mask, not selected: a non-finite product reaches both arrays
            dev_pq = same * vals_qp
            dev_pq += vals_pq
            dev_qp = same * vals_pq
            dev_qp += vals_qp
            if p < partner:  # row q = p + partner, {psi, psibar} + 1/2 I
                on_pq, on_qp = rows_pq[partner] == states, rows_qp[partner] == states
                dev_pq[partner] += on_pq * 0.5
                dev_qp[partner] += on_qp * 0.5
                worst.append(np.abs(0.5 + on_pq * vals_pq[partner] + on_qp * vals_qp[partner]).max())
            worst += [np.abs(dev_pq, out=dev_pq).max(), np.abs(dev_qp, out=dev_qp).max()]
    return float(np.max(worst))  # NaN-propagating


def phi_matrix(
    config: Configuration, x_hat, f: DenseFermionicSpace, threshold: float = DEFAULT_THRESHOLD
) -> np.ndarray:
    """The four-fermion interaction matrix.

    For each covector: prefactor 2 c / sinh^2((a, x^)) times
    (four-operator term contracted with the antisymmetric pairing of the two
    species plus (a,a) sum_a psi^{ai} psibar_a^j), all spatial indices
    contracted with the covector components.  With A_b = sum_i a_i psi^{bi}
    and Abar_d = sum_l a_l psibar_d^l the pairing sum is
    (A_0 A_1 - A_1 A_0)(Abar_1 Abar_0 - Abar_0 Abar_1).  Equals the literal
    sum over all eight indices.
    """
    n = config.dimension
    if f.n != n:
        raise DimensionError(f"fermionic space has n = {f.n}, configuration has n = {n}")
    out = np.zeros((f.dim, f.dim))
    for alpha, c, z in zip(*active_pairings(config, x_hat, threshold)):
        pref = 2.0 * c / math.sinh(z) ** 2
        A = [sum(alpha[i] * f.psi[b][i] for i in range(n)) for b in range(2)]
        Abar = [sum(alpha[l] * f.psibar[d][l] for l in range(n)) for d in range(2)]
        four = (A[0] @ A[1] - A[1] @ A[0]) @ (Abar[1] @ Abar[0] - Abar[0] @ Abar[1])
        two = float(alpha @ alpha) * sum(A[a] @ Abar[a] for a in range(2))
        out += pref * (four + two)
    return out


def phi_matrix_bruteforce(config, x_hat, fs):
    """Literal eight-index summation of the four-fermion term."""
    x_hat = np.asarray(x_hat, dtype=float)
    n = config.dimension
    dim = fs.dim
    out = np.zeros((dim, dim))
    for alpha, c in zip(config.vectors, config.multiplicities):
        if c == 0.0:
            continue
        sh2 = math.sinh(float(alpha @ x_hat)) ** 2
        norm2 = float(alpha @ alpha)
        for i in range(n):
            for j in range(n):
                pref = 2.0 * c * alpha[i] * alpha[j] / sh2
                if pref == 0.0:
                    continue
                for l in range(n):
                    for k in range(n):
                        if alpha[l] * alpha[k] == 0.0:
                            continue
                        for a in range(2):
                            for b in range(2):
                                for cc in range(2):
                                    for d in range(2):
                                        coeff = EPSILON[b, cc] * EPSILON[a, d]
                                        if coeff == 0.0:
                                            continue
                                        out += (
                                            pref
                                            * alpha[l]
                                            * alpha[k]
                                            * coeff
                                            * (fs.psi[b][i] @ fs.psi[cc][j] @ fs.psibar[d][l] @ fs.psibar[a][k])
                                        )
                for a in range(2):
                    out += pref * norm2 * (fs.psi[a][i] @ fs.psibar[a][j])
    return out


def bosonic_potential_reversed(config, x_hat) -> float:
    """Second route for the scalar potential: literal loops in reverse member order."""
    x_hat = np.asarray(x_hat, dtype=float)
    members = [(a, c) for a, c in zip(config.vectors[::-1], config.multiplicities[::-1]) if c != 0.0]
    single = 0.0
    for a, c in members:
        z = float(a @ x_hat)
        single += 0.5 * c * float(a @ a) ** 2 / math.sinh(z) ** 2
    double = 0.0
    for va, ca in members:
        for vb, cb in members:
            double += (
                0.25
                * ca
                * cb
                * float(va @ va)
                * float(vb @ vb)
                * float(va @ vb)
                / math.tanh(float(va @ x_hat))
                / math.tanh(float(vb @ x_hat))
            )
    return single + double


def log_gauge_factor(config, y) -> float:
    """log of the gauge factor: sum over active covectors of
    (c (a,a) / 2) log |sinh((a, y))|.

    The absolute value leaves the gauge relation unchanged (only log
    derivatives enter, and d/dz log|sinh z| = coth z away from z = 0) while
    keeping the factor real in every chamber.
    """
    y = np.asarray(y, dtype=float)
    total = 0.0
    for alpha, c in zip(config.vectors, config.multiplicities):
        if c == 0.0:
            continue
        z = float(alpha @ y)
        sh = math.sinh(z)
        if sh == 0.0:
            raise SingularityError(f"sinh((alpha, y)) = 0 for member {alpha.tolist()}")
        total += 0.5 * c * float(alpha @ alpha) * math.log(abs(sh))
    return total


def gauge_residual_fd(config, x_hat0, phi, step: float = 1e-3, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Second-order finite-difference residual of the gauge relation.

    Compares g (-Lap + V)(g^{-1} phi) against
    (-Lap + sum c (a,a) coth((a,x^)) d_a) phi at x^_0, with g the product of
    |sinh|^{c (a,a)/2} factors.  The fermionic term commutes with
    multiplication by g and cancels between the two sides, so it is excluded.
    Laplacians and gradients use central differences with the given step;
    x^_0 must keep a margin of at least 2 * step * sqrt(n) from every active
    hyperplane, or MarginError is raised.
    """
    x0 = np.asarray(x_hat0, dtype=float)
    n = config.dimension
    h = float(step)
    if h <= 0.0:
        raise ParameterError("step must be positive")
    margin = 2.0 * h * math.sqrt(n)
    try:
        active_pairings(config, x0, margin)
    except SingularityError as exc:
        raise MarginError(f"step {h} needs a margin of {margin:.3e}: {exc}") from exc
    A, c, _ = active_pairings(config, x0, threshold)

    def g(y) -> float:
        return math.exp(log_gauge_factor(config, y))

    def psi(y) -> float:
        return phi(y) / g(y)

    eye = np.eye(n)
    phi0 = phi(x0)
    phi_plus = np.array([phi(x0 + h * eye[k]) for k in range(n)])
    phi_minus = np.array([phi(x0 - h * eye[k]) for k in range(n)])
    lap_phi = float(((phi_plus - 2.0 * phi0 + phi_minus) / h**2).sum())
    grad_phi = (phi_plus - phi_minus) / (2.0 * h)

    psi0 = psi(x0)
    lap_psi = float(
        sum((psi(x0 + h * eye[k]) - 2.0 * psi0 + psi(x0 - h * eye[k])) / h**2 for k in range(n))
    )

    V = bosonic_potential(active_pairings(config, x0, threshold))
    left = g(x0) * (-lap_psi + V * psi0)

    # a row's dot product can differ from the matrix product's entry in the
    # last bit, so (alpha, x^_0) is taken row by row as log_gauge_factor does
    first_order = 0.0
    for alpha, cm in zip(A, c):
        zm = float(alpha @ x0)
        first_order += cm * float(alpha @ alpha) / math.tanh(zm) * float(alpha @ grad_phi)
    right = -lap_phi + first_order

    return abs(left - right) / max(1.0, abs(right))


def gaussian_field(center, width: float = 0.7):
    """exp(-|y - center|^2 / (2 width^2))."""
    center = np.asarray(center, dtype=float)

    def phi(y: np.ndarray) -> float:
        d = np.asarray(y, dtype=float) - center
        return math.exp(-float(d @ d) / (2.0 * width**2))

    return phi


def sinh_product_field():
    """Product of sinh(y_i) over the coordinates."""

    def phi(y: np.ndarray) -> float:
        return float(np.prod(np.sinh(np.asarray(y, dtype=float))))

    return phi


def polynomial_field():
    """1 + y_1 / 2 + y_1 y_2^2 / 4 (the last term only in dimension >= 2)."""

    def phi(y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        val = 1.0 + 0.5 * y[0]
        if y.shape[0] >= 2:
            val += 0.25 * y[0] * y[1] ** 2
        return val

    return phi
