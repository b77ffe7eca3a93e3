"""Independent oracles used by the test suite.

These stay deliberately separate from the library paths they check: the
trilogarithm is re-summed with math.fsum, third derivatives come from finite
differences of the scalar prepotential, the fermionic operators are dense
Kronecker products, the anticommutation residual is read off dense products of
the scattered operator arrays, the four-fermion term is built from them both by
products of contracted operators and by literal eight-index loops, BC_n family
members are listed one by one and merged by a pairwise scan, the metric's diagonality
is read off B against m_l h, WDVV residuals are taken one pair (i, j) at a
time with an explicit inverse for the pivot norm (and, for bit-for-bit
comparison, by the full commutator pass over every (i, j) with a separate SVD
for the norms), the gauge relation between the two Hamiltonian forms is
differentiated by central stencils on scalar test fields,
admissible points are drawn by box-uniform rejection, the tangency
residual of a restriction is summed one subsystem covector at a time and the
restricted product one outside member at a time, the
closed-form BC_n tensor is filled one index pair at a time, and the generic
tensor and its metric are contracted by ``einsum`` instead of one GEMM.
"""

import itertools
import math

import numpy as np

from trigwdvv.algebra import RestrictionContext
from trigwdvv.configurations import BCnParameters, Configuration
from trigwdvv.errors import (
    DimensionCapError,
    DimensionError,
    ParameterError,
    PreconditionError,
    SamplingError,
    SingularityError,
)
from trigwdvv.prepotential import (
    DEFAULT_THRESHOLD,
    active_pairings,
    coth,
    eval_f,
    h_function,
    hyperbolic_helpers,
    is_admissible,
    metric_B,
)
from trigwdvv.sampling import DEFAULT_BOX, MAX_ATTEMPTS_PER_POINT, admissible_points
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
    """(count, dimension) array of the first points of ``admissible_points``, the stream a run draws from."""
    return np.array(list(itertools.islice(admissible_points(rng, pattern, box, threshold), count)))


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


def tensor_closed_form_loop(p, x, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The explicit BC_n third-derivative formula, filled entry by entry."""
    n, r, s, q, m = p.n, p.r, p.s, p.q, p.m_array
    b, bt, b_pair = hyperbolic_helpers(np.asarray(x, dtype=float), threshold)
    F = np.zeros((n, n, n))
    diag = r * m * b + 4.0 * (2.0 * s * m + q * m * (m - 1.0)) * bt + q * m * (b_pair @ m)
    pair_val = q * np.outer(m, m) * b_pair.T
    for a in range(n):
        F[a, a, a] = diag[a]
        for bb in range(n):
            if bb != a:
                F[a, a, bb] = F[a, bb, a] = F[bb, a, a] = pair_val[a, bb]
    return F


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
    commutator-like matrix; scaled divides it by
    max(1, ||F_i|| ||P^{-1}|| ||F_j||) in the spectral norm.
    """
    Fi, Fj = tensor[i], tensor[j]
    if pivot is None:
        M = Fi @ Fj - Fj @ Fi
        inv_norm = 1.0
    else:
        M = Fi @ np.linalg.solve(pivot, Fj) - Fj @ np.linalg.solve(pivot, Fi)
        inv_norm = np.linalg.norm(np.linalg.inv(pivot), 2)
    raw = float(np.abs(M).max())
    scale = max(1.0, np.linalg.norm(Fi, 2) * inv_norm * np.linalg.norm(Fj, 2))
    return raw / scale, raw


def pivot_residuals_full(tensor, pivots=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``wdvv.pivot_residuals`` by the full commutator pass, for bit-for-bit comparison.

    Every commutator (i, j) and (j, i) is formed from the strided swap of all
    n^4 entries of each pivot's product, raw is max(top, top.T) of their signed
    maxima, and the norms ||F_i|| come from a separate SVD of the tensor.
    """
    T = np.asarray(tensor, dtype=float)
    n = T.shape[0]
    rhs = T.transpose(1, 0, 2).reshape(1, n, n * n)
    if pivots is None:
        X = rhs
        condition = inv_norm = np.ones(1)
    else:
        P = np.asarray(pivots, dtype=float)
        sv, condition = usable_pivots(P)
        inv_norm = 1.0 / sv[:, -1]
        X = np.linalg.solve(P, rhs)
    raw = np.empty((len(X), n, n))
    for p, Xp in enumerate(X):
        G = (T @ Xp).reshape(n, n, n, n)
        top = (G.transpose(0, 2, 1, 3) - G.transpose(2, 0, 1, 3)).max(axis=(2, 3))
        raw[p] = np.maximum(top, top.T)
    norms = np.linalg.svd(T, compute_uv=False)[:, 0]
    scale = np.maximum(1.0, np.outer(norms, norms) * inv_norm[:, None, None])
    return raw / scale, raw, condition


def diagonality_report(tensor, p, x) -> tuple[float, float]:
    """(max off-diagonal |B_lt|, max |B_ll - m_l h(x)|) for B built from the tensor.

    The off-diagonal part vanishes for every parameter choice; the diagonal
    deviation vanishes exactly under the multiplicity constraint and equals
    m_l * delta * cosh(2 x_l) entrywise when the constraint residual is delta.
    """
    x = np.asarray(x, dtype=float)
    B = metric_B(tensor, x)
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
            raise DimensionCapError(
                f"n = {n} exceeds the fermionic cap {DENSE_N_CAP} (dim 2^(2n) <= 1024)"
            )
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
