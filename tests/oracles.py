"""Independent oracles used by the test suite.

These stay deliberately separate from the library paths they check: the
trilogarithm is re-summed with math.fsum, third derivatives come from finite
differences of the scalar prepotential, the four-fermion term is built by
literal eight-index loops, BC_n family members are listed one by one and
merged by a pairwise scan, the metric's diagonality is read off B against
m_l h, WDVV residuals are taken one pair (i, j) at a time with an explicit
inverse for the pivot norm, the gauge relation between the two
Hamiltonian forms is differentiated by central stencils on scalar test fields,
and admissible points are drawn by box-uniform rejection.
"""

import math

import numpy as np

from trigwdvv.configurations import MERGE_TOL
from trigwdvv.errors import ParameterError, SamplingError, SingularityError
from trigwdvv.prepotential import (
    DEFAULT_THRESHOLD,
    active_pairings,
    eval_f,
    h_function,
    is_admissible,
    metric_B,
)
from trigwdvv.sampling import DEFAULT_BOX, MAX_ATTEMPTS_PER_POINT
from trigwdvv.susy import bosonic_potential

# antisymmetric pairing on the two fermionic species, eps[0][1] = 1
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])


class MarginError(ValueError):
    """A finite-difference step would leave the admissible region."""


def li3_fsum(w: float, terms: int = 400) -> float:
    """Trilogarithm by compensated summation of the defining series."""
    return math.fsum(w**k / k**3 for k in range(1, terms + 1))


def merge_pairwise(members) -> list[tuple[tuple[float, ...], float]]:
    """(vector, multiplicity) slots of ``members`` by the pairwise merge rule.

    Each member is compared with the first vector of every earlier slot and
    joins the earliest one whose coordinates all lie within MERGE_TOL.
    """
    merged: list[list] = []
    for vec, mult in members:
        vec = tuple(float(v) for v in vec)
        for slot in merged:
            if all(abs(a - b) <= MERGE_TOL for a, b in zip(slot[0], vec)):
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


def rejection_sample_points(rng, config, count, box=DEFAULT_BOX, threshold=DEFAULT_THRESHOLD) -> np.ndarray:
    """(count, dimension) admissible points by box-uniform rejection.

    Each candidate is ``rng.uniform(lo, hi, n)`` and is kept if
    ``is_admissible`` accepts it; a point gets at most MAX_ATTEMPTS_PER_POINT
    candidates.
    """
    lo, hi = float(box[0]), float(box[1])
    out = np.empty((count, config.dimension))
    for idx in range(count):
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi, config.dimension)
            if is_admissible(config, x, threshold):
                out[idx] = x
                break
        else:
            raise SamplingError(f"no admissible point after {MAX_ATTEMPTS_PER_POINT} attempts")
    return out


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

    V = bosonic_potential(config, x0, threshold)
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
