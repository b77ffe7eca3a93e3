"""Rescaled coordinates, fermionic operators and the supersymmetric Hamiltonians.

In coordinates x^_i = m_i^{1/2} x_i the family's metric becomes a multiple of
the identity and the third-derivative matrices commute pairwise.  This module
builds that rescaled configuration and tensor, the bosonic potential, a matrix
representation of the fermionic variables on a 2^(2n)-dimensional space, the
four-fermion interaction term, and a finite-difference check of the gauge
relation between the two Hamiltonian forms (whose fermionic parts cancel, so
they are excluded from the check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .configurations import BCnParameters, Configuration, build_bcn
from .errors import (
    DimensionCapError,
    DimensionError,
    MarginError,
    ParameterError,
    SingularityError,
)
from .prepotential import (
    DEFAULT_THRESHOLD,
    active_pairings,
    coth,
    tensor_closed_form,
    tensor_generic,
)

# antisymmetric pairing on the two fermionic species, eps[0][1] = 1
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])

_FERMION_N_CAP = 5  # dim = 2^(2n) <= 1024

ScalarField = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class RescaledConfiguration:
    """The BC_n family rewritten in the coordinates x^_i = m_i^{1/2} x_i."""

    base: BCnParameters
    config: Configuration


def _as_config(obj) -> Configuration:
    return obj.config if isinstance(obj, RescaledConfiguration) else obj


def build_hat_configuration(p: BCnParameters) -> RescaledConfiguration:
    """The members of ``build_bcn(p)`` with coordinate i scaled by m_i^{-1/2}:
    covectors m_i^{-1/2} e_i, 2 m_i^{-1/2} e_i, m_i^{-1/2} e_i +- m_j^{-1/2} e_j
    with the family multiplicities.  Requires every m_i > 0."""
    if any(mi <= 0.0 for mi in p.m):
        raise ParameterError(f"rescaling needs m_i > 0, got m = {p.m}")
    inv_sqrt = 1.0 / np.sqrt(p.m_array)
    members = [(mem.array * inv_sqrt, mem.multiplicity) for mem in build_bcn(p)]
    return RescaledConfiguration(base=p, config=Configuration(p.n, members))


def hat_tensor(p: BCnParameters, x_hat, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Third-derivative tensor of the rescaled prepotential, summed directly
    over the rescaled configuration."""
    return tensor_generic(build_hat_configuration(p).config, x_hat, threshold)


def hat_tensor_from_base(p: BCnParameters, x_hat, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Same tensor through the unscaled closed form: entry (k,l,t) is
    F_klt(x) / sqrt(m_k m_l m_t) at x_i = x^_i / sqrt(m_i)."""
    x_hat = np.asarray(x_hat, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(p.m_array)
    F = tensor_closed_form(p, x_hat * inv_sqrt, threshold)
    return np.einsum("klt,k,l,t->klt", F, inv_sqrt, inv_sqrt, inv_sqrt)


def hat_metric(p: BCnParameters, tensor_hat: np.ndarray, x_hat) -> np.ndarray:
    """B^ = sum_k m_k^{1/2} sinh(2 m_k^{-1/2} x^_k) F^_k; equals h * identity
    under the multiplicity constraint."""
    x_hat = np.asarray(x_hat, dtype=float)
    sq = np.sqrt(p.m_array)
    return np.einsum("k,klt->lt", sq * np.sinh(2.0 * x_hat / sq), tensor_hat)


def bosonic_potential(hat, x_hat, threshold: float = DEFAULT_THRESHOLD) -> float:
    """V = 1/2 sum c (a,a)^2 / sinh^2((a,x^))
    + 1/4 sum over pairs (incl. a = b) of c_a c_b (a,a)(b,b)(a,b) coth coth."""
    A, c, z = active_pairings(_as_config(hat), x_hat, threshold)
    norms2 = np.einsum("mi,mi->m", A, A)
    single = 0.5 * float((c * norms2**2 / np.sinh(z) ** 2).sum())
    w = c * norms2 * coth(z)
    gram = A @ A.T
    double = 0.25 * float(w @ gram @ w)
    return single + double


class FermionicSpace:
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
        if n > _FERMION_N_CAP:
            raise DimensionCapError(
                f"n = {n} exceeds the fermionic cap {_FERMION_N_CAP} (dim 2^(2n) <= 1024)"
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


def build_fermionic_space(n: int) -> FermionicSpace:
    return FermionicSpace(n)


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B + B @ A


def phi_matrix(hat, x_hat, f: FermionicSpace, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The four-fermion interaction matrix.

    For each covector: prefactor 2 c / sinh^2((a, x^)) times
    (contracted four-operator term with the epsilon pairing plus
    (a,a) sum_a psi^{ai} psibar_a^j), all spatial indices contracted with the
    covector components.  Equals the literal sum over all eight indices.
    """
    config = _as_config(hat)
    n = config.dimension
    if f.n != n:
        raise DimensionError(f"fermionic space has n = {f.n}, configuration has n = {n}")
    out = np.zeros((f.dim, f.dim))
    for alpha, c, z in zip(*active_pairings(config, x_hat, threshold)):
        pref = 2.0 * c / math.sinh(z) ** 2
        A = [sum(alpha[i] * f.psi[b][i] for i in range(n)) for b in range(2)]
        Abar = [sum(alpha[l] * f.psibar[d][l] for l in range(n)) for d in range(2)]
        four = np.zeros((f.dim, f.dim))
        for a in range(2):
            for b in range(2):
                for cc in range(2):
                    for d in range(2):
                        coeff = EPSILON[b, cc] * EPSILON[a, d]
                        if coeff == 0.0:
                            continue
                        four += coeff * (A[b] @ A[cc] @ Abar[d] @ Abar[a])
        two = float(alpha @ alpha) * sum(A[a] @ Abar[a] for a in range(2))
        out += pref * (four + two)
    return out


def log_gauge_factor(hat, y) -> float:
    """log of the gauge factor: sum over active covectors of
    (c (a,a) / 2) log |sinh((a, y))|.

    The absolute value leaves the gauge relation unchanged (only log
    derivatives enter, and d/dz log|sinh z| = coth z away from z = 0) while
    keeping the factor real in every chamber.
    """
    config = _as_config(hat)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for mem in config.members:
        c = mem.multiplicity
        if c == 0.0:
            continue
        alpha = mem.array
        z = float(alpha @ y)
        sh = math.sinh(z)
        if sh == 0.0:
            raise SingularityError(f"sinh((alpha, y)) = 0 for member {alpha.tolist()}")
        total += 0.5 * c * float(alpha @ alpha) * math.log(abs(sh))
    return total


def gauge_residual(
    hat,
    x_hat0,
    phi: ScalarField,
    step: float = 1e-3,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Second-order finite-difference residual of the gauge relation.

    Compares g (-Lap + V)(g^{-1} phi) against
    (-Lap + sum c (a,a) coth((a,x^)) d_a) phi at x^_0, with g the product of
    |sinh|^{c (a,a)/2} factors.  The fermionic term commutes with
    multiplication by g and cancels between the two sides, so it is excluded.
    Laplacians and gradients use central differences with the given step;
    x^_0 must keep a margin of at least 2 * step * sqrt(n) from every active
    hyperplane.
    """
    config = _as_config(hat)
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


def gaussian_field(center, width: float = 0.7) -> ScalarField:
    """exp(-|y - center|^2 / (2 width^2))."""
    center = np.asarray(center, dtype=float)

    def phi(y: np.ndarray) -> float:
        d = np.asarray(y, dtype=float) - center
        return math.exp(-float(d @ d) / (2.0 * width**2))

    return phi


def sinh_product_field() -> ScalarField:
    """Product of sinh(y_i) over the coordinates."""

    def phi(y: np.ndarray) -> float:
        return float(np.prod(np.sinh(np.asarray(y, dtype=float))))

    return phi


def polynomial_field(coeffs: dict[tuple[int, ...], float] | None = None) -> ScalarField:
    """Low-degree polynomial sum of coeff * prod y_i^{e_i} over monomials.

    Default: 1 + y_1 / 2 + y_1 y_2^2 / 4 (the last term only in dimension >= 2).
    """

    def phi(y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        if coeffs is None:
            val = 1.0 + 0.5 * y[0]
            if y.shape[0] >= 2:
                val += 0.25 * y[0] * y[1] ** 2
            return val
        total = 0.0
        for expo, cf in coeffs.items():
            total += cf * float(np.prod(y[: len(expo)] ** np.asarray(expo, dtype=float)))
        return total

    return phi
