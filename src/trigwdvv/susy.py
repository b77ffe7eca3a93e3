"""Rescaled coordinates, fermionic operators and the supersymmetric Hamiltonians.

In coordinates x^_i = m_i^{1/2} x_i the family's metric becomes a multiple of
the identity and the third-derivative matrices commute pairwise.  This module
builds that rescaled configuration and tensor, the bosonic potential, a matrix
representation of the fermionic variables on a 2^(2n)-dimensional space with
the residual of its anticommutation relations, the four-fermion interaction
term, and the closed-form residual of the gauge identity V = |grad L|^2 - Lap L
that relates the two Hamiltonian forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configurations import BCnParameters, Configuration, build_bcn
from .errors import DimensionCapError, DimensionError, ParameterError
from .prepotential import (
    DEFAULT_THRESHOLD,
    active_pairings,
    coth,
    tensor_closed_form,
)

_FERMION_N_CAP = 5  # dim = 2^(2n) <= 1024


@dataclass(frozen=True)
class RescaledConfiguration:
    """The BC_n family rewritten in the coordinates x^_i = m_i^{1/2} x_i."""

    base: BCnParameters
    config: Configuration


def build_hat_configuration(p: BCnParameters) -> RescaledConfiguration:
    """The members of ``build_bcn(p)`` with coordinate i scaled by m_i^{-1/2}:
    covectors m_i^{-1/2} e_i, 2 m_i^{-1/2} e_i, m_i^{-1/2} e_i +- m_j^{-1/2} e_j
    with the family multiplicities.  Requires every m_i > 0."""
    if any(mi <= 0.0 for mi in p.m):
        raise ParameterError(f"rescaling needs m_i > 0, got m = {p.m}")
    inv_sqrt = 1.0 / np.sqrt(p.m_array)
    base = build_bcn(p)
    config = Configuration(p.n, zip(base.vectors * inv_sqrt, base.multiplicities))
    return RescaledConfiguration(base=p, config=config)


def hat_tensor_from_base(p: BCnParameters, x_hat, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The rescaled tensor through the unscaled closed form: entry (k,l,t) is
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


def bosonic_potential(config: Configuration, x_hat, threshold: float = DEFAULT_THRESHOLD) -> float:
    """V = 1/2 sum c (a,a)^2 / sinh^2((a,x^))
    + 1/4 sum over pairs (incl. a = b) of c_a c_b (a,a)(b,b)(a,b) coth coth."""
    A, c, z = active_pairings(config, x_hat, threshold)
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


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B + B @ A


def anticommutation_residual(fs: FermionicSpace) -> float:
    """Max-abs deviation of every anticommutator of the 4n operators from its
    expected value: -1/2 I for {psi^{aj}, psibar_a^j}, zero otherwise.

    Each unordered pair is taken once; {P, Q} and {Q, P} are the same sum of
    the same two products, so the other order adds nothing.
    """
    ops = [M for row in fs.psi for M in row] + [M for row in fs.psibar for M in row]
    half = 0.5 * np.eye(fs.dim)
    partner = len(ops) // 2
    worst = 0.0
    for p in range(len(ops)):
        for q in range(p, len(ops)):
            dev = anticommutator(ops[p], ops[q])
            if q == p + partner:
                dev += half
            worst = max(worst, float(np.abs(dev).max()))
    return worst


def phi_matrix(
    config: Configuration, x_hat, f: FermionicSpace, threshold: float = DEFAULT_THRESHOLD
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


def gauge_residual(config: Configuration, x_hat, threshold: float = DEFAULT_THRESHOLD) -> float:
    """|V - (|grad L|^2 - Lap L)| / max(1, |V|) at x^, in closed form.

    L = sum (c (a,a) / 2) log|sinh((a, x^))| is the log of the gauge factor
    relating the two Hamiltonian forms, so grad L = A^T (c (a,a) coth / 2) and
    Lap L = -1/2 sum c (a,a)^2 / sinh^2.  The identity holds for every
    configuration: the residual checks ``bosonic_potential`` against a second
    summation, not the family.
    """
    A, c, z = active_pairings(config, x_hat, threshold)
    norms2 = np.einsum("mi,mi->m", A, A)
    grad = A.T @ (0.5 * c * norms2 * coth(z))
    lap = -0.5 * float((c * norms2**2 / np.sinh(z) ** 2).sum())
    V = bosonic_potential(config, x_hat, threshold)
    return abs(V - (float(grad @ grad) - lap)) / max(1.0, abs(V))
