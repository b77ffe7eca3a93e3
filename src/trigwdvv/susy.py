"""Rescaled coordinates, fermionic operators and the supersymmetric Hamiltonians.

In coordinates x^_i = m_i^{1/2} x_i the family's metric becomes a multiple of
the identity, B^ - h I = D^{-1/2} (B - h diag(m)) D^{-1/2} with D = diag(m),
and the third-derivative matrices commute pairwise.  This module
builds that rescaled configuration, the bosonic potential, the
Jordan-Wigner operators of the fermionic variables on a 2^(2n)-dimensional
space, stored as signed permutations of the basis, with the residual of their
anticommutation relations, and the closed-form residual of the gauge identity
V = |grad L|^2 - Lap L that relates the two Hamiltonian forms.  The
four-fermion interaction term, which no check needs, is built densely in the
test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configurations import BCnParameters, Configuration, _bcn_members
from .errors import DimensionCapError, ParameterError
from .prepotential import DEFAULT_THRESHOLD, active_pairings, coth

_FERMION_N_CAP = 7  # dim = 2^(2n) <= 16384


@dataclass(frozen=True)
class RescaledConfiguration:
    """The BC_n family rewritten in the coordinates x^_i = m_i^{1/2} x_i."""

    config: Configuration


def build_hat_configuration(p: BCnParameters) -> RescaledConfiguration:
    """The members of ``build_bcn(p)`` with coordinate i scaled by m_i^{-1/2}:
    covectors m_i^{-1/2} e_i, 2 m_i^{-1/2} e_i, m_i^{-1/2} e_i +- m_j^{-1/2} e_j
    with the family multiplicities.  Requires every m_i > 0."""
    if any(mi <= 0.0 for mi in p.m):
        raise ParameterError(f"rescaling needs m_i > 0, got m = {p.m}")
    inv_sqrt = 1.0 / np.sqrt(p.m_array)
    vectors, mults = _bcn_members(p)
    config = Configuration(p.n, vectors * inv_sqrt, mults)
    return RescaledConfiguration(config=config)


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
    """The 4n Jordan-Wigner operators of 2n fermionic modes on dimension 2^(2n).

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
    O(n^2 dim) time and O(n dim) memory, 0.0024 / 0.011 / 0.063 / 0.39 s at
    n = 4 / 5 / 6 / 7 on a 2-vCPU Xeon with numpy 2.4, and building the
    arrays 0.012 s at n = 7.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ParameterError("n must be >= 1")
        if n > _FERMION_N_CAP:
            raise DimensionCapError(
                f"n = {n} exceeds the fermionic cap {_FERMION_N_CAP} (dim 2^(2n) <= {4**_FERMION_N_CAP})"
            )
        self.n = n
        self.dim = 4**n
        states = np.arange(self.dim)
        bit = (2 * n - 1) - np.arange(2 * n)[:, None]
        occupied = (states >> bit) & 1
        sign = 1.0 - 2.0 * ((np.cumsum(occupied, axis=0) - occupied) & 1)
        self.targets = np.vstack([states ^ (1 << bit)] * 2)
        self.coefficients = np.vstack([sign * occupied, -0.5 * sign * (1 - occupied)])
        self.targets.setflags(write=False)
        self.coefficients.setflags(write=False)


def anticommutation_residual(fs: FermionicSpace) -> float:
    """Max-abs deviation of every anticommutator of the 4n operators from its
    expected value: -1/2 I for {psi^{aj}, psibar_a^j}, zero otherwise.

    Each unordered pair (p, q), q >= p, is taken once; {P, Q} and {Q, P} are
    the same sum.  Column s of PQ holds C_q[s] C_p[T_q[s]] at row T_p[T_q[s]],
    and column s of QP the mirror entry, so each column of {P, Q} + 1/2 I has
    at most three entries: the two products and the diagonal.  Each entry's
    value sums the terms that land on its row.  A non-finite coefficient
    gives a non-finite residual.
    """
    T, C = fs.targets, fs.coefficients
    partner = len(T) // 2
    states = np.arange(fs.dim)
    worst = []
    for p in range(len(T)):
        Tq, Cq = T[p:], C[p:]
        rows_pq = T[p][Tq]
        vals_pq = Cq * C[p][Tq]
        rows_qp = Tq[:, T[p]]
        vals_qp = C[p] * Cq[:, T[p]]
        diag = np.zeros((len(Tq), 1))
        if p < partner:
            diag[partner] = 0.5
        same = rows_pq == rows_qp
        on_pq = rows_pq == states
        on_qp = rows_qp == states
        for dev in (
            vals_pq + same * vals_qp + on_pq * diag,
            vals_qp + same * vals_pq + on_qp * diag,
            diag + on_pq * vals_pq + on_qp * vals_qp,
        ):
            worst.append(np.abs(dev).max())
    return float(np.max(worst))  # NaN-propagating


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
