"""Rescaled coordinates, fermionic operators and the supersymmetric Hamiltonians.

In coordinates x^_i = m_i^{1/2} x_i the family's metric becomes a multiple of
the identity, B^ - h I = D^{-1/2} (B - h diag(m)) D^{-1/2} with D = diag(m),
and the third-derivative matrices commute pairwise.  This module builds that
rescaled configuration, the bosonic potential, the Jordan-Wigner operators of
the fermionic variables on a 2^(2n)-dimensional space, stored as signed
permutations of the basis, with the residual of their anticommutation
relations (computed once per n in a process), and the closed-form residual of
the gauge identity V = |grad L|^2 - Lap L that relates the two Hamiltonian
forms.  The potential and the gauge residual read ``active_pairings``' (A, c,
z) at the point x^, or at each point of a block.  The four-fermion interaction term, which no check needs,
is built densely in the test oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .configurations import BCnParameters, Configuration, _bcn_members, _integer, _read_only
from .errors import DimensionCapError, ParameterError
from .prepotential import _two_path, coth

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


def bosonic_potential(active, sums=None) -> float | np.ndarray:
    """V = 1/2 sum c (a,a)^2 / sinh^2((a,x^)) + 1/4 sum over pairs (incl. a = b) of
    c_a c_b (a,a)(b,b)(a,b) coth coth, from ``active_pairings``' (A, c, z) at x^.  ``sums`` is the
    ``_potential_sums`` of the same point, when the caller has formed them (``gauge_residual`` does).
    z of shape (..., M) gives one value a point, each point's bits as alone, from one Gram matrix A A^T."""
    A = active[0]
    w, S = _potential_sums(active) if sums is None else sums
    quad = ((w[..., None, :] @ (A @ A.T)) @ w[..., None])[..., 0, 0]  # per point one GEMV and one dot, as w @ G @ w
    return 0.5 * S + 0.25 * quad


def _potential_sums(active) -> tuple:
    """(w, S) at x^: w = c (a,a) coth((a,x^)) and S = sum c (a,a)^2 / sinh^2((a,x^)), the member sums
    that ``bosonic_potential`` and ``gauge_residual`` share, formed once per call; z of shape
    (..., M) gives w of (..., M) and S of (...), and the member norms (a,a) are formed once."""
    A, c, z = active
    norms2 = np.einsum("mi,mi->m", A, A)
    return c * norms2 * coth(z), (c * norms2**2 / np.sinh(z) ** 2).sum(axis=-1)


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
    O(n^2 dim) time and O(n dim) memory, 0.0007 / 0.0025 / 0.018 / 0.13 s at
    n = 4 / 5 / 6 / 7 on a 2-vCPU Xeon with numpy 2.4, and building the
    arrays 0.01 s at n = 7.
    """

    def __init__(self, n: int) -> None:
        n = _integer(n, f"n must be an integer, got {n!r}")
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


@functools.lru_cache(maxsize=_FERMION_N_CAP, typed=True)
def fermionic_residual(n: int) -> float:
    """``anticommutation_residual(FermionicSpace(n))``, computed once per n in a process.

    The check depends on n alone.  ``typed=True`` keeps True apart from 1, so a
    value ``FermionicSpace`` refuses raises on every call; a refusal is never cached.
    """
    return anticommutation_residual(FermionicSpace(n))


def gauge_residual(active) -> float | np.ndarray:
    """|V - (|grad L|^2 - Lap L)| / max(1, |V|) at x^, in closed form: ``prepotential._two_path`` against V.

    L = sum (c (a,a) / 2) log|sinh((a, x^))| is the log of the gauge factor
    relating the two Hamiltonian forms, so grad L = A^T (c (a,a) coth / 2) and
    Lap L = -1/2 sum c (a,a)^2 / sinh^2.  The identity holds for every
    configuration: the residual checks ``bosonic_potential`` against a second
    summation, not the family.  ``active`` is as in ``bosonic_potential``, a block of points too.
    """
    w, S = sums = _potential_sums(active)
    grad = active[0].T @ (0.5 * w)[..., None]  # Lap L = -S / 2; per point one GEMV, as A^T @ (0.5 w)
    got = (grad.swapaxes(-1, -2) @ grad)[..., 0, 0] + 0.5 * S  # per point one dot, as grad @ grad
    return _two_path(got, bosonic_potential(active, sums), axes=())
