"""Rescaled coordinates and the bosonic part of the supersymmetric Hamiltonians.

In coordinates x^_i = m_i^{1/2} x_i the family's metric becomes a multiple of
the identity, B^ - h I = D^{-1/2} (B - h diag(m)) D^{-1/2} with D = diag(m),
and the third-derivative matrices commute pairwise.  This module builds that
rescaled configuration, whose covectors keep at most two nonzero entries (so
``verify-susy`` reads its tensor as the arrow array of ``wdvv.arrow_slices``,
and its commuting form by ``wdvv.arrow_residuals`` at the identity pivot), the
bosonic potential and the closed-form residual of the gauge identity
V = |grad L|^2 - Lap L that relates the two Hamiltonian forms.  The potential
and the gauge residual read ``active_pairings``' (A, c, z) at x^, or at each
point of a block.  The fermionic operators, which depend on n alone, and the
four-fermion term, which no check needs, are built in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configurations import BCnParameters, Configuration, _bcn_members
from .errors import ParameterError
from .prepotential import _two_path, coth


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
