"""Weighted vector configurations of BC_n type and their block restrictions.

A configuration is a finite list of covectors with scalar multiplicities; every
prepotential, tensor and product in this package is a sum over one.  This module
builds the n-parameter BC_n family, the unreduced BC_N root system (all block
sizes equal to one), and the projection machinery that maps BC_N onto the
subspace where coordinates are constant on blocks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

# Coinciding member vectors are merged on construction.  Family builders only
# produce integer / half-integer coordinates, so the tolerance guards float
# noise from projections, not genuine ambiguity.
MERGE_TOL = 1e-12

# Machine epsilon of a float64, for the rounding of the merge keys.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class WeightedVector:
    """A nonzero covector together with its scalar multiplicity."""

    vector: tuple[float, ...]
    multiplicity: float

    def __post_init__(self):
        if len(self.vector) < 1:
            raise ParameterError("vector must have dimension >= 1")
        if not all(map(math.isfinite, self.vector)):
            raise ParameterError(f"vector has non-finite entries: {self.vector}")
        if not math.isfinite(self.multiplicity):
            raise ParameterError("multiplicity must be finite")
        if max(map(abs, self.vector)) == 0.0:
            raise ParameterError("member vectors must be nonzero")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=float)


class Configuration:
    """An immutable list of weighted covectors in a fixed dimension.

    Members are merged on construction.  The first member of a slot fixes the
    slot's vector; each later member is compared with that first vector of
    every slot, coordinate by coordinate within ``MERGE_TOL``, and joins the
    earliest slot that matches, adding its multiplicity.  The rule is not
    transitive: a member close to a slot's later members but not to its first
    one opens a slot of its own.  First-occurrence order is kept, and members
    with zero multiplicity are retained so the member count of a family build
    is deterministic.

    Candidate slots are found by bisection on a scalar key, the dot product
    with fixed positive weights, in a window that covers ``MERGE_TOL`` and the
    key's rounding; only the candidates get the coordinate test.  For the
    family builders, whose distinct vectors have well-separated keys, a build
    of M members in dimension d costs O(M d) Python work and O(M log M) key
    comparisons (the sorted-list inserts are memory moves in C), against the
    O(M^2 d) of a pairwise scan.
    """

    def __init__(self, dimension: int, members) -> None:
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        self.dimension = d = int(dimension)
        vecs, mults = [], []
        for item in members:
            if isinstance(item, WeightedVector):
                vec, mult = item.vector, item.multiplicity
            else:
                vec, mult = item
                vec = tuple(float(v) for v in vec)
            if len(vec) != d:
                raise DimensionError(f"member {vec} has dimension {len(vec)}, expected {d}")
            vecs.append(vec)
            mults.append(float(mult))
        # Irregular positive weights, so that distinct small-integer vectors
        # get distinct keys; summing to below 1, they keep every key of a
        # finite vector finite.  A vector with non-finite entries has a
        # non-finite key and matches no slot.
        weights = (2.0 + np.sin(1e3 * np.arange(1, d + 1))) / (4.0 * d)
        flat = np.array(vecs, dtype=float).reshape(len(vecs), d)
        keys = (flat @ weights).tolist()
        windows = (4.0 * (MERGE_TOL * weights.sum() + d * _EPS * (np.abs(flat) @ weights))).tolist()
        slots: list[list] = []  # [first vector, multiplicity]
        sorted_keys: list[float] = []
        sorted_slots: list[int] = []
        for vec, mult, key, window in zip(vecs, mults, keys, windows):
            lo = bisect.bisect_left(sorted_keys, key - window)
            hi = bisect.bisect_right(sorted_keys, key + window)
            match = min(
                (
                    idx
                    for idx in sorted_slots[lo:hi]
                    if all(abs(a - b) <= MERGE_TOL for a, b in zip(slots[idx][0], vec))
                ),
                default=None,
            )
            if match is not None:
                slots[match][1] += mult
                continue
            if math.isfinite(key):
                pos = bisect.bisect_right(sorted_keys, key)
                sorted_keys.insert(pos, key)
                sorted_slots.insert(pos, len(slots))
            slots.append([vec, mult])
        self.members: tuple[WeightedVector, ...] = tuple(
            WeightedVector(vec, mult) for vec, mult in slots
        )
        vectors = np.array([m.vector for m in self.members], dtype=float)
        vectors = vectors.reshape(len(self.members), self.dimension)
        mults = np.array([m.multiplicity for m in self.members], dtype=float)
        vectors.setflags(write=False)
        mults.setflags(write=False)
        self._vectors = vectors
        self._multiplicities = mults

    @property
    def vectors(self) -> np.ndarray:
        """(len(members), dimension) array of member vectors (read-only)."""
        return self._vectors

    @property
    def multiplicities(self) -> np.ndarray:
        """(len(members),) array of multiplicities (read-only)."""
        return self._multiplicities

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"Configuration(dimension={self.dimension}, members={len(self.members)})"


def configurations_match(
    a: Configuration,
    b: Configuration,
    coord_tol: float = 0.0,
    mult_tol: float = 0.0,
) -> bool:
    """True iff the two configurations have the same members, order-insensitively.

    Each member of ``a`` must match exactly one member of ``b`` with every
    coordinate within ``coord_tol`` and multiplicity within ``mult_tol``.
    With the default zero tolerances this is exact equality.
    """
    if a.dimension != b.dimension or len(a) != len(b):
        return False
    unused = list(b.members)
    for ma in a.members:
        for i, mb in enumerate(unused):
            if all(abs(x - y) <= coord_tol for x, y in zip(ma.vector, mb.vector)) and abs(
                ma.multiplicity - mb.multiplicity
            ) <= mult_tol:
                del unused[i]
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class BCnParameters:
    """Parameters (n, r, s, q, m_1..m_n) of the BC_n family; N = sum(m) is cached."""

    n: int
    r: float
    s: float
    q: float
    m: tuple[float, ...]
    N: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if len(self.m) != self.n:
            raise ParameterError(f"m has length {len(self.m)}, expected n = {self.n}")
        if not all(math.isfinite(v) for v in (self.r, self.s, self.q, *self.m)):
            raise ParameterError("parameters must be finite")
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        object.__setattr__(self, "N", float(sum(self.m)))

    @property
    def m_array(self) -> np.ndarray:
        return np.asarray(self.m, dtype=float)


@dataclass(frozen=True)
class Partition:
    """An ordered partition of N coordinates into n consecutive blocks."""

    N: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        if any(b < 1 for b in self.blocks):
            raise ParameterError("every block must have size >= 1")
        if sum(self.blocks) != self.N:
            raise ParameterError(
                f"blocks {self.blocks} sum to {sum(self.blocks)}, expected N = {self.N}"
            )

    @property
    def n(self) -> int:
        return len(self.blocks)

    def block_indicators(self) -> np.ndarray:
        """(n, N) 0/1 matrix whose k-th row marks the coordinates of block k."""
        F = np.zeros((self.n, self.N))
        start = 0
        for k, b in enumerate(self.blocks):
            F[k, start : start + b] = 1.0
            start += b
        return F


def constraint_residual(p: BCnParameters) -> float:
    """r + 8s + 2q(N - 2); zero exactly when the multiplicity relation holds."""
    return p.r + 8.0 * p.s + 2.0 * p.q * (p.N - 2.0)


def solve_r(s: float, q: float, m) -> float:
    """The value of r that closes the multiplicity relation for given s, q, m."""
    return -8.0 * s - 2.0 * q * (float(sum(m)) - 2.0)


def build_bcn(p: BCnParameters) -> Configuration:
    """The BC_n family configuration for parameters ``p``.

    Members, in construction order: e_i with multiplicity r*m_i; 2e_i with
    multiplicity s*m_i + q*m_i*(m_i - 1)/2; e_i + e_j and e_i - e_j (i < j)
    with multiplicity q*m_i*m_j.  Zero multiplicities are retained, so the
    member count is always n + n + n(n-1).
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
    return Configuration(n, members)


def build_bcN_root_system(N: int, r: float, s: float, q: float) -> Configuration:
    """Positive half of the BC_N root system: the family at m = (1, ..., 1)."""
    return build_bcn(BCnParameters(n=N, r=r, s=s, q=q, m=(1.0,) * N))


def project_vector(u, part: Partition) -> np.ndarray:
    """Coordinates of the orthogonal projection of ``u`` onto the block subspace.

    Returned in the block-indicator basis f_1..f_n: component k is
    (u, f_k) / m_k.  The full-space projection is sum_k result[k] * f_k.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (part.N,):
        raise DimensionError(f"vector has shape {u.shape}, expected ({part.N},)")
    F = part.block_indicators()
    return (F @ u) / np.asarray(part.blocks, dtype=float)


def restrict_configuration(
    N: int, r: float, s: float, q: float, part: Partition, ambient: Configuration | None = None
) -> Configuration:
    """Project BC_N(r, s, q) minus its block subsystem onto the block subspace.

    The subsystem consists of the within-block differences (exactly the members
    whose projection vanishes).  Every other member is projected and rewritten
    in the coordinates where the normalized block vector f_k / m_k becomes e_k;
    coinciding images merge by summing multiplicities.  The result equals
    build_bcn with m = part.blocks, member for member.  ``ambient`` is BC_N(r,
    s, q) if the caller has already built it; it is built here otherwise.
    """
    if N != part.N:
        raise DimensionError(f"N = {N} does not match partition N = {part.N}")
    if ambient is None:
        ambient = build_bcN_root_system(N, r, s, q)
    # coordinates after f_k/m_k -> e_k, i.e. (alpha, f_k); subsystem members
    # are exactly those with all coordinates zero.  The entries are small
    # integers, so the product is exact.
    coords = ambient.vectors @ part.block_indicators().T
    keep = np.abs(coords).max(axis=1) > MERGE_TOL
    return Configuration(part.n, zip(map(tuple, coords[keep].tolist()), ambient.multiplicities[keep]))
