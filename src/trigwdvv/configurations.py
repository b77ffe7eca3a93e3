"""Weighted vector configurations of BC_n type and their block restrictions.

A configuration is a finite list of covectors with scalar multiplicities; every
prepotential, tensor and product in this package is a sum over one.  This module
builds the n-parameter BC_n family, the unreduced BC_N root system (all block
sizes equal to one), and the projection machinery that maps BC_N onto the
subspace where coordinates are constant on blocks.
"""

from __future__ import annotations

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


class Configuration:
    """An immutable list of weighted covectors in a fixed dimension.

    ``members`` is an iterable of (vector, multiplicity) pairs; they are
    stored as the read-only arrays ``vectors`` (M, dimension) and
    ``multiplicities`` (M,), which are all the package reads.

    Members are merged on construction.  The first member of a slot fixes the
    slot's vector; each later member is compared with that first vector of
    every slot, coordinate by coordinate within ``MERGE_TOL``, and joins the
    earliest slot that matches, adding its multiplicity in input order.  The
    rule is not transitive: a member close to a slot's later members but not
    to its first one opens a slot of its own.  First-occurrence order is
    kept, and members with zero multiplicity are retained so the member count
    of a family build is deterministic.  A slot whose first vector is zero or
    not finite, or whose multiplicity is not finite, raises ParameterError.

    Candidate slots are found by sorting a scalar key, the dot product with
    fixed positive weights, and searching a window that covers ``MERGE_TOL``
    and the key's rounding.  An exact repeat of an earlier member joins that
    member's slot, so only first occurrences whose window holds another one
    get the coordinate test, in Python; family builds have none.  BC_20 /
    BC_40 / BC_80 builds take 0.0007 / 0.004 / 0.02 s on a 2-vCPU Xeon with
    numpy 2.4, the sorts and array passes of a few copies of the arrays.
    """

    def __init__(self, dimension: int, members) -> None:
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        self.dimension = d = int(dimension)
        members = list(members)
        try:
            flat = np.array([vec for vec, _ in members] or np.empty((0, d)), dtype=float)
        except ValueError:  # ragged members
            flat = None
        if flat is None or flat.shape[1:] != (d,):
            for vec, _ in members:
                if len(vec) != d:
                    vec = tuple(float(v) for v in vec)
                    raise DimensionError(f"member {vec} has dimension {len(vec)}, expected {d}")
            raise DimensionError(f"members must be flat vectors of dimension {d}")
        mults = np.array([mult for _, mult in members], dtype=float)
        head, slot_of = _merge_slots(flat)
        vectors = flat[head]
        sums = mults[head]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
            np.add.at(sums, slot_of[~head], mults[~head])
        finite = np.isfinite(vectors).all(axis=1)
        bad = ~finite | ~np.isfinite(sums) | (vectors == 0.0).all(axis=1)
        if bad.any():
            k = int(bad.argmax())
            if not finite[k]:
                raise ParameterError(f"vector has non-finite entries: {tuple(vectors[k].tolist())}")
            if not math.isfinite(sums[k]):
                raise ParameterError("multiplicity must be finite")
            raise ParameterError("member vectors must be nonzero")
        vectors.setflags(write=False)
        sums.setflags(write=False)
        self._vectors = vectors
        self._multiplicities = sums

    @property
    def vectors(self) -> np.ndarray:
        """(len(self), dimension) array of member vectors (read-only)."""
        return self._vectors

    @property
    def multiplicities(self) -> np.ndarray:
        """(len(self),) array of multiplicities (read-only)."""
        return self._multiplicities

    @property
    def members(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        """The (vector, multiplicity) pairs, in the constructor's input format.

        Built from the arrays on every access; the package itself reads only
        ``vectors`` and ``multiplicities``.
        """
        return tuple(zip(map(tuple, self._vectors.tolist()), self._multiplicities.tolist()))

    def __len__(self) -> int:
        return len(self._multiplicities)

    def __repr__(self) -> str:
        return f"Configuration(dimension={self.dimension}, members={len(self)})"


def _merge_slots(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, slot_of) for the rows of ``flat`` under the merge rule.

    ``head[i]`` is true when row i opens a slot, and ``slot_of[i]`` is the
    number of the slot that row i joins (or opens), slots numbered in order.
    """
    M, d = flat.shape
    # Irregular positive weights, so that distinct small-integer vectors get
    # distinct keys; summing to below 1, they keep every key of a finite
    # vector finite.  A row whose key is not finite matches no slot.
    weights = (2.0 + np.sin(1e3 * np.arange(1, d + 1))) / (4.0 * d)
    keys = flat @ weights
    windows = 4.0 * (MERGE_TOL * weights.sum() + d * _EPS * (np.abs(flat) @ weights))
    rows = np.flatnonzero(np.isfinite(keys))
    order = rows[np.argsort(keys[rows], kind="stable")]
    # an exact repeat of the row before it in key order repeats an earlier
    # row, and joins that row's slot whatever the slots in between
    repeat = np.zeros(len(order), dtype=bool)
    tie = np.flatnonzero(keys[order[1:]] == keys[order[:-1]]) + 1
    repeat[tie] = (flat[order[tie]] == flat[order[tie - 1]]).all(axis=1)
    first = order[~repeat]  # the first occurrences, in key order
    first_of = np.arange(M)
    first_of[order] = first[np.cumsum(~repeat) - 1]
    first_keys = keys[first]
    lo = np.searchsorted(first_keys, first_keys - windows[first], side="left")
    hi = np.searchsorted(first_keys, first_keys + windows[first], side="right")
    # joins[i] is the first row of the slot row i joins; only a first
    # occurrence whose window holds another one can join an earlier slot
    joins = np.arange(M)
    for pos in sorted(np.flatnonzero(hi - lo > 1), key=first.__getitem__):
        i = first[pos]
        for j in sorted(j for j in first[lo[pos] : hi[pos]] if j < i and joins[j] == j):
            if (np.abs(flat[j] - flat[i]) <= MERGE_TOL).all():
                joins[i] = j
                break
    joins = joins[first_of]
    head = joins == np.arange(M)
    slot_of = (np.cumsum(head) - 1)[joins]
    return head, slot_of


def configurations_match(
    a: Configuration,
    b: Configuration,
    coord_tol: float = 0.0,
    mult_tol: float = 0.0,
) -> bool:
    """True iff the two configurations have the same members, order-insensitively.

    Each member of ``a``, in order, takes the first unused member of ``b``
    with every coordinate within ``coord_tol`` and multiplicity within
    ``mult_tol``; it fails if there is none.  With the default zero
    tolerances this is exact equality.
    """
    if a.dimension != b.dimension or len(a) != len(b):
        return False
    unused = np.ones(len(b), dtype=bool)
    for vec, mult in zip(a.vectors, a.multiplicities):
        ok = unused & (np.abs(b.vectors - vec) <= coord_tol).all(axis=1)
        ok &= np.abs(b.multiplicities - mult) <= mult_tol
        if not ok.any():
            return False
        unused[ok.argmax()] = False
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
    n, r, s, q, m = p.n, p.r, p.s, p.q, p.m_array
    i, j = np.triu_indices(n, 1)
    plus = 2 * n + 2 * np.arange(len(i))  # the row of e_i + e_j; e_i - e_j follows it
    # written in place: building the pair rows from rows of np.eye(n) costs
    # twenty times as much at n = 80, in page faults on the temporaries
    vectors = np.zeros((2 * n + 2 * len(i), n))
    vectors[:n] = np.eye(n)
    vectors[n : 2 * n] = 2.0 * np.eye(n)
    vectors[plus, i] = vectors[plus + 1, i] = vectors[plus, j] = 1.0
    vectors[plus + 1, j] = -1.0
    mults = np.concatenate([r * m, s * m + 0.5 * q * m * (m - 1.0), np.repeat(q * m[i] * m[j], 2)])
    return Configuration(n, zip(vectors, mults))


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
    return Configuration(part.n, zip(coords[keep], ambient.multiplicities[keep]))
