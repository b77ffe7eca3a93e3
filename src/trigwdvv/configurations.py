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
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, ParameterError

class Configuration:
    """An immutable list of weighted covectors in a fixed dimension.

    Member k is row k of ``vectors``, anything ``np.asarray`` reads as an
    (M, dimension) float array, with multiplicity ``multiplicities[k]``.  They
    are stored as the read-only arrays ``vectors`` and ``multiplicities``,
    which are all the package reads, and ``active_members`` selects the
    members of nonzero multiplicity from them once, on first access.

    Members are merged on construction, with no tolerance: a member whose
    vector equals an earlier member's vector as floats, coordinate by
    coordinate (so 0.0 and -0.0 agree), joins the slot of the first such
    member and adds its multiplicity in input order.  First-occurrence order
    is kept, and members with zero multiplicity are retained so the member
    count of a family build is deterministic.  A slot whose vector is zero or
    not finite, or whose multiplicity is not finite, raises ParameterError, as
    does a dimension that is not an integer (2.0 is read as 2, 2.5 is refused).
    The merge is one dict pass over the rows' bytes, and none when they are distinct.
    """

    def __init__(self, dimension: int, vectors, multiplicities) -> None:
        self.dimension = d = _integer(dimension, f"dimension must be an integer, got {dimension!r}")
        if d < 1:
            raise ParameterError("dimension must be >= 1")
        if not len(vectors):
            try:
                vectors = np.empty((0, d))
            except ValueError as exc:  # numpy cannot lay out a (0, d) array
                raise DimensionError(f"dimension {d} is too large for an array of members") from exc
        try:
            flat = np.asarray(vectors, dtype=float)
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
        merge = _merge_slots(flat)
        if merge is None:  # distinct rows, as every family build's: one copy each
            vectors, sums = flat.copy(), mults.copy()
        else:
            head, slot_of = merge
            vectors, sums = flat[head], mults[head]
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
                np.add.at(sums, slot_of[~head], mults[~head])
        # the whole arrays first; the row to name is searched for only when a test fails
        if not (np.isfinite(vectors).all() and np.isfinite(sums).all() and vectors.any(axis=1).all()):
            finite = np.isfinite(vectors).all(axis=1)
            k = int((~finite | ~np.isfinite(sums) | (vectors == 0.0).all(axis=1)).argmax())
            if not finite[k]:
                raise ParameterError(f"vector has non-finite entries: {tuple(vectors[k].tolist())}")
            if not math.isfinite(sums[k]):
                raise ParameterError("multiplicity must be finite")
            raise ParameterError("member vectors must be nonzero")
        self._vectors, self._multiplicities = _read_only(vectors, sums)

    @property
    def vectors(self) -> np.ndarray:
        """(len(self), dimension) array of member vectors (read-only)."""
        return self._vectors

    @property
    def multiplicities(self) -> np.ndarray:
        """(len(self),) array of multiplicities (read-only)."""
        return self._multiplicities

    @cached_property
    def active_rows(self) -> np.ndarray | None:
        """The rows of the members of nonzero multiplicity, in order, or None when that is every row."""
        keep = self._multiplicities != 0.0
        return None if keep.all() else np.flatnonzero(keep)

    @cached_property
    def active_members(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, c): the read-only vectors and multiplicities at ``active_rows`` (the arrays themselves when
        it is None), selected once per configuration: the package's one selection of active members."""
        rows = self.active_rows
        if rows is None:
            return self._vectors, self._multiplicities
        return _read_only(self._vectors[rows], self._multiplicities[rows])

    @property
    def members(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        """The (vector, multiplicity) pairs as tuples, built from the arrays on every
        access; the package itself reads only ``vectors`` and ``multiplicities``."""
        return tuple(zip(map(tuple, self._vectors.tolist()), self._multiplicities.tolist()))

    def __len__(self) -> int:
        return len(self._multiplicities)

    def __repr__(self) -> str:
        return f"Configuration(dimension={self.dimension}, members={len(self)})"


def _merge_slots(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(head, slot_of): whether row i of ``flat`` opens a slot, and the slot it
    joins, numbered in order, or None when every row opens its own.  ``+ 0.0``
    folds -0.0 into 0.0, so finite rows are equal as floats when their bytes
    are; a non-finite row is refused anyway.  No rows need no view, whose item
    size a huge dimension would overflow."""
    if not len(flat):
        return None
    rows = np.ascontiguousarray(flat + 0.0).view(f"V{flat.itemsize * flat.shape[1]}").ravel().tolist()
    if len(set(rows)) == len(rows):  # distinct rows, as a family build's
        return None
    first: dict[bytes, int] = {}
    joins = np.array([first.setdefault(row, i) for i, row in enumerate(rows)], dtype=np.intp)
    head = joins == np.arange(len(joins))
    return head, (np.cumsum(head) - 1)[joins]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index arrays of the pairs i < j of range(n), read-only."""
    return _read_only(*np.triu_indices(n, 1))


@lru_cache(maxsize=64)
def _off_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index arrays of the pairs i != j of range(n) in row-major order,
    ``np.nonzero(~np.eye(n, dtype=bool))``, read-only."""
    return _read_only(*np.nonzero(~np.eye(n, dtype=bool)))


def _integer(value, error: str, error_type: type[Exception] = ParameterError) -> int:
    """``value`` as an int if it is an integral real a float holds (2.0 reads as 2); else ``error_type(error)``."""
    if _real(value, error, error_type).is_integer():
        return int(value)
    raise error_type(error)


def _real(value, error: str, error_type: type[Exception] = ParameterError) -> float:
    """``value`` as a float if it is a real, not a bool, that a float holds; a str too raises ``error_type(error)``."""
    if type(value) is float:  # the common cases, a float and then an int (not a bool), skip the abstract-class test
        return value
    if type(value) is int or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error_type(error)


@dataclass(frozen=True)
class BCnParameters:
    """Parameters (n, r, s, q, m_1..m_n) of the BC_n family; N = sum(m) is cached, and so are arrays of the
    parameters alone, read-only and per instance, outside the fields that equality and hashing read."""

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
        r, s, q, *m = (_real(v, f"parameters must be real numbers, got {v!r}") for v in (self.r, self.s, self.q, *self.m))
        if not all(math.isfinite(v) for v in (r, s, q, *m)):
            raise ParameterError("parameters must be finite")
        for name, value in zip(("r", "s", "q", "m", "N"), (r, s, q, tuple(m), float(sum(m)))):
            object.__setattr__(self, name, value)

    @cached_property
    def m_array(self) -> np.ndarray:
        return _read_only(np.asarray(self.m, dtype=float))[0]

    @cached_property
    def closed_form_weights(self) -> tuple[np.ndarray, ...]:
        """(r m, 4(2s m + q m(m - 1)), q m, q m m^T): the point-independent factors of ``closed_form_arrows``,
        its diagonal's three weights and its off-diagonal q m_i m_k."""
        r, s, q, m = self.r, self.s, self.q, self.m_array
        return _read_only(r * m, 4.0 * (2.0 * s * m + q * m * (m - 1.0)), q * m, q * np.outer(m, m))


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
        if min(self.blocks, default=0) < 1:
            raise ParameterError(error if self.blocks else f"a partition of N = {self.N} needs at least one block")
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
    i, j = _upper_pairs(n)
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
    members = _bcn_members(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N))
    return _restriction(part.block_indicators(), *members)[0]


def _restriction(F: np.ndarray, vectors: np.ndarray, multiplicities: np.ndarray) -> tuple[Configuration, np.ndarray]:
    """(projected, in_subsystem) from an ambient's member arrays and an (n, N) basis ``F``, rows f_k:
    the subsystem is the rows whose (alpha, f_k) are all exactly 0.0 (integer sums for a 0/±1 basis),
    and every other member is projected to R^n, n = len(F), with coordinates (alpha, f_k)."""
    coords = vectors @ F.T
    in_subsystem = (coords == 0.0).all(axis=1)
    return Configuration(len(F), coords[~in_subsystem], multiplicities[~in_subsystem]), in_subsystem
