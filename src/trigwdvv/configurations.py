"""Weighted vector configurations of BC_n type and their block restrictions.

A configuration is a finite list of covectors with scalar multiplicities; every
prepotential, tensor and product in this package is a sum over one.  This module
builds the n-parameter BC_n family, the unreduced BC_N root system (all block
sizes equal to one), and the restriction that maps BC_N onto the subspace
where coordinates are constant on blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

class Configuration:
    """An immutable list of weighted covectors in a fixed dimension.

    ``members`` is an iterable of (vector, multiplicity) pairs; they are
    stored as the read-only arrays ``vectors`` (M, dimension) and
    ``multiplicities`` (M,), which are all the package reads.

    Members are merged on construction, with no tolerance: a member whose
    vector equals an earlier member's vector as floats, coordinate by
    coordinate (so 0.0 and -0.0 agree), joins the slot of the first such
    member and adds its multiplicity in input order.  First-occurrence order
    is kept, and members with zero multiplicity are retained so the member
    count of a family build is deterministic.  A slot whose vector is zero or
    not finite, or whose multiplicity is not finite, raises ParameterError.
    The merge is one dict pass over the rows' bytes: BC_20 / BC_40 / BC_80
    builds take 0.5 / 2.4 / 22 ms on a 2-vCPU Xeon with numpy 2.4.
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

    def _with_multiplicities(self, mults) -> Configuration:
        """The same vectors with the multiplicities ``mults``, one per member.  The merge
        depends on the vectors alone, so the slots stay as they are and are not merged again."""
        out = object.__new__(Configuration)
        out.dimension = self.dimension
        out._vectors = self._vectors
        out._multiplicities = np.array(mults, dtype=float)
        out._multiplicities.setflags(write=False)
        return out

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
    """An ordered partition of N coordinates into n consecutive blocks, each of integer size >= 1.

    N and the blocks must be integers; an integral float such as 5.0 is read as 5."""

    N: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        if not float(self.N).is_integer():
            raise ParameterError(f"N must be an integer, got {self.N}")
        if not all(float(b).is_integer() and b >= 1 for b in self.blocks):
            raise ParameterError(f"every block must be a positive integer, got {tuple(self.blocks)}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
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

    def block_coordinates(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """(coords, in_subsystem) with coords[:, k] = (alpha, f_k) for each row alpha of
        ``vectors``; in_subsystem marks the rows whose coords (integer sums here) are
        all exactly 0.0, the within-block differences that make up the block subsystem."""
        coords = np.asarray(vectors, dtype=float) @ self.block_indicators().T
        return coords, (coords == 0.0).all(axis=1)


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
        ambient = build_bcN_root_system(part.N, r, s, q)
    return _restriction(part, ambient)[0]


def _restriction(part: Partition, ambient: Configuration) -> tuple[Configuration, np.ndarray]:
    """(projected, in_subsystem): ``restrict_configuration``'s result and ``ambient``'s subsystem rows."""
    # coordinates after f_k/m_k -> e_k are (alpha, f_k)
    coords, in_subsystem = part.block_coordinates(ambient.vectors)
    return Configuration(part.n, zip(coords[~in_subsystem], ambient.multiplicities[~in_subsystem])), in_subsystem
