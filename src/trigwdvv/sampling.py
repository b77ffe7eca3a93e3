"""Seeded, splittable sampling of admissible evaluation points.

Every verification stream derives its generator from (seed, label) through a
SHA-256 digest of the label, so adding a stream never perturbs the samples of
another; checks that share a stream share its draws.

``admissible_points`` is the one candidate loop and the one place a sampled
point's pairings are formed and margin-tested: a verification run draws all of
its points, with their pairings, from one stream that holds only candidates.
A request for k points draws, ranks and margin-tests its candidates as arrays,
and the points are the same whatever the requests' sizes.  The attempt cap
keeps pathological boxes diagnosable instead of looping forever.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Callable

import numpy as np

from .configurations import Configuration, _real
from .errors import PreconditionError, SamplingError
from .prepotential import _margin

DEFAULT_BOX = (0.3, 1.5)
MAX_ATTEMPTS_PER_POINT = 10_000
# the most floats of pairings z and rank comparisons one round of candidates holds
_ROUND_FLOATS = 2**16


def rng_for(seed: int, label: str) -> np.random.Generator:
    """A PCG64 generator keyed by the run seed and a stable per-stream label.

    Its seed sequence is SeedSequence([seed, w1, w2, w3, w4]), w the label's SHA-256 digest as four
    big-endian 64-bit words.  Each int is given as the 32-bit words SeedSequence would split it into,
    least significant first and zero as one word, which it reads without converting each int;
    a negative seed goes to SeedSequence as an int, to be refused there.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    ints = [int(seed), *struct.unpack(">4Q", digest)]
    if ints[0] < 0:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(ints)))
    words = []
    for value in ints:
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def covers_every_pair(pattern: np.ndarray) -> bool:
    """True iff ``pattern`` has a row +-(e_i - e_j) for every pair i < j."""
    n = pattern.shape[1]
    # one entry 1, one entry -1 and zeros: the absolute values sum to 2
    pairs = pattern[(pattern.max(axis=1) == 1.0) & (pattern.min(axis=1) == -1.0) & (np.abs(pattern).sum(axis=1) == 2.0)]
    covered = np.zeros((n, n), dtype=bool)
    covered[pairs.argmax(axis=1), pairs.argmin(axis=1)] = True
    return int((covered | covered.T).sum()) == n * (n - 1)


def box_bounds(box) -> tuple[float, float]:
    """The box (lo, hi) as floats by the package's rule for reals; PreconditionError unless
    -inf < lo < hi < inf and the width hi - lo is finite, as numpy's ``uniform`` needs."""
    error = f"box must be two numbers, got {box!r}"
    if not (isinstance(box, (tuple, list)) and len(box) == 2):
        raise PreconditionError(error)
    lo, hi = (_real(v, error, PreconditionError) for v in box)
    if not -math.inf < lo < hi < math.inf:
        raise PreconditionError(f"box ({lo}, {hi}) must be finite with lo < hi")
    if hi - lo == math.inf:
        raise PreconditionError(f"box ({lo}, {hi}) is too wide: its width hi - lo overflows a float")
    return lo, hi


def admissible_points(rng: np.random.Generator, pattern: np.ndarray, box,
                      threshold) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """The sampler ``take``: ``take(k)`` returns the next k points (x, z) of one stream, x of shape (k, n)
    uniform on the admissible part of the box and z = pattern @ x of shape (k, M), each z by ``_matvec``.

    A request draws its candidates in rounds, each one ``rng.uniform`` array (k', n), the numbers of k'
    draws of n in order; a round forms z for every candidate by one stacked matrix-vector product and
    tests them all by the margin rule, ``prepotential._margin``.  A round is sized to the shortfall
    times the candidates per point drawn so far, at most _ROUND_FLOATS floats of z and rank
    comparisons, and at most the attempts the point sought has left of MAX_ATTEMPTS_PER_POINT, which
    count across rounds and requests.  The points accepted beyond a request are kept for the next, so
    the points are the admissible candidates of the stream in order, however the requests split them.
    When the point sought has spent its attempts, ``take`` returns the points accepted before it, fewer
    than k, and raises SamplingError when it has none to return.

    When ``covers_every_pair(pattern)`` and theta = ``threshold`` > 0, a candidate is
    u + theta * rank(u), u uniform in [lo, hi - (n-1) theta]^n and rank(u)_i the count
    of entries below u_i: a bijection with unit Jacobian onto S = {x in the box :
    |x_i - x_j| >= theta}, which holds every admissible point, so the points have
    box-uniform rejection's distribution at about one candidate each.  Otherwise
    candidates are box-uniform.  A box that ``box_bounds`` refuses, or with (n-1) theta
    >= hi - lo (S is empty), raises PreconditionError here, before any draw.
    """
    lo, hi = box_bounds(box)
    M, n = pattern.shape
    spaced = threshold > 0.0 and covers_every_pair(pattern)
    width = (n - 1) * threshold if spaced else 0.0
    if width >= hi - lo:
        raise PreconditionError(
            f"box ({lo}, {hi}) is too narrow: {n} coordinates at pairwise distance >= {threshold} "
            f"need a box width above (n-1)*theta = {width:g}"
        )
    most = max(1, _ROUND_FLOATS // (M + n * n))
    spare = (np.empty((0, n)), np.empty((0, M)))  # accepted, not yet returned
    drawn = accepted = tries = 0  # tries: the candidates of the point sought since the last accepted

    def take(k: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal spare, drawn, accepted, tries
        xs, zs = spare
        while len(xs) < k and tries < MAX_ATTEMPTS_PER_POINT:
            per_point = -(-drawn // accepted) if accepted else (MAX_ATTEMPTS_PER_POINT if drawn else 1)
            count = min((k - len(xs)) * per_point, most, MAX_ATTEMPTS_PER_POINT - tries)
            x = rng.uniform(lo, hi - width, (count, n))
            if spaced:
                x += threshold * (x[:, None, :] < x[:, :, None]).sum(-1)  # rank: the count of entries below x_i
            z, ok = _margin(pattern, x, threshold)
            if ok.all():
                tries = 0
            else:
                hits = np.flatnonzero(ok)
                tries = tries + count if not len(hits) else count - 1 - int(hits[-1])
                x, z = x[hits], z[hits]
            drawn, accepted = drawn + count, accepted + len(x)
            xs, zs = (np.concatenate([xs, x]), np.concatenate([zs, z])) if len(xs) else (x, z)
        if not len(xs):
            raise SamplingError(
                f"no admissible point in box ({lo}, {hi}) with threshold {threshold} "
                f"after {MAX_ATTEMPTS_PER_POINT} attempts"
            )
        spare = xs[k:], zs[k:]
        return xs[:k], zs[:k]

    return take


def fully_active(config: Configuration) -> np.ndarray:
    """The sampling pattern of ``config``: its covectors, ``config.vectors`` itself.

    Members with zero multiplicity count too: the family's third derivatives
    have coth poles on every BC_n hyperplane (x_i = 0, x_i = +-x_j) whatever
    the multiplicities, and ``closed_form_arrows`` reads none of them.
    """
    return config.vectors
