"""Seeded, splittable sampling of admissible evaluation points.

Every verification stream derives its generator from (seed, label) through a
SHA-256 digest of the label, so adding a stream never perturbs the samples of
another; checks that share a stream share its draws.

``admissible_points`` is the one candidate loop and the one place a sampled
point's pairings are formed and margin-tested: a verification run draws all of
its points, with their pairings, from one stream.  The attempt cap keeps
pathological boxes diagnosable instead of looping forever.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator

import numpy as np

from .configurations import Configuration, _real
from .errors import PreconditionError, SamplingError
from .prepotential import _margin

DEFAULT_BOX = (0.3, 1.5)
MAX_ATTEMPTS_PER_POINT = 10_000


def rng_for(seed: int, label: str) -> np.random.Generator:
    """A PCG64 generator keyed by the run seed and a stable per-stream label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)] + words)))


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


def admissible_points(rng: np.random.Generator, pattern: np.ndarray, box, threshold) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless stream of (x, z): x uniform on the admissible part of the box, z = pattern @ x.

    A candidate's z is formed once and tested by the margin rule, ``prepotential._margin``, and
    an accepted x comes with it; a point gets at most MAX_ATTEMPTS_PER_POINT candidates.
    When ``covers_every_pair(pattern)`` and theta = ``threshold`` > 0, a candidate is
    u + theta * rank(u), u uniform in [lo, hi - (n-1) theta]^n and rank(u)_i the count
    of entries below u_i: a bijection with unit Jacobian onto S = {x in the box :
    |x_i - x_j| >= theta}, which holds every admissible point, so the points have
    box-uniform rejection's distribution at about one candidate each.  Otherwise
    candidates are box-uniform.  A box that ``box_bounds`` refuses, or with (n-1) theta
    >= hi - lo (S is empty), raises PreconditionError before any draw; the errors are
    raised when the first point, or the one that exhausts its attempts, is requested.
    """
    lo, hi = box_bounds(box)
    n = pattern.shape[1]
    spaced = threshold > 0.0 and covers_every_pair(pattern)
    width = (n - 1) * threshold if spaced else 0.0
    if width >= hi - lo:
        raise PreconditionError(
            f"box ({lo}, {hi}) is too narrow: {n} coordinates at pairwise distance >= {threshold} "
            f"need a box width above (n-1)*theta = {width:g}"
        )
    while True:
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi - width, n)
            if spaced:
                x += threshold * np.sort(x).searchsorted(x)  # rank: the count of entries below x_i
            z, ok = _margin(pattern, x, threshold)
            if ok:
                yield x, z
                break
        else:
            raise SamplingError(
                f"no admissible point in box ({lo}, {hi}) with threshold {threshold} "
                f"after {MAX_ATTEMPTS_PER_POINT} attempts"
            )


def fully_active(config: Configuration) -> np.ndarray:
    """The sampling pattern of ``config``: its covectors, ``config.vectors`` itself.

    Members with zero multiplicity count too: the family's third derivatives
    have coth poles on every BC_n hyperplane (x_i = 0, x_i = +-x_j) whatever
    the multiplicities, and ``tensor_closed_form`` reads none of them.
    """
    return config.vectors
