"""Seeded, splittable sampling of admissible evaluation points.

Every verification stream derives its generator from (seed, label) through a
SHA-256 digest of the label, so adding a stream never perturbs the samples of
another; checks that share a stream share its draws.

``admissible_points`` is the one candidate loop: an endless stream that
examines the box and the pattern once, and a verification run draws all of
its points from one stream.  Its docstring describes the distribution.  The
attempt cap keeps pathological boxes diagnosable instead of looping forever.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator

import numpy as np

from .configurations import Configuration
from .errors import PreconditionError, SamplingError
from .prepotential import is_admissible

DEFAULT_BOX = (0.3, 1.5)
MAX_ATTEMPTS_PER_POINT = 10_000


def rng_for(seed: int, label: str) -> np.random.Generator:
    """A PCG64 generator keyed by the run seed and a stable per-stream label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)] + words)))


def covers_every_pair(config: Configuration) -> bool:
    """True iff ``config`` has an active member +-(e_i - e_j) for every pair i < j."""
    n = config.dimension
    V = config.vectors[config.multiplicities != 0.0]
    # one entry 1, one entry -1 and zeros: the absolute values sum to 2
    pairs = V[(V.max(axis=1) == 1.0) & (V.min(axis=1) == -1.0) & (np.abs(V).sum(axis=1) == 2.0)]
    covered = np.zeros((n, n), dtype=bool)
    covered[pairs.argmax(axis=1), pairs.argmin(axis=1)] = True
    return int((covered | covered.T).sum()) == n * (n - 1)


def admissible_points(rng: np.random.Generator, config: Configuration, box, threshold) -> Iterator[np.ndarray]:
    """Endless stream of points uniform on the admissible part of the box.

    Every candidate is accepted or rejected by ``is_admissible``, and each
    point gets at most MAX_ATTEMPTS_PER_POINT candidates.  When
    ``covers_every_pair(config)`` and theta = ``threshold`` > 0, a candidate
    is u + theta * rank(u) for u uniform in [lo, hi - (n-1) theta]^n, where
    rank(u)_i counts the entries of u below u_i.  This map is a bijection with
    unit Jacobian onto S = {x in the box : |x_i - x_j| >= theta}, and S holds
    every admissible point, so the accepted points have the distribution that
    box-uniform rejection gives, at about one candidate each.  A box that is
    not finite with lo < hi, or with (n-1) theta >= hi - lo (S is empty),
    raises PreconditionError before any draw.  Otherwise candidates are
    box-uniform.  The errors are raised when the first point, or the point
    that exhausts its attempts, is requested.
    """
    lo, hi = float(box[0]), float(box[1])
    if not -math.inf < lo < hi < math.inf:
        raise PreconditionError(f"box ({lo}, {hi}) must be finite with lo < hi")
    n = config.dimension
    spaced = threshold > 0.0 and covers_every_pair(config)
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
                x += threshold * (x[:, None] > x).sum(axis=1)
            if is_admissible(config, x, threshold):
                yield x
                break
        else:
            raise SamplingError(
                f"no admissible point in box ({lo}, {hi}) with threshold {threshold} "
                f"after {MAX_ATTEMPTS_PER_POINT} attempts"
            )


def fully_active(config: Configuration) -> Configuration:
    """The same covectors with every multiplicity set to one.

    Sampling against this pattern keeps points clear of every family
    hyperplane even when some multiplicities vanish, so dual evaluation paths
    (which may require the full pattern) stay valid on the sample.
    """
    return config._with_multiplicities(np.ones(len(config)))
