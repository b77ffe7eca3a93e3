"""Seeded, splittable sampling of admissible evaluation points.

Every verification stream derives its generator from (seed, label) through a
SHA-256 digest of the label, so adding a stream never perturbs the samples of
another; checks that share a stream share its draws.

Points are uniform on the admissible part of a box: ``is_admissible``
accepts or rejects every candidate.  When the configuration has an active
member +-(e_i - e_j) for every pair i < j, every admissible point lies in
S = {x in the box : |x_i - x_j| >= theta for all i < j}.  Candidates are then
drawn uniformly on S through the spacing transform, a bijection with unit
Jacobian (see ``sample_admissible_points``), so the accepted points have the
distribution of box-uniform rejection at about one candidate each; a box too
narrow for S to have volume, (n-1) theta >= hi - lo, raises PreconditionError
before any draw.  Other configurations get box-uniform candidates.  The
attempt cap keeps pathological boxes diagnosable instead of looping forever.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .configurations import Configuration
from .errors import PreconditionError, SamplingError
from .prepotential import DEFAULT_THRESHOLD, is_admissible

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


def sample_admissible_points(
    rng: np.random.Generator,
    config: Configuration,
    count: int,
    box: tuple[float, float] = DEFAULT_BOX,
    threshold: float = DEFAULT_THRESHOLD,
) -> np.ndarray:
    """(count, dimension) array of points uniform on the admissible part of the box.

    Every candidate is accepted or rejected by ``is_admissible``, and each
    point gets at most MAX_ATTEMPTS_PER_POINT candidates.  When
    ``covers_every_pair(config)`` and theta = ``threshold`` > 0, a candidate
    is u + theta * rank(u) for u uniform in [lo, hi - (n-1) theta]^n, where
    rank(u)_i counts the entries of u below u_i.  This map is a bijection with
    unit Jacobian onto S = {x in the box : |x_i - x_j| >= theta}, and S holds
    every admissible point, so the accepted points have the distribution that
    box-uniform rejection gives.  If (n-1) theta >= hi - lo, S is empty and
    PreconditionError is raised before any draw.  Otherwise candidates are
    box-uniform.
    """
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise PreconditionError(f"box ({lo}, {hi}) must satisfy lo < hi")
    if count < 1:
        raise PreconditionError("count must be >= 1")
    n = config.dimension
    spaced = threshold > 0.0 and covers_every_pair(config)
    width = (n - 1) * threshold if spaced else 0.0
    if width >= hi - lo:
        raise PreconditionError(
            f"box ({lo}, {hi}) is too narrow: {n} coordinates at pairwise distance >= {threshold} "
            f"need a box width above (n-1)*theta = {width:g}"
        )
    out = np.empty((count, n))
    for idx in range(count):
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi - width, n)
            if spaced:
                x += threshold * (x[:, None] > x).sum(axis=1)
            if is_admissible(config, x, threshold):
                out[idx] = x
                break
        else:
            raise SamplingError(
                f"no admissible point in box ({lo}, {hi}) with threshold {threshold} "
                f"after {MAX_ATTEMPTS_PER_POINT} attempts"
            )
    return out


def fully_active(config: Configuration) -> Configuration:
    """The same covectors with every multiplicity set to one.

    Sampling against this pattern keeps points clear of every family
    hyperplane even when some multiplicities vanish, so dual evaluation paths
    (which may require the full pattern) stay valid on the sample.
    """
    return Configuration(config.dimension, zip(config.vectors, np.ones(len(config))))
