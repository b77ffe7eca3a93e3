"""Seeded, splittable sampling of admissible evaluation points.

Every verification stream derives its generator from (seed, label) through a
SHA-256 digest of the label, so adding a stream never perturbs the samples of
another; checks that share a stream share its draws.  Points are drawn uniformly from a box and rejected against the
admissibility margin; the attempt cap keeps pathological boxes diagnosable
instead of looping forever.
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


def sample_admissible_points(
    rng: np.random.Generator,
    config: Configuration,
    count: int,
    box: tuple[float, float] = DEFAULT_BOX,
    threshold: float = DEFAULT_THRESHOLD,
) -> np.ndarray:
    """(count, dimension) array of box-uniform points admissible for ``config``.

    Each point gets at most MAX_ATTEMPTS_PER_POINT rejection draws.
    """
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise PreconditionError(f"box ({lo}, {hi}) must satisfy lo < hi")
    if count < 1:
        raise PreconditionError("count must be >= 1")
    n = config.dimension
    out = np.empty((count, n))
    for idx in range(count):
        for _ in range(MAX_ATTEMPTS_PER_POINT):
            x = rng.uniform(lo, hi, n)
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
    return Configuration(config.dimension, [(mem.vector, 1.0) for mem in config.members])
