import hashlib
import itertools

import numpy as np
import pytest

from trigwdvv import sampling
from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import PreconditionError, SamplingError
from trigwdvv.sampling import DEFAULT_BOX, covers_every_pair, fully_active, rng_for
from trigwdvv.susy import build_hat_configuration

from tests.oracles import (
    is_admissible,
    ks_statistic,
    rejection_sample_points,
    sample_points,
    sequential_admissible_points,
)


def bcn_pattern(n, m=None):
    m = (1.0,) * n if m is None else m
    return fully_active(build_bcn(BCnParameters(n=n, r=-(2.0 * n - 4.0), s=0.0, q=1.0, m=m)))


# the pattern of BC_3 without the member e_2 - e_3
E = np.eye(3)
MISSING_PAIR = fully_active(Configuration(
    3, [*E, *(2 * E), E[0] - E[1], E[0] - E[2], E[1] + E[2]], [1.0] * 9
))
# the pattern of the pair members of BC_3 with either sign
BOTH_SIGNS = fully_active(Configuration(
    3, [E[1] - E[0], E[0] - E[2], E[2] - E[1]], [1.0, 2.0, 0.5]
))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**70 + 5])
@pytest.mark.parametrize("label", ["verify-associativity/points", "verify-restriction/draws", "", "\u00fcnicode"])
def test_rng_for_is_the_seed_sequence_of_the_seed_and_the_label_digest(seed, label):
    # the seed and the digest's four big-endian 64-bit words, given as 32-bit words: the generator
    # that SeedSequence makes of the five ints themselves, zero words and seeds past 2^64 included
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *words])))
    got = rng_for(seed, label)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.standard_normal(4).tobytes() == want.standard_normal(4).tobytes()


def test_rng_for_refuses_a_negative_seed_as_seed_sequence_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        rng_for(-1, "points")


class TestCoversEveryPair:
    def test_bcn_families(self):
        for n in (2, 3, 12):
            assert covers_every_pair(bcn_pattern(n))

    def test_either_sign_counts(self):
        assert covers_every_pair(BOTH_SIGNS)

    def test_missing_pair(self):
        assert not covers_every_pair(MISSING_PAIR)

    def test_zero_multiplicity_pair_members_count(self):
        # q = 0 leaves e_i +- e_j in the configuration with multiplicity zero, and the
        # closed form's coth(x_i +- x_j) still needs their margin: the pattern reads no multiplicity
        family = build_bcn(BCnParameters(n=3, r=-2.0, s=0.0, q=0.0, m=(1.0,) * 3))
        assert covers_every_pair(fully_active(family))
        assert covers_every_pair(family.vectors[6:])  # the pair rows alone

    def test_rescaled_pair_members_do_not_count(self):
        # unequal m rescales e_i - e_j to m_i^{-1/2} e_i - m_j^{-1/2} e_j
        hat = build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0)))
        assert not covers_every_pair(fully_active(hat.config))

    def test_one_dimension_has_no_pairs(self):
        assert covers_every_pair(bcn_pattern(1))


@pytest.mark.parametrize(
    "config",
    [
        build_bcn(BCnParameters(n=3, r=-2.0, s=0.0, q=0.0, m=(1.0,) * 3)),
        build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))).config,
        # a chain of near-duplicates 1e-13 apart: each member is its own slot
        Configuration(2, [(1.0, 0.0), (1.0 + 1e-13, 0.0), (1.0 + 2e-13, 0.0)], [2.0, 0.0, -1.0]),
    ],
    ids=["bcn_zero_mults", "rescaled", "open_chain"],
)
def test_fully_active_matches_a_fresh_build(config):
    # the pattern is the configuration's own covectors, zero multiplicities included:
    # the rows that a build with every multiplicity one keeps, with no build
    got = fully_active(config)
    fresh = Configuration(config.dimension, config.vectors, np.ones(len(config)))
    assert got is config.vectors
    assert np.array_equal(got, fresh.vectors)
    assert not got.flags.writeable


def test_points_clear_zero_multiplicity_members():
    # BC_2 at r = s = 0 gives e_i and 2 e_i multiplicity 0, but the closed form's coth(x_i)
    # has its pole at x_i = 0 all the same; the box (-1, 1) straddles it (the default box
    # has every x_i > 0.3, which hides it)
    config = build_bcn(BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0)))
    theta = 0.05
    pts = sample_points(rng_for(0, "zero-e_i"), fully_active(config), 500, (-1.0, 1.0), theta)
    assert np.abs(pts).min() >= theta and (pts < 0.0).any()
    again = sample_points(rng_for(0, "zero-e_i"), config.vectors, 500, (-1.0, 1.0), theta)
    assert np.array_equal(pts, again)


# KS critical value at level 0.001 for two samples of KS_N points each
KS_N = 3000
KS_CRITICAL = 1.949 * np.sqrt(2.0 / KS_N)


def ks_statistics(a, b, threshold):
    """KS statistic of each sorted coordinate and of the minimum gap."""
    sa, sb = np.sort(a, axis=1), np.sort(b, axis=1)
    stats = [ks_statistic(sa[:, k], sb[:, k]) for k in range(sa.shape[1])]
    stats.append(ks_statistic(np.diff(sa, axis=1).min(axis=1), np.diff(sb, axis=1).min(axis=1)))
    assert np.diff(sa, axis=1).min() >= threshold and np.diff(sb, axis=1).min() >= threshold
    return stats


# the second box has lo < theta, so is_admissible rejects spaced candidates
# with a coordinate below theta (the members e_i)
KS_CASES = [((0.3, 1.5), 0.3), ((0.3, 4.0), 0.6)]


@pytest.mark.parametrize("box, threshold", KS_CASES, ids=["default-box", "lo-below-theta"])
def test_distribution_matches_rejection_reference(box, threshold):
    pattern = bcn_pattern(3)
    got = sample_points(rng_for(7, "ks/spacing"), pattern, KS_N, box, threshold)
    ref = rejection_sample_points(rng_for(7, "ks/reference"), pattern, KS_N, box, threshold)
    assert max(ks_statistics(got, ref, threshold)) < KS_CRITICAL


def test_ks_statistic_detects_unfiltered_spacing():
    # negative control: the spacing proposal without is_admissible keeps
    # points with a coordinate in [lo, theta), and the smallest coordinate
    # shows it
    (lo, hi), theta = KS_CASES[1]
    rng = rng_for(7, "ks/unfiltered")
    u = rng.uniform(lo, hi - 2 * theta, (KS_N, 3))
    unfiltered = u + theta * (u[:, :, None] > u[:, None, :]).sum(axis=2)
    ref = rejection_sample_points(rng_for(7, "ks/reference"), bcn_pattern(3), KS_N, (lo, hi), theta)
    assert ks_statistics(unfiltered, ref, theta)[0] > KS_CRITICAL


@pytest.mark.parametrize(
    "pattern",
    [
        MISSING_PAIR,
        fully_active(build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))).config),
        bcn_pattern(1),
    ],
    ids=["explicit-missing-pair", "hat-unequal-m", "n1"],
)
def test_box_proposal_draws_are_unchanged(pattern):
    got = sample_points(rng_for(3, "same"), pattern, 50)
    ref = rejection_sample_points(rng_for(3, "same"), pattern, 50)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_large_n_points_are_admissible(n):
    pattern = bcn_pattern(n)
    pts = sample_points(rng_for(n, "large"), pattern, 20)
    assert all(is_admissible(pattern, x) for x in pts)
    assert pts.min() >= 0.3 and pts.max() <= 1.5


def test_one_draw_per_point_for_bcn_in_the_default_box(monkeypatch):
    # in the default box every spaced candidate of a BC_n family is admissible: a request of 50
    # points draws one round of 50 candidates, forms their products pattern @ x in one margin
    # test, and returns the z it tested
    calls, tested = [], []
    margin = sampling._margin

    def counting(pattern, x, threshold, rows=None):
        calls.append((pattern, x.shape))
        z, ok = margin(pattern, x, threshold, rows)
        tested.append(z)
        return z, ok

    monkeypatch.setattr(sampling, "_margin", counting)
    pattern = bcn_pattern(12)
    x, z = sampling.admissible_points(rng_for(0, "count"), pattern, DEFAULT_BOX, 0.05)(50)
    assert len(calls) == 1 and calls[0][0] is pattern and calls[0][1] == (50, 12)
    assert z.tobytes() == tested[0].tobytes()
    assert all((pattern @ xi).tobytes() == zi.tobytes() for xi, zi in zip(x, z))


class _Scripted:
    """A generator stand-in whose candidates u are given, ties included, then ``rest`` forever;
    ``rows`` counts the candidates drawn."""

    def __init__(self, draws, rest):
        self.draws, self.rest, self.rows = list(draws), rest, 0

    def uniform(self, lo, hi, size):
        count, n = size
        out = [self.draws[k] if k < len(self.draws) else self.rest for k in range(self.rows, self.rows + count)]
        self.rows += count
        return np.array(out, dtype=float).reshape(count, n)


def test_spacing_rank_counts_the_entries_below_with_ties(monkeypatch):
    # the rank is (X[:, None, :] < X[:, :, None]).sum(-1): the count of entries strictly below u_i,
    # which tied entries share, as np.sort(u).searchsorted(u) gives; the first two candidates
    # have tied coordinates after the spacing and are refused
    draws = [[0.5, 0.4, 0.5, 0.4], [0.7, 0.7, 0.7, 0.7], [0.31, 0.9, 0.6, 0.32]]
    candidates = []
    margin = sampling._margin

    def recording(pattern, x, threshold, rows=None):
        candidates.extend(x.copy())
        return margin(pattern, x, threshold, rows)

    monkeypatch.setattr(sampling, "_margin", recording)
    (x,), _ = sampling.admissible_points(_Scripted(draws, [0.31, 0.9, 0.6, 0.32]), bcn_pattern(4), DEFAULT_BOX,
                                         0.05)(1)
    assert len(candidates) >= 3
    for u, got in zip(draws, candidates):
        u = np.array(u)
        assert np.sort(u).searchsorted(u).tolist() == (u[:, None] > u).sum(axis=1).tolist()
        assert got.tolist() == (u + 0.05 * np.sort(u).searchsorted(u)).tolist()
    assert x.tolist() == candidates[2].tolist()


# patterns and boxes with about one candidate a point (spaced), about two (box-uniform at unequal
# rescaling), and few (a lower corner below theta, and a wide box about the origin)
_STREAMS = {
    "spaced": (bcn_pattern(3), DEFAULT_BOX, 0.05),
    "hat-unequal-m": (fully_active(build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0)))
                                   .config), DEFAULT_BOX, 0.05),
    "lo-below-theta": (bcn_pattern(3), (0.3, 4.0), 0.6),
    "missing-pair-about-origin": (MISSING_PAIR, (-1.0, 1.0), 0.3),
}


@pytest.mark.parametrize("pattern, box, threshold", _STREAMS.values(), ids=_STREAMS)
def test_any_split_of_the_requests_gives_the_one_candidate_stream(pattern, box, threshold):
    # the points are the admissible candidates of the stream in order, however the requests split
    # them (accepted points beyond a request are kept for the next): bit for bit the one-candidate
    # reference, with each z = pattern @ x as its own matrix-vector product
    want = list(itertools.islice(sequential_admissible_points(rng_for(4, "split"), pattern, box, threshold), 10))
    for split in ([10], [1] * 10, [3, 7], [2, 5, 3]):
        take = sampling.admissible_points(rng_for(4, "split"), pattern, box, threshold)
        got = [row for k in split for row in zip(*take(k))]
        assert [(x.tobytes(), z.tobytes()) for x, z in got] == [(x.tobytes(), z.tobytes()) for x, z in want], split
        assert all((pattern @ x).tobytes() == z.tobytes() for x, z in got)


def test_a_point_out_of_attempts_raises_after_exactly_the_cap():
    # no point of (-0.01, 0.01) keeps x_1 at least 0.05 from zero: the request raises after exactly
    # MAX_ATTEMPTS_PER_POINT candidates, and a second one raises again with no draw
    rng, ref = rng_for(0, "empty"), rng_for(0, "empty")
    take = sampling.admissible_points(rng, bcn_pattern(1), (-0.01, 0.01), 0.05)
    for _ in range(2):
        with pytest.raises(SamplingError, match=r"^no admissible point in box \(-0.01, 0.01\) with threshold 0.05 "
                                                r"after 10000 attempts$"):
            take(3)
    ref.uniform(-0.01, 0.01, sampling.MAX_ATTEMPTS_PER_POINT)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("split", [[4], [1, 3], [1, 1]], ids=["4", "1+3", "1+1"])
def test_the_points_before_one_out_of_attempts_come_first(monkeypatch, split):
    # two admissible candidates, then none: the two points are returned first, fewer than asked where
    # a request reaches past them; the request for the third raises after exactly the cap's
    # candidates for it, counted across rounds, and a request after that raises with no draw
    monkeypatch.setattr(sampling, "MAX_ATTEMPTS_PER_POINT", 5)
    rng = _Scripted([[0.5, 1.0], [0.9, 0.4]], [0.01, 0.01])  # spaced by 0.05 times the rank
    take = sampling.admissible_points(rng, bcn_pattern(2), DEFAULT_BOX, 0.05)
    got = [x.tolist() for k in split for x in take(k)[0]]
    assert got == [[0.5, 1.05], [0.9500000000000001, 0.4]]
    for _ in range(2):
        with pytest.raises(SamplingError, match="after 5 attempts$"):
            take(1)
        assert rng.rows == 2 + 5


def test_box_too_narrow_raises_before_any_draw():
    rng = rng_for(0, "narrow")
    state = rng.bit_generator.state
    # 24 coordinates at pairwise distance >= 0.05 need a width above 1.15
    with pytest.raises(PreconditionError, match=r"\(n-1\)\*theta = 1.15"):
        sample_points(rng, bcn_pattern(24), 1, box=(0.3, 1.4))
    assert rng.bit_generator.state == state
    # the box-proposal path has no such width
    sample_points(rng, MISSING_PAIR, 1, box=(0.3, 0.9), threshold=0.3)


@pytest.mark.parametrize("box", [(0.3, np.inf), (-np.inf, 1.5), (np.nan, 1.5)], ids=["hi-inf", "lo-inf", "lo-nan"])
def test_non_finite_box_is_refused(box):
    with pytest.raises(PreconditionError, match=r"must be finite with lo < hi"):
        sampling.admissible_points(rng_for(0, "box"), bcn_pattern(2), box, 0.05)


def test_a_box_whose_width_overflows_a_float_is_refused_before_any_draw():
    from trigwdvv.cli import RunSpec

    # numpy's uniform refuses exactly a non-finite hi - lo, with an OverflowError
    with pytest.raises(OverflowError):
        np.random.default_rng(0).uniform(-1e308, 1e308)
    wide, narrower = (-1e308, 1e308), (-1e307, 1e307)
    with pytest.raises(PreconditionError, match=r"too wide: its width hi - lo overflows a float"):
        sampling.box_bounds(wide)
    with pytest.raises(PreconditionError, match="too wide"):
        RunSpec(command="verify-metric", config_source={}, box=wide)
    rng = rng_for(0, "wide")
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match="too wide"):
        sampling.admissible_points(rng, bcn_pattern(2), wide, 0.05)
    assert rng.bit_generator.state == state
    # a width just inside the float range is accepted, and the sampler draws from it
    assert sampling.box_bounds(narrower) == narrower
    assert RunSpec(command="verify-metric", config_source={}, box=narrower).box == narrower
    (x,), _ = sampling.admissible_points(rng, bcn_pattern(2), narrower, 0.05)(1)
    assert np.isfinite(x).all() and (np.abs(x) <= 1e307).all()
