import itertools

import numpy as np
import pytest

from trigwdvv import sampling
from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import PreconditionError
from trigwdvv.sampling import DEFAULT_BOX, covers_every_pair, fully_active, rng_for
from trigwdvv.susy import build_hat_configuration

from tests.oracles import is_admissible, ks_statistic, rejection_sample_points, sample_points


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
    # in the default box every spaced candidate of a BC_n family is admissible; each
    # candidate forms one product pattern @ x, and the point yields the z it tested
    calls, tested = [], []
    margin = sampling._margin

    def counting(pattern, x, threshold, rows=None):
        calls.append(pattern)
        z, ok = margin(pattern, x, threshold, rows)
        tested.append(z)
        return z, ok

    monkeypatch.setattr(sampling, "_margin", counting)
    pattern = bcn_pattern(12)
    points = list(itertools.islice(sampling.admissible_points(rng_for(0, "count"), pattern, DEFAULT_BOX, 0.05), 50))
    assert len(calls) == 50 and all(p is pattern for p in calls)
    assert all(z is want for (_, z), want in zip(points, tested))
    assert all(np.array_equal(z, pattern @ x) for x, z in points)


class _TiedUniform:
    """A generator stand-in whose candidates u are given, ties included."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, lo, hi, n):
        return np.array(next(self.draws), dtype=float)


def test_spacing_rank_counts_the_entries_below_with_ties(monkeypatch):
    # the rank is np.sort(u).searchsorted(u): the count of entries strictly below u_i,
    # which tied entries share, as the comparison count (u[:, None] > u).sum(axis=1) gives
    draws = [[0.5, 0.4, 0.5, 0.4], [0.7, 0.7, 0.7, 0.7], [0.31, 0.9, 0.6, 0.32]]
    candidates = []
    margin = sampling._margin

    def recording(pattern, x, threshold, rows=None):
        candidates.append(x.copy())
        return margin(pattern, x, threshold, rows)

    monkeypatch.setattr(sampling, "_margin", recording)
    x, _ = next(sampling.admissible_points(_TiedUniform(draws), bcn_pattern(4), DEFAULT_BOX, 0.05))
    for u, got in zip(draws, candidates, strict=True):
        u = np.array(u)
        assert np.sort(u).searchsorted(u).tolist() == (u[:, None] > u).sum(axis=1).tolist()
        assert got.tolist() == (u + 0.05 * (u[:, None] > u).sum(axis=1)).tolist()
    assert x.tolist() == candidates[-1].tolist()


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
    points = sampling.admissible_points(rng_for(0, "box"), bcn_pattern(2), box, 0.05)
    with pytest.raises(PreconditionError, match=r"must be finite with lo < hi"):
        next(points)


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
        next(sampling.admissible_points(rng, bcn_pattern(2), wide, 0.05))
    assert rng.bit_generator.state == state
    # a width just inside the float range is accepted, and the sampler draws from it
    assert sampling.box_bounds(narrower) == narrower
    assert RunSpec(command="verify-metric", config_source={}, box=narrower).box == narrower
    x, z = next(sampling.admissible_points(rng, bcn_pattern(2), narrower, 0.05))
    assert np.isfinite(x).all() and (np.abs(x) <= 1e307).all()
