import numpy as np
import pytest

from trigwdvv import sampling
from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import PreconditionError
from trigwdvv.prepotential import is_admissible
from trigwdvv.sampling import covers_every_pair, fully_active, rng_for, sample_admissible_points
from trigwdvv.susy import build_hat_configuration

from tests.oracles import ks_statistic, rejection_sample_points


def bcn_pattern(n, m=None):
    m = (1.0,) * n if m is None else m
    return fully_active(build_bcn(BCnParameters(n=n, r=-(2.0 * n - 4.0), s=0.0, q=1.0, m=m)))


# BC_3 without the member e_2 - e_3
E = np.eye(3)
MISSING_PAIR = Configuration(
    3, [(tuple(v), 1.0) for v in (*E, *(2 * E), E[0] - E[1], E[0] - E[2], E[1] + E[2])]
)
# the pair members of BC_3 with either sign
BOTH_SIGNS = Configuration(
    3, [(tuple(E[1] - E[0]), 1.0), (tuple(E[0] - E[2]), 2.0), (tuple(E[2] - E[1]), 0.5)]
)


class TestCoversEveryPair:
    def test_bcn_families(self):
        for n in (2, 3, 12):
            assert covers_every_pair(bcn_pattern(n))

    def test_either_sign_counts(self):
        assert covers_every_pair(BOTH_SIGNS)

    def test_missing_pair(self):
        assert not covers_every_pair(MISSING_PAIR)

    def test_inactive_pair_members_do_not_count(self):
        # q = 0 leaves e_i +- e_j in the configuration with multiplicity zero
        assert not covers_every_pair(build_bcn(BCnParameters(n=3, r=-2.0, s=0.0, q=0.0, m=(1.0,) * 3)))

    def test_rescaled_pair_members_do_not_count(self):
        # unequal m rescales e_i - e_j to m_i^{-1/2} e_i - m_j^{-1/2} e_j
        hat = build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0)))
        assert not covers_every_pair(fully_active(hat.config))

    def test_one_dimension_has_no_pairs(self):
        assert covers_every_pair(bcn_pattern(1))


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
    got = sample_admissible_points(rng_for(7, "ks/spacing"), pattern, KS_N, box, threshold)
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
    got = sample_admissible_points(rng_for(3, "same"), pattern, 50)
    ref = rejection_sample_points(rng_for(3, "same"), pattern, 50)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_large_n_points_are_admissible(n):
    pattern = bcn_pattern(n)
    pts = sample_admissible_points(rng_for(n, "large"), pattern, 20)
    assert all(is_admissible(pattern, x) for x in pts)
    assert pts.min() >= 0.3 and pts.max() <= 1.5


def test_one_draw_per_point_for_bcn_in_the_default_box(monkeypatch):
    # in the default box every spaced candidate of a BC_n family is admissible
    calls = []

    def counting(config, x, threshold):
        calls.append(1)
        return is_admissible(config, x, threshold)

    monkeypatch.setattr(sampling, "is_admissible", counting)
    sample_admissible_points(rng_for(0, "count"), bcn_pattern(12), 50)
    assert len(calls) == 50


def test_box_too_narrow_raises_before_any_draw():
    rng = rng_for(0, "narrow")
    state = rng.bit_generator.state
    # 24 coordinates at pairwise distance >= 0.05 need a width above 1.15
    with pytest.raises(PreconditionError, match=r"\(n-1\)\*theta = 1.15"):
        sample_admissible_points(rng, bcn_pattern(24), 1, box=(0.3, 1.4))
    assert rng.bit_generator.state == state
    # the box-proposal path has no such width
    sample_admissible_points(rng, MISSING_PAIR, 1, box=(0.3, 0.9), threshold=0.3)
