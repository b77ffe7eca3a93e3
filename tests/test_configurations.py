import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigwdvv.configurations import (
    MERGE_TOL,
    BCnParameters,
    Configuration,
    Partition,
    build_bcn,
    build_bcN_root_system,
    configurations_match,
    constraint_residual,
    project_vector,
    restrict_configuration,
    solve_r,
)
from trigwdvv.errors import DimensionError, ParameterError

from tests.oracles import bcn_members, merge_pairwise


def members_as_dict(config):
    return dict(config.members)


class TestTypes:
    def test_configuration_rejects_zero_vector(self):
        with pytest.raises(ParameterError, match="nonzero"):
            Configuration(2, [((1.0, 0.0), 1.0), ((0.0, 0.0), 1.0)])

    def test_configuration_rejects_nonfinite_entry(self):
        with pytest.raises(ParameterError, match="non-finite entries"):
            Configuration(2, [((1.0, 0.0), 1.0), ((math.inf, 0.0), 1.0)])

    def test_configuration_rejects_nonfinite_multiplicity(self):
        with pytest.raises(ParameterError, match="multiplicity"):
            Configuration(2, [((1.0, 0.0), 1.0), ((0.0, 1.0), math.nan)])

    def test_configuration_rejects_ragged_member(self):
        with pytest.raises(DimensionError):
            Configuration(2, [((1.0, 0.0), 1.0), ((1.0,), 1.0)])

    def test_configuration_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Configuration(2, [((1.0, 0.0, 0.0), 1.0)])

    def test_configuration_merges_duplicates(self):
        c = Configuration(2, [((1.0, 0.0), 2.0), ((1.0, 0.0), 3.0), ((0.0, 1.0), 1.0)])
        assert len(c) == 2
        assert members_as_dict(c)[(1.0, 0.0)] == 5.0

    def test_configuration_retains_zero_multiplicity(self):
        c = Configuration(1, [((1.0,), 0.0)])
        assert len(c) == 1

    def test_configuration_arrays_are_frozen(self):
        c = Configuration(2, [((1.0, 0.0), 2.0)])
        with pytest.raises(ValueError):
            c.vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            c.multiplicities[0] = 9.0

    def test_parameters_require_matching_m_length(self):
        with pytest.raises(ParameterError):
            BCnParameters(n=2, r=0.0, s=0.0, q=0.0, m=(1.0,))

    def test_parameters_cache_N(self):
        p = BCnParameters(n=3, r=0.0, s=0.0, q=0.0, m=(0.5, 1.5, 2.0))
        assert p.N == 4.0

    def test_partition_validates_blocks(self):
        with pytest.raises(ParameterError):
            Partition(N=4, blocks=(2, 3))
        with pytest.raises(ParameterError):
            Partition(N=1, blocks=(0, 1))


class TestConstraintResidual:
    def test_b2_point(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))
        assert constraint_residual(p) == 0.0

    def test_m23_point(self):
        p = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
        assert constraint_residual(p) == 0.0

    def test_all_zero(self):
        p = BCnParameters(n=1, r=0.0, s=0.0, q=0.0, m=(1.0,))
        assert constraint_residual(p) == 0.0

    @given(
        s=st.floats(-3, 3, allow_nan=False),
        q=st.floats(-3, 3, allow_nan=False),
        m=st.lists(st.floats(0.5, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_solve_r_closes_the_relation(self, s, q, m):
        p = BCnParameters(n=len(m), r=solve_r(s, q, m), s=s, q=q, m=tuple(m))
        assert abs(constraint_residual(p)) <= 1e-12 * max(1.0, 8 * abs(s) + 2 * abs(q) * p.N)


class TestBuildBcn:
    def test_n1_members(self):
        p = BCnParameters(n=1, r=2.0, s=3.0, q=5.0, m=(1.0,))
        c = build_bcn(p)
        assert members_as_dict(c) == {(1.0,): 2.0, (2.0,): 3.0}

    def test_b2_zero_weight_point(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))
        c = build_bcn(p)
        got = members_as_dict(c)
        assert got == {
            (1.0, 0.0): 0.0,
            (0.0, 1.0): 0.0,
            (2.0, 0.0): 0.0,
            (0.0, 2.0): 0.0,
            (1.0, 1.0): 1.0,
            (1.0, -1.0): 1.0,
        }

    def test_doubled_covector_multiplicity(self):
        # 2e_1 carries s*m_1 + q*m_1*(m_1-1)/2 = 2 + 1 = 3
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(2.0, 1.0))
        c = build_bcn(p)
        assert members_as_dict(c)[(2.0, 0.0)] == 3.0

    def test_member_count_is_deterministic(self):
        for n in (1, 2, 3, 4):
            p = BCnParameters(n=n, r=0.0, s=0.0, q=0.0, m=(1.0,) * n)
            assert len(build_bcn(p)) == 2 * n + n * (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "r, s, q, m",
        [
            (1.5, -0.5, 2.0, (1.0,) * 6),
            (0.0, 0.0, 1.0, (1.0,) * 6),  # e_i and 2e_i with zero multiplicity
            (-20.0, 1.0, 0.0, (2.0, 3.0, 0.5, 1.25, 4.0, 0.75)),  # every pair at zero
            (0.3, -1.1, 0.7, (2.5, 0.5, 1.0 / 3.0, 3.0, 1.7, 0.9)),
        ],
    )
    def test_matches_member_list_oracle(self, n, r, s, q, m):
        p = BCnParameters(n=n, r=r, s=s, q=q, m=m[:n])
        assert slots_of(build_bcn(p)) == merge_pairwise(bcn_members(p))

    def test_all_ones_reduces_to_root_system(self):
        p = BCnParameters(n=3, r=1.5, s=-0.5, q=2.0, m=(1.0, 1.0, 1.0))
        assert configurations_match(build_bcn(p), build_bcN_root_system(3, 1.5, -0.5, 2.0))


class TestBuildBcNRootSystem:
    def test_N1(self):
        c = build_bcN_root_system(1, 4.0, -1.0, 9.0)
        assert members_as_dict(c) == {(1.0,): 4.0, (2.0,): -1.0}

    def test_N2_pairs(self):
        c = build_bcN_root_system(2, 0.0, 0.0, 1.0)
        got = members_as_dict(c)
        assert got[(1.0, 1.0)] == 1.0
        assert got[(1.0, -1.0)] == 1.0

    def test_bN_short_root_condition(self):
        # with q=1, s=0 the relation closes at r = -2(N-2)
        p = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
        assert constraint_residual(p) == 0.0


class TestProjectVector:
    def test_basis_vector(self):
        part = Partition(N=3, blocks=(2, 1))
        assert np.allclose(project_vector([1.0, 0.0, 0.0], part), [0.5, 0.0])

    def test_block_vector_is_fixed(self):
        part = Partition(N=3, blocks=(2, 1))
        assert np.allclose(project_vector([1.0, 1.0, 0.0], part), [1.0, 0.0])

    def test_subsystem_vector_annihilated(self):
        part = Partition(N=3, blocks=(2, 1))
        assert np.allclose(project_vector([1.0, -1.0, 0.0], part), [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project_vector([1.0, 0.0], Partition(N=3, blocks=(2, 1)))

    def test_idempotent_on_block_subspace(self):
        part = Partition(N=5, blocks=(2, 3))
        F = part.block_indicators()
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = rng.standard_normal(2)
            u = F.T @ coeffs
            assert np.allclose(project_vector(u, part), coeffs, atol=1e-14)


class TestRestrictConfiguration:
    def test_full_merge_single_block(self):
        r, s, q = 1.3, -0.4, 0.8
        c = restrict_configuration(2, r, s, q, Partition(N=2, blocks=(2,)))
        got = members_as_dict(c)
        # e_1, e_2 both project onto the block vector: multiplicity 2r = r*m_1
        assert math.isclose(got[(1.0,)], 2 * r)

    def test_trivial_partition_is_identity(self):
        part = Partition(N=2, blocks=(1, 1))
        c = restrict_configuration(2, 1.0, 2.0, 3.0, part)
        assert configurations_match(c, build_bcN_root_system(2, 1.0, 2.0, 3.0))

    def test_projected_pair_multiplicity(self):
        c = restrict_configuration(3, 0.0, 0.0, 1.0, Partition(N=3, blocks=(2, 1)))
        got = members_as_dict(c)
        assert got[(1.0, 1.0)] == 2.0
        assert got[(1.0, -1.0)] == 2.0

    def test_mismatched_N_raises(self):
        with pytest.raises(DimensionError):
            restrict_configuration(4, 0.0, 0.0, 1.0, Partition(N=3, blocks=(2, 1)))

    @pytest.mark.parametrize(
        "blocks",
        [(2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 3), (1, 2, 2), (3, 1, 1)],
    )
    def test_family_closed_under_restriction(self, blocks):
        r, s, q = -0.7, 0.9, 1.1
        N = sum(blocks)
        part = Partition(N=N, blocks=blocks)
        projected = restrict_configuration(N, r, s, q, part)
        rebuilt = build_bcn(
            BCnParameters(n=len(blocks), r=r, s=s, q=q, m=tuple(float(b) for b in blocks))
        )
        assert configurations_match(projected, rebuilt, coord_tol=1e-12, mult_tol=1e-12)

    def test_restriction_preserves_member_order(self):
        part = Partition(N=5, blocks=(2, 3))
        projected = restrict_configuration(5, -20.0, 1.0, 2.0, part)
        rebuilt = build_bcn(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0)))
        assert [vec for vec, _ in projected.members] == [vec for vec, _ in rebuilt.members]
        assert projected.multiplicities.tolist() == rebuilt.multiplicities.tolist()


@given(
    mults=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    slots=st.lists(st.integers(0, 2), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_merging_conserves_total_multiplicity(mults, slots):
    vectors = [(1.0, 0.0), (0.0, 1.0), (1.0, -1.0)]
    k = min(len(mults), len(slots))
    members = [(vectors[slots[i]], mults[i]) for i in range(k)]
    c = Configuration(2, members)
    assert math.isclose(
        c.multiplicities.sum(), math.fsum(mults[:k]), rel_tol=0.0, abs_tol=1e-12
    )


def slots_of(config):
    return list(config.members)


class TestMergeRule:
    def test_member_just_inside_tolerance_merges(self):
        c = Configuration(2, [((1.0, 0.0), 2.0), ((1.0 + 0.99 * MERGE_TOL, 0.0), 3.0)])
        assert slots_of(c) == [((1.0, 0.0), 5.0)]

    def test_member_just_outside_tolerance_stays(self):
        c = Configuration(2, [((1.0, 0.0), 2.0), ((1.0, 1.01 * MERGE_TOL), 3.0)])
        assert slots_of(c) == [((1.0, 0.0), 2.0), ((1.0, 1.01 * MERGE_TOL), 3.0)]

    def test_merge_is_not_transitive(self):
        # b lies within the tolerance of a and of c, but c does not lie within
        # it of a: c is compared with a (the slot's first vector) and stays
        a = (1.0, 0.0)
        b = (1.0 + 0.9 * MERGE_TOL, 0.0)
        c = (1.0 + 1.8 * MERGE_TOL, 0.0)
        config = Configuration(2, [(a, 1.0), (b, 2.0), (c, 4.0)])
        assert slots_of(config) == [(a, 3.0), (c, 4.0)]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_earliest_matching_slot_wins(self, sign):
        # `between` matches both slots; the first-created one wins, whichever
        # side of it the later slot lies on
        a = (1.0, 0.0)
        b = (1.0 + sign * 1.5 * MERGE_TOL, 0.0)
        between = (1.0 + sign * 0.75 * MERGE_TOL, 0.0)
        config = Configuration(2, [(a, 1.0), (b, 2.0), (between, 4.0)])
        assert slots_of(config) == [(a, 5.0), (b, 2.0)]

    def test_slot_keeps_its_first_multiplicity_bits(self):
        # a slot's sum starts from its first member's multiplicity, so a
        # signed zero stays signed: -0.0 + -0.0 is -0.0, 0.0 + -0.0 is not
        c = Configuration(1, [((1.0,), -0.0), ((2.0,), 1.0), ((1.0,), -0.0)])
        assert [math.copysign(1.0, v) for v in c.multiplicities] == [-1.0, 1.0]


_BASES = [(1.0, 0.0, 0.0), (0.0, 1.0, -1.0), (1.0, 1.0, 0.0), (2.0, 0.0, 1.0), (1e6, -3.0, 0.5)]
_OFFSETS = [0.0, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0]


@given(
    picks=st.lists(
        st.tuples(
            st.integers(0, len(_BASES) - 1),
            st.lists(st.sampled_from(_OFFSETS), min_size=3, max_size=3),
            st.sampled_from([0.0, 1.0, -2.5, 0.125]),
        ),
        min_size=1,
        max_size=16,
    ),
    repeats=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 31), st.sampled_from([0.0, 1.0, -2.5, 0.125])),
        max_size=8,
    ),
)
@settings(max_examples=300, deadline=None)
def test_merge_matches_pairwise_oracle(picks, repeats):
    members = [
        (tuple(b + o * MERGE_TOL for b, o in zip(_BASES[i], offsets)), mult)
        for i, offsets, mult in picks
    ]
    # exact repeats of earlier vectors, inserted anywhere
    for source, position, mult in repeats:
        members.insert(position % (len(members) + 1), (members[source % len(members)][0], mult))
    assert slots_of(Configuration(3, members)) == merge_pairwise(members)


@pytest.mark.parametrize("blocks", [(1,), (3,), (2, 3), (1, 2, 2), (5, 5, 5, 5)])
def test_restriction_merge_matches_pairwise_oracle(blocks):
    # the projected images of BC_N coincide in many places, so the merge
    # inside restrict_configuration does real work here
    part = Partition(N=sum(blocks), blocks=blocks)
    ambient = build_bcN_root_system(part.N, 0.5, -1.0, 2.0)
    F = part.block_indicators()
    images = [(tuple(F @ np.array(vec)), mult) for vec, mult in ambient.members]
    images = [(vec, mult) for vec, mult in images if max(map(abs, vec)) > MERGE_TOL]
    projected = restrict_configuration(part.N, 0.5, -1.0, 2.0, part)
    assert slots_of(projected) == merge_pairwise(images)
