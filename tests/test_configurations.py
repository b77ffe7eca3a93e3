import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigwdvv.algebra import RestrictionContext
from trigwdvv.configurations import (
    BCnParameters,
    Configuration,
    Partition,
    _bcn_members,
    _merge_slots,
    _real,
    build_bcn,
    restrict_configuration,
    solve_r,
)
from trigwdvv.errors import DimensionError, ParameterError

from tests.oracles import bcn_members, merge_pairwise


def members_as_dict(config):
    return dict(config.members)


def assert_same_members(a, b, atol=0.0):
    """The members of ``a`` and ``b`` agree in place, within ``atol``."""
    np.testing.assert_allclose(a.vectors, b.vectors, rtol=0, atol=atol)
    np.testing.assert_allclose(a.multiplicities, b.multiplicities, rtol=0, atol=atol)


class TestTypes:
    def test_configuration_rejects_zero_vector(self):
        with pytest.raises(ParameterError, match="nonzero"):
            Configuration(2, [(1.0, 0.0), (0.0, 0.0)], [1.0, 1.0])

    def test_configuration_rejects_nonfinite_entry(self):
        with pytest.raises(ParameterError, match="non-finite entries"):
            Configuration(2, [(1.0, 0.0), (math.inf, 0.0)], [1.0, 1.0])

    def test_configuration_rejects_nonfinite_multiplicity(self):
        with pytest.raises(ParameterError, match="multiplicity"):
            Configuration(2, [(1.0, 0.0), (0.0, 1.0)], [1.0, math.nan])

    def test_configuration_rejects_ragged_member(self):
        with pytest.raises(DimensionError):
            Configuration(2, [(1.0, 0.0), (1.0,)], [1.0, 1.0])

    def test_configuration_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Configuration(2, [(1.0, 0.0, 0.0)], [1.0])

    @pytest.mark.parametrize("dimension", [2.5, 1.5, math.nan, math.inf])
    def test_configuration_requires_an_integer_dimension(self, dimension):
        # a fractional dimension is refused, not truncated to an integer
        with pytest.raises(ParameterError, match="dimension must be an integer"):
            Configuration(dimension, [(1.0, 0.0)], [1.0])

    @pytest.mark.parametrize(
        "vectors, mults, text",
        [
            ([(0.0, 0.0), (math.inf, 0.0)], [1.0, 1.0], "member vectors must be nonzero"),
            ([(1.0, 0.0), (math.inf, 0.0)], [math.nan, 1.0], "multiplicity must be finite"),
            ([(1.0, 0.0), (0.0, 1.0), (0.0, -0.0)], [1.0, 1.0, 1.0], "member vectors must be nonzero"),
            ([(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], [math.inf, -math.inf, 1.0], "multiplicity must be finite"),
            ([(1.0, 0.0), (1.0, -0.0), (math.nan, 1.0), (math.nan, 1.0)], [1.0, 2.0, 1.0, 1.0],
             "vector has non-finite entries: (nan, 1.0)"),
            ([(2.0, 1.0), (0.0, 0.0), (2.0, 1.0)], [1e308, 1.0, 1e308], "multiplicity must be finite"),
        ],
        ids=["distinct-zero-first", "distinct-multiplicity-first", "distinct-signed-zero", "merged-inf-minus-inf",
             "merged-nan-rows", "merged-sum-overflows"],
    )
    def test_the_first_refused_slot_is_named_whether_or_not_members_merge(self, vectors, mults, text):
        # the whole arrays are tested first, and only a failing test searches for the slot to name: the
        # first refused slot, in slot order, by its first fault of vector, multiplicity and zero vector
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            Configuration(2, vectors, mults)

    def test_configuration_merges_duplicates(self):
        c = Configuration(2, [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [2.0, 3.0, 1.0])
        assert len(c) == 2
        assert members_as_dict(c)[(1.0, 0.0)] == 5.0

    def test_configuration_retains_zero_multiplicity(self):
        c = Configuration(1, [(1.0,)], [0.0])
        assert len(c) == 1

    def test_configuration_arrays_are_frozen(self):
        c = Configuration(2, [(1.0, 0.0)], [2.0])
        with pytest.raises(ValueError):
            c.vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            c.multiplicities[0] = 9.0

    def test_configuration_reads_an_array_and_nested_lists_alike(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        from_array = Configuration(2, vectors, np.array([1.0, 2.0, 0.5]))
        from_lists = Configuration(2, vectors.tolist(), [1.0, 2.0, 0.5])
        assert np.array_equal(from_array.vectors, from_lists.vectors)
        assert np.array_equal(from_array.multiplicities, from_lists.multiplicities)
        assert from_array.vectors.dtype == from_lists.vectors.dtype == np.float64

    def test_configuration_does_not_alias_its_inputs(self):
        vectors, mults = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0])
        c = Configuration(2, vectors, mults)
        vectors[0, 0], mults[0] = 9.0, 9.0
        assert c.vectors[0, 0] == 1.0 and c.multiplicities[0] == 1.0

    def test_configuration_with_no_members(self):
        c = Configuration(2, [], [])
        assert c.vectors.shape == (0, 2) and c.multiplicities.shape == (0,)
        assert len(c) == 0

    def test_configuration_with_no_members_in_a_huge_dimension(self):
        # no rows need no row view, whose item size would not fit numpy's dtype
        c = Configuration(2**40, [], [])
        assert c.vectors.shape == (0, 2**40) and len(c) == 0

    @pytest.mark.parametrize("dimension", [2**60, 2**62, 2**64, 10**30])
    def test_configuration_names_a_dimension_numpy_cannot_lay_out(self, dimension):
        with pytest.raises(DimensionError, match=f"^dimension {dimension} is too large for an array of members$"):
            Configuration(dimension, [], [])

    @pytest.mark.parametrize(
        "vectors, member",
        [
            ([1.0, 0.0], r"member \(1\.0,\) has dimension 1"),
            (np.array([1.0, 0.0]), r"member \(1\.0,\) has dimension 1"),
            ([(1.0, 0.0), (1.0, 0.0, 2.0)], r"member \(1\.0, 0\.0, 2\.0\) has dimension 3"),
            (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), r"member \(1\.0, 0\.0, 2\.0\) has dimension 3"),
            ([(1.0, 0.0), (1.0,)], r"member \(1\.0,\) has dimension 1"),
        ],
        ids=["1-D list", "1-D array", "wide member", "wide array", "ragged"],
    )
    def test_configuration_names_the_member_of_a_wrong_shape(self, vectors, member):
        # a numpy ValueError or TypeError never escapes: the member is named
        with pytest.raises(DimensionError, match=member + ", expected 2"):
            Configuration(2, vectors, [1.0, 1.0])

    @pytest.mark.parametrize("mults", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], []])
    def test_configuration_requires_one_multiplicity_per_vector(self, mults):
        with pytest.raises(DimensionError, match=r"multiplicities have shape .*, expected \(2,\)"):
            Configuration(2, [(1.0, 0.0), (0.0, 1.0)], mults)

    def test_parameters_require_matching_m_length(self):
        with pytest.raises(ParameterError):
            BCnParameters(n=2, r=0.0, s=0.0, q=0.0, m=(1.0,))

    @pytest.mark.parametrize("n", [2.5, 1.5, math.nan, math.inf])
    def test_parameters_require_an_integer_n(self, n):
        # a fractional n is refused by name, not compared with len(m)
        with pytest.raises(ParameterError, match="n must be an integer"):
            BCnParameters(n=n, r=0.0, s=0.0, q=0.0, m=(1.0, 1.0))

    def test_parameters_read_an_integral_float_n_as_an_integer(self):
        p = BCnParameters(n=2.0, r=-4.0, s=0.0, q=1.0, m=(1.0, 1.0))
        assert p.n == 2 and type(p.n) is int
        assert build_bcn(p).vectors.shape == (6, 2)

    def test_parameters_cache_N(self):
        p = BCnParameters(n=3, r=0.0, s=0.0, q=0.0, m=(0.5, 1.5, 2.0))
        assert p.N == 4.0

    def test_cached_arrays_are_read_only_and_outside_the_fields(self):
        p = BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0))
        fresh = BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0))
        m = np.array([1.0, 2.0, 2.0])
        weights = (-20.0 * m, 4.0 * (2.0 * 1.0 * m + 2.0 * m * (m - 1.0)), 2.0 * m, 2.0 * np.outer(m, m))
        assert p.m_array is p.m_array and p.closed_form_weights is p.closed_form_weights
        assert p.m_array.tobytes() == m.tobytes()
        assert [w.tobytes() for w in p.closed_form_weights] == [w.tobytes() for w in weights]
        for a in (p.m_array, *p.closed_form_weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # equality, hashing, fields() and repr read the fields alone
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert [f.name for f in dataclasses.fields(p)] == ["n", "r", "s", "q", "m", "N"]
        assert dataclasses.asdict(p) == dataclasses.asdict(fresh)
        assert {p: 1}[fresh] == 1
        # a replaced instance builds its own arrays
        shifted = dataclasses.replace(p, r=-19.0)
        assert shifted != p and shifted.closed_form_weights[0].tolist() == (-19.0 * m).tolist()

    def test_partition_validates_blocks(self):
        with pytest.raises(ParameterError):
            Partition(N=4, blocks=(2, 3))
        with pytest.raises(ParameterError):
            Partition(N=1, blocks=(0, 1))

    @pytest.mark.parametrize("N, blocks", [(4, (2.5, 2.5)), (3, (1.5, 1.5)), (3, (-1, 4)), (2, (2, math.inf))])
    def test_partition_requires_positive_integer_blocks(self, N, blocks):
        # a fractional block is refused, not truncated to an integer
        with pytest.raises(ParameterError, match="positive integer"):
            Partition(N=N, blocks=blocks)

    def test_partition_reads_integral_floats_as_integers(self):
        part = Partition(N=5, blocks=(2.0, 3.0))
        assert part.blocks == (2, 3) and all(type(b) is int for b in part.blocks)

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Partition(N="2", blocks=(1, 1)), "N must be an integer, got '2'"),
            (lambda: Partition(N=True, blocks=(True,)), "N must be an integer, got True"),
            (lambda: Partition(N=2, blocks=("1", 1)), r"every block must be a positive integer, got \('1', 1\)"),
            (lambda: Partition(N=1, blocks=(True,)), r"every block must be a positive integer, got \(True,\)"),
            (lambda: Configuration("2", [(1.0, 0.0)], [1.0]), "dimension must be an integer, got '2'"),
            (lambda: Configuration(True, [(1.0,)], [1.0]), "dimension must be an integer, got True"),
            (lambda: BCnParameters(n="2", r=0.0, s=0.0, q=0.0, m=(1.0, 1.0)), "n must be an integer, got '2'"),
            (lambda: BCnParameters(n=True, r=0.0, s=0.0, q=0.0, m=(1.0,)), "n must be an integer, got True"),
        ],
        ids=["N str", "N bool", "block str", "block bool", "dimension str", "dimension bool", "n str", "n bool"],
    )
    def test_counts_refuse_strings_and_bools(self, build, error):
        # a count is an integral real: a numeric string or a bool is refused by name, not read as a number
        with pytest.raises(ParameterError, match=f"^{error}$"):
            build()

    @pytest.mark.parametrize("N", [0, 3])
    def test_partition_requires_a_block(self, N):
        # with no block the partition itself refuses, not a consumer's BCnParameters(n=0)
        with pytest.raises(ParameterError, match=f"^a partition of N = {N} needs at least one block$"):
            Partition(N=N, blocks=())
        with pytest.raises(ParameterError, match="needs at least one block"):
            restrict_configuration(N, 0.0, 0.0, 1.0, Partition(N=N, blocks=()))

    @pytest.mark.parametrize(
        "field, value, bad",
        [
            ("r", True, True),
            ("s", False, False),
            ("q", "1", "1"),
            ("r", None, None),
            ("m", (1.0, True), True),
            ("m", ("1", 1.0), "1"),
            ("q", 1j, 1j),
        ],
        ids=["r bool", "s bool", "q str", "r None", "m bool", "m str", "q complex"],
    )
    def test_parameters_refuse_non_reals(self, field, value, bad):
        # r, s, q and each m_i are reals that are not bools: anything else is refused by name
        fields = {"n": 2, "r": 0.0, "s": 0.0, "q": 1.0, "m": (1.0, 1.0), field: value}
        with pytest.raises(ParameterError, match=f"^parameters must be real numbers, got {re.escape(repr(bad))}$"):
            BCnParameters(**fields)

    @pytest.mark.parametrize("value", [10**400, -(10**400), True, False], ids=["400 digits", "-400 digits", "True", "False"])
    def test_real_refuses_an_int_no_float_holds_and_a_bool(self, value):
        # an int is read before the abstract-class test: one no float holds is refused, not an OverflowError,
        # and a bool, whose type is not int, still meets the bool refusal
        with pytest.raises(ParameterError, match="^refused$"):
            _real(value, "refused")

    def test_parameters_store_reals_as_floats(self):
        p = BCnParameters(n=2, r=-4, s=np.float32(0.5), q=1, m=(1, np.int64(2)))
        assert (p.r, p.s, p.q, p.m, p.N) == (-4.0, 0.5, 1.0, (1.0, 2.0), 3.0)
        assert all(type(v) is float for v in (p.r, p.s, p.q, *p.m, p.N))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_parameters_must_be_finite(self, value):
        with pytest.raises(ParameterError, match="^parameters must be finite$"):
            BCnParameters(n=2, r=0.0, s=value, q=1.0, m=(1.0, 1.0))

    def test_partition_requires_an_integer_N(self):
        with pytest.raises(ParameterError, match="N must be an integer, got 5.5"):
            Partition(N=5.5, blocks=(2, 3))

    def test_restriction_reads_an_integral_float_N_as_an_integer(self):
        # BC_N is built from part.N, which is an int even when N was given as 5.0
        part = Partition(N=5.0, blocks=(2, 3))
        assert part.N == 5 and type(part.N) is int
        projected = restrict_configuration(5.0, -20.0, 1.0, 2.0, part)
        assert_same_members(projected, build_bcn(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))))

    def test_block_indicators(self):
        F = Partition(N=6, blocks=(2, 1, 3)).block_indicators()
        assert F.tolist() == [[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]

    def test_block_coordinates_mark_the_within_block_differences(self):
        part = Partition(N=5, blocks=(2, 3))
        vectors = build_bcn(BCnParameters(n=5, r=1.0, s=1.0, q=1.0, m=(1.0,) * 5)).vectors
        subsystem = RestrictionContext(1.0, 1.0, 1.0, part).subsystem
        # e_i - e_j with i and j in one block
        block = np.repeat([0, 1], part.blocks)
        within = [v.sum() == 0.0 and len(set(block[v != 0.0])) == 1 for v in vectors]
        assert np.array_equal(subsystem, vectors[within]) and sum(within) == 1 + 3


class TestActiveMembers:
    def test_zero_multiplicities_select_exactly_the_masked_rows_in_order(self):
        vectors = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0), (0.0, 2.0)]
        config = Configuration(2, vectors, [0.0, 2.0, 0.0, -1.5, 3.0, 0.0])
        A, c = config.active_members
        keep = config.multiplicities != 0.0
        assert A.tolist() == [[0.0, 1.0], [1.0, -1.0], [2.0, 0.0]] and c.tolist() == [2.0, -1.5, 3.0]
        assert np.array_equal(A, config.vectors[keep]) and np.array_equal(c, config.multiplicities[keep])
        assert not A.flags.writeable and not c.flags.writeable
        assert config.active_members is config.active_members

    def test_a_merge_to_zero_is_inactive(self):
        # the selection reads the merged multiplicities: 1 + (-1) leaves the slot inactive
        config = Configuration(1, [(1.0,), (2.0,), (1.0,)], [1.0, 4.0, -1.0])
        A, c = config.active_members
        assert A.tolist() == [[2.0]] and c.tolist() == [4.0]

    def test_every_multiplicity_nonzero_selects_the_arrays_themselves(self):
        config = build_bcn(BCnParameters(n=4, r=-12.0, s=0.5, q=1.0, m=(1.0, 2.0, 1.0, 2.0)))
        A, c = config.active_members
        assert A is config.vectors and c is config.multiplicities

    def test_the_family_at_s_0_and_unit_m_leaves_out_every_2e_i(self):
        n = 5
        config = build_bcn(BCnParameters(n=n, r=-6.0, s=0.0, q=1.0, m=(1.0,) * n))
        A, c = config.active_members
        assert np.array_equal(A, np.delete(config.vectors, np.s_[n : 2 * n], axis=0))
        assert np.array_equal(c, np.delete(config.multiplicities, np.s_[n : 2 * n]))

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_no_active_member_selects_no_row(self, dimension):
        A, c = Configuration(dimension, np.eye(dimension), np.zeros(dimension)).active_members
        assert A.shape == (0, dimension) and c.shape == (0,)


class TestConstraintResidual:
    # the multiplicity relation r + 8s + 2q(N - 2) = 0 is written out in each test as its reference
    def test_b2_point(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))
        assert p.r + 8.0 * p.s + 2.0 * p.q * (p.N - 2.0) == 0.0
        assert solve_r(p.s, p.q, p.m) == p.r

    def test_m23_point(self):
        p = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
        assert p.r + 8.0 * p.s + 2.0 * p.q * (p.N - 2.0) == 0.0
        assert solve_r(p.s, p.q, p.m) == p.r

    def test_all_zero(self):
        p = BCnParameters(n=1, r=0.0, s=0.0, q=0.0, m=(1.0,))
        assert p.r + 8.0 * p.s + 2.0 * p.q * (p.N - 2.0) == 0.0
        assert solve_r(p.s, p.q, p.m) == p.r

    @given(
        s=st.floats(-3, 3, allow_nan=False),
        q=st.floats(-3, 3, allow_nan=False),
        m=st.lists(st.floats(0.5, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_solve_r_closes_the_relation(self, s, q, m):
        p = BCnParameters(n=len(m), r=solve_r(s, q, m), s=s, q=q, m=tuple(m))
        assert abs(p.r + 8.0 * s + 2.0 * q * (p.N - 2.0)) <= 1e-12 * max(1.0, 8 * abs(s) + 2 * abs(q) * p.N)


def _theorem_and_broken(n, s, q, m):
    ok = BCnParameters(n=n, r=solve_r(s, q, m), s=s, q=q, m=m)
    return ok, BCnParameters(n=n, r=ok.r + 0.5, s=s, q=q, m=m)


# the WDVV kernel's test families, and unit m (BC_N) at the sizes the restriction runs build
MEMBER_ARRAY_FAMILIES = [
    *_theorem_and_broken(2, 1.0, 2.0, (2.0, 3.0)),
    *_theorem_and_broken(3, 0.5, 1.5, (0.7, 1.3, 2.1)),
    *_theorem_and_broken(6, 1.0, 1.0, (1.0, 2.0, 1.0, 2.0, 1.0, 1.0)),
    *_theorem_and_broken(10, 0.5, 1.0, (1.0, 2.0, 1.0, 1.5, 1.0, 1.0, 2.0, 1.0, 0.5, 1.0)),
    *(p for N in (1, 5, 14, 20) for p in _theorem_and_broken(N, 0.0, 1.0, (1.0,) * N)),
]


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

    @pytest.mark.parametrize("p", MEMBER_ARRAY_FAMILIES, ids=lambda p: f"n={p.n},r={p.r:.4g}")
    def test_member_arrays_are_the_configuration_arrays(self, p):
        # the restriction and the rescaling read these arrays in place of build_bcn's: its
        # vectors are distinct, so the constructor's merge keeps both arrays bit for bit
        vectors, mults = _bcn_members(p)
        config = build_bcn(p)
        assert vectors.shape == config.vectors.shape and vectors.tobytes() == config.vectors.tobytes()
        assert mults.shape == config.multiplicities.shape and mults.tobytes() == config.multiplicities.tobytes()

    def test_all_ones_reduces_to_root_system(self):
        p = BCnParameters(n=3, r=1.5, s=-0.5, q=2.0, m=(1.0, 1.0, 1.0))
        # at unit m the multiplicities are r on e_i, s on 2e_i and q on e_i +- e_j
        pairs = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]
        root_system = Configuration(3, [*np.eye(3), *2 * np.eye(3), *pairs], [1.5] * 3 + [-0.5] * 3 + [2.0] * 6)
        assert_same_members(build_bcn(p), root_system)


class TestBuildBcNRootSystem:
    def test_N1(self):
        c = build_bcn(BCnParameters(n=1, r=4.0, s=-1.0, q=9.0, m=(1.0,)))
        assert members_as_dict(c) == {(1.0,): 4.0, (2.0,): -1.0}

    def test_N2_pairs(self):
        c = build_bcn(BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0)))
        got = members_as_dict(c)
        assert got[(1.0, 1.0)] == 1.0
        assert got[(1.0, -1.0)] == 1.0

    def test_bN_short_root_condition(self):
        # with q=1, s=0 the relation closes at r = -2(N-2)
        p = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
        assert p.r + 8.0 * p.s + 2.0 * p.q * (p.N - 2.0) == 0.0
        assert solve_r(p.s, p.q, p.m) == p.r


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
        assert_same_members(c, build_bcn(BCnParameters(n=2, r=1.0, s=2.0, q=3.0, m=(1.0, 1.0))))

    def test_projected_pair_multiplicity(self):
        c = restrict_configuration(3, 0.0, 0.0, 1.0, Partition(N=3, blocks=(2, 1)))
        got = members_as_dict(c)
        assert got[(1.0, 1.0)] == 2.0
        assert got[(1.0, -1.0)] == 2.0

    def test_builds_only_the_projection(self, monkeypatch):
        # BC_N is read as member arrays: the one configuration built is the projected BC_2
        built = []
        original = Configuration.__init__

        def counting(self, dimension, vectors, multiplicities):
            original(self, dimension, vectors, multiplicities)
            built.append((self.dimension, len(self)))

        monkeypatch.setattr(Configuration, "__init__", counting)
        restrict_configuration(5, -20, 1, 2, Partition(5, (2, 3)))
        assert built == [(2, 6)]

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
        assert_same_members(projected, rebuilt, atol=1e-12)

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
    c = Configuration(2, [v for v, _ in members], [m for _, m in members])
    assert math.isclose(
        c.multiplicities.sum(), math.fsum(mults[:k]), rel_tol=0.0, abs_tol=1e-12
    )


def slots_of(config):
    return list(config.members)


class TestMergeRule:
    def test_member_1e13_away_stays_its_own_slot(self):
        # equal means equal as floats: there is no merge tolerance
        c = Configuration(2, [(1.0, 0.0), (1.0 + 1e-13, 0.0)], [2.0, 3.0])
        assert slots_of(c) == [((1.0, 0.0), 2.0), ((1.0 + 1e-13, 0.0), 3.0)]

    def test_member_just_outside_tolerance_stays(self):
        c = Configuration(2, [(1.0, 0.0), (1.0, 1.01e-12)], [2.0, 3.0])
        assert slots_of(c) == [((1.0, 0.0), 2.0), ((1.0, 1.01e-12), 3.0)]

    def test_signed_zeros_are_one_vector(self):
        c = Configuration(2, [(1.0, 0.0), (1.0, -0.0)], [2.0, 3.0])
        assert slots_of(c) == [((1.0, 0.0), 5.0)]

    def test_slot_keeps_its_first_multiplicity_bits(self):
        # a slot's sum starts from its first member's multiplicity, so a
        # signed zero stays signed: -0.0 + -0.0 is -0.0, 0.0 + -0.0 is not
        c = Configuration(1, [(1.0,), (2.0,), (1.0,)], [-0.0, 1.0, -0.0])
        assert [math.copysign(1.0, v) for v in c.multiplicities] == [-1.0, 1.0]


def _slots_by_rows(flat):
    """(head, slot_of) by one pass over the rows as float tuples, where -0.0 == 0.0."""
    first = {}
    joins = np.array([first.setdefault(tuple(row), i) for i, row in enumerate(flat.tolist())], dtype=np.intp)
    head = joins == np.arange(len(joins))
    return head, (np.cumsum(head) - 1)[joins]


@pytest.mark.parametrize(
    "flat",
    [
        _bcn_members(BCnParameters(n=5, r=1.0, s=1.0, q=1.0, m=(1.0,) * 5))[0],
        np.array([(1.0, 0.0), (2.0, 1.0), (1.0, 0.0), (0.5, 0.5), (2.0, 1.0), (1.0, 0.0)]),
        np.array([(1.0, 0.0), (1.0, -0.0), (-0.0, 2.0), (0.0, 2.0)]),
        np.array([(0.0, 0.0), (1.0, 1.0), (-0.0, 0.0), (1.0, 1.0 + 1e-13)]),
        np.empty((0, 3)),
    ],
    ids=["distinct", "merging", "signed-zeros", "zero-rows", "empty"],
)
def test_merge_slots_match_the_per_row_pass(flat):
    # distinct rows skip the per-row pass: None, every row opens its own slot
    merge = _merge_slots(flat)
    want_head, want_slot_of = _slots_by_rows(flat)
    assert (merge is None) == bool(want_head.all())
    head, slot_of = (np.ones(len(flat), dtype=bool), np.arange(len(flat), dtype=np.intp)) if merge is None else merge
    assert head.dtype == bool and slot_of.dtype == np.intp
    assert np.array_equal(head, want_head) and np.array_equal(slot_of, want_slot_of)


_BASES = [(1.0, 0.0, 0.0), (0.0, 1.0, -1.0), (1.0, 1.0, 0.0), (2.0, 0.0, 1.0), (1e6, -3.0, 0.5)]
# in units of 1e-12: the near-duplicates of a base are distinct members
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
        (tuple(b + o * 1e-12 for b, o in zip(_BASES[i], offsets)), mult)
        for i, offsets, mult in picks
    ]
    # exact repeats of earlier vectors, inserted anywhere
    for source, position, mult in repeats:
        members.insert(position % (len(members) + 1), (members[source % len(members)][0], mult))
    assert slots_of(Configuration(3, [v for v, _ in members], [m for _, m in members])) == merge_pairwise(members)


def _compositions(N):
    """Every ordered partition of N into positive integer blocks."""
    if N == 0:
        return [()]
    return [(first,) + rest for first in range(1, N + 1) for rest in _compositions(N - first)]


_RESTRICTION_BLOCKS = [(1,), (3,), (2, 3), (1, 2, 2), (5, 5, 5, 5)]
_RESTRICTION_BLOCKS += [b for N in range(1, 9) for b in _compositions(N) if b not in _RESTRICTION_BLOCKS]


@pytest.mark.parametrize("blocks", _RESTRICTION_BLOCKS)
def test_restriction_merge_matches_pairwise_oracle(blocks):
    # the projected images of BC_N coincide in many places, so the merge
    # inside restrict_configuration does real work here; every composition
    # of N <= 8 is checked, and each image equals the family build exactly
    r, s, q = 0.5, -1.0, 2.0
    part = Partition(N=sum(blocks), blocks=blocks)
    ambient = build_bcn(BCnParameters(n=part.N, r=r, s=s, q=q, m=(1.0,) * part.N))
    F = part.block_indicators()
    images = [(tuple(F @ np.array(vec)), mult) for vec, mult in ambient.members]
    images = [(vec, mult) for vec, mult in images if any(vec)]
    projected = restrict_configuration(part.N, r, s, q, part)
    assert slots_of(projected) == merge_pairwise(images)
    rebuilt = build_bcn(BCnParameters(n=part.n, r=r, s=s, q=q, m=blocks))
    assert projected.vectors.tolist() == rebuilt.vectors.tolist()
    assert projected.multiplicities.tolist() == rebuilt.multiplicities.tolist()
