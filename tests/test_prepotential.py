import itertools
import math
import re
import sys

import numpy as np
import pytest

from trigwdvv import algebra, cli, prepotential, susy
from trigwdvv.configurations import BCnParameters, Configuration, Partition, build_bcn
from trigwdvv.errors import DimensionError, DomainError, ParameterError, SingularityError
from trigwdvv.prepotential import (
    active_pairings,
    closed_form_arrows,
    coth,
    h_function,
    metric_B,
    metric_identity_residuals,
    tensor_generic,
)
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv.configurations import _off_pairs
from trigwdvv.wdvv import arrow_slices

from tests.oracles import (
    DenseFermionicSpace,
    eval_f,
    fd_tensor,
    hyperbolic_helpers,
    hyperbolic_helpers_masked,
    identity_residuals,
    is_admissible,
    li3_fsum,
    metric_B_einsum,
    metric_identity_masked,
    metric_identity_residuals_masked,
    phi_matrix,
    rejection_sample_points,
    sample_points,
    tensor_closed_form_loop,
    tensor_closed_form_masked,
    tensor_generic_broadcast,
    tensor_generic_einsum,
)

COTH = lambda z: 1.0 / math.tanh(z)


def arrows(F):
    """V[..., i, k] = F[..., i, k, k] of a dense (..., n, n, n) tensor, as a fresh C-ordered array."""
    return np.ascontiguousarray(np.einsum("...ikk->...ik", F))

# frozen from the compensated-summation oracle: 0.5**3/6 - li3_fsum(exp(-1))/4
EVAL_F_HALF = -0.07591552271921662


class TestEvalF:
    def test_large_argument_tail_is_negligible(self):
        assert abs(eval_f(20.0) - 20.0**3 / 6.0) < 1e-17

    def test_third_difference_recovers_coth(self):
        h = 1e-2
        d3 = (eval_f(1 + 2 * h) - 2 * eval_f(1 + h) + 2 * eval_f(1 - h) - eval_f(1 - 2 * h)) / (
            2 * h**3
        )
        assert abs(d3 - COTH(1.0)) < 1e-4

    def test_against_fsum_oracle(self):
        assert math.isclose(eval_f(0.5), EVAL_F_HALF, rel_tol=0, abs_tol=1e-15)
        # the frozen constant is what the oracle still produces
        assert math.isclose(
            0.5**3 / 6.0 - 0.25 * li3_fsum(math.exp(-1.0)), EVAL_F_HALF, rel_tol=0, abs_tol=1e-16
        )

    @pytest.mark.parametrize("z", [0.0, -0.3, -10.0])
    def test_domain_error(self, z):
        with pytest.raises(DomainError):
            eval_f(z)


class TestHyperbolicHelpers:
    def test_single_coordinate(self):
        b, bt, bp = hyperbolic_helpers([1.0])
        assert math.isclose(b[0], COTH(1.0))
        assert math.isclose(bt[0], COTH(2.0))
        assert bp.shape == (1, 1) and bp[0, 0] == 0.0

    def test_pair_entry(self):
        _, _, bp = hyperbolic_helpers([1.0, 0.4])
        assert math.isclose(bp[0, 1], COTH(1.4) + COTH(0.6))
        assert math.isclose(bp[1, 0], COTH(1.4) + COTH(-0.6))

    def test_pair_entry_closed_form(self):
        # b_pair[i][j] = 2 sinh 2x_i / (cosh 2x_i - cosh 2x_j)
        rng = rng_for(11, "helpers/closed-form")
        for _ in range(100):
            x = rng.uniform(0.3, 1.5, 3)
            if min(abs(x[i] - x[j]) for i in range(3) for j in range(3) if i != j) < 0.05:
                continue
            _, _, bp = hyperbolic_helpers(x)
            for i, j in itertools.permutations(range(3), 2):
                expected = 2.0 * math.sinh(2 * x[i]) / (math.cosh(2 * x[i]) - math.cosh(2 * x[j]))
                assert math.isclose(bp[i, j], expected, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [[[0.5, 0.9]], 0.5], ids=["2-D", "0-D"])
    def test_a_point_that_is_not_1d_is_refused(self, x):
        with pytest.raises(DimensionError, match="point has shape"):
            hyperbolic_helpers(x)


class TestIdentityResiduals:
    def test_spot_point(self):
        first, second = identity_residuals([0.7, 0.3], 0, 1)
        assert abs(first) < 1e-10 and abs(second) < 1e-10

    def test_diagonal_indices(self):
        first, second = identity_residuals([0.7, 0.3], 1, 1)
        assert first == 0.0
        assert abs(second) < 1e-14

    @pytest.mark.parametrize("k, j", [(-1, 0), (0, -1), (2, 0), (5, 0), (0, 2)])
    def test_an_index_outside_the_point_is_refused(self, k, j):
        # a negative index would otherwise wrap to the end of the point
        with pytest.raises(DimensionError, match=r"must lie in 0\.\.1"):
            identity_residuals([0.7, 0.3], k, j)

    @pytest.mark.parametrize(
        "k, j",
        [(0.5, 0), (0, 0.5), (True, 0), (0, False), ("1", 0), (None, 0)],
        ids=["fractional", "fractional-j", "bool", "bool-j", "string", "none"],
    )
    def test_an_index_that_is_not_an_integer_is_refused(self, k, j):
        # the package's integer rule, configurations._integer
        with pytest.raises(ParameterError, match="indices must be integers"):
            identity_residuals([0.7, 0.3], k, j)

    def test_an_integral_float_index_reads_as_an_int(self):
        assert identity_residuals([0.5, 0.9], 1.0, 0.0) == identity_residuals([0.5, 0.9], 1, 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_seeded_sweep(self, n):
        pattern = fully_active(build_bcn(BCnParameters(n=n, r=1, s=1, q=1, m=(1.0,) * n)))
        rng = rng_for(2024, f"identities/n={n}")
        pts = sample_points(rng, pattern, 100)
        worst = 0.0
        for x in pts:
            for k in range(n):
                for j in range(n):
                    if k == j:
                        continue
                    first, second = identity_residuals(x, k, j)
                    worst = max(worst, abs(first), abs(second))
        assert worst < 1e-10


class TestTensorGeneric:
    def test_rank_one_configuration(self):
        c = Configuration(1, [(1.0,), (2.0,)], [1.7, -0.6])
        T = tensor_generic(active_pairings(c, [0.8]))
        assert math.isclose(T[0, 0, 0], 1.7 * COTH(0.8) + 8 * (-0.6) * COTH(1.6), rel_tol=1e-14)

    def test_empty_and_inactive_configurations(self):
        assert np.all(tensor_generic(active_pairings(Configuration(2, [], []), [0.7, 0.4])) == 0.0)
        inactive = Configuration(2, [(1.0, 0.0), (1.0, -1.0)], [0.0, 0.0])
        assert np.all(tensor_generic(active_pairings(inactive, [0.7, 0.7])) == 0.0)

    def test_singularity_names_offending_member(self):
        c = Configuration(2, [(1.0, -1.0)], [2.0])
        with pytest.raises(SingularityError, match=r"1\.0, -1\.0"):
            tensor_generic(active_pairings(c, [0.5, 0.5]))

    def test_permutation_symmetry(self):
        p = BCnParameters(n=3, r=-1.2, s=0.7, q=1.9, m=(0.7, 1.3, 2.1))
        T = tensor_generic(active_pairings(build_bcn(p), [0.9, 0.5, 1.3]))
        for perm in itertools.permutations(range(3)):
            assert np.abs(T - np.transpose(T, perm)).max() < 1e-12


def _gemm_route_cases(n):
    """(label, configuration, points) at dimension n for the GEMM/einsum comparison."""
    rng = rng_for(2024, f"gemm-route/n={n}")
    m = tuple(rng.uniform(0.5, 3.0, n))
    family = build_bcn(BCnParameters(n=n, r=float(rng.uniform(-5, 5)), s=-0.7, q=1.3, m=m))
    yield "bcn", family, sample_points(rng, fully_active(family), 3)
    # non-integer vectors; multiplicities of both signs, and exact zeros
    mult = rng.uniform(-2.0, 3.0, 2 * n + 3)
    mult[::4] = 0.0
    mult[1] = -1.5
    explicit = Configuration(n, rng.normal(size=(2 * n + 3, n)), mult)
    yield "explicit", explicit, rejection_sample_points(rng, fully_active(explicit), 3)
    # an empty active set: every member inactive, or no member at all
    inactive = Configuration(n, rng.normal(size=(3, n)), np.zeros(3))
    yield "inactive", inactive, rng.uniform(0.3, 1.5, (2, n))
    yield "empty", Configuration(n, [], []), rng.uniform(0.3, 1.5, (2, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_gemm_tensor_and_metric_match_the_einsum_oracle(n):
    # the GEMM sums in another order than einsum: agreement to rounding, not bits
    for label, config, points in _gemm_route_cases(n):
        for x in points:
            T = tensor_generic(active_pairings(config, x))
            want = tensor_generic_einsum(config, x)
            assert T.shape == want.shape == (n, n, n)
            assert np.abs(T - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), label
            assert np.array_equal(T, T.transpose(0, 2, 1)), label  # exact in (j, k)
            active = active_pairings(config, x)
            B, want_B = metric_B(active, x), metric_B_einsum(want, x)
            assert np.abs(B - want_B).max() <= 1e-14 * max(1.0, np.abs(want_B).max()), label
            _assert_exactly_symmetric_pivots(active, x, label)


def _assert_exactly_symmetric_pivots(active, x, label):
    """metric_B and verify-wdvv's eta.F at x equal their transposes exactly, as the
    WDVV kernel, which reads each pivot's lower triangle only, needs."""
    T = tensor_generic(active)
    n = len(T)
    eta = rng_for(0, f"symmetric-pivots/{label}").standard_normal(n)
    for name, P in (("B", metric_B(active, x)), ("eta.F", (eta @ T.reshape(n, n * n)).reshape(n, n))):
        assert np.array_equal(P, P.T), (label, name)


def _random_document(rng, n):
    """An explicit configuration of 2n + 3 dense random members, multiplicities of both signs."""
    return Configuration(n, rng.normal(size=(2 * n + 3, n)), rng.uniform(-2.0, 3.0, 2 * n + 3))


@pytest.mark.parametrize("n", [3, 10, 20, 40])
def test_the_pivots_are_exactly_symmetric_in_the_wide_box(n):
    # the sizes verify-wdvv reaches on --box 0.3,4, with unequal multiplicities, and a dense explicit
    # document, where the GEMM's two triangles differ in their last bits, which the triangle copy mends
    rng = rng_for(2024, f"symmetric-pivots/n={n}")
    family = build_bcn(BCnParameters(n=n, r=-3.0, s=0.5, q=1.0, m=tuple(rng.uniform(0.5, 3.0, n))))
    for label, config in (("family", family), ("explicit", _random_document(rng, n))):
        for x in sample_points(rng, fully_active(config), 3, (0.3, 4.0)):
            _assert_exactly_symmetric_pivots(active_pairings(config, x), x, f"{label}/n={n}")


def _members_metric_bound(active, x):
    """2 (n + M + 3) eps S entrywise, S the member form on absolute values: the member form sums n, then
    M terms, each of three roundings, and the tensor route M, then n, so each lies within half of it."""
    A, c, z = active
    S = (np.abs(A).T * np.abs(c * coth(z)) * (np.abs(A) @ np.abs(np.sinh(2.0 * x)))) @ np.abs(A)
    return 2.0 * (A.shape[1] + len(A) + 3) * np.finfo(float).eps * S


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("source", ["family", "explicit"])
def test_the_members_metric_is_the_tensor_contraction_to_rounding(n, source):
    # B from the members against sinh(2x) . F, F from the members' tensor, by the einsum definition
    rng = rng_for(7, f"members-metric/{source}/n={n}")
    if source == "family":
        m = tuple(rng.uniform(0.5, 3.0, n))
        config = build_bcn(BCnParameters(n=n, r=float(rng.uniform(-5, 5)), s=-0.7, q=1.3, m=m))
    else:
        config = _random_document(rng, n)
    for x in sample_points(rng, fully_active(config), 4, (0.3, 4.0)):
        active = active_pairings(config, x)
        B, want = metric_B(active, x), metric_B_einsum(tensor_generic(active), x)
        assert B.shape == (n, n)
        assert np.all(np.abs(B - want) <= _members_metric_bound(active, x)), (source, n)


BC2 = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))

# every function that evaluates at a point and must keep clear of the hyperplanes;
# the sums over members take active_pairings' (A, c, z), so their point reaches them
# through active_pairings, the one refusal outside the sampler
HYPERPLANE_CALLERS = {
    "tensor_generic": lambda x: tensor_generic(active_pairings(build_bcn(BC2), x)),
    "arrow_slices": lambda x: arrow_slices(active_pairings(build_bcn(BC2), x)),
    "active_pairings": lambda x: active_pairings(build_bcn(BC2), x),
    "bosonic_potential": lambda x: susy.bosonic_potential(active_pairings(build_bcn(BC2), x)),
    "phi_matrix": lambda x: phi_matrix(build_bcn(BC2), x, DenseFermionicSpace(2)),
    "gauge_residual": lambda x: susy.gauge_residual(active_pairings(build_bcn(BC2), x)),
    # the tensor command is the one path where a point from outside reaches tensor_generic
    "emit_tensor": lambda x: cli.emit_tensor(
        cli.RunSpec("tensor", {"family": "bcn", "n": 2, "r": 1.0, "s": 1.0, "q": 1.0, "m": [1.0, 1.0]}), x
    ),
}
# a restriction's pairings test no margin, the sampler having tested it, but refuse a non-finite point
NON_FINITE_CALLERS = {
    **HYPERPLANE_CALLERS,
    "RestrictionContext": lambda x: algebra.RestrictionContext(1.0, 1.0, 1.0, Partition(2, (1, 1))).pairings(x),
}


class TestActivePairings:
    def test_active_members_and_their_pairings(self):
        c = Configuration(2, [(1.0, 0.0), (1.0, -1.0), (1.0, 1.0)], [2.0, 0.0, -0.5])
        x = np.array([0.7, 0.7])  # on the hyperplane of the inactive member
        A, mult, z = active_pairings(c, x)
        assert A.tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert mult.tolist() == [2.0, -0.5]
        assert z.tolist() == [0.7, 1.4]

    def test_a_point_within_theta_of_an_inactive_member_only_is_admitted(self):
        # the margin is tested at the active rows of V @ x alone, so a point 0.01 from the
        # hyperplane of the zero-multiplicity member (0.6, -0.8) passes, which the sampler,
        # testing every member, refuses
        c = Configuration(2, [(0.6, -0.8), (0.3, 0.7), (1.0, 0.0)], [0.0, 2.0, -1.0])
        x = np.array([0.8, 0.6 - 0.0125])
        A, mult, z = active_pairings(c, x, 0.05)
        assert A.tolist() == [[0.3, 0.7], [1.0, 0.0]] and mult.tolist() == [2.0, -1.0]
        assert z.tobytes() == (c.vectors @ x)[c.active_rows].tobytes()
        assert abs(c.vectors[0] @ x) < 0.05 and not is_admissible(c.vectors, x, 0.05)

    @pytest.mark.parametrize("s", [0.0, 0.5], ids=["some-inactive", "all-active"])
    def test_every_point_shares_one_read_only_selection(self, s):
        # at s = 0 and unit m every 2e_i is inactive; A and c are selected once per
        # configuration, and only z is computed at a point
        config = build_bcn(BCnParameters(n=3, r=-2.0 - 8.0 * s, s=s, q=1.0, m=(1.0, 1.0, 1.0)))
        A1, c1, z1 = active_pairings(config, [0.9, 0.5, 1.3])
        A2, c2, z2 = active_pairings(config, [0.4, 1.1, 0.7])
        assert A1 is A2 and c1 is c2 and z1 is not z2
        assert not A1.flags.writeable and not c1.flags.writeable
        assert (A1 is config.vectors) == (s != 0.0) and len(A1) == len(c1) == (12 if s else 9)
        assert z2.tolist() == (A2 @ [0.4, 1.1, 0.7]).tolist()

    @pytest.mark.parametrize("caller", HYPERPLANE_CALLERS.values(), ids=HYPERPLANE_CALLERS.keys())
    def test_every_caller_names_the_nearest_member(self, caller):
        x = np.array([0.9, 0.899])  # (e_1 - e_2, x) = 1e-3, below the default threshold
        with pytest.raises(SingularityError, match=r"member \[1\.0, -1\.0\]"):
            caller(x)

    @pytest.mark.parametrize("caller", NON_FINITE_CALLERS.values(), ids=NON_FINITE_CALLERS.keys())
    def test_every_caller_refuses_a_non_finite_point(self, caller):
        # a NaN pairing passed the old test |(alpha, x)| < threshold
        with pytest.raises(DomainError, match="is not finite"):
            caller(np.array([np.nan, 0.5]))


class TestClosedFormArrows:
    def test_rank_one(self):
        p = BCnParameters(n=1, r=1.7, s=-0.6, q=0.0, m=(1.0,))
        V = closed_form_arrows(p, [0.8])
        assert V.shape == (1, 1)
        assert math.isclose(V[0, 0], 1.7 * COTH(0.8) + 8 * (-0.6) * COTH(1.6), rel_tol=1e-14)

    def test_diagonal_includes_pair_sum(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))
        x = [0.9, 0.4]
        V = closed_form_arrows(p, x)
        _, _, bp = hyperbolic_helpers(x)
        expected = COTH(0.9) + 8 * COTH(1.8) + bp[0, 1]
        assert math.isclose(V[0, 0], expected, rel_tol=1e-13)

    def test_repeated_index_entry(self):
        # V[1, 0] = F_100 = F_001 = q m_0 m_1 b_pair[1][0]
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))
        x = [0.9, 0.4]
        V = closed_form_arrows(p, x)
        _, _, bp = hyperbolic_helpers(x)
        assert math.isclose(V[1, 0], bp[1, 0], rel_tol=1e-13)

    def test_matches_generic_path(self):
        # the closed form's arrows against the members' V and the members' dense tensor, whose every
        # entry off the arrows is exactly zero
        p = BCnParameters(n=3, r=1.0, s=1.0, q=1.0, m=(1.0, 2.0, 0.5))
        x = np.array([0.9, 0.4, 1.3])
        active = active_pairings(build_bcn(p), x)
        G, C = tensor_generic(active), closed_form_arrows(p, x)
        assert np.abs(arrows(G) - C).max() < 1e-12 and np.abs(arrow_slices(active) - C).max() < 1e-12
        i, j, k = np.nonzero(np.ones((3, 3, 3)))
        distinct = (i != j) & (j != k) & (i != k)
        assert not G[i[distinct], j[distinct], k[distinct]].any()

    @pytest.mark.parametrize("oracle", [tensor_closed_form_loop, tensor_closed_form_masked], ids=["loop", "masked"])
    def test_equals_the_dense_oracles_arrows_bit_for_bit(self, oracle):
        # at n = 1 to 7, a point alone and a block of five, each point's V is the arrow entries F_ikk of the
        # dense closed form that the oracle fills, bit for bit
        rng = rng_for(11, f"closed-form/oracle/{oracle.__name__}")
        for n in range(1, 8):
            m = tuple(rng.uniform(0.5, 5.0, n))
            p = BCnParameters(n=n, r=float(rng.uniform(-5, 5)), s=float(rng.uniform(-5, 5)),
                              q=float(rng.uniform(-5, 5)), m=m)
            xs = sample_points(rng, fully_active(build_bcn(p)), 5)
            want = np.stack([arrows(oracle(p, x)) for x in xs])
            assert closed_form_arrows(p, xs).tobytes() == want.tobytes(), n
            for x, one in zip(xs, want):
                assert closed_form_arrows(p, x).tobytes() == one.tobytes(), n

    def test_the_two_routes_share_no_package_code(self):
        # the members' V and the closed form's are two independent routes: neither reaches the other,
        # and no package function runs on both
        p = BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0))
        x = np.array([0.9, 0.4, 1.3])
        active = active_pairings(build_bcn(p), x)
        members, closed = _package_calls(arrow_slices, active), _package_calls(closed_form_arrows, p, x)
        assert members == {"arrow_slices"}
        assert "closed_form_arrows" in closed and "arrow_slices" not in closed
        assert not members & closed


def _package_calls(fn, *args) -> set[str]:
    """The names of the package's functions that run during ``fn(*args)``, ``fn`` among them."""
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("trigwdvv"):
            called.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return called


class TestMetricAndH:
    def test_zero_tensor(self):
        # every weight c coth z (alpha, sinh 2x) is 0, and so is the tensor these members give
        A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        active = (A, np.zeros(3), A @ [0.5, 0.7])
        assert np.all(metric_B(active, [0.5, 0.7]) == 0.0)
        assert np.all(metric_B_einsum(tensor_generic(active), [0.5, 0.7]) == 0.0)

    def test_metric_is_symmetric(self):
        p = BCnParameters(n=3, r=-1.2, s=0.7, q=1.9, m=(0.7, 1.3, 2.1))
        x = np.array([0.9, 0.5, 1.3])
        B = metric_B(active_pairings(build_bcn(p), x), x)
        assert np.array_equal(B, B.T)

    def test_offdiagonal_vanishes_for_any_parameters(self):
        rng = rng_for(5, "metric/offdiag")
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = BCnParameters(
                n=n,
                r=float(rng.uniform(-3, 3)),
                s=float(rng.uniform(-3, 3)),
                q=float(rng.uniform(-3, 3)),
                m=tuple(rng.uniform(0.5, 4, n)),
            )
            pattern = fully_active(build_bcn(p))
            x = sample_points(rng, pattern, 1)[0]
            B = metric_B(active_pairings(build_bcn(p), x), x)
            off = B - np.diag(np.diag(B))
            assert np.abs(off).max() < 1e-10 * max(1.0, np.abs(B).max())

    def test_constraint_gives_diagonal_m_h(self):
        p = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
        x = np.array([0.6, 0.8])
        B = metric_B(active_pairings(build_bcn(p), x), x)
        h = h_function(p, x)
        assert np.allclose(np.diag(B), np.array([2.0, 3.0]) * h, rtol=1e-10)

    def test_h_constant_when_q_zero(self):
        p = BCnParameters(n=3, r=2.5, s=1.0, q=0.0, m=(1.0, 2.0, 0.5))
        assert h_function(p, [0.4, 0.9, 1.3]) == 2.5

    def test_h_spot_value(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))
        val = h_function(p, [0.5, 0.5])
        assert math.isclose(val, 4 * math.cosh(1.0), rel_tol=1e-14)
        # cross-check against the metric's diagonal
        B = metric_B(active_pairings(build_bcn(p), [0.5, 0.9]), [0.5, 0.9])
        assert math.isclose(B[0, 0], h_function(p, [0.5, 0.9]), rel_tol=1e-10)


class TestIsAdmissible:
    def setup_method(self):
        self.pattern = fully_active(build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))))

    def test_mirror_point(self):
        assert not is_admissible(self.pattern, [0.5, 0.5])

    def test_generic_point(self):
        assert is_admissible(self.pattern, [0.9, 0.4], 0.05)

    def test_margin_below_threshold(self):
        assert not is_admissible(self.pattern, [0.5, 0.5 + 0.025], 0.05)

    @pytest.mark.parametrize("x", [[np.nan, 0.5], [np.inf, 0.5], [0.5]], ids=["nan", "inf", "shape"])
    def test_non_finite_or_misshapen_point(self, x):
        assert not is_admissible(self.pattern, x)

    def test_zero_multiplicity_members_count(self):
        # the pattern is every member's covector: e_1 - e_2 keeps its hyperplane at multiplicity 0
        c = Configuration(2, [(1.0, -1.0), (1.0, 0.0)], [0.0, 1.0])
        assert not is_admissible(fully_active(c), [0.5, 0.5], 0.05)
        assert is_admissible(c.vectors, [0.9, 0.4], 0.05)

    @pytest.mark.parametrize(
        "pattern, box",
        [
            # the rescaled pattern at m = 0.1,1: its row e_1/sqrt(0.1) keeps x^_1 >= 0.016 only
            (fully_active(susy.build_hat_configuration(BCnParameters(n=2, r=1.8, s=0.0, q=1.0, m=(0.1, 1.0))).config),
             (0.01, 0.5)),
            # no row e_k: x_k may come as near 0 as the rows e_1 +- e_2 allow
            (np.array([[1.0, 1.0], [1.0, -1.0]]), (-1.0, 1.0)),
        ],
        ids=["hat-m0.1", "explicit"],
    )
    def test_is_the_margin_rule_alone(self, pattern, box):
        # the sampler's rule is the margin of active_pairings and no other: a point with
        # |sinh 2x_k| < theta is accepted when it keeps the margin from every row
        xs = np.random.default_rng(5).uniform(*box, size=(2000, 2))
        accepted = np.array([is_admissible(pattern, x, 0.05) for x in xs])
        margin = (np.abs(xs @ pattern.T) >= 0.05).all(axis=1)
        assert (accepted == margin).all()
        assert (np.abs(np.sinh(2.0 * xs[accepted])).min(axis=1) < 0.05).any()


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("n", [1, 2])
    def test_tensor_matches_differences(self, n):
        rng = rng_for(314, f"fd-oracle/n={n}")
        for _ in range(4):
            p = BCnParameters(
                n=n,
                r=float(rng.uniform(-3, 3)),
                s=float(rng.uniform(-3, 3)),
                q=float(rng.uniform(-3, 3)),
                m=tuple(rng.uniform(0.5, 4, n)),
            )
            config = build_bcn(p)
            pattern = fully_active(config)
            # the stencil needs a wide hyperplane margin: the truncation left
            # after extrapolation scales like multiplicity / margin^5
            pts = sample_points(rng, pattern, 3, box=(0.4, 1.2), threshold=0.3)
            for x in pts:
                T = tensor_generic(active_pairings(config, x))
                T_fd = fd_tensor(config, x, h=1e-2)
                assert np.abs(T - T_fd).max() < 1e-4


NAN_POINT = [math.nan, 0.5]
BC2 = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: closed_form_arrows(BC2, NAN_POINT),
        lambda: identity_residuals(NAN_POINT, 0, 1),
    ],
    ids=["closed_form_arrows", "identity_residuals"],
)
def test_closed_form_route_refuses_a_nan_point(evaluate):
    # NaN < theta is false, so the margin test alone would let a NaN point through
    with pytest.raises(DomainError, match=r"point \[nan, 0.5\] is not finite"):
        evaluate()


BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_ACTIVE = active_pairings(build_bcn(BC3), [0.9, 0.5, 1.3])

# every function that reads a point, or a block of points, beside a family or members of dimension 3
POINT_READERS = {
    "h_function": lambda x: h_function(BC3, x),
    "closed_form_arrows": lambda x: closed_form_arrows(BC3, x),
    "metric_B": lambda x: metric_B(BC3_ACTIVE, x),
    "metric_identity_residuals": lambda x: metric_identity_residuals(BC3, BC3_ACTIVE, x),
}


@pytest.mark.parametrize("evaluate", POINT_READERS.values(), ids=POINT_READERS.keys())
@pytest.mark.parametrize("x", [[0.5], [0.5, 0.9, 1.3, 0.7]], ids=["short", "long"])
def test_a_point_of_the_wrong_length_is_refused(evaluate, x):
    # h_function broadcast a short point, and the others raised numpy's own ValueError
    with pytest.raises(DimensionError, match=rf"^point has shape \({len(x)},\), expected \(3,\) or \(b, 3\)$"):
        evaluate(x)


def test_the_refusal_names_the_block_shape_only_where_a_block_is_accepted():
    # h_function takes (b, 3): a (2, 4) block is refused naming both shapes; active_pairings takes one point
    with pytest.raises(DimensionError, match=r"^point has shape \(2, 4\), expected \(3,\) or \(b, 3\)$"):
        h_function(BC3, np.zeros((2, 4)))
    assert h_function(BC3, np.full((2, 3), 0.5)).shape == (2,)
    with pytest.raises(DimensionError, match=r"^point has shape \(2, 3\), expected \(3,\)$"):
        active_pairings(build_bcn(BC3), np.full((2, 3), 0.5))


@pytest.mark.parametrize("n", range(1, 9))
def test_off_pairs_are_the_mask_s_pairs_read_only(n):
    i, j = _off_pairs(n)
    want_i, want_j = np.nonzero(~np.eye(n, dtype=bool))
    assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
    assert i.dtype == want_i.dtype and j.dtype == want_j.dtype
    assert _off_pairs(n) is _off_pairs(n)
    for a in (i, j):
        assert not a.flags.writeable


# one point per piece of the margin, each with a sinh argument within 0.05 of zero: x_i, 2 x_i
# (never near alone, |2 x_i| being above |x_i|), x_i + x_j and x_i - x_j, at n = 1 and n = 3
MARGIN_CASES = {
    "n1-x": [0.03],
    "n1-negative-x": [-0.04],
    "n1-x-and-2x": [0.02],
    "n3-x": [0.7, -0.01, 1.3],
    "n3-x-and-2x": [0.7, 0.024, 1.3],
    "n3-plus": [0.7, -0.68, 1.3],
    "n3-minus": [0.7, 1.31, 1.3],
    "n3-plus-and-minus-tie": [0.5, -0.51, 0.49],
}


@pytest.mark.parametrize("x", MARGIN_CASES.values(), ids=MARGIN_CASES)
def test_helpers_inside_the_margin_are_the_masked_route_s(x):
    # the margin is the sampler's alone: the helpers evaluate inside it, with the masked route's bits
    for got, want in zip(hyperbolic_helpers(x), hyperbolic_helpers_masked(x), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("unit", [True, False], ids=["unit-m", "m"])
def test_closed_form_and_metric_identity_equal_the_masked_route_bit_for_bit(monkeypatch, n, unit):
    rng = rng_for(n, f"closed-form/masked/{unit}")
    m = (1.0,) * n if unit else tuple(rng.uniform(0.3, 4.0, n))
    q, s = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
    r = -8.0 * s - 2.0 * q * (sum(m) - 2.0) + (0.0 if unit else float(rng.uniform(-1, 1)))
    p = BCnParameters(n=n, r=r, s=s, q=q, m=m)
    config = build_bcn(p)
    for x in sample_points(rng, fully_active(config), 6, box=(-1.5, 1.5)):
        assert np.array_equal(hyperbolic_helpers(x)[2], hyperbolic_helpers_masked(x)[2])
        closed = tensor_closed_form_masked(p, x)
        assert closed_form_arrows(p, x).tobytes() == arrows(closed).tobytes()
        active = active_pairings(config, x)
        got = metric_identity_residuals(p, active, x)
        # the reduction of the members' B, bit for bit, and the residuals within B's rounding bound of
        # those of the closed-form and the member tensor, contracted by the einsum definition
        assert np.array(got).tobytes() == np.array(metric_identity_masked(p, metric_B(active, x), x)).tobytes()
        scale = max(1.0, float(np.abs(h_function(p, x) * p.m_array).max()))
        bound = _members_metric_bound(active, x).max() / scale + 4 * np.finfo(float).eps
        for T in (closed, tensor_generic(active)):
            assert np.abs(np.subtract(got, metric_identity_residuals_masked(p, T, x))).max() <= bound
    # a NaN entry of B, or an infinite h, is refused by name, B first, with the point
    B = metric_B(active, x)
    B[0, -1] = np.nan
    monkeypatch.setattr(prepotential, "metric_B", lambda active, x: B)
    with pytest.raises(DomainError, match=re.escape(f"B is not finite at the point {x.tolist()}")):
        metric_identity_residuals(p, active, x)
    monkeypatch.setattr(prepotential, "h_function", lambda p, x: np.float64(np.inf))
    with pytest.raises(DomainError, match=re.escape(f"B is not finite at the point {x.tolist()}")):
        metric_identity_residuals(p, active, x)
    B[0, -1] = 0.0
    with pytest.raises(DomainError, match=re.escape(f"h is not finite at the point {x.tolist()}")):
        metric_identity_residuals(p, active, x)


def test_einsum_outer_products_equal_broadcasting():
    # each a_j a_k is one multiply on both routes; einsum writes a zero product as +0.0 where
    # broadcasting gives -0.0 for 0 * (negative), so the entries are equal as floats, bit for bit
    # up to the sign of a zero
    rng = rng_for(3, "generic/broadcast")
    dense = Configuration(5, rng.normal(size=(40, 5)), rng.uniform(-2.0, 2.0, 40))
    family = build_bcn(BCnParameters(n=6, r=-8.0, s=0.0, q=1.0, m=(1.0, 2.0, 0.5, 1.0, 3.0, 0.0)))
    for config in (dense, family):
        for x in sample_points(rng, fully_active(config), 5, box=(-2.0, 2.0)):
            active = active_pairings(config, x)
            got, want = tensor_generic(active), tensor_generic_broadcast(active)
            assert np.array_equal(got, want) and (got + 0.0).tobytes() == (want + 0.0).tobytes()
