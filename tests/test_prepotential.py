import itertools
import math

import numpy as np
import pytest

from trigwdvv import algebra, susy
from trigwdvv.configurations import BCnParameters, Configuration, Partition, build_bcn
from trigwdvv.errors import DomainError, SingularityError
from trigwdvv.prepotential import (
    active_pairings,
    eval_f,
    h_function,
    hyperbolic_helpers,
    identity_residuals,
    is_admissible,
    metric_B,
    tensor_closed_form,
    tensor_generic,
)
from trigwdvv.sampling import fully_active, rng_for, sample_admissible_points

from tests.oracles import fd_tensor, li3_fsum

COTH = lambda z: 1.0 / math.tanh(z)

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

    def test_singularity(self):
        with pytest.raises(SingularityError):
            hyperbolic_helpers([0.7, 0.7])


class TestIdentityResiduals:
    def test_spot_point(self):
        first, second = identity_residuals([0.7, 0.3], 0, 1)
        assert abs(first) < 1e-10 and abs(second) < 1e-10

    def test_diagonal_indices(self):
        first, second = identity_residuals([0.7, 0.3], 1, 1)
        assert first == 0.0
        assert abs(second) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_seeded_sweep(self, n):
        pattern = fully_active(build_bcn(BCnParameters(n=n, r=1, s=1, q=1, m=(1.0,) * n)))
        rng = rng_for(2024, f"identities/n={n}")
        pts = sample_admissible_points(rng, pattern, 100)
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
        c = Configuration(1, [((1.0,), 1.7), ((2.0,), -0.6)])
        T = tensor_generic(c, [0.8])
        assert math.isclose(T[0, 0, 0], 1.7 * COTH(0.8) + 8 * (-0.6) * COTH(1.6), rel_tol=1e-14)

    def test_empty_and_inactive_configurations(self):
        assert np.all(tensor_generic(Configuration(2, []), [0.7, 0.4]) == 0.0)
        inactive = Configuration(2, [((1.0, 0.0), 0.0), ((1.0, -1.0), 0.0)])
        assert np.all(tensor_generic(inactive, [0.7, 0.7]) == 0.0)

    def test_singularity_names_offending_member(self):
        c = Configuration(2, [((1.0, -1.0), 2.0)])
        with pytest.raises(SingularityError, match=r"1\.0, -1\.0"):
            tensor_generic(c, [0.5, 0.5])

    def test_permutation_symmetry(self):
        p = BCnParameters(n=3, r=-1.2, s=0.7, q=1.9, m=(0.7, 1.3, 2.1))
        T = tensor_generic(build_bcn(p), [0.9, 0.5, 1.3])
        for perm in itertools.permutations(range(3)):
            assert np.abs(T - np.transpose(T, perm)).max() < 1e-12


BC2 = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))

# every function that evaluates at a point and must keep clear of the hyperplanes
HYPERPLANE_CALLERS = {
    "tensor_generic": lambda x: tensor_generic(build_bcn(BC2), x),
    "ProductContext": lambda x: algebra.ProductContext(build_bcn(BC2), x),
    "RestrictionContext": lambda x: algebra.RestrictionContext(1.0, 1.0, 1.0, Partition(2, (1, 1)), x),
    "bosonic_potential": lambda x: susy.bosonic_potential(build_bcn(BC2), x),
    "phi_matrix": lambda x: susy.phi_matrix(build_bcn(BC2), x, susy.FermionicSpace(2)),
    "gauge_residual": lambda x: susy.gauge_residual(build_bcn(BC2), x),
}


class TestActivePairings:
    def test_active_members_and_their_pairings(self):
        c = Configuration(2, [((1.0, 0.0), 2.0), ((1.0, -1.0), 0.0), ((1.0, 1.0), -0.5)])
        x = np.array([0.7, 0.7])  # on the hyperplane of the inactive member
        A, mult, z = active_pairings(c, x)
        assert A.tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert mult.tolist() == [2.0, -0.5]
        assert z.tolist() == [0.7, 1.4]

    def test_mask_restricts_the_test(self):
        c = Configuration(2, [((1.0, 0.0), 2.0), ((1.0, -1.0), 1.0)])
        A, _, _ = active_pairings(c, [0.7, 0.7], among=np.array([True, False]))
        assert A.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("caller", HYPERPLANE_CALLERS.values(), ids=HYPERPLANE_CALLERS.keys())
    def test_every_caller_names_the_nearest_member(self, caller):
        x = np.array([0.9, 0.899])  # (e_1 - e_2, x) = 1e-3, below the default threshold
        with pytest.raises(SingularityError, match=r"member \[1\.0, -1\.0\]"):
            caller(x)


class TestTensorClosedForm:
    def test_rank_one(self):
        p = BCnParameters(n=1, r=1.7, s=-0.6, q=0.0, m=(1.0,))
        T = tensor_closed_form(p, [0.8])
        assert math.isclose(T[0, 0, 0], 1.7 * COTH(0.8) + 8 * (-0.6) * COTH(1.6), rel_tol=1e-14)

    def test_diagonal_includes_pair_sum(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))
        x = [0.9, 0.4]
        T = tensor_closed_form(p, x)
        _, _, bp = hyperbolic_helpers(x)
        expected = COTH(0.9) + 8 * COTH(1.8) + bp[0, 1]
        assert math.isclose(T[0, 0, 0], expected, rel_tol=1e-13)

    def test_repeated_index_entry(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))
        x = [0.9, 0.4]
        T = tensor_closed_form(p, x)
        _, _, bp = hyperbolic_helpers(x)
        assert math.isclose(T[0, 0, 1], bp[1, 0], rel_tol=1e-13)

    def test_matches_generic_path(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))
        x = np.array([0.9, 0.4])
        G = tensor_generic(build_bcn(p), x)
        C = tensor_closed_form(p, x)
        assert np.abs(G - C).max() < 1e-12


class TestMetricAndH:
    def test_zero_tensor(self):
        assert np.all(metric_B(np.zeros((2, 2, 2)), [0.5, 0.7]) == 0.0)

    def test_metric_is_symmetric(self):
        p = BCnParameters(n=3, r=-1.2, s=0.7, q=1.9, m=(0.7, 1.3, 2.1))
        x = np.array([0.9, 0.5, 1.3])
        B = metric_B(tensor_generic(build_bcn(p), x), x)
        assert np.abs(B - B.T).max() < 1e-12

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
            x = sample_admissible_points(rng, pattern, 1)[0]
            B = metric_B(tensor_generic(build_bcn(p), x), x)
            off = B - np.diag(np.diag(B))
            assert np.abs(off).max() < 1e-10 * max(1.0, np.abs(B).max())

    def test_constraint_gives_diagonal_m_h(self):
        p = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
        x = np.array([0.6, 0.8])
        B = metric_B(tensor_generic(build_bcn(p), x), x)
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
        B = metric_B(tensor_generic(build_bcn(p), [0.5, 0.9]), [0.5, 0.9])
        assert math.isclose(B[0, 0], h_function(p, [0.5, 0.9]), rel_tol=1e-10)


class TestIsAdmissible:
    def setup_method(self):
        self.config = build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0)))

    def test_mirror_point(self):
        assert not is_admissible(self.config, [0.5, 0.5])

    def test_generic_point(self):
        assert is_admissible(self.config, [0.9, 0.4], 0.05)

    def test_margin_below_threshold(self):
        assert not is_admissible(self.config, [0.5, 0.5 + 0.025], 0.05)

    def test_zero_multiplicity_members_ignored(self):
        c = Configuration(2, [((1.0, -1.0), 0.0), ((1.0, 0.0), 1.0)])
        assert is_admissible(c, [0.5, 0.5], 0.05)


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
            pts = sample_admissible_points(rng, pattern, 3, box=(0.4, 1.2), threshold=0.3)
            for x in pts:
                T = tensor_generic(config, x)
                T_fd = fd_tensor(config, x, h=1e-2)
                assert np.abs(T - T_fd).max() < 1e-4
