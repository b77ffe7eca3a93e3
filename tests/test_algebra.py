import math

import numpy as np
import pytest

from trigwdvv.algebra import (
    ProductContext,
    RestrictionContext,
    associativity_residual,
    h_b_decomposition_residual,
    multiply,
    restricted_multiply,
    structure_constants,
    tangency_residual,
)
from trigwdvv.configurations import (
    BCnParameters,
    Configuration,
    Partition,
    build_bcn,
    build_bcN_root_system,
)
from trigwdvv.errors import DegenerateHError, PreconditionError, SingularityError
from trigwdvv.prepotential import metric_B, tensor_generic
from trigwdvv.sampling import fully_active, rng_for, sample_admissible_points
from trigwdvv.wdvv import pivot_residuals

BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_BROKEN = BCnParameters(n=3, r=-1.5, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))


def block_constant(part, coeffs):
    return part.block_indicators().T @ np.asarray(coeffs, dtype=float)


class TestMultiply:
    def test_bilinearity_at_zero(self):
        config = build_bcn(BC3)
        ctx = ProductContext(config, [0.9, 0.5, 1.3])
        u = np.array([0.3, -0.7, 1.1])
        assert np.all(multiply(ctx, np.zeros(3), u) == 0.0)
        assert np.all(multiply(ctx, u, np.zeros(3)) == 0.0)

    def test_rank_one_gives_structure_constant(self):
        r, s = 1.7, -0.6
        config = Configuration(1, [((1.0,), r), ((2.0,), s)])
        ctx = ProductContext(config, [0.8])
        e1 = np.array([1.0])
        prod = multiply(ctx, e1, e1)
        F111 = tensor_generic(config, [0.8])[0, 0, 0]
        assert math.isclose(prod[0], F111, rel_tol=1e-14)

    def test_commutativity_exact(self):
        config = build_bcn(BC3)
        ctx = ProductContext(config, [0.9, 0.5, 1.3])
        rng = rng_for(1, "algebra/comm")
        for _ in range(10):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert np.all(multiply(ctx, u, v) == multiply(ctx, v, u))

    def test_inadmissible_point_rejected(self):
        with pytest.raises(SingularityError):
            ProductContext(build_bcn(BC3), [0.9, 0.9, 1.3])


class TestAssociativity:
    def test_theorem_family(self):
        config = build_bcn(BC3)
        pattern = fully_active(config)
        rng = rng_for(42, "assoc/ok")
        worst = 0.0
        for x in sample_admissible_points(rng, pattern, 50):
            ctx = ProductContext(config, x)
            u, v, w = (rng.standard_normal(3) for _ in range(3))
            worst = max(worst, associativity_residual(ctx, u, v, w))
        assert worst < 1e-8

    def test_broken_constraint(self):
        config = build_bcn(BC3_BROKEN)
        pattern = fully_active(config)
        rng = rng_for(42, "assoc/broken")
        vals = []
        for x in sample_admissible_points(rng, pattern, 50):
            ctx = ProductContext(config, x)
            u, v, w = (rng.standard_normal(3) for _ in range(3))
            vals.append(associativity_residual(ctx, u, v, w))
        assert np.median(vals) > 1e-3

    def test_equal_arguments_associate_exactly(self):
        config = build_bcn(BC3_BROKEN)  # holds regardless of the constraint
        ctx = ProductContext(config, [0.9, 0.5, 1.3])
        u = np.array([0.4, -1.2, 0.8])
        assert associativity_residual(ctx, u, u, u) == 0.0


class TestRestrictedMultiply:
    def test_trivial_partition_matches_full_product(self):
        part = Partition(N=3, blocks=(1, 1, 1))
        xt = np.array([0.9, 0.5, 1.3])
        rctx = RestrictionContext(-2.0, 0.0, 1.0, part, xt)
        config = build_bcN_root_system(3, -2.0, 0.0, 1.0)
        ctx = ProductContext(config, xt)
        rng = rng_for(4, "restricted/trivial")
        for _ in range(5):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(restricted_multiply(rctx, u, v), multiply(ctx, u, v), atol=1e-14)

    def test_output_is_block_constant(self):
        part = Partition(N=3, blocks=(2, 1))
        rctx = RestrictionContext(1.0, 0.5, 1.0, part, np.array([0.9, 0.4]))
        f1 = block_constant(part, [1.0, 0.0])
        prod = restricted_multiply(rctx, f1, f1)
        assert abs(prod[0] - prod[1]) <= 1e-12

    def test_closure_over_samples(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(8, "restricted/closure")
        for xt in sample_admissible_points(rng, pattern, 20):
            rctx = RestrictionContext(-20.0, 1.0, 2.0, part, xt)
            u = block_constant(part, rng.standard_normal(2))
            v = block_constant(part, rng.standard_normal(2))
            prod = restricted_multiply(rctx, u, v)
            for k in range(2):
                rows = prod[part.block_indicators()[k] == 1.0]
                assert rows.max() - rows.min() <= 1e-12 * max(1.0, np.abs(prod).max())

    def test_limit_of_full_product_is_first_order(self):
        part = Partition(N=5, blocks=(2, 3))
        xt = np.array([0.9, 0.4])
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part, xt)
        ambient = rctx.ambient_config
        rng = rng_for(15, "restricted/limit")
        u = block_constant(part, rng.standard_normal(2))
        v = block_constant(part, rng.standard_normal(2))
        limit = restricted_multiply(rctx, u, v)
        # fixed seeded direction orthogonal to the block subspace
        d = rng.standard_normal(5)
        F = part.block_indicators()
        for k in range(2):
            fk = F[k]
            d -= (d @ fk) / (fk @ fk) * fk
        d /= np.linalg.norm(d)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            x = rctx.x_embedded + eps * d
            # the subsystem coth factors are finite off the subspace; the
            # admissibility margin is dropped so the path can approach it
            ctx = ProductContext(ambient, x, threshold=1e-12)
            errs.append(np.abs(multiply(ctx, u, v) - limit).max())
        order01 = math.log10(errs[0] / errs[1])
        order12 = math.log10(errs[1] / errs[2])
        assert 0.7 < order01 < 1.3
        assert 0.7 < order12 < 1.3


class TestTangency:
    def setup_method(self):
        self.part = Partition(N=3, blocks=(2, 1))
        self.rctx = RestrictionContext(-2.0, 0.0, 1.0, self.part, np.array([0.9, 0.4]))
        self.alpha = np.array([1.0, -1.0, 0.0])

    def test_tangent_pairs_sum_to_zero(self):
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 1.0))))
        rng = rng_for(16, "tangency/sweep")
        worst = 0.0
        for xt in sample_admissible_points(rng, pattern, 50):
            rctx = RestrictionContext(-2.0, 0.0, 1.0, self.part, xt)
            u = block_constant(self.part, rng.standard_normal(2))
            v = block_constant(self.part, rng.standard_normal(2))
            worst = max(worst, tangency_residual(rctx, u, v, self.alpha))
        assert worst < 1e-10

    def test_non_tangent_input_breaks_identity(self):
        rng = rng_for(17, "tangency/neg")
        vals = []
        for _ in range(20):
            u = rng.standard_normal(3)  # not block-constant
            v = block_constant(self.part, rng.standard_normal(2))
            vals.append(tangency_residual(self.rctx, u, v, self.alpha))
        assert np.median(vals) > 1e-3

    def test_empty_subsystem_rejected(self):
        part = Partition(N=2, blocks=(1, 1))
        rctx = RestrictionContext(1.0, 1.0, 1.0, part, np.array([0.9, 0.4]))
        with pytest.raises(PreconditionError):
            tangency_residual(rctx, np.ones(2), np.ones(2), np.array([1.0, -1.0]))

    def test_alpha_outside_subsystem_rejected(self):
        with pytest.raises(PreconditionError):
            tangency_residual(
                self.rctx, np.ones(3), np.ones(3), np.array([1.0, 0.0, -1.0])
            )


class TestStructureConstants:
    def test_trivial_partition_reduces_to_tensor(self):
        part = Partition(N=3, blocks=(1, 1, 1))
        xt = np.array([0.9, 0.5, 1.3])
        rctx = RestrictionContext(-2.0, 0.0, 1.0, part, xt)
        C = structure_constants(rctx)
        F = tensor_generic(build_bcN_root_system(3, -2.0, 0.0, 1.0), xt)
        assert np.abs(C - F).max() < 1e-12

    def test_two_path_agreement(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(23, "structure/two-path")
        for xt in sample_admissible_points(rng, pattern, 20):
            rctx = RestrictionContext(-20.0, 1.0, 2.0, part, xt)
            C = structure_constants(rctx)
            Ft = tensor_generic(rctx.projected_config, xt)
            expected = np.einsum("ijk,k->ijk", Ft, 1.0 / rctx.m)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(C - expected).max() < 1e-10 * scale

    def test_associativity_equals_wdvv_with_block_metric(self):
        # structure constants associate exactly when the projected tensor
        # satisfies the pair equations with B = diag(m)
        part = Partition(N=5, blocks=(2, 3))
        xt = np.array([0.9, 0.4])
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part, xt)
        Ft = tensor_generic(rctx.projected_config, xt)
        H = np.diag(rctx.m)
        assert pivot_residuals(Ft, H[None])[0][0, 0, 1] < 1e-12


class TestHBDecomposition:
    def test_constraint_family(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(31, "hb/ok")
        for xt in sample_admissible_points(rng, pattern, 20):
            rctx = RestrictionContext(-20.0, 1.0, 2.0, part, xt)
            assert h_b_decomposition_residual(rctx) < 1e-10

    def test_broken_constraint(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(31, "hb/broken")
        vals = []
        for xt in sample_admissible_points(rng, pattern, 20):
            rctx = RestrictionContext(-19.5, 1.0, 2.0, part, xt)
            vals.append(h_b_decomposition_residual(rctx))
        assert min(vals) > 1e-6

    def test_single_block_scalar_case(self):
        # n = 1: m_1 = h^{-1} sinh(2 x~_1) F~_111
        N = 4
        r = -8.0 * 0.5 - 2.0 * 1.0 * (N - 2)
        part = Partition(N=N, blocks=(N,))
        xt = np.array([0.7])
        rctx = RestrictionContext(r, 0.5, 1.0, part, xt)
        assert h_b_decomposition_residual(rctx) < 1e-12
        F111 = tensor_generic(rctx.projected_config, xt)[0, 0, 0]
        from trigwdvv.prepotential import h_function

        h = h_function(rctx.params(), xt)
        assert math.isclose(math.sinh(2 * 0.7) / h * F111, float(N), rel_tol=1e-12)

    def test_h_near_zero_rejected(self):
        part = Partition(N=2, blocks=(2,))
        rctx = RestrictionContext(0.0, 0.0, 0.0, part, np.array([0.7]))
        with pytest.raises(DegenerateHError):
            h_b_decomposition_residual(rctx)
