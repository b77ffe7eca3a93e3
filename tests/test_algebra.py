import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trigwdvv.algebra import (
    RestrictionContext,
    associativity_residual,
    multiply,
    restricted_multiply,
    structure_constants,
    tangency_residuals,
)
from trigwdvv.configurations import (
    BCnParameters,
    Configuration,
    Partition,
    build_bcn,
    solve_r,
)
from trigwdvv.errors import DimensionError, DomainError, SingularityError
from trigwdvv.prepotential import active_pairings, coth, h_function, metric_B, metric_identity_residuals, tensor_generic
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv.wdvv import pivot_residuals

from tests.oracles import (
    associativity_residual_by_multiply,
    restricted_multiply_loop,
    sample_points,
    tangency_residual,
)

BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_BROKEN = BCnParameters(n=3, r=-1.5, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))


def h_b_decomposition(rctx, xt):
    """The restriction's metric-identity residual at ``xt``, as ``verify-restriction`` reports it."""
    return max(metric_identity_residuals(rctx.params, active_pairings(rctx.projected_config, xt), xt))


def block_constant(part, coeffs):
    return part.block_indicators().T @ np.asarray(coeffs, dtype=float)


def compositions(N):
    """Every ordered tuple of positive block sizes summing to N."""
    for k in range(N):
        for cuts in itertools.combinations(range(1, N), k):
            edges = (0, *cuts, N)
            yield tuple(b - a for a, b in zip(edges, edges[1:]))


EVERY_PARTITION = [Partition(N=N, blocks=blocks) for N in range(1, 7) for blocks in compositions(N)]


class TestMultiply:
    def test_bilinearity_at_zero(self):
        config = build_bcn(BC3)
        active = active_pairings(config, [0.9, 0.5, 1.3])
        u = np.array([0.3, -0.7, 1.1])
        assert np.all(multiply(active, np.zeros(3), u) == 0.0)
        assert np.all(multiply(active, u, np.zeros(3)) == 0.0)

    def test_rank_one_gives_structure_constant(self):
        r, s = 1.7, -0.6
        config = Configuration(1, [(1.0,), (2.0,)], [r, s])
        active = active_pairings(config, [0.8])
        e1 = np.array([1.0])
        prod = multiply(active, e1, e1)
        F111 = tensor_generic(active_pairings(config, [0.8]))[0, 0, 0]
        assert math.isclose(prod[0], F111, rel_tol=1e-14)

    def test_commutativity_exact(self):
        config = build_bcn(BC3)
        active = active_pairings(config, [0.9, 0.5, 1.3])
        rng = rng_for(1, "algebra/comm")
        for _ in range(10):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert np.all(multiply(active, u, v) == multiply(active, v, u))

    def test_inadmissible_point_rejected(self):
        with pytest.raises(SingularityError):
            active_pairings(build_bcn(BC3), [0.9, 0.9, 1.3])


def family_metric(p):
    """u o v = (u * v) / m, the product of a family source."""
    return lambda y: y / p.m_array


def b_metric(config, x):
    """u o v = B(x)^{-1} (u * v), the product of an explicit source."""
    B = metric_B(active_pairings(config, x), x)
    return lambda y: np.linalg.solve(B, y)


# the README family and a second one at unequal m, both on the relation
UNEQUAL_M = {
    "m=1,2,2": BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0)),
    "m=2,1,3,1": BCnParameters(n=4, r=-14.0, s=0.5, q=1.0, m=(2.0, 1.0, 3.0, 1.0)),
}


def associativity_values(p, metric, stream, count=20):
    """Associativity residuals of the family ``p`` with the metric "diag(m)", "B" or "identity"."""
    config = build_bcn(p)
    rng = rng_for(42, stream)
    vals = []
    for x in sample_points(rng, fully_active(config), count):
        if metric == "B":
            raise_index = b_metric(config, x)
        else:
            raise_index = family_metric(p) if metric == "diag(m)" else (lambda y: y)
        u, v, w = (rng.standard_normal(p.n) for _ in range(3))
        vals.append(associativity_residual(active_pairings(config, x), u, v, w, raise_index))
    return np.array(vals)


class TestAssociativity:
    def test_theorem_family(self):
        config = build_bcn(BC3)
        pattern = fully_active(config)
        rng = rng_for(42, "assoc/ok")
        worst = 0.0
        for x in sample_points(rng, pattern, 50):
            active = active_pairings(config, x)
            u, v, w = (rng.standard_normal(3) for _ in range(3))
            worst = max(worst, associativity_residual(active, u, v, w, family_metric(BC3)))
        assert worst < 1e-8

    def test_broken_constraint(self):
        config = build_bcn(BC3_BROKEN)
        pattern = fully_active(config)
        rng = rng_for(42, "assoc/broken")
        vals = []
        for x in sample_points(rng, pattern, 50):
            active = active_pairings(config, x)
            u, v, w = (rng.standard_normal(3) for _ in range(3))
            vals.append(associativity_residual(active, u, v, w, family_metric(BC3_BROKEN)))
        assert np.median(vals) > 1e-3

    def test_equal_arguments_associate_exactly(self):
        config = build_bcn(BC3_BROKEN)  # holds regardless of the constraint
        active = active_pairings(config, [0.9, 0.5, 1.3])
        u = np.array([0.4, -1.2, 0.8])
        assert associativity_residual(active, u, u, u, family_metric(BC3_BROKEN)) == 0.0

    @pytest.mark.parametrize("metric", ["diag(m)", "B"])
    @pytest.mark.parametrize("p", UNEQUAL_M.values(), ids=UNEQUAL_M.keys())
    def test_unequal_m_associates_with_the_metric_and_fails_at_r_plus_1(self, p, metric):
        assert associativity_values(p, metric, "assoc/unequal").max() < 1e-12
        broken = BCnParameters(n=p.n, r=p.r + 1.0, s=p.s, q=p.q, m=p.m)
        assert np.median(associativity_values(broken, metric, "assoc/unequal")) > 1e-6

    @pytest.mark.parametrize("p", UNEQUAL_M.values(), ids=UNEQUAL_M.keys())
    def test_euclidean_product_fails_the_theorem_at_unequal_m(self, p):
        # F_i F_j = F_j F_i needs B proportional to the identity, which unequal m breaks
        assert np.median(associativity_values(p, "identity", "assoc/euclidean")) > 1e-3

    def test_family_product_gives_the_structure_constants(self):
        # f_i o f_j = sum_k C_ijk f_k for the projected family at m = block sizes
        part = Partition(N=5, blocks=(2, 3))
        xt = np.array([0.9, 0.4])
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        active = active_pairings(rctx.projected_config, xt)
        C = structure_constants(rctx, rctx.pairings(xt))
        for i, j in itertools.product(range(2), repeat=2):
            e_i, e_j = np.eye(2)[i], np.eye(2)[j]
            assert np.abs(family_metric(rctx.params)(multiply(active, e_i, e_j)) - C[i, j]).max() < 1e-12



@pytest.mark.parametrize("shift", [0.0, 1.0], ids=["theorem", "r+1"])
@pytest.mark.parametrize("metric", ["diag(m)", "B"])
@pytest.mark.parametrize("n", [3, 12, 40])
def test_associativity_residual_is_the_four_multiply_composition_bit_for_bit(n, metric, shift):
    # the four products share one weight and the pairings A u, A v, A w, each grouped as multiply
    # groups it; m alternates 1, 2 at s = 0, so every 2e_i with m_i = 1 is an inactive member
    m = tuple(1.0 + i % 2 for i in range(n))
    p = BCnParameters(n=n, r=solve_r(0.0, 1.0, m) + shift, s=0.0, q=1.0, m=m)
    config = build_bcn(p)
    rng = rng_for(19, "assoc/four-multiply")
    box = (0.3, 4.0) if n > 24 else (0.3, 1.5)  # the default box spaces at most 24 coordinates
    for x in sample_points(rng, fully_active(config), 3, box):
        active = active_pairings(config, x)
        raise_index = family_metric(p) if metric == "diag(m)" else b_metric(config, x)
        u, v, w = rng.standard_normal((3, n))
        got = associativity_residual(active, u, v, w, raise_index)
        assert got == associativity_residual_by_multiply(active, u, v, w, raise_index)
        assert (got > 1e-8) == bool(shift)


def test_associativity_residual_refuses_a_vector_of_the_wrong_shape():
    active = active_pairings(build_bcn(BC3), [0.9, 0.5, 1.3])
    with pytest.raises(DimensionError, match=r"u, v, w must have shape \(3,\)"):
        associativity_residual(active, np.ones(3), np.ones(3), np.ones(4), family_metric(BC3))
    A, c, z = active
    with pytest.raises(DimensionError, match=r"u, v, w must have shape \(2, 3\)"):  # a block of two points
        associativity_residual((A, c, np.stack([z, z])), np.ones((2, 3)), np.ones(3), np.ones((2, 3)),
                               family_metric(BC3))


@pytest.mark.parametrize("shift", [0.0, 1.0], ids=["theorem", "r+1"])
@pytest.mark.parametrize("n", [1, 2, 3, 12, 40])
def test_a_block_of_associativity_residuals_is_each_point_alone_bit_for_bit(n, shift):
    # u, v, w of shape (b, n) and z of (b, M) give a (b,) array of the one-point calls' bits; a point
    # whose u is zero reads 0.0, as both its sides vanish, and a NaN in one point's v moves only its entry
    m = tuple(1.0 + i % 2 for i in range(n))
    p = BCnParameters(n=n, r=solve_r(0.0, 1.0, m) + shift, s=0.0, q=1.0, m=m)
    config = build_bcn(p)
    rng = rng_for(23, "assoc/block")
    box = (0.3, 4.0) if n > 24 else (0.3, 1.5)  # the default box spaces at most 24 coordinates
    xs = sample_points(rng, fully_active(config), 6, box)
    A, c = config.active_members
    z = np.stack([active_pairings(config, x)[2] for x in xs])
    u, v, w = rng.standard_normal((3, 6, n))
    u[2] = 0.0
    v[4, 0] = np.nan
    got = associativity_residual((A, c, z), u, v, w, family_metric(p))
    alone = [associativity_residual((A, c, z[k]), u[k], v[k], w[k], family_metric(p)) for k in range(6)]
    assert all(isinstance(value, float) for value in alone)
    assert got.shape == (6,) and got.tobytes() == np.array(alone).tobytes()
    assert got[2] == 0.0 and np.isnan(got).tolist() == [k == 4 for k in range(6)]
    if n >= 3:
        assert (np.delete(got, [2, 4]) > 1e-8).all() == bool(shift)

@pytest.mark.parametrize("blocks", [(2, 3), (1, 1, 1), (5, 5, 5, 5), (2, 3, 4, 5), (3, 1, 2, 6, 1)],
                         ids=lambda blocks: "-".join(map(str, blocks)))
def test_structure_constants_are_the_restricted_products_to_rounding(blocks):
    # C[i, j] is the block coefficients of f_i * f_j.  C sums w P_i P_j P_k over
    # the members in one GEMM, the restricted product sums over the members and
    # then over each block, so the two agree to the rounding of a sum of M + N
    # terms of |w P_i P_j| sum_{l in block k} |alpha_l|, divided by m_k
    part = Partition(N=sum(blocks), blocks=blocks)
    s, q = 0.5, 1.3
    rctx = RestrictionContext(solve_r(s, q, (1.0,) * part.N), s, q, part)
    F = rctx.block_basis
    rng = rng_for(23, f"structure/bits/{blocks}")
    for xt in sample_points(rng, fully_active(rctx.projected_config), 4):
        active = rctx.pairings(xt)
        A, c, z = active
        C = structure_constants(rctx, active)
        P = np.abs(F @ A.T)
        scale = np.einsum("a,ia,ja,ka->ijk", np.abs(c * coth(z)), P, P, F @ np.abs(A).T) / rctx.m
        bound = (A.shape[0] + part.N) * np.finfo(float).eps * scale
        for i, j in itertools.product(range(part.n), repeat=2):
            assert (np.abs(C[i, j] - (F @ restricted_multiply(rctx, active, F[i], F[j])) / rctx.m) <= bound[i, j]).all()


class TestRestrictedMultiply:
    def test_trivial_partition_matches_full_product(self):
        part = Partition(N=3, blocks=(1, 1, 1))
        xt = np.array([0.9, 0.5, 1.3])
        rctx = RestrictionContext(-2.0, 0.0, 1.0, part)
        config = build_bcn(BC3)
        active = active_pairings(config, xt)
        rng = rng_for(4, "restricted/trivial")
        for _ in range(5):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            got = restricted_multiply(rctx, rctx.pairings(xt), u, v)
            assert np.allclose(got, multiply(active, u, v), atol=1e-14)

    def test_output_is_block_constant(self):
        part = Partition(N=3, blocks=(2, 1))
        rctx = RestrictionContext(1.0, 0.5, 1.0, part)
        f1 = block_constant(part, [1.0, 0.0])
        prod = restricted_multiply(rctx, rctx.pairings([0.9, 0.4]), f1, f1)
        assert abs(prod[0] - prod[1]) <= 1e-12

    def test_closure_over_samples(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(8, "restricted/closure")
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        for xt in sample_points(rng, pattern, 20):
            u = block_constant(part, rng.standard_normal(2))
            v = block_constant(part, rng.standard_normal(2))
            prod = restricted_multiply(rctx, rctx.pairings(xt), u, v)
            for k in range(2):
                rows = prod[part.block_indicators()[k] == 1.0]
                assert rows.max() - rows.min() <= 1e-12 * max(1.0, np.abs(prod).max())

    def test_limit_of_full_product_is_first_order(self):
        part = Partition(N=5, blocks=(2, 3))
        xt = np.array([0.9, 0.4])
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        ambient = build_bcn(BCnParameters(n=5, r=-20.0, s=1.0, q=2.0, m=(1.0,) * 5))
        rng = rng_for(15, "restricted/limit")
        u = block_constant(part, rng.standard_normal(2))
        v = block_constant(part, rng.standard_normal(2))
        limit = restricted_multiply(rctx, rctx.pairings(xt), u, v)
        # fixed seeded direction orthogonal to the block subspace
        d = rng.standard_normal(5)
        F = part.block_indicators()
        for k in range(2):
            fk = F[k]
            d -= (d @ fk) / (fk @ fk) * fk
        d /= np.linalg.norm(d)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            x = block_constant(part, xt) + eps * d
            # the subsystem coth factors are finite off the subspace; the
            # admissibility margin is dropped so the path can approach it
            active = active_pairings(ambient, x, threshold=1e-12)
            errs.append(np.abs(multiply(active, u, v) - limit).max())
        order01 = math.log10(errs[0] / errs[1])
        order12 = math.log10(errs[1] / errs[2])
        assert 0.7 < order01 < 1.3
        assert 0.7 < order12 < 1.3


@pytest.mark.parametrize("part", EVERY_PARTITION, ids=lambda part: "-".join(map(str, part.blocks)))
def test_restricted_product_matches_the_member_loop(part):
    # 63 partitions: every composition of N <= 6, unequal blocks included
    s, q = 0.5, 1.0
    r = solve_r(s, q, (1.0,) * part.N)
    restriction = RestrictionContext(r, s, q, part)
    rng = rng_for(19, f"restricted/loop/{part.blocks}")
    for xt in sample_points(rng, fully_active(restriction.projected_config), 3):
        active = restriction.pairings(xt)
        u = block_constant(part, rng.standard_normal(part.n))
        v = block_constant(part, rng.standard_normal(part.n))
        want = restricted_multiply_loop(part, r, s, q, xt, u, v)
        got = restricted_multiply(restriction, active, u, v)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # C[i, j, k] is the f_k coefficient of f_i * f_j: the loop's value on block k
        first = np.cumsum((0, *part.blocks[:-1]))
        want_C = np.array(
            [[restricted_multiply_loop(part, r, s, q, xt, fi, fj)[first] for fj in restriction.block_basis]
             for fi in restriction.block_basis]
        )
        assert np.abs(structure_constants(restriction, active) - want_C).max() <= 1e-13 * np.abs(want_C).max()


class TestTangency:
    def setup_method(self):
        self.part = Partition(N=3, blocks=(2, 1))
        self.rctx = RestrictionContext(-2.0, 0.0, 1.0, self.part)
        self.active = self.rctx.pairings([0.9, 0.4])

    def test_tangent_pairs_sum_to_zero(self):
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 1.0))))
        rng = rng_for(16, "tangency/sweep")
        worst = 0.0
        for xt in sample_points(rng, pattern, 50):
            u = block_constant(self.part, rng.standard_normal(2))
            v = block_constant(self.part, rng.standard_normal(2))
            worst = max(worst, tangency_residuals(self.rctx, self.rctx.pairings(xt), u, v).max())
        assert worst < 1e-10

    def test_non_tangent_input_breaks_identity(self):
        rng = rng_for(17, "tangency/neg")
        vals = []
        for _ in range(20):
            u = rng.standard_normal(3)  # not block-constant
            v = block_constant(self.part, rng.standard_normal(2))
            vals.append(tangency_residuals(self.rctx, self.active, u, v).max())
        assert np.median(vals) > 1e-3

    def test_empty_subsystem_gives_no_residuals(self):
        part = Partition(N=2, blocks=(1, 1))
        rctx = RestrictionContext(1.0, 1.0, 1.0, part)
        assert tangency_residuals(rctx, rctx.pairings([0.9, 0.4]), np.ones(2), np.ones(2)).shape == (0,)

    def test_refuses_a_vector_of_the_wrong_shape(self):
        rctx = RestrictionContext(-6.0, 0.5, 1.0, Partition(N=5, blocks=(2, 3)))
        with pytest.raises(DimensionError, match=r"u, v must have shape \(5,\)"):
            tangency_residuals(rctx, rctx.pairings([0.9, 0.4]), np.ones(4), np.ones(5))

    def test_builds_no_subsystem_by_member_array(self):
        # the (S x M) array of pairwise summands would be about 19 A's at this size
        part = Partition(N=80, blocks=(20, 20, 20, 20))
        rctx = RestrictionContext(-156.0, 0.0, 1.0, part)
        active = rctx.pairings([0.5, 0.9, 1.3, 1.7])
        u = block_constant(part, [1.0, 2.0, 3.0, 4.0])
        tracemalloc.start()
        try:
            tangency_residuals(rctx, active, u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * active[0].nbytes

    @pytest.mark.parametrize("blocks", [(2, 3), (5, 5, 5, 5)])
    def test_rows_are_the_multiply_route_bit_for_bit(self, blocks):
        # u * v is A^T t from the one t of the bound, grouped as multiply groups it
        part = Partition(N=sum(blocks), blocks=blocks)
        rctx = RestrictionContext(-2.0 * (part.N - 2) + 1.0, 0.0, 1.0, part)
        rng = rng_for(20, "tangency/multiply")
        for xt in sample_points(rng, fully_active(rctx.projected_config), 3):
            active = rctx.pairings(xt)
            u, v = rng.standard_normal(part.N), block_constant(part, rng.standard_normal(part.n))
            A, c, z = active
            t = c * coth(z) * ((A @ u) * (A @ v))
            bound = np.abs(rctx.subsystem) @ (np.abs(A).T @ np.abs(t))
            want = np.abs(rctx.subsystem @ multiply(active, u, v)) / np.maximum(1.0, bound)
            assert np.array_equal(tangency_residuals(rctx, active, u, v), want)

    @pytest.mark.parametrize("blocks", [(2, 1), (2, 3), (5, 5, 5, 5), (10, 10, 10, 10)])
    def test_rows_equal_the_single_alpha_oracle(self, blocks):
        part = Partition(N=sum(blocks), blocks=blocks)
        n = len(blocks)
        restriction = RestrictionContext(-2.0 * (part.N - 2), 0.5, 1.0, part)
        pattern = fully_active(restriction.projected_config)
        rng = rng_for(18, "tangency/oracle")
        for xt in sample_points(rng, pattern, 5):
            active = restriction.pairings(xt)
            # a non-tangent u keeps the sums away from zero
            u, v = rng.standard_normal(part.N), block_constant(part, rng.standard_normal(n))
            expected = np.array([tangency_residual(restriction, active, u, v, a) for a in restriction.subsystem])
            got = tangency_residuals(restriction, active, u, v)
            assert got.shape == expected.shape and len(expected) > 0
            # the kernel sums over the members before pairing with alpha, so each
            # row agrees with the oracle to the rounding of a sum of M + N terms
            A, c, z = active
            t = c * (A @ u) * (A @ v) * coth(z)
            scale = np.abs(restriction.subsystem) @ (np.abs(A).T @ np.abs(t))
            bound = (A.shape[0] + part.N) * np.finfo(float).eps * scale / np.maximum(1.0, scale)
            assert (np.abs(got - expected) <= bound).all()


class TestRestrictionContext:
    @pytest.mark.parametrize("blocks", [(2, 3), (1, 1, 1), (2, 3, 4, 5), (5, 5, 5, 5)])
    def test_subsystem_and_outside_partition_bc_n(self, blocks):
        # every member of BC_N is in exactly one part, in BC_N's order and with its multiplicity
        part = Partition(N=sum(blocks), blocks=blocks)
        rctx = RestrictionContext(-2.0 * (part.N - 2), 0.5, 1.0, part)
        bc = build_bcn(BCnParameters(n=part.N, r=-2.0 * (part.N - 2), s=0.5, q=1.0, m=(1.0,) * part.N))
        block = np.repeat(np.arange(part.n), blocks)
        sums = np.stack([np.bincount(block, weights=v, minlength=part.n) for v in bc.vectors])
        inside = (sums == 0.0).all(axis=1)  # the within-block differences
        assert inside.sum() == sum(b * (b - 1) // 2 for b in blocks)
        V, c = rctx.outside
        assert len(rctx.subsystem) + len(V) == len(bc)
        assert np.array_equal(rctx.subsystem, bc.vectors[inside])
        assert np.array_equal(V, bc.vectors[~inside])
        assert np.array_equal(c, bc.multiplicities[~inside])
        assert not (V[:, None] == rctx.subsystem).all(axis=2).any()
        assert not V.flags.writeable and not c.flags.writeable

    @pytest.mark.parametrize("s", [0.0, 0.5], ids=["some-inactive", "all-active"])
    def test_outside_active_is_the_nonzero_selection_made_once(self, s):
        # at s = 0 every 2e_i of BC_N has multiplicity 0: A and c are selected once, read-only,
        # and every call of pairings returns them
        part = Partition(N=5, blocks=(2, 3))
        rctx = RestrictionContext(-2.0 * (part.N - 2) - 8.0 * s, s, 1.0, part)
        (V, c), (A, c_active) = rctx.outside, rctx.outside_active
        keep = c != 0.0
        assert keep.sum() == (len(c) if s else len(c) - part.N)
        assert np.array_equal(A, V[keep]) and np.array_equal(c_active, c[keep])
        assert (A is V) == bool(s) and not A.flags.writeable and not c_active.flags.writeable
        got = rctx.pairings([[0.9, 0.4], [1.1, 0.6]])
        assert got[0] is A and got[1] is c_active

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 2, 3), (5, 5, 5, 5), (40, 40)],
                             ids=["2-3", "1-2-3", "5-5-5-5", "40-40"])
    def test_pairings_are_the_outside_pairings_at_the_embedded_point(self, blocks):
        # z = P^T x~ equals the pairings of the outside members at sum_k x~_k f_k in R^N bit for bit, on a
        # block of sampled points and one point 1e-3 from the wall x~_1 = x~_2, which pairings do not refuse
        part = Partition(N=sum(blocks), blocks=blocks)
        rctx = RestrictionContext(-2.0 * (part.N - 2), 0.5, 1.0, part)
        outside = Configuration(part.N, *rctx.outside)
        xt = sample_points(rng_for(3, f"pairings/embedded/{blocks}"), fully_active(rctx.projected_config), 6,
                           box=(-1.0, 1.0))
        if part.n > 1:
            xt[-1, 1] = xt[-1, 0] + 1e-3
        A, c, z = rctx.pairings(xt)
        want = [active_pairings(outside, block_constant(part, x), threshold=0.0) for x in xt]
        assert all(np.array_equal(a, A) and np.array_equal(b, c) for a, b, _ in want)
        assert np.array_equal(z, np.stack([w for _, _, w in want]))

    @pytest.mark.parametrize("xt", [[0.9], [0.9, 0.4, 0.2], [[0.9]], [[[0.9, 0.4]]]],
                             ids=["short", "long", "short-block", "3-d"])
    def test_pairings_refuse_a_point_of_the_wrong_shape(self, xt):
        rctx = RestrictionContext(-20.0, 1.0, 2.0, Partition(N=5, blocks=(2, 3)))
        with pytest.raises(DimensionError, match=r"^point has shape .*, expected \(2,\) or \(b, 2\)$"):
            rctx.pairings(xt)

    def test_pairings_refuse_the_first_refused_point_of_a_block(self):
        # a block is refused as its first non-finite point alone is, with active_pairings' text
        rctx = RestrictionContext(-20.0, 1.0, 2.0, Partition(N=5, blocks=(2, 3)))
        bad = [np.nan, 0.4]
        with pytest.raises(DomainError, match=r"^point \[nan, 0\.4\] is not finite$"):
            rctx.pairings(bad)
        with pytest.raises(DomainError, match=r"^point \[nan, 0\.4\] is not finite$"):
            rctx.pairings([[1.1, 0.5], bad, [0.7, 0.8]])


def _restriction_block(blocks, b=6):
    """(rctx, x~ (b, n), u (b, N), v (b, N)) at seeded admissible points of the theorem family at ``blocks``,
    s = 0 so that the 2e_i are inactive; u is not tangent, so the tangency sums stay away from zero."""
    part = Partition(N=sum(blocks), blocks=blocks)
    rctx = RestrictionContext(-2.0 * (part.N - 2), 0.0, 1.0, part)
    rng = rng_for(29, f"restriction/block/{blocks}")
    xt = np.array(sample_points(rng, fully_active(rctx.projected_config), b))
    u = rng.standard_normal((b, part.N))
    v = rng.standard_normal((b, part.n)) @ rctx.block_basis
    return rctx, xt, u, v


@pytest.mark.parametrize("blocks", [(2, 3), (5, 5, 5, 5)], ids=["2-3", "5-5-5-5"])
def test_a_block_of_restriction_values_is_each_point_alone_bit_for_bit(blocks):
    # pairings, structure_constants and tangency_residuals on x~ of shape (b, n) give the bits of
    # b one-point calls, point by point
    rctx, xt, u, v = _restriction_block(blocks)
    A, c, z = rctx.pairings(xt)
    alone = [rctx.pairings(x) for x in xt]
    assert z.shape == (len(xt), len(A)) and z.tobytes() == np.stack([a[2] for a in alone]).tobytes()
    C = structure_constants(rctx, (A, c, z))
    assert C.shape == (len(xt), *(len(blocks),) * 3)
    assert C.tobytes() == np.stack([structure_constants(rctx, a) for a in alone]).tobytes()
    tangency = tangency_residuals(rctx, (A, c, z), u, v)
    assert tangency.shape == (len(xt), len(rctx.subsystem)) and (tangency > 1e-8).all()
    assert tangency.tobytes() == np.stack([tangency_residuals(rctx, a, u[k], v[k]) for k, a in enumerate(alone)]).tobytes()


def test_tangency_residuals_refuse_vectors_without_the_leading_axis():
    rctx, xt, u, v = _restriction_block((2, 3), b=2)
    with pytest.raises(DimensionError, match=r"u, v must have shape \(2, 5\)"):  # a block of two points
        tangency_residuals(rctx, rctx.pairings(xt), u[0], v)


class TestStructureConstants:
    def test_trivial_partition_reduces_to_tensor(self):
        part = Partition(N=3, blocks=(1, 1, 1))
        xt = np.array([0.9, 0.5, 1.3])
        rctx = RestrictionContext(-2.0, 0.0, 1.0, part)
        C = structure_constants(rctx, rctx.pairings(xt))
        F = tensor_generic(active_pairings(build_bcn(BC3), xt))
        assert np.abs(C - F).max() < 1e-12

    def test_two_path_agreement(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(23, "structure/two-path")
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        for xt in sample_points(rng, pattern, 20):
            C = structure_constants(rctx, rctx.pairings(xt))
            Ft = tensor_generic(active_pairings(rctx.projected_config, xt))
            expected = Ft / rctx.m
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(C - expected).max() < 1e-10 * scale

    def test_associativity_equals_wdvv_with_block_metric(self):
        # structure constants associate exactly when the projected tensor
        # satisfies the pair equations with B = diag(m)
        part = Partition(N=5, blocks=(2, 3))
        xt = np.array([0.9, 0.4])
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        Ft = tensor_generic(active_pairings(rctx.projected_config, xt))
        H = np.diag(rctx.m)
        assert pivot_residuals(Ft, H[None])[0][0][0] < 1e-12


class TestHBDecomposition:
    def test_constraint_family(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(31, "hb/ok")
        rctx = RestrictionContext(-20.0, 1.0, 2.0, part)
        for xt in sample_points(rng, pattern, 20):
            assert h_b_decomposition(rctx, xt) < 1e-10

    def test_broken_constraint(self):
        part = Partition(N=5, blocks=(2, 3))
        pattern = fully_active(build_bcn(BCnParameters(n=2, r=1, s=1, q=1, m=(2.0, 3.0))))
        rng = rng_for(31, "hb/broken")
        rctx = RestrictionContext(-19.5, 1.0, 2.0, part)
        vals = [h_b_decomposition(rctx, xt) for xt in sample_points(rng, pattern, 20)]
        assert min(vals) > 1e-6

    def test_single_block_scalar_case(self):
        # n = 1: m_1 = h^{-1} sinh(2 x~_1) F~_111
        N = 4
        r = -8.0 * 0.5 - 2.0 * 1.0 * (N - 2)
        part = Partition(N=N, blocks=(N,))
        xt = np.array([0.7])
        rctx = RestrictionContext(r, 0.5, 1.0, part)
        assert h_b_decomposition(rctx, xt) < 1e-12
        F111 = tensor_generic(active_pairings(rctx.projected_config, xt))[0, 0, 0]
        h = h_function(rctx.params, xt)
        assert math.isclose(math.sinh(2 * 0.7) / h * F111, float(N), rel_tol=1e-12)

    def test_h_zero_gives_a_finite_residual(self):
        # r = s = q = 0: h = 0 and every multiplicity is 0; nothing divides by h
        part = Partition(N=2, blocks=(2,))
        rctx = RestrictionContext(0.0, 0.0, 0.0, part)
        xt = np.array([0.7])
        assert h_function(rctx.params, xt) == 0.0
        assert metric_identity_residuals(rctx.params, active_pairings(rctx.projected_config, xt), xt) == (0.0, 0.0)
