import copy
import math
import re

import numpy as np
import pytest

from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import DomainError, ParameterError
from trigwdvv.prepotential import (
    _hyperbolic_helpers,
    _two_path,
    active_pairings,
    closed_form_arrows,
    h_function,
    metric_B,
    metric_identity_residuals,
    tensor_generic,
)
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv import susy
from trigwdvv.susy import (
    _potential_sums,
    bosonic_potential,
    build_hat_configuration,
    gauge_residual,
)
from trigwdvv.wdvv import arrow_residuals, arrow_slices

from tests.oracles import (
    DENSE_N_CAP,
    DenseFermionicSpace,
    FermionicSpace,
    MarginError,
    anticommutation_residual,
    anticommutator,
    dense_anticommutation_residual,
    gauge_residual_fd,
    gaussian_field,
    metric_B_einsum,
    metric_identity_residuals_masked,
    phi_matrix,
    polynomial_field,
    sample_points,
    sinh_product_field,
    tensor_closed_form_loop,
)

M23 = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
BC2_HAT = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))

# gauge stencils keep second order only well away from the mirrors: the
# truncation term scales like margin^-4 at step 1e-3
GAUGE_THETA = 0.6


def hat_tensor(p, x_hat):
    return tensor_generic(active_pairings(build_hat_configuration(p).config, x_hat))


def base_members(p, x_hat):
    """(A sqrt(m), c, z): the hat's active members at x^ as the base covectors, which pair with
    x = x^ / sqrt(m) as the hat's members pair with x^."""
    A, c, z = active_pairings(build_hat_configuration(p).config, x_hat)
    return A * np.sqrt(p.m_array), c, z


class TestHatConfiguration:
    def test_unit_m_reduces_to_plain_family(self):
        p = BCnParameters(n=3, r=1.0, s=-0.5, q=2.0, m=(1.0, 1.0, 1.0))
        hat, plain = build_hat_configuration(p).config, build_bcn(p)
        assert np.array_equal(hat.vectors, plain.vectors)
        assert np.array_equal(hat.multiplicities, plain.multiplicities)

    def test_short_vector_scaling(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(4.0, 1.0))
        first_vector, _ = build_hat_configuration(p).config.members[0]
        assert first_vector == (0.5, 0.0)

    def test_pairing_invariance(self):
        p = BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(4.0, 2.25))
        hat = build_hat_configuration(p).config
        x = np.array([0.7, 1.1])
        x_hat = np.sqrt(p.m_array) * x
        # short covectors pair with x_hat exactly as e_i pairs with x
        for i in range(2):
            assert math.isclose(float(hat.vectors[i] @ x_hat), x[i], rel_tol=1e-15)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ParameterError):
            build_hat_configuration(BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, -2.0)))


class TestHatTensor:
    def test_unit_m_equals_base_tensor(self):
        p = BCnParameters(n=2, r=1.0, s=0.5, q=1.5, m=(1.0, 1.0))
        x = np.array([0.9, 0.4])
        assert np.abs(hat_tensor(p, x) - tensor_generic(active_pairings(build_bcn(p), x))).max() < 1e-14

    @pytest.mark.parametrize(
        "params",
        [
            M23,
            BCnParameters(n=3, r=-0.8, s=1.2, q=0.9, m=(0.7, 1.3, 2.1)),
        ],
    )
    def test_two_path_agreement(self, params):
        pattern = fully_active(build_hat_configuration(params).config)
        rng = rng_for(42, f"hat/two-path/{params.n}")
        sq = np.sqrt(params.m_array)
        for xh in sample_points(rng, pattern, 20):
            # the rescaled tensor in base coordinates against the dense closed form at x = x^ / sqrt(m),
            # and its arrows, F_ikk = sqrt(m_i) m_k F^_ikk, as verify-susy maps them, against the closed form's
            base = np.einsum("klt,k,l,t->klt", hat_tensor(params, xh), sq, sq, sq)
            closed = tensor_closed_form_loop(params, xh / sq)
            scale = max(1.0, np.abs(closed).max())
            assert np.abs(base - closed).max() < 1e-10 * scale
            V = arrow_slices(active_pairings(build_hat_configuration(params).config, xh))
            assert np.abs(V * sq[:, None] * params.m_array - closed_form_arrows(params, xh / sq)).max() < 1e-10 * scale

    def test_metric_is_h_times_identity(self):
        # B^ - h I = D^{-1/2} (B - h D) D^{-1/2} with D = diag(m): the rescaled
        # tensor mapped back to base coordinates meets the unscaled identity
        pattern = fully_active(build_hat_configuration(M23).config)
        rng = rng_for(42, "hat/metric")
        sq = np.sqrt(M23.m_array)
        for xh in sample_points(rng, pattern, 20):
            base = np.einsum("klt,k,l,t->klt", hat_tensor(M23, xh), sq, sq, sq)
            assert max(metric_identity_residuals_masked(M23, base, xh / sq)) < 1e-10
            # the base covectors' B, which verify-susy reads, meets it too
            assert max(metric_identity_residuals(M23, base_members(M23, xh), xh / sq)) < 1e-10

    def test_rescaled_metric_is_the_conjugated_base_metric(self):
        # B^ = sum_k m_k^{1/2} sinh(2 m_k^{-1/2} x^_k) F^_k, summed directly,
        # equals D^{-1/2} B D^{-1/2} at x = x^ / sqrt(m) for any (r, s, q)
        p = BCnParameters(n=3, r=-0.8, s=1.2, q=0.9, m=(0.7, 1.3, 2.1))
        pattern = fully_active(build_hat_configuration(p).config)
        rng = rng_for(42, "hat/metric/conjugation")
        sq = np.sqrt(p.m_array)
        for xh in sample_points(rng, pattern, 10):
            T = hat_tensor(p, xh)
            hat_B = np.einsum("k,klt->lt", sq * np.sinh(2.0 * xh / sq), T)
            # B from the base covectors, as verify-susy reads it, and by the einsum definition from the
            # rescaled tensor mapped back to base coordinates
            base = np.einsum("klt,k,l,t->klt", T, sq, sq, sq)
            for B in (metric_B(base_members(p, xh), xh / sq), metric_B_einsum(base, xh / sq)):
                conjugated = B / np.outer(sq, sq)
                assert np.abs(hat_B - conjugated).max() < 1e-12 * max(1.0, np.abs(hat_B).max())


class TestBosonicPotential:
    def test_single_covector_formula(self):
        c = 1.7
        config = Configuration(1, [(1.0,)], [c])
        x = np.array([0.8])
        expected = 0.5 * c / math.sinh(0.8) ** 2 + 0.25 * c**2 / math.tanh(0.8) ** 2
        assert math.isclose(bosonic_potential(active_pairings(config, x)), expected, rel_tol=1e-14)

    def test_all_zero_multiplicities(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=0.0, m=(1.0, 1.0))
        hat = build_hat_configuration(p)
        assert bosonic_potential(active_pairings(hat.config, np.array([0.7, 0.3]))) == 0.0

    def test_matches_reversed_literal_summation(self):
        from tests.oracles import bosonic_potential_reversed

        hat = build_hat_configuration(BC2_HAT)
        x = np.array([0.7, 0.3])
        a = bosonic_potential(active_pairings(hat.config, x))
        b = bosonic_potential_reversed(hat.config, x)
        assert math.isclose(a, b, rel_tol=1e-12)


class TestFermionicSpace:
    def test_dimension_and_nilpotency(self):
        fs = DenseFermionicSpace(1)
        assert fs.dim == 4
        ops = [fs.psi[0][0], fs.psi[1][0]]
        for A in ops:
            for B in ops:
                assert np.abs(anticommutator(A, B)).max() == 0.0

    def test_same_mode_pairing(self):
        fs = DenseFermionicSpace(1)
        anti = anticommutator(fs.psi[0][0], fs.psibar[0][0])
        assert np.array_equal(anti, -0.5 * np.eye(4))

    def test_cross_mode_pairing_vanishes(self):
        fs = DenseFermionicSpace(2)
        anti = anticommutator(fs.psi[0][0], fs.psibar[1][1])
        assert np.abs(anti).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_pairings_exact(self, n):
        fs = DenseFermionicSpace(n)
        eye = np.eye(fs.dim)
        modes = [(a, j) for a in range(2) for j in range(n)]
        worst = 0.0
        for a, j in modes:
            for b, k in modes:
                worst = max(worst, np.abs(anticommutator(fs.psi[a][j], fs.psi[b][k])).max())
                worst = max(worst, np.abs(anticommutator(fs.psibar[a][j], fs.psibar[b][k])).max())
                expected = -0.5 * eye if (a, j) == (b, k) else 0.0
                mixed = anticommutator(fs.psi[a][j], fs.psibar[b][k]) - expected
                worst = max(worst, np.abs(mixed).max())
        assert worst <= 1e-13
        assert anticommutation_residual(FermionicSpace(n)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arrays_scatter_to_dense_operators(self, n):
        fs = FermionicSpace(n)
        dense = DenseFermionicSpace(n)
        expected = [M for row in dense.psi for M in row] + [M for row in dense.psibar for M in row]
        assert fs.targets.shape == fs.coefficients.shape == (4 * n, fs.dim)
        assert not fs.targets.flags.writeable and not fs.coefficients.flags.writeable
        assert fs.targets.min() >= 0 and fs.targets.max() < fs.dim
        for k, M in enumerate(expected):
            got = np.zeros((fs.dim, fs.dim))
            got[fs.targets[k], np.arange(fs.dim)] = fs.coefficients[k]
            assert np.array_equal(got, M), k

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_residual_exact_beyond_dense_reach(self, n):
        assert anticommutation_residual(FermionicSpace(n)) == 0.0

    def test_cap(self):
        # the dense oracle stops at dim 1024 with a ParameterError; the signed-permutation
        # arrays have no cap of their own, and past n = 7 are only bounded by memory
        with pytest.raises(ParameterError, match=f"n = {DENSE_N_CAP + 1} exceeds the dense fermionic cap"):
            DenseFermionicSpace(DENSE_N_CAP + 1)
        fs = FermionicSpace(8)
        assert fs.dim == 4**8 and fs.targets.shape == fs.coefficients.shape == (32, 4**8)

    @pytest.mark.parametrize("space", [DenseFermionicSpace, FermionicSpace])
    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_1_is_refused(self, space, n):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            space(n)

    @pytest.mark.parametrize("n", [2.5, "2", True], ids=["fractional", "string", "bool"])
    def test_n_that_is_not_an_integer_is_refused(self, n):
        with pytest.raises(ParameterError, match="n must be an integer"):
            FermionicSpace(n)

    def test_an_integral_float_reads_as_an_int(self):
        fs = FermionicSpace(2.0)
        assert type(fs.n) is int and fs.n == 2 and fs.dim == 16
        assert np.array_equal(fs.targets, FermionicSpace(2).targets)


def with_arrays(fs, targets=None, coefficients=None):
    """A copy of ``fs`` with its operator arrays replaced."""
    out = copy.copy(fs)
    if targets is not None:
        out.targets = targets
    if coefficients is not None:
        out.coefficients = coefficients
    return out


class TestAnticommutationResidual:
    @pytest.mark.parametrize("factor", [-1.0, 2.0], ids=["flipped-sign", "dropped-half"])
    def test_a_wrong_psibar_coefficient_is_detected(self, factor):
        # negative controls: one psibar with the wrong sign pairs to +1/2 I, and one without its
        # factor 1/2 (coefficients -1 where -1/2 belongs) to -I; n = 5 is beyond the dense oracle's reach
        for n in (2, 5):
            fs = FermionicSpace(n)
            C = fs.coefficients.copy()
            C[2 * n + n] *= factor  # psibar[1][0]
            assert anticommutation_residual(with_arrays(fs, coefficients=C)) >= 0.5

    @pytest.mark.parametrize("row", [0, 5, 6, 11])  # psi[0][0], psi[1][2], psibar[0][0], psibar[1][2]
    def test_wrong_placement_detected(self, row):
        # negative control: two columns of one operator send their states to
        # each other's targets
        fs = FermionicSpace(3)
        T = fs.targets.copy()
        a, b = np.flatnonzero(fs.coefficients[row])[[0, -1]]
        T[row, [a, b]] = T[row, [b, a]]
        assert anticommutation_residual(with_arrays(fs, targets=T)) > 0.0

    def test_zero_operator_partner_detected(self):
        # negative control: psibar[0][0] replaced by the zero operator, whose
        # targets send no product back onto the diagonal; {psi, 0} = 0 misses
        # the -1/2 I in every column
        fs = FermionicSpace(2)
        T, C = fs.targets.copy(), fs.coefficients.copy()
        T[4] = (np.arange(fs.dim) + 1) % fs.dim
        C[4] = 0.0
        assert anticommutation_residual(with_arrays(fs, T, C)) == 0.5

    def test_non_finite_coefficient_fails_closed(self):
        fs = FermionicSpace(2)
        C = fs.coefficients.copy()
        C[3, 5] = np.nan
        assert math.isnan(anticommutation_residual(with_arrays(fs, coefficients=C)))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_coefficient_fails_closed_without_a_warning(self, value):
        # NaN, and the 0 * inf of a mask raises no RuntimeWarning (an error under tier-1's filters)
        fs = FermionicSpace(2)
        C = fs.coefficients.copy()
        C[3, 5] = value
        assert math.isnan(anticommutation_residual(with_arrays(fs, coefficients=C)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_residual_on_corrupted_operators(self, seed):
        # the array residual against dense products of the scattered operators,
        # away from the exact operators: random targets and coefficients in one row
        rng = np.random.default_rng(seed)
        fs = FermionicSpace(2)
        T, C = fs.targets.copy(), fs.coefficients.copy()
        row = int(rng.integers(len(T)))
        T[row] = rng.integers(fs.dim, size=fs.dim)
        C[row] = rng.choice([0.0, 0.5, -1.0, 2.0], size=fs.dim)
        bad = with_arrays(fs, T, C)
        expected = dense_anticommutation_residual(T, C)
        assert anticommutation_residual(bad) == expected
        assert expected > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_dense_oracle_under_corruption(self, n):
        # 1-3 entries per draw: a target, a coefficient from a pool with NaN, or both;
        # the same float as the dense oracle, NaN exactly when it is (a partner pair
        # with nothing on the diagonal is test_zero_operator_partner_detected)
        rng = np.random.default_rng(n)
        fs = FermionicSpace(n)
        outcomes = set()
        for _ in range(100):
            T, C = fs.targets.copy(), fs.coefficients.copy()
            for _ in range(int(rng.integers(1, 4))):
                k, s = int(rng.integers(len(T))), int(rng.integers(fs.dim))
                kind = rng.integers(3)
                if kind != 1:
                    T[k, s] = rng.integers(fs.dim)
                if kind != 0:
                    C[k, s] = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, np.nan])
            got = anticommutation_residual(with_arrays(fs, T, C))
            want = dense_anticommutation_residual(T, C)
            assert got == want or (math.isnan(got) and math.isnan(want))
            outcomes.add("nan" if math.isnan(want) else "zero" if want == 0.0 else "positive")
        assert outcomes == {"nan", "zero", "positive"}


class TestPhiMatrix:
    def test_zero_multiplicities(self):
        p = BCnParameters(n=1, r=0.0, s=0.0, q=0.0, m=(1.0,))
        hat = build_hat_configuration(p)
        fs = DenseFermionicSpace(1)
        assert np.abs(phi_matrix(hat.config, np.array([0.8]), fs)).max() == 0.0

    def test_single_covector_against_bruteforce(self):
        from tests.oracles import phi_matrix_bruteforce

        config = Configuration(1, [(1.0,)], [1.3])
        fs = DenseFermionicSpace(1)
        x = np.array([0.8])
        got = phi_matrix(config, x, fs)
        assert got.shape == (4, 4)
        assert np.abs(got - phi_matrix_bruteforce(config, x, fs)).max() <= 1e-13

    @pytest.mark.parametrize(
        "params",
        [
            BCnParameters(n=2, r=1.0, s=0.5, q=1.0, m=(2.0, 1.0)),
            BC2_HAT,
        ],
    )
    def test_family_against_bruteforce(self, params):
        from tests.oracles import phi_matrix_bruteforce

        hat = build_hat_configuration(params)
        fs = DenseFermionicSpace(2)
        x = np.array([0.9, 0.4])
        got = phi_matrix(hat.config, x, fs)
        assert np.abs(got - phi_matrix_bruteforce(hat.config, x, fs)).max() <= 1e-13

    def test_commutes_with_scalar_matrices(self):
        hat = build_hat_configuration(BC2_HAT)
        fs = DenseFermionicSpace(2)
        Phi = phi_matrix(hat.config, np.array([0.9, 0.4]), fs)
        G = 2.75 * np.eye(fs.dim)
        assert np.array_equal(Phi @ G, G @ Phi)


class TestGaugeClosedForm:
    @pytest.mark.parametrize(
        "params", [BC2_HAT, M23, BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))]
    )
    def test_closed_form_exact_on_samples(self, params):
        hat = build_hat_configuration(params)
        rng = rng_for(42, f"gauge/closed-form/{params.n}")
        pts = sample_points(rng, fully_active(hat.config), 20)
        assert max(gauge_residual(active_pairings(hat.config, xh)) for xh in pts) <= 1e-14

    def test_wrong_potential_detected(self, monkeypatch):
        # negative control: a potential off by a relative 1e-6
        hat = build_hat_configuration(BC2_HAT)
        original = susy.bosonic_potential
        monkeypatch.setattr(susy, "bosonic_potential", lambda *a: original(*a) * (1.0 + 1e-6))
        assert gauge_residual(active_pairings(hat.config, np.array([0.9, 0.4]))) > 1e-7


class TestGaugeResidual:
    """The finite-difference gauge relation of tests.oracles, the closed form's reference."""

    def test_constant_function_certifies_potential(self):
        hat = build_hat_configuration(BC2_HAT)
        res = gauge_residual_fd(hat.config, np.array([0.9, 0.4]), lambda y: 1.0, step=1e-3)
        assert res < 1e-4

    def test_gaussian_family_over_seeded_points(self):
        hat = build_hat_configuration(BC2_HAT)
        pattern = fully_active(hat.config)
        rng = rng_for(42, "gauge/gaussian")
        pts = sample_points(rng, pattern, 20, threshold=GAUGE_THETA)
        worst = 0.0
        for xh in pts:
            phi = gaussian_field(xh + 0.2)
            worst = max(worst, gauge_residual_fd(hat.config, xh, phi, step=1e-3))
        assert worst < 1e-4

    @pytest.mark.parametrize(
        "make_field",
        [
            lambda xh: gaussian_field(xh + 0.2),
            lambda xh: sinh_product_field(),
            lambda xh: polynomial_field(),
        ],
        ids=["gaussian", "sinh_product", "polynomial"],
    )
    def test_step_halving_shrinks_residual_four_fold(self, make_field):
        hat = build_hat_configuration(BC2_HAT)
        xh = np.array([0.9, 0.4])
        phi = make_field(xh)
        r1 = gauge_residual_fd(hat.config, xh, phi, step=1e-3)
        r2 = gauge_residual_fd(hat.config, xh, phi, step=5e-4)
        assert r1 > 1e-8  # above the cancellation floor
        assert 3.0 < r1 / r2 < 5.5

    def test_margin_violation_rejected(self):
        hat = build_hat_configuration(BC2_HAT)
        with pytest.raises(MarginError):
            gauge_residual_fd(hat.config, np.array([0.7, 0.699]), lambda y: 1.0, step=1e-3)


def _each_point_alone(block, b: int) -> list[str]:
    """The outputs (name: (block output, point k -> that output alone)) whose point k differs from the
    point alone in shape or in any bit, NaN included; each block output is a tuple of arrays with a
    leading axis of b."""
    differ = []
    for name, (outputs, one) in block.items():
        for k in range(b):
            got, want = tuple(np.asarray(out)[k] for out in outputs), tuple(map(np.asarray, one(k)))
            if [(g.shape, g.tobytes()) for g in got] != [(w.shape, w.astype(float).tobytes()) for w in want]:
                differ.append(f"{name}[{k}]")
    return differ


def _block_outputs(p, hat, xhs, metric=True):
    """{name: (block outputs, point k -> its outputs alone)} of every function the verify-susy and
    verify-metric drivers call on a block, and of ``tensor_generic``, which verify-restriction calls, at
    the rescaled points xhs of ``p``'s family; without ``metric_identity_residuals``, which refuses a
    non-finite B or h, if ``metric`` is False."""
    sq = np.sqrt(p.m_array)
    alone = [active_pairings(hat, xh) for xh in xhs]
    A, c, _ = alone[0]
    active = (A, c, np.stack([z for _, _, z in alone]))
    plain = build_bcn(p)
    plain_alone = [active_pairings(plain, xh / sq) for xh in xhs]
    plain_active = (*plain_alone[0][:2], np.stack([z for _, _, z in plain_alone]))
    V = arrow_slices(active)
    ones = np.ones_like(xhs)
    xs, base = xhs / sq, V * (sq[:, None] * p.m_array)
    base_active, base_alone = (A * sq, c, active[2]), [(A * sq, c, z) for _, _, z in alone]
    closed = closed_form_arrows(p, xs)
    return {
        "tensor_generic": ((tensor_generic(active),), lambda k: (tensor_generic(alone[k]),)),
        "tensor_generic-plain": ((tensor_generic(plain_active),), lambda k: (tensor_generic(plain_alone[k]),)),
        "arrow_slices": ((V,), lambda k: (arrow_slices(alone[k]),)),
        "arrow_residuals": (arrow_residuals(V, ones)[0][:2], lambda k: arrow_residuals(V[k], ones[k])[0][:2]),
        "_hyperbolic_helpers": (_hyperbolic_helpers(xs), lambda k: _hyperbolic_helpers(xs[k])),
        "closed_form_arrows": ((closed,), lambda k: (closed_form_arrows(p, xs[k]),)),
        "_two_path": ((_two_path(base, closed, axes=(-2, -1)),), lambda k: (_two_path(base[k], closed[k]),)),
        "metric_B": ((metric_B(base_active, xs),), lambda k: (metric_B(base_alone[k], xs[k]),)),
        "metric_B-plain": ((metric_B(plain_active, xs),), lambda k: (metric_B(plain_alone[k], xs[k]),)),
        "h_function": ((h_function(p, xs),), lambda k: (h_function(p, xs[k]),)),
        **({
            "metric_identity_residuals": (metric_identity_residuals(p, base_active, xs),
                                          lambda k: metric_identity_residuals(p, base_alone[k], xs[k])),
            "metric_identity_residuals-plain": (metric_identity_residuals(p, plain_active, xs),
                                                lambda k: metric_identity_residuals(p, plain_alone[k], xs[k])),
        } if metric else {}),
        "_potential_sums": (_potential_sums(active), lambda k: _potential_sums(alone[k])),
        "bosonic_potential": ((bosonic_potential(active),), lambda k: (bosonic_potential(alone[k]),)),
        "gauge_residual": ((gauge_residual(active),), lambda k: (gauge_residual(alone[k]),)),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10])
def test_each_block_kernel_gives_each_point_its_bits_alone(n):
    # one call on a block of five points gives each point every output bit it gives alone, at the
    # theorem's unit-m family and at a random unequal-m family off it; at n = 1 there is no pair, and
    # the pair outputs are empty but keep the leading axis
    rng = rng_for(n, "block/kernels")
    families = [
        BCnParameters(n=n, r=4.0 - 2.0 * n, s=0.0, q=1.0, m=(1.0,) * n),
        BCnParameters(n=n, r=float(rng.uniform(-9.0, 3.0)), s=float(rng.uniform(-2.0, 2.0)),
                      q=float(rng.uniform(0.1, 2.0)), m=tuple(rng.uniform(0.3, 3.0, n))),
    ]
    for p in families:
        hat = build_hat_configuration(p).config
        xhs = sample_points(rng, fully_active(hat), 5)
        outputs = _block_outputs(p, hat, xhs)
        assert _each_point_alone(outputs, 5) == [], p
        pairs = n * (n - 1) // 2
        assert [a.shape for a in outputs["arrow_residuals"][0]] == [(5, pairs)] * 2
        assert [np.shape(a) for a in outputs["metric_identity_residuals"][0]] == [(5,), (5,)]
        assert outputs["_hyperbolic_helpers"][0][2].shape == (5, n, n)


def test_a_block_past_the_overflow_gives_each_point_its_non_finite_bits():
    # sinh and cosh overflow at x = 400: B and h of that point are non-finite in the block as alone,
    # and the points beside it keep their finite bits; the metric residuals refuse that point, in the
    # block and alone, naming B and the point, and take the points beside it
    p = BCnParameters(n=3, r=-14.0, s=0.5, q=1.0, m=(2.0, 1.0, 3.0))
    hat = build_hat_configuration(p).config
    xhs = sample_points(rng_for(0, "block/overflow"), fully_active(hat), 3)
    xhs[1, 2] = 400.0 * np.sqrt(3.0)
    xs = xhs / np.sqrt(p.m_array)
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = _block_outputs(p, hat, xhs, metric=False)
        assert _each_point_alone(outputs, 3) == []
        assert not np.isfinite(outputs["metric_B"][0][0][1]).all() and not np.isfinite(outputs["h_function"][0][0][1])
        alone = [base_members(p, xh) for xh in xhs]
        block = (*alone[0][:2], np.stack([z for _, _, z in alone]))
        for active, x in ((block, xs), (alone[1], xs[1])):
            with pytest.raises(DomainError, match=re.escape(f"B is not finite at the point {xs[1].tolist()}")):
                metric_identity_residuals(p, active, x)
    for k in (0, 2):
        assert np.isfinite(metric_identity_residuals(p, alone[k], xs[k])).all()
