import math

import numpy as np
import pytest

from trigwdvv.configurations import BCnParameters, Configuration, build_bcn, configurations_match
from trigwdvv.errors import DimensionCapError, ParameterError
from trigwdvv.prepotential import h_function, tensor_generic
from trigwdvv.sampling import fully_active, rng_for, sample_admissible_points
from trigwdvv import susy
from trigwdvv.susy import (
    FermionicSpace,
    anticommutation_residual,
    anticommutator,
    bosonic_potential,
    build_hat_configuration,
    gauge_residual,
    hat_metric,
    hat_tensor_from_base,
    phi_matrix,
)

from tests.oracles import MarginError, gauge_residual_fd, gaussian_field, polynomial_field, sinh_product_field

M23 = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
BC2_HAT = BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0))

# gauge stencils keep second order only well away from the mirrors: the
# truncation term scales like margin^-4 at step 1e-3
GAUGE_THETA = 0.6


def hat_tensor(p, x_hat):
    return tensor_generic(build_hat_configuration(p).config, x_hat)


class TestHatConfiguration:
    def test_unit_m_reduces_to_plain_family(self):
        p = BCnParameters(n=3, r=1.0, s=-0.5, q=2.0, m=(1.0, 1.0, 1.0))
        assert configurations_match(build_hat_configuration(p).config, build_bcn(p))

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
        assert np.abs(hat_tensor(p, x) - tensor_generic(build_bcn(p), x)).max() < 1e-14

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
        for xh in sample_admissible_points(rng, pattern, 20):
            direct = hat_tensor(params, xh)
            conjugated = hat_tensor_from_base(params, xh)
            scale = max(1.0, np.abs(conjugated).max())
            assert np.abs(direct - conjugated).max() < 1e-10 * scale

    def test_metric_is_h_times_identity(self):
        pattern = fully_active(build_hat_configuration(M23).config)
        rng = rng_for(42, "hat/metric")
        for xh in sample_admissible_points(rng, pattern, 20):
            T = hat_tensor(M23, xh)
            Bh = hat_metric(M23, T, xh)
            h = h_function(M23, xh / np.sqrt(M23.m_array))
            assert np.abs(Bh - h * np.eye(2)).max() < 1e-10 * max(1.0, abs(h))


class TestBosonicPotential:
    def test_single_covector_formula(self):
        c = 1.7
        config = Configuration(1, [((1.0,), c)])
        x = np.array([0.8])
        expected = 0.5 * c / math.sinh(0.8) ** 2 + 0.25 * c**2 / math.tanh(0.8) ** 2
        assert math.isclose(bosonic_potential(config, x), expected, rel_tol=1e-14)

    def test_all_zero_multiplicities(self):
        p = BCnParameters(n=2, r=0.0, s=0.0, q=0.0, m=(1.0, 1.0))
        hat = build_hat_configuration(p)
        assert bosonic_potential(hat.config, np.array([0.7, 0.3])) == 0.0

    def test_matches_reversed_literal_summation(self):
        from tests.oracles import bosonic_potential_reversed

        hat = build_hat_configuration(BC2_HAT)
        x = np.array([0.7, 0.3])
        a = bosonic_potential(hat.config, x)
        b = bosonic_potential_reversed(hat.config, x)
        assert math.isclose(a, b, rel_tol=1e-12)


class TestFermionicSpace:
    def test_dimension_and_nilpotency(self):
        fs = FermionicSpace(1)
        assert fs.dim == 4
        ops = [fs.psi[0][0], fs.psi[1][0]]
        for A in ops:
            for B in ops:
                assert np.abs(anticommutator(A, B)).max() == 0.0

    def test_same_mode_pairing(self):
        fs = FermionicSpace(1)
        anti = anticommutator(fs.psi[0][0], fs.psibar[0][0])
        assert np.array_equal(anti, -0.5 * np.eye(4))

    def test_cross_mode_pairing_vanishes(self):
        fs = FermionicSpace(2)
        anti = anticommutator(fs.psi[0][0], fs.psibar[1][1])
        assert np.abs(anti).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_pairings_exact(self, n):
        fs = FermionicSpace(n)
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
        assert anticommutation_residual(fs) == 0.0

    def test_cap(self):
        with pytest.raises(DimensionCapError):
            FermionicSpace(6)


class TestAnticommutationResidual:
    def test_flipped_sign_detected(self):
        # negative control: one psibar with the wrong sign pairs to +1/2 I
        fs = FermionicSpace(2)
        fs.psibar[1][0] = -fs.psibar[1][0]
        assert anticommutation_residual(fs) >= 0.5


class TestPhiMatrix:
    def test_zero_multiplicities(self):
        p = BCnParameters(n=1, r=0.0, s=0.0, q=0.0, m=(1.0,))
        hat = build_hat_configuration(p)
        fs = FermionicSpace(1)
        assert np.abs(phi_matrix(hat.config, np.array([0.8]), fs)).max() == 0.0

    def test_single_covector_against_bruteforce(self):
        from tests.oracles import phi_matrix_bruteforce

        config = Configuration(1, [((1.0,), 1.3)])
        fs = FermionicSpace(1)
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
        fs = FermionicSpace(2)
        x = np.array([0.9, 0.4])
        got = phi_matrix(hat.config, x, fs)
        assert np.abs(got - phi_matrix_bruteforce(hat.config, x, fs)).max() <= 1e-13

    def test_commutes_with_scalar_matrices(self):
        hat = build_hat_configuration(BC2_HAT)
        fs = FermionicSpace(2)
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
        pts = sample_admissible_points(rng, fully_active(hat.config), 20)
        assert max(gauge_residual(hat.config, xh) for xh in pts) <= 1e-14

    def test_wrong_potential_detected(self, monkeypatch):
        # negative control: a potential off by a relative 1e-6
        hat = build_hat_configuration(BC2_HAT)
        original = susy.bosonic_potential
        monkeypatch.setattr(susy, "bosonic_potential", lambda *a: original(*a) * (1.0 + 1e-6))
        assert gauge_residual(hat.config, np.array([0.9, 0.4])) > 1e-7


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
        pts = sample_admissible_points(rng, pattern, 20, threshold=GAUGE_THETA)
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
