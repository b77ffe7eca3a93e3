import numpy as np
import pytest

from trigwdvv.configurations import BCnParameters, build_bcn, solve_r
from trigwdvv.errors import SingularMatrixError
from trigwdvv.prepotential import h_function, metric_B, tensor_generic
from trigwdvv.sampling import fully_active, rng_for, sample_admissible_points
from trigwdvv.susy import build_hat_configuration
from trigwdvv.wdvv import pivot_residuals

from tests.oracles import diagonality_report, pair_residual

BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_BROKEN = BCnParameters(n=3, r=-1.5, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
M23 = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))


def sampled_tensors(params, count, seed_label, seed=42):
    config = build_bcn(params)
    pattern = fully_active(config)
    rng = rng_for(seed, seed_label)
    pts = sample_admissible_points(rng, pattern, count)
    for x in pts:
        T = tensor_generic(config, x)
        yield x, T, metric_B(T, x)


class TestWdvvResidual:
    def test_equal_indices_vanish_exactly(self):
        for x, T, B in sampled_tensors(BC3, 3, "wdvv/equal"):
            scaled, raw, condition = pivot_residuals(T, B[None])
            assert scaled[0, 1, 1] == 0.0 and raw[0, 1, 1] == 0.0
            assert condition[0] >= 1.0

    def test_theorem_family(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "wdvv/theorem"):
            scaled = pivot_residuals(T, B[None])[0]
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, scaled[0, i, j])
        assert worst < 1e-8

    def test_broken_constraint_fails_generically(self):
        above = 0
        total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "wdvv/broken"):
            total += 1
            raw = pivot_residuals(T, B[None])[1]
            worst = max(
                raw[0, i, j]
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if worst > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_antisymmetry(self):
        for x, T, B in sampled_tensors(BC3, 5, "wdvv/antisym"):
            M_ij = T[0] @ np.linalg.solve(B, T[1]) - T[1] @ np.linalg.solve(B, T[0])
            M_ji = T[1] @ np.linalg.solve(B, T[0]) - T[0] @ np.linalg.solve(B, T[1])
            assert np.abs(M_ij + M_ji).max() == 0.0
            scaled = pivot_residuals(T, B[None])[0]
            assert scaled[0, 0, 1] == scaled[0, 1, 0]

    def test_singular_metric_raises(self):
        T = np.zeros((2, 2, 2))
        T[0] = np.eye(2)
        T[1] = np.eye(2)
        with pytest.raises(SingularMatrixError):
            pivot_residuals(T, np.array([[[1.0, 0.0], [0.0, 0.0]]]))


class TestGeneralizedWdvv:
    def test_degenerate_index_choices_vanish(self):
        for x, T, B in sampled_tensors(BC3, 2, "gen/equal"):
            scaled = pivot_residuals(T, T)[0]
            assert scaled[0, 1, 1] == 0.0
            assert scaled[2, 0, 0] == 0.0

    def test_theorem_family_all_triples(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "gen/theorem"):
            scaled = pivot_residuals(T, T)[0]
            for k in range(3):
                for i in range(3):
                    for j in range(i + 1, 3):
                        worst = max(worst, scaled[k, i, j])
        assert worst < 1e-8

    def test_broken_constraint(self):
        above = total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "gen/broken"):
            total += 1
            worst = 0.0
            raw = pivot_residuals(T, T)[1]
            for k in range(3):
                for i in range(3):
                    for j in range(i + 1, 3):
                        worst = max(worst, raw[k, i, j])
            if worst > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_pair_triple_equivalence(self):
        # both formulations pass (or fail) together on the same sample set
        tol, tol_gen = 1e-8, 1e-7
        for params, should_pass in ((BC3, True), (BC3_BROKEN, False)):
            pair_ok, gen_ok = True, True
            for x, T, B in sampled_tensors(params, 20, "equiv"):
                pair, pivot = pivot_residuals(T, B[None])[0], pivot_residuals(T, T)[0]
                for i in range(3):
                    for j in range(i + 1, 3):
                        if pair[0, i, j] >= tol:
                            pair_ok = False
                        for k in range(3):
                            if pivot[k, i, j] >= tol_gen:
                                gen_ok = False
            assert pair_ok == should_pass
            assert gen_ok == should_pass


class TestCommutingResidual:
    def test_equal_indices(self):
        T = tensor_generic(build_hat_configuration(M23).config, np.array([0.8, 0.5]))
        assert pivot_residuals(T)[0][0, 0, 0] == 0.0

    def test_rescaled_family_commutes(self):
        hat = build_hat_configuration(M23).config
        rng = rng_for(42, "commuting/ok")
        worst = 0.0
        for x in sample_admissible_points(rng, fully_active(hat), 50):
            T = tensor_generic(hat, x)
            worst = max(worst, pivot_residuals(T)[0][0, 0, 1])
        assert worst < 1e-8

    def test_unrescaled_tensor_does_not_commute(self):
        # without the rescaling the metric is diag(m) * h, not scalar
        pattern = fully_active(build_bcn(M23))
        rng = rng_for(42, "commuting/unrescaled")
        vals = []
        for x in sample_admissible_points(rng, pattern, 50):
            T = tensor_generic(build_bcn(M23), x)
            vals.append(pivot_residuals(T)[1][0, 0, 1])
        assert np.median(vals) > 1e-3

    def test_matches_wdvv_when_metric_is_scalar(self):
        # m = (1,..,1) under the constraint: B is proportional to the identity
        tol = 1e-10
        for x, T, B in sampled_tensors(BC3, 20, "commuting/scalar"):
            pair, commuting = pivot_residuals(T, B[None])[0], pivot_residuals(T)[0]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (pair[0, i, j] < tol) == (commuting[0, i, j] < tol)


class TestNTwoIsVacuous:
    """In two dimensions F_1 B^{-1} F_2 = F_2 B^{-1} F_1 holds for every
    parameter choice once B is a combination of F_1 and F_2: both sides invert
    to A_1 F_2^{-1} + A_2 F_1^{-1}.  The constraint shows up through the
    commuting form instead, because B stops being scalar."""

    def test_wdvv_residual_vanishes_even_off_constraint(self):
        broken = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
        worst = 0.0
        for x, T, B in sampled_tensors(broken, 30, "n2/vacuous"):
            worst = max(worst, pivot_residuals(T, B[None])[0][0, 0, 1])
        assert worst < 1e-8

    def test_commuting_form_detects_broken_constraint(self):
        broken = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
        hat = build_hat_configuration(broken).config
        rng = rng_for(42, "n2/commuting")
        vals = []
        for x in sample_admissible_points(rng, fully_active(hat), 30):
            T = tensor_generic(hat, x)
            vals.append(pivot_residuals(T)[1][0, 0, 1])
        assert np.median(vals) > 1e-3


class TestDiagonalityReport:
    def test_offdiagonal_any_parameters(self):
        rng = rng_for(9, "diag/params")
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = BCnParameters(
                n=n,
                r=float(rng.uniform(-3, 3)),
                s=float(rng.uniform(-3, 3)),
                q=float(rng.uniform(-3, 3)),
                m=tuple(rng.uniform(0.5, 4, n)),
            )
            config = build_bcn(p)
            x = sample_admissible_points(rng, fully_active(config), 1)[0]
            T = tensor_generic(config, x)
            off, _ = diagonality_report(T, p, x)
            B = metric_B(T, x)
            assert off < 1e-10 * max(1.0, np.abs(B).max())

    def test_constraint_gives_m_h_diagonal(self):
        for x, T, B in sampled_tensors(M23, 20, "diag/ok"):
            _, dev = diagonality_report(T, M23, x)
            assert dev < 1e-10 * max(1.0, np.abs(B).max())

    def test_deviation_tracks_constraint_residual(self):
        # diagonal deviation per entry is m_l * delta * cosh(2 x_l)
        delta = 0.5
        broken = BCnParameters(n=3, r=BC3.r + delta, s=BC3.s, q=BC3.q, m=BC3.m)
        config = build_bcn(broken)
        rng = rng_for(21, "diag/delta")
        for x in sample_admissible_points(rng, fully_active(config), 20):
            T = tensor_generic(config, x)
            B = metric_B(T, x)
            m = broken.m_array
            expected = m * delta * np.cosh(2.0 * x)
            actual = np.diag(B) - m * h_function(broken, x)
            assert np.abs(actual - expected).max() < 1e-10 * max(1.0, np.abs(B).max())


def test_condition_number_of_scalar_metric_is_one():
    x = np.array([0.9, 0.5, 1.3])
    T = tensor_generic(build_bcn(BC3), x)
    B = metric_B(T, x)
    condition = pivot_residuals(T, B[None])[2]
    assert condition[0] == pytest.approx(1.0, rel=1e-10)


def _theorem_and_broken(n, s, q, m):
    ok = BCnParameters(n=n, r=solve_r(s, q, m), s=s, q=q, m=m)
    return ok, BCnParameters(n=n, r=ok.r + 0.5, s=s, q=q, m=m)


KERNEL_FAMILIES = [
    *_theorem_and_broken(2, 1.0, 2.0, (2.0, 3.0)),
    *_theorem_and_broken(3, 0.5, 1.5, (0.7, 1.3, 2.1)),
    *_theorem_and_broken(6, 1.0, 1.0, (1.0, 2.0, 1.0, 2.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("params", KERNEL_FAMILIES, ids=lambda p: f"n={p.n},r={p.r:.4g}")
def test_kernel_matches_per_pair_oracle(params):
    # pair form (pivot B), pivot form (every F_k) and commuting form (pivot I)
    n = params.n
    for x, T, B in sampled_tensors(params, 5, f"kernel/{n}/{params.r}"):
        forms = (
            (pivot_residuals(T, B[None]), [B]),
            (pivot_residuals(T, T), list(T)),
            (pivot_residuals(T), [None]),
        )
        for (scaled, raw, _), pivots in forms:
            assert scaled.shape == raw.shape == (len(pivots), n, n)
            for p, P in enumerate(pivots):
                for i in range(n):
                    for j in range(n):
                        want_scaled, want_raw = pair_residual(T, i, j, P)
                        assert abs(scaled[p, i, j] - want_scaled) <= 1e-14
                        assert raw[p, i, j] == pytest.approx(want_raw, rel=1e-9, abs=1e-12)


def test_condition_is_numpy_cond_bit_for_bit():
    for params in KERNEL_FAMILIES:
        for x, T, B in sampled_tensors(params, 3, f"kernel/cond/{params.n}/{params.r}"):
            assert pivot_residuals(T, B[None])[2].tolist() == [np.linalg.cond(B)]
            assert pivot_residuals(T, T)[2].tolist() == [np.linalg.cond(F) for F in T]
            assert pivot_residuals(T)[2].tolist() == [1.0]


def test_singular_pivot_form_raises_naming_the_pivot():
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError, match="pivot 1 "):
        pivot_residuals(T, T)
