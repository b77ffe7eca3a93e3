import importlib.util

import numpy as np
import pytest

from trigwdvv.cli import main
from trigwdvv.configurations import BCnParameters, build_bcn, solve_r
from trigwdvv.errors import DomainError, SingularMatrixError
from trigwdvv.prepotential import active_pairings, h_function, metric_B, tensor_generic
from trigwdvv.sampling import DEFAULT_BOX, fully_active, rng_for
from trigwdvv.susy import build_hat_configuration
from trigwdvv.wdvv import pivot_residuals

from tests.oracles import diagonality_report, pair_residual, pivot_residuals_full, sample_points

BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_BROKEN = BCnParameters(n=3, r=-1.5, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
M23 = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))


def sampled_tensors(params, count, seed_label, seed=42, box=DEFAULT_BOX):
    config = build_bcn(params)
    pattern = fully_active(config)
    rng = rng_for(seed, seed_label)
    pts = sample_points(rng, pattern, count, box)
    for x in pts:
        T = tensor_generic(active_pairings(config, x))
        yield x, T, metric_B(T, x)


class TestWdvvResidual:
    def test_equal_indices_vanish_exactly(self):
        # the kernel keeps the pairs i < j only, since M_ii = 0 exactly, as the full pass shows
        for x, T, B in sampled_tensors(BC3, 3, "wdvv/equal"):
            scaled, raw, condition = pivot_residuals(T, B[None])
            assert scaled.shape == raw.shape == (1, 3)
            full_scaled, full_raw, _ = pivot_residuals_full(T, B[None])
            assert full_scaled[0, 1, 1] == 0.0 and full_raw[0, 1, 1] == 0.0
            assert condition[0] >= 1.0

    def test_theorem_family(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "wdvv/theorem"):
            worst = max(worst, pivot_residuals(T, B[None])[0].max())
        assert worst < 1e-8

    def test_broken_constraint_fails_generically(self):
        above = 0
        total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "wdvv/broken"):
            total += 1
            if pivot_residuals(T, B[None])[1].max() > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_antisymmetry(self):
        for x, T, B in sampled_tensors(BC3, 5, "wdvv/antisym"):
            M_ij = T[0] @ np.linalg.solve(B, T[1]) - T[1] @ np.linalg.solve(B, T[0])
            M_ji = T[1] @ np.linalg.solve(B, T[0]) - T[0] @ np.linalg.solve(B, T[1])
            assert np.abs(M_ij + M_ji).max() == 0.0
            full = pivot_residuals_full(T, B[None])[0]
            assert full[0, 0, 1] == full[0, 1, 0] == pivot_residuals(T, B[None])[0][0, 0]

    def test_singular_metric_raises(self):
        T = np.zeros((2, 2, 2))
        T[0] = np.eye(2)
        T[1] = np.eye(2)
        with pytest.raises(SingularMatrixError):
            pivot_residuals(T, np.array([[[1.0, 0.0], [0.0, 0.0]]]))


class TestGeneralizedWdvv:
    def test_degenerate_index_choices_vanish(self):
        for x, T, B in sampled_tensors(BC3, 2, "gen/equal"):
            assert pivot_residuals(T, T)[0].shape == (3, 3)  # 3 pivots, 3 pairs i < j
            full = pivot_residuals_full(T, T)[0]
            assert full[0, 1, 1] == 0.0
            assert full[2, 0, 0] == 0.0

    def test_theorem_family_all_triples(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "gen/theorem"):
            worst = max(worst, pivot_residuals(T, T)[0].max())
        assert worst < 1e-8

    def test_broken_constraint(self):
        above = total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "gen/broken"):
            total += 1
            if pivot_residuals(T, T)[1].max() > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_pair_triple_equivalence(self):
        # both formulations pass (or fail) together on the same sample set
        tol, tol_gen = 1e-8, 1e-7
        for params, should_pass in ((BC3, True), (BC3_BROKEN, False)):
            pair_ok, gen_ok = True, True
            for x, T, B in sampled_tensors(params, 20, "equiv"):
                pair, pivot = pivot_residuals(T, B[None])[0], pivot_residuals(T, T)[0]
                pair_ok = pair_ok and pair.max() < tol
                gen_ok = gen_ok and pivot.max() < tol_gen
            assert pair_ok == should_pass
            assert gen_ok == should_pass


class TestCommutingResidual:
    def test_equal_indices(self):
        T = tensor_generic(active_pairings(build_hat_configuration(M23).config, np.array([0.8, 0.5])))
        assert pivot_residuals(T)[0].shape == (1, 1)  # the one pair (0, 1)
        assert pivot_residuals_full(T)[0][0, 0, 0] == 0.0

    def test_rescaled_family_commutes(self):
        hat = build_hat_configuration(M23).config
        rng = rng_for(42, "commuting/ok")
        worst = 0.0
        for x in sample_points(rng, fully_active(hat), 50):
            T = tensor_generic(active_pairings(hat, x))
            worst = max(worst, pivot_residuals(T)[0][0, 0])
        assert worst < 1e-8

    def test_unrescaled_tensor_does_not_commute(self):
        # without the rescaling the metric is diag(m) * h, not scalar
        pattern = fully_active(build_bcn(M23))
        rng = rng_for(42, "commuting/unrescaled")
        vals = []
        for x in sample_points(rng, pattern, 50):
            T = tensor_generic(active_pairings(build_bcn(M23), x))
            vals.append(pivot_residuals(T)[1][0, 0])
        assert np.median(vals) > 1e-3

    def test_matches_wdvv_when_metric_is_scalar(self):
        # m = (1,..,1) under the constraint: B is proportional to the identity
        tol = 1e-10
        for x, T, B in sampled_tensors(BC3, 20, "commuting/scalar"):
            pair, commuting = pivot_residuals(T, B[None])[0], pivot_residuals(T)[0]
            assert np.array_equal(pair < tol, commuting < tol)


class TestNTwoIsVacuous:
    """In two dimensions F_1 B^{-1} F_2 = F_2 B^{-1} F_1 holds for every
    parameter choice once B is a combination of F_1 and F_2: both sides invert
    to A_1 F_2^{-1} + A_2 F_1^{-1}.  The constraint shows up through the
    commuting form instead, because B stops being scalar."""

    def test_wdvv_residual_vanishes_even_off_constraint(self):
        broken = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
        worst = 0.0
        for x, T, B in sampled_tensors(broken, 30, "n2/vacuous"):
            worst = max(worst, pivot_residuals(T, B[None])[0][0, 0])
        assert worst < 1e-8

    def test_commuting_form_detects_broken_constraint(self):
        broken = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
        hat = build_hat_configuration(broken).config
        rng = rng_for(42, "n2/commuting")
        vals = []
        for x in sample_points(rng, fully_active(hat), 30):
            T = tensor_generic(active_pairings(hat, x))
            vals.append(pivot_residuals(T)[1][0, 0])
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
            x = sample_points(rng, fully_active(config), 1)[0]
            T = tensor_generic(active_pairings(config, x))
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
        for x in sample_points(rng, fully_active(config), 20):
            T = tensor_generic(active_pairings(config, x))
            B = metric_B(T, x)
            m = broken.m_array
            expected = m * delta * np.cosh(2.0 * x)
            actual = np.diag(B) - m * h_function(broken, x)
            assert np.abs(actual - expected).max() < 1e-10 * max(1.0, np.abs(B).max())


def test_condition_number_of_scalar_metric_is_one():
    x = np.array([0.9, 0.5, 1.3])
    T = tensor_generic(active_pairings(build_bcn(BC3), x))
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
    *_theorem_and_broken(10, 0.5, 1.0, (1.0, 2.0, 1.0, 1.5, 1.0, 1.0, 2.0, 1.0, 0.5, 1.0)),
]


@pytest.mark.parametrize("params", KERNEL_FAMILIES, ids=lambda p: f"n={p.n},r={p.r:.4g}")
def test_kernel_matches_per_pair_oracle(params):
    # pair form (pivot B), pivot form (every F_k) and commuting form (pivot I)
    n = params.n
    # fewer points at n=10, where one point takes about 1200 oracle pairs
    for x, T, B in sampled_tensors(params, 5 if n < 10 else 2, f"kernel/{n}/{params.r}"):
        forms = (
            (pivot_residuals(T, B[None]), [B]),
            (pivot_residuals(T, T), list(T)),
            (pivot_residuals(T), [None]),
        )
        for (scaled, raw, _), pivots in forms:
            assert scaled.shape == raw.shape == (len(pivots), n * (n - 1) // 2)
            for p, P in enumerate(pivots):
                for k, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
                    want_scaled, want_raw = pair_residual(T, i, j, P)
                    assert abs(scaled[p, k] - want_scaled) <= 1e-14
                    assert raw[p, k] == pytest.approx(want_raw, rel=1e-9, abs=1e-12)


def test_condition_is_the_eigenvalue_ratio_bit_for_bit():
    # every pivot is symmetric, so its singular values are its |eigenvalues| and its condition
    # number is max|lambda| / min|lambda|, bit for bit.  np.linalg.cond takes the same ratio from
    # an SVD.  Both routes are backward stable: each returns the exact spectrum of P + E with
    # ||E|| <= p(n) eps ||P||, p(n) = n here (Golub-Van Loan 8.1 and 8.6), so by Weyl each
    # sigma moves by at most n eps sigma_max, their ratio by n eps (kappa + 1) relative, and the
    # two routes differ by at most twice that (measured: at most 0.43 n eps (kappa + 1))
    eps = np.finfo(float).eps
    for params in KERNEL_FAMILIES:
        for x, T, B in sampled_tensors(params, 3, f"kernel/cond/{params.n}/{params.r}"):
            for pivots in (B[None], T):
                condition = pivot_residuals(T, pivots)[2]
                lam = np.abs(np.linalg.eigvalsh(pivots))
                assert np.array_equal(condition, lam.max(axis=1) / lam.min(axis=1))
                cond = np.linalg.cond(pivots)
                assert (np.abs(condition - cond) <= 2 * params.n * eps * (cond + 1) * cond).all()
            assert pivot_residuals(T)[2].tolist() == [1.0]


# every oracle family, and unit-m BC_n at n = 16 and 20 (theorem and broken),
# where the pairs-only pass saves most, at points of --box 0.3,4
BIT_FOR_BIT = [(p, DEFAULT_BOX) for p in KERNEL_FAMILIES] + [
    (p, (0.3, 4.0)) for n in (16, 20) for p in _theorem_and_broken(n, 0.0, 1.0, (1.0,) * n)
]


@pytest.mark.parametrize("params, box", BIT_FOR_BIT, ids=[f"n={p.n},r={p.r:.4g}" for p, _ in BIT_FOR_BIT])
def test_kernel_is_the_full_pass_bit_for_bit(params, box):
    # the pairs i < j give the full pass's floats exactly, for verify-wdvv's stack [B, eta.F] and
    # for stacks of B, of the F_k and of both; the full pass's matrices are symmetric with a
    # zero diagonal, so the pairs i < j hold all of their content
    label = f"kernel/full/{params.n}/{params.r}"
    i, j = np.triu_indices(params.n, 1)
    eta = rng_for(0, f"{label}/eta").standard_normal(params.n)
    for x, T, B in sampled_tensors(params, 3 if params.n < 16 else 2, label, box=box):
        B_eta_F = np.stack([B, np.tensordot(eta, T, axes=1)])
        for pivots in (B[None], T, None, B_eta_F, np.concatenate([B[None], T]), np.concatenate([T, B[None]])):
            got, want = pivot_residuals(T, pivots), pivot_residuals_full(T, pivots)
            for name, a, b in zip(("scaled", "raw"), got, want):
                assert np.array_equal(a, b[:, i, j]), name
                assert np.array_equal(b, b.transpose(0, 2, 1)), name
                assert not b.diagonal(axis1=1, axis2=2).any(), name
            assert np.array_equal(got[2], want[2]), "condition"


@pytest.mark.parametrize("stack, calls", [("[B; eta.F]", 2), ("T", 2), ("B", 2), ("identity", 1)])
def test_eigvalsh_calls_per_kernel_call(monkeypatch, stack, calls):
    # one eigvalsh of the pivot stack for the condition numbers, whatever its length
    # (verify-wdvv's [B, eta.F] included), one of the tensor for the norms ||F_k||, and no SVD
    x, T, B = next(sampled_tensors(KERNEL_FAMILIES[6], 1, "kernel/svd"))  # n=10, on the relation
    eta_F = np.tensordot(rng_for(0, "kernel/svd/eta").standard_normal(len(T)), T, axes=1)
    pivots = {"[B; eta.F]": np.stack([B, eta_F]), "T": T, "B": B[None], "identity": None}[stack]
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        seen.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _refuse_svd(monkeypatch)
    pivot_residuals(T, pivots)
    assert len(seen) == calls, seen


def _refuse_svd(monkeypatch):
    """Make every SVD numpy takes raise, np.linalg.svd and the one that matrix_rank and cond call."""
    def refused(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refused)
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):  # numpy 2, numpy 1
        if importlib.util.find_spec(name):
            monkeypatch.setattr(importlib.import_module(name), "svd", refused)
            break


@pytest.mark.parametrize("argv", [
    ["verify-wdvv", "--family", "bcn", "--n", "10", "--r", "-16", "--s", "0", "--q", "1", "--m", ",".join(["1"] * 10)],
    ["verify-susy", "--family", "bcn", "--n", "4", "--r", "-14", "--s", "0.5", "--q", "1", "--m", "2,1,3,1"],
], ids=["verify-wdvv", "verify-susy"])
def test_a_family_run_takes_no_svd(monkeypatch, capsys, argv):
    # the kernel reads eigvalsh, and a family's spanning rank is a count of coordinates
    _refuse_svd(monkeypatch)
    assert main([*argv, "--samples", "3"]) == 0, capsys.readouterr()


def test_singular_pivot_form_raises_naming_the_pivot():
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError, match="pivot 1 "):
        pivot_residuals(T, T)


@pytest.mark.parametrize("condition, usable", [(1e7, True), (1e9, False)])
def test_one_usable_pivot_rule(condition, usable):
    # a pivot is usable iff its condition number is at most CONDITION_CAP
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.diag([1.0, 2.0])
    P = np.diag([1.0, 1.0 / condition])[None]
    if usable:
        assert pivot_residuals(T, P)[2].tolist() == [condition]
    else:
        with pytest.raises(SingularMatrixError, match=r"pivot 0 has condition number \S+ above 1e\+08"):
            pivot_residuals(T, P)


@pytest.mark.parametrize("bad", ["nan-pivot", "nan-tensor", "inf-pivot", "inf-tensor"])
def test_non_finite_input_is_refused_by_name(bad):
    # refused before any SVD: a NaN would make numpy's SVD raise LinAlgError,
    # and an infinite entry would give NaN residuals and a matmul warning
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.diag([1.0, 2.0])
    P = np.stack([np.eye(2), np.eye(2)])
    value = np.nan if bad.startswith("nan") else np.inf
    if bad.endswith("pivot"):
        P[1, 0, 0] = value
        with pytest.raises(DomainError, match="pivot 1 is not finite"):
            pivot_residuals(T, P)
    else:
        T[1, 1, 1] = value
        B = metric_B(T, [0.5, 0.7])
        with pytest.raises(DomainError, match="the tensor is not finite"):
            pivot_residuals(T, B[None] if value == np.inf else P)
