import importlib.util

import numpy as np
import pytest

from trigwdvv import cli, configurations
from trigwdvv.cli import RunSpec, main, run
from trigwdvv.configurations import BCnParameters, _bcn_members, build_bcn, solve_r
from trigwdvv.errors import DomainError
from trigwdvv.prepotential import active_pairings, h_function, metric_B, tensor_generic
from trigwdvv.sampling import DEFAULT_BOX, fully_active, rng_for
from trigwdvv.susy import build_hat_configuration
from trigwdvv.wdvv import CONDITION_CAP, arrow_residuals, arrow_slices, pivot_residuals, usable_pivots

from tests.oracles import diagonality_report, metric_B_einsum, pair_residual, pivot_residuals_full, sample_points

BC3 = BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
BC3_BROKEN = BCnParameters(n=3, r=-1.5, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
M23 = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))


def sampled_tensors(params, count, seed_label, seed=42, box=DEFAULT_BOX):
    config = build_bcn(params)
    pattern = fully_active(config)
    rng = rng_for(seed, seed_label)
    pts = sample_points(rng, pattern, count, box)
    for x in pts:
        active = active_pairings(config, x)
        yield x, tensor_generic(active), metric_B(active, x)


def at_b(active, x):
    """A family's check as ``verify-wdvv`` takes it: the arrow kernel at B_kk = (sinh 2x @ V)_k."""
    V = arrow_slices(active)
    return arrow_residuals(V, (np.sinh(2.0 * x)[..., None, :] @ V)[..., 0, :])


def at_identity(active):
    """The commuting form as ``verify-susy`` takes it: the arrow kernel at the identity pivot."""
    V = arrow_slices(active)
    return arrow_residuals(V, np.ones(V.shape[:-1]))


def each_slice(T):
    """The kernel's output at every single pivot F_k, so that no slice goes unchecked."""
    return [pivot_residuals(T, T[k : k + 1])[0] for k in range(len(T))]


class TestWdvvResidual:
    def test_equal_indices_vanish_exactly(self):
        # the kernel keeps the pairs i < j only, since M_ii = 0 exactly, as the full pass shows
        for x, T, B in sampled_tensors(BC3, 3, "wdvv/equal"):
            scaled, raw, condition = pivot_residuals(T, B[None])[0]
            assert scaled.shape == raw.shape == (3,)
            full_scaled, full_raw, _ = pivot_residuals_full(T, B[None])
            assert full_scaled[1, 1] == 0.0 and full_raw[1, 1] == 0.0
            assert condition >= 1.0

    def test_theorem_family(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "wdvv/theorem"):
            worst = max(worst, pivot_residuals(T, B[None])[0][0].max())
        assert worst < 1e-8

    def test_broken_constraint_fails_generically(self):
        above = 0
        total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "wdvv/broken"):
            total += 1
            if pivot_residuals(T, B[None])[0][1].max() > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_antisymmetry(self):
        for x, T, B in sampled_tensors(BC3, 5, "wdvv/antisym"):
            M_ij = T[0] @ np.linalg.solve(B, T[1]) - T[1] @ np.linalg.solve(B, T[0])
            M_ji = T[1] @ np.linalg.solve(B, T[0]) - T[0] @ np.linalg.solve(B, T[1])
            assert np.abs(M_ij + M_ji).max() == 0.0
            full = pivot_residuals_full(T, B[None])[0]
            assert full[0, 1] == full[1, 0] == pivot_residuals(T, B[None])[0][0][0]

    def test_a_singular_metric_is_refused(self):
        # the refusal is returned, not raised: the point's condition number is +inf, and its
        # values, taken at the identity in place of the singular pivot, are finite
        T = np.zeros((2, 2, 2))
        T[0] = np.eye(2)
        T[1] = np.eye(2)
        with np.errstate(all="raise"):
            (scaled, raw, condition), refusal = pivot_residuals(T, np.array([[[1.0, 0.0], [0.0, 0.0]]]))
        assert refusal == "pivot 0 has condition number inf above 1e+08"
        assert condition == np.inf and np.isfinite(scaled).all() and np.isfinite(raw).all()


class TestGeneralizedWdvv:
    """WDVV at each slice F_k as the pivot, one pivot per kernel call."""

    def test_degenerate_index_choices_vanish(self):
        for x, T, B in sampled_tensors(BC3, 2, "gen/equal"):
            for k, (scaled, _, _) in enumerate(each_slice(T)):
                assert scaled.shape == (3,)  # 3 pairs i < j
                full = pivot_residuals_full(T, T[k : k + 1])[0]
                assert not full.diagonal().any()

    def test_theorem_family_all_triples(self):
        worst = 0.0
        for x, T, B in sampled_tensors(BC3, 50, "gen/theorem"):
            worst = max([worst] + [scaled.max() for scaled, _, _ in each_slice(T)])
        assert worst < 1e-8

    def test_broken_constraint(self):
        above = total = 0
        for x, T, B in sampled_tensors(BC3_BROKEN, 50, "gen/broken"):
            total += 1
            if max(raw.max() for _, raw, _ in each_slice(T)) > 1e-3:
                above += 1
        assert above >= 0.9 * total

    def test_pair_triple_equivalence(self):
        # both formulations pass (or fail) together on the same sample set
        tol, tol_gen = 1e-8, 1e-7
        for params, should_pass in ((BC3, True), (BC3_BROKEN, False)):
            pair_ok, gen_ok = True, True
            for x, T, B in sampled_tensors(params, 20, "equiv"):
                pair = pivot_residuals(T, B[None])[0][0]
                pair_ok = pair_ok and pair.max() < tol
                gen_ok = gen_ok and max(scaled.max() for scaled, _, _ in each_slice(T)) < tol_gen
            assert pair_ok == should_pass
            assert gen_ok == should_pass


class TestCommutingResidual:
    def test_equal_indices(self):
        active = active_pairings(build_hat_configuration(M23).config, np.array([0.8, 0.5]))
        assert at_identity(active)[0][0].shape == (1,)  # the one pair (0, 1)
        assert pivot_residuals_full(tensor_generic(active))[0][0, 0] == 0.0

    def test_rescaled_family_commutes(self):
        hat = build_hat_configuration(M23).config
        rng = rng_for(42, "commuting/ok")
        worst = 0.0
        for x in sample_points(rng, fully_active(hat), 50):
            worst = max(worst, at_identity(active_pairings(hat, x))[0][0][0])
        assert worst < 1e-8

    def test_unrescaled_tensor_does_not_commute(self):
        # without the rescaling the metric is diag(m) * h, not scalar
        pattern = fully_active(build_bcn(M23))
        rng = rng_for(42, "commuting/unrescaled")
        vals = []
        for x in sample_points(rng, pattern, 50):
            vals.append(at_identity(active_pairings(build_bcn(M23), x))[0][1][0])
        assert np.median(vals) > 1e-3

    def test_matches_wdvv_when_metric_is_scalar(self):
        # m = (1,..,1) under the constraint: B is proportional to the identity
        tol = 1e-10
        for x, T, B in sampled_tensors(BC3, 20, "commuting/scalar"):
            pair, commuting = pivot_residuals(T, B[None])[0][0], at_identity(active_pairings(build_bcn(BC3), x))[0][0]
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
            worst = max(worst, pivot_residuals(T, B[None])[0][0][0])
        assert worst < 1e-8

    def test_commuting_form_detects_broken_constraint(self):
        broken = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
        hat = build_hat_configuration(broken).config
        rng = rng_for(42, "n2/commuting")
        vals = []
        for x in sample_points(rng, fully_active(hat), 30):
            vals.append(at_identity(active_pairings(hat, x))[0][1][0])
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
            active = active_pairings(config, x)
            off, _ = diagonality_report(tensor_generic(active), p, x)
            B = metric_B(active, x)
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
            B = metric_B(active_pairings(config, x), x)
            m = broken.m_array
            expected = m * delta * np.cosh(2.0 * x)
            actual = np.diag(B) - m * h_function(broken, x)
            assert np.abs(actual - expected).max() < 1e-10 * max(1.0, np.abs(B).max())


def test_condition_number_of_scalar_metric_is_one():
    x = np.array([0.9, 0.5, 1.3])
    active = active_pairings(build_bcn(BC3), x)
    T, B = tensor_generic(active), metric_B(active, x)
    assert pivot_residuals(T, B[None])[0][2] == pytest.approx(1.0, rel=1e-10)


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
    # pair form (pivot B), pivot form (every F_k, one at a time) and commuting form (pivot I, by the arrow
    # kernel, whose V the members give by another GEMM)
    n = params.n
    # fewer points at n=10, where one point takes about 1200 oracle pairs
    for x, T, B in sampled_tensors(params, 5 if n < 10 else 2, f"kernel/{n}/{params.r}"):
        commuting = at_identity(active_pairings(build_bcn(params), x))[0]
        forms = [(pivot_residuals(T, B[None])[0], B), *zip(each_slice(T), T), (commuting, None)]
        for (scaled, raw, _), P in forms:
            assert scaled.shape == raw.shape == (n * (n - 1) // 2,)
            for k, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
                want_scaled, want_raw = pair_residual(T, i, j, P)
                assert abs(scaled[k] - want_scaled) <= 1e-14
                assert raw[k] == pytest.approx(want_raw, rel=1e-9, abs=1e-12)


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
            for P in (B, *T):
                condition = pivot_residuals(T, P[None])[0][2]
                lam = np.abs(np.linalg.eigvalsh(P))
                assert condition == lam.max() / lam.min()
                cond = np.linalg.cond(P)
                assert abs(condition - cond) <= 2 * params.n * eps * (cond + 1) * cond
            # a stack reports the condition number of the pivot it chose, the smallest
            lam = np.abs(np.linalg.eigvalsh(T))
            assert pivot_residuals(T, T)[0][2] == (lam.max(axis=1) / lam.min(axis=1)).min()
            assert at_identity(active_pairings(build_bcn(params), x))[0][2] == 1.0


# every oracle family, and unit-m BC_n at n = 16 and 20 (theorem and broken),
# where the pairs-only pass saves most, at points of --box 0.3,4
BIT_FOR_BIT = [(p, DEFAULT_BOX) for p in KERNEL_FAMILIES] + [
    (p, (0.3, 4.0)) for n in (16, 20) for p in _theorem_and_broken(n, 0.0, 1.0, (1.0,) * n)
]


@pytest.mark.parametrize("params, box", BIT_FOR_BIT, ids=[f"n={p.n},r={p.r:.4g}" for p, _ in BIT_FOR_BIT])
def test_kernel_is_the_full_pass_bit_for_bit(params, box):
    # the pairs i < j give the full pass's floats exactly, for verify-wdvv's stack [B, eta.F], for
    # B and each F_k alone and for stacks of the F_k and of both; the full pass's matrices are
    # symmetric with a zero diagonal, so the pairs i < j hold all of their content
    label = f"kernel/full/{params.n}/{params.r}"
    i, j = np.triu_indices(params.n, 1)
    eta = rng_for(0, f"{label}/eta").standard_normal(params.n)
    for x, T, B in sampled_tensors(params, 3 if params.n < 16 else 2, label, box=box):
        B_eta_F = np.stack([B, np.tensordot(eta, T, axes=1)])
        stacks = (B[None], *T[:, None], T, B_eta_F, np.concatenate([B[None], T]), np.concatenate([T, B[None]]))
        for pivots in stacks:
            got, want = pivot_residuals(T, pivots)[0], pivot_residuals_full(T, pivots)
            for name, a, b in zip(("scaled", "raw"), got, want):
                assert np.array_equal(a, b[i, j]), name
                assert np.array_equal(b, b.T), name
                assert not b.diagonal().any(), name
            assert got[2] == want[2], "condition"


# the rescaled families of verify-susy's golden reports at unequal m, at the theorem and at r + 1
HAT_FAMILIES = [*_theorem_and_broken(3, 1.0, 2.0, (1.0, 2.0, 2.0)), *_theorem_and_broken(4, 0.5, 1.0, (2.0, 1.0, 3.0, 1.0))]


@pytest.mark.parametrize("params, hat", [(p, False) for p, _ in BIT_FOR_BIT] + [(p, True) for p in HAT_FAMILIES],
                         ids=[f"n={p.n},r={p.r:.4g}" for p, _ in BIT_FOR_BIT] + [f"hat-n={p.n},r={p.r:.4g}"
                                                                               for p in HAT_FAMILIES])
def test_the_commuting_form_is_the_dense_identity_pass(params, hat):
    # the arrow kernel at the identity pivot against the oracles' full commutator pass of the dense tensor
    # at P = I: the same pairs, each scaled residual within 8 n eps (V and the tensor are two GEMMs over the
    # members, and each entry of M_ij is a sum of at most n + 3 terms, each bounded by ||F_i|| ||F_j||), raw
    # within the same bound times ||F_i|| ||F_j||, and condition number 1
    eps, n = np.finfo(float).eps, params.n
    config = build_hat_configuration(params).config if hat else build_bcn(params)
    box = DEFAULT_BOX if n <= 10 else (0.3, 4.0)
    i, j = np.triu_indices(n, 1)
    for x in sample_points(rng_for(0, f"commuting/dense/{n}/{params.r}/{hat}"), fully_active(config), 3, box):
        active = active_pairings(config, x)
        T = tensor_generic(active)
        (scaled, raw, condition), refusals = at_identity(active)
        want_scaled, want_raw, _ = pivot_residuals_full(T)
        norms = np.abs(np.linalg.eigvalsh(T)).max(axis=-1)
        assert refusals is None and condition == 1.0
        assert scaled.shape == raw.shape == (n * (n - 1) // 2,)
        assert np.abs(scaled - want_scaled[i, j]).max() <= 8 * n * eps, (params, x)
        assert (np.abs(raw - want_raw[i, j]) <= 8 * n * eps * norms[i] * norms[j]).all(), (params, x)


@pytest.mark.parametrize("stack, calls", [("[B; eta.F]", 2), ("T", 2), ("B", 2), ("identity", 1)])
def test_eigvalsh_calls_per_kernel_call(monkeypatch, stack, calls):
    # one eigvalsh of the pivot stack for the condition numbers, whatever its length
    # (verify-wdvv's [B, eta.F] included), one of the tensor for the norms ||F_k||, no SVD,
    # and one solve, against the one chosen (n, n) pivot; the commuting form, the arrow kernel at
    # the identity, takes one eigvalsh, of the n arrow slices, and no solve
    x, T, B = next(sampled_tensors(KERNEL_FAMILIES[6], 1, "kernel/svd"))  # n=10, on the relation
    V = arrow_slices(active_pairings(build_bcn(KERNEL_FAMILIES[6]), x))
    eta_F = np.tensordot(rng_for(0, "kernel/svd/eta").standard_normal(len(T)), T, axes=1)
    pivots = {"[B; eta.F]": np.stack([B, eta_F]), "T": T, "B": B[None], "identity": None}[stack]
    seen, solved = [], []
    eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve

    def counting(*args, **kwargs):
        seen.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    def counting_solve(a, b):
        solved.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    _refuse_svd(monkeypatch)
    if pivots is None:
        arrow_residuals(V, np.ones(len(V)))
    else:
        pivot_residuals(T, pivots)
    assert len(seen) == calls, seen
    assert solved == ([] if pivots is None else [B.shape]), solved


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


def test_singular_pivot_form_is_refused_naming_the_pivot():
    # every slice is unusable, F_0 singular and F_1 at condition 1e9: the refusal names
    # the best-conditioned candidate, above the cap as every other one is
    T = np.zeros((2, 2, 2))
    T[0] = np.diag([1.0, 0.0])
    T[1] = np.diag([1.0, 1e-9])
    assert pivot_residuals(T, T)[1] == "pivot 1 has condition number 1.000e+09 above 1e+08"


@pytest.mark.parametrize("case", ["lowest-condition-wins", "first-wins-a-tie", "none-usable", "non-finite"])
def test_the_selection_rule(case):
    # the one selection rule: of the usable candidates the lowest condition number wins, the first
    # on a tie; a stack with none usable is refused, and a non-finite candidate is refused by name
    # even when another candidate is usable, so the overflow contract does not depend on the choice
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.array([[2.0, 1.0], [1.0, 3.0]])
    if case == "lowest-condition-wins":
        P = np.stack([np.diag([1.0, 0.1]), np.array([[1.0, 0.3], [0.3, 0.8]]), np.diag([1.0, 0.2])])
        pivot, sv, condition, refusal = usable_pivots(P)
        assert pivot.tobytes() == P[1].tobytes() and condition == sv[0] / sv[-1] < 5.0  # against 10 and 5
        assert refusal is None
        for got, want in zip(pivot_residuals(T, P)[0], pivot_residuals(T, P[1:2])[0]):
            assert np.array_equal(got, want)
        assert not np.array_equal(pivot_residuals(T, P)[0][0], pivot_residuals(T, P[2:])[0][0])
    elif case == "first-wins-a-tie":
        P = np.stack([np.diag([1.0, 0.5]), np.diag([0.5, 1.0])])
        assert usable_pivots(P)[0].tobytes() == P[0].tobytes()
        assert usable_pivots(P[::-1])[0].tobytes() == P[1].tobytes()
        assert usable_pivots(P)[2] == usable_pivots(P[::-1])[2] == 2.0
    elif case == "none-usable":
        P = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 1.0 / (2 * CONDITION_CAP)]), np.zeros((2, 2))])
        assert pivot_residuals(T, P)[1] == "pivot 1 has condition number 2.000e+08 above 1e+08"
    else:
        P = np.stack([np.eye(2), np.eye(2), np.diag([1.0, np.inf])])
        with pytest.raises(DomainError, match="^pivot 2 is not finite$"):
            pivot_residuals(T, P)


def test_the_eta_route_fails_an_r_plus_1_tensor():
    # at m = 1,1,1,10 the metric B is near h diag(m), of condition about 10, and eta.F is often
    # the better pivot: wherever the kernel chooses it on the r + 1 tensor, the residual reads
    # above 1e-8 (at least 2.1e-6 here), and at the theorem at rounding level
    s, q, m = 0.0, 1.0, (1.0, 1.0, 1.0, 10.0)
    eta = rng_for(0, "verify-wdvv/pivot").standard_normal(4)
    for shift, want in ((1.0, lambda v: v > 1e-8), (0.0, lambda v: v < 1e-13)):
        params = BCnParameters(n=4, r=solve_r(s, q, m) + shift, s=s, q=q, m=m)
        chosen = 0
        for x, T, B in sampled_tensors(params, 30, "eta-route"):
            candidates = np.stack([B, np.tensordot(eta, T, axes=1)])
            if usable_pivots(candidates)[0].tobytes() == candidates[1].tobytes():
                chosen += 1
                scaled = pivot_residuals(T, candidates)[0][0]
                assert np.array_equal(scaled, pivot_residuals(T, candidates[1:])[0][0])
                assert want(scaled.max()), (shift, x, scaled.max())
        assert chosen >= 10, chosen


@pytest.mark.parametrize("condition, usable", [(1e7, True), (1e9, False)])
def test_one_usable_pivot_rule(condition, usable):
    # a pivot is usable iff its condition number is at most CONDITION_CAP
    T = np.zeros((2, 2, 2))
    T[0] = np.eye(2)
    T[1] = np.diag([1.0, 2.0])
    P = np.diag([1.0, 1.0 / condition])[None]
    (_, _, got), refusal = pivot_residuals(T, P)
    if usable:
        assert got == condition and refusal is None
    else:
        assert refusal == "pivot 0 has condition number 1.000e+09 above 1e+08"


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
        B = metric_B_einsum(T, [0.5, 0.7])
        with pytest.raises(DomainError, match="the tensor is not finite"):
            pivot_residuals(T, B[None] if value == np.inf else P)


def _random_families(n, seed):
    """A theorem family and its r + 1 control at random (s, q, m), m_i in [0.2, 3], s in [-2, 2],
    q in [0.1, 2], then the same at q = 0."""
    rng = rng_for(seed, f"arrow/families/{n}")
    m, s, q = tuple(rng.uniform(0.2, 3.0, n)), float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.1, 2.0))
    for q in (q, 0.0):
        theorem = BCnParameters(n=n, r=solve_r(s, q, m), s=s, q=q, m=m)
        yield from (theorem, BCnParameters(n=n, r=theorem.r + 1.0, s=s, q=q, m=m))


@pytest.mark.parametrize("n", [3, 4, 6, 10, 20, 40])
def test_arrow_kernel_matches_the_dense_oracle(n):
    # the arrow kernel at diag(B) against pivot_residuals at the dense B, contracted from the tensor as
    # the kernel contracts V (the members' B sums its diagonal in another order): the same pairs in the same
    # order, each scaled residual within 8 n eps (measured: at most 0.73 n eps), and the same condition
    eps = np.finfo(float).eps
    box = DEFAULT_BOX if n <= 10 else (0.3, 4.0)
    for params in _random_families(n, seed=n):
        config = build_bcn(params)
        for x in sample_points(rng_for(0, f"arrow/{n}/{params.r}"), fully_active(config), 3 if n <= 10 else 2, box):
            active = active_pairings(config, x)
            T = tensor_generic(active)
            scaled, raw, condition = at_b(active, x)[0]
            want_scaled, want_raw, want_condition = pivot_residuals(T, metric_B_einsum(T, x)[None])[0]
            assert scaled.shape == raw.shape == want_scaled.shape == (n * (n - 1) // 2,)
            assert np.abs(scaled - want_scaled).max() <= 8 * n * eps, (params, x)
            assert condition == pytest.approx(want_condition, rel=1e-12)
            if params.q == 0.0:  # diagonal slices commute exactly
                assert not raw.any() and not want_raw.any()


def test_the_arrow_kernel_fails_r_plus_1_and_passes_the_theorem():
    # the kernel alone, at the n = 10 family of wdvv_n10 and its control
    for shift, want in ((0.0, lambda v: v < 1e-14), (1.0, lambda v: v > 1e-6)):
        params = BCnParameters(n=10, r=-16.0 + shift, s=0.0, q=1.0, m=(1.0,) * 10)
        config = build_bcn(params)
        for x in sample_points(rng_for(0, "arrow/control"), fully_active(config), 5):
            scaled = at_b(active_pairings(config, x), x)[0][0]
            assert want(scaled.max()), (shift, scaled.max())


def _diagonal_active(c=(1.0, 1.0, 1.0)):
    """(A, c, z) of the three covectors e_i, at pairings 1: F is diagonal, V = diag(c coth 1)."""
    return np.eye(3), np.array(c), np.ones(3)


@pytest.mark.parametrize("case", ["tensor", "pivot", "zero-pivot"])
def test_the_arrow_kernel_refusals(case):
    # a non-finite V or B raises by name, B's by usable_pivots' text, and a zero B_kk is returned as the
    # point's refusal, on which a run discards it: its condition number is +inf, its values are finite,
    # and no divide warns
    with np.errstate(over="ignore", invalid="ignore"):
        if case == "tensor":
            with pytest.raises(DomainError, match="^the tensor is not finite$"):
                at_b(_diagonal_active((1.0, np.inf, 1.0)), np.full(3, 0.5))
        elif case == "pivot":
            with pytest.raises(DomainError, match="^pivot 0 is not finite$"):
                at_b(_diagonal_active(), np.array([400.0, 0.5, 0.7]))  # sinh(800) overflows
        else:
            with np.errstate(all="raise"):
                (scaled, raw, condition), refusal = at_b(_diagonal_active(), np.array([0.5, 0.0, 0.7]))
            assert refusal == "the diagonal pivot B has B_kk = 0 at k = 1"
            assert condition == np.inf and np.isfinite(scaled).all() and np.isfinite(raw).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20])
def test_every_family_member_has_at_most_two_nonzero_entries(n):
    # the arrow kernel's premise: F_ijk = 0 for distinct i, j, k, and B is diagonal
    vectors, _ = _bcn_members(BCnParameters(n=n, r=1.0, s=2.0, q=3.0, m=tuple(range(1, n + 1))))
    assert len(vectors) == 2 * n + n * (n - 1)
    assert (np.count_nonzero(vectors, axis=1) <= 2).all()


def test_a_family_run_takes_the_arrow_kernel_once_per_block(monkeypatch):
    # no tensor, no dense kernel: one arrow_residuals call per block of points, here the run's four
    # points at n = 4 in one call on a (4, 4) block
    calls = []

    def refused(*args):
        raise AssertionError("the family route took the dense route")

    def counting(V, B):
        calls.append((V.shape, B.shape))
        return arrow_residuals(V, B)

    monkeypatch.setattr(cli, "pivot_residuals", refused)
    monkeypatch.setattr(cli, "tensor_generic", refused)
    monkeypatch.setattr(cli, "arrow_residuals", counting)
    source = {"family": "bcn", "n": 4, "r": -14, "s": 0.5, "q": 1, "m": [2, 1, 3, 1]}
    assert run(RunSpec(command="verify-wdvv", config_source=source, samples=4)).all_passed
    assert calls == [((4, 4, 4), (4, 4))]


def test_a_susy_run_takes_the_arrow_kernel_at_the_identity_once_per_block(monkeypatch):
    # verify-susy forms no tensor and takes no dense kernel: its commuting form is one arrow_residuals call
    # per block at B = ones, here the run's four points at n = 4 in one call
    calls = []

    def refused(*args):
        raise AssertionError("verify-susy took the dense route")

    def counting(V, B):
        calls.append((V.shape, B.shape, bool((B == 1.0).all())))
        return arrow_residuals(V, B)

    monkeypatch.setattr(cli, "pivot_residuals", refused)
    monkeypatch.setattr(cli, "tensor_generic", refused)
    monkeypatch.setattr(cli, "arrow_residuals", counting)
    source = {"family": "bcn", "n": 4, "r": -14, "s": 0.5, "q": 1, "m": [2, 1, 3, 1]}
    assert run(RunSpec(command="verify-susy", config_source=source, samples=4)).all_passed
    assert calls == [((4, 4, 4), (4, 4), True)]


def _same_bits(got, want) -> bool:
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("n", [3, 4, 6, 10, 20, 40])
def test_an_arrow_block_is_its_points_bit_for_bit(n):
    # one call on a (b, n) block gives each point's scaled, raw and condition as that point alone
    box = DEFAULT_BOX if n <= 10 else (0.3, 4.0)
    b = 3 if n <= 20 else 2
    for params in _random_families(n, seed=n):
        config = build_bcn(params)
        xs = sample_points(rng_for(1, f"arrow/block/{n}/{params.r}"), fully_active(config), b, box)
        alone = [at_b(active_pairings(config, x), x) for x in xs]
        A, c, _ = active_pairings(config, xs[0])
        block, refusals = at_b((A, c, np.stack([active_pairings(config, x)[2] for x in xs])), np.stack(xs))
        assert [a.shape for a in block] == [(b, n * (n - 1) // 2)] * 2 + [(b,)] and refusals == [None] * b
        for p, (one, refusal) in enumerate(alone):
            assert isinstance(one[2], float) and refusal is None
            assert _same_bits([out[p] for out in block], one), (params, p)


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize(
    "case, text",
    [("tensor", "the tensor is not finite"), ("pivot", "pivot 0 is not finite")],
)
def test_a_block_with_a_non_finite_point_raises_as_that_point(case, text, where):
    # one non-finite point among two family points: the block raises that point's error class and text
    config = build_bcn(BCnParameters(n=4, r=-14.0, s=0.5, q=1.0, m=(2.0, 1.0, 3.0, 1.0)))
    xs = sample_points(rng_for(0, "arrow/refused"), fully_active(config), 3)
    A, c, _ = active_pairings(config, xs[0])
    zs = np.stack([active_pairings(config, x)[2] for x in xs])
    if case == "tensor":
        zs[where, 1] = np.nan
    else:
        xs[where, 2] = 400.0  # sinh(800) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError) as alone:
            at_b((A, c, zs[where]), xs[where])
        with pytest.raises(DomainError) as block:
            at_b((A, c, zs), xs)
    assert str(block.value) == str(alone.value) == text


@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_block_with_a_zero_pivot_refuses_that_point_alone(where):
    # at q = 0 the pair members have multiplicity 0, so V and B are diagonal and x_3 = 0 zeroes B_33
    # alone: the block refuses that point with its own text, and every other point's values are its
    # bits as alone, with no divide warning
    config = build_bcn(BCnParameters(n=4, r=-14.0, s=0.5, q=0.0, m=(2.0, 1.0, 3.0, 1.0)))
    xs = sample_points(rng_for(0, "arrow/refused"), fully_active(config), 3)
    A, c, _ = active_pairings(config, xs[0])
    zs = np.stack([active_pairings(config, x)[2] for x in xs])
    xs[where, 2] = 0.0  # z, and so V, kept
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        block, refusals = at_b((A, c, zs), xs)
        alone = [at_b((A, c, z), x) for z, x in zip(zs, xs)]
    text = "the diagonal pivot B has B_kk = 0 at k = 2"
    assert refusals == [text if p == where else None for p in range(3)]
    assert [refusal for _, refusal in alone] == refusals
    assert block[2][where] == np.inf and all(np.isfinite(out).all() for out in block[:2])
    for p, (one, _) in enumerate(alone):
        if p != where:
            assert _same_bits([out[p] for out in block], one), p


@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_block_whose_point_has_a_singular_pivot_refuses_that_point_alone(where):
    # a block of three explicit points, each with the candidates [B, eta.F]; at one point both are
    # exactly singular, condition number +inf: that point is refused with its own text, its pivot is
    # never factorised (no LinAlgError, no warning), and every other point's values and condition
    # number are its bits as alone
    config = build_bcn(BCnParameters(n=4, r=-14.0, s=0.5, q=1.0, m=(2.0, 1.0, 3.0, 1.0)))
    eta = rng_for(0, "block/eta").standard_normal(4)
    xs = sample_points(rng_for(0, "block/singular"), fully_active(config), 3)
    tensors, stacks = [], []
    for x in xs:
        active = active_pairings(config, x)
        T = tensor_generic(active)
        tensors.append(T)
        stacks.append(np.stack([metric_B(active, x), np.tensordot(eta, T, axes=1)]))
    T, P = np.stack(tensors), np.stack(stacks)
    P[where] = np.diag([1.0, 1.0, 1.0, 0.0])
    with np.errstate(all="raise"):
        block, refusals = pivot_residuals(T, P)
        alone = [pivot_residuals(t, p) for t, p in zip(T, P)]
    assert refusals == [("pivot 0 has condition number inf above 1e+08" if p == where else None) for p in range(3)]
    assert [refusal for _, refusal in alone] == refusals
    assert block[2][where] == np.inf and all(np.isfinite(out).all() for out in block[:2])
    for p, (one, _) in enumerate(alone):
        if p != where:
            assert _same_bits([out[p] for out in block], one), p


def test_the_family_route_fails_a_pair_multiplicity_mutant(monkeypatch):
    # the e_i - e_j multiplicities scaled by 1.001: B is no longer diagonal, the tensor leaves the
    # solution variety, and the family route, which reads the members, fails it
    original = configurations._bcn_members

    def mutant(p):
        vectors, mults = original(p)
        mults[2 * p.n + 1 :: 2] *= 1.001  # e_i - e_j follows e_i + e_j
        return vectors, mults

    source = {"family": "bcn", "n": 4, "r": -14, "s": 0.5, "q": 1, "m": [2, 1, 3, 1]}
    spec = RunSpec(command="verify-wdvv", config_source=source, samples=10)
    assert run(spec).all_passed
    monkeypatch.setattr(configurations, "_bcn_members", mutant)
    (check,) = run(spec).checks
    assert not check.passed and check.max_residual > 1e-5, check.max_residual
