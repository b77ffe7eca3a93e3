"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
and timings.  Tolerances and budgets are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from trigwdvv.algebra import (
    RestrictionContext,
    multiply,
    restricted_multiply,
    structure_constants,
    tangency_residuals,
)
from trigwdvv.configurations import (
    BCnParameters,
    Partition,
    build_bcn,
    restrict_configuration,
    solve_r,
)
from trigwdvv.prepotential import (
    active_pairings,
    h_function,
    identity_residuals,
    metric_B,
    metric_identity_residuals,
    tensor_closed_form,
    tensor_generic,
)
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv.susy import build_hat_configuration
from trigwdvv.wdvv import pivot_residuals

from tests.oracles import (
    DenseFermionicSpace,
    anticommutator,
    gauge_residual_fd,
    gaussian_field,
    phi_matrix,
    phi_matrix_bruteforce,
    polynomial_field,
    sample_points,
    sinh_product_field,
)
from tests.test_cli import FAMILY_OK, run_cli

SEED = 20240
GAUGE_THETA = 0.6


def _line(num: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {name} ({elapsed:.2f}s){suffix}")


def _random_params(rng, n):
    return BCnParameters(
        n=n,
        r=float(rng.uniform(-3, 3)),
        s=float(rng.uniform(-3, 3)),
        q=float(rng.uniform(-3, 3)),
        m=tuple(rng.uniform(0.5, 4, n)),
    )


def test_criterion_1_two_path_tensor_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        rng = rng_for(SEED, f"acceptance1/n={n}")
        for _ in range(20):
            p = _random_params(rng, n)
            config = build_bcn(p)
            pattern = fully_active(config)
            for x in sample_points(rng, pattern, 20):
                G = tensor_generic(config, x)
                C = tensor_closed_form(p, x)
                worst = max(worst, np.abs(G - C).max() / max(1.0, np.abs(C).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _line(1, "two-path tensor equivalence", ok, elapsed, f"max rel dev {worst:.2e}")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_hyperbolic_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        pattern = fully_active(build_bcn(BCnParameters(n=n, r=1, s=1, q=1, m=(1.0,) * n)))
        rng = rng_for(SEED, f"acceptance2/n={n}")
        for x in sample_points(rng, pattern, 100):
            for k in range(n):
                for j in range(k + 1, n):
                    first, second = identity_residuals(x, k, j)
                    worst = max(worst, abs(first), abs(second))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _line(2, "hyperbolic identities", ok, elapsed, f"max residual {worst:.2e}")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_3_metric_structure():
    t0 = time.perf_counter()
    rng = rng_for(SEED, "acceptance3/params")
    worst_off = worst_diag = worst_delta = 0.0

    # off-diagonal vanishes for arbitrary parameters
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = _random_params(rng, n)
        config = build_bcn(p)
        x = sample_points(rng, fully_active(config), 1)[0]
        B = metric_B(tensor_generic(config, x), x)
        off = B - np.diag(np.diag(B))
        worst_off = max(worst_off, np.abs(off).max() / max(1.0, np.abs(B).max()))

    # constraint satisfied: B_ll = m_l h(x)
    p_ok = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
    config = build_bcn(p_ok)
    rng2 = rng_for(SEED, "acceptance3/diag")
    for x in sample_points(rng2, fully_active(config), 100):
        B = metric_B(tensor_generic(config, x), x)
        dev = np.abs(np.diag(B) - p_ok.m_array * h_function(p_ok, x)).max()
        worst_diag = max(worst_diag, dev / max(1.0, np.abs(B).max()))

    # constraint residual delta shows up as m_l * delta * cosh(2 x_l)
    delta = 0.5
    p_broken = BCnParameters(n=3, r=-2.0 + delta, s=0.0, q=1.0, m=(1.0, 1.0, 1.0))
    config = build_bcn(p_broken)
    rng3 = rng_for(SEED, "acceptance3/delta")
    for x in sample_points(rng3, fully_active(config), 100):
        B = metric_B(tensor_generic(config, x), x)
        predicted = p_broken.m_array * (h_function(p_broken, x) + delta * np.cosh(2.0 * x))
        dev = np.abs(np.diag(B) - predicted).max()
        worst_delta = max(worst_delta, dev / max(1.0, np.abs(B).max()))

    elapsed = time.perf_counter() - t0
    ok = max(worst_off, worst_diag, worst_delta) < 1e-10 and elapsed < 1.0
    _line(
        3,
        "metric structure",
        ok,
        elapsed,
        f"off {worst_off:.2e}, diag {worst_diag:.2e}, delta-shift {worst_delta:.2e}",
    )
    assert worst_off < 1e-10
    assert worst_diag < 1e-10
    assert worst_delta < 1e-10
    assert elapsed < 1.0


WDVV_FAMILIES = [
    BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0)),
    BCnParameters(n=3, r=-2.0, s=0.0, q=1.0, m=(1.0, 1.0, 1.0)),
    BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0)),
    BCnParameters(
        n=3, r=solve_r(0.5, 1.5, (0.7, 1.3, 2.1)), s=0.5, q=1.5, m=(0.7, 1.3, 2.1)
    ),
]


def test_criterion_4_wdvv_theorems():
    t0 = time.perf_counter()
    worst_pos = 0.0
    for fam_idx, p in enumerate(WDVV_FAMILIES):
        config = build_bcn(p)
        pattern = fully_active(config)
        rng = rng_for(SEED, f"acceptance4/pos/{fam_idx}")
        for x in sample_points(rng, pattern, 50):
            T = tensor_generic(config, x)
            B = metric_B(T, x)
            worst_pos = max(worst_pos, pivot_residuals(T, B[None])[0].max())

    # negative controls: perturbing the constraint by 0.5 breaks the equations.
    # In two dimensions the pair equation holds identically for every B built
    # from F_1 and F_2, so the controls live on the n = 3 families.  A point
    # detects the break when any of the theorem's commutators (pair form or
    # pivot form) exceeds the bar; the raw entries are judged because the
    # operand-norm scaling deflates them below it at near-mirror samples.
    frac_bad = []
    for fam_idx, p in enumerate(WDVV_FAMILIES):
        if p.n < 3:
            continue
        broken = BCnParameters(n=p.n, r=p.r + 0.5, s=p.s, q=p.q, m=p.m)
        config = build_bcn(broken)
        pattern = fully_active(config)
        rng = rng_for(SEED, f"acceptance4/neg/{fam_idx}")
        above = total = 0
        for x in sample_points(rng, pattern, 50):
            T = tensor_generic(config, x)
            B = metric_B(T, x)
            worst = max(pivot_residuals(T, B[None])[1].max(), pivot_residuals(T, T)[1].max())
            total += 1
            if worst > 1e-3:
                above += 1
        frac_bad.append(above / total)

    # the two-dimensional vacuity, stated positively: even off the constraint
    # the pair residual stays at machine precision
    p2 = WDVV_FAMILIES[2]
    broken2 = BCnParameters(n=2, r=p2.r + 0.5, s=p2.s, q=p2.q, m=p2.m)
    config2 = build_bcn(broken2)
    rng = rng_for(SEED, "acceptance4/n2")
    worst_n2 = 0.0
    for x in sample_points(rng, fully_active(config2), 50):
        T = tensor_generic(config2, x)
        B = metric_B(T, x)
        worst_n2 = max(worst_n2, pivot_residuals(T, B[None])[0][0, 0])

    elapsed = time.perf_counter() - t0
    ok = worst_pos < 1e-8 and all(f >= 0.9 for f in frac_bad) and worst_n2 < 1e-8 and elapsed < 10.0
    _line(
        4,
        "WDVV theorems with negative controls",
        ok,
        elapsed,
        f"pos {worst_pos:.2e}, neg>1e-3 at {[f'{f:.0%}' for f in frac_bad]}, n=2 identity {worst_n2:.2e}",
    )
    assert worst_pos < 1e-8
    for frac in frac_bad:
        assert frac >= 0.9
    assert worst_n2 < 1e-8
    assert elapsed < 10.0


def test_criterion_5_restriction_machinery():
    t0 = time.perf_counter()
    part = Partition(N=5, blocks=(2, 3))
    r, s, q = -20.0, 1.0, 2.0

    projected = restrict_configuration(5, r, s, q, part)
    rebuilt = build_bcn(BCnParameters(n=2, r=r, s=s, q=q, m=(2.0, 3.0)))
    # the restriction keeps build_bcn's member order: members compare in place, exactly
    exact_match = np.array_equal(projected.vectors, rebuilt.vectors) and np.array_equal(
        projected.multiplicities, rebuilt.multiplicities
    )

    pattern = fully_active(rebuilt)
    rng = rng_for(SEED, "acceptance5/points")
    worst_struct = worst_tan = worst_hb = 0.0
    rctx = RestrictionContext(r, s, q, part)
    for xt in sample_points(rng, pattern, 20):
        active = rctx.pairings(xt)
        C = structure_constants(rctx, active)
        Ft = tensor_generic(rctx.projected_config, xt)
        expected = np.einsum("ijk,k->ijk", Ft, 1.0 / rctx.m)
        worst_struct = max(
            worst_struct, np.abs(C - expected).max() / max(1.0, np.abs(expected).max())
        )
        u = part.block_indicators().T @ rng.standard_normal(2)
        v = part.block_indicators().T @ rng.standard_normal(2)
        worst_tan = max(worst_tan, tangency_residuals(rctx, active, u, v).max())
        worst_hb = max(worst_hb, *metric_identity_residuals(rctx.params, Ft, xt))

    # path limit: full product converges to the restricted one at first order
    orders = []
    ambient = build_bcn(BCnParameters(n=5, r=r, s=s, q=q, m=(1.0,) * 5))
    rng_path = rng_for(SEED, "acceptance5/path")
    for _ in range(5):
        xt = sample_points(rng_path, pattern, 1)[0]
        u = part.block_indicators().T @ rng_path.standard_normal(2)
        v = part.block_indicators().T @ rng_path.standard_normal(2)
        limit = restricted_multiply(rctx, rctx.pairings(xt), u, v)
        d = rng_path.standard_normal(5)
        F = part.block_indicators()
        for k in range(2):
            fk = F[k]
            d -= (d @ fk) / (fk @ fk) * fk
        d /= np.linalg.norm(d)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            active = active_pairings(ambient, part.block_indicators().T @ xt + eps * d, threshold=1e-12)
            errs.append(np.abs(multiply(active, u, v) - limit).max())
        orders.append(math.log10(errs[0] / errs[2]) / 2.0)

    elapsed = time.perf_counter() - t0
    orders_ok = all(0.7 < o < 1.3 for o in orders)
    ok = (
        exact_match
        and worst_struct < 1e-10
        and worst_tan < 1e-10
        and worst_hb < 1e-10
        and orders_ok
        and elapsed < 10.0
    )
    _line(
        5,
        "restriction machinery",
        ok,
        elapsed,
        f"match={exact_match}, struct {worst_struct:.2e}, tan {worst_tan:.2e}, "
        f"h_B {worst_hb:.2e}, orders {[f'{o:.2f}' for o in orders]}",
    )
    assert exact_match
    assert worst_struct < 1e-10
    assert worst_tan < 1e-10
    assert worst_hb < 1e-10
    assert orders_ok
    assert elapsed < 10.0


def test_criterion_6_susy_block():
    t0 = time.perf_counter()

    # fermionic anticommutation relations, exact
    worst_anti = 0.0
    for n in (1, 2, 3):
        fs = DenseFermionicSpace(n)
        eye = np.eye(fs.dim)
        modes = [(a, j) for a in range(2) for j in range(n)]
        for a, j in modes:
            for b, k in modes:
                worst_anti = max(
                    worst_anti,
                    np.abs(anticommutator(fs.psi[a][j], fs.psi[b][k])).max(),
                    np.abs(anticommutator(fs.psibar[a][j], fs.psibar[b][k])).max(),
                    np.abs(
                        anticommutator(fs.psi[a][j], fs.psibar[b][k])
                        - (-0.5 * eye if (a, j) == (b, k) else 0.0)
                    ).max(),
                )

    # rescaled tensors commute under the constraint and fail off it
    p_ok = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
    p_bad = BCnParameters(n=2, r=-19.5, s=1.0, q=2.0, m=(2.0, 3.0))
    hat_ok = build_hat_configuration(p_ok).config
    hat_bad = build_hat_configuration(p_bad).config
    rng = rng_for(SEED, "acceptance6/commuting")
    pts = sample_points(rng, fully_active(hat_ok), 50)
    worst_comm = max(pivot_residuals(tensor_generic(hat_ok, x))[0][0, 0] for x in pts)
    broken_raw = np.median([pivot_residuals(tensor_generic(hat_bad, x))[1][0, 0] for x in pts])

    # four-fermion term against the literal eight-index oracle
    worst_phi = 0.0
    for n, p in ((1, BCnParameters(n=1, r=1.0, s=0.5, q=0.0, m=(2.0,))), (2, p_ok)):
        hat = build_hat_configuration(p)
        fs = DenseFermionicSpace(n)
        rng_phi = rng_for(SEED, f"acceptance6/phi/n={n}")
        # wide margins keep the 1/sinh^2 prefactors small, so the two
        # summation orders agree to well below the 1e-13 bar
        for xh in sample_points(
            rng_phi, fully_active(hat.config), 3, threshold=0.35
        ):
            got = phi_matrix(hat.config, xh, fs)
            ref = phi_matrix_bruteforce(hat.config, xh, fs)
            worst_phi = max(worst_phi, np.abs(got - ref).max())

    # gauge relation: residual small at step 1e-3, second order in the step
    hat = build_hat_configuration(BCnParameters(n=2, r=0.0, s=0.0, q=1.0, m=(1.0, 1.0)))
    rng_g = rng_for(SEED, "acceptance6/gauge")
    pts = sample_points(rng_g, fully_active(hat.config), 20, threshold=GAUGE_THETA)
    worst_gauge = 0.0
    family_orders = []
    for make_field in (
        lambda x0: gaussian_field(x0 + 0.2),
        lambda x0: sinh_product_field(),
        lambda x0: polynomial_field(),
    ):
        orders = []
        for x0 in pts:
            phi = make_field(x0)
            res1 = gauge_residual_fd(hat.config, x0, phi, step=1e-3)
            res2 = gauge_residual_fd(hat.config, x0, phi, step=5e-4)
            worst_gauge = max(worst_gauge, res1)
            orders.append(math.log2(res1 / res2))
        family_orders.append(float(np.median(orders)))

    elapsed = time.perf_counter() - t0
    orders_ok = all(abs(o - 2.0) <= 0.3 for o in family_orders)
    ok = (
        worst_anti <= 1e-13
        and worst_comm < 1e-8
        and broken_raw > 1e-3
        and worst_phi <= 1e-13
        and worst_gauge < 1e-4
        and orders_ok
        and elapsed < 30.0
    )
    _line(
        6,
        "supersymmetric block",
        ok,
        elapsed,
        f"anti {worst_anti:.1e}, comm {worst_comm:.2e}, broken {broken_raw:.2e}, "
        f"phi {worst_phi:.2e}, gauge {worst_gauge:.2e}, orders {[f'{o:.2f}' for o in family_orders]}",
    )
    assert worst_anti <= 1e-13
    assert worst_comm < 1e-8
    assert broken_raw > 1e-3
    assert worst_phi <= 1e-13
    assert worst_gauge < 1e-4
    assert orders_ok
    assert elapsed < 30.0


def test_criterion_7_cli_contract():
    t0 = time.perf_counter()

    ok_run = run_cli("verify-wdvv", *FAMILY_OK, "--samples", "50", "--seed", "42", "--tol", "1e-8")
    pass_ok = ok_run.returncode == 0

    broken_args = FAMILY_OK.copy()
    broken_args[broken_args.index("-2")] = "-1.5"
    bad_run = run_cli(
        "verify-wdvv", *broken_args, "--samples", "50", "--seed", "42", "--tol", "1e-8", "--json"
    )
    fail_ok = bad_run.returncode == 1
    if fail_ok:
        report = json.loads(bad_run.stdout)
        fail_ok = any(c["max_residual"] > 1e-8 for c in report["checks"])

    zero_run = run_cli("verify-wdvv", *FAMILY_OK, "--samples", "0", "--seed", "42")
    precondition_ok = zero_run.returncode == 2

    args = ("verify-wdvv", *FAMILY_OK, "--samples", "20", "--seed", "42", "--json")
    deterministic = run_cli(*args).stdout == run_cli(*args).stdout

    elapsed = time.perf_counter() - t0
    ok = pass_ok and fail_ok and precondition_ok and deterministic
    _line(
        7,
        "CLI contract",
        ok,
        elapsed,
        f"pass={pass_ok}, fail={fail_ok}, precondition={precondition_ok}, deterministic={deterministic}",
    )
    assert pass_ok
    assert fail_ok
    assert precondition_ok
    assert deterministic
