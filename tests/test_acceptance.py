"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Stochastic criteria use pinned seeds, so every run is identical.

Criterion 8 exercises the duplication protocol in its documented form; its
skewed-data side is known to fall short of the required 90/100 (the
bootstrap gate's operating characteristics cap it near 0.73; see the
printed counts). It is kept faithful rather than tuned to pass.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gjb.asymptotics import sigma_analytic, sigma_monte_carlo
from gjb.distributions import SkewNormalShape, sample_sn, sn_pdf
from gjb.moments import (
    analytic_shape_statistics,
    shape_statistics,
    sn_raw_moments,
)
from gjb.reference import (
    REFERENCE_MEAN_PVALUES,
    REFERENCE_REJECTION_SIZES,
    REFERENCE_SHAPE_VALUES,
)
from gjb.testing import (
    CampaignConfig,
    duplication_decision,
    empirical_shape,
    estimate_alpha,
    gjb_statistic,
    rejection_size_search,
    run_test,
    simulate_true_model,
)


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gaussian_reduction():
    sig = sigma_analytic(sn_raw_moments(SkewNormalShape(0.0)))
    errs = (abs(sig.s11 - 24.0), abs(sig.s22 - 6.0), abs(sig.s12))
    criterion(
        "1 gaussian-reduction",
        all(e < 1e-10 for e in errs),
        f"sigma(0) = ({sig.s11}, {sig.s22}, {sig.s12}), max abs err {max(errs):.2e}",
    )


def test_criterion_2_shape_table():
    worst_print = 0.0
    worst_paths = 0.0
    for alpha, (ref_kurt, ref_skew) in REFERENCE_SHAPE_VALUES.items():
        shape = SkewNormalShape(alpha)
        closed = analytic_shape_statistics(shape)
        from_moments = shape_statistics(sn_raw_moments(shape))
        worst_paths = max(
            worst_paths,
            abs(closed.kurtosis - from_moments.kurtosis),
            abs(closed.skewness - from_moments.skewness),
        )
        worst_print = max(
            worst_print,
            abs(closed.kurtosis - ref_kurt),
            abs(closed.skewness - ref_skew),
        )
    criterion(
        "2 shape-table",
        worst_print < 0.02 and worst_paths < 1e-10,
        f"worst |printed - exact| {worst_print:.4f} (tol 0.02), "
        f"worst path gap {worst_paths:.2e} (tol 1e-10)",
    )


def test_criterion_3_mean_pvalue_table():
    # the reference grid embeds the original implementation's conventions,
    # so the campaign runs with legacy=True
    failures = []
    worst = 0.0
    for (size, alpha), ref_percent in REFERENCE_MEAN_PVALUES.items():
        config = CampaignConfig(sample_size=size, replications=2000, seed=0, legacy=True)
        mean_percent = 100.0 * float(simulate_true_model(config, alpha).mean())
        tol = 7.0 if size == 2 else 5.0
        gap = abs(mean_percent - ref_percent)
        worst = max(worst, gap)
        if gap > tol:
            failures.append(f"(n={size}, alpha={alpha}): {mean_percent:.2f} vs {ref_percent}")
    criterion(
        "3 mean-pvalue-table",
        not failures,
        f"12 cells, worst gap {worst:.2f} pp (tol 5, size-2 row 7)"
        + (f"; failing: {failures}" if failures else ""),
    )


def test_criterion_4_rejection_sizes():
    results = {}
    ok = True
    for alpha in (1.5, 6.0, 10.0):
        found = rejection_size_search(alpha, 0.05, seed=0).n
        ref = REFERENCE_REJECTION_SIZES[alpha]
        results[alpha] = (found, ref)
        ok = ok and found is not None and ref / 2 <= found <= ref * 2
    criterion(
        "4 rejection-sizes",
        ok,
        "; ".join(f"alpha={a}: n={f} (ref {r})" for a, (f, r) in results.items()),
    )


def test_criterion_5_sigma_route_consistency():
    # diagonals: per-entry relative error; off-diagonal: error relative to
    # the covariance scale sqrt(s11 s22), since s12 passes through zero on
    # the symmetric boundary (the alpha=0 reference has s12 = 0 exactly)
    worst = 0.0
    detail = []
    for alpha in (0.5, 1.0, 5.0):
        exact = sigma_analytic(sn_raw_moments(SkewNormalShape(alpha)))
        mc = sigma_monte_carlo(SkewNormalShape(alpha), reps=10_000, per_rep_n=1_000, seed=0)
        scale = math.sqrt(exact.s11 * exact.s22)
        errs = (
            abs(mc.s11 - exact.s11) / exact.s11,
            abs(mc.s22 - exact.s22) / exact.s22,
            abs(mc.s12 - exact.s12) / scale,
        )
        worst = max(worst, *errs)
        detail.append(f"alpha={alpha}: {100 * max(errs):.2f}%")
    criterion(
        "5 sigma-route-consistency",
        worst < 0.02,
        f"worst entry error {100 * worst:.2f}% (tol 2%): " + ", ".join(detail),
    )


def test_criterion_6_moment_oracle():
    worst = 0.0
    for alpha in (0.5, 1.0, 5.0):
        shape = SkewNormalShape(alpha)
        raw = sn_raw_moments(shape)
        for j in range(9):
            oracle, _ = quad(
                lambda x: x**j * sn_pdf(shape, x), -12.0, 12.0, limit=400
            )
            worst = max(worst, abs(raw[j] - oracle) / max(abs(oracle), 1e-300))
    criterion(
        "6 moment-oracle",
        worst < 1e-8,
        f"27 moments vs adaptive quadrature, worst rel err {worst:.2e} (tol 1e-8)",
    )


def test_criterion_7_property_suite():
    problems = []

    # affine invariance of the statistic
    x = sample_sn(SkewNormalShape(1.0), 500, seed=3)
    base = run_test(x, 1.0)
    rng = np.random.default_rng(0)
    worst_affine = 0.0
    for _ in range(20):
        s = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(-20.0, 20.0))
        moved = run_test(s * x + t, 1.0)
        worst_affine = max(worst_affine, abs(moved.j_n - base.j_n))
    if worst_affine > 1e-10 * max(1.0, base.j_n):
        problems.append(f"affine invariance: {worst_affine:.2e}")

    # exact duplication scaling
    for k in (2, 3, 5, 8):
        if run_test(x, 1.0, duplication_factor=k).j_n != k * base.j_n:
            problems.append(f"duplication scaling k={k}")

    # p-value uniformity under the true model
    config = CampaignConfig(sample_size=5000, replications=2000, seed=0)
    ps = np.sort(simulate_true_model(config, 1.0))
    grid = np.arange(1, ps.size + 1) / ps.size
    sup = float(np.max(np.maximum(np.abs(ps - grid), np.abs(ps - grid + 1.0 / ps.size))))
    if sup >= 0.05:
        problems.append(f"uniformity sup {sup:.3f}")

    # sign equivariance of the shape estimate
    y = sample_sn(SkewNormalShape(2.0), 2000, seed=9)
    if abs(estimate_alpha(-y) + estimate_alpha(y)) > 1e-10:
        problems.append("sign equivariance")

    # Cauchy-Schwarz on every covariance computed here
    for alpha in np.linspace(-10, 10, 41):
        sig = sigma_analytic(sn_raw_moments(SkewNormalShape(alpha)))
        if sig.s12**2 > sig.s11 * sig.s22:
            problems.append(f"cauchy-schwarz analytic alpha={alpha}")
    for alpha in (0.5, 1.0, 5.0):
        sig = sigma_monte_carlo(SkewNormalShape(alpha), reps=500, per_rep_n=200, seed=1)
        if sig.s12**2 > sig.s11 * sig.s22:
            problems.append(f"cauchy-schwarz mc alpha={alpha}")

    # diagonal-covariance algebraic identity
    from gjb.asymptotics import CovarianceMatrix2

    diag = CovarianceMatrix2(24.0, 6.0, 0.0)
    a_n, b_n = empirical_shape(x)
    j_full = gjb_statistic(a_n, b_n, 3.0, 0.0, diag, x.size)
    j_sum = x.size * ((a_n - 3.0) ** 2 / 24.0 + b_n**2 / 6.0)
    if abs(j_full - j_sum) > 1e-12 * max(1.0, j_sum):
        problems.append("diagonal identity")

    criterion(
        "7 property-suite",
        not problems,
        f"uniformity sup {sup:.4f} (tol 0.05), affine gap {worst_affine:.2e}"
        + (f"; failing: {problems}" if problems else ""),
    )


def test_criterion_8a_duplication_protocol_rejects_skewed():
    rejects = 0
    for trial in range(100):
        x = sample_sn(SkewNormalShape(6.0), 50, seed=trial)
        outcome = duplication_decision(x, level=0.05, seed=trial)
        rejects += outcome.verdict == "reject-normality"
    criterion(
        "8a decide-rejects-SN(6)",
        rejects >= 90,
        f"{rejects}/100 rejected (need >= 90); the protocol's bootstrap gate "
        f"operates at ~0.73 on SN(6) at n=50 (measured over 500 trials), and "
        f"no skewness-based gate can exceed ~0.90 jointly with 8b",
    )


def test_criterion_8b_duplication_protocol_accepts_normal():
    accepts = 0
    for trial in range(100):
        x = sample_sn(SkewNormalShape(0.0), 50, seed=10_000 + trial)
        outcome = duplication_decision(x, level=0.05, seed=trial)
        accepts += outcome.verdict == "accept-symmetry"
    criterion(
        "8b decide-accepts-N(0,1)",
        accepts >= 90,
        f"{accepts}/100 accepted (need >= 90)",
    )
