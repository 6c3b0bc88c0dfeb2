"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its tolerances and its
wall-clock budget, and prints one PASS/FAIL line on completion.
"""

import math
import sys
import time

import numpy as np
import pytest

from jsrkit import (
    MarkovChainSpec,
    MatrixSet,
    NormModel,
    barabanov_iterate,
    beta_sandwich,
    build_mather_approx,
    certified_approx,
    cocycle_check,
    estimate,
    exterior_square,
    lower_bound_periodic,
    markov_lyapunov,
    matrix_observable,
    minimal_set_diagnostic,
    optimal_periodic_ratio,
    ratio_curve,
    spectral_radius,
    triangularise,
    upper_bound_at_depth,
)
from jsrkit.errors import JsrkitError
from jsrkit.families import pair_family

from conftest import GOLDEN, random_matrix_set

PHI_TARGET = 1.6180339887


class Criterion:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None and elapsed <= self.budget_s else "FAIL"
        # sys.__stderr__ bypasses pytest's capture so the verdict always shows
        print(
            f"criterion {self.number} ({self.label}): {status} "
            f"[{elapsed:.2f}s / {self.budget_s:.0f}s budget]",
            file=sys.__stderr__,
            flush=True,
        )
        if exc_type is None and elapsed > self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_diagonal_pair_exact_values(diag_set):
    with Criterion(1, "diagonal pair exact values", 1.0):
        b = estimate(diag_set, target_gap=1e-12)
        assert abs(b.lower - 3.0) <= 1e-12
        assert abs(b.upper - 3.0) <= 1e-12

        tri = triangularise(diag_set)
        for corner in tri.corner_blocks:
            assert np.max(np.abs(corner)) <= 1e-12
        radii = sorted(
            spectral_radius(a)
            for blocks in (tri.upper_blocks, tri.lower_blocks)
            for a in blocks.matrices
        )
        assert radii == pytest.approx([1.0, 1.0, 3.0, 3.0], abs=1e-12)

        approx = build_mather_approx(diag_set, NormModel.sup(2), 3.0, max_depth=8)
        assert approx.survivors[8] == frozenset({(1,) * 8, (2,) * 8})
        diag = minimal_set_diagnostic(approx)
        assert (diag.kind, diag.count) == ("MultipleSCC", 2)


def test_criterion_2_nilpotent_pair_and_absorption(nilpotent_pair):
    with Criterion(2, "alternating nilpotent pair", 5.0):
        upper = upper_bound_at_depth(nilpotent_pair, 2)
        lower, witness = lower_bound_periodic(nilpotent_pair, 2)
        assert abs(upper - 1.0) <= 1e-9
        assert abs(lower - 1.0) <= 1e-9
        assert witness == (1, 2)
        assert abs(lower - 1.0) <= 1e-12  # counterexample value is exact

        chain = MarkovChainSpec.uniform(2, seed=0)
        est = markov_lyapunov(nilpotent_pair, chain, horizon=64, trials=1024)
        assert est.absorbed_count == 1024  # ZeroAbsorption evidence
        assert est.absorbed_by(16) >= 1.0 - 2.0**-10


def test_criterion_3_shear_family_at_one(shear_pair):
    with Criterion(3, "shear family at alpha=1", 60.0):
        b = estimate(shear_pair, target_gap=0.02, budget=500000, max_depth=48)
        assert b.gap <= 0.02
        assert b.lower - 1e-9 <= PHI_TARGET <= b.upper + 1e-9
        low, wit = lower_bound_periodic(shear_pair, 2)
        assert wit == (1, 2)
        assert low == pytest.approx(GOLDEN, abs=1e-12)

        cert = barabanov_iterate(shear_pair, resolution=2048, tol=1e-10)
        assert cert.residual <= 1e-3
        assert b.lower - 1e-9 <= cert.rho_hat <= b.upper + 1e-9

        for alpha in (0.25, 0.5, 1.0):
            wedge = MatrixSet(
                tuple(exterior_square(a) for a in pair_family(alpha).matrices)
            )
            wb = estimate(wedge, target_gap=1e-12)
            assert wb.lower == pytest.approx(max(1.0, alpha), abs=1e-12)
            assert wb.upper == pytest.approx(max(1.0, alpha), abs=1e-12)

        found = certified_approx(shear_pair, b, 12, 5e-3, seed=0, gap=0.02)
        diag = minimal_set_diagnostic(found.approx)
        assert diag.kind == "UniqueSCC"

        ratio = optimal_periodic_ratio(shear_pair, 1, max_period=8)
        assert ratio.gamma == pytest.approx(0.5, abs=1e-12)
        assert ratio.unique_flag


def test_criterion_4_invariant_suites():
    with Criterion(4, "randomized invariant suites", 120.0):
        rng = np.random.default_rng(20250401)

        # suite: composition rule of the matrix products
        for _ in range(500):
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)),
                                   size=int(rng.integers(1, 4)))
            k = int(rng.integers(1, 7))
            word = tuple(int(s) for s in rng.integers(1, len(ms) + 1, size=k))
            assert cocycle_check(ms, word, int(rng.integers(0, k + 1)))

        # suite: doubling the depth never raises the upper bound
        for _ in range(500):
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)),
                                   size=int(rng.integers(1, 4)))
            n = int(rng.integers(1, 4))
            u_n = upper_bound_at_depth(ms, n)
            u_2n = upper_bound_at_depth(ms, 2 * n)
            assert u_2n <= u_n * (1 + 1e-10)

        # suite: anytime sandwich lower <= upper
        for _ in range(500):
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)),
                                   size=int(rng.integers(1, 4)))
            b = estimate(ms, target_gap=1e-2, budget=2000, max_depth=10)
            assert b.lower <= b.upper * (1 + 1e-12)

        # suite: exterior square is multiplicative
        for _ in range(500):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d))
            m = rng.normal(size=(d, d))
            lhs = exterior_square(a @ m)
            rhs = exterior_square(a) @ exterior_square(m)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

        # suite: scale equivariance of the enclosure and of the exponent
        for _ in range(500):
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)), size=2)
            c = float(rng.uniform(0.25, 4.0))
            b1 = estimate(ms, target_gap=1e-2, budget=2000, max_depth=8)
            b2 = estimate(ms.scaled(c), target_gap=1e-2 * c, budget=2000,
                          max_depth=8)
            assert b2.lower == pytest.approx(c * b1.lower, rel=1e-9)
            assert b2.upper == pytest.approx(c * b1.upper, rel=1e-6)
        chain2 = MarkovChainSpec.uniform(2, seed=2)
        chain3 = MarkovChainSpec.uniform(3, seed=2)
        for _ in range(500):
            size = int(rng.integers(2, 4))
            ms = random_matrix_set(rng, dim=2, size=size)
            chain = chain2 if size == 2 else chain3
            c = float(rng.uniform(0.25, 4.0))
            e1 = markov_lyapunov(ms, chain, horizon=24, trials=4)
            e2 = markov_lyapunov(ms.scaled(c), chain, horizon=24, trials=4)
            if math.isfinite(e1.lambda_hat):
                assert e2.lambda_hat == pytest.approx(
                    e1.lambda_hat + math.log(c), abs=1e-9
                )

        # suites: survivor nesting + shift compatibility, and trace bound
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 2000:
            attempts += 1
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)),
                                   size=int(rng.integers(2, 4)))
            norm = NormModel.euclidean(ms.dim)
            rho_c = max(norm.induced(a) for a in ms.matrices)
            if rho_c <= 0:
                continue
            tol = 0.6
            try:
                ap = build_mather_approx(ms, norm, rho_c, max_depth=4, tol=tol)
            except JsrkitError:
                continue
            checked += 1
            log_floor = math.log1p(-tol)
            for n in range(2, 5):
                prev = ap.survivors[n - 1]
                for w in ap.survivors[n]:
                    assert w[:-1] in prev  # nesting of prefixes
                    assert w[1:] in prev  # shift compatibility
            for n in ap.depths:
                for w in ap.survivors[n]:
                    trace = ap.trace(w)
                    assert len(trace) == n
                    # every survivor certifies the rate at every prefix depth
                    assert math.log(trace[-1]) >= log_floor - 1e-9
        assert checked >= 500

        # suite: subadditive sandwich matches the direct bounds
        for _ in range(500):
            ms = random_matrix_set(rng, dim=int(rng.integers(2, 5)),
                                   size=int(rng.integers(1, 4)))
            obs = matrix_observable(ms)
            low, up = beta_sandwich(obs, depth=4, max_period=4)
            u_direct = min(
                math.log(upper_bound_at_depth(ms, n)) for n in range(1, 5)
            )
            assert up == pytest.approx(u_direct, abs=1e-9)
            assert low <= up + 1e-9
            l_direct, _ = lower_bound_periodic(ms, 4)
            if l_direct > 0:
                assert low >= math.log(l_direct) - 1e-9


def test_criterion_5_marginal_stability_sweep():
    with Criterion(5, "marginal stability consistency sweep", 600.0):
        rng = np.random.default_rng(20250823)
        flagged = 0
        violations = []
        for case in range(100):
            mats = [rng.normal(size=(2, 2)) for _ in range(2)]
            ms = MatrixSet(tuple(mats))
            b0 = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
            ms = ms.scaled(1.0 / b0.upper)
            b = estimate(ms, target_gap=1e-3, budget=200000, max_depth=40)
            assert 0.995 <= b.upper <= 1.005

            periodic, _ = lower_bound_periodic(ms, 8)
            if periodic >= 1.0:
                continue  # not periodically stable up to period 8

            try:
                ap = certified_approx(ms, b, 8, 5e-3, seed=1, gap=1e-3).approx
            except JsrkitError:
                continue  # no certified norm, or its survivor sets empty
            if ap.is_full_language():
                continue

            flagged += 1
            chain = MarkovChainSpec.uniform(2, seed=7)
            est = markov_lyapunov(ms, chain, horizon=200, trials=64)
            stable_evidence = (
                math.isfinite(est.lambda_hat)
                and est.lambda_hat + 3 * est.stderr < 0
            )
            if not (est.absorbed_count > 0 or stable_evidence):
                violations.append((case, est.lambda_hat, est.stderr))
        assert flagged >= 50  # the sweep must actually exercise the check
        assert violations == []


def test_criterion_6_ratio_curve_continuity():
    with Criterion(6, "symbol-ratio continuity across the family", 300.0):
        alphas = [round(0.1 + 0.05 * k, 10) for k in range(19)]
        curve = ratio_curve(pair_family, alphas, 1, max_period=10)
        unique_rows = [r for r in curve["rows"] if r["unique"]]
        assert len(unique_rows) >= 2
        jumps = [
            abs(b["gamma"] - a["gamma"])
            for a, b in zip(unique_rows, unique_rows[1:])
        ]
        assert max(jumps) <= 0.2
        assert curve["max_adjacent_jump"] <= 0.2
