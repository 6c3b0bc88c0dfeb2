import numpy as np
import pytest

from jsrkit import (
    InputError,
    MatrixSet,
    NormModel,
    RatioEstimate,
    build_mather_approx,
    optimal_periodic_ratio,
    ratio_curve,
    ratio_equivalence_check,
)
from jsrkit.families import pair_family
from jsrkit.oneratio import ratio_curve_csv


def test_balanced_pair_has_ratio_half(shear_pair):
    est = optimal_periodic_ratio(shear_pair, 1, max_period=8)
    assert est.gamma == pytest.approx(0.5, abs=1e-12)
    assert est.unique_flag
    assert est.spread <= 2.0 / 8.0


def test_diagonal_pair_ratio_is_degenerate(diag_set):
    # both constant words are optimal, so the frequency is not unique
    est = optimal_periodic_ratio(diag_set, 1, max_period=8)
    assert not est.unique_flag
    assert est.spread == pytest.approx(1.0, abs=1e-12)


def test_ratio_matches_per_word_results(shear_pair):
    # the estimates the per-word loop gave, to the last bit
    assert optimal_periodic_ratio(shear_pair, 1, max_period=10) == RatioEstimate(
        symbol=1,
        gamma=0.5,
        spread=0.0,
        witnesses=(((1, 2), 1.618033988749895),),
        unique_flag=True,
        max_period=10,
        slack=1e-6,
    )
    word = (1, 1, 1, 1, 1, 1, 1, 1, 2)
    assert optimal_periodic_ratio(pair_family(0.25), 1, max_period=10) == (
        RatioEstimate(
            symbol=1,
            gamma=0.8888888888888888,
            spread=0.0,
            witnesses=((word, 1.1059248167418656),),
            unique_flag=True,
            max_period=10,
            slack=1e-6,
        )
    )


def test_ratio_symbol_validation(diag_set):
    with pytest.raises(InputError):
        optimal_periodic_ratio(diag_set, 3)


def test_family_ratio_decreases_with_alpha():
    gammas = []
    for alpha in (0.25, 0.5, 1.0):
        est = optimal_periodic_ratio(pair_family(alpha), 1, max_period=10)
        gammas.append(est.gamma)
    assert gammas[0] >= gammas[1] >= gammas[2]
    assert gammas[2] == pytest.approx(0.5, abs=1e-12)


def test_ratio_equivalence_ranges_overlap(shear_pair):
    from jsrkit import barabanov_iterate

    cert = barabanov_iterate(shear_pair, resolution=512, tol=1e-9)
    ap = build_mather_approx(shear_pair, cert.norm, cert.rho_hat, max_depth=10)
    out = ratio_equivalence_check(shear_pair, 1, ap, max_period=8)
    assert out["mutual_overlap"]
    tol = out["overlap_tol"]
    for key in ("periodic", "survivors", "extremal_prefix", "kozyakin"):
        lo, hi = out["ranges"][key]
        assert lo <= 0.5 + tol and hi >= 0.5 - tol


def test_ratio_curve_and_csv():
    curve = ratio_curve(pair_family, [0.5, 0.75, 1.0], 1, max_period=8)
    rows = curve["rows"]
    assert [r["alpha"] for r in rows] == [0.5, 0.75, 1.0]
    assert all(0.0 <= r["gamma"] <= 1.0 for r in rows)
    assert curve["max_adjacent_jump"] <= 0.25
    text = ratio_curve_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 4


def test_ratio_curve_passes_slack_through():
    # at slack 0.05 the near-optimal words no longer single out one ratio
    curve = ratio_curve(pair_family, [0.5, 0.75], 1, max_period=8, slack=0.05)
    for row in curve["rows"]:
        est = optimal_periodic_ratio(
            pair_family(row["alpha"]), 1, max_period=8, slack=0.05
        )
        assert (row["gamma"], row["spread"], row["unique"]) == (
            est.gamma,
            est.spread,
            est.unique_flag,
        )
        assert not row["unique"]
