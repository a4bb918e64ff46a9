"""Cross-fitted control variates of the disorder Monte Carlo.

Every Monte Carlo draw of quenched_pressure_exact's and sum_rule_deficit's
strata carries the occupancy control, the number of pairs with J_p > 0 less
its mean given M, and quenched_pressure_mc's draws carry M - lambda as well.
Both have mean exactly 0, so the estimates stay unbiased at any coefficient;
util.cross_fit fits the coefficients of one half of the draws on the other
half, from per-(owner, half) sums, and its standard errors are calibrated.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af import disorder, util
from potts_af.disorder import (_exact_placements, _occupied_means, quenched_pressure_exact,
                               quenched_pressure_mc)
from potts_af.model import ModelParams

from test_kernel_oracle import cross_fitted, occupancy_means

SEEDS = range(100, 140)


def half_sums(values: np.ndarray, controls: np.ndarray, shift: float) -> np.ndarray:
    """util.cross_fit's sums of one owner with one value: per half (the
    first ceil(S/2) draws and the rest), the sums of w z^T with z = (1, x,
    y - shift) and w = (z, |x|, |y|)."""
    z = np.column_stack([np.ones(len(values)), controls, values - shift])
    w = np.column_stack([z, np.abs(controls), np.abs(values)])
    middle = (len(values) + 1) // 2
    return np.stack([w[:middle].T @ z[:middle], w[middle:].T @ z[middle:]])[None]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_occupancy_control_has_exact_zero_mean(n):
    # the orbit tables carry the multiset law of M uniform pair edges, so
    # their mean occupancy is E[occupied pairs | M] exactly
    p = n * (n - 1) // 2
    table = _occupied_means(p)
    for m in range(10):
        rows, weights = _exact_placements(n, m)
        assert abs(weights @ np.count_nonzero(rows, axis=1) - table[m]) <= 1e-12
    np.testing.assert_allclose(table[:10], occupancy_means(p, np.arange(10)), rtol=0,
                               atol=1e-12)
    # the table runs until the mean rounds to P, which serves every larger M
    assert table[-1] == p and table.take(10**9, mode="clip") == p


@pytest.mark.parametrize("k, draws", [(1, 257), (2, 300), (4, 64)])
def test_cross_fit_matches_the_per_draw_fit(k, draws):
    rng = np.random.default_rng(k)
    controls = rng.normal(size=(draws, k))
    values = 3.0 + controls @ rng.normal(size=k) + 0.1 * rng.normal(size=draws)
    means, errors = util.cross_fit(half_sums(values, controls, values[0]),
                                   np.array([[values[0]]]))
    mean, sem = cross_fitted(values, controls)
    assert abs(means[0, 0] - mean) <= 1e-12
    assert errors[0, 0] == pytest.approx(sem, rel=1e-9)


def test_cross_fit_keeps_each_halfs_coefficients_off_its_own_draws():
    # a change to one draw of the first half moves the mean by the change of
    # that draw's adjusted value at the coefficients fitted on the second
    # half alone; the second half's controls sum to 0, so the coefficients
    # the change refits, those of the second half, move nothing
    rng = np.random.default_rng(5)
    controls = rng.normal(size=(201, 2))
    controls[101:] -= controls[101:].mean(axis=0)
    values = controls @ [0.7, -1.3] + rng.normal(size=201)

    def mean(v, x):
        return util.cross_fit(half_sums(v, x, 0.0), np.zeros((1, 1)))[0][0, 0]

    second = np.linalg.lstsq(np.column_stack([np.ones(100), controls[101:]]), values[101:],
                             rcond=None)[0][1:]
    base = mean(values, controls)
    moved = values.copy()
    moved[40] += 2.5
    assert mean(moved, controls) - base == pytest.approx(2.5 / 201, rel=1e-9)
    shifted = controls.copy()
    shifted[40, 1] += 2.5
    assert mean(values, shifted) - base == pytest.approx(-second[1] * 2.5 / 201, rel=1e-9)


def test_cross_fit_drops_constant_controls_and_fits_nothing_on_few_draws():
    rng = np.random.default_rng(6)
    values = rng.normal(size=40)
    live = rng.normal(size=40)
    controls = np.column_stack([live, np.full(40, 2.0)])  # the second is constant
    got = util.cross_fit(half_sums(values, controls, 0.0), np.zeros((1, 1)))
    alone = util.cross_fit(half_sums(values, controls[:, :1], 0.0), np.zeros((1, 1)))
    np.testing.assert_allclose(np.ravel(got), np.ravel(alone), rtol=1e-12)
    # halves of at most k + 1 draws: the plain mean and standard error
    mean, sem = util.cross_fit(half_sums(values[:5], controls[:5], 0.0), np.zeros((1, 1)))
    assert mean[0, 0] == pytest.approx(values[:5].mean(), rel=1e-12)
    assert sem[0, 0] == pytest.approx(values[:5].std(ddof=1) / math.sqrt(5), rel=1e-12)


def calibration(estimates) -> tuple[float, float, float]:
    """(mean value, spread of the values over mean stat_error, mean stat_error)."""
    values = np.array([e.value for e in estimates])
    errors = np.array([e.stat_error for e in estimates])
    return values.mean(), values.std(ddof=1) / errors.mean(), errors.mean()


@pytest.mark.parametrize("label, estimate", [
    ("stratified 3-2-4-5", lambda seed: quenched_pressure_exact(
        ModelParams(q=3, beta=2.0, c=4.0), 5, eps=2e-4, seed=seed, mc_samples=2048)),
    ("plain 3-2-4-5", lambda seed: quenched_pressure_mc(
        ModelParams(q=3, beta=2.0, c=4.0), 5, 8192, seed)),
    ("plain 2-0.5-1-4", lambda seed: quenched_pressure_mc(
        ModelParams(q=2, beta=0.5, c=1.0), 4, 8192, seed)),
])
def test_stat_error_is_calibrated_across_seeds(label, estimate):
    _, ratio, _ = calibration([estimate(seed) for seed in SEEDS])
    assert 0.8 <= ratio <= 1.25, (label, ratio)


def test_plain_mean_agrees_with_the_fully_exact_pressure():
    params = ModelParams(q=2, beta=0.5, c=1.0)
    exact = quenched_pressure_exact(params, 4, eps=2e-4)
    assert exact.samples == 0
    mean, _, error = calibration([quenched_pressure_mc(params, 4, 8192, seed) for seed in SEEDS])
    assert abs(mean - exact.value) <= 4 * error / math.sqrt(len(SEEDS)) + exact.tail_bound


def test_monte_carlo_strata_share_kernel_calls(monkeypatch):
    # the 14 Monte Carlo strata of (3, 2, 4, N = 5), 4 617 rows, go through
    # three kernel calls of at most CHUNK rows
    calls = []
    kernel = disorder._lnz_batch
    monkeypatch.setattr(disorder, "_lnz_batch",
                        lambda rows, *args: calls.append(len(rows)) or kernel(rows, *args))
    est = quenched_pressure_exact(ModelParams(q=3, beta=2.0, c=4.0), 5, eps=2e-4, seed=1,
                                  mc_samples=2048)
    assert est.samples == 4617
    assert calls[-3:] == [disorder.CHUNK, disorder.CHUNK, 4617 - 2 * disorder.CHUNK]
    assert len(calls) < 14  # the exact strata's calls and the three above


@pytest.mark.parametrize("n, samples", [(4, 2), (4, 3), (2, 2), (2, 3), (2, 500)])
def test_fewest_samples_and_two_sites_stay_finite(n, samples):
    # pytest turns every RuntimeWarning into an error (pyproject.toml); at
    # N = 2 the occupancy control is identically 0
    est = quenched_pressure_mc(ModelParams(q=3, beta=1.0, c=2.0), n, samples, 7)
    assert math.isfinite(est.value) and math.isfinite(est.stat_error)
    assert est.stat_error > 0 and est.samples == samples
