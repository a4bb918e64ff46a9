"""Cross-fitted control variates of the disorder Monte Carlo.

Every Monte Carlo draw of quenched_pressure_exact's strata carries the
occupancy control, the number of pairs with J_p > 0 less its mean given M,
and the loop term L = T + (q - 1) C3 less its mean given M: the pair term T
= sum_p ln(1 + a_p/q) and the triangle term C3 of theta_J = a_J/(q + a_J),
a_J = e^{-beta J} - 1.  quenched_pressure_mc's draws carry the occupancy,
M - lambda and L less its mean over iid Poisson(c/N) pair counts.  L is
left out, a zero column, where its gate finds one pair's ell_J
heavy-tailed.  The draws of sum_rule_deficit's strata carry four graph
moments less their means given M: the occupancy, the multi-edges sum_p
J_p^2, the degree squares sum_i d_i^2 and the triangles.  All have mean
exactly 0, so the estimates stay unbiased at any coefficient;
util.cross_fit fits the coefficients of one half of the draws on the other
half, from per-(owner, half) sums, and its standard errors are calibrated.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af import disorder, util
from potts_af.disorder import (_conditional_average, _exact_placements, _graph_means,
                               _graph_moments, _gated, _loop_laws, _loop_tables,
                               _loop_term, _loop_workspace, _occupied_means, _overlap_series,
                               _poisson_loop_law,
                               quenched_pressure_exact, quenched_pressure_mc, sum_rule_deficit)
from potts_af.model import ModelParams

from test_kernel_oracle import (COEF, cross_fitted, graph_controls, loop_terms, occupancy_means,
                                pair_and_triangle_terms, uniform_pair_counts)

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


def graph_columns(rows: np.ndarray, n: int, m) -> np.ndarray:
    """(4, B): the engine's graph moments of the rows, less _graph_means."""
    out = np.empty((4, len(rows)))
    _graph_moments(np.array(rows, dtype=np.float64), out)
    return out - _graph_means(n, np.full(len(rows), m))


def closed_form_means(n: int, m: int) -> list[float]:
    """Multi-edges, degree squares and triangles given M = m, written out."""
    p = n * (n - 1) // 2
    return [m + m * (m - 1) / p, 2 * m + 4 * m * (m - 1) / n,
            math.comb(n, 3) * m * (m - 1) * (m - 2) / p**3]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_graph_moments_have_exact_means(n):
    # the orbit tables carry the multiset law of M uniform pair edges, so
    # each moment's table mean is its mean given M, to rounding
    for m in range(9):
        rows, weights = _exact_placements(n, m)
        out = np.empty((4, len(rows)))
        _graph_moments(rows.astype(np.float64), out)
        np.testing.assert_allclose(out[1:] @ weights, closed_form_means(n, m), rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(_graph_means(n, np.array([m]))[:, 0],
                                   [_occupied_means(n * (n - 1) // 2)[m]]
                                   + closed_form_means(n, m), rtol=1e-12, atol=0)


def test_triangle_column_is_zero_below_three_sites_or_edges():
    for n in (3, 4, 5, 6):
        for m in range(3):
            assert not graph_columns(_exact_placements(n, m)[0], n, m)[3].any()
    rng = np.random.default_rng(2)
    for m in range(9):
        assert not graph_columns(uniform_pair_counts(rng, 1, np.full(50, m)), 2, m)[3].any()


def test_dead_and_collinear_columns():
    # at N = 3 the degree squares are the multi-edges plus M^2 given M, and
    # at N = 2 (one pair) every column is identically 0
    rng = np.random.default_rng(3)
    for m in (1, 4, 9):
        cols = graph_columns(uniform_pair_counts(rng, 3, np.full(200, m)), 3, m)
        np.testing.assert_allclose(cols[2], cols[1], rtol=0, atol=1e-12 * m * m)
        assert not graph_columns(uniform_pair_counts(rng, 1, np.full(200, m)), 2, m).any()


def test_two_site_strata_sampled_with_dead_controls_stay_exact():
    # forced to sample, N = 2 draws one row per stratum; its dead controls
    # drop out, and the mean is the exact one, with a rounding-sized error
    n, q, beta = 2, 3, 1.2
    per_j = lambda rows: _overlap_series(rows, n, q, beta, COEF)
    budgets = np.array([0, 300, 5, 2100])
    means, sems = _conditional_average(n, per_j, budgets, 4, _graph_moments, _graph_means)
    exact, _ = _conditional_average(n, per_j, np.zeros(4, dtype=np.int64), 4,
                                    _graph_moments, _graph_means)
    np.testing.assert_allclose(means, exact, rtol=1e-14, atol=0)
    assert np.all(np.isfinite(sems)) and np.all(sems <= 1e-14 * means)


def test_forced_monte_carlo_sum_rule_at_three_sites_is_calibrated(monkeypatch):
    # at N = 3 two of the four columns coincide; with every stratum M >= 1
    # sampled, the deficit stays within 4 standard errors of the exact
    # orbit-table value, and its z-scores spread as a standard normal's
    params = ModelParams(q=2, beta=1.0, c=2.0)
    exact = sum_rule_deficit(params, 3, 20, 16)
    two_sites = sum_rule_deficit(params, 2, 20, 16)
    assert exact.samples == two_sites.samples == 0
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", 0)
    # each N = 2 stratum is one row, exact whatever the budget
    assert sum_rule_deficit(params, 2, 20, 16, seed=1) == two_sites
    z = []
    for seed in SEEDS:
        est = sum_rule_deficit(params, 3, 20, 16, seed=seed)
        assert est.samples > 0 and math.isfinite(est.value) and est.stat_error > 0
        z.append((est.value - exact.value) / est.stat_error)
    assert np.abs(z).max() <= 4
    assert 0.7 <= np.std(z, ddof=1) <= 1.3


def test_sum_rule_columns_match_the_coupling_matrix_oracle():
    # the engine's columns against graph_controls, which reads trace(A^3)/6,
    # the row sums of A and sum J^2 off the full coupling matrix
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 6):
        for m in (0, 2, 7, 13):
            draws = uniform_pair_counts(rng, n * (n - 1) // 2, np.full(64, m))
            np.testing.assert_allclose(graph_columns(draws, n, m), graph_controls(draws, n, m).T,
                                       rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("k, draws", [(1, 257), (2, 300), (3, 301), (4, 64)])
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


def test_cross_fit_keeps_the_exact_fit_of_collinear_controls():
    # with one or two edges on the pairs, the loop term L is 2 ell_1 or
    # ell_2 as the occupancy is 2 or 1: centred by their exact means, the
    # two controls are exactly collinear, and a value that depends on the
    # occupancy alone is explained completely by them
    ell_1, ell_2 = (math.log1p(math.expm1(-1.3 * j) / 3) for j in (1, 2))
    slope, mu = 2 * ell_1 - ell_2, 1.0 + 2.0 / 3.0  # E occupancy at N = 3, M = 2
    tol = np.finfo(float).eps * (math.ceil(math.log2(256)) + 2)
    for seed in range(5):
        occupancy = np.random.default_rng(seed).integers(1, 3, size=256).astype(np.float64)
        loop = ell_2 + slope * (occupancy - 1.0)
        controls = np.column_stack([occupancy - mu, loop - (ell_2 + slope * (mu - 1.0))])
        values = np.where(occupancy == 1.0, 0.37, -0.81)
        shift = np.array([[values[0]]])
        means, errors = util.cross_fit(half_sums(values, controls, values[0]), shift)
        assert abs(means[0, 0] - cross_fitted(values, controls)[0]) <= 1e-12
        # the error reads the rounding floor, as with the occupancy alone
        alone = util.cross_fit(half_sums(values, controls[:, :1], values[0]), shift)[1]
        assert tol * np.abs(values - values[0]).mean() <= errors[0, 0] <= 2 * alone[0, 0]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_fit_solves_dead_controls_and_short_halves(k):
    # every control dead, or halves of at most k + 1 draws: no coefficient,
    # so the plain mean and standard error
    rng = np.random.default_rng(7)
    for controls in (np.zeros((40, k)), rng.normal(size=(2 * k + 2, k))):
        values = rng.normal(size=len(controls))
        mean, sem = util.cross_fit(half_sums(values, controls, 0.0), np.zeros((1, 1)))
        assert mean[0, 0] == pytest.approx(values.mean(), rel=1e-12)
        assert sem[0, 0] == pytest.approx(values.std(ddof=1) / math.sqrt(len(values)),
                                          rel=1e-12)


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
    # N = 2 the occupancy control is identically 0, and the loop term is the
    # one pair's ell_J, with no triangle
    est = quenched_pressure_mc(ModelParams(q=3, beta=1.0, c=2.0), n, samples, 7)
    assert math.isfinite(est.value) and math.isfinite(est.stat_error)
    assert est.stat_error > 0 and est.samples == samples


# ---------------------------------------------------------------------------
# the loop term of the pressures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("q, beta", [(3, 1.3), (2, 0.4), (4, 7.0)])
def test_loop_term_has_exact_conditional_means(n, q, beta):
    # the orbit tables carry the multiset law of M uniform pair edges, so
    # their means of T and C3 are E[T | M] = P E ell and E[C3 | M], which
    # _loop_laws gives through its nested binomials (N = 3: P - 2 = 1; at
    # beta = 7 a pair saturates from J = 6 on)
    p = n * (n - 1) // 2
    mean, e_ell = _loop_laws(n, q, beta, 9)[:2]
    theta = _loop_tables(q, beta, 9)[0]
    for m in range(10):
        rows, weights = _exact_placements(n, m)
        pair, triangle = pair_and_triangle_terms(rows, n, q, beta)
        assert abs(weights @ pair - p * e_ell[m]) <= 1e-13
        assert abs(weights @ triangle - (mean[m] - p * e_ell[m]) / (q - 1)) <= 1e-13
        out = np.empty(len(rows))
        _loop_term(rows.astype(np.float64), theta, q, out, _loop_workspace(p, len(rows)))
        np.testing.assert_allclose(out, pair + (q - 1) * triangle, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, q, beta, mu, top", [(3, 3, 1.0, 1.5, 40), (3, 2, 0.3, 2.5, 40),
                                                 (3, 4, 40.0, 0.8, 40), (4, 3, 2.0, 0.1, 7)])
def test_plain_loop_mean_is_the_mean_over_independent_pair_counts(n, q, beta, mu, top):
    # a direct sum of L over every tuple of P iid Poisson(mu) pair counts up
    # to `top`, whose dropped mass bounds the difference
    p = n * (n - 1) // 2
    counts = np.stack(np.meshgrid(*[np.arange(top + 1)] * p, indexing="ij"), -1).reshape(-1, p)
    pmf = np.exp(np.arange(top + 1) * math.log(mu) - mu
                 - np.array([math.lgamma(k + 1.0) for k in range(top + 1)]))
    weights = np.prod(pmf[counts], axis=1)
    dropped = 1.0 - pmf.sum() ** p
    mean = _poisson_loop_law(n, q, beta, mu)[1]
    values = loop_terms(counts, n, q, beta)
    assert abs(weights @ values - mean) <= 1e-13 + dropped * np.abs(values).max()
    assert dropped < 1e-9


def gate_record(monkeypatch) -> list:
    """Collect (M, draws, E[L | M] or NaN) of every _loop_means call."""
    calls = []
    means = disorder._loop_means
    monkeypatch.setattr(disorder, "_loop_means", lambda *args: calls.append(
        (args[3], args[4], means(*args))) or calls[-1][2])
    return calls


@pytest.mark.parametrize("q, beta, c, n", [(3, 2.0, 4.0, 5), (3, 0.5, 1.0, 6)])
def test_loop_term_is_live_at_every_sampled_stratum_of_the_benchmark(q, beta, c, n, monkeypatch):
    # max_k (ell_k - E ell)^2 / Var ell reads 1.8-16 there, against at least
    # 256 draws per stratum
    calls = gate_record(monkeypatch)
    quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), n, eps=2e-4, seed=1,
                            mc_samples=2048)
    (m, draws, means), = calls
    assert len(m) >= 4 and draws.min() >= 256 and np.isfinite(means).all()
    _, e_ell, var, far = (law[m] for law in _loop_laws(n, q, beta, int(m.max())))
    ratio = np.maximum(e_ell**2, (far - e_ell)**2) / var
    assert 1.5 <= ratio.min() and ratio.max() <= 16
    assert _gated(*_poisson_loop_law(n, q, beta, c / n)[2:], 8192)


def test_loop_term_is_left_out_where_pairs_saturate(monkeypatch):
    # at (3, 1, 60, N = 4) a pair holds about 15 edges, where e^{-beta J} is
    # about 3e-7: ell_J is nearly constant with rare far values
    calls = gate_record(monkeypatch)
    quenched_pressure_exact(ModelParams(q=3, beta=1.0, c=60.0), 4, eps=1e-3, seed=1,
                            mc_samples=512)
    (m, draws, means), = calls
    live = np.isfinite(means)
    assert len(m) == 112 and live.sum() == 16 and not live[m > 60].any()
    assert not _gated(*_poisson_loop_law(4, 3, 1.0, 15.0)[2:], 8192)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pressures_stay_finite_at_saturation_and_two_sites(n, monkeypatch):
    # pytest turns every RuntimeWarning into an error (pyproject.toml); at
    # beta = 40 one edge saturates a pair, at N = 2 there is no triangle,
    # and at N = 3 the third pair takes every edge the first two leave
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", 0)
    for beta in (40.0, 1.0):
        params = ModelParams(q=3, beta=beta, c=3.0)
        for est in (quenched_pressure_exact(params, n, eps=1e-3, seed=2, mc_samples=256),
                    quenched_pressure_mc(params, n, 600, 2)):
            assert math.isfinite(est.value) and math.isfinite(est.stat_error)


# (q, beta, c, N): stat_error of quenched_pressure_exact (eps 1e-3, 512
# samples) and of quenched_pressure_mc (8 192 samples) with the occupancy
# controls alone, seeds 1-4
DENSE = {(3, 1.0, 60.0, 4): (0.0042, 0.0043), (2, 1.0, 40.0, 5): (0.0046, 0.0046),
         (3, 2.0, 30.0, 5): (0.0064, 0.0059), (2, 3.0, 20.0, 6): (0.0099, 0.0088)}


@pytest.mark.parametrize("point", list(DENSE))
def test_dense_graphs_keep_their_errors_and_agree(point):
    # where pairs saturate the gate leaves the loop term out, so neither
    # estimator loses to the occupancy controls alone, and the two agree
    q, beta, c, n = point
    params = ModelParams(q=q, beta=beta, c=c)
    for seed in range(1, 5):
        exact = quenched_pressure_exact(params, n, eps=1e-3, seed=seed, mc_samples=512)
        plain = quenched_pressure_mc(params, n, 8192, seed)
        assert exact.stat_error <= 1.1 * DENSE[point][0]
        assert plain.stat_error <= 1.1 * DENSE[point][1]
        sigma = math.hypot(exact.stat_error, plain.stat_error)
        assert abs(exact.value - plain.value) <= 4 * sigma
