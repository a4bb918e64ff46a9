"""The pair-edge (M-conditional) engine against the total-count (K-conditional) one.

The oracle below is the engine `disorder` used before Poisson thinning: it
conditions on the total count K = tr J + M ~ Poisson(cN/2), enumerates
the C(P + K, K) placements of K edges over the P pairs plus one lumped
diagonal cell while they fit a budget of 120 000, and above that draws K
ordered cells over all N^2 and folds them.  The self-loops are sampled
with the pairs there, so its Monte Carlo error is larger, but it computes
the same quenched pressure and the same sum rule.  Fully exact points
must agree within both certified tails plus 1e-12, and Monte Carlo points
within 4 combined standard errors plus both tails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af.disorder import (
    DEFAULT_EXACT_BUDGET,
    METHOD_EXACT,
    _lnz_batch,
    SUM_RULE_TAIL_EPS,
    _mc_strata,
    _overlap_series,
    quenched_pressure_exact,
    quenched_pressure_mc,
    sum_rule_deficit,
)
from potts_af.model import ModelParams
from potts_af.util import (
    multinomial_table,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
    stream,
)

TOL = 1e-12
K_BUDGET = 120_000
K_CAP = 100_000
CHUNK = 4096


def fold(ordered: np.ndarray, n: int) -> np.ndarray:
    """(B, n^2) ordered-cell counts -> (B, P + 1): the pair sums, then tr J."""
    sq, (i, j) = ordered.reshape(-1, n, n), np.triu_indices(n, 1)
    return np.column_stack([sq[:, i, j] + sq[:, j, i], np.trace(sq, axis1=1, axis2=2)])


def k_average(n: int, k: int, per_row, samples: int, seed):
    """E[f | K = k] over folded rows: exact while C(P + K, K) fits K_BUDGET."""
    p = n * (n - 1) // 2
    if math.comb(p + k, k) <= K_BUDGET:
        log_probs = np.full(p + 1, math.log(2.0 / (n * n)))
        log_probs[-1] = -math.log(n)
        rows, logw = multinomial_table(k, log_probs)
        weights = np.exp(logw)
        mean = sum(np.tensordot(weights[i:i + CHUNK], per_row(rows[i:i + CHUNK]), axes=1)
                   for i in range(0, len(rows), CHUNK))
        return mean, np.zeros_like(mean), 0
    rows = fold(stream(seed).multinomial(k, np.full(n * n, 1.0 / (n * n)), size=samples), n)
    vals = np.concatenate([per_row(rows[i:i + CHUNK]) for i in range(0, samples, CHUNK)])
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(samples), samples


def k_lnz(rows: np.ndarray, n: int, q: int, beta: float) -> np.ndarray:
    return _lnz_batch(rows[:, :-1], n, q, beta) - beta * rows[:, -1]


def k_pressure(q: int, beta: float, c: float, n: int, eps: float, seed: int,
               mc_samples: int) -> tuple[float, float, float]:
    """(value, stat_error, tail_bound) of p_N by K-conditioning."""
    lam = c * n / 2.0
    k_tail = lambda k: (beta / n) * lam * poisson_sf(k, lam)
    k_max = poisson_cutoff(k_tail, 0.5 * eps, K_CAP)
    pmf = poisson_pmf_vector(k_max, lam)
    seeds = np.random.SeedSequence(seed).spawn(k_max + 1)
    per_row = lambda rows: k_lnz(rows, n, q, beta) / n
    value, var = pmf[0] * math.log(q) + (1.0 - pmf.sum()) * math.log(q), 0.0
    for k in range(1, k_max + 1):
        budget = max(256, min(8 * mc_samples, int(4 * mc_samples * pmf[k]) + 1))
        mean, sem, _ = k_average(n, k, per_row, budget, seeds[k])
        value += pmf[k] * float(mean)
        var += float(pmf[k] * sem) ** 2
    return value, math.sqrt(var), k_tail(k_max)


def k_sum_rule(q: int, beta: float, c: float, n: int, r_max: int, seed: int,
               mc_samples: int = 2048):
    """(value, stat_error, tail_bound) of the sum-rule deficit by K-conditioning."""
    y = -math.expm1(-beta)
    lam = c * n / 2.0
    k_max = poisson_cutoff(lambda k: poisson_sf(k + 1, lam), SUM_RULE_TAIL_EPS, K_CAP)
    seeds = np.random.SeedSequence(seed).spawn(k_max + 1)
    rs = np.arange(1, r_max + 1)
    coef_r = 0.5 * np.power(y, rs) / rs
    per_row = lambda rows: _overlap_series(rows[:, :-1], n, q, beta, coef_r)
    means, sems, _ = map(np.array, zip(*(k_average(n, k, per_row, mc_samples, seeds[k])
                                         for k in range(k_max + 1))))
    coef_k = np.array([poisson_sf(k + 1, lam) for k in range(k_max + 1)]) * (2.0 / n)
    independent = coef_r @ np.power(float(q), -rs.astype(float))
    value = float(coef_k @ means - coef_k.sum() * independent)
    stat = math.sqrt(float(((coef_k * sems) ** 2).sum()))
    r_tail = 0.5 * c * y ** (r_max + 1) / ((r_max + 1) * (1.0 - y))
    return value, stat, r_tail + c * float(coef_r.sum()) * poisson_sf(k_max + 1, lam)


def k_plain_mc(q: int, beta: float, c: float, n: int, samples: int, seed: int):
    """(value, stat_error) of plain Monte Carlo over all N^2 Poisson(c/2N) entries."""
    draws = stream(seed).poisson(c / (2.0 * n), size=(samples, n * n))
    values = k_lnz(fold(draws, n), n, q, beta) / n
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 2), (2, 1.0, 4.0, 3), (3, 2.0, 4.0, 3),
                                           (2, 0.5, 1.0, 4), (3, 1.0, 1.0, 4)])
def test_fully_exact_pressure_matches_k_oracle(q, beta, c, n):
    eps = 1e-8
    new = quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), n, eps=eps, seed=1)
    old, old_stat, old_tail = k_pressure(q, beta, c, n, eps, 1, 2048)
    assert new.stat_error == old_stat == 0.0 and new.samples == 0
    assert abs(new.value - old) <= new.tail_bound + old_tail + TOL


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 1.0, 2), (2, 1.0, 4.0, 3), (3, 1.0, 2.0, 3),
                                           (3, 0.5, 0.5, 4)])
def test_fully_exact_sum_rule_matches_k_oracle(q, beta, c, n):
    new = sum_rule_deficit(ModelParams(q=q, beta=beta, c=c), n, r_max=20, quad_points=16)
    old, old_stat, old_tail = k_sum_rule(q, beta, c, n, 20, 0)
    assert new.stat_error == old_stat == 0.0 and new.samples == 0
    assert abs(new.value - old) <= new.tail_bound + old_tail + TOL


@pytest.mark.parametrize("q, beta, c, n", [(3, 2.0, 4.0, 5), (3, 0.5, 1.0, 6), (2, 2.0, 4.0, 6)])
def test_monte_carlo_pressure_matches_k_oracle(q, beta, c, n):
    eps = 2e-4
    new = quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), n, eps=eps, seed=7,
                                  mc_samples=2048)
    old, old_stat, old_tail = k_pressure(q, beta, c, n, eps, 8, 2048)
    assert new.samples > 0 and old_stat > 0
    budget = 4 * math.hypot(new.stat_error, old_stat) + new.tail_bound + old_tail
    assert abs(new.value - old) <= budget


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 1.0, 6), (3, 1.0, 2.0, 5)])
def test_monte_carlo_sum_rule_matches_k_oracle(q, beta, c, n):
    new = sum_rule_deficit(ModelParams(q=q, beta=beta, c=c), n, r_max=20, quad_points=16,
                           seed=3)
    old, old_stat, old_tail = k_sum_rule(q, beta, c, n, 20, 4)
    assert new.samples > 0
    budget = 4 * math.hypot(new.stat_error, old_stat) + new.tail_bound + old_tail
    assert abs(new.value - old) <= budget


@pytest.mark.parametrize("q, beta, c, n", [(2, 0.5, 1.0, 4), (3, 2.0, 4.0, 5)])
def test_plain_mc_matches_k_oracle(q, beta, c, n):
    new = quenched_pressure_mc(ModelParams(q=q, beta=beta, c=c), n, samples=8192, seed=5)
    old, old_stat = k_plain_mc(q, beta, c, n, 8192, 6)
    assert abs(new.value - old) <= 4 * math.hypot(new.stat_error, old_stat)
    # summing the self-loops exactly removes their share of the variance
    assert new.stat_error < old_stat


@pytest.mark.parametrize("q, beta, c", [(2, 1.0, 1.0), (3, 0.5, 4.0), (4, 2.0, 2.0),
                                        (3, 1.5, 300.0)])
def test_single_site_has_no_pairs(q, beta, c):
    # N = 1: ln Z = ln q - beta J_11, so every entry point is exact and no
    # weight divides by N - 1 = 0
    params = ModelParams(q=q, beta=beta, c=c)
    y = -math.expm1(-beta)
    expect = math.log(q) - beta * c / 2
    for est, value in ((quenched_pressure_exact(params, 1, eps=1e-10), expect),
                       (quenched_pressure_mc(params, 1, samples=100, seed=0), expect),
                       (sum_rule_deficit(params, 1, r_max=4, quad_points=3),
                        0.5 * c * (beta + math.log1p(-y / q)))):
        assert est.value == value
        assert est.stat_error == 0.0 and est.tail_bound == 0.0
        assert est.samples == 0 and est.method == METHOD_EXACT
    if c < 10:  # the K oracle samples nothing at N = 1 either, but sums a Poisson tail
        old, old_stat, old_tail = k_pressure(q, beta, c, 1, 1e-10, 0, 64)
        assert old_stat == 0.0 and abs(old - expect) <= old_tail + TOL


@pytest.mark.parametrize("n, reach", [(4, 20), (5, 9), (6, 6)])
def test_default_exact_budget_reach(n, reach):
    p = n * (n - 1) // 2
    assert math.comb(p + reach - 1, reach) <= DEFAULT_EXACT_BUDGET
    assert math.comb(p + reach, reach + 1) > DEFAULT_EXACT_BUDGET
    # the engine takes the exact path exactly up to the reach
    mc_strata = _mc_strata(n, reach + 1)
    assert mc_strata.tolist() == [False] * (reach + 1) + [True]
