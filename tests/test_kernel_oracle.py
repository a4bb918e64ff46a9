"""The symmetry-reduced disorder kernel against the unreduced kernel.

The oracle below is the kernel the disorder engine used before pair
folding and colour relabelling: a q^N x N^2 indicator over ordered cells,
scipy's logsumexp over every configuration, and a Python loop over the
placement multisets of the N^2 ordered cells.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from potts_af.disorder import (
    DEFAULT_EXACT_BUDGET,
    K_MAX_CAP,
    _conditional_average,
    _exact_placements,
    _fold,
    _lnz_batch,
    _overlap_moments,
    quenched_pressure_exact,
    quenched_pressure_mc,
    restricted_partition_balanced,
)
from potts_af.model import (
    ModelParams,
    colour_classes,
    config_block,
    config_energies,
    log_partition,
)
from potts_af.util import (
    child_seeds,
    log_multinomial,
    multiset_permutations,
    philox,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
)

TOL = 1e-12


def _pair_indicator(n: int, q: int) -> np.ndarray:
    """(q^n, n^2) matrix D with D[cfg, i*n+j] = [sigma_i == sigma_j]."""
    cfg = config_block(n, q, 0, q**n)
    cols = [(cfg[:, i] == cfg[:, j]) for i in range(n) for j in range(n)]
    return np.stack(cols, axis=1).astype(np.float64)


def old_lnz(jflat: np.ndarray, n: int, q: int, beta: float) -> np.ndarray:
    return logsumexp(-beta * (jflat @ _pair_indicator(n, q).T), axis=1)


def old_overlap_moments(jflat: np.ndarray, n: int, q: int, beta: float,
                        r_max: int) -> np.ndarray:
    disc = _pair_indicator(n, q)
    energies = -beta * (jflat @ disc.T)
    energies -= energies.max(axis=1, keepdims=True)
    w = np.exp(energies)
    m = (w / w.sum(axis=1, keepdims=True)) @ disc
    return np.stack([(m ** r).mean(axis=1) for r in range(1, r_max + 1)], axis=1)


def old_exact_multisets(n_cells: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    count = math.comb(n_cells + k - 1, k)
    jrows = np.zeros((count, n_cells))
    logw = np.empty(count)
    log_cells = k * math.log(n_cells) if k else 0.0
    for row, combo in enumerate(itertools.combinations_with_replacement(range(n_cells), k)):
        counts = Counter(combo)
        for cell, cnt in counts.items():
            jrows[row, cell] = cnt
        logw[row] = log_multinomial(tuple(counts.values())) - log_cells
    return jrows, np.exp(logw)


def random_couplings(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).poisson(0.8, size=(n, n))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_folded_lnz_matches_unreduced_kernel(q, n):
    for seed in range(4):
        J = random_couplings(n, 100 * n + seed)
        beta = 0.3 + 0.7 * seed
        folded = _lnz_batch(_fold(J.reshape(1, -1), n), n, q, beta)[0]
        assert abs(folded - old_lnz(J.reshape(1, -1).astype(float), n, q, beta)[0]) <= TOL
        assert abs(folded - log_partition(J, beta, q)) <= TOL


@pytest.mark.parametrize("n, q, classes", [(5, 3, 41), (6, 3, 122), (4, 4, 15), (6, 2, 32)])
def test_colour_classes_cover_every_configuration(n, q, classes):
    indicator, log_mult = colour_classes(n, q)
    assert indicator.shape == (classes, n * (n - 1) // 2)
    assert np.exp(log_mult).sum() == pytest.approx(q**n, rel=1e-14)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 0), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_exact_placements_match_ordered_brute_force(n, k):
    rows, weights = _exact_placements(n, k)
    p = n * (n - 1) // 2
    assert rows.shape == (math.comb(p + k, k), p + 1)
    assert weights.sum() == pytest.approx(1.0, abs=TOL)
    brute: dict[tuple, float] = {}
    for cells in itertools.product(range(n * n), repeat=k):
        ordered = np.bincount(np.asarray(cells, dtype=np.int64), minlength=n * n)
        key = tuple(_fold(ordered.reshape(1, -1), n)[0])
        brute[key] = brute.get(key, 0.0) + float(n * n) ** -k
    assert len(brute) == len(rows)
    for row, w in zip(rows, weights):
        assert abs(brute[tuple(row)] - w) <= TOL


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, k_top", [(1, 5), (2, 6), (3, 4), (4, 3)])
def test_exact_conditional_averages_match_unreduced_kernel(q, n, k_top):
    beta, r_max = 1.3, 20
    seed = np.random.SeedSequence(0)
    for k in range(k_top + 1):
        jrows, weights = old_exact_multisets(n * n, k)
        lnz, _, used = _conditional_average(
            n, k, lambda rows: _lnz_batch(rows, n, q, beta), 8, seed, DEFAULT_EXACT_BUDGET)
        assert used == 0
        assert abs(lnz - weights @ old_lnz(jrows, n, q, beta)) <= TOL
        moments, _, _ = _conditional_average(
            n, k, lambda rows: _overlap_moments(rows, n, q, beta, r_max), 8, seed,
            DEFAULT_EXACT_BUDGET)
        expect = weights @ old_overlap_moments(jrows, n, q, beta, r_max)
        np.testing.assert_allclose(moments, expect, rtol=0, atol=TOL)


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4), (3, 0.5, 1.0, 5)])
def test_mc_path_draws_unchanged(q, beta, c, n):
    # Monte Carlo paths still draw over the n^2 ordered cells, so a seed
    # gives the unreduced kernel's value
    params = ModelParams(q=q, beta=beta, c=c)
    samples, seed = 3000, 11
    chunks = [(i, min(i + 2048, samples)) for i in range(0, samples, 2048)]
    parts = []
    for (lo, hi), ss in zip(chunks, child_seeds(seed, len(chunks))):
        draws = philox(ss).poisson(c / (2.0 * n), size=(hi - lo, n * n)).astype(float)
        parts.append(old_lnz(draws, n, q, beta) / n)
    values = np.concatenate(parts)
    est = quenched_pressure_mc(params, n, samples, seed)
    assert abs(est.value - values.mean()) <= TOL
    assert abs(est.stat_error - values.std(ddof=1) / math.sqrt(samples)) <= TOL


def test_mc_overlap_moments_draws_unchanged():
    n, q, beta, k, samples = 4, 3, 1.0, 9, 500
    seed = np.random.SeedSequence(21)
    draws = philox(seed).multinomial(k, np.full(n * n, 1.0 / (n * n)), size=samples)
    values = old_overlap_moments(draws.astype(float), n, q, beta, 20)
    mean, sem, used = _conditional_average(
        n, k, lambda rows: _overlap_moments(rows, n, q, beta, 20), samples, seed, 0)
    assert used == samples
    np.testing.assert_allclose(mean, values.mean(axis=0), rtol=0, atol=TOL)
    np.testing.assert_allclose(sem, values.std(axis=0, ddof=1) / math.sqrt(samples),
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4)])
def test_exact_budget_zero_matches_unreduced_kernel(q, beta, c, n):
    params = ModelParams(q=q, beta=beta, c=c)
    eps, seed, mc_samples = 2e-4, 5, 64
    lam = c * n / 2.0
    k_max = poisson_cutoff(lambda k: (beta / n) * lam * poisson_sf(k, lam), 0.5 * eps,
                           K_MAX_CAP)
    pmf = poisson_pmf_vector(k_max, lam)
    seeds = child_seeds(seed, k_max + 1)
    value = pmf[0] * math.log(q) + (1.0 - pmf.sum()) * math.log(q)
    for k in range(1, k_max + 1):
        budget = max(256, min(8 * mc_samples, int(4 * mc_samples * pmf[k]) + 1))
        draws = philox(seeds[k]).multinomial(k, np.full(n * n, 1.0 / (n * n)), size=budget)
        value += pmf[k] * float(old_lnz(draws.astype(float), n, q, beta).mean()) / n
    est = quenched_pressure_exact(params, n, eps=eps, seed=seed, mc_samples=mc_samples,
                                  exact_budget=0)
    assert abs(est.value - value) <= TOL


def test_balanced_energies_bit_identical():
    rng = np.random.default_rng(3)
    for n, q in [(4, 2), (6, 3), (6, 2)]:
        J = rng.poisson(1.0, size=(n, n))
        cfg = np.array(list(multiset_permutations([n // q] * q)), dtype=np.int8)
        old = np.array([float(J[s[:, None] == s[None, :]].sum()) for s in cfg.astype(np.int64)])
        assert np.array_equal(config_energies(cfg, J), old)
        beta = 0.7
        assert abs(restricted_partition_balanced(J, beta, q)
                   - logsumexp(-beta * old)) <= TOL
