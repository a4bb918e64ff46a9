"""The symmetry-reduced disorder kernel against the unreduced kernel.

The oracle below is the kernel the disorder engine used before pair
folding and colour relabelling: a q^N x N^2 indicator over ordered cells,
scipy's logsumexp over every configuration, and a Python loop over the
placement multisets of the N^2 ordered cells, conditioned on the total
edge count K.  The engine conditions on the pair-edge count M instead; of
K uniform ordered cells, M ~ Binomial(K, 1 - 1/N) fall off the diagonal,
so the K-conditional averages are Binomial mixtures of the M-conditional
ones, less beta (K - M) for ln Z.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from potts_af.disorder import (
    CHUNK,
    DEFAULT_EXACT_BUDGET,
    M_MAX_CAP,
    UNSHIFTED_EXPONENT,
    _conditional_average,
    _exact_placements,
    _lnz_batch,
    _overlap_moments,
    _workspace,
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


def pair_sums(ordered: np.ndarray, n: int) -> np.ndarray:
    """(B, n^2) ordered-cell counts -> (B, P) pair sums J_ij + J_ji, i < j."""
    sq, (i, j) = ordered.reshape(-1, n, n), np.triu_indices(n, 1)
    return sq[:, i, j] + sq[:, j, i]


def upper_couplings(rows: np.ndarray, n: int) -> np.ndarray:
    """(B, P) pair counts -> (B, n^2) couplings with each pair on J_ij, i < j."""
    out = np.zeros((rows.shape[0], n, n))
    i, j = np.triu_indices(n, 1)
    out[:, i, j] = rows
    return out.reshape(rows.shape[0], n * n)


def thinned(n: int, k: int):
    """(m, P(M = m | K = k)) for the M ~ Binomial(k, 1 - 1/n) pair edges."""
    p = 1.0 - 1.0 / n
    return [(m, math.comb(k, m) * p**m * (1.0 - p) ** (k - m)) for m in range(k + 1)]


def pair_average(n: int, m: int, per_j):
    """E[f | M = m] by the engine; with no pairs (n = 1) the only row is empty."""
    if n == 1:
        return per_j(np.zeros((1, 0), dtype=np.int64))[0]
    return _conditional_average(n, m, per_j, 8, np.random.SeedSequence(0),
                                DEFAULT_EXACT_BUDGET)[0]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_folded_lnz_matches_unreduced_kernel(q, n):
    for seed in range(4):
        J = random_couplings(n, 100 * n + seed)
        beta = 0.3 + 0.7 * seed
        folded = _lnz_batch(pair_sums(J.reshape(1, -1), n), n, q, beta)[0] - beta * np.trace(J)
        assert abs(folded - old_lnz(J.reshape(1, -1).astype(float), n, q, beta)[0]) <= TOL
        assert abs(folded - log_partition(J, beta, q)) <= TOL


@pytest.mark.parametrize("n, q, classes", [(5, 3, 41), (6, 3, 122), (4, 4, 15), (6, 2, 32)])
def test_colour_classes_cover_every_configuration(n, q, classes):
    indicator, log_mult = colour_classes(n, q)
    assert indicator.shape == (classes, n * (n - 1) // 2)
    assert np.exp(log_mult).sum() == pytest.approx(q**n, rel=1e-14)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 0), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_exact_placements_match_ordered_brute_force(n, k):
    # the pair-sum law of K uniform ordered cells, as a Binomial mixture over
    # M of the engine's pair-count multisets
    p = n * (n - 1) // 2
    thinned_law: dict[tuple, float] = {}
    for m, w_m in thinned(n, k):
        if p == 0:  # no pairs: every edge is a self-loop
            rows, weights = np.zeros((1, 0), dtype=np.int64), np.ones(1)
        else:
            rows, weights = _exact_placements(n, m)
            assert rows.shape == (math.comb(p + m - 1, m), p)
            assert weights.sum() == pytest.approx(1.0, abs=TOL)
        for row, w in zip(rows, weights):
            thinned_law[tuple(row)] = thinned_law.get(tuple(row), 0.0) + w_m * w
    brute: dict[tuple, float] = {}
    for cells in itertools.product(range(n * n), repeat=k):
        ordered = np.bincount(np.asarray(cells, dtype=np.int64), minlength=n * n)
        key = tuple(pair_sums(ordered.reshape(1, -1), n)[0])
        brute[key] = brute.get(key, 0.0) + float(n * n) ** -k
    assert brute.keys() == {key for key, w in thinned_law.items() if w > 0}
    for key, w in brute.items():
        assert abs(thinned_law[key] - w) <= TOL


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, k_top", [(1, 5), (2, 6), (3, 4), (4, 3)])
def test_exact_conditional_averages_match_unreduced_kernel(q, n, k_top):
    beta, r_max = 1.3, 20
    if n > 1:  # the pair averages of every m used below are enumerated
        assert _conditional_average(n, k_top, lambda rows: rows, 8, np.random.SeedSequence(0),
                                    DEFAULT_EXACT_BUDGET)[2] == 0
    lnz_fn = lambda rows: _lnz_batch(rows, n, q, beta)
    moments_fn = lambda rows: _overlap_moments(rows, n, q, beta, r_max)
    for k in range(k_top + 1):
        jrows, weights = old_exact_multisets(n * n, k)
        lnz = sum(w * (pair_average(n, m, lnz_fn) - beta * (k - m)) for m, w in thinned(n, k))
        assert abs(lnz - weights @ old_lnz(jrows, n, q, beta)) <= TOL
        moments = sum(w * pair_average(n, m, moments_fn) for m, w in thinned(n, k))
        expect = weights @ old_overlap_moments(jrows, n, q, beta, r_max)
        np.testing.assert_allclose(moments, expect, rtol=0, atol=TOL)


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4), (3, 0.5, 1.0, 5),
                                         (2, 40.0, 8.0, 4)])
def test_mc_path_draws_unchanged(q, beta, c, n):
    # the Monte Carlo path draws the n(n-1)/2 pair sums as Poisson(c/n) and
    # adds the self-loop mean -beta c/2n; the unreduced kernel gives the
    # same value on the same draws
    params = ModelParams(q=q, beta=beta, c=c)
    samples, seed = 3000, 11
    chunks = [(i, min(i + 2048, samples)) for i in range(0, samples, 2048)]
    parts = []
    for (lo, hi), ss in zip(chunks, child_seeds(seed, len(chunks))):
        draws = philox(ss).poisson(c / n, size=(hi - lo, n * (n - 1) // 2))
        parts.append(old_lnz(upper_couplings(draws, n), n, q, beta) / n)
    values = np.concatenate(parts)
    est = quenched_pressure_mc(params, n, samples, seed)
    assert abs(est.value - (values.mean() - beta * c / (2 * n))) <= TOL
    assert abs(est.stat_error - values.std(ddof=1) / math.sqrt(samples)) <= TOL


def test_mc_overlap_moments_draws_unchanged():
    n, q, beta, k, samples = 4, 3, 1.0, 9, 500
    seed = np.random.SeedSequence(21)
    draws = philox(seed).multinomial(k, np.full(6, 1.0 / 6), size=samples)  # over P = 6 pairs
    values = old_overlap_moments(upper_couplings(draws, n), n, q, beta, 20)
    mean, sem, used = _conditional_average(
        n, k, lambda rows: _overlap_moments(rows, n, q, beta, 20), samples, seed, 0)
    assert used == samples
    np.testing.assert_allclose(mean, values.mean(axis=0), rtol=0, atol=TOL)
    np.testing.assert_allclose(sem, values.std(axis=0, ddof=1) / math.sqrt(samples),
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("n, q, m, beta", [(4, 2, 20, 40.0), (4, 3, 20, 60.0), (3, 2, 30, 50.0)])
def test_shifted_kernel_matches_unreduced_kernel(n, q, m, beta):
    # beta M > UNSHIFTED_EXPONENT, so the rows are shifted by their least energy
    assert beta * m > UNSHIFTED_EXPONENT
    jrows, weights = _exact_placements(n, m)
    full = upper_couplings(jrows, n)
    lnz_fn = lambda rows: _lnz_batch(rows, n, q, beta)
    assert np.abs(lnz_fn(jrows) - old_lnz(full, n, q, beta)).max() <= TOL
    mean, _, used = _conditional_average(n, m, lnz_fn, 8, np.random.SeedSequence(0),
                                         DEFAULT_EXACT_BUDGET)
    assert used == 0 and abs(mean - weights @ old_lnz(full, n, q, beta)) <= TOL
    moments = _conditional_average(n, m, lambda rows: _overlap_moments(rows, n, q, beta, 20),
                                   8, np.random.SeedSequence(0), DEFAULT_EXACT_BUDGET)[0]
    np.testing.assert_allclose(moments, weights @ old_overlap_moments(full, n, q, beta, 20),
                               rtol=0, atol=TOL)


def test_shift_keeps_frustrated_rows_finite():
    # every 2-colouring of a triangle with 10 edges per pair costs at least
    # 10, and e^{-100 * 10} underflows without the shift
    n, q, beta = 3, 2, 100.0
    rows = np.array([[10, 10, 10], [0, 0, 30], [1, 2, 3]])
    lnz = _lnz_batch(rows, n, q, beta)
    assert lnz[0] == pytest.approx(math.log(6.0) - 1000.0, rel=1e-15)
    assert np.abs(lnz - old_lnz(upper_couplings(rows, n), n, q, beta)).max() <= TOL
    np.testing.assert_allclose(_overlap_moments(rows, n, q, beta, 5),
                               old_overlap_moments(upper_couplings(rows, n), n, q, beta, 5),
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("exact_budget, samples", [(DEFAULT_EXACT_BUDGET, 8), (0, 9000)])
def test_shared_workspace_matches_fresh_buffers(exact_budget, samples):
    # 38 760 multisets span ten chunks and 9 000 draws three, the last ones
    # partial; one workspace shared by every chunk leaks no stale rows
    n, q, m, beta = 6, 3, 6, 1.3
    assert math.ceil(math.comb(15 + m - 1, m) / CHUNK) == 10
    work = _workspace(n, q)
    for kernel in (lambda rows, buf: _lnz_batch(rows, n, q, beta, buf),
                   lambda rows, buf: _overlap_moments(rows, n, q, beta, 20, buf)):
        shared = _conditional_average(n, m, lambda rows: kernel(rows, work), samples,
                                      np.random.SeedSequence(4), exact_budget)
        fresh = _conditional_average(n, m, lambda rows: kernel(rows, np.full_like(work, np.nan)),
                                     samples, np.random.SeedSequence(4), exact_budget)
        assert shared[2] == fresh[2] == (0 if exact_budget else samples)
        assert all(np.array_equal(a, b) for a, b in zip(shared[:2], fresh[:2]))


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4)])
def test_exact_budget_zero_matches_unreduced_kernel(q, beta, c, n):
    params = ModelParams(q=q, beta=beta, c=c)
    eps, seed, mc_samples = 2e-4, 5, 64
    lam, p = c * (n - 1) / 2.0, n * (n - 1) // 2
    m_max = poisson_cutoff(lambda m: (beta / n) * lam * poisson_sf(m, lam), 0.5 * eps,
                           M_MAX_CAP)
    pmf = poisson_pmf_vector(m_max, lam)
    seeds = child_seeds(seed, m_max + 1)
    value = pmf[0] * math.log(q) + (1.0 - pmf.sum()) * math.log(q) - beta * c / (2 * n)
    for m in range(1, m_max + 1):
        budget = max(256, min(8 * mc_samples, int(4 * mc_samples * pmf[m]) + 1))
        draws = philox(seeds[m]).multinomial(m, np.full(p, 1.0 / p), size=budget)
        value += pmf[m] * float(old_lnz(upper_couplings(draws, n), n, q, beta).mean()) / n
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
