"""Poisson disorder: sampling, certified quenched averages, the sum rule.

The N^2 couplings are iid Poisson(c/2N), so the total count |J| is
Poisson(cN/2) and, conditionally on |J| = K, the K unit couplings land on
iid uniform ordered pairs (i, j).  Quenched averages are therefore
computed by conditioning on K:

    p_N(beta, c) = sum_K pi_{cN/2}(K) E[ln Z / N | K],

with the inner expectation evaluated exactly (weighted enumeration of
placement multisets) while the multiset count fits a budget, by seeded
Monte Carlo above that, and the K > K_max remainder certified through the
per-edge bound |ln Z(K) - ln Z(0)| <= beta K: each extra edge multiplies
every Gibbs weight by a factor in [e^-beta, 1].

The same conditioning evaluates the sum-rule deficit

    P - p_N = 1/2 sum_{R>=1} (1-e^-beta)^R / R  sum_s
              int_0^c << (rho_R(s) - q^-R)^2 >>_{N,beta,c'} dc',

where the s-sum collapses to single-replica pair overlaps:
sum_s <rho_R(s)^2> = N^-2 sum_ij M_ij^R with M_ij = <delta(s_i, s_j)>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np
from scipy.special import logsumexp

from .model import DEFAULT_ENUM_BUDGET, ModelParams, config_block
from .util import (
    BudgetExceededError,
    child_seeds,
    gauss_legendre,
    log_multinomial,
    multiset_permutations,
    philox,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
)

METHOD_EXACT = "exact-conditional"
METHOD_MC = "monte-carlo"

# placement multisets per K kept exact while C(N^2+K-1, K) stays below this
DEFAULT_EXACT_BUDGET = 120_000
DEFAULT_MC_SAMPLES = 4096
K_MAX_CAP = 100_000


@dataclass(frozen=True)
class QuenchedEstimate:
    """A disorder-averaged value with its error budget.

    stat_error is one standard error (0 on fully exact paths); tail_bound
    is the certified truncation remainder added on top.
    """

    value: float
    stat_error: float
    tail_bound: float
    samples: int
    method: str

    def __post_init__(self):
        if self.stat_error < 0 or self.tail_bound < 0:
            raise ValueError("error fields must be nonnegative")
        if self.method == METHOD_MC and self.samples < 1:
            raise ValueError("monte-carlo estimates need samples >= 1")


def sample_couplings(n: int, c: float, seed: int) -> np.ndarray:
    """N x N iid Poisson(c/2N) couplings, reproducible from the seed."""
    if n < 1 or c < 0:
        raise ValueError("need n >= 1 and c >= 0")
    if c == 0.0:
        return np.zeros((n, n), dtype=np.int64)
    return philox(seed).poisson(c / (2.0 * n), size=(n, n)).astype(np.int64)


def sample_edges_given_k(n: int, k: int, seed: int) -> np.ndarray:
    """K iid uniform ordered pairs from {0..n-1}^2, as a (k, 2) array."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return philox(seed).integers(0, n, size=(k, 2), dtype=np.int64)


def edges_to_couplings(edges: np.ndarray, n: int) -> np.ndarray:
    """Count edge multiplicities into a coupling matrix."""
    J = np.zeros((n, n), dtype=np.int64)
    if len(edges):
        np.add.at(J, (edges[:, 0], edges[:, 1]), 1)
    return J


# ---------------------------------------------------------------------------
# conditional enumeration engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _pair_indicator(n: int, q: int) -> np.ndarray:
    """(q^n, n^2) matrix D with D[cfg, i*n+j] = [sigma_i == sigma_j]."""
    cfg = config_block(n, q, 0, q**n)
    cols = [(cfg[:, i] == cfg[:, j]) for i in range(n) for j in range(n)]
    return np.stack(cols, axis=1).astype(np.float64)


def _lnz_batch(jflat: np.ndarray, disc: np.ndarray, beta: float) -> np.ndarray:
    """ln Z for a batch of flattened coupling matrices (rows of jflat)."""
    energies = jflat @ disc.T
    return logsumexp(-beta * energies, axis=1)


def _gibbs_batch(jflat: np.ndarray, disc: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights over all configurations for each row of jflat."""
    energies = -beta * (jflat @ disc.T)
    energies -= energies.max(axis=1, keepdims=True)
    w = np.exp(energies)
    return w / w.sum(axis=1, keepdims=True)


def _exact_multisets(n_cells: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All coupling multisets with K edges, with probability weights."""
    count = comb(n_cells + k - 1, k)
    jrows = np.zeros((count, n_cells))
    logw = np.empty(count)
    log_cells = k * math.log(n_cells) if k else 0.0
    for row, combo in enumerate(combinations_with_replacement(range(n_cells), k)):
        counts: dict[int, int] = {}
        for cell in combo:
            counts[cell] = counts.get(cell, 0) + 1
        for cell, cnt in counts.items():
            jrows[row, cell] = cnt
        logw[row] = log_multinomial(tuple(counts.values())) - log_cells
    return jrows, np.exp(logw)


def _mc_placements(n_cells: int, k: int, samples: int,
                   seed: np.random.SeedSequence) -> np.ndarray:
    rng = philox(seed)
    return rng.multinomial(k, np.full(n_cells, 1.0 / n_cells), size=samples).astype(float)


def _apply_chunked(per_j, jrows: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Evaluate per_j over fixed-size row chunks to cap peak memory."""
    if len(jrows) <= chunk:
        return np.asarray(per_j(jrows))
    parts = [np.asarray(per_j(jrows[i:i + chunk])) for i in range(0, len(jrows), chunk)]
    return np.concatenate(parts, axis=0)


def _conditional_average(n: int, q: int, beta: float, k: int, per_j,
                         samples: int, seed: np.random.SeedSequence,
                         exact_budget: int):
    """E[f(J) | K = k] with f vectorized over placement batches.

    Returns (mean, sem, n_samples); sem = 0 on the exact path.  `per_j`
    maps a (B, n^2) placement batch to a (B, ...) value array.
    """
    n_cells = n * n
    count = comb(n_cells + k - 1, k)
    if count <= exact_budget:
        jrows, weights = _exact_multisets(n_cells, k)
        vals = _apply_chunked(per_j, jrows)
        mean = np.tensordot(weights, vals, axes=1)
        return mean, np.zeros_like(mean), 0
    jrows = _mc_placements(n_cells, k, samples, seed)
    vals = _apply_chunked(per_j, jrows)
    mean = vals.mean(axis=0)
    sem = vals.std(axis=0, ddof=1) / math.sqrt(samples)
    return mean, sem, samples


def quenched_pressure_exact(params: ModelParams, n: int, eps: float = 1e-6,
                            seed: int = 0, mc_samples: int = DEFAULT_MC_SAMPLES,
                            exact_budget: int = DEFAULT_EXACT_BUDGET,
                            max_configs: int = DEFAULT_ENUM_BUDGET) -> QuenchedEstimate:
    """p_N(beta, c) by edge-count conditioning with a certified tail.

    Exact placement enumeration per K while the multiset count fits
    exact_budget; seeded Monte Carlo (samples proportional to the Poisson
    weight of K) above it.  The K > K_max remainder is replaced by ln q
    and certified by tail_bound = (beta/N) E[K 1{K > K_max}].
    """
    q, beta, c = params.q, params.beta, params.c
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not beta < math.inf:
        raise ValueError("quenched_pressure_exact requires finite beta")
    if q**n > max_configs:
        raise BudgetExceededError(f"q^n = {q**n} exceeds enumeration budget {max_configs}")
    if c == 0.0 or beta == 0.0:
        return QuenchedEstimate(math.log(q), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * n / 2.0
    # (beta/N) E[K 1{K > k}]: the certified remainder of truncating at k
    k_tail = lambda k: (beta / n) * lam * poisson_sf(k, lam)
    k_max = poisson_cutoff(k_tail, 0.5 * eps, K_MAX_CAP)
    pmf = poisson_pmf_vector(k_max, lam)
    disc = _pair_indicator(n, q)
    seeds = child_seeds(seed, k_max + 1)

    def eval_k(k: int):
        if k == 0:
            return math.log(q), 0.0, 0
        budget = mc_samples if pmf[k] <= 0 else max(
            256, min(8 * mc_samples, int(4 * mc_samples * pmf[k]) + 1)
        )
        per_j = lambda rows: _lnz_batch(rows, disc, beta) / n
        mean, sem, used = _conditional_average(
            n, q, beta, k, per_j, budget, seeds[k], exact_budget
        )
        return float(mean), float(sem), used

    results = [eval_k(k) for k in range(k_max + 1)]
    value = sum(pmf[k] * results[k][0] for k in range(k_max + 1))
    value += (1.0 - pmf.sum()) * math.log(q)
    stat = math.sqrt(sum((pmf[k] * results[k][1]) ** 2 for k in range(k_max + 1)))
    total_samples = sum(r[2] for r in results)
    return QuenchedEstimate(value, stat, k_tail(k_max), total_samples, METHOD_EXACT)


def quenched_pressure_mc(params: ModelParams, n: int, samples: int, seed: int,
                         max_configs: int = DEFAULT_ENUM_BUDGET) -> QuenchedEstimate:
    """Plain Monte Carlo over iid coupling draws."""
    q, beta, c = params.q, params.beta, params.c
    if samples < 2:
        raise ValueError("need samples >= 2 for a standard error")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not beta < math.inf:
        raise ValueError("quenched_pressure_mc requires finite beta")
    if q**n > max_configs:
        raise BudgetExceededError(f"q^n = {q**n} exceeds enumeration budget {max_configs}")
    disc = _pair_indicator(n, q)
    chunks = [(i, min(i + 2048, samples)) for i in range(0, samples, 2048)]
    seeds = child_seeds(seed, len(chunks))

    def run(idx):
        lo, hi = chunks[idx]
        rng = philox(seeds[idx])
        matrices = rng.poisson(c / (2.0 * n), size=(hi - lo, n * n)).astype(float)
        return _lnz_batch(matrices, disc, beta) / n

    values = np.concatenate([run(idx) for idx in range(len(chunks))])
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(samples))
    return QuenchedEstimate(mean, sem, 0.0, samples, METHOD_MC)


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------

def sum_rule_deficit(params: ModelParams, n: int, r_max: int, quad_points: int,
                     seed: int = 0, mc_samples: int = 2048,
                     exact_budget: int = DEFAULT_EXACT_BUDGET,
                     k_tail_eps: float = 1e-10) -> QuenchedEstimate:
    """Overlap-fluctuation series for P - p_N, with explicit error budget.

    Per replica order R the double bracket reduces to the pair-overlap
    moments E[N^-2 sum_ij M_ij(J)^R] computed by the same K-conditioning
    as the quenched pressure; the c' integral uses Gauss-Legendre with
    quad_points nodes.  tail_bound adds the geometric R > r_max remainder,
    the certified K cutoff error, and a quadrature error estimate from a
    refined rule.
    """
    q, beta, c = params.q, params.beta, params.c
    if r_max < 1 or quad_points < 3:
        raise ValueError("need r_max >= 1 and quad_points >= 3")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not beta < math.inf:
        raise ValueError("sum_rule_deficit requires finite beta")
    y = -math.expm1(-beta)
    if c == 0.0 or beta == 0.0:
        return QuenchedEstimate(0.0, 0.0, 0.0, 0, METHOD_EXACT)

    lam_top = c * n / 2.0
    k_max = poisson_cutoff(lambda k: poisson_sf(k + 1, lam_top), k_tail_eps, K_MAX_CAP)

    disc = _pair_indicator(n, q)
    rs = np.arange(1, r_max + 1)
    seeds = child_seeds(seed, k_max + 1)

    def overlap_moments(rows: np.ndarray) -> np.ndarray:
        """Per placement row: [N^-2 sum_ij M_ij^R for R = 1..r_max]."""
        m = _gibbs_batch(rows, disc, beta) @ disc  # (B, n^2) pair overlaps
        out = np.empty((rows.shape[0], r_max))
        power = m.copy()
        for ridx in range(r_max):
            out[:, ridx] = power.mean(axis=1)
            if ridx + 1 < r_max:
                power *= m
        return out

    def eval_k(k: int):
        mean, sem, used = _conditional_average(
            n, q, beta, k, overlap_moments, mc_samples, seeds[k], exact_budget
        )
        return np.asarray(mean), np.asarray(sem), used

    per_k = [eval_k(k) for k in range(k_max + 1)]
    means = np.stack([p[0] for p in per_k])  # (k_max+1, r_max)
    sems = np.stack([p[1] for p in per_k])
    total_samples = sum(p[2] for p in per_k)

    coef_r = 0.5 * np.power(y, rs) / rs  # series weights per R

    def quadrature_value(points: int) -> tuple[float, np.ndarray]:
        nodes, weights = gauss_legendre(points, 0.0, c)
        acc = 0.0
        coef_k = np.zeros(k_max + 1)
        for node, wq in zip(nodes, weights):
            pmf = poisson_pmf_vector(k_max, node * n / 2.0)
            inner = pmf @ means - np.power(float(q), -rs.astype(float)) * pmf.sum()
            acc += wq * float(coef_r @ inner)
            coef_k += wq * pmf
        return acc, coef_k

    value, coef_k = quadrature_value(quad_points)
    value_refined, _ = quadrature_value(quad_points + 8)
    quad_err = abs(value - value_refined)

    # statistical error: deficit is linear in the per-K moment vector
    stat = math.sqrt(float((((sems * coef_k[:, None]) @ coef_r) ** 2).sum()))

    r_tail = 0.5 * c * y ** (r_max + 1) / ((r_max + 1) * (1.0 - y)) if y < 1 else math.inf
    k_tail = c * float(coef_r.sum()) * poisson_sf(k_max + 1, lam_top)
    return QuenchedEstimate(value, stat, r_tail + k_tail + quad_err,
                            total_samples, METHOD_EXACT if total_samples == 0 else METHOD_MC)


# ---------------------------------------------------------------------------
# balanced (constrained) partition function
# ---------------------------------------------------------------------------

def balanced_count(n: int, q: int) -> int:
    """|[q]^(N,q)| = N! / ((N/q)!)^q."""
    if n % q:
        raise ValueError(f"N = {n} is not divisible by q = {q}")
    total = math.factorial(n)
    return total // math.factorial(n // q) ** q


def restricted_partition_balanced(J, beta: float, q: int,
                                  max_states: int = 500_000) -> float:
    """ln of the balanced-sector partition function.

    Sums e^{-beta H} over configurations with exactly N/q sites of each
    color.  At beta = inf this counts balanced proper colorings (zero
    energy); returns -inf when none exist.
    """
    J = np.asarray(J)
    n = J.shape[0]
    if n % q:
        raise ValueError(f"N = {n} is not divisible by q = {q}")
    if balanced_count(n, q) > max_states:
        raise BudgetExceededError("balanced sector too large to enumerate")
    counts = [n // q] * q
    energies = []
    for cfg in multiset_permutations(counts):
        sig = np.asarray(cfg, dtype=np.int64)
        same = sig[:, None] == sig[None, :]
        energies.append(float(J[same].sum()))
    energies = np.asarray(energies)
    if beta == math.inf:
        ground = int((energies == 0.0).sum())
        return math.log(ground) if ground else -math.inf
    return float(logsumexp(-beta * energies))


def _balanced_pair_measures(n: int, q: int):
    """Integer q x q tables with all row and column sums N/q."""
    per = n // q

    def rows(remaining_cols, rows_left):
        if rows_left == 1:
            yield (tuple(remaining_cols),)
            return
        for row in _bounded_compositions(per, remaining_cols):
            rest = tuple(rc - r for rc, r in zip(remaining_cols, row))
            for tail in rows(rest, rows_left - 1):
                yield (row,) + tail

    yield from rows(tuple([per] * q), q)


def _bounded_compositions(total: int, bounds):
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for head in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - head, bounds[1:]):
            yield (head,) + rest


def conditional_moments_balanced(n: int, q: int, beta: float, k: int,
                                 max_tables: int = 500_000) -> tuple[float, float]:
    """Exact E[Z~ | K] and E[Z~^2 | K] for the balanced partition function.

    First moment: |balanced| (1 - (1-e^-beta)/q)^K.  Second moment: sum
    over integer doubly balanced pair measures mu of the multinomial count
    times exp(K w(beta, q, mu)) with
    w = ln(1 - 2(1-e^-beta)/q + (1-e^-beta)^2 sum mu^2).
    """
    if n % q:
        raise ValueError(f"N = {n} is not divisible by q = {q}")
    if k < 0:
        raise ValueError("k must be >= 0")
    y = 1.0 if beta == math.inf else -math.expm1(-beta)
    first = balanced_count(n, q) * (1.0 - y / q) ** k
    second = 0.0
    for tables_seen, table in enumerate(_balanced_pair_measures(n, q)):
        if tables_seen >= max_tables:
            raise BudgetExceededError(
                f"more than {max_tables} balanced pair measures at n = {n}, q = {q}"
            )
        flat = [cell for row in table for cell in row]
        mu_sq = sum((cell / n) ** 2 for cell in flat)
        w = math.log(1.0 - 2.0 * y / q + y * y * mu_sq)
        second += math.exp(log_multinomial(flat) + k * w)
    return first, second
