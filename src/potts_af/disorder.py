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

H depends on J only through tr J and the P = N(N-1)/2 pair sums
J_ij + J_ji, so placements are folded to P pair counts plus one diagonal
count, and ln Z sums over model.colour_classes.  The exact path runs over
the C(P + K, K) multisets of these P + 1 cells; exact_budget caps that
count per K, and its default keeps K <= 17 exact at N = 4, K <= 9 at
N = 5 and K <= 6 at N = 6.  Monte Carlo draws ordered cells, then folds.

The same conditioning evaluates the sum-rule deficit

    P - p_N = 1/2 sum_{R>=1} (1-e^-beta)^R / R  sum_s
              int_0^c << (rho_R(s) - q^-R)^2 >>_{N,beta,c'} dc',

where the s-sum collapses to single-replica pair overlaps:
sum_s <rho_R(s)^2> = N^-2 sum_ij M_ij^R = (N + 2 sum_{i<j} M_ij^R) / N^2
with M_ij = <delta(s_i, s_j)>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import comb

import numpy as np

from .model import (
    DEFAULT_ENUM_BUDGET,
    ModelParams,
    colour_classes,
    config_energies,
)
from .util import (
    BudgetExceededError,
    child_seeds,
    gauss_legendre,
    log_multinomial,
    logsumexp,
    multinomial_table,
    multiset_permutations,
    philox,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
)

METHOD_EXACT = "exact-conditional"
METHOD_MC = "monte-carlo"

# folded placement multisets per K kept exact while C(P+K, K) stays below this
DEFAULT_EXACT_BUDGET = 120_000
DEFAULT_MC_SAMPLES = 4096
K_MAX_CAP = 100_000
CHUNK = 4096  # placement rows per kernel call


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

def _fold(ordered: np.ndarray, n: int) -> np.ndarray:
    """(B, n^2) ordered-cell counts -> (B, P + 1) folded placements: J_ij + J_ji
    for the P = n(n-1)/2 pairs i < j, then tr J; all that ln Z depends on."""
    sq, (i, j) = ordered.reshape(-1, n, n), np.triu_indices(n, 1)
    return np.column_stack([sq[:, i, j] + sq[:, j, i], np.trace(sq, axis1=1, axis2=2)])


def _class_log_weights(rows: np.ndarray, n: int, q: int, beta: float) -> np.ndarray:
    """(B, classes) ln(multiplicity e^{-beta H}) per folded placement, without -beta tr J."""
    indicator, log_mult = colour_classes(n, q)
    return log_mult - beta * (rows[:, :-1].astype(np.float64) @ indicator.T)


def _lnz_batch(rows: np.ndarray, n: int, q: int, beta: float) -> np.ndarray:
    """ln Z for a batch of folded placements, summed over colour classes."""
    return logsumexp(_class_log_weights(rows, n, q, beta), axis=1) - beta * rows[:, -1]


def _overlap_moments(rows: np.ndarray, n: int, q: int, beta: float,
                     r_max: int) -> np.ndarray:
    """[N^-2 sum_ij M_ij^R for R = 1..r_max] per folded placement.

    M_ij = <delta(s_i, s_j)> is a sum over the colour classes; M_ii = 1
    and M is symmetric, so the sum is N + 2 sum_{i<j} M_ij^R.
    """
    indicator, _ = colour_classes(n, q)
    logw = _class_log_weights(rows, n, q, beta)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    m = indicator.T @ (w / w.sum(axis=1, keepdims=True)).T  # (P, B) pair overlaps
    out = np.empty((rows.shape[0], r_max))
    power = m.copy()
    for ridx in range(r_max):
        out[:, ridx] = (n + 2.0 * power.sum(axis=0)) / (n * n)
        power *= m
    return out


def _exact_placements(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(P + K, K) folded placements of K edges with their probabilities.

    An edge lands on pair i < j with probability 2/n^2 and on the lumped
    diagonal with probability 1/n.
    """
    log_probs = np.full(n * (n - 1) // 2 + 1, math.log(2.0 / (n * n)))
    log_probs[-1] = -math.log(n)
    counts, logw = multinomial_table(k, log_probs)
    return counts, np.exp(logw)


def _mc_placements(n: int, k: int, samples: int,
                   seed: np.random.SeedSequence) -> np.ndarray:
    """K uniform ordered cells per sample, drawn over the n^2 cells, then folded."""
    return _fold(philox(seed).multinomial(k, np.full(n * n, 1.0 / (n * n)), size=samples), n)


def _conditional_average(n: int, k: int, per_j, samples: int,
                         seed: np.random.SeedSequence, exact_budget: int):
    """E[f(J) | K = k] with f vectorized over folded placement batches.

    Returns (mean, sem, n_samples); sem = 0 on the exact path, taken while
    the C(P + K, K) placement multisets fit exact_budget.  `per_j` maps a
    (B, P + 1) placement batch to a (B, ...) value array; it sees at most
    CHUNK rows at a time, which caps peak memory.
    """
    if comb(n * (n - 1) // 2 + k, k) <= exact_budget:
        jrows, weights = _exact_placements(n, k)
        mean = sum(np.tensordot(weights[i:i + CHUNK], per_j(jrows[i:i + CHUNK]), axes=1)
                   for i in range(0, len(jrows), CHUNK))
        return mean, np.zeros_like(mean), 0
    jrows = _mc_placements(n, k, samples, seed)
    vals = np.concatenate([per_j(jrows[i:i + CHUNK]) for i in range(0, samples, CHUNK)])
    mean = vals.mean(axis=0)
    sem = vals.std(axis=0, ddof=1) / math.sqrt(samples)
    return mean, sem, samples


def _check_system(name: str, n: int, q: int, beta: float, max_configs: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not beta < math.inf:
        raise ValueError(f"{name} requires finite beta")
    if q**n > max_configs:
        raise BudgetExceededError(f"q^n = {q**n} exceeds enumeration budget {max_configs}")


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
    _check_system("quenched_pressure_exact", n, q, beta, max_configs)
    if c == 0.0 or beta == 0.0:
        return QuenchedEstimate(math.log(q), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * n / 2.0
    # (beta/N) E[K 1{K > k}]: the certified remainder of truncating at k
    k_tail = lambda k: (beta / n) * lam * poisson_sf(k, lam)
    k_max = poisson_cutoff(k_tail, 0.5 * eps, K_MAX_CAP)
    pmf = poisson_pmf_vector(k_max, lam)
    seeds = child_seeds(seed, k_max + 1)

    per_j = lambda rows: _lnz_batch(rows, n, q, beta) / n

    def eval_k(k: int):
        if k == 0:
            return math.log(q), 0.0, 0
        budget = mc_samples if pmf[k] <= 0 else max(
            256, min(8 * mc_samples, int(4 * mc_samples * pmf[k]) + 1))
        return _conditional_average(n, k, per_j, budget, seeds[k], exact_budget)

    means, sems, used = map(np.array, zip(*(eval_k(k) for k in range(k_max + 1))))
    value = float(pmf @ means) + (1.0 - pmf.sum()) * math.log(q)
    stat = math.sqrt(float(((pmf * sems) ** 2).sum()))
    return QuenchedEstimate(value, stat, k_tail(k_max), int(used.sum()), METHOD_EXACT)


def quenched_pressure_mc(params: ModelParams, n: int, samples: int, seed: int,
                         max_configs: int = DEFAULT_ENUM_BUDGET) -> QuenchedEstimate:
    """Plain Monte Carlo over iid coupling draws."""
    q, beta, c = params.q, params.beta, params.c
    if samples < 2:
        raise ValueError("need samples >= 2 for a standard error")
    _check_system("quenched_pressure_mc", n, q, beta, max_configs)

    def chunk_values(lo: int, chunk_seed: np.random.SeedSequence) -> np.ndarray:
        draws = philox(chunk_seed).poisson(c / (2.0 * n), size=(min(2048, samples - lo), n * n))
        return _lnz_batch(_fold(draws, n), n, q, beta) / n

    starts = range(0, samples, 2048)
    values = np.concatenate([chunk_values(lo, ss)
                             for lo, ss in zip(starts, child_seeds(seed, len(starts)))])
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
    refined rule.  The colour classes enumerate q^n configurations, so q^n
    is held to DEFAULT_ENUM_BUDGET like the quenched pressures' default.
    """
    q, beta, c = params.q, params.beta, params.c
    if r_max < 1 or quad_points < 3:
        raise ValueError("need r_max >= 1 and quad_points >= 3")
    _check_system("sum_rule_deficit", n, q, beta, DEFAULT_ENUM_BUDGET)
    y = -math.expm1(-beta)
    if c == 0.0 or beta == 0.0:
        return QuenchedEstimate(0.0, 0.0, 0.0, 0, METHOD_EXACT)

    lam_top = c * n / 2.0
    k_max = poisson_cutoff(lambda k: poisson_sf(k + 1, lam_top), k_tail_eps, K_MAX_CAP)

    rs = np.arange(1, r_max + 1)
    seeds = child_seeds(seed, k_max + 1)

    per_j = lambda rows: _overlap_moments(rows, n, q, beta, r_max)
    means, sems, used = map(np.array, zip(*(  # (k_max+1, r_max) moments per K
        _conditional_average(n, k, per_j, mc_samples, seeds[k], exact_budget)
        for k in range(k_max + 1))))
    total_samples = int(used.sum())

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
    return math.factorial(n) // math.factorial(n // q) ** q


def restricted_partition_balanced(J, beta: float, q: int,
                                  max_states: int = 500_000) -> float:
    """ln of the balanced-sector partition function.

    Sums e^{-beta H} over configurations with exactly N/q sites of each
    color.  At beta = inf this counts balanced proper colorings (zero
    energy); returns -inf when none exist.
    """
    n = np.shape(J)[0]
    states = balanced_count(n, q)
    if states > max_states:
        raise BudgetExceededError("balanced sector too large to enumerate")
    cfg = np.fromiter(chain.from_iterable(multiset_permutations([n // q] * q)),
                      dtype=np.int8, count=states * n).reshape(states, n)
    energies = config_energies(cfg, J)
    if beta == math.inf:
        ground = int((energies == 0.0).sum())
        return math.log(ground) if ground else -math.inf
    return float(logsumexp(-beta * energies))


def _balanced_pair_measures(n: int, q: int):
    """Integer q x q tables with all row and column sums N/q, flattened row by row."""
    rows, _ = multinomial_table(n // q, np.zeros(q))

    def tables(cols: np.ndarray, left: int):
        if left == 1:
            yield tuple(cols.tolist())
            return
        for row in rows[np.all(rows <= cols, axis=1)]:
            for tail in tables(cols - row, left - 1):
                yield tuple(row.tolist()) + tail

    yield from tables(np.full(q, n // q), q)


def conditional_moments_balanced(n: int, q: int, beta: float, k: int,
                                 max_tables: int = 500_000) -> tuple[float, float]:
    """Exact E[Z~ | K] and E[Z~^2 | K] for the balanced partition function.

    First moment: |balanced| (1 - (1-e^-beta)/q)^K.  Second moment: sum
    over integer doubly balanced pair measures mu of the multinomial count
    times exp(K w(beta, q, mu)) with
    w = ln(1 - 2(1-e^-beta)/q + (1-e^-beta)^2 sum mu^2).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    y = 1.0 if beta == math.inf else -math.expm1(-beta)
    first = balanced_count(n, q) * (1.0 - y / q) ** k
    second = 0.0
    for tables_seen, flat in enumerate(_balanced_pair_measures(n, q)):
        if tables_seen >= max_tables:
            raise BudgetExceededError(
                f"more than {max_tables} balanced pair measures at n = {n}, q = {q}"
            )
        mu_sq = sum((cell / n) ** 2 for cell in flat)
        w = math.log(1.0 - 2.0 * y / q + y * y * mu_sq)
        second += math.exp(log_multinomial(flat) + k * w)
    return first, second
