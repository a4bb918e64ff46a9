"""Poisson disorder: sampling, certified quenched averages, the sum rule.

The N^2 couplings are iid Poisson(c/2N), and H = tr J + sum_{i<j} (J_ij +
J_ji) delta(s_i, s_j).  The self-loops only shift H by tr J, so they
never change the Gibbs measure and enter ln Z as -beta tr J, whose mean
-beta c/2 is summed exactly.  The pair-edge count M = sum_{i<j} (J_ij +
J_ji) is Poisson(c(N-1)/2), independent of tr J, and given M the M edges
land on iid uniform pairs i < j.  Quenched averages therefore condition
on M:

    p_N(beta, c) = -beta c/2N + sum_M pi_{c(N-1)/2}(M) E[ln Z_pairs / N | M],

with the inner expectation evaluated exactly (weighted enumeration of the
C(P + M - 1, M) multisets of P = N(N-1)/2 pair counts) while that count
fits exact_budget, by seeded Monte Carlo (multinomial draws over the P
pairs) above it, and the M > M_max remainder certified through the
per-edge bound |ln Z(M) - ln Z(0)| <= beta M: each extra edge multiplies
every Gibbs weight by a factor in [e^-beta, 1].  The default exact_budget
keeps M <= 20 exact at N = 4, M <= 9 at N = 5 and M <= 6 at N = 6.
N = 1 has no pairs, and p_1 = ln q - beta c/2 exactly.

ln Z runs over model.colour_classes: one matrix product gives each
class's energy E, an integer between 0 and the row's edge count, and
ln Z = ln sum_classes multiplicity e^{-beta E}, with the multiplicities
entering through a matrix-vector product.  While beta times the largest
edge count stays below UNSHIFTED_EXPONENT (600) no weight can underflow
and none is shifted; past it each row is shifted by its least energy,
which is added back as beta E_min.  Z <= q^N cannot overflow.  Each
quenched average writes the weights of every chunk of rows into one
workspace allocated per call.

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
    check_samples,
    child_seeds,
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

# pair-count multisets per M kept exact while C(P+M-1, M) stays below this
DEFAULT_EXACT_BUDGET = 60_000
DEFAULT_MC_SAMPLES = 4096
M_MAX_CAP = 100_000
CHUNK = 4096  # placement rows per kernel call
# beta E above this would push e^{-beta E} towards underflow (e^-600 ~ 1e-261)
UNSHIFTED_EXPONENT = 600.0


@dataclass(frozen=True)
class QuenchedEstimate:
    """A disorder-averaged value with its error budget.

    stat_error is one standard error (0 on fully exact paths); tail_bound
    is the certified truncation remainder added on top; bias_estimate is an
    estimated, uncertified systematic error (the cascade Monte Carlo's
    Poisson-Dirichlet truncation), kept out of that budget.
    """

    value: float
    stat_error: float
    tail_bound: float
    samples: int
    method: str
    bias_estimate: float = 0.0

    def __post_init__(self):
        if self.stat_error < 0 or self.tail_bound < 0 or self.bias_estimate < 0:
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

def _workspace(n: int, q: int, size: int = CHUNK) -> np.ndarray:
    """An uninitialised (size, classes) buffer for _class_weights."""
    return np.empty((size, len(colour_classes(n, q)[1])))


def _class_weights(rows: np.ndarray, n: int, q: int, beta: float,
                   work: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | float]:
    """(w, shift): w = e^{-beta E + shift} per (row, colour class), written
    into work[:B], with E the class energies of each row of pair counts.

    E is an integer between 0 and the row sum, so e^{-beta E} cannot
    underflow while beta times the largest row sum stays below
    UNSHIFTED_EXPONENT, and shift = 0.  Past that each row is shifted by
    its least energy, shift = beta E_min.  The shift's row minimum and
    subtraction would add about a fifth to a pressure benchmark pass, so
    it is skipped where it is not needed.  A fresh buffer stands in for a
    missing `work`.
    """
    indicator, _ = colour_classes(n, q)
    w = (_workspace(n, q, len(rows)) if work is None else work)[:len(rows)]
    np.matmul(rows.astype(np.float64, copy=False), indicator.T, out=w)
    shift = 0.0
    if beta * rows.sum(axis=1).max() > UNSHIFTED_EXPONENT:
        e_min = w.min(axis=1, keepdims=True)
        w -= e_min
        shift = beta * e_min[:, 0]
    w *= -beta
    np.exp(w, out=w)
    return w, shift


def _lnz_batch(rows: np.ndarray, n: int, q: int, beta: float,
               work: np.ndarray | None = None) -> np.ndarray:
    """ln Z without -beta tr J for a batch of pair-count rows: the log of
    the class weights times the class multiplicities.  Z <= q^N, so the
    sum cannot overflow."""
    w, shift = _class_weights(rows, n, q, beta, work)
    return np.log(w @ np.exp(colour_classes(n, q)[1])) - shift


def _overlap_moments(rows: np.ndarray, n: int, q: int, beta: float, r_max: int,
                     work: np.ndarray | None = None) -> np.ndarray:
    """[N^-2 sum_ij M_ij^R for R = 1..r_max] per pair-count row.

    M_ij = <delta(s_i, s_j)> is a sum over the colour classes; M_ii = 1
    and M is symmetric, so the sum is N + 2 sum_{i<j} M_ij^R.
    """
    indicator, log_mult = colour_classes(n, q)
    mult = np.exp(log_mult)
    w, _ = _class_weights(rows, n, q, beta, work)
    m = (indicator.T * mult) @ w.T  # (P, B) pair overlaps, once normalised by Z
    m /= w @ mult
    sums = np.empty((r_max, len(rows)))  # sum_{i<j} M_ij^R per R and row
    power = m.copy()
    for ridx in range(r_max):
        np.sum(power, axis=0, out=sums[ridx])
        power *= m
    return ((n + 2.0 * sums) / (n * n)).T


def _exact_placements(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(P + M - 1, M) pair-count multisets of M uniform pair edges,
    with their probabilities; needs n >= 2."""
    p = n * (n - 1) // 2
    counts, logw = multinomial_table(m, np.full(p, -math.log(p)))
    return counts, np.exp(logw)


def _mc_placements(n: int, m: int, samples: int,
                   seed: np.random.SeedSequence) -> np.ndarray:
    """M uniform pair edges per sample, as counts over the P pairs."""
    p = n * (n - 1) // 2
    return philox(seed).multinomial(m, np.full(p, 1.0 / p), size=samples)


def _conditional_average(n: int, m: int, per_j, samples: int,
                         seed: np.random.SeedSequence, exact_budget: int):
    """E[f(J) | M = m] with f vectorized over pair-count row batches.

    Returns (mean, sem, n_samples); sem = 0 on the exact path, taken while
    the C(P + M - 1, M) multisets fit exact_budget.  `per_j` maps a (B, P)
    batch of pair counts to a (B, ...) value array; it sees at most CHUNK
    rows at a time, which caps peak memory.  The callers' per_j write the
    class weights of every chunk into one (CHUNK, classes) workspace
    allocated once per call (_workspace), so a per_j must return fresh
    arrays, never views of its workspace.  Needs n >= 2.
    """
    if comb(n * (n - 1) // 2 + m - 1, m) <= exact_budget:
        jrows, weights = _exact_placements(n, m)
        mean = sum(np.tensordot(weights[i:i + CHUNK], per_j(jrows[i:i + CHUNK]), axes=1)
                   for i in range(0, len(jrows), CHUNK))
        return mean, np.zeros_like(mean), 0
    jrows = _mc_placements(n, m, samples, seed)
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
    """p_N(beta, c) by pair-edge-count conditioning with a certified tail.

    The self-loops contribute -beta c/2N exactly.  Exact multiset
    enumeration per M while the multiset count fits exact_budget; seeded
    Monte Carlo (samples proportional to the Poisson weight of M) above it.
    The M > M_max remainder is replaced by ln q and certified by
    tail_bound = (beta/N) E[M 1{M > M_max}].
    """
    q, beta, c = params.q, params.beta, params.c
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    check_samples(mc_samples)
    _check_system("quenched_pressure_exact", n, q, beta, max_configs)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(math.log(q) - beta * c / (2 * n), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * (n - 1) / 2.0
    # (beta/N) E[M 1{M > m}]: the certified remainder of truncating at m
    m_tail = lambda m: (beta / n) * lam * poisson_sf(m, lam)
    m_max = poisson_cutoff(m_tail, 0.5 * eps, M_MAX_CAP)
    pmf = poisson_pmf_vector(m_max, lam)
    seeds = child_seeds(seed, m_max + 1)

    work = _workspace(n, q)
    per_j = lambda rows: _lnz_batch(rows, n, q, beta, work) / n

    def eval_m(m: int):
        if m == 0:
            return math.log(q), 0.0, 0
        budget = mc_samples if pmf[m] <= 0 else max(
            256, min(8 * mc_samples, int(4 * mc_samples * pmf[m]) + 1))
        return _conditional_average(n, m, per_j, budget, seeds[m], exact_budget)

    means, sems, used = map(np.array, zip(*(eval_m(m) for m in range(m_max + 1))))
    value = float(pmf @ means) + (1.0 - pmf.sum()) * math.log(q) - beta * c / (2 * n)
    stat = math.sqrt(float(((pmf * sems) ** 2).sum()))
    return QuenchedEstimate(value, stat, m_tail(m_max), int(used.sum()), METHOD_EXACT)


def quenched_pressure_mc(params: ModelParams, n: int, samples: int, seed: int,
                         max_configs: int = DEFAULT_ENUM_BUDGET) -> QuenchedEstimate:
    """Plain Monte Carlo over iid pair sums J_ij + J_ji ~ Poisson(c/N), with
    -beta tr J/N replaced by its mean -beta c/2N."""
    q, beta, c = params.q, params.beta, params.c
    if samples < 2:
        raise ValueError("need samples >= 2 for a standard error")
    check_samples(samples)
    _check_system("quenched_pressure_mc", n, q, beta, max_configs)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(math.log(q) - beta * c / (2 * n), 0.0, 0.0, 0, METHOD_EXACT)

    work = _workspace(n, q, min(2048, samples))

    def chunk_values(lo: int, chunk_seed: np.random.SeedSequence) -> np.ndarray:
        size = (min(2048, samples - lo), n * (n - 1) // 2)
        return _lnz_batch(philox(chunk_seed).poisson(c / n, size=size), n, q, beta, work) / n

    starts = range(0, samples, 2048)
    values = np.concatenate([chunk_values(lo, ss)
                             for lo, ss in zip(starts, child_seeds(seed, len(starts)))])
    mean = float(values.mean()) - beta * c / (2 * n)
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
    moments E[N^-2 sum_ij M_ij(J)^R], which do not depend on the
    self-loops; they are computed by the same M-conditioning as the
    quenched pressure.  The c' integral is exact: the weight of M = m
    integrates to (2/(N-1)) P(Poisson(c(N-1)/2) >= m + 1).  At N = 1 every
    moment is 1 and the series sums to (c/2)(beta + ln(1 - y/q)) exactly.
    quad_points is kept for compatibility; it is validated (>= 3) and
    otherwise ignored.  tail_bound adds the geometric R > r_max remainder
    and the certified M cutoff error (k_tail_eps bounds its Poisson tail).
    The colour classes enumerate q^n configurations, so q^n is held to
    DEFAULT_ENUM_BUDGET like the quenched pressures' default.
    """
    q, beta, c = params.q, params.beta, params.c
    if r_max < 1 or quad_points < 3:
        raise ValueError("need r_max >= 1 and quad_points >= 3")
    check_samples(mc_samples)
    _check_system("sum_rule_deficit", n, q, beta, DEFAULT_ENUM_BUDGET)
    y = -math.expm1(-beta)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(0.5 * c * (beta + math.log1p(-y / q)), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * (n - 1) / 2.0
    m_max = poisson_cutoff(lambda m: poisson_sf(m + 1, lam), k_tail_eps, M_MAX_CAP)

    rs = np.arange(1, r_max + 1)
    seeds = child_seeds(seed, m_max + 1)

    work = _workspace(n, q)
    per_j = lambda rows: _overlap_moments(rows, n, q, beta, r_max, work)
    means, sems, used = map(np.array, zip(*(  # (m_max+1, r_max) moments per M
        _conditional_average(n, m, per_j, mc_samples, seeds[m], exact_budget)
        for m in range(m_max + 1))))
    total_samples = int(used.sum())

    coef_r = 0.5 * np.power(y, rs) / rs  # series weights per R
    # exact c' integral of each Poisson weight: (2/(N-1)) P(Poisson(c(N-1)/2) >= m+1)
    coef_m = np.array([poisson_sf(m + 1, lam) for m in range(m_max + 1)]) * (2.0 / (n - 1))
    value = float(coef_r @ (coef_m @ means - np.power(float(q), -rs.astype(float)) * coef_m.sum()))

    # statistical error: deficit is linear in the per-M moment vector
    stat = math.sqrt(float((((sems * coef_m[:, None]) @ coef_r) ** 2).sum()))

    r_tail = 0.5 * c * y ** (r_max + 1) / ((r_max + 1) * (1.0 - y)) if y < 1 else math.inf
    m_tail = c * float(coef_r.sum()) * poisson_sf(m_max + 1, lam)
    return QuenchedEstimate(value, stat, r_tail + m_tail,
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
