"""Poisson disorder: sampling, certified quenched averages, the sum rule.

The N^2 couplings are iid Poisson(c/2N), and H = tr J + sum_{i<j} (J_ij +
J_ji) delta(s_i, s_j).  The self-loops only shift H by tr J, so they
never change the Gibbs measure and enter ln Z as -beta tr J, whose mean
-beta c/2 is summed exactly.  The pair-edge count M = sum_{i<j} (J_ij +
J_ji) is Poisson(c(N-1)/2), independent of tr J, and given M the M edges
land on iid uniform pairs i < j.  Quenched averages therefore condition
on M:

    p_N(beta, c) = -beta c/2N + sum_M pi_{c(N-1)/2}(M) E[ln Z_pairs / N | M],

with the inner expectation evaluated exactly while the C(P + M - 1, M)
multisets of P = N(N-1)/2 pair counts fit DEFAULT_EXACT_BUDGET, by seeded
Monte Carlo above it, and the M > M_max remainder certified through the
per-edge bound |ln Z(M) - ln Z(0)| <= beta M: each extra edge multiplies
every Gibbs weight by a factor in [e^-beta, 1].  The budget, a module
constant read at call time, keeps M <= 20 exact at N = 4, M <= 9 at N = 5
and M <= 6 at N = 6.  A stratum with a single multiset (P = 1, or M = 0)
is a point mass and exact whatever the budget.  N = 1 has no pairs, and
p_1 = ln q - beta c/2 exactly.

Both stratified averages, the pressure and the sum rule below, reduce one
float per pair-count row in one strata pass (_conditional_average).  A
Monte Carlo stratum with weight share s draws max(256, min(8 mc, floor(4 mc
s) + 1)) samples (_sample_plan), mc = mc_samples or SUM_RULE_MC_SAMPLES,
from util.child_seed(seed, M), CHUNK rows at a time.  The strata share
kernel calls, exact and Monte Carlo alike, several strata to a block of at
most CHUNK rows.  Only a stratum that samples makes its seed, and the
planned total is held to util.MAX_MC_SAMPLES before any is made.

Every Monte Carlo average subtracts control variates whose means are
exactly 0, at cross-fitted coefficients (util.cross_fit), so it stays
exactly unbiased.  A pressure draw carries two: its occupancy, the number
of pairs with J_p > 0, less its mean given M, P (1 - (1 - 1/P)^M) for M
uniform edges on P pairs (_occupied_means); and its loop term, the head
of the high-temperature expansion of ln Z - N ln q,

    L = T + (q - 1) C3,  T = sum_p ln(1 + a_p/q),
    C3 = sum_{a<b<c} theta_ab theta_bc theta_ac,

with a_J = e^{-beta J} - 1 and theta_J = a_J/(q + a_J) for a pair of J
edges (_loop_term), less its mean given M, a finite binomial sum since
theta_J stops changing once a_J rounds to -1 (_loop_laws).  The draws of
quenched_pressure_mc carry the occupancy, M - lambda and L less its mean
over iid Poisson(c/N) pair counts, P E ell + (q - 1) C(N, 3) (E theta)^3
(_poisson_loop_law).  L is gated: a stratum (or the plain estimator) of S
draws keeps it only if max_k (ell_k - E ell)^2 <= S Var ell for one
pair's ell_J = ln(1 + a_J/q) (_gated); elsewhere it is a zero column,
which the fit drops.  Where pairs saturate (beta M/P of 10 or more) ell_J
is almost constant with rare far values, L is heavy-tailed, and a
coefficient fitted on one half of the draws fails on the other: at (q,
beta, c, N) = (3, 1, 60, 4), eps 1e-3 and 512 samples,
quenched_pressure_exact's stat_error reads 0.0049-0.0137 over seeds 1-4
with L ungated, against 0.0042 gated.  On the pressure benchmark the
gated pair of controls cuts the RMS stat_error from about 3.0e-4 to
1.5e-4 at the same samples.

A sum-rule draw carries four graph moments less their means given M
(_graph_moments, _graph_means): the occupancy, the multi-edges sum_p
J_p^2 (M + M(M-1)/P), the degree squares sum_i d_i^2 (2M + 4M(M-1)/N)
and the triangles (C(N,3) M(M-1)(M-2)/P^3).  The sum rule's series hardly
follows the occupancy alone; at (q, beta, c, N) = (2, 1, 1, 6) the four
leave a residual spread of 0.44-0.65 of the raw one per stratum, against
0.90-0.94, and its standard error falls from about 8.7e-8 to 4.3e-8 at the
same samples.  Each stratum, and the plain estimator, fits the
coefficients of its first half of draws on its second half and the other
way round, from sums accumulated block by block (util.CrossFitSums), so
memory stays bounded whatever the number of draws.

The exact path never lists the multisets.  ln Z and the pair overlaps
do not change when the N sites are relabelled, so it averages over
orbit tables instead: the table of M edges is that of M - 1 with one
edge added at each of the P pairs (weight 1/P each), every row mapped
to a relabelling of itself that sorts the sites by weighted degree,
then by the sum of squared incident multiplicities, and equal rows
merged.  Adding a uniform pair commutes with relabelling, so for every
relabelling-invariant f the table's mean is the multiset mean; isomorphic
rows the sort leaves apart cost rows, not accuracy.  N = 4, M = 20 needs
2 487 rows against 53 130 multisets.  The tables are kept per process
(_orbit_tables).  ln Z and the overlaps sum over model.colour_classes,
from class weights written into one workspace per call (_class_weights).

The same conditioning evaluates the sum-rule deficit

    P - p_N = 1/2 sum_{R>=1} (1-e^-beta)^R / R  sum_s
              int_0^c << (rho_R(s) - q^-R)^2 >>_{N,beta,c'} dc',

where the s-sum collapses to single-replica pair overlaps:
sum_s <rho_R(s)^2> = N^-2 sum_ij M_ij^R = (N + 2 sum_{i<j} M_ij^R) / N^2
with M_ij = <delta(s_i, s_j)>.  The strata pass averages each row's
series over R (_overlap_series), so the sum rule's stat_error, like the
pressure's, is one standard error of the controlled averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from math import comb
from threading import Lock

import numpy as np

from .model import (ModelParams, _check_budget, _check_finite_beta, _site_pairs, as_couplings,
                    colour_classes, config_energies)
from .util import (BudgetExceededError, CrossFitSums, check_beta, check_c, check_int,
                   check_poisson_mean, check_q, check_samples, check_seed, check_tol, child_seed,
                   log_factorial, logsumexp, multinomial_table, poisson_cutoff,
                   poisson_pmf_vector, poisson_sf, stream)

METHOD_EXACT = "exact-conditional"
METHOD_MC = "monte-carlo"

# pair-count multisets per M kept exact while C(P+M-1, M) stays below this
DEFAULT_EXACT_BUDGET = 60_000
DEFAULT_MC_SAMPLES = 4096
SUM_RULE_TAIL_EPS = 1e-10  # bound on the sum rule's Poisson tail P(M > M_max)
SUM_RULE_MC_SAMPLES = 2048  # the sum rule's mc in the sample plan (_sample_plan)
SUM_RULE_MAX_R = 10_000  # cap on r_max: about 1.3 s a call at N = 6
# cap on the balanced sector's states and on its doubly balanced pair measures
BALANCED_BUDGET = 500_000
M_MAX_CAP = 100_000
CHUNK = 2048  # pair-count rows per kernel call
# beta E above this would push e^{-beta E} towards underflow (e^-600 ~ 1e-261)
UNSHIFTED_EXPONENT = 600.0
_TABLES_LOCK = Lock()  # one grower at a time for the shared orbit tables


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
        if self.method == METHOD_MC:
            check_int("samples", self.samples)


def sample_couplings(n: int, c: float, seed: int) -> np.ndarray:
    """N x N iid Poisson(c/2N) couplings, reproducible from the seed."""
    check_int("n", n)
    check_c(c)
    check_seed(seed)
    if c == 0.0:
        return np.zeros((n, n), dtype=np.int64)
    check_poisson_mean(c / (2.0 * n), c)
    return stream(seed).poisson(c / (2.0 * n), size=(n, n)).astype(np.int64)


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
    # the largest row sum, by a matrix-vector product: a row-wise sum over
    # few pairs costs about three times as much
    if beta * (rows @ np.ones(rows.shape[1])).max() > UNSHIFTED_EXPONENT:
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


def _overlap_series(rows: np.ndarray, n: int, q: int, beta: float, coef_r: np.ndarray,
                    work: np.ndarray | None = None) -> np.ndarray:
    """sum_R coef_r[R-1] N^-2 sum_ij M_ij^R per pair-count row, R = 1..len(coef_r).

    M_ij = <delta(s_i, s_j)> is a sum over the colour classes; M_ii = 1
    and M is symmetric, so N^-2 sum_ij M_ij^R = (N + 2 sum_{i<j} M_ij^R)
    / N^2.  A unit coef_r gives that one moment.
    """
    indicator, log_mult = colour_classes(n, q)
    mult = np.exp(log_mult)
    w, _ = _class_weights(rows, n, q, beta, work)
    m = (indicator.T * mult) @ w.T  # (P, B) pair overlaps, once normalised by Z
    m /= w @ mult
    # by Horner, (..((c_R m + c_{R-1}) m + ..) + c_1) m, in one accumulator
    series = coef_r[-1] * m
    for coef in coef_r[-2::-1]:
        series += coef
        series *= m
    return (2.0 * np.add.reduce(series, axis=0) + n * coef_r.sum()) / (n * n)


@lru_cache(maxsize=16)
def _orbit_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The orbit tables of n >= 2 sites, index M: (rows, weights) of pair
    counts.  Built with M = 0 only; _exact_placements appends larger M in
    place, so each n keeps one list, shared by every caller."""
    return [_frozen(np.zeros((1, n * (n - 1) // 2), dtype=np.int64), np.ones(1))]


def _frozen(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return rows, weights


def _grow_orbit_table(n: int, rows: np.ndarray,
                      weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbit table of M + 1 edges from that of M.

    Each row gains one edge at each pair with 1/P of its weight.  Each
    candidate is relabelled by a stable sort of its sites by (weighted
    degree, sum of squared incident multiplicities), read back from the
    upper triangle, and equal rows are merged with their weights summed.
    """
    p = rows.shape[1]
    m = int(rows[0].sum()) + 1
    i, j = _site_pairs(n)
    pair = np.zeros((n, n), dtype=np.intp)  # pair index of each site pair, both ways
    pair[i, j] = pair[j, i] = np.arange(p)
    incidence = np.zeros((p, n), dtype=np.int64)
    incidence[np.arange(p), i] = incidence[np.arange(p), j] = 1
    cand = (rows[:, None, :] + np.eye(p, dtype=np.int64)).reshape(-1, p)
    # an incident multiplicity is at most m, so its squares sum to at most m^2
    site_key = (cand @ incidence) * (m * m + 1) + (cand * cand) @ incidence
    order = np.argsort(site_key, axis=1, kind="stable")  # new site -> old site
    cand = np.take_along_axis(cand, pair[order[:, i], order[:, j]], axis=1)
    # merge equal rows by a lexicographic sort, which no M or P can overflow
    by_row = np.lexsort(cand.T[::-1])
    cand = cand[by_row]
    first = np.ones(len(cand), dtype=bool)
    np.any(cand[1:] != cand[:-1], axis=1, out=first[1:])
    merged = np.bincount(np.cumsum(first) - 1, weights=np.repeat(weights / p, p)[by_row])
    return _frozen(cand[first], merged)


def _exact_placements(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-count rows of M uniform pair edges with their probabilities, one
    or a few rows per site-relabelling orbit; read-only and shared.  The
    mean of any relabelling-invariant f over them is its multiset mean.
    Needs n >= 2."""
    with _TABLES_LOCK:
        tables = _orbit_tables(n)
        while len(tables) <= m:
            tables.append(_grow_orbit_table(n, *tables[-1]))
        return tables[m]


def _placements(rng: np.random.Generator, p: int, m: np.ndarray) -> np.ndarray:
    """(rows, P) counts of m[row] uniform pair edges over P pairs.

    A row of at most 8P edges draws its pair indices, offset by row * P,
    and all such rows are counted by one bincount: a bounded uniform costs
    a fraction of a step of numpy's binomial chain over the pairs.  Past 8P
    counting stops winning and its memory would grow with M, so those rows
    keep Generator.multinomial, O(P) per row.
    """
    short = m <= 8 * p
    m_short = m[short]
    pairs = rng.integers(0, p, size=int(m_short.sum()))
    pairs += np.repeat(np.arange(0, m_short.size * p, p), m_short)
    counts = np.bincount(pairs, minlength=m_short.size * p).reshape(-1, p)
    if short.all():
        return counts
    rows = np.empty((len(m), p), dtype=counts.dtype)
    rows[short] = counts
    rows[~short] = rng.multinomial(m[~short], np.full(p, 1.0 / p))
    return rows


def _mc_strata(n: int, m_max: int) -> np.ndarray:
    """True for each stratum M = 0..m_max that Monte Carlo averages: more
    than one and more than DEFAULT_EXACT_BUDGET pair-count multisets,
    C(P + M - 1, M)."""
    p = n * (n - 1) // 2
    return np.array([comb(p + m - 1, m) > max(1, DEFAULT_EXACT_BUDGET)
                     for m in range(m_max + 1)])


def _sample_plan(mc_strata: np.ndarray, weights: np.ndarray, total: float,
                 mc_samples: int) -> np.ndarray:
    """Monte Carlo samples per stratum: max(256, min(8 mc, floor(4 mc share)
    + 1)) with share = weights / total on the Monte Carlo strata, 0 on the
    exact ones.  The planned sum is held to MAX_MC_SAMPLES here, before any
    seed is made."""
    budgets = np.zeros(len(mc_strata), dtype=np.int64)
    budgets[mc_strata] = np.maximum(256, np.minimum(
        8 * mc_samples, np.floor(4 * mc_samples * (weights[mc_strata] / total)) + 1))
    check_samples(int(budgets.sum()))
    return budgets


def _conditional_average(n: int, per_j, budgets: np.ndarray, seed: int, moments,
                         moment_means) -> tuple[np.ndarray, np.ndarray]:
    """(means, sems): E[f(J) | M = m] and its standard error for every
    stratum m = 0..len(budgets) - 1, with `per_j` mapping a (B, P) batch of
    at most CHUNK pair-count rows to a fresh (B,) array of f.

    A stratum with budgets[m] = 0 is exact (sem 0) and averages over its
    orbit table, so f must be invariant under relabelling the sites.  A
    stratum with budgets[m] > 0 draws that many rows from
    stream(child_seed(seed, m)), CHUNK at a time, and subtracts k controls
    at cross-fitted coefficients (util.CrossFitSums): moments(rows, out)
    writes k controls per row into the (k, B) `out`, after f, and
    moment_means(n, m) gives their exact (k, len(m)) means given M = m,
    read once per call, or NaN where a control is left out of a stratum,
    which then reads 0 there: the pressure's occupancy and loop term
    (_pressure_fill, _loop_means; k = 2), or _graph_moments with
    _graph_means (k = 4).  Both kinds read their rows
    as one run, cut into blocks of at most CHUNK rows that may straddle
    strata (_table_blocks): the exact blocks are weighted in place and
    summed per stratum (np.add.reduceat).  Needs n >= 2.
    """
    means, sems = np.zeros(len(budgets)), np.zeros(len(budgets))
    exact = np.flatnonzero(budgets == 0)
    for rows, weights, owners, starts in _table_blocks([_exact_placements(n, m) for m in exact]):
        vals = per_j(np.concatenate(rows, dtype=np.float64))
        vals *= np.concatenate(weights)
        means[exact[owners]] += np.add.reduceat(vals, starts)
    sampled = np.flatnonzero(budgets)
    if not sampled.size:
        return means, sems
    p = n * (n - 1) // 2
    # each stratum's rows, drawn from its own stream in pieces of at most
    # CHUNK as before, tagged by their draw indices
    pieces = [(m, lo, min(CHUNK, budgets[m] - lo)) for m in sampled
              for lo in range(0, budgets[m], CHUNK)]
    streams = {m: stream(child_seed(seed, m)) for m in sampled}
    draws = ((_placements(streams[m], p, np.full(size, m)), range(lo, lo + size))
             for m, lo, size in pieces)
    piece_owner = np.searchsorted(sampled, [m for m, _, _ in pieces])
    centres = moment_means(n, sampled)
    live = ~np.isnan(centres)  # a control left out of a stratum is a zero column there
    centres[~live] = 0.0
    k = len(centres)
    sums = CrossFitSums(budgets[sampled].tolist(), k, 1, CHUNK)
    for rows, tags, in_pieces, _ in _table_blocks(draws):
        block = np.concatenate(rows, dtype=np.float64)
        owners = piece_owner[in_pieces]
        lengths = [len(tag) for tag in tags]
        w = sums.w[:, :len(block)]
        w[k + 1] = per_j(block)
        moments(block, w[1:k + 1])
        w[1:k + 1] -= np.repeat(centres[:, owners], lengths, axis=1)
        if not live.all():
            w[1:k + 1] *= np.repeat(live[:, owners], lengths, axis=1)
        sums.add(owners, lengths, [tag[0] for tag in tags])
    means[sampled], sems[sampled] = (v[:, 0] for v in sums.result())
    return means, sems


def _occupancy(rows: np.ndarray, out: np.ndarray) -> None:
    """Write into out[0] each row's occupied pairs, those with a count > 0.
    The rows are float counts, as the kernel reads them, and are clipped to
    1 in place, so call this after the kernel."""
    np.matmul(np.minimum(rows, 1.0, out=rows), np.ones(rows.shape[1]), out=out[0])


def _occupancy_means(n: int, m: np.ndarray) -> np.ndarray:
    """(1, len(m)): E[occupied pairs | M = m] (_occupied_means)."""
    return _occupied_means(n * (n - 1) // 2).take(m, mode="clip")[None]


def _pair_terms(a, q: int):
    """(theta, ell) = (a/(q + a), ln(1 + a/q)) of a pair whose J edges give
    a = e^{-beta J} - 1; ell = -ln(1 - theta).  Both reach their saturated
    values, those of a = -1, once a rounds to -1."""
    return a / (q + a), np.log1p(a / q)


@lru_cache(maxsize=16)
def _loop_tables(q: int, beta: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """_pair_terms at J = 0..min(top, 40/beta) edges, read-only.  From beta
    J = 40 on, e^{-beta J} < eps/2 and a_J rounds to -1, so the last entry
    serves every larger J (take with mode="clip")."""
    tables = _pair_terms(np.expm1(-beta * np.arange(math.ceil(min(top, 40.0 / beta)) + 1.0)), q)
    for table in tables:
        table.flags.writeable = False
    return tables


def _loop_term(rows: np.ndarray, theta: np.ndarray, q: int, out: np.ndarray,
               work: tuple[np.ndarray, ...]) -> None:
    """Write into `out` each row's loop term L = T + (q - 1) C3, the pair
    and triangle terms of ln Z - N ln q: T = sum_p ln(1 + a_p/q) = -ln
    prod_p (1 - theta_p) and C3 = sum_{a<b<c} theta_ab theta_bc theta_ac
    (_triangles).  One gather of `theta` (from _loop_tables) at the rows'
    integer counts serves both, so read float rows before _occupancy clips
    them.  Every array of the block's size lives in `work`
    (_loop_workspace): fresh ones measured about twice as slow at N = 5
    and 6."""
    p, size = rows.shape[1], len(out)
    counts, th = (buf[:p * size].reshape(p, size) for buf in work[:2])
    triangles, run_sum = work[2][:, :size]
    np.copyto(counts, rows.T, casting="unsafe")
    np.take(theta, counts, out=th, mode="clip")
    _triangles(th, triangles, run_sum)
    np.subtract(1.0, th, out=th)
    np.multiply.reduce(th, axis=0, out=out)
    np.log(out, out=out)
    triangles *= q - 1
    np.subtract(triangles, out, out=out)


def _loop_workspace(p: int, size: int) -> tuple[np.ndarray, ...]:
    """_loop_term's buffers for blocks of at most `size` rows of P pair
    counts: the counts and theta per (pair, row), flat; the triangles and
    one wedge run's sum."""
    return np.empty(p * size, dtype=np.intp), np.empty(p * size), np.empty((2, size))


def _pressure_fill(theta: np.ndarray, q: int, work: tuple[np.ndarray, ...], rows: np.ndarray,
                   out: np.ndarray) -> None:
    """The pressure's two controls, with theta, q and work bound
    (functools.partial): out[0] the occupancy (_occupancy) and out[1] the
    loop term (_loop_term), centred by _occupancy_means and _loop_means."""
    _loop_term(rows, theta, q, out[1], work)
    _occupancy(rows, out)


def _gated(mean_ell, var_ell, far_ell, draws):
    """The loop term's gate: it is kept where max_k (ell_k - E ell)^2, with
    far_ell the support's ell farthest from ell_0 = 0, is at most draws
    times Var ell.  Where pairs saturate, ell(J) is almost constant with
    rare far values, the loop term is heavy-tailed, and a coefficient
    fitted on one half of the draws does not hold on the other."""
    return np.maximum(mean_ell**2, (far_ell - mean_ell)**2) <= draws * var_ell


def _loop_means(n: int, q: int, beta: float, m: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """E[L | M = m] for the loop term of _loop_term (_loop_laws), or NaN
    where _gated leaves L out of a stratum of `draws` draws.  Needs N >= 3,
    as a sampled stratum has."""
    mean, e_ell, var, far = (v[m] for v in _loop_laws(n, q, beta, int(m.max())))
    return np.where(_gated(e_ell, var, far, draws), mean, np.nan)


@lru_cache(maxsize=16)
def _loop_laws(n: int, q: int, beta: float, top: int) -> tuple[np.ndarray, ...]:
    """(E[L | M], E[ell | M], Var[ell | M], ell_M) at M = 0..top for N >= 3,
    with ell = ell_J of one pair's J ~ Bin(M, 1/P); read-only, kept per
    process as they depend on (N, q, beta) alone.

    With theta_J = theta_inf + dtheta_J, dtheta_J = 0 past the J_sat at
    which a_J rounds to -1, each mean is a finite binomial sum.  E[T | M] =
    P E ell, and E[C3 | M] = C(N, 3) E[theta_1 theta_2 theta_3] for three
    given pairs, by the recursion over r = 1, 2, 3 pairs among Q = P, P - 1,
    P - 2:

        G_r^Q(m) = theta_inf G_{r-1}^Q(m)
                   + sum_{j < J_sat} Bin(j; m, 1/Q) dtheta_j G_{r-1}^{Q-1}(m - j),

    G_0 = 1: the first pair takes j edges, the other r - 1 share the rest
    on Q - 1 pairs, and theta_inf's share of the sum is G_{r-1}^Q.  Every M
    costs O(min(M, J_sat)), in chunks of M, so nothing is top x top.
    """
    p = n * (n - 1) // 2
    theta, ell = _loop_tables(q, beta, top)
    theta_inf, ell_inf = _pair_terms(-1.0, q)
    width = int(np.count_nonzero((theta != theta_inf) | (ell != ell_inf)))  # min(J_sat, top + 1)
    deltas = np.column_stack([theta[:width] - theta_inf, ell[:width] - ell_inf,
                              (ell[:width] - ell_inf)**2])
    sizes = np.array([p, p - 1, p - 2], dtype=np.float64)[:, None, None]  # Q
    with np.errstate(divide="ignore"):  # ln 0 at N = 3: one pair left takes every edge
        log_rest = np.log1p(-1.0 / sizes)
    g1, g2, g3, ell_moments = (np.empty((3, top + 1)), np.empty((2, top + 1)), np.empty(top + 1),
                               np.empty((top + 1, 2)))
    log_fact = log_factorial(np.arange(top + 1))
    step = max(1, 16 * CHUNK // width)
    for lo in range(0, top + 1, step):
        ms = np.arange(lo, min(lo + step, top + 1))[:, None]
        js = np.arange(min(width, lo + len(ms)))
        rest = ms - js  # edges left to the other pairs; Bin(j; m, 1/Q) = 0 where negative
        live = rest >= 0
        rest *= live
        exponent = log_fact[ms] - log_fact[js] - log_fact[rest] - js * np.log(sizes)
        exponent += np.multiply(rest, log_rest, out=np.zeros(exponent.shape), where=rest > 0)
        weights = np.exp(exponent) * live
        at = slice(lo, lo + len(ms))
        sums = weights @ deltas[:len(js)]
        g1[:, at] = theta_inf + sums[..., 0]
        ell_moments[at] = sums[0, :, 1:]
        shared = weights * deltas[:len(js), 0]
        g2[:, at] = theta_inf * g1[:2, at] + (shared[:2] * g1[1:, rest]).sum(axis=2)
        g3[at] = theta_inf * g2[0, at] + (shared[0] * g2[1, rest]).sum(axis=1)
    laws = (p * (ell_inf + ell_moments[:, 0]) + (q - 1) * comb(n, 3) * g3,
            ell_inf + ell_moments[:, 0], ell_moments[:, 1] - ell_moments[:, 0]**2,
            ell.take(np.arange(top + 1), mode="clip"))
    for law in laws:
        law.flags.writeable = False
    return laws


@lru_cache(maxsize=16)
def _poisson_loop_law(n: int, q: int, beta: float,
                      mu: float) -> tuple[np.ndarray, float, float, float, float]:
    """(theta, E L, E ell, Var ell, ell_K) for P iid Poisson(mu) pair counts
    X, each read as min(X, K) off the table theta of _loop_tables, K =
    len(theta) - 1, as take with mode="clip" reads it: E L = P E ell + (q -
    1) C(N, 3) (E theta)^3.  Past J_sat the clip changes nothing, and K <=
    e^2 mu + 60, past which P(X >= K) <= (e mu/K)^K <= e^-60."""
    theta, ell = _loop_tables(q, beta, math.ceil(math.e**2 * mu) + 60)
    pmf = poisson_pmf_vector(len(theta) - 2, mu)  # X < K; the rest of the mass reads K
    e_theta = theta[-1] + pmf @ (theta[:-1] - theta[-1])
    d_ell = pmf @ (ell[:-1] - ell[-1])
    var = pmf @ (ell[:-1] - ell[-1])**2 - d_ell**2
    mean = n * (n - 1) // 2 * (ell[-1] + d_ell) + (q - 1) * comb(n, 3) * e_theta**3
    return theta, float(mean), float(ell[-1] + d_ell), float(var), float(ell[-1])


def _graph_moments(rows: np.ndarray, out: np.ndarray) -> None:
    """Write into out[0..3] each row's occupancy (pairs with a count > 0),
    multi-edges sum_p J_p^2, degree squares sum_i d_i^2 and triangles
    sum_{a<b<c} J_ab J_bc J_ac.

    Reads a contiguous (P, B) copy of the rows, which the row operations
    below then find in cache; reading the rows strided measured about 30%
    slower in a benchmark pass.  The triangles (_triangles) take out[0],
    written last, as their scratch row.  The rows are left unchanged.
    """
    x = np.ascontiguousarray(rows.T)
    np.einsum("pb,pb->b", x, x, out=out[1])
    degrees = _graph_tables(x.shape[0])[0] @ x
    np.einsum("ib,ib->b", degrees, degrees, out=out[2])
    _triangles(x, out[3], out[0])
    np.add.reduce(np.minimum(x, 1.0, out=x), axis=0, out=out[0])


def _triangles(x: np.ndarray, out: np.ndarray, run_sum: np.ndarray) -> None:
    """Write into `out` each column's sum_{a<b<c} x_ab x_bc x_ac of a (P, B)
    array of pair values; `run_sum` is a (B,) scratch row.  The triangles
    through the pair a < b sum over the third site c > b, whose pairs (a, c)
    and (b, c) are runs of x (_graph_tables), so nothing larger than a row
    is made.  Inside benchmark passes this fused walk measured as fast as a
    multiply-then-reduce walk over an (N - 2, B) buffer in the pressure,
    and 5-14% faster than it and than an allocating einsum walk in the sum
    rule."""
    out[:] = 0.0
    for ab, ac, bc, length in _graph_tables(len(x))[1]:
        np.einsum("pb,pb->b", x[ac:ac + length], x[bc:bc + length], out=run_sum)
        run_sum *= x[ab]
        out += run_sum


def _graph_means(n: int, m: np.ndarray) -> np.ndarray:
    """(4, len(m)) exact means of _graph_moments given M = m uniform pair
    edges on P = N(N - 1)/2 pairs: the occupancy P (1 - (1 - 1/P)^M)
    (_occupied_means), the multi-edges M + M(M - 1)/P, the degree squares
    2M + 4M(M - 1)/N and the triangles C(N, 3) M(M - 1)(M - 2)/P^3.  Each
    of the M(M - 1) ordered pairs of distinct edges shares its pair with
    chance 1/P and 4/N sites on average, and J_ab J_bc J_ac counts the
    ordered triples of distinct edges on ab, bc and ac, each there with
    chance 1/P^3."""
    p = n * (n - 1) // 2
    edges = np.asarray(m, dtype=np.float64)
    pairs = edges * (edges - 1.0)  # ordered pairs of distinct edges
    return np.vstack([_occupancy_means(n, m), edges + pairs / p, 2.0 * edges + (4.0 / n) * pairs,
                      pairs * (edges - 2.0) * (comb(n, 3) / p**3)])


@lru_cache(maxsize=16)
def _graph_tables(p: int) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """(the (N, P) site-pair incidence, the wedge runs) for P = N(N - 1)/2
    pairs.  A run (ab, ac, bc, length) closes the triangles a < b < c of the
    pair ab = (a, b): the pairs (a, c) and (b, c), c = b + 1..N - 1, are the
    `length` pairs from ac and from bc in np.triu_indices order."""
    n = (1 + math.isqrt(8 * p + 1)) // 2
    i, j = _site_pairs(n)
    incidence = np.zeros((n, p))
    incidence[i, np.arange(p)] = incidence[j, np.arange(p)] = 1.0
    incidence.flags.writeable = False
    pair = lambda a, b: a * (2 * n - a - 1) // 2 + b - a - 1
    wedges = [(pair(a, b), pair(a, b + 1), pair(b, b + 1), n - 1 - b)
              for a in range(n) for b in range(a + 1, n - 1)]
    return incidence, wedges


@lru_cache(maxsize=64)
def _occupied_means(p: int) -> np.ndarray:
    """E[pairs with J_p > 0 | M] = P (1 - (1 - 1/P)^M) for M uniform pair
    edges, at M = 0..40P + 1.  Past 40P, (1 - 1/P)^M < e^-40 and the mean
    rounds to P itself, the table's last entry, which serves every larger M
    (take with mode="clip")."""
    table = p * (1.0 - np.power(1.0 - 1.0 / p, np.arange(40 * p + 2)))
    table.flags.writeable = False
    return table


def _table_blocks(tables):
    """The rows of (rows, tags) tables, read one table after another, in
    blocks of at most CHUNK rows, as slices of the tables: the orbit tables
    with their weights, or the Monte Carlo draws with their draw indices.
    `tables` may be any iterable, read lazily.  Yields (row slices, tag
    slices, table index per slice, first block row per slice)."""
    rows, weights, owners, starts, filled = [], [], [], [], 0
    for k, (table_rows, table_weights) in enumerate(tables):
        lo = 0
        while lo < len(table_weights):
            hi = min(len(table_weights), lo + CHUNK - filled)
            rows.append(table_rows[lo:hi])
            weights.append(table_weights[lo:hi])
            owners.append(k)
            starts.append(filled)
            filled += hi - lo
            lo = hi
            if filled == CHUNK:
                yield rows, weights, owners, starts
                rows, weights, owners, starts, filled = [], [], [], [], 0
    if filled:
        yield rows, weights, owners, starts


def _check_system(name: str, n: int, q: int, beta: float, seed: int) -> None:
    check_int("n", n)
    check_seed(seed)
    _check_finite_beta(name, beta)
    _check_budget(q, n)


def quenched_pressure_exact(params: ModelParams, n: int, eps: float = 1e-6, seed: int = 0,
                            mc_samples: int = DEFAULT_MC_SAMPLES) -> QuenchedEstimate:
    """p_N(beta, c) by pair-edge-count conditioning with a certified tail.

    The self-loops contribute -beta c/2N exactly.  The Poisson weight
    pi(M) of each stratum is also its Monte Carlo sample share, and
    stat_error combines the strata's standard errors with these weights.
    A Monte Carlo stratum subtracts two controls of mean exactly 0 given M
    at cross-fitted coefficients: the occupancy and the loop term L, which
    its gate leaves out where ell_J is heavy-tailed (module docstring).
    The M > M_max remainder is replaced by ln q and certified by tail_bound
    = (beta/N) E[M 1{M > M_max}].
    """
    q, beta, c = params.q, params.beta, params.c
    check_tol("eps", eps)
    check_int("mc_samples", mc_samples)
    check_samples(mc_samples)
    _check_system("quenched_pressure_exact", n, q, beta, seed)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(math.log(q) - beta * c / (2 * n), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * (n - 1) / 2.0
    # (beta/N) E[M 1{M > m}]: the certified remainder of truncating at m
    m_tail = lambda m: (beta / n) * lam * poisson_sf(m, lam)
    m_max = poisson_cutoff(m_tail, 0.5 * eps, M_MAX_CAP)
    pmf = poisson_pmf_vector(m_max, lam)
    budgets = _sample_plan(_mc_strata(n, m_max), pmf, 1.0, mc_samples)

    work = _workspace(n, q)
    fill = partial(_pressure_fill, _loop_tables(q, beta, m_max)[0], q,
                   _loop_workspace(n * (n - 1) // 2, min(CHUNK, int(budgets.sum()))))
    centres = lambda n, m: np.vstack([_occupancy_means(n, m),
                                      _loop_means(n, q, beta, m, budgets[m])])
    means, sems = _conditional_average(n, lambda rows: _lnz_batch(rows, n, q, beta, work) / n,
                                       budgets, seed, fill, centres)
    value = float(pmf @ means + (1.0 - pmf.sum()) * math.log(q) - beta * c / (2 * n))
    stat = math.sqrt(float(((pmf * sems) ** 2).sum()))
    return QuenchedEstimate(value, stat, m_tail(m_max), int(budgets.sum()), METHOD_EXACT)


def quenched_pressure_mc(params: ModelParams, n: int, samples: int, seed: int) -> QuenchedEstimate:
    """Plain Monte Carlo over iid pair sums J_ij + J_ji ~ Poisson(c/N), with
    -beta tr J/N replaced by its mean -beta c/2N.

    Each sample draws its pair-edge count M ~ Poisson(c(N-1)/2) and places
    the M edges on uniform pairs (_placements): by Poisson splitting that
    is the law of the P iid Poisson(c/N) pair sums, at one Poisson and M
    uniforms per sample instead of P Poissons.  The samples are drawn CHUNK
    at a time, block k from util.child_seed(seed, k).  Three controls of
    mean 0 ride along: the occupancy less its mean given M, M - lambda, and
    the loop term L less its mean over iid Poisson(c/N) pair counts, which
    its gate leaves out where ell_J is heavy-tailed (module docstring).
    They are subtracted at coefficients cross-fitted on the first and
    second half of the draws; stat_error is one standard error of the
    adjusted draws.
    """
    q, beta, c = params.q, params.beta, params.c
    check_int("samples", samples, 2)  # two for a standard error
    check_samples(samples)
    _check_system("quenched_pressure_mc", n, q, beta, seed)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(math.log(q) - beta * c / (2 * n), 0.0, 0.0, 0, METHOD_EXACT)
    lam = c * (n - 1) / 2.0
    check_poisson_mean(lam, c)
    work = _workspace(n, q, min(CHUNK, samples))
    theta, loop_mean, e_ell, var, far = _poisson_loop_law(n, q, beta, c / n)
    live = _gated(e_ell, var, far, samples)
    loop_work = _loop_workspace(n * (n - 1) // 2, min(CHUNK, samples))
    sums = CrossFitSums([samples], 3, 1, CHUNK)
    for block, lo in enumerate(range(0, samples, CHUNK)):
        rng = stream(child_seed(seed, block))
        m = rng.poisson(lam, size=min(CHUNK, samples - lo))
        counts = _placements(rng, n * (n - 1) // 2, m)
        rows = counts.astype(np.float64)
        w = sums.w[:, :len(m)]
        np.divide(_lnz_batch(rows, n, q, beta, work), n, out=w[4])
        if live:
            _loop_term(counts, theta, q, w[3], loop_work)
            w[3] -= loop_mean
        else:
            w[3] = 0.0
        _occupancy(rows, w[1:2])
        w[1:2] -= _occupancy_means(n, m)
        np.subtract(m, lam, out=w[2])
        sums.add([0], [len(m)], [lo])
    mean, sem = (float(v[0, 0]) for v in sums.result())
    return QuenchedEstimate(mean - beta * c / (2 * n), sem, 0.0, samples, METHOD_MC)


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------

def sum_rule_deficit(params: ModelParams, n: int, r_max: int, quad_points: int,
                     seed: int = 0) -> QuenchedEstimate:
    """Overlap-fluctuation series for P - p_N, with explicit error budget.

    Per replica order R the double bracket reduces to the pair-overlap
    moments E[N^-2 sum_ij M_ij(J)^R], which do not depend on the
    self-loops.  The strata pass averages their series over R, one float
    per coupling draw, less four controls at cross-fitted coefficients: the
    occupancy, the multi-edges sum_p J_p^2, the degree squares sum_i d_i^2
    and the triangles, each less its exact mean given M (_graph_means: P (1
    - (1 - 1/P)^M), M + M(M-1)/P, 2M + 4M(M-1)/N and C(N,3) M(M-1)(M-2)/P^3),
    so stat_error is one standard error of those averages.  At (q, beta, c,
    N) = (2, 1, 1, 6) it reads about 4.3e-8, against 8.7e-8 with the
    occupancy alone.
    The c' integral is exact: the weight of M = m integrates to w_m =
    (2/(N-1)) P(Poisson(c(N-1)/2) >= m + 1).  A Monte Carlo stratum's
    sample share is w_m over the sum of w over the Monte Carlo strata, so
    the constant SUM_RULE_MC_SAMPLES sets the total (about 4 times it plus
    the 256-sample floors), not a per-stratum count.  At N = 1 every moment
    is 1 and the series sums to (c/2)(beta + ln(1 - y/q)) exactly.  quad_points is kept for
    compatibility; it is validated (>= 3) and otherwise ignored.
    tail_bound adds the geometric R > r_max remainder and the certified M
    cutoff error, whose Poisson tail SUM_RULE_TAIL_EPS bounds.  q^n is held
    to model.DEFAULT_ENUM_BUDGET, as in the quenched pressures.
    r_max past SUM_RULE_MAX_R (read at call time) raises BudgetExceededError
    before anything is allocated.  At that cap the R > r_max remainder per
    unit c is below 1e-12 up to beta = 6, but 6e-6 at beta = 7, 5e-3 at 8
    and 0.7 at 10: at large beta tail_bound, not r_max, limits the value.
    """
    q, beta, c = params.q, params.beta, params.c
    check_int("r_max", r_max)
    if r_max > SUM_RULE_MAX_R:
        raise BudgetExceededError(f"r_max {r_max} exceeds {SUM_RULE_MAX_R}")
    check_int("quad_points", quad_points, 3)
    _check_system("sum_rule_deficit", n, q, beta, seed)
    y = -math.expm1(-beta)
    if c == 0.0 or beta == 0.0 or n == 1:
        return QuenchedEstimate(0.5 * c * (beta + math.log1p(-y / q)), 0.0, 0.0, 0, METHOD_EXACT)

    lam = c * (n - 1) / 2.0
    tail = cache(lambda m: poisson_sf(m + 1, lam))  # the cutoff's probes serve the list below
    m_max = poisson_cutoff(tail, SUM_RULE_TAIL_EPS, M_MAX_CAP)
    # exact c' integral of each Poisson weight: (2/(N-1)) P(Poisson(c(N-1)/2) >= m+1)
    sf = np.array([tail(m) for m in range(m_max + 1)])
    coef_m = sf * (2.0 / (n - 1))
    mc_strata = _mc_strata(n, m_max)
    budgets = _sample_plan(mc_strata, coef_m, coef_m[mc_strata].sum(), SUM_RULE_MC_SAMPLES)
    total_samples = int(budgets.sum())

    rs = np.arange(1, r_max + 1)
    coef_r = 0.5 * np.power(y, rs) / rs  # series weights per R
    work = _workspace(n, q)
    means, sems = _conditional_average(
        n, lambda rows: _overlap_series(rows, n, q, beta, coef_r, work), budgets, seed,
        _graph_moments, _graph_means)
    # less the series of independent overlaps, sum_s rho_R(s)^2 = q^-R, per unit weight
    independent = coef_r @ np.power(float(q), -rs.astype(float))
    value = float(coef_m @ means - coef_m.sum() * independent)
    stat = math.sqrt(float(((coef_m * sems) ** 2).sum()))

    r_tail = 0.5 * c * y ** (r_max + 1) / ((r_max + 1) * (1.0 - y)) if y < 1 else math.inf
    m_tail = c * float(coef_r.sum()) * float(sf[m_max])
    return QuenchedEstimate(value, stat, r_tail + m_tail,
                            total_samples, METHOD_EXACT if total_samples == 0 else METHOD_MC)


# ---------------------------------------------------------------------------
# balanced (constrained) partition function
# ---------------------------------------------------------------------------

def balanced_count(n: int, q: int) -> int:
    """|[q]^(N,q)| = N! / ((N/q)!)^q."""
    check_int("n", n)
    check_q(q, 1)
    if n % q:
        raise ValueError(f"N = {n} is not divisible by q = {q}")
    return math.factorial(n) // math.factorial(n // q) ** q


def _menu_sequences(menu: np.ndarray, budget, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sequence of `steps` menu rows whose column sums fit the budget,
    as menu indices in lexicographic order, and the budget each one leaves.

    All partial sequences grow by one row per array pass.  Each caller can
    complete every partial sequence, so a step past BALANCED_BUDGET (read
    at call time) means the end is past it too: BudgetExceededError is
    raised there.
    """
    picks = np.zeros((1, 0), dtype=np.intp)
    left = np.asarray(budget)[None, :]
    for _ in range(steps):
        seq, row = np.nonzero(np.all(menu <= left[:, None, :], axis=2))
        if len(seq) > BALANCED_BUDGET:
            raise BudgetExceededError(f"more than {BALANCED_BUDGET} balanced sequences")
        picks = np.column_stack((picks[seq], row))
        left = left[seq] - menu[row]
    return picks, left


def restricted_partition_balanced(J, beta: float, q: int) -> float:
    """ln of the balanced-sector partition function.

    Sums e^{-beta H} over configurations with exactly N/q sites of each
    color.  The color transposition (0 s) maps the balanced
    configurations with sigma_0 = 0 onto those with sigma_0 = s and keeps
    H, so only sigma_0 = 0 is enumerated, as the sequences of unit color
    vectors within the counts left (_menu_sequences), and ln Z = ln q +
    ln Z(sigma_0 = 0).  At beta = inf this counts balanced proper colorings
    (zero energy); returns -inf when none exist.  BALANCED_BUDGET, read at
    call time, caps the sector size N!/((N/q)!)^q before any enumeration.
    """
    J = as_couplings(J)
    check_beta(beta)
    n = J.shape[0]
    states = balanced_count(n, q)
    if states > BALANCED_BUDGET:
        raise BudgetExceededError("balanced sector too large to enumerate")
    rest = [n // q - 1] + [n // q] * (q - 1)  # colors of sites 1..N-1
    colours, _ = _menu_sequences(np.eye(q, dtype=np.int64), rest, n - 1)
    energies = config_energies(np.pad(colours.astype(np.int8), ((0, 0), (1, 0))), J)
    if beta == math.inf:
        ground = q * int((energies == 0.0).sum())
        return math.log(ground) if ground else -math.inf
    return math.log(q) + float(logsumexp(-beta * energies))


def conditional_moments_balanced(n: int, q: int, beta: float, k: int) -> tuple[float, float]:
    """Exact E[Z~ | K] and E[Z~^2 | K] for the balanced partition function.

    First moment: |balanced| (1 - (1-e^-beta)/q)^K.  Second moment: sum
    over integer doubly balanced pair measures mu of the multinomial count
    times exp(K w(beta, q, mu)) with
    w = ln(1 - 2(1-e^-beta)/q + (1-e^-beta)^2 sum mu^2).  The first q - 1
    rows of the tables N mu are sequences of compositions of N/q
    (_menu_sequences), the last row what they leave.  The log's argument
    is 0 only at q = 1, beta = inf, where every edge is monochromatic: then
    Z~ = 0 for K >= 1, and K w reads 0 at K = 0.  BALANCED_BUDGET, read at
    call time, caps the number of pair measures; a call past it raises
    once a partial count passes it.
    """
    check_int("k", k, 0)
    check_beta(beta)
    y = -math.expm1(-beta)
    first = balanced_count(n, q) * (1.0 - y / q) ** k
    menu, _ = multinomial_table(n // q, np.zeros(q))
    picks, last = _menu_sequences(menu, np.full(q, n // q), q - 1)

    def per_table(f):  # f summed over each table's cells, gathered by menu row
        return f(menu).sum(axis=1)[picks].sum(axis=1) + f(last).sum(axis=1)

    base = 1.0 - 2.0 * y / q + y * y * per_table(np.square) / (n * n)
    with np.errstate(divide="ignore"):
        k_w = k * np.log(base) if k else 0.0
    return first, float(np.exp(log_factorial(n) - per_table(log_factorial) + k_w).sum())
