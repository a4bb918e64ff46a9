"""Shared numerical plumbing: argument rules, Poisson weights and tails,
log-factorials, seeded RNG streams, cutoffs, log-sum-exp, and the
cross-fit of control variates that every Monte Carlo estimate runs.

The argument rules (check_q, check_beta, check_c, check_int, check_tol and
check_seed) are stated here once; every public entry point calls them before
any search, table build or draw, and each raises ValueError naming it.

Every stochastic routine in the package draws from an SFC64 generator
(stream) keyed by an explicit integer seed, or by a child of one
(child_seed), and runs serially, so results depend only on the seed.
Poisson weights and multinomials read a table of ln k! built with
math.lgamma, and Poisson tails are summed in plain float arithmetic, so
importing the package loads no scipy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class BudgetExceededError(RuntimeError):
    """An enumeration or truncation budget would be exceeded."""


# Cap on a Monte Carlo sample count: 100 times the largest count the tests,
# the acceptance criteria and the benchmark use (10 000 draws; a quenched
# pressure stratum takes at most 8 x 4 096).  Memory does not grow with the
# count (CrossFitSums), but time does: at the cap a cascade bound at 2 048
# leaves, 5 sites and q = 2 takes three to four minutes (0.20 to 0.25 ms a
# draw on one core of a 2-core Xeon).
MAX_MC_SAMPLES = 1_000_000


def check_int(name: str, value, low: int = 1) -> None:
    """Raise ValueError unless value is an integer >= low; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_seed(seed) -> None:
    """A seed: an integer >= 0 (numpy integers allowed), never a bool."""
    check_int("seed", seed, 0)


def check_q(q, low: int = 2) -> None:
    """q colours: an integer >= 2, or >= 1 in the balanced sector."""
    check_int("q", q, low)


def check_beta(beta: float) -> None:
    """beta >= 0, math.inf allowed; NaN fails."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")


def check_c(c: float, name: str = "c") -> None:
    """A connectivity (c, or phi2's kappa): finite and >= 0."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {c}")


def check_state(beta: float, c: float, q) -> None:
    """The rules of one model triple (beta, c, q)."""
    check_q(q)
    check_beta(beta)
    check_c(c)


def check_tol(name: str, value: float) -> None:
    """A tolerance or truncation target: > 0; NaN fails."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def check_samples(samples: int) -> None:
    """Raise BudgetExceededError past MAX_MC_SAMPLES, before anything is
    allocated or any seed is split."""
    if samples > MAX_MC_SAMPLES:
        raise BudgetExceededError(f"{samples} Monte Carlo samples exceed {MAX_MC_SAMPLES}")


# The largest mean numpy's Poisson sampler accepts: the int64 maximum less
# ten of its square roots, about 9.22e18.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max))


def check_poisson_mean(lam: float, c: float) -> None:
    """Raise ValueError, naming the connectivity c, when a Poisson mean lam
    drawn from c is past POISSON_MEAN_MAX."""
    if lam > POISSON_MEAN_MAX:
        raise ValueError(f"c = {c!r} needs a Poisson mean of {lam:.4g}, past the limit "
                         f"{POISSON_MEAN_MAX:.4g} of numpy's Poisson sampler")


def stream(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """The package's generator: SFC64 keyed by SeedSequence(seed), or by a
    SeedSequence itself, such as a child from child_seed."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.SFC64(ss))


def child_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Child k of an integer seed: SeedSequence(seed).spawn(k + 1)[k], made alone."""
    return np.random.SeedSequence(seed, spawn_key=(int(k),))


def logsumexp(a, axis: int | None = None) -> np.ndarray:
    """ln sum exp(a) over `axis` (every entry when None), against the maximum.

    A slice whose entries are all -inf gives -inf, not NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    top[np.isinf(top)] = 0.0  # no finite shift; a NaN maximum stays and gives NaN
    with np.errstate(divide="ignore"):  # ln 0 = -inf for an all -inf slice
        out = np.log(np.exp(a - top).sum(axis=axis, keepdims=True))
    return (out + top).squeeze(axis)


# ---------------------------------------------------------------------------
# Poisson law helpers
# ---------------------------------------------------------------------------

_LOG_FACTORIAL = np.zeros(1)  # ln k! for k < len; grown by log_factorial


def log_factorial(k):
    """ln k! for a nonnegative integer k or integer array k, read from a table."""
    global _LOG_FACTORIAL
    k = np.asarray(k)
    if k.size and k.min() < 0:
        raise ValueError("log_factorial needs nonnegative integers")
    top = int(k.max(initial=0))
    if top >= len(_LOG_FACTORIAL):
        have = len(_LOG_FACTORIAL)
        grown = [math.lgamma(j + 1.0) for j in range(have, max(top + 1, 2 * have))]
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, grown])
    return _LOG_FACTORIAL[k]


def poisson_pmf_vector(kmax: int, lam: float) -> np.ndarray:
    """pmf values for k = 0..kmax, computed in log space."""
    ks = np.arange(kmax + 1)
    if lam == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    return np.exp(-lam + ks * math.log(lam) - log_factorial(ks))


def _log_poisson_pmf(k: int, lam: float) -> float:
    """ln pi_lam(k) for lam > 0, to a few ulp of its size.

    Above k = 15 it uses Loader's saddle-point form, -ln sqrt(2 pi k) minus
    the Stirling remainder of ln k! minus lam D(k / lam) with D(r) = r ln r -
    r + 1, which avoids cancelling k ln lam against ln k!.
    """
    if k < 16:
        return k * math.log(lam) - lam - math.lgamma(k + 1.0)
    kk = float(k) * k
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k
    d = k - lam
    v = d / (k + lam)
    if abs(v) < 0.5:  # k D = (k - lam) v + 2 k sum_j v^(2j+1) / (2j+1)
        dev, odd, j = d * v, 2.0 * k * v, 1
        while True:
            odd *= v * v
            nxt = dev + odd / (2 * j + 1)
            if nxt == dev:
                break
            dev, j = nxt, j + 1
    else:
        dev = k * math.log(k / lam) - d
    return -0.5 * math.log(2.0 * math.pi * k) - stirling - dev


def poisson_sf(k: int, lam: float) -> float:
    """P(K >= k) for K ~ Poisson(lam) and integer k, summed away from the mode.

    For k > lam the terms pi(k), pi(k+1), ... fall by lam/(j+1); they are
    summed until one drops below 1e-17 of the sum, and the rest is bounded
    by a geometric series.  For k <= lam the result is 1 minus pi(k-1) +
    pi(k-2) + ..., whose terms fall by j/lam.  A relative margin of 16 ulp
    per unit of |ln pi| and per term covers the rounding of both, so the
    value is an upper bound on the tail, as certified truncations need, and
    lies within a few parts in 1e12 of it.
    """
    if k <= 0 or lam == math.inf:
        return 1.0
    if lam == 0.0:
        return 0.0
    upper = k > lam
    j = k if upper else k - 1
    log_p = _log_poisson_pmf(j, lam)
    term = total = math.exp(log_p)
    while term > 1e-17 * total and (upper or j > 0):
        if upper:
            j += 1
            term *= lam / j
        else:
            term *= j / lam
            j -= 1
        total += term
    margin = 2.0**-48 * (abs(log_p) + abs(j - k) + 8)
    if upper:
        ratio = lam / (j + 1)
        return (total + term * ratio / (1.0 - ratio)) * (1.0 + margin)
    return 1.0 - total * (1.0 - margin)


def poisson_cutoff(tail: Callable[[int], float], target: float, cap: int) -> int:
    """Smallest k >= 0 with tail(k) <= target, for tail non-increasing in k.

    `tail` is a truncation bound built on poisson_sf.  The search gallops
    over k = 1, 2, 4, ... until the bound is met, then bisects, so it costs
    O(log k) evaluations and never overshoots.  A bound still unmet at k =
    cap (or a NaN bound or target) raises BudgetExceededError.
    """
    def meets(k: int) -> bool:
        return tail(k) <= target

    if meets(0):
        return 0
    lo, hi = 0, 1  # invariant: the bound fails at lo
    while not meets(hi):
        if hi >= cap:
            raise BudgetExceededError(
                f"truncation bound cannot reach {target} within k <= {cap}"
            )
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Control variates
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def cross_fit(sums: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of r values per draw less k control
    variates of mean exactly 0, at cross-fitted coefficients, from per-owner
    sums over the two halves of each owner's draws.

    sums[g, h] holds the sums of w z^T over owner g's draws in half h, with
    z = (1, x_1, ..., x_k, y_1 - shift[g, 0], ..., y_r - shift[g, r - 1])
    and w = (z, |x_1|, ..., |x_k|, |y_1|, ..., |y_r|): the first k + r + 1
    rows are the Gram matrix of z, and the first column of the rest holds
    the absolute sums the rounding floor reads.  A shift near the values'
    mean keeps their spread from cancelling.  Returns (means, errors), each
    of shape (owners, r).

    The coefficients applied to one half are fitted by least squares, with
    an intercept, on the other half, so no draw's correction depends on the
    draw itself and each adjusted mean y - beta x is exactly unbiased.  A
    half of at most k + 1 draws fits nothing, and a control constant on the
    half it is fitted on gets coefficient 0.  Every k is solved the same
    way: the live controls scaled to unit variance, the dead ones zero rows
    and columns, and a ridge of the sums' own rounding on the unit
    diagonal, so exactly collinear controls keep their exact fit.  The error
    is one standard error of the adjusted values and never reads below
    their rounding, eps (ceil(log2 S) + 2) (mean|y| + sum_j |beta_j|
    mean|x_j|) over S draws.  A residual spread below the rounding of the
    sums it is formed from is unresolved and reads 0, so controls that
    explain a value completely leave only that floor.
    """
    gram, absolute = sums[..., :sums.shape[-1], :], sums[..., sums.shape[-1]:, 0]
    r = shift.shape[-1]
    d = gram.shape[-1] - 1  # k + r
    k = d - r
    count = gram[..., :1, :1]  # (owners, 2, 1, 1)
    raw = gram[..., 1:, 1:]
    cov = raw - gram[..., 1:, :1] * (gram[..., :1, 1:] / count)  # centred comoments
    draws = count[:, 0] + count[:, 1]  # (owners, 1, 1)
    tol = _EPS * (np.ceil(np.log2(draws)) + 2)  # the rounding of a sum over the draws
    var = cov.diagonal(0, -2, -1)[..., :k]
    live = (var > tol * raw.diagonal(0, -2, -1)[..., :k]) & (count[..., 0] > k + 1)
    scale = np.where(live, var, np.inf)[..., None] ** -0.5  # unit variance; 0 where dead
    a = cov[..., :k, :k] * scale * scale.swapaxes(-1, -2)
    a.reshape(a.shape[:2] + (k * k,))[..., ::k + 1] = 1.0 + tol
    coef = scale * np.linalg.solve(a, scale * cov[..., :k, k:])
    # per half, the adjusted values are v^T (x, y - shift) with v = (-beta, 1)
    # and beta fitted on the other half
    v = np.zeros(cov.shape[:-1] + (r,))
    v[..., :k, :] = -coef[:, ::-1]
    v.reshape(v.shape[:2] + (d * r,))[..., k * r::r + 1] = 1.0
    size = np.abs(v)
    total = (gram[..., :1, 1:] @ v).sum(axis=1)  # (owners, 1, r)
    second = (v * (raw @ v)).sum(axis=(1, 2))[:, None]
    bound = (size * (np.abs(raw) @ size)).sum(axis=(1, 2))[:, None]
    mean = total / draws
    spread = second - total * mean
    spread *= spread > tol * bound  # below the rounding of its terms it is unresolved
    sem = np.sqrt(spread / (draws * (draws - 1)))
    floor = _rounding((absolute[..., None, :] @ size).sum(axis=1) / draws, tol)
    return mean[:, 0] + shift, np.maximum(sem, floor)[:, 0]


def _rounding(size: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The rounding of a mean over S draws of terms of mean absolute size
    `size`, with tol = eps (ceil(log2 S) + 2)."""
    return tol * size


class CrossFitSums:
    """The sums cross_fit reads, accumulated block by block for one estimate
    per owner of r values y with k controls x; an owner's shift is its first
    draw's values.  A block is the first columns of w, one per draw, at most
    `width`: row 0 is 1, and the caller fills rows 1..k+r with x and y
    before add().  An owner's half 0 holds its first ceil(S/2) draws of S
    and half 1 the rest, so each half of a block is a run of consecutive
    columns, summed by one matrix product into a fixed (owners, 2, 2(k + r)
    + 1, k + r + 1) array: memory does not grow with the draws."""

    def __init__(self, draws: list[int], k: int, r: int, width: int):
        d = k + r + 1
        self.w = np.empty((2 * d - 1, min(width, sum(draws))))
        self.w[0] = 1.0
        self.sums = np.zeros((len(draws), 2, 2 * d - 1, d))
        self.shift = np.zeros((len(draws), r))
        self.middle = [(size + 1) // 2 for size in draws]  # first draw of half 1, per owner

    def add(self, owners, lengths, firsts) -> None:
        """Sum the block just filled, whose columns are runs of lengths[i]
        consecutive draws of owners[i], the first of index firsts[i]."""
        d = self.sums.shape[-1]
        w = self.w[:, :sum(lengths)]
        z, y = w[:d], w[d - self.shift.shape[1]:d]
        np.abs(z[1:], out=w[d:])
        lo = 0
        for owner, size, first in zip(owners, lengths, firsts):
            hi = lo + size
            if first == 0:
                self.shift[owner] = y[:, lo]
            y[:, lo:hi] -= self.shift[owner, :, None]
            cut = min(hi, max(lo, lo + self.middle[owner] - first))
            for half, (a, b) in enumerate(((lo, cut), (cut, hi))):
                if a < b:
                    self.sums[owner, half] += w[:, a:b] @ z[:, a:b].T
            lo = hi

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, sems), each (owners, r), by cross_fit."""
        return cross_fit(self.sums, self.shift)


# ---------------------------------------------------------------------------
# Small combinatorics
# ---------------------------------------------------------------------------

def multinomial_table(k: int, log_probs) -> tuple[np.ndarray, np.ndarray]:
    """Every way k iid draws can fill cells with the given log-probabilities.

    Returns (counts, logw): the C(k + cells - 1, k) compositions of k in
    lexicographic order, and the multinomial log-probability of each.  The
    rows for cells i.. are the rows for cells i+1.. with total at most k - h
    (exactly k - h at the first cell), each prefixed by h = 0..k.
    """
    h = np.arange(k + 1)
    cell_logs = h * np.asarray(log_probs, dtype=np.float64)[:, None] - log_factorial(h)
    columns, logw, total = [], np.zeros(1), np.zeros(1, dtype=np.int64)
    for cell in range(len(log_probs) - 1, -1, -1):
        picks = [np.flatnonzero(total == k - x if cell == 0 else total <= k - x) for x in h]
        rows = np.concatenate(picks)
        head = np.repeat(h, [len(p) for p in picks])
        columns = [head] + [col[rows] for col in columns]
        logw = cell_logs[cell, head] + logw[rows]
        total = head + total[rows]
    return np.stack(columns, axis=1), log_factorial(k) + logw


def log_multinomial(counts: Sequence[int]) -> float:
    total = sum(counts)
    return math.lgamma(total + 1) - sum(math.lgamma(c + 1) for c in counts)
