"""Shared numerical plumbing: argument rules, Poisson weights and tails,
log-factorials, seeded RNG streams, cutoffs, log-sum-exp.

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
# pressure stratum takes at most 8 x 4 096).  At the cap a cascade bound at
# 2 048 leaves, 5 sites and q = 2 already takes about seven minutes (0.35
# to 0.42 ms a draw on one core of a 2-core Xeon), and near 10^8 draws its
# per-draw arrays alone would outgrow a 1 GiB address space.
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
# Small combinatorics
# ---------------------------------------------------------------------------

def multiset_permutations(counts: Sequence[int]):
    """Yield all arrangements of a multiset given per-symbol counts.

    Symbols are 0..len(counts)-1; arrangements come out in lexicographic
    order, each as a tuple.
    """
    total = sum(counts)
    working = list(counts)
    slot = [0] * total

    def rec(pos: int):
        if pos == total:
            yield tuple(slot)
            return
        for sym, left in enumerate(working):
            if left:
                working[sym] -= 1
                slot[pos] = sym
                yield from rec(pos + 1)
                working[sym] += 1

    yield from rec(0)


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
