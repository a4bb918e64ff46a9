"""Shared numerical plumbing: Poisson tails, seeded RNG streams, cutoffs,
log-sum-exp.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by an explicit integer seed and runs serially, so results
depend only on the seed.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammainc, gammaln


class BudgetExceededError(RuntimeError):
    """An enumeration or truncation budget would be exceeded."""


def worker_count() -> int:
    """Validated POTTS_AF_THREADS (default 1).

    All work runs on one thread, so the value never affects results; it is
    still validated so that a malformed setting is reported.
    """
    raw = os.environ.get("POTTS_AF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"POTTS_AF_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"POTTS_AF_THREADS must be >= 1, got {n}")
    return n


def philox(seed: int | np.random.SeedSequence) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(ss))


def child_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Pre-split `n` independent child streams from one integer seed."""
    return np.random.SeedSequence(seed).spawn(n)


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

def poisson_pmf_vector(kmax: int, lam: float) -> np.ndarray:
    """pmf values for k = 0..kmax, computed in log space."""
    ks = np.arange(kmax + 1)
    if lam == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    return np.exp(-lam + ks * math.log(lam) - gammaln(ks + 1))


def poisson_sf(k: int, lam: float) -> float:
    """P(K >= k) for K ~ Poisson(lam).  Regularized lower incomplete gamma."""
    if k <= 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    return float(gammainc(k, lam))


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
    cell_logs = h * np.asarray(log_probs, dtype=np.float64)[:, None] - gammaln(h + 1.0)
    columns, logw, total = [], np.zeros(1), np.zeros(1, dtype=np.int64)
    for cell in range(len(log_probs) - 1, -1, -1):
        picks = [np.flatnonzero(total == k - x if cell == 0 else total <= k - x) for x in h]
        rows = np.concatenate(picks)
        head = np.repeat(h, [len(p) for p in picks])
        columns = [head] + [col[rows] for col in columns]
        logw = cell_logs[cell, head] + logw[rows]
        total = head + total[rows]
    return np.stack(columns, axis=1), gammaln(k + 1.0) + logw


def log_multinomial(counts: Sequence[int]) -> float:
    total = sum(counts)
    return math.lgamma(total + 1) - sum(math.lgamma(c + 1) for c in counts)


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w
