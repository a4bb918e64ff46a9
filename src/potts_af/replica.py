"""Two-level replica-symmetric ansatz: g1, g2, the RS bound, instability.

With x = x(beta, q) and a symmetry-breaking strength t in
[-1/(q-1), 1], the two corrections to the annealed decomposition are

    g2(t) = (c/2q) [ (q-1) ln(1 + x t^2) + ln(1 - (q-1) x t^2) ],

    g1(t) = sum_k pi_c(k) E_tau ln( (1/q) sum_s prod_i (1 - x t (q d(tau_i, s) - 1)) ),

where the tau_i are k iid uniform colors and pi_c is Poisson(c).  The
inner expectation collapses to color counts: with n_s slots of color s the
product is A^{n_s} B^{k - n_s} for A = 1 - (q-1) x t, B = 1 + x t, whose
logs factor_logs computes without cancellation, for one t or a grid.  That
value does not change when colours are permuted, so the tau average is an
exact sum over colour classes: the sorted count profiles (partitions of k
into at most q parts), each with the summed multinomial probability of its
profiles (551 classes instead of 10 660 profiles at q = 4, k = 38).  The
Poisson k-sum is truncated with a certified tail using
|ln W| <= k max(|ln A|, |ln B|).  The same profile sum at a cascade level
m, (1/m) ln E_tau[W^m], gives the RSB functionals in the cascade module.

profile_sum takes the factors of a whole t grid at once.  With
d = ln A - ln B and n_ref the largest count of a class when d >= 0, its
smallest when d < 0,

    ln W = k ln B + n_ref d + spread_p,
    spread_p = ln(1 + sum_{s != ref} e^{(n_s - n_ref) d}) - ln q,

where no exponent is positive.  spread_p depends on the class only through
its gap pattern p, the counts less their smallest (_gap_table: 1 981
patterns for 6 166 classes at q = 4, k <= 38).  Each t keeps its own
truncation order k_max and tail, read from one run of Poisson tails
between the orders of the smallest and the largest |ln|.

At m = 0 the k-term E_tau[ln W_k] is linear in ln W, so with w_c the class
weights the sum is

    sum_{k <= k_max} pi(k) E_tau[ln W_k] = ln B sum_{k <= k_max} pi(k) k
        + d sum_{c: k <= k_max} pi(k) w_c n_ref + sum_p mass_p spread_p,

    mass_p = sum_{k <= k_max} pi(k) sum_{classes c of k with pattern p} w_c,

one bincount of the classes by pattern per distinct k_max; a t costs
(q - 1) exponentials and one log1p per pattern.  A class of pattern p and
smallest count j has k = k_p + q j and n_max = g_p + j (k_p, g_p those of
the pattern's class of smallest count 0), so the n_ref sum also comes from
the masses, with sum pi(k) k = c P(K < k_max).  At m > 0 the log of the
k-term sits outside E_tau[W^m], so spread_p is gathered to the classes, and
one pass over the classes of every k <= k_max serves a block of t.  A block
holds at most PROFILE_BLOCK_CELLS (gap, t, pattern) or (t, class) cells,
so memory does not grow with the grid.  The class table itself is capped
at MAX_CLASS_ROWS rows and at q <= MAX_CLASS_Q, past which
BudgetExceededError is raised before it is allocated.  scan_rs_bound makes
one such call for its whole grid, t = 0 included, with the tail target
PROFILE_EPS, read at call time.

Both corrections vanish at t = 0; their t^4 coefficients are
-(1/4)(q-1) c^2 x^4 and -(1/4)(q-1) c x^2, so the symmetric point goes
locally unstable exactly when c x^2 > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, update_wrapper

import numpy as np

from .bounds import annealed_pressure, x_param
from .util import (BudgetExceededError, check_beta, check_c, check_int, check_q, check_state,
                   check_tol, log_factorial, poisson_cutoff, poisson_pmf_vector, poisson_sf)

K_SUM_CAP = 2000  # hard cap on the Poisson truncation order
PROFILE_BLOCK_CELLS = 2**14  # cap on the (t, class) or (gap, t, pattern) cells of a profile block
MAX_T_POINTS = 100_000  # cap on a scan grid, as on phase-diagram rows
MAX_CLASS_ROWS = 1_000_000  # cap on colour-class rows; 0.84 M rows at q = 5 peak near 260 MB
MAX_CLASS_Q = 170  # largest q whose q! is a finite float
DEGENERATE_PAIR_FACTOR = "degenerate pair factor; requires beta < inf or |t| < 1"
PROFILE_EPS = 1e-10  # certified Poisson tail of g1, the RS scans and the cascade closed forms
QUARTIC_EPS = 1e-12  # the same for quartic_coefficients, whose stencil divides by h^4


@dataclass(frozen=True)
class RsEvaluation:
    """One evaluation of the RS bound at fixed (beta, c, q, t)."""

    g1: float
    g2: float
    gap: float
    rs_bound: float
    k_truncation: int
    tail_bound: float


def _check_t(t: float, q: int) -> None:
    if not (-1.0 / (q - 1) <= t <= 1.0):
        raise ValueError(f"t = {t} outside ansatz domain [-1/(q-1), 1] for q = {q}")


def g2(beta: float, c: float, q: int, t: float) -> float:
    check_c(c)
    return pair_sum(c, q, *pair_logs(beta, q, t), 0.0)


def class_rows(k_top: int, q: int) -> float:
    """Rows of _class_table(k_top, q), counted without building it: the
    partitions of each k <= k_top into at most q parts, which are those into
    parts no larger than q.  Allowing parts of size j turns the count of k
    into a running sum over k, k - j, k - 2j, ..., one column of a reshape."""
    p = np.ones(k_top + 1)
    for j in range(2, min(q, k_top) + 1):
        grid = np.zeros(-(-(k_top + 1) // j) * j)
        grid[:k_top + 1] = p
        p = np.cumsum(grid.reshape(-1, j), axis=0).reshape(-1)[:k_top + 1]
    return float(p.sum())


def class_table_fits(k_top: int, q: int) -> bool:
    """Whether _class_table(k_top, q) can be built: at most MAX_CLASS_ROWS
    rows, and q! (in the class weights) finite as a float.  Every k <= k_top
    has a class, so a k_top past MAX_CLASS_ROWS fails before class_rows
    allocates its k_top + 1 counts."""
    return q <= MAX_CLASS_Q and k_top < MAX_CLASS_ROWS and class_rows(k_top, q) <= MAX_CLASS_ROWS


def _prefix(table: tuple, k_top: int) -> tuple:
    """Per-row arrays and run boundaries of k, cut to the rows of k <= k_top."""
    *rows, bounds = table
    n, total = bounds[k_top + 1], bounds[-1]
    return (*(a[..., :n * (a.shape[-1] // total)] for a in rows), bounds[:k_top + 2])


def _largest_per_q(build):
    """Keep only the largest tables built per q and serve smaller k_top as
    prefix views of them, made once per k_top and dropped with the table
    they view.  `build` returns per-row arrays (rows on the last
    axis, each row's entries side by side when it has several) and then the
    run boundaries of k, or a tuple of such groups, one per kind of row;
    rows are sorted by k, and a row depends only on its own k, so the rows
    of k <= k_top are a bit-exact prefix.  The tables are shared, so they
    are made read-only once built, and their views inherit it."""
    held = {}

    def table(k_top: int, q: int):
        if q not in held or held[q][0] < k_top:
            held.pop(q, None)  # free the old table first, so the new one can reuse its memory
            built = build(k_top, q)
            for group in built if isinstance(built[0], tuple) else (built,):
                for array in group:
                    array.flags.writeable = False
            held[q] = (k_top, built, {})
        _, built, served = held[q]
        if k_top not in served:  # the prefix views go with the table they view
            served[k_top] = (tuple(_prefix(group, k_top) for group in built)
                             if isinstance(built[0], tuple) else _prefix(built, k_top))
        return served[k_top]

    return update_wrapper(table, build)


@_largest_per_q
def _class_table(k_top: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Colour classes of k uniform slots for every k <= k_top.

    A class is a partition of k into at most q parts, stored as a
    non-increasing count profile.  Returns (counts, slots, logw, bounds):
    counts with the colour axis first (so sums over colours run along
    contiguous rows), the k of each class, the log of the summed multinomial
    probability of the class's profiles, and the run boundaries of the
    classes sorted by k (those of k are bounds[k]:bounds[k + 1]).
    """
    if q > MAX_CLASS_Q:
        raise BudgetExceededError(f"colour-class weights need q! as a float; q = {q} exceeds "
                                  f"{MAX_CLASS_Q}")
    if class_rows(k_top, q) > MAX_CLASS_ROWS:
        raise BudgetExceededError(f"colour classes of k <= {k_top} at q = {q} exceed "
                                  f"{MAX_CLASS_ROWS} rows")
    head, total, low = np.zeros((1, 0), np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for cell in range(q - 1, -1, -1):
        # cells 0..cell each hold at least x, so (cell + 1) x <= k_top - total
        span = (k_top - total) // (cell + 1) - low + 1
        src = np.repeat(np.arange(len(total)), span)
        x = low[src] + np.arange(len(src)) - np.repeat(np.cumsum(span) - span, span)
        head, total, low = np.column_stack([x, head[src]]), total[src] + x, x
    order = np.argsort(total, kind="stable")
    counts, slots = head[order], total[order]
    # a class holds q! / prod(multiplicity!) profiles; run[:, s] is the
    # position of colour s within its run of equal counts
    run = np.ones(counts.shape)
    for s in range(1, q):
        run[:, s] = np.where(counts[:, s] == counts[:, s - 1], run[:, s - 1] + 1.0, 1.0)
    logw = (log_factorial(slots) - log_factorial(counts).sum(axis=1) - slots * math.log(q)
            + np.log(float(math.factorial(q)) / run.prod(axis=1)))
    bounds = np.searchsorted(slots, np.arange(k_top + 2))
    return np.ascontiguousarray(counts.T), slots, logw, bounds


@_largest_per_q
def _gap_table(k_top: int, q: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                                             tuple[np.ndarray, np.ndarray]]:
    """Gap patterns of the colour classes of k <= k_top.

    The gap pattern of a class is its count profile less its smallest count.
    Patterns are numbered in order of first appearance in _class_table,
    which is at their class of smallest count 0, so those of k <= k_top are
    a prefix.  Returns ((pattern, ref, bounds), (gaps, pattern_bounds)):
    per class of _class_table its pattern and ref = (n_max, n_min) as
    floats, with its bounds; per pattern gaps[:, 0] = n_max - n_s for the
    colours s after the largest and gaps[:, 1] = n_s - n_min for those
    before the smallest, shape (q - 1, 2, patterns), with pattern_bounds the
    runs of the patterns first seen at each k.
    """
    counts, slots, _, bounds = _class_table(k_top, q)
    least = counts[-1]
    # Within a k, _class_table orders classes by their counts read from the
    # smallest up, so the classes of smallest count j run in the order of the
    # patterns of k - q j: a class's pattern is its place in its run plus
    # the patterns first seen below k - q j.
    first = np.flatnonzero(least == 0)
    pattern_bounds = np.searchsorted(slots[first], np.arange(k_top + 2))
    row = np.arange(slots.size)
    new_run = (np.diff(slots, prepend=-1) != 0) | (np.diff(least, prepend=-1) != 0)
    start = np.maximum.accumulate(np.where(new_run, row, 0))
    pattern = pattern_bounds[slots - q * least] + (row - start)
    rep = np.ascontiguousarray(counts[:, first], dtype=np.float64)  # runs along the patterns
    gaps = np.stack([rep[0] - rep[1:], rep[:-1]], axis=1)
    return (pattern, counts[[0, -1]].astype(np.float64), bounds), (gaps, pattern_bounds)


def _alias_fill(p: np.ndarray, accept: np.ndarray, alias: np.ndarray, base: int) -> None:
    """Walker alias table of the probabilities p, written into accept and
    alias (global rows, offset by base), which start as 1 and the row itself.

    Scaled to mean 1, light rows (w < 1) keep w and lend 1 - w to a heavy
    one.  The lights' deficits and the heavies' excesses w - 1 are laid end
    to end on one line each: a light takes as alias the heavy whose excess
    holds the start of its deficit, and heavy h keeps 1 minus the overhang
    of the light that straddles the end of its excess, lending the rest to
    heavy h + 1.  This is Vose's construction with the lights taken in order,
    found by two searches instead of a loop.
    """
    w = p * (len(p) / p.sum())
    light, heavy = np.flatnonzero(w < 1.0), np.flatnonzero(w >= 1.0)
    if not light.size or not heavy.size:
        return  # every w is 1 up to rounding
    ends = np.cumsum(1.0 - w[light])
    tops = np.cumsum(w[heavy] - 1.0)
    starts = np.concatenate(([0.0], ends[:-1]))
    accept[light] = w[light]
    alias[light] = base + heavy[np.minimum(np.searchsorted(tops, starts, side="right"),
                                           heavy.size - 1)]
    straddle = np.minimum(np.searchsorted(ends, tops[:-1]), light.size - 1)
    accept[heavy[:-1]] = 1.0 - np.clip(ends[straddle] - tops[:-1], 0.0, 1.0)
    alias[heavy[:-1]] = base + heavy[1:]


def _alias_tables(logw: np.ndarray,
                  bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accept, alias, bounds): one Walker alias table per run
    bounds[k]:bounds[k + 1] of the log probabilities logw."""
    accept, alias = np.ones(len(logw)), np.arange(len(logw))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        _alias_fill(np.exp(logw[lo:hi]), accept[lo:hi], alias[lo:hi], lo)
    return accept, alias, bounds


def _alias_picks(alias: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The values an alias table draws, two per row side by side: pick[2r]
    is the value of alias[r] and pick[2r + 1] that of row r itself, so a
    draw that keeps row r reads pick[2r + 1] and one that takes its alias
    pick[2r]."""
    return np.column_stack([values[alias], values]).reshape(-1)


@_largest_per_q
def _class_alias(k_top: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables over the colour classes of k uniform slots, k <= k_top.

    Rows follow _class_table(k_top, q).  Take row bounds[k] + j for j
    uniform on the classes of k, keep it with probability accept[row] and
    take alias[row] otherwise: the result is class r with probability
    exp(logw[r]).  Returns (accept, alias, bounds).
    """
    return _alias_tables(*_class_table(k_top, q)[2:])


def binomial_table_fits(k_top: int) -> bool:
    """Whether _binomial_alias(k_top, q) can be built: its (k_top + 1)(k_top + 2)/2
    rows are at most MAX_CLASS_ROWS."""
    return (k_top + 1) * (k_top + 2) // 2 <= MAX_CLASS_ROWS


@_largest_per_q
def _binomial_alias(k_top: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables of Binomial(k, 1/q) for every k <= k_top, laid out like
    _class_alias: j successes of k sit at row bounds[k] + j, with
    bounds[k] = k(k + 1)/2; callers check binomial_table_fits first.  Returns
    (accept, pick, bounds), with pick the success counts j of each row's
    alias and of the row itself (_alias_picks), as floats like the class
    tables' ln S.  An alias stays inside its own run of k, so the prefix of
    k <= k_top carries its own picks."""
    ks = np.arange(k_top + 2)
    bounds = ks * (ks + 1) // 2
    k = np.repeat(ks[:-1], ks[1:])
    j = np.arange(bounds[-1]) - bounds[k]
    logw = (log_factorial(k) - log_factorial(j) - log_factorial(k - j)
            - j * math.log(q) + (k - j) * math.log1p(-1.0 / q))
    accept, alias, _ = _alias_tables(logw, bounds)
    return accept, _alias_picks(alias, j.astype(np.float64)), bounds


def _leaf_logs(beta: float, q: int, t, pair: bool):
    """(ln A, ln B) of A = 1 - (q-1) x s, B = 1 + x s at s = t, or s = t^2 for
    the pair factors, for a float t or an array.  With u = e^-beta and r =
    1 - s (for pairs (1 - t)(1 + t)), (q-1+u) A = (q-1) r + u (1 + (q-1) s)
    and (q-1+u) B = q-1+s + u r are sums of terms >= 0, zero only at beta =
    inf.  A factor >= 1/2 takes log1p of its distance from 1, -(q-1) x s or
    x s, which keeps small logs, and those at t = 0 or beta = 0 exactly 0."""
    check_q(q)
    check_beta(beta)
    array = isinstance(t, np.ndarray)
    u = math.exp(-beta)
    s, r = (t * t, (1.0 - t) * (1.0 + t)) if pair else (t, 1.0 - t)
    den = q - 1 + u
    xs = -math.expm1(-beta) / den * s
    a = ((q - 1) * r + u * (1.0 + (q - 1) * s)) / den
    b = (q - 1 + s + u * r) / den
    ok = (-1.0 / (q - 1) <= t) & (t <= 1.0) & (a > 0.0) & (b > 0.0)
    if not (ok.all() if array else ok):  # before any log, so beta = inf never takes log 0
        if array:
            _leaf_logs(beta, q, t[~ok][0].item(), pair)  # raises the first bad t's error
        _check_t(t, q)
        raise ValueError(DEGENERATE_PAIR_FACTOR if pair else f"degenerate product factor at "
                         f"x={x_param(beta, q)}, t={t}, q={q} (requires beta < inf)")
    if not array:  # numpy's logs, so that a float gives the bits of an array entry
        return (float(np.log1p(-(q - 1) * xs) if a >= 0.5 else np.log(a)),
                float(np.log1p(xs) if b >= 0.5 else np.log(b)))
    log_a, log_b = np.log(a), np.log(b)
    np.log1p(-(q - 1) * xs, out=log_a, where=a >= 0.5)
    np.log1p(xs, out=log_b, where=b >= 0.5)
    return log_a, log_b


def factor_logs(beta: float, q: int, t) -> tuple:
    """(ln A, ln B) for the g1 factors A = 1 - (q-1) x t, B = 1 + x t."""
    return _leaf_logs(beta, q, t, False)


def pair_logs(beta: float, q: int, t) -> tuple:
    """(ln lo, ln hi) for the g2 pair factors lo = 1 - (q-1) x t^2, taken by
    a matching pair, and hi = 1 + x t^2."""
    return _leaf_logs(beta, q, t, True)


def pair_sum(c: float, q: int, log_match, log_other, m: float):
    """(c/2m) ln E[V^m] for the pair factor V = e^log_match with probability
    1/q (a matching pair) and e^log_other otherwise, log_match <= log_other.

    m = 0 stands for the limit (c/2) E[ln V]; at log_match = -inf (beta =
    inf) it is 0 for c = 0 and diverges otherwise.  The logs may be floats
    or equal-shape arrays; both paths use numpy's expm1 and log1p, so a
    float gives the bits of an array entry, as in factor_logs.
    """
    if m == 0.0:
        if c == 0.0:
            return 0.0 * log_other  # 0, or zeros of the logs' shape; log_other is finite
        if np.min(log_match) == -math.inf:
            raise BudgetExceededError("the m -> 0 limit of G2 diverges at beta = inf")
        return 0.5 * c / q * ((q - 1) * log_other + log_match)
    # E[V^m] = e^(m log_other) (1 + (e^(m (log_match - log_other)) - 1) / q)
    value = 0.5 * c * (log_other + np.log1p(np.expm1(m * (log_match - log_other)) / q) / m)
    return value if isinstance(value, np.ndarray) else float(value)


def _class_sum(q: int, m: float, pmf: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """sum_{k <= ends} pi(k) (1/m) ln E_tau[W_k^m] per t at m > 0, ends
    ascending, over the (t, colour class) cells in blocks of at most
    PROFILE_BLOCK_CELLS."""
    top = int(ends[-1])
    _, all_slots, all_logw, bounds = _class_table(top, q)
    (all_pattern, all_ref, _), (all_gaps, pattern_bounds) = _gap_table(top, q)
    value = np.empty(ends.size)
    block = max(1, PROFILE_BLOCK_CELLS // all_slots.size)
    for hi in range(ends.size, 0, -block):  # blocks of similar k_max, longest sums first
        rows = slice(max(0, hi - block), hi)
        # classes and patterns are sorted by k, so those of k <= k_top are prefixes
        k_top = ends[hi - 1]
        starts, n = bounds[:k_top + 1], bounds[k_top + 1]
        slots, logw, pattern = all_slots[:n], all_logw[:n], all_pattern[:n]
        d = log_a[rows] - log_b[rows]
        side = (d < 0.0).astype(np.intp)  # 0: n_ref is the largest count, 1: the smallest
        # ln(1 + sum_{s != ref} e^{(n_s - n_ref) d}) - ln q per (t, gap pattern);
        # np.take keeps the gathers C-ordered, and the work arrays are
        # reused in place, since fresh pages for each cost more than the sums
        gaps = np.take(all_gaps[:, :, :pattern_bounds[k_top + 1]], side, axis=1)
        gaps *= -np.abs(d)[:, None]
        spread = np.exp(gaps, out=gaps).sum(axis=0)
        spread = np.log1p(spread, out=spread) - math.log(q)
        # m ln W plus the log weight per (t, colour class), then one term per (t, k)
        log_w = np.take(spread, pattern, axis=1)
        part = all_ref[side, :n]
        log_w += np.multiply(part, d[:, None], out=part)
        log_w += np.multiply(slots, log_b[rows, None], out=part)
        log_w *= m
        log_w += logw
        peak = np.maximum.reduceat(log_w, starts, axis=1)
        part = np.exp(np.subtract(log_w, np.take(peak, slots, axis=1), out=part), out=part)
        terms = (np.log(np.add.reduceat(part, starts, axis=1)) + peak) / m
        # the k-sum in order, stopped at each t's own k_max
        partial = np.cumsum(pmf[:k_top + 1] * terms, axis=1)
        value[rows] = partial[np.arange(terms.shape[0]), ends[rows]]
        del gaps, spread, log_w, part  # free them before the next block takes its own
    return value


def _pattern_sum(q: int, c: float, pmf: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
    """sum_{k <= ends} pi(k) E_tau[ln W_k] per t, ends ascending, over the
    gap patterns (module docstring).

    A class of pattern p and smallest count j has k = k_p + q j slots and
    n_max = g_p + j, with k_p and g_p those of the pattern's class of
    smallest count 0.  So the Poisson-summed n_min of the classes is
    (sum pi(k) k - sum_p k_p mass_p) / q, their n_max adds sum_p g_p mass_p,
    and sum_{k <= k_max} pi(k) k = c P(K < k_max).  Each k_max's masses are
    one bincount over all the classes up to it, in class order, so a t gets
    the same bits alone as in a batch; adding only the classes between one
    k_max and the next would regroup the sums."""
    ks = ends.tolist()
    _, slots, logw, _ = _class_table(ks[-1], q)
    (pattern, _, bounds), (gaps, pattern_bounds) = _gap_table(ks[-1], q)
    d = log_a - log_b
    side = (d < 0.0).astype(np.intp)  # 0: n_ref is the largest count, 1: the smallest
    scale = -np.abs(d)
    weight = np.exp(logw)
    weight *= pmf[slots]  # pi(k) w per class
    probs = pmf.tolist()
    value, terms = np.empty(len(ks)), np.empty((3, len(ks)))
    cuts = [j for j in range(1, len(ks)) if ks[j] != ks[j - 1]]
    for lo, hi in zip([0, *cuts], [*cuts, len(ks)]):  # the runs of t with equal k_max
        k = ks[lo]
        n, p = bounds[k + 1], pattern_bounds[k + 1]
        mass = np.bincount(pattern[:n], weight[:n], minlength=p)
        # sum_p n_s mass_p per colour s but the smallest, over the patterns' classes
        per_colour = (gaps[:, 1, :p] * mass).sum(axis=1).tolist()
        slot_mass = c * math.fsum(probs[:k])  # sum_{k' <= k} pi(k') k'
        terms[:, lo:hi] = np.array([[slot_mass], [(slot_mass - sum(per_colour)) / q],
                                    [per_colour[0]]])
        # spread_p per (t, gap pattern), dotted with the masses, in blocks of
        # at most PROFILE_BLOCK_CELLS (gap, t, pattern) cells
        block = max(1, PROFILE_BLOCK_CELLS // ((q - 1) * p))
        for b in range(lo, hi, block):
            rows = slice(b, min(b + block, hi))
            spread = np.take(gaps[:, :, :p], side[rows], axis=1)
            spread *= scale[rows, None]
            spread = np.exp(spread, out=spread).sum(axis=0)
            spread = np.log1p(spread, out=spread)
            spread -= math.log(q)
            value[rows] = np.multiply(spread, mass, out=spread).sum(axis=1)
    slot_mass, least, max_mass = terms
    value += log_b * slot_mass + d * least + np.maximum(d, 0.0) * max_mass
    return value


def profile_sum(c: float, q: int, log_a, log_b, m: float, eps: float):
    """sum_k pi_c(k) (1/m) ln E_tau[W_k^m] with a certified Poisson tail.

    W_k = (1/q) sum_s A^{n_s} B^{k-n_s} over k iid uniform colors, and m = 0
    stands for the limit E_tau[ln W_k].  With mag = max(|ln A|, |ln B|),
    every k-term is at most k mag in size.  Returns (value, tail, k_max):
    tail = mag c P(K >= k_max) bounds the dropped k > k_max terms.

    log_a and log_b may be equal-shape arrays, one entry per t; each entry
    keeps its own k_max and tail, and the results are arrays of that shape.
    Scalars give scalars.  E_tau[ln W_k] is linear in ln W, so at m = 0 the
    sum reduces over gap patterns with Poisson-summed pattern weights
    (_pattern_sum); at m > 0 it runs over the colour classes (_class_sum).
    """
    check_tol("eps", eps)
    shape = np.shape(log_a)
    log_a, log_b = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (log_a, log_b))
    mag = np.maximum(np.abs(log_a), np.abs(log_b))
    value, tail = np.zeros(mag.size), np.zeros(mag.size)
    k_max = np.zeros(mag.size, dtype=np.int64)
    # c = 0 or mag = 0 gives W_k = 1 for every profile that carries weight
    live = np.flatnonzero(mag != 0.0) if c != 0.0 else np.arange(0)
    if live.size:
        # every t's bound size c P(K >= k) meets eps between the orders of
        # the smallest and the largest size; one run of tails serves them all
        sizes = mag[live]
        sf = cache(lambda k: poisson_sf(k, c))  # the two searches share most probes

        def cutoff(size: float) -> int:
            return poisson_cutoff(lambda k: size * c * sf(k), eps, K_SUM_CAP)

        small, large = sizes.min().item(), sizes.max().item()  # a NaN size stays, and fails its search
        k_hi = cutoff(large)
        k_lo = k_hi if small == large else cutoff(small)
        scaled = sizes * c
        for k in range(k_hi, k_lo - 1, -1):  # ends at each t's first k that meets eps
            bound = scaled * sf(k)
            met = bound <= eps
            k_max[live[met]], tail[live[met]] = k, bound[met]

        pmf = poisson_pmf_vector(int(k_max.max()), c)
        live = live[np.argsort(k_max[live], kind="stable")]
        ends = k_max[live]
        value[live] = (_pattern_sum(q, c, pmf, log_a[live], log_b[live], ends) if m == 0.0
                       else _class_sum(q, m, pmf, log_a[live], log_b[live], ends))
    if not shape:
        return float(value[0]), float(tail[0]), int(k_max[0])
    return value.reshape(shape), tail.reshape(shape), k_max.reshape(shape)


def g1(beta: float, c: float, q: int, t: float) -> tuple[float, float]:
    """(value, tail): g1 exact in tau (profile_sum at m = 0), and the bound
    on its dropped k > k_max mass, at most PROFILE_EPS."""
    check_c(c)
    value, tail, _ = profile_sum(c, q, *factor_logs(beta, q, t), 0.0, PROFILE_EPS)
    return value, tail


def _rs_evaluations(beta: float, c: float, q: int, ts, eps: float) -> list[RsEvaluation]:
    """P(beta, c) + g1 - g2 at each t of the array ts, from one profile sum."""
    pressure = annealed_pressure(beta, c, q)
    val1, tail, k_max = profile_sum(c, q, *factor_logs(beta, q, ts), 0.0, eps)
    val2 = pair_sum(c, q, *pair_logs(beta, q, ts), 0.0)
    gap = val1 - val2
    return list(map(RsEvaluation, val1.tolist(), val2.tolist(), gap.tolist(),
                    (pressure + gap).tolist(), k_max.tolist(), tail.tolist()))


def rs_bound(beta: float, c: float, q: int, t: float) -> RsEvaluation:
    """Assemble P(beta, c) + g1 - g2; equals P exactly at t = 0."""
    return _rs_evaluations(beta, c, q, np.array([t], dtype=np.float64), PROFILE_EPS)[0]


def instability(beta: float, c: float, q: int) -> bool:
    """True iff c x(beta, q)^2 > 1: the symmetric RS point is locally unstable."""
    check_c(c)
    return c * x_param(beta, q) ** 2 > 1.0


def t_grid(q: int, points: int = 201) -> np.ndarray:
    """Uniform scan grid of at most MAX_T_POINTS points on the ansatz domain
    [-1/(q-1), 1]."""
    check_q(q)
    check_int("points", points)
    if points > MAX_T_POINTS:
        raise BudgetExceededError(f"t grid of {points} points exceeds {MAX_T_POINTS}")
    return np.linspace(-1.0 / (q - 1), 1.0, points)


def scan_rs_bound(beta: float, c: float, q: int,
                  points: int = 201) -> tuple[np.ndarray, list[RsEvaluation]]:
    """rs_bound at every point of t_grid(q, points)."""
    ts = t_grid(q, points)
    return ts, _rs_evaluations(beta, c, q, ts, PROFILE_EPS)


def quartic_coefficients(beta: float, c: float, q: int,
                         h: float = 0.05) -> tuple[float, float, float, float]:
    """Extract the t^4 coefficients of g1 and g2 and their reference values.

    Even five-point stencil: with gh = (g(h) + g(-h))/2, the combination
    (gh(2h) - 4 gh(h)) / (12 h^4) kills the t^2 term and leaves the quartic
    coefficient with an O(h^2) error; one Richardson level in h removes
    that.  h lies in (0, 1/(2(q-1))], so that +-2h stays in the t domain.
    g1's tails are cut at QUARTIC_EPS.  References are the closed forms
    -(1/4)(q-1) c^2 x^4 and -(1/4)(q-1) c x^2.
    """
    check_state(beta, c, q)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    if h > 0.5 / (q - 1):  # past it, -2h or +2h leaves the t domain [-1/(q-1), 1]
        raise ValueError(f"h must be <= 1/(2(q-1)) = {0.5 / (q - 1)} at q = {q}, got {h}")
    x = x_param(beta, q)
    ref1 = -0.25 * (q - 1) * c * c * x**4
    ref2 = -0.25 * (q - 1) * c * x**2
    if x == 0.0 or c == 0.0:
        return 0.0, 0.0, 0.0, 0.0

    # one profile sum over the six t the stencils use: +-h/2, +-h, +-2h
    at = _rs_evaluations(beta, c, q, h * np.array([0.5, -0.5, 1, -1, 2, -2]), QUARTIC_EPS)

    def quartic(g: list[float]) -> float:
        half, one, two = (0.5 * (g[i] + g[i + 1]) for i in (0, 2, 4))  # even parts
        fine, coarse = ((hi - 4.0 * lo) / (12.0 * hh**4) for lo, hi, hh in
                        ((half, one, h / 2), (one, two, h)))
        return (4.0 * fine - coarse) / 3.0

    return quartic([ev.g1 for ev in at]), quartic([ev.g2 for ev in at]), ref1, ref2
