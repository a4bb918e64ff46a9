"""Two-level replica-symmetric ansatz: g1, g2, the RS bound, instability.

With x = x(beta, q) and a symmetry-breaking strength t in
[-1/(q-1), 1], the two corrections to the annealed decomposition are

    g2(t) = (c/2q) [ (q-1) ln(1 + x t^2) + ln(1 - (q-1) x t^2) ],

    g1(t) = sum_k pi_c(k) E_tau ln( (1/q) sum_s prod_i (1 - x t (q d(tau_i, s) - 1)) ),

where the tau_i are k iid uniform colors and pi_c is Poisson(c).  The
inner expectation collapses to color counts: with n_s slots of color s the
product is A^{n_s} B^{k - n_s} for A = 1 - (q-1) x t, B = 1 + x t.  That
value does not change when colours are permuted, so the tau average is an
exact sum over colour classes: the sorted count profiles (partitions of k
into at most q parts), each with the summed multinomial probability of its
profiles (551 classes instead of 10 660 profiles at q = 4, k = 38).  The
Poisson k-sum is truncated with a certified tail using
|ln W| <= k max(|ln A|, |ln B|).  The same profile sum at a cascade level
m, (1/m) ln E_tau[W^m], gives the RSB functionals in the cascade module.

profile_sum takes the factors of a whole t grid at once.  Each t keeps its
own truncation order k_max and tail; one pass over the classes of every
k <= k_max serves a block of t, and a block holds at most
PROFILE_BLOCK_CELLS (t, colour, class) cells, so memory does not grow with
the grid.  The class table itself is capped at MAX_CLASS_ROWS rows and at
q <= MAX_CLASS_Q, past which BudgetExceededError is raised before it is
allocated.  scan_rs_bound makes one such call for every t != 0.  The
cascade Monte Carlo draws classes from Walker alias tables built from the
same class weights (_class_alias) and cached beside them.

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
from .util import (BudgetExceededError, log_factorial, logsumexp, poisson_cutoff,
                   poisson_pmf_vector, poisson_sf)

K_SUM_CAP = 2000  # hard cap on the Poisson truncation order
PROFILE_BLOCK_CELLS = 2**15  # cap on t x colour x class cells in one block of the profile sum
MAX_T_POINTS = 100_000  # cap on a scan grid, as on phase-diagram rows
MAX_CLASS_ROWS = 1_000_000  # cap on colour-class rows; 0.84 M rows at q = 5 peak near 260 MB
MAX_CLASS_Q = 170  # largest q whose q! is a finite float


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
    _check_t(t, q)
    x = x_param(beta, q)
    hi = 1.0 + x * t * t
    lo = 1.0 - (q - 1) * x * t * t
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError(f"log argument nonpositive at beta={beta}, q={q}, t={t}")
    return 0.5 * c / q * ((q - 1) * math.log(hi) + math.log(lo))


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
    rows, and q! (in the class weights) finite as a float."""
    return q <= MAX_CLASS_Q and class_rows(k_top, q) <= MAX_CLASS_ROWS


def _largest_per_q(build):
    """Keep only the largest tables built per q and serve smaller k_top as
    prefix views of them.  `build` returns per-row arrays (rows on the last
    axis) and then the run boundaries of k; classes are sorted by k, and a
    row depends only on its own k, so the rows of k <= k_top are a bit-exact
    prefix."""
    held = {}

    def table(k_top: int, q: int):
        if q not in held or held[q][0] < k_top:
            held.pop(q, None)  # free the old table first, so the new one can reuse its memory
            held[q] = (k_top, build(k_top, q))
        *rows, bounds = held[q][1]
        n = bounds[k_top + 1]
        return (*(a[..., :n] for a in rows), bounds[:k_top + 2])

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


@_largest_per_q
def _class_alias(k_top: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables over the colour classes of k uniform slots, k <= k_top.

    Rows follow _class_table(k_top, q).  Take row bounds[k] + j for j
    uniform on the classes of k, keep it with probability accept[row] and
    take alias[row] otherwise: the result is class r with probability
    exp(logw[r]).  Returns (accept, alias, bounds).
    """
    logw, bounds = _class_table(k_top, q)[2:]
    accept, alias = np.ones(len(logw)), np.arange(len(logw))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        _alias_fill(np.exp(logw[lo:hi]), accept[lo:hi], alias[lo:hi], lo)
    return accept, alias, bounds


def degenerate_product_factor(x: float, t: float, q: int) -> ValueError:
    """The error for a g1 product factor that is not positive."""
    return ValueError(f"degenerate product factor at x={x}, t={t}, q={q} (requires beta < inf)")


def factor_logs(beta: float, q: int, t: float) -> tuple[float, float, float]:
    """(ln A, ln B, max |ln|) for the g1 factors A = 1 - (q-1) x t, B = 1 + x t."""
    _check_t(t, q)
    x = x_param(beta, q)
    a = 1.0 - (q - 1) * x * t
    b = 1.0 + x * t
    if a <= 0.0 or b <= 0.0:
        raise degenerate_product_factor(x, t, q)
    return math.log(a), math.log(b), max(abs(math.log(a)), abs(math.log(b)))


def profile_sum(c: float, q: int, log_a, log_b, m: float, mag, eps: float):
    """sum_k pi_c(k) (1/m) ln E_tau[W_k^m] with a certified Poisson tail.

    W_k = (1/q) sum_s A^{n_s} B^{k-n_s} over k iid uniform colors, and m = 0
    stands for the limit E_tau[ln W_k].  `mag` bounds |ln A| and |ln B|, so
    every k-term is at most k mag in size.  Returns (value, tail, k_max):
    tail = mag c P(K >= k_max) bounds the dropped k > k_max terms.

    log_a, log_b and mag may be equal-shape arrays, one entry per t; each
    entry keeps its own k_max and tail, and the results are arrays of that
    shape.  Scalars give scalars.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    shape = np.shape(mag)
    log_a, log_b, mag = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (log_a, log_b, mag))
    value, tail = np.zeros(mag.size), np.zeros(mag.size)
    k_max = np.zeros(mag.size, dtype=np.int64)
    # c = 0 or mag = 0 gives W_k = 1 for every profile that carries weight
    live = np.flatnonzero(mag != 0.0) if c != 0.0 else np.arange(0)
    sf = cache(lambda k: poisson_sf(k, c))  # the t share most of their probes
    for i, size in zip(live, mag[live].tolist()):
        k_tail = lambda k: size * c * sf(k)
        k_max[i] = poisson_cutoff(k_tail, eps, K_SUM_CAP)
        tail[i] = k_tail(int(k_max[i]))
    if live.size:
        top = int(k_max.max())
        pmf = poisson_pmf_vector(top, c)
        all_counts, all_slots, all_logw, bounds = _class_table(top, q)
        block = max(1, PROFILE_BLOCK_CELLS // (q * all_slots.size))
        # blocks of similar k_max, longest sums first
        live = live[np.argsort(-k_max[live], kind="stable")]
        for lo in range(0, live.size, block):
            rows = live[lo:lo + block]
            ends = k_max[rows]
            # classes are sorted by k, so those of k <= ends[0] are a prefix
            starts, n = bounds[:ends[0] + 1], bounds[ends[0] + 1]
            counts, slots, logw = all_counts[:, :n], all_slots[:n], all_logw[:n]
            a, b = log_a[rows, None, None], log_b[rows, None, None]
            # ln W per (t, colour class), then one term per (t, k)
            log_w = logsumexp(counts * a + (slots - counts) * b, axis=1) - math.log(q)
            if m == 0.0:
                terms = np.add.reduceat(np.exp(logw) * log_w, starts, axis=1)
            else:
                y = logw + m * log_w
                peak = np.maximum.reduceat(y, starts, axis=1)
                terms = (np.log(np.add.reduceat(np.exp(y - peak[:, slots]), starts, axis=1))
                         + peak) / m
            # the k-sum in order, stopped at each t's own k_max
            partial = np.cumsum(pmf[:ends[0] + 1] * terms, axis=1)
            value[rows] = partial[np.arange(rows.size), ends]
    if not shape:
        return float(value[0]), float(tail[0]), int(k_max[0])
    return value.reshape(shape), tail.reshape(shape), k_max.reshape(shape)


def g1(beta: float, c: float, q: int, t: float, eps: float = 1e-10) -> tuple[float, float]:
    """Exact-in-tau evaluation of g1 (profile_sum at m = 0) with a certified
    Poisson tail.

    Returns (value, tail) where tail bounds the dropped k > k_max mass.
    """
    log_a, log_b, mag = factor_logs(beta, q, t)
    value, tail, _ = profile_sum(c, q, log_a, log_b, 0.0, mag, eps)
    return value, tail


def _rs_evaluations(beta: float, c: float, q: int, ts, eps: float) -> list[RsEvaluation]:
    """P(beta, c) + g1 - g2 at each t, with one profile sum for every t != 0."""
    pressure = annealed_pressure(beta, c, q)
    out = [RsEvaluation(g1=0.0, g2=0.0, gap=0.0, rs_bound=pressure,
                        k_truncation=0, tail_bound=0.0)] * len(ts)
    moving = [i for i, t in enumerate(ts) if t != 0.0]
    terms = [(*factor_logs(beta, q, float(ts[i])), g2(beta, c, q, float(ts[i]))) for i in moving]
    log_a, log_b, mag, val2 = np.array(terms, dtype=np.float64).reshape(-1, 4).T
    val1, tail, k_max = profile_sum(c, q, log_a, log_b, 0.0, mag, eps)
    for j, i in enumerate(moving):
        gap = float(val1[j] - val2[j])
        out[i] = RsEvaluation(g1=float(val1[j]), g2=float(val2[j]), gap=gap,
                              rs_bound=pressure + gap, k_truncation=int(k_max[j]),
                              tail_bound=float(tail[j]))
    return out


def rs_bound(beta: float, c: float, q: int, t: float, eps: float = 1e-10) -> RsEvaluation:
    """Assemble P(beta, c) + g1 - g2; equals P exactly at t = 0."""
    return _rs_evaluations(beta, c, q, [t], eps)[0]


def instability(beta: float, c: float, q: int) -> bool:
    """True iff c x(beta, q)^2 > 1: the symmetric RS point is locally unstable."""
    if not c >= 0:
        raise ValueError("c must be >= 0")
    return c * x_param(beta, q) ** 2 > 1.0


def t_grid(q: int, points: int = 201) -> np.ndarray:
    """Uniform scan grid of at most MAX_T_POINTS points on the ansatz domain
    [-1/(q-1), 1]."""
    if q < 2 or points < 1:
        raise ValueError(f"need q >= 2 and at least one t point, got q={q}, points={points}")
    if points > MAX_T_POINTS:
        raise BudgetExceededError(f"t grid of {points} points exceeds {MAX_T_POINTS}")
    return np.linspace(-1.0 / (q - 1), 1.0, points)


def scan_rs_bound(beta: float, c: float, q: int, points: int = 201,
                  eps: float = 1e-10) -> tuple[np.ndarray, list[RsEvaluation]]:
    """rs_bound at every point of t_grid(q, points)."""
    ts = t_grid(q, points)
    return ts, _rs_evaluations(beta, c, q, ts, eps)


def quartic_coefficients(beta: float, c: float, q: int, h: float = 0.05,
                         eps: float = 1e-12) -> tuple[float, float, float, float]:
    """Extract the t^4 coefficients of g1 and g2 and their reference values.

    Even five-point stencil: with gh = (g(h) + g(-h))/2, the combination
    (gh(2h) - 4 gh(h)) / (12 h^4) kills the t^2 term and leaves the quartic
    coefficient with an O(h^2) error; one Richardson level in h removes
    that.  References are the closed forms -(1/4)(q-1) c^2 x^4 and
    -(1/4)(q-1) c x^2.
    """
    if eps > 1e-10:
        raise ValueError("quartic extraction requires g1 eps <= 1e-10")
    x = x_param(beta, q)
    ref1 = -0.25 * (q - 1) * c * c * x**4
    ref2 = -0.25 * (q - 1) * c * x**2
    if x == 0.0 or c == 0.0:
        return 0.0, 0.0, 0.0, 0.0

    # one profile sum over the six t the stencils use: +-h/2, +-h, +-2h
    ts = [s * f * h for f in (0.5, 1.0, 2.0) for s in (1.0, -1.0)]
    log_a, log_b, mag = np.array([factor_logs(beta, q, t) for t in ts]).T
    g1_at = dict(zip(ts, profile_sum(c, q, log_a, log_b, 0.0, mag, eps)[0].tolist()))

    def even_g1(tt: float) -> float:
        return 0.5 * (g1_at[tt] + g1_at[-tt])

    def even_g2(tt: float) -> float:
        return 0.5 * (g2(beta, c, q, tt) + g2(beta, c, q, -tt))

    def quartic(even_fn) -> float:
        def stencil(hh: float) -> float:
            return (even_fn(2 * hh) - 4.0 * even_fn(hh)) / (12.0 * hh**4)

        return (4.0 * stencil(h / 2) - stencil(h)) / 3.0

    return quartic(even_g1), quartic(even_g2), ref1, ref2
