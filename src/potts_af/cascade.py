"""Poisson-Dirichlet cascades and the cavity-field upper bounds.

Atoms of the point process with intensity m x^(-m-1) dx are generated as
inverse arrival times: xi_k = Gamma_k^(-1/m) with Gamma_k the cumulative
sums of unit exponentials.  The multiplier stability property — resorting
{X_k xi_k} has the law of {c xi_k} with c = E[X^m]^(1/m) — is what makes
cavity functionals over cascade trial states computable level by level:
each level integrates out through a fractional moment of order m_level,
the m -> 0 outer limit (a first level 0) turns into a plain average of
the log, and the m -> 1 inner limit (a last level 1) into a plain
conditional expectation.

Hierarchies supported on the spin side (finitely supported measures on
measures): the uniform hierarchy, and the symmetric one-color family
mu_{s,t}(r) = t d(r,s) + (1-t)/q with the color s refreshed per branch
slot.  One rule gives every closed form: by multiplier stability, leaf
factors X iid across the atom leaves integrate out at the innermost atom
level m alone, E ln sum_a w_a X_a - E ln sum_a w_a = (1/m) ln E[X^m].
That is m = levels[-2] for integrated leaves (a last level 1; annealed at
depth 1) and m = levels[-1] for uniform sampled leaves (_closed_level).
G2 is one replica.pair_sum and G1 one replica.profile_sum of the factors
of _leaf_factors, which the Monte Carlo engine draws too.  Symmetric-t
sampled leaves share their atom's pattern: no closed form, Monte Carlo only.

The Monte Carlo engine evaluates a batch of cascades per set of array
operations, in one coupled pass behind every estimate: it runs G1 and G2
on one stream over the same cascade weights, and thins G2's pair count
from G1's slots: K ~ Binomial(sum_i k_i, 1/2) with k_i ~ Poisson(c) has
G2's Poisson(cn/2) law.  Each term keeps its law, and G1 - G2 varies
less than with independent draws.  cavity_g1 and cavity_g2 by Monte Carlo
return that pass's G1 and G2, equal to those of cavity_terms.

Every Monte Carlo estimate subtracts control variates: per-draw columns,
built from values the pass already holds, whose means are known to be
exactly 0.  They are each term's count minus its Poisson mean (sum_i k_i
- cn for G1, K - cn/2 for G2) and, on trees with more than one leaf, each
term's cascade-weighted leaf deviation from its conditional mean given
the counts: sum_a w^_a ln S_a - sum_i mu(k_i) for G1, with w^ the
normalised cascade weights and mu(k) the class mean of ln S (0 for a
block whose class table would not fit), and gap (sum_a w^_a M_a - K/q)
for G2, since every leaf's colour counts are Multinomial(k, 1/q) and its
matches Binomial(K, 1/q) on their own.  A one-leaf tree gets no leaf
columns: they would replace the sampled leaf by its conditional mean and
turn the Monte Carlo into the closed form it is meant to check.  The
coefficients are fitted by least squares on the first half of the draws
for the second and the other way round (util.cross_fit), so no draw's
correction depends on the draw itself and every estimate stays exactly
unbiased; the pass streams each chunk into the halves' sums
(util.CrossFitSums), so memory does not grow with the draws.  All terms
use the same columns, so the bound's value is G1 - G2 of the estimates,
and its stat_error is the standard error of the adjusted per-draw
differences.  A stat_error never reads below the rounding of its adjusted
values, eps (ceil(log2 S) + 2) (mean|d| + sum_j |beta_j| mean|X_j|) over
S draws: a term the counts explain completely, as K does the annealed
G2, leaves only that.

For G1 a site's factor depends on its slots' colour counts only through
their class (the sorted count profile), so on uniform leaves each (leaf,
site) draws its class with one uniform from a Walker alias table over the
classes of its k slots (replica._class_alias, cached per q).  Colour
counts drawn with numpy's multinomial serve the symmetric-t sampled
leaves, which need colour identity, and any block whose class table would
not fit (replica.class_table_fits).  On uniform leaves G2 draws each
leaf's matching pairs, Binomial(K, 1/q), the same way, with one uniform
from the alias table of K (replica._binomial_alias, cached per q).
_alias_draw is the one alias sampler of both, and it draws values, not
rows: each table carries the value of every row and of its alias side by
side (replica._alias_picks), ln S for G1, built when its class table
grows, and the match count for G2, so one gather reads the drawn value.
numpy's binomial serves the symmetric-t sampled leaves and any K whose
tables would not fit (replica.binomial_table_fits).  Each chunk of
MC_CHUNK draws has its own child seed and its own util.stream, read in
RNG blocks of at most MC_BLOCK_CELLS leaf x site x colour cells, so
results depend only on the inputs and the seed.  A block makes its
generator calls in a fixed order and draws G1's per-(leaf, site) values
itself; the arrays over (draw, leaf) (the atoms, G2's alias reads, both
log-sum-exps and the control columns) are formed once per evaluation
batch, the whole blocks of one chunk in MC_BLOCK_CELLS (term, draw, leaf)
cells, in buffers made once per call, so the batch changes no value.
Sample counts past util.MAX_MC_SAMPLES and draws of more than
MAX_DRAW_CELLS leaf x site x colour cells (or atoms, in sample_pd_atoms
and stability_test) raise BudgetExceededError; an n, samples, n_atoms or
seed that is not an integer, a bool or too small, and Poisson means past
util.POISSON_MEAN_MAX raise ValueError, all before anything is drawn.
Each level keeps n_atoms atoms; the mean share of normalizer mass beyond
them, divided by n, is reported as bias_estimate.  It is an estimate, not
a bound, so it stays out of the certified tail_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .disorder import METHOD_EXACT, METHOD_MC, QuenchedEstimate
from . import replica
from .model import ModelParams
from .replica import (_alias_picks, _binomial_alias, _check_t, _class_alias, _class_table,
                      binomial_table_fits, class_table_fits, factor_logs, pair_logs, pair_sum,
                      profile_sum)
from .util import (BudgetExceededError, CrossFitSums, check_int, check_poisson_mean, check_q,
                   check_samples, check_seed, child_seed, logsumexp, stream)

MC_CHUNK = 64  # draws per child seed stream
MC_BLOCK_CELLS = 2**15  # cap on leaf x site x colour cells in one block of draws
MAX_DRAW_CELLS = 2**24  # cap on leaf x site x colour cells of one draw: 128 MiB per float64 array
FINITE_BETA = "sampled leaf spins require finite beta"


@dataclass(frozen=True)
class CascadeSpec:
    """Tree depth and level parameters 0 <= m_1 < ... < m_L <= 1, L <= 3.

    The endpoints stand for limits, never for tiny numeric stand-ins:
    m_1 = 0 is the outer limit m_1 -> 0 and m_L = 1 the inner limit m_L -> 1
    (last_to_one).  Only the levels strictly inside (0, 1) keep atoms.
    """

    levels: tuple[float, ...]

    def __post_init__(self):
        ls = tuple(float(m) for m in self.levels)
        object.__setattr__(self, "levels", ls)
        if not 1 <= len(ls) <= 3:
            raise ValueError("cascade depth must be 1, 2 or 3")
        if not all(0.0 <= m <= 1.0 for m in ls):
            raise ValueError(f"levels {ls} must lie in [0, 1]")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("levels must be strictly increasing")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def last_to_one(self) -> bool:
        return self.levels[-1] == 1.0

    @property
    def atom_levels(self) -> tuple[float, ...]:
        """Levels that keep actual atoms: those strictly inside (0, 1)."""
        return tuple(m for m in self.levels if 0.0 < m < 1.0)


def annealed_spec() -> CascadeSpec:
    return CascadeSpec((1.0,))


def rs_spec() -> CascadeSpec:
    return CascadeSpec((0.0, 1.0))


def one_rsb_spec(m: float) -> CascadeSpec:
    return CascadeSpec((0.0, m, 1.0))


@dataclass(frozen=True)
class SpinHierarchySpec:
    """Finitely supported spin hierarchy: uniform or symmetric-t."""

    kind: str
    q: int
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "symmetric-t"):
            raise ValueError(f"unknown hierarchy kind {self.kind!r}")
        check_q(self.q)
        if self.kind == "uniform" and self.t != 0.0:
            raise ValueError("uniform hierarchy has no t parameter")
        _check_t(self.t, self.q)


def uniform_hierarchy(q: int) -> SpinHierarchySpec:
    return SpinHierarchySpec("uniform", q)


def symmetric_t_hierarchy(q: int, t: float) -> SpinHierarchySpec:
    return SpinHierarchySpec("symmetric-t", q, t)


def _check_pd_atoms(n_atoms) -> None:
    """check_int for n_atoms, and BudgetExceededError past MAX_DRAW_CELLS atoms."""
    check_int("n_atoms", n_atoms)
    if n_atoms > MAX_DRAW_CELLS:
        raise BudgetExceededError(f"{n_atoms} atoms exceed {MAX_DRAW_CELLS} per draw")


@dataclass(frozen=True)
class AtomSet:
    """Descending PD atoms plus the expected mass beyond the truncation."""

    atoms: np.ndarray
    tail_mass_bound: float


def sample_pd_atoms(m: float, n_atoms: int, seed) -> AtomSet:
    """Largest n_atoms atoms of the PPP with intensity m x^(-m-1) dx.

    xi_k = Gamma_k^(-1/m) maps unit-rate arrival times to atoms in
    descending order, with no rejection.  The recorded tail bound is the
    conditional mean of the dropped atoms,
    E[sum_{k>n} xi_k | Gamma_n] = (m/(1-m)) xi_n^(1-m).
    """
    if not (0.0 < m < 1.0):
        raise ValueError(f"PD level m must lie in (0, 1), got {m}")
    _check_pd_atoms(n_atoms)
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    atoms = rng.standard_exponential(n_atoms)  # arrivals, then atoms, in one buffer
    np.cumsum(atoms, out=atoms)
    np.power(atoms, -1.0 / m, out=atoms)
    tail = (m / (1.0 - m)) * atoms[-1] ** (1.0 - m)
    return AtomSet(atoms=atoms, tail_mass_bound=float(tail))


@dataclass(frozen=True)
class StabilityReport:
    statistic: float
    min_pvalue: float
    passed: bool
    reference_scale: float


def stability_test(m: float, n_atoms: int, draws: int, seed: int,
                   sigma: float = 1.0, scale_mismatch: float = 1.0,
                   top: int = 3, alpha: float = 1e-3) -> StabilityReport:
    """Two-sample KS check of the multiplier stability property.

    Multipliers are log-normal exp(sigma Z), for which
    E[X^m]^(1/m) = exp(m sigma^2 / 2) in closed form.  The top atoms of
    the resorted multiplied process are compared rank by rank against
    scale_mismatch * c * xi of fresh draws; scale_mismatch != 1 is the
    deliberate power check and should fail.
    """
    check_int("draws", draws, 10)
    check_samples(draws)
    check_seed(seed)
    _check_pd_atoms(n_atoms)
    check_int("top", top)
    if top > n_atoms:
        raise ValueError(f"top must be at most n_atoms = {n_atoms}, got {top}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not (math.isfinite(scale_mismatch) and scale_mismatch > 0):
        raise ValueError(f"scale_mismatch must be finite and > 0, got {scale_mismatch}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    from scipy.stats import ks_2samp  # deferred: scipy.stats dominates import time

    c_ref = math.exp(0.5 * m * sigma * sigma) * scale_mismatch
    rng = stream(seed)
    mult_top = np.empty((draws, top))
    ref_top = np.empty((draws, top))
    # each draw's generator calls in turn, into rows of a batch of at most
    # MC_BLOCK_CELLS atoms; then the batch's array operations at once
    batch = min(draws, max(1, MC_BLOCK_CELLS // n_atoms))
    xi, x, arrivals = np.empty((batch, n_atoms)), np.empty((batch, n_atoms)), np.empty(n_atoms)
    for lo in range(0, draws, batch):
        a, z = xi[:min(batch, draws - lo)], x[:min(batch, draws - lo)]
        for d in range(len(a)):
            rng.standard_exponential(out=a[d])
            if sigma > 0:
                rng.standard_normal(out=z[d])
            rng.standard_exponential(out=arrivals)
            ref_top[lo + d] = arrivals[:top]  # a fresh draw needs only its top arrivals
        np.power(np.cumsum(a, axis=1, out=a), -1.0 / m, out=a)
        if sigma > 0:
            a *= np.exp(np.multiply(z, sigma, out=z), out=z)
        a.sort(axis=1)
        mult_top[lo:lo + len(a)] = a[:, :-top - 1:-1]
    ref_top = c_ref * np.power(np.cumsum(ref_top, axis=1, out=ref_top), -1.0 / m, out=ref_top)
    stats, pvals = [], []
    for r in range(top):
        res = ks_2samp(mult_top[:, r], ref_top[:, r])
        stats.append(res.statistic)
        pvals.append(res.pvalue)
    return StabilityReport(
        statistic=float(max(stats)),
        min_pvalue=float(min(pvals)),
        passed=bool(min(pvals) > alpha),
        reference_scale=c_ref,
    )


# ---------------------------------------------------------------------------
# closed-form cavity functionals
# ---------------------------------------------------------------------------

def _leaf_factors(params: ModelParams, spec: CascadeSpec, hier: SpinHierarchySpec,
                  which: str) -> tuple[float | None, float, float, float]:
    """(shared, log_match, log_other, log_ann) of term `which`: a slot (G1)
    or pair (G2) contributes e^log_ann and e^log_match if its colours match,
    e^log_other if not; the leaves redraw their colours from pattern
    parameter shared (None: uniformly).  Integrated leaves (last level 1)
    take replica.factor_logs or pair_logs; sampled ones e^-beta per match."""
    beta, q = params.beta, params.q
    if spec.last_to_one:
        logs = factor_logs(beta, q, hier.t) if which == "g1" else pair_logs(beta, q, hier.t)
        return None, logs[0], logs[1], math.log1p(math.expm1(-beta) / q)
    return (hier.t if hier.kind == "symmetric-t" else None), -beta, 0.0, 0.0


def _closed_level(spec: CascadeSpec, hier: SpinHierarchySpec) -> float | None:
    """The level m of the closed form, or None: the innermost atom level
    below which the leaf factors are iid (module docstring).  A depth-1
    tree has factors 1, and any m serves."""
    if spec.last_to_one:
        return spec.levels[-2] if spec.depth > 1 else 1.0
    return spec.levels[-1] if hier.kind == "uniform" else None


def _closed_form(params: ModelParams, spec: CascadeSpec, hier: SpinHierarchySpec,
                 which: str) -> tuple[float, float]:
    """Closed-form G1 or G2 value with certified truncation tail: one
    replica.profile_sum or pair_sum of the leaf factor at _closed_level."""
    m = _closed_level(spec, hier)
    if m is None:
        raise ValueError(f"no closed form for cascade {spec} with hierarchy {hier.kind}")
    q, c = params.q, params.c
    _, log_match, log_other, log_ann = _leaf_factors(params, spec, hier, which)
    if which == "g2":
        return 0.5 * c * log_ann + pair_sum(c, q, log_match, log_other, m), 0.0
    if log_match == -math.inf and c > 0.0:  # sampled leaves at beta = inf bound no k-term
        if m == 0.0:
            raise BudgetExceededError("the m -> 0 limit of G1 diverges at beta = inf")
        raise ValueError(FINITE_BETA)
    val, tail, _ = profile_sum(c, q, log_match, log_other, m, replica.PROFILE_EPS)
    return math.log(q) + c * log_ann + val, tail


# ---------------------------------------------------------------------------
# Monte Carlo engine over truncated cascades
# ---------------------------------------------------------------------------

def _tree(spec: CascadeSpec, n_atoms: int) -> tuple[int, int]:
    """(outer nodes, leaves per outer node) of one truncated cascade."""
    ms = spec.atom_levels
    if len(ms) > 2:
        raise ValueError("Monte Carlo supports at most two unresolved atom levels")
    check_int("n_atoms", n_atoms)
    n_atoms = int(n_atoms)  # a numpy integer would wrap in the products below
    if len(ms) == 2:
        # nested truncation: ~sqrt(n_atoms) atoms per level keeps the leaf
        # count comparable to the one-level case; the nearest integer to
        # sqrt(n_atoms), in integers, so no n_atoms overflows a float
        side = max(16, (math.isqrt(4 * n_atoms) + 1) // 2)
        return side, side
    return 1, n_atoms if ms else 1


def _lse_rows(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """util.logsumexp(a, axis=1) of a 2-D a, with the contiguous scratch work
    (a.size entries or more, possibly a's own buffer) for its shifted
    exponentials: the same operations, so the same floats."""
    top = np.maximum.reduce(a, axis=1, keepdims=True)
    top[np.isinf(top)] = 0.0
    shifted = np.subtract(a, top, out=work.reshape(-1)[:a.size].reshape(a.shape))
    with np.errstate(divide="ignore"):
        out = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=1, keepdims=True))
    return (out + top)[:, 0]


def _pd_rows(log_xi: np.ndarray, m: float, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of unit exponentials turned, in place, into ln of the largest PD(m)
    atoms; returns each row's ln sum and tail fraction.

    ln xi_k = -ln(Gamma_k) / m as in sample_pd_atoms; the fraction is
    tail / (tail + sum_k xi_k) with the same conditional-mean tail.
    """
    np.cumsum(log_xi, axis=1, out=log_xi)
    np.log(log_xi, out=log_xi)
    log_xi /= -m
    log_tail = math.log(m / (1.0 - m)) + (1.0 - m) * log_xi[:, -1]
    log_sum = _lse_rows(log_xi, work)
    return log_sum, np.exp(log_tail - np.logaddexp(log_tail, log_sum))


def _log_weights(ms: tuple[float, ...], log_w: np.ndarray, log_outer: np.ndarray | None,
                 work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cascade log-weights of b draws, in place: the unit exponentials of
    each draw's leaves in the rows of log_w (b, leaves), and under two atom
    levels those of its outer atoms in log_outer (b, outer), become the
    leaves' log-weights.  Returns the (b,) log normalizers and normalizer
    tail fractions.  With no atom level log_w holds zeros."""
    if not ms:
        return _lse_rows(log_w, work), np.zeros(len(log_w))
    if len(ms) == 1:
        return _pd_rows(log_w, ms[0], work)
    b, outer = log_outer.shape
    _, frac_outer = _pd_rows(log_outer, ms[0], work)
    _, frac_inner = _pd_rows(log_w.reshape(b * outer, -1), ms[1], work)
    nested = log_w.reshape(b, outer, -1)
    nested += log_outer[:, :, None]
    return _lse_rows(log_w, work), frac_outer + frac_inner.reshape(b, outer).mean(axis=1)


def _alias_work(size: int) -> tuple[np.ndarray, ...]:
    """Flat float, float, int64 and bool buffers of size entries: the
    uniforms, values, rows and accept flags of _alias_draw."""
    return tuple(np.empty(size, dtype) for dtype in (np.float64, np.float64, np.int64, np.bool_))


def _alias_read(table: tuple[np.ndarray, np.ndarray, np.ndarray], k: np.ndarray,
                x: np.ndarray, work: tuple[np.ndarray, ...]) -> np.ndarray:
    """Values (*k.shape, leaves) that the uniforms x of that shape draw from
    alias tables (accept, pick, bounds) laid out as replica._class_alias:
    x scaled to the row count of k picks row bounds[k] + floor(x), kept
    while frac(x) < accept[row] and replaced by its alias otherwise.  pick
    holds the value of each row's alias and of the row itself side by side
    (replica._alias_picks), so one gather reads the drawn value.  x is
    overwritten; work holds the last three buffers of _alias_work (or flat
    ones of their dtypes and x.size entries or more), and the values come
    back in a view of its first."""
    accept, pick, bounds = table
    val, row, keep = (w[:x.size].reshape(x.shape) for w in work)
    first = bounds[k][..., None].astype(np.float64)
    x *= bounds[k + 1][..., None] - first
    # a uniform is below 1 in steps of 2^-53, so x < the row count; the
    # row is formed in floats, exact below 2^53, and cast once
    np.floor(x, out=val)
    x -= val
    val += first
    np.copyto(row, val, casting="unsafe")
    np.less(x, accept.take(row, out=val, mode="clip"), out=keep)
    row += row
    row += keep
    return pick.take(row, out=val, mode="clip")


def _alias_draw(rng: np.random.Generator, table: tuple[np.ndarray, np.ndarray, np.ndarray],
                k: np.ndarray, leaves: int, work: tuple[np.ndarray, ...] | None = None
                ) -> np.ndarray:
    """_alias_read of fresh uniforms, one per value (*k.shape, leaves), in
    work (_alias_work of k.size * leaves entries or more; fresh when None)."""
    size = k.size * leaves
    x, *rest = work or _alias_work(size)
    x = x[:size].reshape(*k.shape, leaves)
    rng.random(out=x)
    return _alias_read(table, k, x, rest)


class _ClassDraw:
    """ln S = ln sum_s exp(gap n_s) of uniformly coloured slots, drawn by colour class.

    S depends on the counts n_s only through their class (the sorted
    profile), so one uniform per (leaf, site) draws the class of its k slots
    from replica._class_alias, whose table carries ln S of each outcome
    (replica._alias_picks); mean_log_s[k] = sum_class p(class) ln S(class)
    is its exact mean over the classes of k slots.  The tables cover
    k <= top; top grows to the largest k seen while replica.class_table_fits
    allows, and ln S and its mean are extended over the new classes only.
    """

    def __init__(self, q: int, gap: float):
        self.q, self.gap, self.top = q, gap, -1
        self.log_s, self.mean_log_s = np.empty(0), np.empty(0)

    def covers(self, k_max: int) -> bool:
        """Whether draws for k <= k_max can be served, growing the tables if
        they can be built."""
        if k_max > self.top and class_table_fits(k_max, self.q):
            counts, _, logw, bounds = _class_table(k_max, self.q)
            old = self.log_s.size
            log_s = logsumexp(counts[:, old:] * self.gap, axis=0)
            # every k has a class, so each run of the new k is non-empty
            mean = np.add.reduceat(np.exp(logw[old:]) * log_s, bounds[self.top + 1:-1] - old)
            self.log_s = np.concatenate([self.log_s, log_s])
            self.mean_log_s = np.concatenate([self.mean_log_s, mean])
            accept, alias, bounds = _class_alias(k_max, self.q)
            self.table = accept, _alias_picks(alias, self.log_s), bounds
            self.top = k_max
        return k_max <= self.top

    def draw(self, rng: np.random.Generator, k: np.ndarray, leaves: int,
             work: tuple[np.ndarray, ...] | None = None, out: np.ndarray | None = None
             ) -> np.ndarray:
        """sum_site ln S per leaf, (b, leaves), for k[b, site] slots at each
        leaf, drawn in work (as _alias_draw) and summed into out if given."""
        return np.add.reduce(_alias_draw(rng, self.table, k, leaves, work), axis=1, out=out)


def _leaf_counts(rng: np.random.Generator, k: np.ndarray, q: int, t: float | None,
                 outer: int, inner: int) -> np.ndarray:
    """Colour counts (q, b, outer, inner, sites) of k[b, site] slots per leaf.

    t is None: every leaf colours the slots uniformly, Multinomial(k, 1/q).
    The G1 engine draws those by class (_ClassDraw) and comes here only
    for blocks whose class table would be too large.  Otherwise each outer
    node colours the slots with a uniform pattern and each leaf redraws a
    slot of pattern colour p from mu_{p,t}, so given the pattern counts n_p
    the leaf counts are sum_p Multinomial(n_p, mu_{p,t}).
    """
    b, sites = k.shape
    slots, uniform = k[:, None, None, :], np.full(q, 1.0 / q)
    if t is None:
        counts = rng.multinomial(slots, uniform, size=(b, outer, inner, sites))
    else:
        pattern = rng.multinomial(slots, uniform, size=(b, outer, 1, sites))
        mu = np.maximum((1.0 - t) / q + t * np.eye(q), 0.0)  # row p is mu_{p,t}
        counts = sum(rng.multinomial(pattern[..., p], mu[p], size=(b, outer, inner, sites))
                     for p in range(q))
    # Generator.multinomial puts colours last; a contiguous colour-first copy
    # lets the caller's log-sum-exp over colours run slab by slab
    return np.ascontiguousarray(np.moveaxis(counts, -1, 0))


def _leaf_matches(rng: np.random.Generator, k: np.ndarray, q: int, t: float | None,
                  outer: int, inner: int, uniforms: np.ndarray | None = None
                  ) -> np.ndarray | None:
    """Matching pairs (b, outer, inner) among k[b] pairs per leaf.

    t is None: Binomial(K, 1/q), drawn with one uniform per leaf from the
    cached alias tables replica._binomial_alias, or with numpy's binomial
    when the tables of the block's largest K would not fit
    (replica.binomial_table_fits).  Given a (b, leaves) buffer, the alias
    draw only fills it with its uniforms and returns None: _alias_read
    turns them into matches later.  Otherwise m ~ Binomial(K, 1/q) pairs
    match in the outer node's pattern, and a leaf pair matches with
    probability t^2 + (1 - t^2)/q given a pattern match, (1 - t^2)/q not.
    """
    b, pairs = len(k), k[:, None, None]
    if t is None:
        k_max = int(k.max())
        if binomial_table_fits(k_max):
            if uniforms is not None:
                rng.random(out=uniforms)
                return None
            return _alias_draw(rng, _binomial_alias(k_max, q), k, outer * inner).reshape(
                b, outer, inner)
        return rng.binomial(pairs, 1.0 / q, size=(b, outer, inner))
    in_pattern = rng.binomial(pairs, 1.0 / q, size=(b, outer, 1))
    off = (1.0 - t * t) / q
    return (rng.binomial(in_pattern, t * t + off, size=(b, outer, inner))
            + rng.binomial(pairs - in_pattern, off, size=(b, outer, inner)))


def _run_mc(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
            samples: int, seed: int,
            n_atoms: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per chunk of MC_CHUNK draws, the draws' values (1/n) ln( sum_a w_a V_a
    / sum_a w_a ), row 0 for G1 and row 1 for G2, their control columns of
    mean exactly 0, one row each, and their normalizer tail fractions.

    For G1, ln V_a = sum_i ln S_i over the n cavity sites, with S_i =
    sum_s exp(n_s log_match + (k_i - n_s) log_other) over the colour
    counts n_s of site i's k_i ~ Poisson(c) slots; for G2, ln V_a =
    M log_match + (K - M) log_other for M matching pairs out of K pairs,
    with K thinned from G1's slots (module docstring).  The factors are
    _leaf_factors', log_ann folded into both logs, and below gap =
    log_match - log_other.  The control columns are the module
    docstring's: the two counts less their means, then, on trees with more
    than one leaf, sum_a w^_a (ln V_a - log_other sum_i k_i) - sum_i mu(k_i)
    with mu = _ClassDraw.mean_log_s, and gap (sum_a w^_a M_a - K/q).

    Each evaluation batch (module docstring) runs in two phases over buffers
    made once: its blocks draw into their rows, then the batch is evaluated.
    """
    check_samples(samples)
    if not spec.last_to_one and params.beta == math.inf:  # -beta * 0 is NaN
        raise ValueError(FINITE_BETA)
    q, c = params.q, params.c
    # per term (gap, log_other), log_ann folded into log_other; both terms
    # redraw their leaves from the same pattern parameter `shared`
    factors = [_leaf_factors(params, spec, hier, which) for which in ("g1", "g2")]
    shared = factors[0][0]
    (gap1, other1), (gap2, other2) = ((match - other, other + ann)
                                      for _, match, other, ann in factors)
    check_poisson_mean(c * n, c)  # the n Poisson(c) slot counts are summed in int64
    outer, inner = _tree(spec, n_atoms)
    leaves, ms = outer * inner, spec.atom_levels
    if leaves * n * q > MAX_DRAW_CELLS:
        raise BudgetExceededError(f"{leaves} leaves x {n} sites x {q} colours exceed "
                                  f"{MAX_DRAW_CELLS} cells per draw")

    # one stream per chunk of MC_CHUNK draws, drawn in blocks of at most
    # MC_BLOCK_CELLS (leaf, site, colour) cells, so values depend only on
    # the inputs and the seed; a batch is the whole blocks of one chunk that
    # fit in MC_BLOCK_CELLS (term, draw, leaf) cells, at least one
    block = min(MC_CHUNK, max(1, MC_BLOCK_CELLS // (leaves * n * q)))
    batch = block * max(1, min(MC_CHUNK // block, MC_BLOCK_CELLS // (2 * block * leaves)))
    # log-weights (zeros with no atom level), the terms' leaf excesses, the
    # normalised weights (G2's alias uniforms before them) and scratch, per
    # (draw, leaf) of a batch
    log_w, excess1, excess2, w_hat, scratch = (np.zeros((batch, leaves)) for _ in range(5))
    log_outer = np.empty((batch, outer))
    totals = np.empty((2, batch), np.int64)
    centre1, fits, by_table = np.empty(batch), np.empty(batch, bool), np.empty(batch, bool)
    work = _alias_work(max(block * n, batch) * leaves)
    classes = _ClassDraw(q, gap1)
    for chunk, lo in enumerate(range(0, samples, MC_CHUNK)):
        rng = stream(child_seed(seed, chunk))
        size = min(MC_CHUNK, samples - lo)
        vals, fracs = np.empty((2, size)), np.empty(size)
        controls = np.zeros((4 if leaves > 1 else 2, size))
        for start in range(0, size, batch):
            nb = min(batch, size - start)
            # draw: each block's generator calls, in order, into its rows
            for a in range(0, nb, block):
                rows = slice(a, min(a + block, nb))
                b = rows.stop - a
                if len(ms) == 2:
                    rng.standard_exponential(out=log_outer[rows])
                if ms:
                    rng.standard_exponential(out=log_w[rows])
                k = rng.poisson(c, size=(b, n))
                fits[rows] = fit = classes.covers(int(k.max()))
                if fit and shared is None:
                    classes.draw(rng, k, leaves, work, excess1[rows])
                else:
                    counts = _leaf_counts(rng, k, q, shared, outer, inner)
                    excess1[rows] = logsumexp(gap1 * counts, axis=0).sum(axis=-1).reshape(b, -1)
                centre1[rows] = classes.mean_log_s[k].sum(axis=1) if fit else 0.0
                slots, pairs = totals[:, rows]
                slots[...] = k.sum(axis=1)
                # numpy's scalar binomial draws the same value, without an array call's checks
                pairs[...] = rng.binomial(slots[0] if b == 1 else slots, 0.5)
                matches = _leaf_matches(rng, pairs, q, shared, outer, inner, w_hat[rows])
                by_table[rows] = matches is None
                if matches is not None:
                    excess2[rows] = matches.reshape(b, -1)
            # evaluate: the whole batch at once, first G2's alias uniforms
            # (rows drawn by numpy's binomial keep their matches)
            draws, slots, pairs = slice(start, start + nb), totals[0, :nb], totals[1, :nb]
            if by_table[:nb].any():
                table_k = np.where(by_table[:nb], pairs, 0)
                matches = _alias_read(_binomial_alias(int(table_k.max()), q), table_k,
                                      w_hat[:nb], (scratch.reshape(-1), *work[2:]))
                np.copyto(excess2[:nb], matches, where=by_table[:nb, None])
            excess2[:nb] *= gap2
            lw = log_w[:nb]
            norm, fracs[draws] = _log_weights(ms, lw, log_outer[:nb] if len(ms) == 2 else None,
                                              scratch)
            if leaves > 1:
                np.exp(np.subtract(lw, norm[:, None], out=w_hat[:nb]), out=w_hat[:nb])
            for row, (total, mean, excess, log_other, centre) in enumerate((
                    (slots, c * n, excess1[:nb], other1, centre1[:nb]),
                    (pairs, 0.5 * c * n, excess2[:nb], other2, gap2 * pairs / q))):
                leaf = np.multiply(total[:, None], log_other, out=scratch[:nb])
                leaf += excess
                leaf += lw
                vals[row, draws] = _lse_rows(leaf, scratch) - norm
                controls[row, draws] = total - mean
                if leaves > 1:
                    column = np.multiply(w_hat[:nb], excess, out=scratch[:nb]).sum(axis=1)
                    column -= centre
                    if row == 0:
                        column[~fits[:nb]] = 0.0  # a block with no class table: no G1 column
                    controls[2 + row, draws] = column
        vals /= n
        yield vals, controls, fracs


def _cavity(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
            samples: int, seed: int, terms: tuple[str, ...], method: str,
            n_atoms: int) -> list[QuenchedEstimate]:
    """Estimates of `terms` ("g1", "g2" or both, in that order), and after
    them, by Monte Carlo, that of the per-draw differences G1 - G2.

    Closed forms are per term, so one term stays finite where only the
    other fails.  Monte Carlo checks the requested terms' leaf factors
    first, so a degenerate one raises its own message, then runs the one
    coupled pass of _run_mc and sums each chunk of G1, G2 and G1 - G2 with
    its control columns into util.CrossFitSums, which subtracts the
    controls at cross-fitted coefficients.
    """
    if hier.q != params.q:
        raise ValueError("hierarchy q does not match model q")
    check_int("n", n)
    check_seed(seed)
    if spec.depth == 1 and hier.kind != "uniform":
        # a one-level tree carries a single fixed spin measure; the
        # symmetric-t family only exists as a measure on measures
        raise ValueError("one-level cascades support the uniform hierarchy only")
    if method == "auto":
        method = "closed-form" if _closed_level(spec, hier) is not None else "monte-carlo"
    check_int("samples", samples, 2 if method == "monte-carlo" else 0)
    n = int(n)  # a numpy integer would wrap in the cell count
    if method == "closed-form":
        ests = []
        for which in terms:
            value, tail = _closed_form(params, spec, hier, which)
            ests.append(QuenchedEstimate(value, 0.0, tail, 0, METHOD_EXACT))
        return ests
    if method == "monte-carlo":
        for which in terms:
            _leaf_factors(params, spec, hier, which)
        tails, chunks = 0.0, _run_mc(params, n, spec, hier, samples, seed, n_atoms)
        for lo, (vals, controls, fracs) in zip(range(0, samples, MC_CHUNK), chunks):
            k = len(controls)
            if lo == 0:
                sums = CrossFitSums([samples], k, 3, MC_CHUNK)
            w = sums.w[:, :len(fracs)]
            w[1:k + 1] = controls
            w[k + 1:k + 3] = vals
            np.subtract(vals[0], vals[1], out=w[k + 3])
            sums.add([0], [len(fracs)], [lo])
            tails += fracs.sum()
        means, errors = sums.result()
        ests = [QuenchedEstimate(float(v), float(e), 0.0, samples, METHOD_MC,
                                 bias_estimate=float(tails / samples / n))
                for v, e in zip(means[0], errors[0])]
        return [ests[("g1", "g2").index(which)] for which in terms] + ests[2:]
    raise ValueError(f"unknown method {method!r}")


def cavity_g1(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
              samples: int = 4096, seed: int = 0, method: str = "auto",
              n_atoms: int = 1024) -> QuenchedEstimate:
    """Interaction term G1 of the cavity field functional."""
    return _cavity(params, n, spec, hier, samples, seed, ("g1",), method, n_atoms)[0]


def cavity_g2(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
              samples: int = 4096, seed: int = 0, method: str = "auto",
              n_atoms: int = 1024) -> QuenchedEstimate:
    """Self-energy term G2 of the cavity field functional."""
    return _cavity(params, n, spec, hier, samples, seed, ("g2",), method, n_atoms)[0]


def cavity_terms(params: ModelParams, n: int, spec: CascadeSpec,
                 hier: SpinHierarchySpec, samples: int = 4096, seed: int = 0,
                 method: str = "auto", n_atoms: int = 1024
                 ) -> tuple[QuenchedEstimate, QuenchedEstimate, QuenchedEstimate]:
    """(G1, G2, G1 - G2) of one trial state.

    By Monte Carlo both terms come from one pass over `seed` that shares
    each draw's cascade weights and thins G2's pair count from G1's slots
    (_run_mc), and every estimate subtracts the same cross-fitted control
    variates, so the bound's value is e1.value - e2.value and its stat_error
    is the standard error of the adjusted per-draw differences G1 - G2: it
    counts the covariance of the terms.  Its bias_estimate is the sum of the
    two terms' estimates.
    """
    e1, e2, *paired = _cavity(params, n, spec, hier, samples, seed, ("g1", "g2"), method,
                              n_atoms)
    bound = QuenchedEstimate(
        value=e1.value - e2.value,
        stat_error=paired[0].stat_error if paired else 0.0,
        tail_bound=e1.tail_bound + e2.tail_bound,
        samples=e1.samples,
        method=e1.method,
        bias_estimate=e1.bias_estimate + e2.bias_estimate,
    )
    return e1, e2, bound


def rsb_upper_bound(params: ModelParams, n: int, spec: CascadeSpec,
                    hier: SpinHierarchySpec, samples: int = 4096, seed: int = 0,
                    method: str = "auto", n_atoms: int = 1024) -> QuenchedEstimate:
    """G1 - G2: an upper bound on p_N for every admissible trial state."""
    return cavity_terms(params, n, spec, hier, samples, seed, method, n_atoms)[2]
