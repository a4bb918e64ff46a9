"""Poisson-Dirichlet cascades and the cavity-field upper bounds.

Atoms of the point process with intensity m x^(-m-1) dx are generated as
inverse arrival times: xi_k = Gamma_k^(-1/m) with Gamma_k the cumulative
sums of unit exponentials.  The multiplier stability property — resorting
{X_k xi_k} has the law of {c xi_k} with c = E[X^m]^(1/m) — is what makes
cavity functionals over cascade trial states computable level by level:
each level integrates out through a fractional moment of order m_level,
the m -> 0 outer limit turns into a plain average of the log, and the
m -> 1 inner limit into a plain conditional expectation.

Hierarchies supported on the spin side (finitely supported measures on
measures): the uniform hierarchy, and the symmetric one-color family
mu_{s,t}(r) = t d(r,s) + (1-t)/q with the color s refreshed per branch
slot.  Closed forms exist for the trivial one-level state (annealed), the
replica-symmetric limit (two levels, m1 -> 0, m2 -> 1), the one-level
generic-m state with uniform spins, and the one-step RSB state (three
levels, middle m free).  Every configuration can also be evaluated by
direct Monte Carlo over truncated cascades; closed-form and MC paths are
independent and cross-validate each other.

The Monte Carlo engine draws a block of cascades per set of array
operations.  For G1 a site's factor depends on its slots' colour counts
only through their class (the sorted count profile), so on uniform leaves
each (leaf, site) draws its class with one uniform from a Walker alias
table over the classes of its k slots (replica._class_alias, cached per
q), and ln S is read from a per-class array.  A chain of q - 1 binomial
draws of the colour counts serves the symmetric-t sampled leaves, which
need colour identity, and any block whose class table would pass
replica.MAX_CLASS_ROWS.  G2 draws matching pairs from their binomial laws.
Each chunk of MC_CHUNK draws has its own child seed, and the block size
(capped by MC_BLOCK_CELLS leaf x site x colour cells) depends only on the
inputs, so results depend only on the inputs and the seed.  Sample counts
past util.MAX_MC_SAMPLES raise BudgetExceededError before anything is
drawn.  Each level keeps n_atoms atoms; the mean share of normalizer mass
beyond them, divided by n, is reported as bias_estimate.  It is an
estimate, not a bound, so it stays out of the certified tail_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import x_param
from .disorder import METHOD_EXACT, METHOD_MC, QuenchedEstimate
from .model import ModelParams
from .replica import (_class_alias, _class_table, class_table_fits,
                      degenerate_product_factor, factor_logs, g2 as rs_g2, profile_sum)
from .util import BudgetExceededError, check_samples, child_seeds, logsumexp, philox

MC_CHUNK = 64  # draws per child seed stream
MC_BLOCK_CELLS = 2**15  # cap on leaf x site x colour cells in one block of draws
DEGENERATE_PAIR_FACTOR = "degenerate pair factor; requires beta < inf or |t| < 1"


@dataclass(frozen=True)
class CascadeSpec:
    """Tree depth and level parameters 0 < m_1 < ... < m_L < 1.

    Endpoint limits are explicit flags, never tiny numeric stand-ins:
    first_to_zero marks m_1 -> 0 (levels[0] must be the sentinel 0.0) and
    last_to_one marks m_L -> 1 (levels[-1] must be the sentinel 1.0).
    """

    levels: tuple[float, ...]
    first_to_zero: bool = False
    last_to_one: bool = False

    def __post_init__(self):
        ls = tuple(float(m) for m in self.levels)
        object.__setattr__(self, "levels", ls)
        if not 1 <= len(ls) <= 3:
            raise ValueError("cascade depth must be 1, 2 or 3")
        if self.first_to_zero and ls[0] != 0.0:
            raise ValueError("first_to_zero requires levels[0] == 0.0")
        if self.last_to_one and ls[-1] != 1.0:
            raise ValueError("last_to_one requires levels[-1] == 1.0")
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ValueError("levels must be strictly increasing")
        for i, m in enumerate(ls):
            limit = (i == 0 and self.first_to_zero) or (i == len(ls) - 1 and self.last_to_one)
            if not limit and not (0.0 < m < 1.0):
                raise ValueError(f"interior level m = {m} must lie in (0, 1)")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def atom_levels(self) -> tuple[float, ...]:
        """Levels that keep actual atoms after resolving the limit flags."""
        ms = list(self.levels)
        if self.last_to_one:
            ms = ms[:-1]
        if self.first_to_zero:
            ms = ms[1:]
        return tuple(ms)


def annealed_spec() -> CascadeSpec:
    return CascadeSpec((1.0,), last_to_one=True)


def rs_spec() -> CascadeSpec:
    return CascadeSpec((0.0, 1.0), first_to_zero=True, last_to_one=True)


def one_rsb_spec(m: float) -> CascadeSpec:
    return CascadeSpec((0.0, m, 1.0), first_to_zero=True, last_to_one=True)


@dataclass(frozen=True)
class SpinHierarchySpec:
    """Finitely supported spin hierarchy: uniform or symmetric-t."""

    kind: str
    q: int
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "symmetric-t"):
            raise ValueError(f"unknown hierarchy kind {self.kind!r}")
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if self.kind == "uniform" and self.t != 0.0:
            raise ValueError("uniform hierarchy has no t parameter")
        if not (-1.0 / (self.q - 1) <= self.t <= 1.0):
            raise ValueError(f"t = {self.t} outside [-1/(q-1), 1]")


def uniform_hierarchy(q: int) -> SpinHierarchySpec:
    return SpinHierarchySpec("uniform", q)


def symmetric_t_hierarchy(q: int, t: float) -> SpinHierarchySpec:
    return SpinHierarchySpec("symmetric-t", q, t)


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
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else philox(seed)
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
    from scipy.stats import ks_2samp  # deferred: scipy.stats dominates import time

    if draws < 10:
        raise ValueError("need at least 10 draws per sample")
    c_ref = math.exp(0.5 * m * sigma * sigma) * scale_mismatch
    rng = philox(seed)
    mult_top = np.empty((draws, top))
    ref_top = np.empty((draws, top))
    for d in range(draws):
        xi = sample_pd_atoms(m, n_atoms, rng).atoms
        x = np.exp(sigma * rng.standard_normal(n_atoms)) if sigma > 0 else np.ones(n_atoms)
        mult_top[d] = np.sort(x * xi)[::-1][:top]
        ref_top[d] = c_ref * sample_pd_atoms(m, n_atoms, rng).atoms[:top]
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

def _kind(spec: CascadeSpec) -> str:
    if spec.depth == 1:
        return "annealed" if spec.last_to_one else "l1-generic"
    if spec.depth == 2 and spec.first_to_zero and spec.last_to_one:
        return "rs"
    if spec.depth == 3 and spec.first_to_zero and spec.last_to_one:
        return "one-rsb"
    return "generic"


def _t_of(hier: SpinHierarchySpec) -> float:
    return 0.0 if hier.kind == "uniform" else hier.t


def _g2_one_rsb(beta: float, c: float, q: int, t: float, m: float) -> float:
    x = x_param(beta, q)
    hi = 1.0 + x * t * t
    lo = 1.0 - (q - 1) * x * t * t
    if lo <= 0.0:
        raise ValueError(DEGENERATE_PAIR_FACTOR)
    inner = math.exp(m * math.log(lo)) / q + (1.0 - 1.0 / q) * math.exp(m * math.log(hi))
    return 0.5 * c / m * math.log(inner)


def _closed_form(params: ModelParams, spec: CascadeSpec, hier: SpinHierarchySpec,
                 which: str, eps: float) -> tuple[float, float]:
    """Closed-form G1 or G2 value with certified truncation tail."""
    q, beta, c = params.q, params.beta, params.c
    t = _t_of(hier)
    kind = _kind(spec)
    y = -math.expm1(-beta)
    log_ann = math.log1p(-y / q)
    if kind == "annealed":
        if t != 0.0:
            raise ValueError("one-level cascades support the uniform hierarchy only")
        return (math.log(q) + c * log_ann, 0.0) if which == "g1" else (0.5 * c * log_ann, 0.0)
    if kind == "l1-generic":
        if t != 0.0:
            raise ValueError("one-level cascades support the uniform hierarchy only")
        m = spec.levels[0]
        if which == "g1":
            # W = (1/q) sum_s e^(-beta n_s), so e^(-beta k) <= W <= 1
            val, tail, _ = profile_sum(c, q, -beta, 0.0, m, beta, eps)
            return math.log(q) + val, tail
        if m == 0.0:
            # the m -> 0 limit of (1/m) ln(1 - (1 - e^(-m beta))/q) is -beta/q,
            # the limit convention profile_sum uses for G1
            if math.isinf(beta) and c > 0.0:
                raise BudgetExceededError("the m -> 0 limit of G2 diverges at beta = inf")
            return (-0.5 * c * beta / q if c > 0.0 else 0.0), 0.0
        ym = -math.expm1(-m * beta)
        return 0.5 * c / m * math.log1p(-ym / q), 0.0
    if kind in ("rs", "one-rsb"):
        m = spec.levels[1] if kind == "one-rsb" else 0.0  # RS: the m -> 0 limit
        if which == "g1":
            log_a, log_b, mag = factor_logs(beta, q, t)
            val, tail, _ = profile_sum(c, q, log_a, log_b, m, mag, eps)
            return math.log(q) + c * log_ann + val, tail
        g2 = 0.0
        if t != 0.0:
            g2 = rs_g2(beta, c, q, t) if kind == "rs" else _g2_one_rsb(beta, c, q, t, m)
        return 0.5 * c * log_ann + g2, 0.0
    raise ValueError(f"no closed form for cascade {spec} with hierarchy {hier.kind}")


# ---------------------------------------------------------------------------
# Monte Carlo engine over truncated cascades
# ---------------------------------------------------------------------------

def _tree(spec: CascadeSpec, n_atoms: int) -> tuple[int, int]:
    """(outer nodes, leaves per outer node) of one truncated cascade."""
    ms = spec.atom_levels
    if len(ms) > 2:
        raise ValueError("Monte Carlo supports at most two unresolved atom levels")
    if len(ms) == 2:
        # nested truncation: ~sqrt(n_atoms) atoms per level keeps the
        # leaf count comparable to the one-level case
        side = max(16, int(round(math.sqrt(n_atoms))))
        return side, side
    if ms and n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    return 1, n_atoms if ms else 1


def _pd_log_atoms(rng: np.random.Generator, m: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """ln of the largest shape[-1] PD(m) atoms per row, and each row's tail fraction.

    ln xi_k = -ln(Gamma_k) / m as in sample_pd_atoms; the fraction is
    tail / (tail + sum_k xi_k) with the same conditional-mean tail.
    """
    log_xi = np.log(np.cumsum(rng.exponential(1.0, size=shape), axis=-1)) / -m
    log_tail = math.log(m / (1.0 - m)) + (1.0 - m) * log_xi[..., -1]
    return log_xi, np.exp(log_tail - np.logaddexp(log_tail, logsumexp(log_xi, axis=-1)))


def _block_log_weights(rng: np.random.Generator, ms: tuple[float, ...], outer: int,
                       inner: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(b, leaves) cascade log-weights and (b,) normalizer tail fractions."""
    if not ms:
        return np.zeros((b, 1)), np.zeros(b)
    if len(ms) == 1:
        return _pd_log_atoms(rng, ms[0], (b, inner))
    log_outer, frac_outer = _pd_log_atoms(rng, ms[0], (b, outer))
    log_inner, frac_inner = _pd_log_atoms(rng, ms[1], (b, outer, inner))
    return ((log_outer[:, :, None] + log_inner).reshape(b, -1),
            frac_outer + frac_inner.mean(axis=1))


def _multinomial(rng: np.random.Generator, n, probs: np.ndarray, shape) -> np.ndarray:
    """Multinomial(n, probs) counts, colour axis first: (len(probs),) + shape.

    Drawn as a chain of binomials: colour s takes Binomial(rest, p_s / (p_s
    + ... + p_last)) of the slots the earlier colours left.  Colours come
    first, where a log-sum-exp over them runs about 9x faster than over
    Generator.multinomial's short trailing axis.
    """
    out = np.empty((len(probs),) + shape, dtype=np.int64)
    rest = np.broadcast_to(n, shape)
    for s in range(len(probs) - 1):
        left = probs[s:].sum()
        out[s] = rng.binomial(rest, min(1.0, probs[s] / left) if left > 0 else 0.0, size=shape)
        rest = rest - out[s]
    out[-1] = rest
    return out


class _ClassDraw:
    """ln S = ln sum_s exp(gap n_s) of uniformly coloured slots, drawn by colour class.

    S depends on the counts n_s only through their class (the sorted
    profile), so one uniform per (leaf, site) picks the class of its k slots
    from replica._class_alias, and ln S is read from a per-class array.  The
    tables cover k <= top; top grows to the largest k seen while
    replica.class_table_fits allows, and ln S is extended over the new
    classes only.
    """

    def __init__(self, q: int, gap: float):
        self.q, self.gap, self.top = q, gap, -1
        self.log_s = np.empty(0)

    def covers(self, k_max: int) -> bool:
        """Whether draws for k <= k_max can be served, growing the tables if
        they can be built."""
        if k_max > self.top and class_table_fits(k_max, self.q):
            counts = _class_table(k_max, self.q)[0][:, self.log_s.size:]
            self.log_s = np.concatenate([self.log_s, logsumexp(counts * self.gap, axis=0)])
            self.accept, self.alias, bounds = _class_alias(k_max, self.q)
            self.first, self.classes = bounds[:-1], np.diff(bounds)
            self.top = k_max
        return k_max <= self.top

    def rows(self, rng: np.random.Generator, k: np.ndarray, leaves: int) -> np.ndarray:
        """Class rows (b, sites, leaves) of k[b, site] slots at each leaf."""
        x = rng.random((*k.shape, leaves)) * self.classes[k][..., None]
        j = x.astype(np.int64)  # a uniform is below 1 in steps of 2^-53, so x < classes
        row = self.first[k][..., None] + j
        return np.where(x - j < self.accept[row], row, self.alias[row])

    def draw(self, rng: np.random.Generator, k: np.ndarray, leaves: int) -> np.ndarray:
        """sum_site ln S per leaf, (b, leaves), for k[b, site] slots at each leaf."""
        return self.log_s[self.rows(rng, k, leaves)].sum(axis=1)


def _leaf_counts(rng: np.random.Generator, k: np.ndarray, q: int, t: float | None,
                 outer: int, inner: int) -> np.ndarray:
    """Colour counts (q, b, outer, inner, sites) of k[b, site] slots per leaf.

    t is None: every leaf colours the slots uniformly, Multinomial(k, 1/q).
    The G1 engine draws those by class (_ClassDraw) and comes here only
    for blocks whose class table would be too large.  Otherwise each outer
    node colours the slots with a uniform pattern and each leaf redraws a
    slot of pattern colour p from mu_{p,t}, so given the pattern counts n_p
    the leaf counts are sum_p Multinomial(n_p, mu_{p,t}); this needs colour
    identity, so it stays on the binomial chain.
    """
    b, sites = k.shape
    slots, uniform = k[:, None, None, :], np.full(q, 1.0 / q)
    if t is None:
        return _multinomial(rng, slots, uniform, (b, outer, inner, sites))
    pattern = _multinomial(rng, slots, uniform, (b, outer, 1, sites))
    counts = np.zeros((q, b, outer, inner, sites), dtype=np.int64)
    for p in range(q):
        mu = np.maximum((1.0 - t) / q + t * (np.arange(q) == p), 0.0)
        counts += _multinomial(rng, pattern[p], mu, (b, outer, inner, sites))
    return counts


def _leaf_matches(rng: np.random.Generator, k: np.ndarray, q: int, t: float | None,
                  outer: int, inner: int) -> np.ndarray:
    """Matching pairs (b, outer, inner) among k[b] pairs per leaf.

    t is None: Binomial(K, 1/q).  Otherwise m ~ Binomial(K, 1/q) pairs
    match in the outer node's pattern, and a leaf pair matches with
    probability t^2 + (1 - t^2)/q given a pattern match, (1 - t^2)/q not.
    """
    b, pairs = len(k), k[:, None, None]
    if t is None:
        return rng.binomial(pairs, 1.0 / q, size=(b, outer, inner))
    in_pattern = rng.binomial(pairs, 1.0 / q, size=(b, outer, 1))
    off = (1.0 - t * t) / q
    return (rng.binomial(in_pattern, t * t + off, size=(b, outer, inner))
            + rng.binomial(pairs - in_pattern, off, size=(b, outer, inner)))


def _colour_logsumexp(counts: np.ndarray, gap: float, work: np.ndarray) -> np.ndarray:
    """logsumexp(gap * counts, axis=0), bit for bit, computed in `work`: one
    workspace per call, not fresh block-sized temporaries, which the allocator
    would map, page-fault in and unmap again on every block."""
    a = np.multiply(counts, gap, out=work[:counts.size].reshape(counts.shape))
    top = a.max(axis=0)
    top[np.isinf(top)] = 0.0  # as in util.logsumexp
    a -= top
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        return np.log(a.sum(axis=0)) + top


def _run_mc(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
            samples: int, seed: int, n_atoms: int, which: str) -> QuenchedEstimate:
    """Mean over `samples` draws of (1/n) ln( sum_a w_a V_a / sum_a w_a ).

    For G1, ln V_a = sum_i ln S_i over the n cavity sites, with S_i =
    sum_s exp(n_s log_match + (k_i - n_s) log_other) over the colour
    counts n_s of site i's k_i slots; for G2, ln V_a = M log_match +
    (K - M) log_other for M matching pairs out of K.  Below, gap =
    log_match - log_other.
    """
    if samples < 2:
        raise ValueError("need samples >= 2")
    check_samples(samples)
    q, beta, c = params.q, params.beta, params.c
    t = _t_of(hier)
    y = -math.expm1(-beta)
    if spec.last_to_one:
        # leaves integrate exactly against mu_{P,t}; uniform patterns sit
        # on the leaves of the atom structure
        shared = None
        u = t if which == "g1" else t * t  # leaf-pattern agreement of a slot / a pair
        other, match = 1.0 - y * (1.0 - u) / q, 1.0 - y * (u + (1.0 - u) / q)
        if min(other, match) <= 0.0:  # beta = inf with u = 1, or q = 2 with u = -1
            raise (degenerate_product_factor(x_param(beta, q), t, q) if which == "g1"
                   else ValueError(DEGENERATE_PAIR_FACTOR))
        log_other = math.log(other)
        gap = math.log(match) - log_other
    else:
        # leaves carry sampled spins; patterns (if any) live one level up
        if beta == math.inf:
            raise ValueError("Monte Carlo over sampled leaf spins requires finite beta")
        shared = t if hier.kind == "symmetric-t" else None
        gap, log_other = -beta, 0.0
    outer, inner = _tree(spec, n_atoms)

    # one stream per chunk of MC_CHUNK draws, drawn in blocks of at most
    # MC_BLOCK_CELLS (leaf, site, colour) cells, so values depend only on
    # the inputs and the seed
    block = min(MC_CHUNK, max(1, MC_BLOCK_CELLS // (outer * inner * n * q)))
    work = np.empty(block * outer * inner * n * q) if which == "g1" else None
    classes = _ClassDraw(q, gap) if which == "g1" and shared is None else None
    starts = range(0, samples, MC_CHUNK)
    vals, fracs = np.empty(samples), np.empty(samples)
    for lo, chunk_seed in zip(starts, child_seeds(seed, len(starts))):
        rng = philox(chunk_seed)
        for a in range(lo, min(lo + MC_CHUNK, samples), block):
            b = min(block, lo + MC_CHUNK - a, samples - a)
            log_w, fracs[a:a + b] = _block_log_weights(rng, spec.atom_levels, outer, inner, b)
            if which == "g1":
                k = rng.poisson(c, size=(b, n))
                if classes is not None and classes.covers(int(k.max())):
                    excess = classes.draw(rng, k, outer * inner)
                else:
                    counts = _leaf_counts(rng, k, q, shared, outer, inner)
                    excess = _colour_logsumexp(counts, gap, work).sum(axis=-1)
            else:
                k = rng.poisson(0.5 * c * n, size=(b, 1))
                excess = gap * _leaf_matches(rng, k[:, 0], q, shared, outer, inner)
            leaf = excess.reshape(b, -1) + log_other * k.sum(axis=1, keepdims=True)
            vals[a:a + b] = logsumexp(log_w + leaf, axis=1) - logsumexp(log_w, axis=1)
    vals /= n
    return QuenchedEstimate(
        value=float(vals.mean()),
        stat_error=float(vals.std(ddof=1) / math.sqrt(samples)),
        tail_bound=0.0,
        samples=samples,
        method=METHOD_MC,
        bias_estimate=float(fracs.mean() / n),
    )


def _has_closed_form(spec: CascadeSpec, hier: SpinHierarchySpec) -> bool:
    kind = _kind(spec)
    if kind in ("annealed", "l1-generic"):
        return hier.kind == "uniform"
    return kind in ("rs", "one-rsb")


def _cavity(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
            samples: int, seed: int, which: str, method: str, n_atoms: int,
            eps: float) -> QuenchedEstimate:
    if hier.q != params.q:
        raise ValueError("hierarchy q does not match model q")
    if n < 1:
        raise ValueError("cavity size n must be >= 1")
    if spec.depth == 1 and hier.kind != "uniform":
        # a one-level tree carries a single fixed spin measure; the
        # symmetric-t family only exists as a measure on measures
        raise ValueError("one-level cascades support the uniform hierarchy only")
    if method == "auto":
        method = "closed-form" if _has_closed_form(spec, hier) else "monte-carlo"
    if method == "closed-form":
        value, tail = _closed_form(params, spec, hier, which, eps)
        return QuenchedEstimate(value, 0.0, tail, 0, METHOD_EXACT)
    if method == "monte-carlo":
        return _run_mc(params, n, spec, hier, samples, seed, n_atoms, which)
    raise ValueError(f"unknown method {method!r}")


def cavity_g1(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
              samples: int = 4096, seed: int = 0, method: str = "auto",
              n_atoms: int = 1024, eps: float = 1e-10) -> QuenchedEstimate:
    """Interaction term G1 of the cavity field functional."""
    return _cavity(params, n, spec, hier, samples, seed, "g1", method, n_atoms, eps)


def cavity_g2(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
              samples: int = 4096, seed: int = 0, method: str = "auto",
              n_atoms: int = 1024, eps: float = 1e-10) -> QuenchedEstimate:
    """Self-energy term G2 of the cavity field functional."""
    return _cavity(params, n, spec, hier, samples, seed, "g2", method, n_atoms, eps)


def cavity_terms(params: ModelParams, n: int, spec: CascadeSpec,
                 hier: SpinHierarchySpec, samples: int = 4096, seed: int = 0,
                 method: str = "auto", n_atoms: int = 1024,
                 eps: float = 1e-10) -> tuple[QuenchedEstimate, QuenchedEstimate]:
    """(G1, G2) of one bound, on two independent streams split from `seed`."""
    s1, s2 = child_seeds(seed, 2)
    e1 = _cavity(params, n, spec, hier, samples, int(s1.generate_state(1)[0]),
                 "g1", method, n_atoms, eps)
    e2 = _cavity(params, n, spec, hier, samples, int(s2.generate_state(1)[0]),
                 "g2", method, n_atoms, eps)
    return e1, e2


def rsb_upper_bound(params: ModelParams, n: int, spec: CascadeSpec,
                    hier: SpinHierarchySpec, samples: int = 4096, seed: int = 0,
                    method: str = "auto", n_atoms: int = 1024,
                    eps: float = 1e-10) -> QuenchedEstimate:
    """G1 - G2: an upper bound on p_N for every admissible trial state."""
    e1, e2 = cavity_terms(params, n, spec, hier, samples, seed, method, n_atoms, eps)
    return QuenchedEstimate(
        value=e1.value - e2.value,
        stat_error=math.hypot(e1.stat_error, e2.stat_error),
        tail_bound=e1.tail_bound + e2.tail_bound,
        samples=max(e1.samples, e2.samples),
        method=METHOD_MC if METHOD_MC in (e1.method, e2.method) else METHOD_EXACT,
        bias_estimate=e1.bias_estimate + e2.bias_estimate,
    )
