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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .bounds import x_param
from .disorder import METHOD_EXACT, METHOD_MC, QuenchedEstimate
from .model import ModelParams
from .replica import factor_logs, g2 as rs_g2, profile_sum
from .util import child_seeds, philox

DEFAULT_ATOMS = 4096
MC_CHUNK = 64


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
    arrivals = np.cumsum(rng.exponential(1.0, size=n_atoms))
    atoms = arrivals ** (-1.0 / m)
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
        raise ValueError("degenerate pair factor; requires beta < inf or |t| < 1")
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

def _site_values(counts: np.ndarray, k_per_site: np.ndarray, log_match: float,
                 log_other: float, q: int) -> np.ndarray:
    """ln S per (node, site): S = sum_s exp(n_s log_match + (k - n_s) log_other).

    counts has shape (nodes, sites, q); n_s counts slots whose reference
    color equals s.
    """
    expo = counts * (log_match - log_other) + k_per_site[None, :, None] * log_other
    return logsumexp(expo, axis=2)


def _color_counts(colors: np.ndarray, site_of_slot: np.ndarray, n_sites: int,
                  q: int) -> np.ndarray:
    """Count colors per (node, site): colors has shape (nodes, slots)."""
    nodes = colors.shape[0]
    out = np.zeros((nodes, n_sites, q))
    for s in range(q):
        hits = (colors == s).astype(float)
        for j in range(n_sites):
            sel = site_of_slot == j
            if sel.any():
                out[:, j, s] = hits[:, sel].sum(axis=1)
    return out


def _sample_mu(rng: np.random.Generator, pattern: np.ndarray, t: float, q: int,
               shape) -> np.ndarray:
    """Sample leaf colors from mu_{P,t}(r) = t d(r,P) + (1-t)/q, any sign of t."""
    if t >= 0.0:
        fresh = rng.integers(0, q, size=shape)
        copy = rng.random(shape) < t
        return np.where(copy, np.broadcast_to(pattern, shape), fresh)
    u = rng.random(shape)
    base = (1.0 - t) / q
    out = np.empty(shape, dtype=np.int64)
    cum = np.zeros(shape)
    remaining = np.ones(shape, dtype=bool)
    for r in range(q):
        p_r = base + t * (np.broadcast_to(pattern, shape) == r)
        cum = cum + p_r
        take = remaining & (u < cum)
        out[take] = r
        remaining &= ~take
    out[remaining] = q - 1
    return out


class _CascadeDraw:
    """Per-draw atom structure shared by the G1 and G2 estimators."""

    def __init__(self, spec: CascadeSpec, rng: np.random.Generator, n_atoms: int):
        ms = spec.atom_levels
        if len(ms) > 2:
            raise ValueError("Monte Carlo supports at most two unresolved atom levels")
        self.ms = ms
        if len(ms) == 0:
            self.log_weights = np.zeros(1)
            self.tail_fraction = 0.0
            self.outer_nodes = 1
            self.leaf_nodes = 1
        elif len(ms) == 1:
            a = sample_pd_atoms(ms[0], n_atoms, rng)
            self.log_weights = np.log(a.atoms)
            total = a.atoms.sum()
            self.tail_fraction = a.tail_mass_bound / (a.tail_mass_bound + total)
            self.outer_nodes = 1
            self.leaf_nodes = n_atoms
        else:
            # nested truncation: ~sqrt(n_atoms) atoms per level keeps the
            # leaf count comparable to the one-level case
            side = max(16, int(round(math.sqrt(n_atoms))))
            outer = sample_pd_atoms(ms[0], side, rng)
            inner_logs = []
            frac = outer.tail_mass_bound / (outer.tail_mass_bound + outer.atoms.sum())
            inner_frac = 0.0
            for _ in range(side):
                inner = sample_pd_atoms(ms[1], side, rng)
                inner_logs.append(np.log(inner.atoms))
                inner_frac += inner.tail_mass_bound / (inner.tail_mass_bound + inner.atoms.sum())
            self.log_weights = (np.log(outer.atoms)[:, None] + np.stack(inner_logs)).ravel()
            self.tail_fraction = frac + inner_frac / side
            self.outer_nodes = side
            self.leaf_nodes = side * side

    def combine(self, leaf_log_values: np.ndarray) -> float:
        """ln( sum_a w_a V_a / sum_a w_a ) in log space."""
        return float(
            logsumexp(self.log_weights + leaf_log_values) - logsumexp(self.log_weights)
        )


def _mc_g1_draw(params: ModelParams, n: int, spec: CascadeSpec,
                hier: SpinHierarchySpec, rng: np.random.Generator,
                n_atoms: int) -> tuple[float, float]:
    q, beta, c = params.q, params.beta, params.c
    t = _t_of(hier)
    y = -math.expm1(-beta)
    draw = _CascadeDraw(spec, rng, n_atoms)
    k_per_site = rng.poisson(c, size=n)
    slots = int(k_per_site.sum())
    site_of_slot = np.repeat(np.arange(n), k_per_site)

    if spec.last_to_one:
        # leaves integrate exactly against mu_{P,t}; patterns sit on the
        # deepest remaining nodes (one per leaf node of the atom structure)
        pattern = rng.integers(0, q, size=(draw.leaf_nodes, slots))
        counts = _color_counts(pattern, site_of_slot, n, q)
        log_match = math.log(1.0 - y * (t + (1.0 - t) / q))
        log_other = math.log(1.0 - y * (1.0 - t) / q)
        lnx = _site_values(counts, k_per_site, log_match, log_other, q).sum(axis=1)
    else:
        # leaves carry sampled spins; patterns (if any) live one level up
        if hier.kind == "uniform":
            tau = rng.integers(0, q, size=(draw.leaf_nodes, slots))
        else:
            inner = draw.leaf_nodes // draw.outer_nodes
            pattern = rng.integers(0, q, size=(draw.outer_nodes, 1, slots))
            tau = _sample_mu(rng, pattern, t, q, (draw.outer_nodes, inner, slots))
            tau = tau.reshape(draw.leaf_nodes, slots)
        counts = _color_counts(tau, site_of_slot, n, q)
        lnx = _site_values(counts, k_per_site, -beta, 0.0, q).sum(axis=1)
    return draw.combine(lnx) / n, draw.tail_fraction / n


def _mc_g2_draw(params: ModelParams, n: int, spec: CascadeSpec,
                hier: SpinHierarchySpec, rng: np.random.Generator,
                n_atoms: int) -> tuple[float, float]:
    q, beta, c = params.q, params.beta, params.c
    t = _t_of(hier)
    y = -math.expm1(-beta)
    draw = _CascadeDraw(spec, rng, n_atoms)
    k_pairs = int(rng.poisson(0.5 * c * n))

    if spec.last_to_one:
        # per deepest node: pattern pair matches are Bernoulli(1/q)
        matches = rng.binomial(k_pairs, 1.0 / q, size=draw.leaf_nodes)
        log_same = math.log(1.0 - y * (t * t + (1.0 - t * t) / q))
        log_diff = math.log(1.0 - y * (1.0 - t * t) / q)
        lny = matches * log_same + (k_pairs - matches) * log_diff
    else:
        if hier.kind == "uniform":
            hits = rng.random((draw.leaf_nodes, k_pairs)) < 1.0 / q
        else:
            inner = draw.leaf_nodes // draw.outer_nodes
            pat_match = rng.random((draw.outer_nodes, 1, k_pairs)) < 1.0 / q
            p_match = t * t * pat_match + (1.0 - t * t) / q
            hits = rng.random((draw.outer_nodes, inner, k_pairs)) < p_match
            hits = hits.reshape(draw.leaf_nodes, k_pairs)
        lny = -beta * hits.sum(axis=1).astype(float)
    return draw.combine(lny) / n, draw.tail_fraction / n


def _run_mc(params: ModelParams, n: int, spec: CascadeSpec, hier: SpinHierarchySpec,
            samples: int, seed: int, n_atoms: int, draw_fn) -> QuenchedEstimate:
    if samples < 2:
        raise ValueError("need samples >= 2")
    chunks = [(i, min(i + MC_CHUNK, samples)) for i in range(0, samples, MC_CHUNK)]
    seeds = child_seeds(seed, len(chunks))
    vals = np.empty(samples)
    tails = np.empty(samples)
    for (lo, hi), chunk_seed in zip(chunks, seeds):
        rng = philox(chunk_seed)  # one stream per chunk of MC_CHUNK draws
        for i in range(lo, hi):
            vals[i], tails[i] = draw_fn(params, n, spec, hier, rng, n_atoms)
    return QuenchedEstimate(
        value=float(vals.mean()),
        stat_error=float(vals.std(ddof=1) / math.sqrt(samples)),
        tail_bound=float(tails.mean()),
        samples=samples,
        method=METHOD_MC,
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
        draw_fn = _mc_g1_draw if which == "g1" else _mc_g2_draw
        return _run_mc(params, n, spec, hier, samples, seed, n_atoms, draw_fn)
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
    )
