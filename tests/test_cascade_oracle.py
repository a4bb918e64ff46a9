"""The block cascade Monte Carlo engine against the per-draw engine.

The oracle below is the engine `cascade` used before block draws: one
Python call per draw, one colour per slot counted afterwards, and scipy's
logsumexp.  Both engines sample the same law, so on every branch (0, 1
and 2 atom levels, leaves integrated or sampled, uniform and symmetric-t
hierarchies with either sign of t, q = 2 and 3) their G1 and G2 agree
within 4 combined standard errors plus both truncation-bias estimates, and the
count draws agree with per-slot counting in mean and covariance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from potts_af import cascade, util
from potts_af.cascade import (
    CascadeSpec,
    _leaf_counts,
    _leaf_matches,
    _log_weights,
    _tree,
    annealed_spec,
    cavity_g1,
    cavity_g2,
    one_rsb_spec,
    rs_spec,
    sample_pd_atoms,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.disorder import METHOD_MC, QuenchedEstimate
from potts_af.model import ModelParams
from potts_af.util import stream

MC_CHUNK = 64


def _site_values(counts, k_per_site, log_match, log_other, q):
    """ln S per (node, site): S = sum_s exp(n_s log_match + (k - n_s) log_other)."""
    expo = counts * (log_match - log_other) + k_per_site[None, :, None] * log_other
    return logsumexp(expo, axis=2)


def _color_counts(colors, site_of_slot, n_sites, q):
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


def _sample_mu(rng, pattern, t, q, shape):
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

    def __init__(self, spec, rng, n_atoms):
        ms = spec.atom_levels
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

    def combine(self, leaf_log_values):
        """ln( sum_a w_a V_a / sum_a w_a ) in log space."""
        return float(
            logsumexp(self.log_weights + leaf_log_values) - logsumexp(self.log_weights)
        )


def _mc_g1_draw(params, n, spec, hier, rng, n_atoms):
    q, beta, c = params.q, params.beta, params.c
    t = hier.t
    y = -math.expm1(-beta)
    draw = _CascadeDraw(spec, rng, n_atoms)
    k_per_site = rng.poisson(c, size=n)
    slots = int(k_per_site.sum())
    site_of_slot = np.repeat(np.arange(n), k_per_site)
    if spec.last_to_one:
        pattern = rng.integers(0, q, size=(draw.leaf_nodes, slots))
        counts = _color_counts(pattern, site_of_slot, n, q)
        log_match = math.log(1.0 - y * (t + (1.0 - t) / q))
        log_other = math.log(1.0 - y * (1.0 - t) / q)
        lnx = _site_values(counts, k_per_site, log_match, log_other, q).sum(axis=1)
    else:
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


def _mc_g2_draw(params, n, spec, hier, rng, n_atoms):
    q, beta, c = params.q, params.beta, params.c
    t = hier.t
    y = -math.expm1(-beta)
    draw = _CascadeDraw(spec, rng, n_atoms)
    k_pairs = int(rng.poisson(0.5 * c * n))
    if spec.last_to_one:
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


def old_mc(params, n, spec, hier, samples, seed, n_atoms, which) -> QuenchedEstimate:
    draw_fn = _mc_g1_draw if which == "g1" else _mc_g2_draw
    chunks = [(i, min(i + MC_CHUNK, samples)) for i in range(0, samples, MC_CHUNK)]
    vals = np.empty(samples)
    tails = np.empty(samples)
    for (lo, hi), chunk_seed in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        rng = stream(chunk_seed)
        for i in range(lo, hi):
            vals[i], tails[i] = draw_fn(params, n, spec, hier, rng, n_atoms)
    return QuenchedEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples)),
                            0.0, samples, METHOD_MC, bias_estimate=float(tails.mean()))


BRANCHES = {
    "0 levels, leaves integrated, t > 0": (rs_spec(), 2, 0.5),
    "0 levels, leaves integrated, uniform": (annealed_spec(), 3, None),
    "0 levels, leaves sampled, uniform": (CascadeSpec((0.0,)), 2, None),
    "1 level, leaves sampled, uniform": (CascadeSpec((0.5,)), 3, None),
    "1 level, leaves integrated, t < 0": (one_rsb_spec(0.5), 3, -0.4),
    "1 level, leaves sampled, t > 0": (CascadeSpec((0.0, 0.5)), 2, 0.6),
    "1 level, leaves sampled, t < 0": (CascadeSpec((0.0, 0.4)), 3, -0.45),
    "2 levels, leaves sampled, uniform": (CascadeSpec((0.3, 0.7)), 2, None),
    "2 levels, leaves sampled, t > 0": (CascadeSpec((0.3, 0.7)), 2, 0.5),
    "2 levels, leaves sampled, t < 0": (CascadeSpec((0.3, 0.7)), 3, -0.4),
    "2 levels, leaves integrated, t > 0": (CascadeSpec((0.3, 0.7, 1.0)), 3, 0.4),
}


def _hier(q, t):
    return uniform_hierarchy(q) if t is None else symmetric_t_hierarchy(q, t)


@pytest.mark.parametrize("branch", list(BRANCHES))
@pytest.mark.parametrize("which", ["g1", "g2"])
def test_block_engine_matches_per_draw_oracle(branch, which):
    spec, q, t = BRANCHES[branch]
    params = ModelParams(q=q, beta=1.0, c=2.0)
    fn = cavity_g1 if which == "g1" else cavity_g2
    seed = 1000 + 7 * list(BRANCHES).index(branch) + (which == "g2")
    new = fn(params, 3, spec, _hier(q, t), samples=300, seed=seed,
             method="monte-carlo", n_atoms=64)
    old = old_mc(params, 3, spec, _hier(q, t), 300, seed + 500, 64, which)
    assert new.method == METHOD_MC and new.samples == 300
    budget = (4 * math.hypot(new.stat_error, old.stat_error) + new.bias_estimate
              + old.bias_estimate)
    assert abs(new.value - old.value) <= budget, (new, old)


@pytest.mark.parametrize("levels", [(0.1,), (0.5,), (0.9,), (0.3, 0.7), (0.5, 0.6)])
def test_block_weights_match_per_draw_atoms(levels):
    # one draw's exponentials, drawn as the engine draws them (the outer
    # atoms', then the leaves'), follow the per-draw order, so they give the
    # same leaf weights and tail fraction, leaf for leaf; the returned
    # normalizer is the engine's own log-sum-exp of the weights
    spec = CascadeSpec(levels)
    outer, inner = _tree(spec, 200)
    for seed in range(3):
        old = _CascadeDraw(spec, stream(seed), 200)
        rng = stream(seed)
        log_outer = rng.standard_exponential((1, outer)) if len(levels) == 2 else None
        log_w = rng.standard_exponential((1, outer * inner))
        norm, frac = _log_weights(levels, log_w, log_outer, np.empty(log_w.size))
        assert np.array_equal(norm, util.logsumexp(log_w, axis=1))
        np.testing.assert_allclose(log_w[0], old.log_weights, rtol=1e-12, atol=1e-12)
        assert frac[0] == pytest.approx(old.tail_fraction, rel=1e-12)


def _assert_same_law(new: np.ndarray, old: np.ndarray, sigmas: float = 5.0):
    """Mean and covariance of two (draws, dim) samples agree within `sigmas` SE."""
    def moments(x):
        d = x - x.mean(axis=0)
        prods = d[:, :, None] * d[:, None, :]
        return (x.mean(axis=0), x.var(axis=0) / len(x),
                prods.mean(axis=0), prods.var(axis=0) / len(x))

    m1, v1, c1, w1 = moments(new.astype(float))
    m2, v2, c2, w2 = moments(old.astype(float))
    assert np.all(np.abs(m1 - m2) <= sigmas * np.sqrt(v1 + v2)), (m1, m2)
    assert np.all(np.abs(c1 - c2) <= sigmas * np.sqrt(w1 + w2) + 1e-12), (c1, c2)


@pytest.mark.parametrize("q, t", [(2, None), (3, None), (2, 0.6), (3, 0.5), (2, -0.7),
                                  (3, -0.5), (3, 1.0)])
def test_count_draws_match_per_slot_counting(q, t):
    # two leaves under one outer node: the joint law carries the shared pattern
    draws, slots = 20_000, 5
    rng = stream([q, 0 if t is None else int(100 * t) + 200])
    new = _leaf_counts(rng, np.full((draws, 1), slots), q, t, 1, 2)  # (q, draws, 1, 2, 1)
    new = np.moveaxis(new[:, :, 0, :, 0], 0, -1).reshape(draws, 2 * q)
    if t is None:
        colors = rng.integers(0, q, size=(draws * 2, slots))
    else:
        pattern = rng.integers(0, q, size=(draws, 1, slots))
        colors = _sample_mu(rng, pattern, t, q, (draws, 2, slots)).reshape(draws * 2, slots)
    old = _color_counts(colors, np.zeros(slots, dtype=np.int64), 1, q).reshape(draws, 2 * q)
    assert np.all(new.sum(axis=1) == 2 * slots)
    _assert_same_law(new, old)


@pytest.mark.parametrize("q, t", [(2, None), (3, None), (2, 0.6), (3, -0.5)])
def test_match_draws_match_per_pair_counting(q, t):
    draws, pairs = 20_000, 6
    rng = stream([q, 7, 0 if t is None else int(100 * t) + 200])
    new = _leaf_matches(rng, np.full(draws, pairs), q, t, 1, 2).reshape(draws, 2)
    if t is None:
        hits = rng.random((draws, 2, pairs)) < 1.0 / q
    else:
        pat_match = rng.random((draws, 1, pairs)) < 1.0 / q
        hits = rng.random((draws, 2, pairs)) < t * t * pat_match + (1.0 - t * t) / q
    _assert_same_law(new, hits.sum(axis=2))


@pytest.mark.parametrize("branch", ["0 levels, leaves integrated, t > 0",
                                    "1 level, leaves sampled, uniform",
                                    "2 levels, leaves sampled, t < 0"])
def test_same_seed_bit_identical(branch):
    spec, q, t = BRANCHES[branch]
    params = ModelParams(q=q, beta=1.0, c=2.0)
    runs = [cavity_g1(params, 3, spec, _hier(q, t), samples=150, seed=seed,
                      method="monte-carlo", n_atoms=64) for seed in (3, 3, 4)]
    assert runs[0] == runs[1]
    assert runs[0].value != runs[2].value


def test_block_size_does_not_change_the_law(monkeypatch):
    # one draw per block against the largest blocks: different streams, same law
    spec, q, t = BRANCHES["1 level, leaves sampled, t > 0"]
    params = ModelParams(q=q, beta=1.0, c=2.0)
    args = (params, 3, spec, _hier(q, t))
    kw = dict(samples=400, method="monte-carlo", n_atoms=64)
    big = cavity_g1(*args, seed=5, **kw)
    monkeypatch.setattr(cascade, "MC_BLOCK_CELLS", 1)
    small = cavity_g1(*args, seed=6, **kw)
    assert small != big
    assert abs(small.value - big.value) <= (4 * math.hypot(small.stat_error, big.stat_error)
                                            + small.bias_estimate + big.bias_estimate)
