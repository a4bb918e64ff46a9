"""Colour-class draws of the cascade Monte Carlo against per-slot counting.

On uniform leaves G1 draws the class of each site's k slots (the sorted
colour counts) from a Walker alias table and reads ln S = ln sum_s
exp(gap n_s) per class.  The draws must give the class law of k iid
uniform colours, the alias tables must reproduce the class probabilities,
and the binomial chain that serves oversized tables must sample the same
law as the class draws.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af import cascade, replica
from potts_af.cascade import (
    CascadeSpec,
    _ClassDraw,
    cavity_g1,
    one_rsb_spec,
    rs_spec,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
from potts_af.replica import _class_alias, _class_table, class_rows, class_table_fits
from potts_af.util import BudgetExceededError, philox

GAP = -0.73


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_class_rows_counts_the_table(q):
    for k_top in (0, 1, 2, 5, 12, 30):
        assert class_rows(k_top, q) == len(_class_table(k_top, q)[1])


def test_class_table_past_its_budget_raises_before_building():
    assert not class_table_fits(230, 5)
    with pytest.raises(BudgetExceededError, match="1000000 rows"):
        replica._class_table(230, 5)
    assert not class_table_fits(0, replica.MAX_CLASS_Q + 1)
    with pytest.raises(BudgetExceededError, match="q!"):
        replica.rs_bound(1.0, 1.0, replica.MAX_CLASS_Q + 1, 0.001)


@pytest.mark.parametrize("q, k_top", [(2, 60), (3, 40), (4, 30), (5, 20), (9, 14)])
def test_alias_tables_reproduce_class_probabilities(q, k_top):
    accept, alias, bounds = _class_alias(k_top, q)
    logw = _class_table(k_top, q)[2]
    for k in range(k_top + 1):
        lo, hi = bounds[k], bounds[k + 1]
        assert np.all((accept[lo:hi] >= 0.0) & (accept[lo:hi] <= 1.0))
        assert np.all((alias[lo:hi] >= lo) & (alias[lo:hi] < hi))
        # row r is kept with probability accept[r] and lends the rest to alias[r]
        mass = accept[lo:hi].copy()
        np.add.at(mass, alias[lo:hi] - lo, 1.0 - accept[lo:hi])
        np.testing.assert_allclose(mass / (hi - lo), np.exp(logw[lo:hi]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [
    [0.375, 0.375, 0.125, 0.125],  # a light's deficit starts exactly where a heavy's excess ends
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.0, 0.25, 0.125, 0.125],
    [0.1, 0.6, 0.05, 0.25],
])
def test_alias_fill_reproduces_dyadic_ties(p):
    p = np.array(p)
    accept, alias = np.ones(len(p)), np.arange(len(p)) + 10
    replica._alias_fill(p, accept, alias, 10)
    mass = accept.copy()
    np.add.at(mass, alias - 10, 1.0 - accept)
    np.testing.assert_allclose(mass / len(p), p, rtol=0, atol=1e-15)


def _per_slot_classes(rng, q, k, draws):
    """Class rows and ln S from k explicit uniform colours per draw."""
    counts, _, _, bounds = _class_table(k, q)
    lo = bounds[k]
    row_of = {tuple(counts[:, r]): r for r in range(lo, bounds[k + 1])}
    colours = rng.integers(0, q, size=(draws, k))
    per_colour = np.stack([(colours == s).sum(axis=1) for s in range(q)], axis=1)
    profiles = -np.sort(-per_colour, axis=1)
    rows = np.array([row_of[tuple(p)] for p in profiles.tolist()])
    log_s = np.log(np.exp(GAP * per_colour).sum(axis=1))
    return rows, log_s


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_class_draws_match_per_slot_counting(q, k):
    draws = 20_000
    rng = philox([q, k, 31])
    sampler = _ClassDraw(q, GAP)
    assert sampler.covers(k)
    new_rows = sampler.rows(rng, np.full((draws, 1), k), 1).reshape(-1)
    new_log_s = sampler.log_s[new_rows]
    old_rows, old_log_s = _per_slot_classes(rng, q, k, draws)
    bounds = _class_table(k, q)[3]
    assert np.all((new_rows >= bounds[k]) & (new_rows < bounds[k + 1]))
    for r in range(bounds[k], bounds[k + 1]):
        f_new, f_old = np.mean(new_rows == r), np.mean(old_rows == r)
        pooled = 0.5 * (f_new + f_old)
        assert abs(f_new - f_old) <= 5 * math.sqrt(pooled * (1 - pooled) * 2 / draws), r
    spread = math.sqrt((new_log_s.var() + old_log_s.var()) / draws)
    assert abs(new_log_s.mean() - old_log_s.mean()) <= 5 * spread + 1e-12


def _same_law(a, b):
    assert abs(a.value - b.value) <= (4 * math.hypot(a.stat_error, b.stat_error)
                                      + a.bias_estimate + b.bias_estimate), (a, b)


@pytest.mark.parametrize("spec, hier", [
    (CascadeSpec((0.5,)), uniform_hierarchy(3)),  # sampled uniform leaves
    (one_rsb_spec(0.5), symmetric_t_hierarchy(3, 0.5)),  # integrated leaves
    (rs_spec(), symmetric_t_hierarchy(3, -0.4)),
])
def test_chain_fallback_gives_the_same_law(monkeypatch, spec, hier):
    params = ModelParams(q=3, beta=1.0, c=2.0)
    args = (params, 3, spec, hier)
    kw = dict(samples=400, method="monte-carlo", n_atoms=64)
    paths = {"class": 0, "chain": 0}

    def counted(path, fn):
        def wrapper(*a, **k):
            paths[path] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(cascade._ClassDraw, "draw", counted("class", cascade._ClassDraw.draw))
    monkeypatch.setattr(cascade, "_leaf_counts", counted("chain", cascade._leaf_counts))
    classes = cavity_g1(*args, seed=5, **kw)
    assert paths["class"] > 0 == paths["chain"]
    # no class table fits: every block takes the binomial chain
    monkeypatch.setattr(replica, "MAX_CLASS_ROWS", 0)
    paths.update({"class": 0, "chain": 0})
    chain = cavity_g1(*args, seed=6, **kw)
    assert paths["chain"] > 0 == paths["class"]
    # tables for k <= 6 only: blocks with a larger k take the chain
    monkeypatch.setattr(replica, "MAX_CLASS_ROWS", class_rows(6, 3))
    paths.update({"class": 0, "chain": 0})
    mixed = cavity_g1(*args, seed=7, **kw)
    assert paths["class"] > 0 and paths["chain"] > 0
    assert len({classes.value, chain.value, mixed.value}) == 3
    _same_law(classes, chain)
    _same_law(classes, mixed)


def test_oversized_class_table_takes_the_chain():
    # _class_table(230, 5) is over budget, so these blocks never build one
    params = ModelParams(q=5, beta=1.0, c=150.0)
    for spec in (CascadeSpec((0.5,)), one_rsb_spec(0.5)):
        est = cavity_g1(params, 2, spec, uniform_hierarchy(5), samples=8, seed=3,
                        method="monte-carlo", n_atoms=16)
        assert math.isfinite(est.value) and math.isfinite(est.stat_error)


def test_q_past_factorial_range_takes_the_chain():
    q = replica.MAX_CLASS_Q + 1
    est = cavity_g1(ModelParams(q=q, beta=1.0, c=1.0), 2, rs_spec(), uniform_hierarchy(q),
                    samples=8, seed=3, method="monte-carlo")
    assert math.isfinite(est.value)
