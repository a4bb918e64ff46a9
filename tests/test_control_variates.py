"""Cross-fitted control variates of the cascade Monte Carlo.

The pass returns per-draw control columns with mean exactly 0: the slot
and pair counts minus their Poisson means, and, on trees with more than
one leaf, the cascade-weighted deviation of the leaves from their
conditional means given those counts.  Every estimate subtracts them at
coefficients fitted on the other half of the draws, so it stays unbiased
and its stat_error is calibrated, and a row the controls explain
completely keeps a stat_error no smaller than its rounding.  The sums
behind every estimate are util.CrossFitSums', checked here at the pass's
three value rows against the per-draw oracle.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import combined_error
from potts_af import cascade, util
from potts_af.cascade import (
    annealed_spec,
    cavity_g1,
    cavity_g2,
    cavity_terms,
    rsb_upper_bound,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
from test_coupled_pass import ATOMS, BENCH, CONFIGS, N, run_mc
from test_kernel_oracle import cross_fitted

ALL = {**CONFIGS, "annealed": (BENCH, annealed_spec(), uniform_hierarchy(2))}


@pytest.mark.parametrize("config", list(ALL))
def test_control_columns_have_mean_zero(config):
    params, spec, hier = ALL[config]
    draws = 20_000
    _, controls, _ = run_mc(params, 3, spec, hier, draws, 61, 32)
    assert controls.shape == ((4 if spec.atom_levels else 2), draws)
    se = controls.std(axis=1, ddof=1) / math.sqrt(draws)
    assert np.all(se > 0)
    assert np.all(np.abs(controls.mean(axis=1)) <= 5 * se), controls.mean(axis=1) / se


@pytest.mark.parametrize("config", ["l1", "rs", "one_rsb", "annealed"])
def test_controlled_bound_matches_the_closed_form(config):
    params, spec, hier = ALL[config]
    closed = rsb_upper_bound(params, N, spec, hier, method="closed-form")
    mc = rsb_upper_bound(params, N, spec, hier, samples=1000, seed=62, method="monte-carlo",
                         n_atoms=ATOMS)
    assert abs(mc.value - closed.value) <= combined_error(closed, mc)


@pytest.mark.parametrize("config", ["sampled, t > 0", "two levels"])
def test_controlled_bound_matches_the_raw_mean(config):
    # no closed form here: the adjustment may only move the bound within the
    # raw mean's error, which bounds that of the mean correction
    params, spec, hier = ALL[config]
    vals, _, _ = run_mc(params, N, spec, hier, 1000, 63, ATOMS)
    diff = vals[0] - vals[1]
    raw_error = diff.std(ddof=1) / math.sqrt(len(diff))
    bound = rsb_upper_bound(params, N, spec, hier, samples=1000, seed=63,
                            method="monte-carlo", n_atoms=ATOMS)
    assert abs(bound.value - diff.mean()) <= 4 * raw_error
    assert bound.stat_error < raw_error


@pytest.mark.parametrize("config", ["one_rsb", "two levels"])
def test_stat_error_is_calibrated_across_seeds(config):
    # the truncation bias is common to every seed, so the spread about the
    # seeds' mean measures the statistical error alone
    params, spec, hier = ALL[config]
    ests = [rsb_upper_bound(params, 3, spec, hier, samples=200, seed=seed,
                            method="monte-carlo", n_atoms=32) for seed in range(40)]
    values = np.array([e.value for e in ests])
    z = (values - values.mean()) / np.array([e.stat_error for e in ests])
    assert 0.7 <= z.std(ddof=1) <= 1.4


def test_annealed_g2_needs_the_rounding_floor(monkeypatch):
    # the annealed G2 has gap 0 and is linear in K, so the pair-count column
    # explains it completely and only rounding is left: its spread reads 0,
    # so without the floor stat_error is 0, and a value that differs from
    # the closed form by its rounding fails the check
    params, hier = ModelParams(q=3, beta=0.7, c=2.0), uniform_hierarchy(3)
    closed = cavity_g2(params, 3, annealed_spec(), hier)

    def estimates():
        return [cavity_g2(params, 3, annealed_spec(), hier, samples=4096, seed=seed,
                          method="monte-carlo") for seed in range(3)]

    def check(mc):
        return abs(mc.value - closed.value) <= 4 * mc.stat_error

    assert all(check(mc) for mc in estimates())
    monkeypatch.setattr(util, "_rounding", lambda size, tol: np.zeros_like(size))
    bare = estimates()
    assert all(mc.stat_error == 0.0 for mc in bare)
    assert any(mc.value != closed.value for mc in bare)
    assert not any(check(mc) for mc in bare if mc.value != closed.value)


@pytest.mark.parametrize("config", ["rs", "annealed"])
def test_one_leaf_trees_have_no_leaf_columns(config):
    params, spec, hier = ALL[config]
    _, controls, _ = run_mc(params, 3, spec, hier, 50, 64, ATOMS)
    assert controls.shape == (2, 50)
    if config == "rs":
        # the sampled leaf keeps its variance: the estimate is no closed form
        assert cavity_g2(params, 3, spec, hier, samples=400, seed=64,
                         method="monte-carlo").stat_error > 1e-4


@pytest.mark.parametrize("samples", [2, 3])
@pytest.mark.parametrize("config", list(ALL))
def test_fewest_samples_stay_finite_without_warnings(config, samples):
    params, spec, hier = ALL[config]
    kw = dict(samples=samples, seed=65, method="monte-carlo", n_atoms=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = [*cavity_terms(params, 3, spec, hier, **kw),
                cavity_g1(params, 3, spec, hier, **kw), cavity_g2(params, 3, spec, hier, **kw)]
    for est in ests:
        assert math.isfinite(est.value) and math.isfinite(est.stat_error)
        assert type(est.stat_error) is float and est.stat_error > 0


@pytest.mark.parametrize("config", ["l1", "one_rsb"])
def test_leaf_column_is_zero_without_a_class_table(monkeypatch, config):
    params, spec, hier = ALL[config]
    args = (params, N, spec, hier)
    kw = dict(samples=1000, seed=66, method="monte-carlo", n_atoms=ATOMS)
    _, controls, _ = run_mc(*args, 200, 66, ATOMS)
    assert np.all(controls[2] != 0)
    monkeypatch.setattr(cascade, "class_table_fits", lambda k_top, q: False)
    _, controls, _ = run_mc(*args, 200, 66, ATOMS)
    assert np.all(controls[2] == 0) and np.all(controls[3] != 0)
    closed = rsb_upper_bound(*args, method="closed-form")
    mc = rsb_upper_bound(*args, **kw)
    assert abs(mc.value - closed.value) <= combined_error(closed, mc)


@pytest.mark.parametrize("width", [64, 7])
def test_accumulator_matches_the_per_draw_oracle_at_three_values(width):
    # two owners' draws of G1, G2 and G1 - G2 with four controls, packed
    # into blocks of at most `width` columns as runs of each owner's
    # consecutive draws, some blocks holding both owners and some runs
    # straddling an owner's cut between its halves
    rng = np.random.default_rng(8)
    k, draws = 4, [301, 150]
    data = []
    for size in draws:
        controls = rng.normal(size=(size, k))
        terms = 2.0 + controls @ rng.normal(size=(k, 2)) + 0.1 * rng.normal(size=(size, 2))
        data.append((np.column_stack([terms, terms[:, 0] - terms[:, 1]]), controls))
    # the owners take turns in pieces of 23 draws
    order = [(owner, i) for lo in range(0, max(draws), 23) for owner, size in enumerate(draws)
             for i in range(lo, min(lo + 23, size))]
    sums = util.CrossFitSums(draws, k, 3, width)
    for start in range(0, len(order), width):
        columns = order[start:start + width]
        w = sums.w[:, :len(columns)]
        for col, (owner, i) in enumerate(columns):
            values, controls = data[owner]
            w[1:k + 4, col] = np.concatenate([controls[i], values[i]])
        runs = [list(run) for _, run in itertools.groupby(columns, key=lambda col: col[0])]
        sums.add([run[0][0] for run in runs], [len(run) for run in runs],
                 [run[0][1] for run in runs])
    means, sems = sums.result()
    assert means.shape == sems.shape == (2, 3)
    for owner, (values, controls) in enumerate(data):
        expect_means, expect_sems = cross_fitted(values, controls)
        np.testing.assert_allclose(means[owner], expect_means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sems[owner], expect_sems, rtol=1e-9)
