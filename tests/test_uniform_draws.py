"""Uniform-index draws of pair placements and G2 leaf matches against numpy's laws.

The disorder engine counts M uniform pair indices per row (one bincount)
where numpy's multinomial would run a binomial chain over the P pairs,
and keeps the multinomial past 8P edges.  quenched_pressure_mc draws the
pair-edge count M ~ Poisson(c(N-1)/2) and places M uniform edges, which
by Poisson splitting is the law of P iid Poisson(c/N) pair sums.  The
cascade G2 draws each uniform leaf's Binomial(K, 1/q) match count with one
uniform from a Walker alias table, and keeps numpy's binomial where the
tables would not fit.  Each law is compared with numpy's own sampler in
mean and covariance within 5 standard errors.  The input checks of the
stratified estimators are tested here too.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from potts_af import cascade, disorder, replica
from potts_af.cascade import (CascadeSpec, _leaf_matches, cavity_g2, one_rsb_spec,
                              uniform_hierarchy)
from potts_af.disorder import (_placements, quenched_pressure_exact, quenched_pressure_mc,
                               sum_rule_deficit)
from potts_af.model import ModelParams
from potts_af.replica import _binomial_alias, binomial_table_fits
from potts_af.util import MAX_MC_SAMPLES, BudgetExceededError, stream

DRAWS = 20_000


def assert_same_law(new: np.ndarray, old: np.ndarray, sigmas: float = 5.0):
    """Mean and covariance of two (draws, dim) samples agree within `sigmas` SE."""
    def moments(x):
        d = x - x.mean(axis=0)
        prods = d[:, :, None] * d[:, None, :]
        return (x.mean(axis=0), x.var(axis=0) / len(x),
                prods.mean(axis=0), prods.var(axis=0) / len(x))

    m1, v1, c1, w1 = moments(new.astype(float))
    m2, v2, c2, w2 = moments(old.astype(float))
    assert np.all(np.abs(m1 - m2) <= sigmas * np.sqrt(v1 + v2) + 1e-12), (m1, m2)
    assert np.all(np.abs(c1 - c2) <= sigmas * np.sqrt(w1 + w2) + 1e-12), (c1, c2)


# ---------------------------------------------------------------------------
# pair placements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, m", [(1, 3), (3, 1), (3, 24), (3, 25), (6, 47), (6, 48), (6, 49),
                                  (10, 130)])
def test_placements_match_multinomial(p, m):
    # 8P edges is the last row length counted from indices; 8P + 1 takes the chain
    rng = stream([p, m, 41])
    new = _placements(rng, p, np.full(DRAWS, m))
    assert new.shape == (DRAWS, p) and np.all(new.sum(axis=1) == m)
    assert_same_law(new, rng.multinomial(m, np.full(p, 1.0 / p), size=DRAWS))


def test_mixed_batch_matches_multinomial_row_by_row():
    p, lengths = 4, np.array([0, 3, 32, 33, 70])  # 8P = 32: two rows counted, two chained
    rng = stream(43)
    m = np.tile(lengths, DRAWS)
    new = _placements(rng, p, m)
    assert np.all(new.sum(axis=1) == m)
    for length in lengths:
        assert_same_law(new[m == length], rng.multinomial(length, np.full(p, 0.25), size=DRAWS))


class _NoLongIndexDraws:
    """A generator whose integers() fails for more indices than 8P per
    short row allows."""

    def __init__(self, rng: np.random.Generator, limit: int):
        self.rng, self.limit = rng, limit

    def integers(self, low, high, size):
        if size > self.limit:
            raise AssertionError(f"{size} indices drawn, at most {self.limit} allowed")
        return self.rng.integers(low, high, size=size)

    def multinomial(self, n, pvals):
        return self.rng.multinomial(n, pvals)


def test_long_rows_draw_no_edge_indices():
    p, m = 6, np.array([5, 10**12, 48, 10**9, 0])
    rows = _placements(_NoLongIndexDraws(stream(3), 5 + 48), p, m)
    np.testing.assert_array_equal(rows.sum(axis=1), m)
    assert rows[1].min() > 10**11  # a 10^12-edge row is spread over every pair


def test_pressure_mc_rows_are_iid_poisson_pair_sums(monkeypatch):
    q, beta, c, n, samples = 2, 1.0, 3.0, 4, 12_000  # several 2 048-row chunks
    seen = []
    kernel = disorder._lnz_batch

    def recording(rows, *args):
        seen.append(rows.copy())
        return kernel(rows, *args)

    monkeypatch.setattr(disorder, "_lnz_batch", recording)
    quenched_pressure_mc(ModelParams(q=q, beta=beta, c=c), n, samples, seed=9)
    new = np.concatenate(seen)
    assert new.shape == (samples, n * (n - 1) // 2)
    assert_same_law(new, stream(10).poisson(c / n, size=new.shape))


def test_pressure_mc_at_huge_c_is_finite_and_quick():
    start = time.perf_counter()
    est = quenched_pressure_mc(ModelParams(q=3, beta=1.0, c=1e12), 4, samples=2000, seed=1)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(est.value) and math.isfinite(est.stat_error)


# ---------------------------------------------------------------------------
# input checks of the stratified estimators
# ---------------------------------------------------------------------------

@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew or split seeds before checking inputs")

    monkeypatch.setattr(disorder, "stream", refuse)
    monkeypatch.setattr(disorder, "child_seed", refuse)


PARAMS = ModelParams(q=2, beta=1.0, c=4.0)


@pytest.mark.parametrize("mc_samples", [0, -3])
def test_quenched_pressure_rejects_fewer_than_one_sample(no_draws, mc_samples):
    with pytest.raises(ValueError, match="mc_samples must be an integer >= 1"):
        quenched_pressure_exact(PARAMS, 6, eps=2e-4, mc_samples=mc_samples)


@pytest.mark.parametrize("estimator, planned", [
    (lambda: quenched_pressure_exact(PARAMS, 6, eps=1e-6, mc_samples=MAX_MC_SAMPLES), 3_480_792),
    (lambda: sum_rule_deficit(PARAMS, 6, 4, 3), 4_003_352),
], ids=["quenched_pressure_exact", "sum_rule_deficit"])
def test_planned_sample_total_is_capped(no_draws, monkeypatch, estimator, planned):
    # mc_samples (the sum rule's SUM_RULE_MC_SAMPLES) itself is at the cap,
    # but the strata would draw `planned` samples in all: refused before any
    # seed is split
    monkeypatch.setattr(disorder, "SUM_RULE_MC_SAMPLES", MAX_MC_SAMPLES)
    with pytest.raises(BudgetExceededError,
                       match=f"^{planned} Monte Carlo samples exceed {MAX_MC_SAMPLES}$"):
        estimator()


# ---------------------------------------------------------------------------
# G2 leaf matches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_binomial_alias_tables_reproduce_binomial_probabilities(q):
    accept, pick, bounds = _binomial_alias(60, q)
    assert pick.size == 2 * accept.size
    for k in range(61):
        lo, hi = bounds[k], bounds[k + 1]
        assert hi - lo == k + 1
        assert np.all((accept[lo:hi] >= 0.0) & (accept[lo:hi] <= 1.0))
        # row lo + j carries its own match count j, then the count of its alias
        np.testing.assert_array_equal(pick[2 * lo + 1:2 * hi:2], np.arange(k + 1))
        # the counts are stored as floats, for one float gather; each is whole
        alias = pick[2 * lo:2 * hi:2].astype(np.int64)
        np.testing.assert_array_equal(alias, pick[2 * lo:2 * hi:2])
        assert np.all((alias >= 0) & (alias <= k))
        mass = accept[lo:hi].copy()
        np.add.at(mass, alias, 1.0 - accept[lo:hi])
        pmf = [math.comb(k, j) * q**-j * (1 - 1 / q) ** (k - j) for j in range(k + 1)]
        np.testing.assert_allclose(mass / (k + 1), pmf, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_alias_matches_follow_the_binomial_law(q):
    # varying K per draw, two leaves per draw: the leaves are independent given K
    rng = stream([q, 47])
    k = rng.poisson(6.0, size=DRAWS)
    new = _leaf_matches(rng, k, q, None, 1, 2).reshape(DRAWS, 2)
    old = rng.binomial(k[:, None], 1.0 / q, size=(DRAWS, 2))
    assert_same_law(np.column_stack([new, k]), np.column_stack([old, k]))
    assert np.all((new >= 0) & (new <= k[:, None]))


def test_oversized_binomial_table_takes_numpy_binomial(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a binomial alias table past the cap")

    # K ~ Poisson(c n / 2) = Poisson(2000) at n = 2: (K+1)(K+2)/2 passes MAX_CLASS_ROWS
    assert not binomial_table_fits(1900)
    monkeypatch.setattr(cascade, "_binomial_alias", no_table)
    params = ModelParams(q=3, beta=1.0, c=2000.0)
    for spec in (CascadeSpec((0.5,)), one_rsb_spec(0.5)):
        est = cavity_g2(params, 2, spec, uniform_hierarchy(3), samples=8, seed=3,
                        method="monte-carlo", n_atoms=16)
        assert math.isfinite(est.value) and math.isfinite(est.stat_error)


def test_capped_tables_draw_the_same_law(monkeypatch):
    q, k = 3, np.full(DRAWS, 10)
    alias = _leaf_matches(stream(5), k, q, None, 1, 2).reshape(DRAWS, 2)
    monkeypatch.setattr(replica, "MAX_CLASS_ROWS", 10 * 11 // 2)  # k <= 9 fits, 10 does not
    monkeypatch.setattr(cascade, "_binomial_alias", None)
    chained = _leaf_matches(stream(6), k, q, None, 1, 2).reshape(DRAWS, 2)
    assert_same_law(alias, chained)
