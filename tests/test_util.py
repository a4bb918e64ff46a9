from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from scipy.special import logsumexp as scipy_logsumexp

from potts_af.util import (
    BudgetExceededError,
    logsumexp,
    multinomial_table,
    poisson_cutoff,
    poisson_sf,
)


def pressure_tail(beta: float, n: int, c: float):
    """(beta/N) E[K 1{K > k}] for K ~ Poisson(cN/2): the quenched-pressure form."""
    lam = c * n / 2.0
    return lambda k: (beta / n) * lam * poisson_sf(k, lam)


def sum_rule_tail(c: float, n: int):
    """P(K > k) for K ~ Poisson(cN/2): the sum-rule form."""
    lam = c * n / 2.0
    return lambda k: poisson_sf(k + 1, lam)


def assert_minimal(tail, target: float, k: int) -> None:
    assert tail(k) <= target
    assert k == 0 or tail(k - 1) > target


@pytest.mark.parametrize("beta, n, c, target, expected", [
    (2.0, 6, 4.0, 0.5e-6, 35),
    (2.0, 6, 4.0, 0.5 * 2e-4, 29),
    (2.0, 4, 4.0, 0.5 * 2e-4, 23),
])
def test_pressure_cutoff_is_minimal(beta, n, c, target, expected):
    tail = pressure_tail(beta, n, c)
    k = poisson_cutoff(tail, target, 100_000)
    assert k == expected
    assert_minimal(tail, target, k)


@pytest.mark.parametrize("c, n, target, expected", [(1.0, 6, 1e-10, 19)])
def test_sum_rule_cutoff_is_minimal(c, n, target, expected):
    tail = sum_rule_tail(c, n)
    k = poisson_cutoff(tail, target, 100_000)
    assert k == expected
    assert_minimal(tail, target, k)


def test_cutoff_minimal_across_scales():
    for lam in (0.01, 0.3, 1.0, 7.5, 40.0, 300.0):
        for target in (1e-2, 1e-6, 1e-12):
            tail = lambda k: lam * poisson_sf(k, lam)
            assert_minimal(tail, target, poisson_cutoff(tail, target, 100_000))


def test_cutoff_zero_when_bound_already_met():
    assert poisson_cutoff(lambda k: 0.0, 1e-9, 10) == 0
    assert poisson_cutoff(pressure_tail(0.0, 3, 4.0), 1e-9, 10) == 0


def test_cutoff_budget_and_nan():
    with pytest.raises(BudgetExceededError):
        poisson_cutoff(pressure_tail(2.0, 6, 4.0), 1e-6, 20)
    with pytest.raises(BudgetExceededError):
        poisson_cutoff(pressure_tail(2.0, 6, 4.0), math.nan, 1000)


@pytest.mark.parametrize("k, cells", [(0, 1), (5, 1), (0, 4), (3, 2), (4, 3), (3, 5)])
def test_multinomial_table_is_every_composition(k, cells):
    log_probs = np.log(np.random.default_rng(k + cells).dirichlet(np.ones(cells)))
    counts, logw = multinomial_table(k, log_probs)
    brute = {}
    for draw in itertools.product(range(cells), repeat=k):
        key = tuple(np.bincount(np.asarray(draw, dtype=np.int64), minlength=cells))
        brute[key] = brute.get(key, 0.0) + math.exp(sum(log_probs[d] for d in draw))
    assert [tuple(row) for row in counts] == sorted(brute)  # lexicographic
    assert len(counts) == math.comb(k + cells - 1, k)
    for row, lw in zip(counts, logw):
        assert math.exp(lw) == pytest.approx(brute[tuple(row)], rel=1e-12)
    assert np.exp(logw).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape, axis", [((7,), None), ((5, 9), 1), ((5, 9), 0),
                                         ((3, 4, 2), -1), ((3, 4, 2), None)])
def test_logsumexp_matches_scipy(shape, axis):
    a = 40.0 * np.random.default_rng(len(shape)).standard_normal(shape)
    a.flat[0] = -np.inf
    np.testing.assert_allclose(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis),
                               rtol=1e-15, atol=1e-12)
    assert np.shape(logsumexp(a, axis=axis)) == np.shape(scipy_logsumexp(a, axis=axis))


def test_logsumexp_infinite_slices():
    a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [np.inf, 1.0]])
    out = logsumexp(a, axis=1)  # RuntimeWarnings are errors in the test suite
    assert out[0] == -np.inf and out[1] == 0.0 and out[2] == np.inf
    assert logsumexp(np.full(3, -np.inf)) == -np.inf
