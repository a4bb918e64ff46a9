from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import logsumexp as scipy_logsumexp

import potts_af.util as util
from potts_af.util import (
    BudgetExceededError,
    child_seed,
    log_factorial,
    logsumexp,
    multinomial_table,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
    stream,
)


@pytest.mark.parametrize("kmax", [0, 1, 7])
def test_poisson_pmf_at_zero_mean_is_the_point_mass_at_zero(kmax):
    pmf = poisson_pmf_vector(kmax, 0.0)
    assert pmf.shape == (kmax + 1,) and pmf[0] == 1.0 and not pmf[1:].any()


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


@st.composite
def poisson_points(draw):
    lam = draw(st.floats(1e-3, 1000.0))
    return draw(st.integers(0, int(3 * lam) + 60)), lam


@settings(max_examples=300, deadline=None)
@given(poisson_points())
def test_poisson_sf_matches_mpmath(point):
    k, lam = point
    got = poisson_sf(k, lam)
    with mpmath.workdps(40):
        exact = mpmath.gammainc(k, 0, lam, regularized=True) if k > 0 else mpmath.mpf(1)
        ref = float(exact)
        assert abs(got - ref) <= 1e-12
        # relative checks where the tail is a normal float; below 1e-290 the
        # pmf itself underflows and only the absolute error means anything
        if 1e-290 < ref < 0.5:
            assert abs(got - ref) <= 1e-11 * ref
        if ref > 1e-290:
            assert got >= exact * (1 - mpmath.mpf(1e-15))  # an upper bound on the tail


def test_poisson_sf_edges():
    assert poisson_sf(0, 3.0) == poisson_sf(-2, 3.0) == 1.0
    assert poisson_sf(1, 0.0) == 0.0
    assert poisson_sf(40, math.inf) == 1.0
    assert math.isnan(poisson_sf(40, math.nan))
    assert poisson_sf(1, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-14)
    assert poisson_sf(5000, 10.0) == 0.0  # the pmf underflows


@pytest.mark.parametrize("c, n", [(1.0, 6), (4.0, 3), (2.0, 4), (3.0, 5)])
def test_poisson_weight_integrates_to_a_tail(c, n):
    # int_0^c pi_{c'N/2}(k) dc' = (2/N) P(Poisson(cN/2) >= k + 1): the sum
    # rule's exact c' integral, against a 24-node Gauss-Legendre rule
    x, w = np.polynomial.legendre.leggauss(24)
    pmfs = [poisson_pmf_vector(40, node) for node in 0.25 * c * n * (x + 1.0)]
    quad = 0.5 * c * np.tensordot(w, pmfs, axes=1)
    exact = [2.0 / n * poisson_sf(k + 1, 0.5 * c * n) for k in range(41)]
    np.testing.assert_allclose(quad, exact, rtol=1e-12, atol=1e-15)  # poisson_sf's margin


def test_log_factorial_matches_lgamma_across_regrowth(monkeypatch):
    monkeypatch.setattr(util, "_LOG_FACTORIAL", np.zeros(1))
    assert log_factorial(0) == 0.0
    assert log_factorial(7) == math.lgamma(8.0)
    size = len(util._LOG_FACTORIAL)
    ks = np.arange(3000).reshape(30, 100)
    got = log_factorial(ks)  # grows the table past its first size
    assert len(util._LOG_FACTORIAL) >= 3000 > size
    assert got.shape == ks.shape
    assert np.array_equal(got.ravel(), [math.lgamma(k + 1.0) for k in range(3000)])
    assert log_factorial(np.arange(0)).shape == (0,)
    with pytest.raises(ValueError):
        log_factorial(-1)


@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
def test_stream_depends_only_on_the_seed(seed):
    # seeded outputs, the CLI's included, rest on this: an int seed and its
    # SeedSequence give one stream, and every child seed its own
    draws = stream(seed).random(64)
    assert isinstance(stream(seed).bit_generator, np.random.SFC64)
    np.testing.assert_array_equal(stream(np.random.SeedSequence(seed)).random(64), draws)
    np.testing.assert_array_equal(stream(seed).random(64), draws)
    children = [stream(child_seed(seed, k)).random(64) for k in range(4)]
    np.testing.assert_array_equal(stream(child_seed(seed, 2)).random(64), children[2])
    streams = [draws] + children
    assert all(not np.array_equal(a, b) for a, b in itertools.combinations(streams, 2))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("k", [0, 1, 5, 19, np.int64(12)])
def test_child_seed_is_the_spawned_child(seed, k):
    # child k made alone is child k of SeedSequence.spawn, the split the
    # strata and chunk streams used when every child was spawned up front
    spawned = np.random.SeedSequence(seed).spawn(int(k) + 1)[int(k)]
    child = child_seed(seed, k)
    assert child.spawn_key == spawned.spawn_key == (int(k),)
    np.testing.assert_array_equal(child.generate_state(8), spawned.generate_state(8))
    np.testing.assert_array_equal(stream(child).random(64), stream(spawned).random(64))
