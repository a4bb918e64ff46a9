"""The gap-pattern tables and the batched truncation orders of profile_sum.

A class's ln W is k ln B + n_ref d - ln q + ln(1 + sum_{s != ref}
e^{(n_s - n_ref) d}) with d = ln A - ln B; the last term is read from the
class's gap pattern.  Each t's k_max and tail come from one run of Poisson
tails instead of one search per t, and must equal that search exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import potts_af.replica as replica
from potts_af.replica import K_SUM_CAP, _class_table, _gap_table, factor_logs, profile_sum
from potts_af.util import logsumexp, poisson_cutoff, poisson_sf


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("k_top", [0, 1, 9, 30])
def test_patterns_hold_each_class_less_its_smallest_count(q, k_top):
    counts, slots, _, bounds = _class_table(k_top, q)
    (pattern, ref, pattern_class_bounds), (gaps, pattern_bounds) = _gap_table(k_top, q)
    assert np.array_equal(pattern_class_bounds, bounds)
    assert np.array_equal(ref, [counts[0], counts[-1]])
    assert gaps.shape == (q - 1, 2, pattern_bounds[-1])
    assert np.array_equal(gaps[:, 0, pattern], counts[0] - counts[1:])
    assert np.array_equal(gaps[:, 1, pattern], counts[:-1] - counts[-1])
    # numbered in order of first appearance, which is at smallest count 0
    first = np.flatnonzero(counts[-1] == 0)
    assert np.array_equal(pattern[first], np.arange(first.size))
    assert np.all(np.diff(np.maximum.accumulate(pattern), prepend=-1) <= 1)
    assert np.array_equal(pattern_bounds, np.searchsorted(slots[first], np.arange(k_top + 2)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_patterns_reproduce_each_class_log_sum_exp(q):
    counts, slots, _, _ = _class_table(24, q)
    (pattern, _, _), (gaps, _) = _gap_table(24, q)
    rng = np.random.default_rng(q)
    for log_a, log_b in [(-1.3, 0.4), (0.7, -0.2), (-2.0, 0.0), *rng.normal(size=(5, 2))]:
        want = logsumexp(counts * log_a + (slots - counts) * log_b, axis=0) - math.log(q)
        d = log_a - log_b
        side = int(d < 0.0)
        ref = counts[-1] if side else counts[0]
        spread = np.log1p(np.exp(gaps[:, side] * -abs(d)).sum(axis=0))
        got = slots * log_b + ref * d - math.log(q) + spread[pattern]
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gap_table_prefix_is_bit_identical(q):
    build = _gap_table.__wrapped__
    largest = _gap_table(34, q)
    for k_top in (0, 5, 17, 34):
        served, fresh = _gap_table(k_top, q), build(k_top, q)
        assert np.shares_memory(served[1][0], largest[1][0])  # a prefix view, not a rebuild
        for got, want in zip(served, fresh):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def per_t_cutoffs(c, mag, eps):
    """k_max and tail of each t from its own search, as profile_sum made them
    before it shared one run of tails between the t."""
    out = []
    for size in np.asarray(mag, dtype=np.float64).reshape(-1).tolist():
        if c == 0.0 or size == 0.0:
            out.append((0, 0.0))
            continue
        k_tail = lambda k: size * c * poisson_sf(k, c)
        k_max = poisson_cutoff(k_tail, eps, K_SUM_CAP)
        out.append((k_max, k_tail(k_max)))
    return out


def assert_cutoffs_match(c, q, mag, eps):
    mag = np.asarray(mag, dtype=np.float64)
    _, tail, k_max = profile_sum(c, q, -mag, np.zeros_like(mag), 0.0, eps)
    want = per_t_cutoffs(c, mag, eps)
    assert k_max.tolist() == [k for k, _ in want]
    assert tail.tolist() == [t for _, t in want]  # bit for bit


@pytest.mark.parametrize("c", [0.3, 4.0, 10.0, 37.5])
def test_batched_cutoffs_equal_per_t_search(c):
    rng = np.random.default_rng(int(10 * c))
    assert_cutoffs_match(c, 2, [0.8], 1e-10)  # one t
    assert_cutoffs_match(c, 2, [0.6] * 7, 1e-10)  # equal sizes
    # random sizes over six decades span several k_max; zeros stay out of the run
    mag = 10.0 ** rng.uniform(-4, 2, 64)
    mag[::9] = 0.0
    for eps in (1e-6, 1e-10, 1e-13):
        assert len({k for k, _ in per_t_cutoffs(c, mag, eps)}) > 3
        assert_cutoffs_match(c, 3, mag, eps)


def test_batched_cutoffs_on_an_rs_grid():
    q, beta, c = 3, 2.0, 10.0
    mag = np.array([max(map(abs, factor_logs(beta, q, float(t)))) for t in replica.t_grid(q, 201)])
    assert len({k for k, _ in per_t_cutoffs(c, mag, 1e-10)}) > 3  # several k_max
    assert_cutoffs_match(c, q, mag, 1e-10)


def test_batched_cutoffs_share_the_probes_of_one_search(monkeypatch):
    # a single t evaluates no tail beyond those its own search probes
    calls = []

    def counted(k, lam):
        calls.append(k)
        return poisson_sf(k, lam)

    monkeypatch.setattr(replica, "poisson_sf", counted)
    profile_sum(10.0, 2, -1.0, 0.0, 0.0, 1e-10)
    probes = len(calls)
    calls.clear()
    poisson_cutoff(lambda k: 1.0 * 10.0 * counted(k, 10.0), 1e-10, K_SUM_CAP)
    assert probes == len(set(calls))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0.0, 0.5])
def test_batched_t_keep_the_bits_of_their_own_calls(q, m):
    # truncation orders more than q apart, so the classes between two of
    # them hold several of one gap pattern
    ts = np.array([1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    log_a, log_b = factor_logs(1.5, q, ts)
    value, _, k_max = profile_sum(10.0, q, log_a, log_b, m, 1e-10)
    assert np.diff(np.unique(k_max)).max() > q
    for j in range(ts.size):
        assert profile_sum(10.0, q, float(log_a[j]), float(log_b[j]), m, 1e-10)[0] == value[j]
