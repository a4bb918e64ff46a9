"""The colour-class, batched-t profile sum against the per-composition sum.

The oracle below is the profile sum the replica module used before colour
classes: one t at a time, a loop over k, and at each k every colour
composition of k (C(k + q - 1, q - 1) of them) with its own multinomial
weight.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from potts_af.cascade import (
    CascadeSpec,
    cavity_g1,
    one_rsb_spec,
    rs_spec,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
from potts_af.replica import (
    K_SUM_CAP,
    PROFILE_EPS,
    _class_table,
    factor_logs,
    g1,
    profile_sum,
    rs_bound,
    t_grid,
)
from potts_af.util import (
    logsumexp,
    multinomial_table,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
)

TOL = 1e-12


@lru_cache(maxsize=None)
def old_composition_table(k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    counts, logw = multinomial_table(k, np.full(q, -math.log(q)))
    return np.ascontiguousarray(counts.T), logw


def old_profile_sum(c, q, log_a, log_b, m, eps):
    mag = max(abs(log_a), abs(log_b))
    if c == 0.0 or mag == 0.0:
        return 0.0, 0.0, 0
    k_tail = lambda k: mag * c * poisson_sf(k, c)
    k_max = poisson_cutoff(k_tail, eps, K_SUM_CAP)
    pmf = poisson_pmf_vector(k_max, c)
    total = 0.0
    for k in range(k_max + 1):
        counts, logw = old_composition_table(k, q)
        log_w = logsumexp(counts * log_a + (k - counts) * log_b, axis=0) - math.log(q)
        if m == 0.0:
            total += pmf[k] * float(np.exp(logw) @ log_w)
        else:
            total += pmf[k] * float(logsumexp(logw + m * log_w)) / m
    return total, k_tail(k_max), k_max


def partition_count(k: int, parts: int) -> int:
    """Partitions of k into at most `parts` parts."""
    if k == 0:
        return 1
    if parts == 0:
        return 0
    return sum(partition_count(k - parts * j, parts - 1) for j in range(k // parts + 1))


def rs_factors(beta, q, ts):
    return np.array([factor_logs(beta, q, float(t)) for t in ts]).T


def assert_matches_oracle(c, q, log_a, log_b, m, eps):
    value, tail, k_max = profile_sum(c, q, log_a, log_b, m, eps)
    for j in range(len(log_a)):
        ref = old_profile_sum(c, q, float(log_a[j]), float(log_b[j]), m, eps)
        assert abs(value[j] - ref[0]) <= TOL
        assert tail[j] == ref[1]
        assert k_max[j] == ref[2]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k_top", [0, 1, 7, 38])
def test_class_tables_hold_every_partition(q, k_top):
    counts, slots, logw, bounds = _class_table(k_top, q)
    assert counts.shape == (q, slots.size) and bounds[-1] == slots.size
    assert np.all(counts.sum(axis=0) == slots)
    assert np.all(np.diff(counts, axis=0) <= 0)
    for k in range(k_top + 1):
        run = slice(bounds[k], bounds[k + 1])
        assert np.all(slots[run] == k)
        assert bounds[k + 1] - bounds[k] == partition_count(k, q)
        assert np.exp(logw[run]).sum() == pytest.approx(1.0, abs=TOL)
    assert logw[0] == 0.0  # the one empty profile carries weight exactly 1


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
def test_rs_factors_match_oracle_over_the_t_domain(q, m):
    # both ends of the domain, t = 0 (mag = 0) and interior points of both signs
    beta, c, eps = 1.0, 3.0, 1e-10
    ts = np.concatenate([t_grid(q, 9), [0.0, 0.37]])
    log_a, log_b = rs_factors(beta, q, ts)
    assert_matches_oracle(c, q, log_a, log_b, m, eps)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
def test_l1_form_matches_oracle(q, m):
    # W = (1/q) sum_s e^(-beta n_s): log_a = -beta, log_b = 0
    betas = np.array([0.2, 1.0, 2.5])
    zeros = np.zeros(betas.size)
    assert_matches_oracle(4.0, q, -betas, zeros, m, 1e-10)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_zero_c_matches_oracle(q):
    log_a, log_b = rs_factors(1.0, q, t_grid(q, 5))
    assert_matches_oracle(0.0, q, log_a, log_b, 0.0, 1e-10)
    value, tail, k_max = profile_sum(0.0, q, log_a, log_b, 0.5, 1e-10)
    assert np.all(value == 0.0) and np.all(tail == 0.0) and np.all(k_max == 0)


def test_scalars_give_scalars():
    log_a, log_b = factor_logs(1.0, 3, 0.4)
    value, tail, k_max = profile_sum(2.0, 3, log_a, log_b, 0.0, 1e-10)
    assert type(value) is float and type(tail) is float and type(k_max) is int
    assert (value, tail, k_max) == pytest.approx(
        old_profile_sum(2.0, 3, log_a, log_b, 0.0, 1e-10), abs=TOL)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_g1_and_rs_bound_match_oracle(q):
    beta, c, eps = 1.3, 5.0, PROFILE_EPS
    for t in t_grid(q, 7):
        ref, ref_tail, ref_k = old_profile_sum(c, q, *factor_logs(beta, q, float(t)), 0.0, eps)
        value, tail = g1(beta, c, q, float(t))
        assert abs(value - ref) <= TOL and tail == ref_tail
        ev = rs_bound(beta, c, q, float(t))
        assert abs(ev.g1 - ref) <= TOL
        assert ev.tail_bound == ref_tail and ev.k_truncation == ref_k


@pytest.mark.parametrize("q", [2, 3])
def test_closed_form_cascades_match_oracle(q):
    beta, c, eps, t = 1.0, 4.0, PROFILE_EPS, 0.5
    params = ModelParams(q=q, beta=beta, c=c)
    offset = math.log(q) + c * math.log1p(math.expm1(-beta) / q)
    log_a, log_b = factor_logs(beta, q, t)
    for m in (0.25, 0.5, 0.75):
        est = cavity_g1(params, 3, CascadeSpec((m,)), uniform_hierarchy(q))
        ref, ref_tail, _ = old_profile_sum(c, q, -beta, 0.0, m, eps)
        assert abs(est.value - math.log(q) - ref) <= TOL and est.tail_bound == ref_tail
        est = cavity_g1(params, 3, one_rsb_spec(m), symmetric_t_hierarchy(q, t))
        ref, ref_tail, _ = old_profile_sum(c, q, log_a, log_b, m, eps)
        assert abs(est.value - offset - ref) <= TOL and est.tail_bound == ref_tail
    est = cavity_g1(params, 3, rs_spec(), symmetric_t_hierarchy(q, t))
    ref, ref_tail, _ = old_profile_sum(c, q, log_a, log_b, 0.0, eps)
    assert abs(est.value - offset - ref) <= TOL and est.tail_bound == ref_tail



@pytest.mark.parametrize("beta, c, q, points", [(1.0, 4.0, 2, 201), (2.0, 10.0, 3, 201),
                                                (1.0, 10.0, 4, 41)])
def test_benchmark_scan_grids_match_oracle(beta, c, q, points):
    # the RS scans of the benchmark's closed-form workload
    log_a, log_b = rs_factors(beta, q, t_grid(q, points))
    assert_matches_oracle(c, q, log_a, log_b, 0.0, PROFILE_EPS)


def test_zero_temperature_grid_matches_oracle():
    # at beta = inf, A = 1 - t > 0 for every grid t short of 1
    log_a, log_b = rs_factors(math.inf, 3, t_grid(3, 201)[:-1])
    assert_matches_oracle(4.0, 3, log_a, log_b, 0.0, PROFILE_EPS)
