from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from potts_af.bounds import annealed_pressure, x_param
from potts_af.cascade import (
    CascadeSpec,
    cavity_g1,
    one_rsb_spec,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
import potts_af.replica as replica
from potts_af.replica import (
    MAX_T_POINTS,
    factor_logs,
    g1,
    g2,
    instability,
    profile_sum,
    quartic_coefficients,
    rs_bound,
    scan_rs_bound,
    t_grid,
)
from potts_af.util import BudgetExceededError


def test_g2_trivial_points():
    assert g2(1.0, 3.0, 2, 0.0) == 0.0
    assert g2(0.0, 3.0, 4, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_g2_q2_t1_closed_form():
    for beta, c in [(1.0, 4.0), (0.5, 7.0)]:
        x = x_param(beta, 2)
        assert g2(beta, c, 2, 1.0) == pytest.approx(0.25 * c * math.log(1 - x * x), rel=1e-13)


def test_g2_domain_errors():
    with pytest.raises(ValueError):
        g2(1.0, 1.0, 3, -0.7)  # below -1/(q-1)
    with pytest.raises(ValueError):
        g2(1.0, 1.0, 3, 1.2)


def test_g2_nonpositive():
    for q in (2, 3, 4):
        for t in t_grid(q, 31):
            for beta in (0.3, 1.0, 4.0):
                assert g2(beta, 2.5, q, float(t)) <= 1e-15


def test_g1_trivial_points():
    assert g1(1.0, 2.0, 3, 0.0) == (0.0, 0.0)
    assert g1(1.0, 0.0, 3, 0.5) == (0.0, 0.0)
    assert g1(0.0, 2.0, 3, 0.5) == (0.0, 0.0)


def test_g1_against_mc_oracle():
    # independent oracle: sample k ~ Poisson(c), tau uniform, average the
    # log of the product-sum directly
    beta, c, q, t = 1.0, 1.0, 2, 0.5
    x = x_param(beta, q)
    rng = np.random.default_rng(2024)
    draws = 200_000
    ks = rng.poisson(c, size=draws)
    vals = np.empty(draws)
    a, b = 1.0 - (q - 1) * x * t, 1.0 + x * t
    for i, k in enumerate(ks):
        tau = rng.integers(0, q, size=k)
        inner = 0.0
        for s in range(q):
            n_s = int((tau == s).sum())
            inner += a**n_s * b ** (int(k) - n_s) / q
        vals[i] = math.log(inner)
    mc, sem = vals.mean(), vals.std(ddof=1) / math.sqrt(draws)
    exact, tail = g1(beta, c, q, t)
    assert abs(mc - exact) <= 4 * sem + tail


def brute_profile_sum(c, q, log_a, log_b, m, k_max):
    """sum_k pi_c(k) (1/m) ln E[W^m] with the tau average over all of [q]^k."""
    total = 0.0
    for k in range(k_max + 1):
        ws = np.array([
            sum(math.exp(sum(log_a if colour == s else log_b for colour in tau))
                for s in range(q)) / q
            for tau in itertools.product(range(q), repeat=k)
        ])
        term = np.log(ws).mean() if m == 0.0 else math.log(np.mean(ws**m)) / m
        total += math.exp(-c) * c**k / math.factorial(k) * term
    return total


@pytest.mark.parametrize("form", ["rs", "one-rsb", "l1"])
def test_profile_sum_matches_brute_force(form):
    q, beta, c, t, eps = 3, 1.0, 0.5, 0.6, 1e-4
    params = ModelParams(q=q, beta=beta, c=c)
    annealed_g1 = math.log(q) + c * math.log1p(math.expm1(-beta) / q)
    if form == "l1":
        log_a, log_b, mag, m = -beta, 0.0, beta, 0.5
        library = cavity_g1(params, 3, CascadeSpec((m,)), uniform_hierarchy(q),
                            eps=eps).value - math.log(q)
    else:
        log_a, log_b, mag = factor_logs(beta, q, t)
        if form == "rs":
            m = 0.0
            library = g1(beta, c, q, t, eps)[0]
        else:
            m = 0.5
            library = cavity_g1(params, 3, one_rsb_spec(m), symmetric_t_hierarchy(q, t),
                                eps=eps).value - annealed_g1
    value, tail, k_max = profile_sum(c, q, log_a, log_b, m, mag, eps)
    assert 1 <= k_max <= 6
    assert tail <= eps
    brute = brute_profile_sum(c, q, log_a, log_b, m, k_max)
    assert value == pytest.approx(brute, abs=1e-12)
    assert library == pytest.approx(brute, abs=1e-12)


def test_g1_evenness():
    # exact evenness at q = 2 (Ising parity); for q >= 3 odd contributions
    # enter at order t^7 through triple slot collisions (E[f^3] != 0), so
    # the check allows that asymptotic remainder
    for t in (0.2, 0.4, 0.9):
        v_plus, tail_p = g1(1.0, 3.0, 2, t)
        v_minus, tail_m = g1(1.0, 3.0, 2, -t)
        assert abs(v_plus - v_minus) <= 2 * (tail_p + tail_m) + 1e-13
    for t in (0.1, 0.2, 0.4):
        v_plus, tail_p = g1(0.8, 5.0, 3, t)
        v_minus, tail_m = g1(0.8, 5.0, 3, -t)
        assert abs(v_plus - v_minus) <= 2 * (tail_p + tail_m) + abs(t) ** 7


def test_g2_evenness_exact():
    for q, t in [(2, 0.6), (3, 0.4)]:
        assert g2(1.0, 2.0, q, t) == pytest.approx(g2(1.0, 2.0, q, -t), rel=1e-14)


def test_rs_bound_t0_is_annealed():
    ev = rs_bound(1.2, 5.0, 3, 0.0)
    assert ev.rs_bound == annealed_pressure(1.2, 5.0, 3)
    assert ev.g1 == 0.0 and ev.g2 == 0.0 and ev.gap == 0.0


@pytest.mark.parametrize("q, beta, c, points", [(2, 1.0, 4.0, 41), (3, 2.0, 10.0, 31),
                                                 (4, 1.0, 10.0, 21)])
def test_scan_entries_match_rs_bound(q, beta, c, points):
    ts, evals = scan_rs_bound(beta, c, q, points)
    assert 0.0 in ts
    for t, ev in zip(ts, evals):
        one = rs_bound(beta, c, q, float(t))
        assert abs(ev.rs_bound - one.rs_bound) <= 1e-14
        assert ev.k_truncation == one.k_truncation and ev.tail_bound == one.tail_bound
        if t == 0.0:
            assert ev.rs_bound == annealed_pressure(beta, c, q)


def test_profile_blocks_do_not_change_values(monkeypatch):
    # one t per block gives the same bits as the default block cap
    q, beta, c = 3, 2.0, 10.0
    ts = t_grid(q, 41)
    log_a, log_b, mag = np.array([factor_logs(beta, q, float(t)) for t in ts]).T
    for m in (0.0, 0.5):
        default = profile_sum(c, q, log_a, log_b, m, mag, 1e-10)
        monkeypatch.setattr("potts_af.replica.PROFILE_BLOCK_CELLS", 1)
        single = profile_sum(c, q, log_a, log_b, m, mag, 1e-10)
        monkeypatch.undo()
        for got, want in zip(single, default):
            assert np.array_equal(got, want)
    _, default = scan_rs_bound(beta, c, q, 41)
    monkeypatch.setattr("potts_af.replica.PROFILE_BLOCK_CELLS", 1)
    assert scan_rs_bound(beta, c, q, 41)[1] == default


def test_t_grid_point_cap():
    assert len(t_grid(2, MAX_T_POINTS)) == MAX_T_POINTS
    with pytest.raises(BudgetExceededError):
        t_grid(2, MAX_T_POINTS + 1)
    with pytest.raises(BudgetExceededError):
        scan_rs_bound(1.0, 4.0, 2, 10**9)


def test_class_table_row_cap(monkeypatch):
    # the cap is checked while the table is built, before the largest array;
    # the uncached function is called, so that a cached table cannot hide the check
    build = replica._class_table.__wrapped__
    rows = len(build(30, 4)[1])
    monkeypatch.setattr(replica, "MAX_CLASS_ROWS", rows)
    assert len(build(30, 4)[1]) == rows
    monkeypatch.setattr(replica, "MAX_CLASS_ROWS", rows - 1)
    with pytest.raises(BudgetExceededError, match=f"{rows - 1} rows"):
        build(30, 4)


def test_rs_bound_improves_when_unstable():
    # q=2, c=9, beta=1 > ln 2: some t strictly beats the annealed value
    beta, c, q = 1.0, 9.0, 2
    assert instability(beta, c, q)
    ts, evs = scan_rs_bound(beta, c, q, points=101)
    best = min(e.rs_bound for e in evs)
    assert best < annealed_pressure(beta, c, q) - 1e-4


def test_rs_bound_no_improvement_when_stable():
    # q=2, c=9, beta=0.3: c x^2 ~ 0.17, no grid t helps
    beta, c, q = 0.3, 9.0, 2
    assert not instability(beta, c, q)
    ts, evs = scan_rs_bound(beta, c, q, points=101)
    pressure = annealed_pressure(beta, c, q)
    for ev in evs:
        assert ev.rs_bound >= pressure - ev.tail_bound - 1e-12


def test_instability_examples():
    assert not instability(0.0, 100.0, 2)
    # q=2, c=9, beta=ln 2 sits exactly on c x^2 = 1: not strictly unstable
    assert not instability(math.log(2), 9.0, 2)
    assert instability(math.log(2) + 1e-6, 9.0, 2)
    # c <= (q-1)^2 never destabilizes, even at beta = inf
    assert not instability(math.inf, 4.0, 3)
    assert instability(math.inf, 4.0 + 1e-9, 3)


def test_quartic_coefficients_match_references():
    for q, c, beta in [(2, 4.0, 1.0), (3, 10.0, 2.0)]:
        a1, a2, ref1, ref2 = quartic_coefficients(beta, c, q)
        assert abs(a1 - ref1) <= 0.01 * abs(ref1)
        assert abs(a2 - ref2) <= 0.01 * abs(ref2)


def test_quartic_coefficients_trivial_at_beta_zero():
    assert quartic_coefficients(0.0, 4.0, 2) == (0.0, 0.0, 0.0, 0.0)


def test_quartic_requires_tight_eps():
    with pytest.raises(ValueError):
        quartic_coefficients(1.0, 4.0, 2, eps=1e-6)


def test_one_level_consistency():
    # at t = 0 the assembled functionals reproduce the annealed split
    beta, c, q = 0.9, 3.0, 3
    y = 1 - math.exp(-beta)
    ev = rs_bound(beta, c, q, 0.0)
    g1_full = math.log(q) + c * math.log(1 - y / q) + ev.g1
    g2_full = 0.5 * c * math.log(1 - y / q) + ev.g2
    assert g1_full == pytest.approx(math.log(q) + c * math.log(1 - y / q), abs=1e-12)
    assert g2_full == pytest.approx(0.5 * c * math.log(1 - y / q), abs=1e-12)
    assert g1_full - g2_full == pytest.approx(annealed_pressure(beta, c, q), abs=1e-12)


def test_rs_bound_dominates_exact_pressure(pressure_cache):
    # the RS bound exceeds every exact small-N quenched value
    for q, beta, c in [(2, 1.0, 4.0), (3, 2.0, 4.0)]:
        p3 = pressure_cache(q, beta, c, 3)
        for t in (0.0, 0.3, 0.8, -0.4):
            ev = rs_bound(beta, c, q, t)
            slack = ev.tail_bound + p3.tail_bound + 4 * p3.stat_error
            assert ev.rs_bound >= p3.value - slack, (q, beta, c, t)
