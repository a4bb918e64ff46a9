from __future__ import annotations

import itertools
import math
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from potts_af.bounds import annealed_pressure, x_param
from potts_af.cascade import (
    CascadeSpec,
    cavity_g1,
    one_rsb_spec,
    rs_spec,
    rsb_upper_bound,
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
    pair_logs,
    pair_sum,
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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_g1_and_g2_reject_bad_connectivity(c):
    # g2 returned NaN or a number, and g1 raised a math domain error
    for fn in (g1, g2):
        with pytest.raises(ValueError, match="c must be finite"):
            fn(1.0, c, 2, 0.3)


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
def test_profile_sum_matches_brute_force(form, monkeypatch):
    q, beta, c, t, eps = 3, 1.0, 0.5, 0.6, 1e-4
    monkeypatch.setattr(replica, "PROFILE_EPS", eps)  # a k_max the brute force can reach
    params = ModelParams(q=q, beta=beta, c=c)
    annealed_g1 = math.log(q) + c * math.log1p(math.expm1(-beta) / q)
    if form == "l1":
        log_a, log_b, m = -beta, 0.0, 0.5
        library = cavity_g1(params, 3, CascadeSpec((m,)), uniform_hierarchy(q)).value - math.log(q)
    else:
        log_a, log_b = factor_logs(beta, q, t)
        if form == "rs":
            m = 0.0
            library = g1(beta, c, q, t)[0]
        else:
            m = 0.5
            library = cavity_g1(params, 3, one_rsb_spec(m),
                                symmetric_t_hierarchy(q, t)).value - annealed_g1
    value, tail, k_max = profile_sum(c, q, log_a, log_b, m, eps)
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
    # t = 0 takes no branch of its own: both logs are 0, so the profile sum
    # has no terms and no tail; at beta = 0 (x = 0) that holds at every t
    for beta in (1.2, 0.0):
        pressure = annealed_pressure(beta, 5.0, 3)
        ev = rs_bound(beta, 5.0, 3, 0.0)
        assert ev.g1 == 0.0 and ev.g2 == 0.0 and ev.gap == 0.0
        ts, evals = scan_rs_bound(beta, 5.0, 3, 31)
        assert 0.0 in ts
        for t, ev in [(0.0, ev), *zip(ts, evals)]:
            if t == 0.0 or beta == 0.0:
                assert ev.rs_bound == pressure and ev.k_truncation == 0 and ev.tail_bound == 0.0


def _naive_logs(beta: float, q: int, s: Decimal) -> tuple[float, float]:
    """(ln(1 - (q-1) x s), ln(1 + x s)) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(-beta).exp()
        x = (1 - u) / (q - 1 + u)
        return float((1 - (q - 1) * x * s).ln()), float((1 + x * s).ln())


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("beta", [20.0, 30.0, 38.0, 60.0])
def test_leaf_logs_match_decimal_reference_at_large_beta(q, beta):
    # 1 - (q-1) x t in floats cancels near t = 1: at q = 3, t = 1 its log
    # was off by 0.24 at beta = 36 and degenerate from beta = 37 on
    ts = np.array([1.0, 1.0 - 1e-9, -1.0 / (q - 1)])
    array_logs = (*factor_logs(beta, q, ts), *pair_logs(beta, q, ts))
    for i, t in enumerate(ts.tolist()):
        got = (*factor_logs(beta, q, t), *pair_logs(beta, q, t))
        want = (*_naive_logs(beta, q, Decimal(t)), *_naive_logs(beta, q, Decimal(t) ** 2))
        for value, ref, entries in zip(got, want, array_logs):
            assert abs(value - ref) <= 4 * math.ulp(ref), (t, value, ref)
            assert entries[i] == value  # an array entry has the bits of its float call


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0.25, 0.5, 0.75])
def test_pair_sum_takes_arrays_at_positive_m(q, m):
    # the per-m 1RSB scan hands pair_sum a whole t grid; each entry has the
    # bits of its float call and matches (c/2m) ln E[V^m] written out in
    # 50-digit decimals
    beta, c = 1.3, 2.5
    ts = t_grid(q, 41)
    log_match, log_other = pair_logs(beta, q, ts)
    values = pair_sum(c, q, log_match, log_other, m)
    assert values.shape == ts.shape
    for t, entry in zip(ts.tolist(), values.tolist()):
        value = pair_sum(c, q, *pair_logs(beta, q, t), m)
        assert type(value) is float and entry == value
        with localcontext() as ctx:
            ctx.prec = 50
            lo, hi = (Decimal(v) for v in pair_logs(beta, q, t))
            dm = Decimal(m)
            ref = float(Decimal(c) / (2 * dm)
                        * (((dm * lo).exp() + (q - 1) * (dm * hi).exp()) / q).ln())
        assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (t, value, ref)


def test_bounds_finite_and_certified_at_beta_38():
    beta, c, q = 38.0, 4.0, 3
    _, evals = scan_rs_bound(beta, c, q, 31)
    for ev in evals:
        assert math.isfinite(ev.rs_bound) and ev.tail_bound <= replica.PROFILE_EPS
    est = rsb_upper_bound(ModelParams(q=q, beta=beta, c=c), 3, rs_spec(),
                          symmetric_t_hierarchy(q, 1.0))
    assert math.isfinite(est.value) and est.tail_bound <= replica.PROFILE_EPS


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
    log_a, log_b = np.array([factor_logs(beta, q, float(t)) for t in ts]).T
    for m in (0.0, 0.5):
        default = profile_sum(c, q, log_a, log_b, m, 1e-10)
        monkeypatch.setattr("potts_af.replica.PROFILE_BLOCK_CELLS", 1)
        single = profile_sum(c, q, log_a, log_b, m, 1e-10)
        monkeypatch.undo()
        for got, want in zip(single, default):
            assert np.array_equal(got, want)
    _, default = scan_rs_bound(beta, c, q, 41)
    monkeypatch.setattr("potts_af.replica.PROFILE_BLOCK_CELLS", 1)
    assert scan_rs_bound(beta, c, q, 41)[1] == default


@pytest.mark.parametrize("args, class_path_peak", [((2.0, 10.0, 3, 201), 479214),
                                                   ((1.0, 10.0, 4, 41), 435565)])
def test_scan_traced_peak(args, class_path_peak):
    # traced peak of a warm scan, against the bytes the (t, colour class)
    # blocks of the m = 0 sum peaked at
    scan_rs_bound(*args)
    tracemalloc.start()
    try:
        scan_rs_bound(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * class_path_peak


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


def test_class_table_prefix_is_bit_identical():
    build = replica._class_table.__wrapped__
    largest = replica._class_table(40, 4)
    for k_top in (0, 7, 23, 40):
        served, fresh = replica._class_table(k_top, 4), build(k_top, 4)
        assert np.shares_memory(served[1], largest[1])  # a prefix view, not a rebuild
        for a, b in zip(served, fresh):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_class_table_sweep_keeps_one_table():
    # a growing sweep used to keep every table, about 550 MB resident
    code = """
import resource
from potts_af import replica
def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()
start = rss()
for c in range(30, 45):
    ev = replica.rs_bound(1.0, float(c), 5, 0.3)
held = replica._class_table(ev.k_truncation, 5)
print(rss() - start, sum(a.nbytes if a.base is None else a.base.nbytes for a in held))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, table = map(int, proc.stdout.split())
    assert grown <= table + (100 << 20)


def test_shared_tables_are_read_only():
    # every profile sum and cascade draw reads the same cached tables, so an
    # in-place write into one would change all later results in the process
    groups = [replica._class_table(12, 3), *replica._gap_table(12, 3),
              replica._class_alias(12, 3), replica._binomial_alias(12, 3),
              replica._class_table(5, 3)]  # the last a prefix view
    assert np.shares_memory(groups[-1][1], groups[0][1])
    for group in groups:
        for array in group:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


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


@pytest.mark.parametrize("beta, c, q, h", [(1.0, 4.0, 2, 0.05), (2.0, 10.0, 3, 0.05),
                                           (1.0, 3.0, 5, 0.1), (0.2, 20.0, 3, 0.01)])
def test_quartic_batched_g1_bit_identical_to_separate_calls(beta, c, q, h, monkeypatch):
    # the one profile sum over +-h/2, +-h, +-2h gives each t the value of its own g1 call
    monkeypatch.setattr(replica, "PROFILE_EPS", replica.QUARTIC_EPS)

    def even(tt: float) -> float:
        return 0.5 * (g1(beta, c, q, tt)[0] + g1(beta, c, q, -tt)[0])

    def stencil(hh: float) -> float:
        return (even(2 * hh) - 4.0 * even(hh)) / (12.0 * hh**4)

    a1 = quartic_coefficients(beta, c, q, h=h)[0]
    assert a1 == (4.0 * stencil(h / 2) - stencil(h)) / 3.0


def test_quartic_coefficients_trivial_at_beta_zero():
    assert quartic_coefficients(0.0, 4.0, 2) == (0.0, 0.0, 0.0, 0.0)


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
