from __future__ import annotations

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potts_af.second_moment as sm
from potts_af.bounds import annealed_pressure, beta_rs_loc, x_param
from potts_af.cli import cmd_second_moment
from potts_af.second_moment import (
    CERTIFIED_TOL,
    Phi2_kt,
    in_guaranteed_region,
    ising_gap,
    mu_kt,
    optimize,
    phi2,
    phi2_kt_gap,
    rescale,
    rescale_multiplier,
    uniform_overlap,
    zero_t_connectivity,
)


def test_phi2_uniform_equals_twice_annealed():
    for q in (2, 3, 4):
        for beta in (0.0, 0.5, 1.5, math.inf):
            for kappa in (0.5, 2.0, 7.0):
                got = phi2(beta, kappa, q, uniform_overlap(q))
                assert got == pytest.approx(2 * annealed_pressure(beta, kappa, q), abs=1e-12)


def test_phi2_beta_zero_maximized_by_uniform():
    q = 3
    rng = np.random.default_rng(0)
    target = 2 * math.log(q)
    assert phi2(0.0, 2.0, q, uniform_overlap(q)) == pytest.approx(target, abs=1e-12)
    for _ in range(20):
        m = rng.dirichlet(np.ones(q * q)).reshape(q, q)
        from potts_af.second_moment import OverlapMeasure

        assert phi2(0.0, 2.0, q, OverlapMeasure(m)) <= target + 1e-12


def test_phi2_diagonal_ising_zero_temperature():
    # q=2 diagonal measure at beta=inf, kappa=1: ln 2 + (1/2) ln(1/2)
    from potts_af.second_moment import OverlapMeasure

    mu = OverlapMeasure(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert phi2(math.inf, 1.0, 2, mu) == pytest.approx(
        math.log(2) + 0.5 * math.log(0.5), abs=1e-14
    )


def test_mu_kt_structure():
    # t=1 gives the uniform measure for any k; so does k=q
    for q in (2, 3):
        np.testing.assert_allclose(mu_kt(q, 0, 1.0).mass, uniform_overlap(q).mass)
        np.testing.assert_allclose(mu_kt(q, q, 0.3).mass, uniform_overlap(q).mass)
    m = mu_kt(2, 0, 0.0).mass
    np.testing.assert_allclose(m, np.array([[0.0, 0.5], [0.0, 0.5]]))
    # rows are always uniformly weighted; columns only at t=1
    assert mu_kt(3, 1, 2.0).has_uniform_marginals() is False
    assert mu_kt(3, 1, 1.0).has_uniform_marginals() is True


def test_mu_kt_rejects_non_integer_k():
    with pytest.raises(ValueError):
        mu_kt(3, 0.5, 1.0)


def test_phi2_kt_exact_collapse():
    for q in (2, 3, 4):
        for beta in (0.7, math.inf):
            for k in (0.0, 1.3, q):
                assert Phi2_kt(beta, 5.0, q, k, 1.0) == 2 * annealed_pressure(beta, 5.0, q)
            for t in (0.0, 0.4, 2.0):
                if t <= q:
                    assert Phi2_kt(beta, 5.0, q, q, t) == 2 * annealed_pressure(beta, 5.0, q)


def test_phi2_kt_matches_general_functional():
    # closed form vs phi2(mu_kt) through the general functional
    cases = [
        (math.inf, 5.0, 3, 0, 2.0),
        (1.0, 4.0, 2, 1, 0.5),
        (2.0, 7.0, 4, 2, 3.1),
        (0.6, 3.0, 3, 1, 0.0),
    ]
    for beta, c, q, k, t in cases:
        direct = phi2(beta, c, q, mu_kt(q, k, t))
        assert Phi2_kt(beta, c, q, k, t) == pytest.approx(direct, abs=1e-9)


def test_rescaling_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for q in (2, 3, 4):
        for beta in (0.4, 1.0, 2.5, math.inf):
            for _ in range(4):
                c = float(rng.uniform(0.5, 20.0))
                k = float(rng.uniform(0.0, q))
                lam = rescale_multiplier(beta, q)
                c_frak, k_frak = rescale(beta, q, c, k)
                for t in np.linspace(0.0, q, 13):
                    lhs = lam * (Phi2_kt(beta, c, q, k, float(t))
                                 - 2 * annealed_pressure(beta, c, q))
                    rhs = Phi2_kt(math.inf, c_frak, q, k_frak, float(t)) \
                        - 2 * annealed_pressure(math.inf, c_frak, q)
                    worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_rescale_is_identity_at_zero_temperature():
    c_frak, k_frak = rescale(math.inf, 3, 7.0, 1.2)
    assert c_frak == pytest.approx(7.0, abs=1e-12)
    assert k_frak == pytest.approx(1.2, abs=1e-12)


def test_rescale_degenerate_at_beta_zero():
    c_frak, k_frak = rescale(0.0, 3, 7.0, 1.2)
    assert c_frak == 0.0
    # both sides of the identity vanish
    lhs = rescale_multiplier(0.0, 3) * (Phi2_kt(0.0, 7.0, 3, 1.2, 2.0)
                                        - 2 * annealed_pressure(0.0, 7.0, 3))
    rhs = Phi2_kt(math.inf, c_frak, 3, k_frak, 2.0) \
        - 2 * annealed_pressure(math.inf, c_frak, 3)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)


def test_optimize_certified_inside_guaranteed_region():
    # effective connectivity at q ln q, inside the 2 q ln q gate
    q = 3
    beta = 1.0
    c = q * math.log(q) / (x_param(beta, q) ** 2 * q * q)
    assert in_guaranteed_region(beta, c, q)
    res = optimize(beta, c, q)
    assert res.certified
    assert res.t_star == pytest.approx(1.0, abs=1e-9)


def test_optimize_beta_zero_certified():
    res = optimize(0.0, 11.0, 3)
    assert res.certified and res.max_gap <= 1e-9


def test_optimize_fails_far_beyond_gate():
    # q=3, beta=inf, c = 3 q ln q: outside the guaranteed region
    q = 3
    c = 3 * q * math.log(q)
    assert not in_guaranteed_region(math.inf, c, q)
    res = optimize(math.inf, c, q)
    assert not res.certified
    assert res.max_gap > 1e-4
    assert res.t_star != pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_bad_connectivity_rejected(c):
    with pytest.raises(ValueError, match="c must be finite"):
        optimize(1.0, c, 3)
    with pytest.raises(ValueError, match="c must be finite"):
        phi2_kt_gap(1.0, c, 3, 0.0, 2.0)
    with pytest.raises(ValueError):
        Phi2_kt(1.0, c, 3, 0.0, 2.0)


def test_result_fields_are_plain_python_values():
    # numpy scalars in, plain floats and bools out, inside and outside the gate
    for q in (np.int64(3), np.int32(4), 3):
        for beta, c in ((math.inf, 1.0), (math.inf, 27.0), (np.float64(1.0), np.float64(2.0))):
            res = optimize(beta, c, q)
            fields = (res.t_star, res.k_star, res.max_gap, res.certified)
            assert [type(v) for v in fields] == [float, float, float, bool], (q, beta, c, res)


def test_symmetric_point_ties_resolve_to_lowest_k():
    # at beta = 0 or c = 0 the gap is <= 0 everywhere and 0 on the t = 1 line
    for beta, c in ((0.0, 11.0), (1.0, 0.0), (math.inf, 0.0)):
        res = optimize(beta, c, 4)
        assert (res.t_star, res.k_star, res.max_gap, res.certified) == (1.0, 0.0, 0.0, True)


def test_certification_gives_up_past_the_cell_cap(monkeypatch):
    c = 3 * math.log(3) / (x_param(1.0, 3) ** 2 * 9)
    assert optimize(1.0, c, 3).certified
    monkeypatch.setattr(sm, "MAX_CELLS", 100)  # fewer than the 402 grid cells
    res = optimize(1.0, c, 3)
    assert res.max_gap == 0.0 and not res.certified


def test_certification_takes_one_round_on_the_criterion_10_grid(monkeypatch):
    # the benchmark's gated grid: every certificate evaluates the scan's
    # cells once, with no bisection round
    cells, cell_bounds = [], sm._cell_bounds

    def record(slope, c, q, lo, hi):
        cells.append(lo.shape[1])
        return cell_bounds(slope, c, q, lo, hi)

    monkeypatch.setattr(sm, "_cell_bounds", record)
    betas = (0.3, 0.7, 1.3, 2.5, math.inf)
    for q in (2, 3, 4):
        for i in range(20):
            beta = betas[i % len(betas)]
            c = (i + 1) / 20.0 * 2 * q * math.log(q) / (x_param(beta, q) ** 2 * q * q)
            cells.clear()
            assert optimize(beta, c, q).certified, (q, beta, c)
            assert cells == [len(sm._scan_grid(q)[0]) - 1], (q, beta, c, cells)


def test_q2_zero_temperature_certification_reaches_c_one():
    # bisect the c where the verdict flips at q = 2, beta = inf: past the
    # c x^2 = 1 instability of t = 1, short of the c where max_gap reaches
    # CERTIFIED_TOL (about 1 + 7.3e-5)
    lo, hi = 0.5, 2.0
    assert optimize(math.inf, lo, 2).certified and not optimize(math.inf, hi, 2).certified
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if optimize(math.inf, mid, 2).certified else (lo, mid)
    assert 1.0 <= lo < 1.0 + 7.3e-5, lo


def test_scan_grid_is_computed_once_and_read_only():
    for q in (2, 3, 5):
        ts = np.union1d(np.linspace(0.0, q, sm.GRID_POINTS), [1.0])
        fresh = (ts, (ts - 1.0) ** 2, sm._row_entropy(ts, q))
        cached = sm._scan_grid(q)
        assert cached is sm._scan_grid(q)
        for got, want in zip(cached, fresh):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            cached[2][0] = 1.0


def test_optimize_does_not_depend_on_the_grid_cache():
    points = [(q, beta, f * 2 * math.log(q) / (x_param(beta, q) ** 2 * q))
              for beta, f in ((1.0, 0.5), (math.inf, 1.1), (2.0, 3.0)) for q in (2, 3, 4)]
    warm = [optimize(beta, c, q) for q, beta, c in points]
    sm._scan_grid.cache_clear()
    by_q = {p: optimize(p[1], p[2], p[0]) for p in sorted(points)}  # one q after another
    sm._scan_grid.cache_clear()
    assert [optimize(beta, c, q) for q, beta, c in points] == warm  # q changes every call
    assert [by_q[p] for p in points] == warm


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(2, 6),
    beta=st.sampled_from([0.0, 0.3, 1.0, 2.5, math.inf]) | st.floats(0.0, 20.0),
    c=st.floats(0.0, 100.0),
    samples=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=25),
)
def test_optimize_properties(q, beta, c, samples):
    res = optimize(beta, c, q)
    assert not any(math.isnan(v) for v in (res.t_star, res.k_star, res.max_gap))
    assert 0.0 <= res.k_star <= q and 0.0 <= res.t_star <= q
    assert phi2_kt_gap(beta, c, q, res.k_star, res.t_star) == pytest.approx(
        res.max_gap, abs=1e-13)
    for fk, ft in samples:
        gap = phi2_kt_gap(beta, c, q, fk * q, ft * q)
        assert res.max_gap >= gap - 1e-13, (fk * q, ft * q, gap)
        if res.certified:
            assert gap <= CERTIFIED_TOL


def test_ising_gap_symmetric_point():
    assert ising_gap(1.0, 4.0, 0.5) == 0.0
    for theta in (0.0, 0.2, 0.9, 1.0):
        assert ising_gap(0.0, 4.0, theta) <= 1e-15  # pure negative entropy
    with pytest.raises(ValueError):
        ising_gap(1.0, 4.0, 1.2)


def test_ising_gap_curvature_threshold():
    # d^2/dtheta^2 at theta = 1/2 equals 4 (c x^2 - 1)
    h = 1e-4
    for beta, c in [(0.4, 3.0), (1.0, 9.0), (2.0, 1.5)]:
        x = x_param(beta, 2)
        second = (ising_gap(beta, c, 0.5 + h) - 2 * ising_gap(beta, c, 0.5)
                  + ising_gap(beta, c, 0.5 - h)) / h**2
        assert second == pytest.approx(4 * (c * x * x - 1.0), rel=1e-4, abs=1e-4)


def test_ising_instability_boundary_matches_rs_loc():
    # cx^2 = 1 boundary coincides with beta_rs_loc(c, 2) to 1e-12
    for c in (2.0, 4.0, 9.0, 25.0):
        lo, hi = 1e-9, 80.0
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            if c * x_param(mid, 2) ** 2 < 1.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(beta_rs_loc(c, 2), abs=1e-12)


def test_beta_star_certified(tmp_path):
    """The CLI second-moment field of this name reports the certified lower curve."""
    for c, q, want, tol in ((9.0, 2, math.log(2), 1e-14),
                            (24 * math.log(3), 3, math.log(4), 1e-13)):
        args = argparse.Namespace(beta=0.5, c=c, q=q, out=str(tmp_path / "sm.json"))
        assert cmd_second_moment(args)["beta_star_certified"] == pytest.approx(want, abs=tol)
    args = argparse.Namespace(beta=0.5, c=6 * math.log(3), q=3, out=str(tmp_path / "sm.json"))
    assert cmd_second_moment(args)["beta_star_certified"] == math.inf


def test_zero_t_connectivity_formula():
    assert zero_t_connectivity(math.inf, 8.0, 3) == pytest.approx(
        8.0 * 9 / 4, abs=1e-12
    )


def test_prelimit_first_moment_stirling_trend():
    # (1/N) ln E[Z~ | K] approaches the annealed pressure as N grows through
    # multiples of q; the deficit is ln q - (1/N) ln |balanced| and sits
    # inside an explicit two-sided Stirling envelope that shrinks like ln N / N
    from potts_af.disorder import conditional_moments_balanced

    q, beta, kappa = 2, 1.0, 1.0
    deficits = []
    for n in (4, 8, 12, 16):
        k = int(round(kappa * n / 2))
        kappa_n = 2 * k / n  # matched connectivity, keeps K integer
        first, _ = conditional_moments_balanced(n, q, beta, k)
        value = math.log(first) / n
        deficit = annealed_pressure(beta, kappa_n, q) - value
        lo = (-0.5 * math.log(2 * math.pi * n) - 1.0 / (12 * n)
              + 0.5 * q * math.log(2 * math.pi * n / q)) / n
        hi = (-0.5 * math.log(2 * math.pi * n) + 0.5 * q * math.log(2 * math.pi * n / q)
              + q * q / (12.0 * n)) / n
        assert lo - 1e-12 <= deficit <= hi + 1e-12, (n, deficit, lo, hi)
        deficits.append(deficit)
    assert all(b < a for a, b in zip(deficits, deficits[1:]))


def test_conditional_moments_budget_guard(monkeypatch):
    from potts_af import disorder
    from potts_af.util import BudgetExceededError

    monkeypatch.setattr(disorder, "BALANCED_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        disorder.conditional_moments_balanced(12, 3, 1.0, 1)
    with pytest.raises(BudgetExceededError):  # 6 balanced states at N = 4, q = 2
        disorder.restricted_partition_balanced(np.zeros((4, 4)), 1.0, 2)


def test_conditional_moments_single_colour_at_zero_temperature():
    # q = 1, beta = inf: every edge is monochromatic, so Z~ = 0 once K >= 1;
    # these raised a math domain error from ln 0
    from potts_af.disorder import conditional_moments_balanced

    assert conditional_moments_balanced(3, 1, math.inf, 0) == (1.0, 1.0)
    for k in (1, 4):
        assert conditional_moments_balanced(3, 1, math.inf, k) == (0.0, 0.0)
    first, second = conditional_moments_balanced(4, 2, math.inf, 2)
    assert abs(first - 1.5) <= 1e-12 and abs(second - 4.5) <= 1e-12
