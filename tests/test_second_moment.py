from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potts_af.second_moment as sm
from potts_af.bounds import annealed_pressure, beta_rs_loc, x_param
from potts_af.second_moment import (
    CERTIFIED_TOL,
    Phi2_kt,
    beta_star_certified,
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


@pytest.mark.parametrize("points", [1, 0, -3, 2.0, 10.5, "401", None, True])
def test_bad_grid_points_rejected(points):
    with pytest.raises(ValueError, match="grid_points"):
        optimize(1.0, 2.0, 3, grid_points=points)


def test_smallest_and_numpy_grids_accepted():
    far = optimize(math.inf, 3 * 3 * math.log(3), 3)
    for points in (2, 3, np.int64(51)):
        res = optimize(math.inf, 3 * 3 * math.log(3), 3, grid_points=points)
        assert res.max_gap == pytest.approx(far.max_gap, abs=1e-12)
        assert not res.certified


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


def test_beta_star_certified():
    assert beta_star_certified(9.0, 2) == pytest.approx(math.log(2), abs=1e-14)
    assert beta_star_certified(24 * math.log(3), 3) == pytest.approx(math.log(4), abs=1e-13)
    assert beta_star_certified(6 * math.log(3), 3) == math.inf


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


def test_conditional_moments_budget_guard():
    from potts_af.disorder import conditional_moments_balanced
    from potts_af.util import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        conditional_moments_balanced(12, 3, 1.0, 1, max_tables=5)
