from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from potts_af.bounds import annealed_pressure
from potts_af.cascade import (
    CascadeSpec,
    SpinHierarchySpec,
    annealed_spec,
    cavity_g1,
    cavity_g2,
    one_rsb_spec,
    rs_spec,
    rsb_upper_bound,
    sample_pd_atoms,
    stability_test,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.model import ModelParams
from potts_af.replica import g1 as rs_g1, g2 as rs_g2
from potts_af.util import MAX_MC_SAMPLES, BudgetExceededError, philox

from conftest import combined_error


def test_cascade_spec_validation():
    with pytest.raises(ValueError):
        CascadeSpec((0.5, 0.3))  # not increasing
    with pytest.raises(ValueError):
        CascadeSpec((0.5,), first_to_zero=True)  # sentinel mismatch
    with pytest.raises(ValueError):
        CascadeSpec((0.2, 0.4, 0.6, 0.8))  # too deep
    spec = one_rsb_spec(0.5)
    assert spec.depth == 3 and spec.atom_levels == (0.5,)
    assert rs_spec().atom_levels == ()
    assert CascadeSpec((0.3, 0.7)).atom_levels == (0.3, 0.7)


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        SpinHierarchySpec("uniform", 3, t=0.5)
    with pytest.raises(ValueError):
        symmetric_t_hierarchy(3, -0.9)
    assert uniform_hierarchy(4).t == 0.0


def test_pd_atoms_descending_positive():
    rng = philox(99)
    for m in (0.2, 0.5, 0.8):
        a = sample_pd_atoms(m, 500, rng)
        assert np.all(np.diff(a.atoms) <= 0)
        assert a.atoms[-1] > 0
        assert a.tail_mass_bound > 0


@pytest.mark.parametrize("m, n_atoms, seed", [(0.1, 5, 0), (0.5, 3000, 7), (0.9, 100, 123),
                                               (0.37, 1, 4)])
def test_pd_atoms_bit_identical_to_the_one_line_formula(m, n_atoms, seed):
    atoms = sample_pd_atoms(m, n_atoms, seed)
    expect = np.cumsum(philox(seed).exponential(1.0, size=n_atoms)) ** (-1.0 / m)
    assert [float.hex(x) for x in atoms.atoms.tolist()] == [float.hex(x) for x in expect.tolist()]
    tail = (m / (1.0 - m)) * expect[-1] ** (1.0 - m)
    assert float.hex(atoms.tail_mass_bound) == float.hex(float(tail))


def test_monte_carlo_sample_cap_raises_before_drawing(monkeypatch):
    def no_seeds(*args):
        raise AssertionError("split seeds")

    monkeypatch.setattr("potts_af.cascade.child_seeds", no_seeds)
    params = ModelParams(q=2, beta=1.0, c=4.0)
    for fn in (cavity_g1, cavity_g2):
        with pytest.raises(BudgetExceededError, match=str(MAX_MC_SAMPLES)):
            fn(params, 3, CascadeSpec((0.5,)), uniform_hierarchy(2),
               samples=MAX_MC_SAMPLES + 1, method="monte-carlo")


def test_pd_atoms_invalid_m():
    with pytest.raises(ValueError):
        sample_pd_atoms(1.0, 10, 0)
    with pytest.raises(ValueError):
        sample_pd_atoms(-0.1, 10, 0)


def test_pd_top_atom_frechet_law():
    # P(xi_1 <= a) = exp(-a^-m): void probability of (a, inf)
    m, draws = 0.5, 30_000
    rng = philox(7)
    top = rng.exponential(1.0, size=draws) ** (-1.0 / m)
    res = kstest(top, lambda a: np.exp(-a ** (-m)))
    assert res.pvalue > 0.001
    # and through the sampler itself at smaller scale
    top2 = np.array([sample_pd_atoms(m, 1, rng).atoms[0] for _ in range(4000)])
    res2 = kstest(top2, lambda a: np.exp(-a ** (-m)))
    assert res2.pvalue > 0.001


def test_pd_laplace_functional():
    # E exp(-lambda sum xi^p) = exp(-lambda^{m/p} integral x^{-m/p} e^-x dx),
    # the integral evaluated by an independent quadrature oracle
    m, p, lam = 0.5, 1.0, 1.0
    integral, _ = quad(lambda x: x ** (-m / p) * math.exp(-x), 0.0, 50.0)
    target = math.exp(-(lam ** (m / p)) * integral)
    rng = philox(31)
    draws, n_atoms = 4000, 3000
    vals = np.empty(draws)
    tails = np.empty(draws)
    for i in range(draws):
        a = sample_pd_atoms(m, n_atoms, rng)
        vals[i] = math.exp(-lam * float((a.atoms**p).sum()))
        tails[i] = a.tail_mass_bound
    sem = vals.std(ddof=1) / math.sqrt(draws)
    bias_margin = lam * tails.mean()  # dropped atoms only increase the sum
    assert abs(vals.mean() - target) <= 4 * sem + bias_margin


def test_stability_property():
    report = stability_test(0.5, 256, 3000, seed=11)
    assert report.passed
    # degenerate multipliers: scale is exactly 1
    trivial = stability_test(0.5, 128, 500, seed=3, sigma=0.0)
    assert trivial.reference_scale == 1.0
    assert trivial.passed


def test_stability_power_check():
    report = stability_test(0.5, 256, 3000, seed=11, scale_mismatch=1.2)
    assert not report.passed


def test_annealed_closed_forms_exact():
    params = ModelParams(q=3, beta=1.2, c=2.5)
    y = 1 - math.exp(-1.2)
    g1e = cavity_g1(params, 4, annealed_spec(), uniform_hierarchy(3))
    g2e = cavity_g2(params, 4, annealed_spec(), uniform_hierarchy(3))
    assert g1e.value == pytest.approx(math.log(3) + 2.5 * math.log(1 - y / 3), abs=1e-12)
    assert g2e.value == pytest.approx(0.5 * 2.5 * math.log(1 - y / 3), abs=1e-12)
    bound = rsb_upper_bound(params, 4, annealed_spec(), uniform_hierarchy(3))
    assert bound.value == pytest.approx(annealed_pressure(1.2, 2.5, 3), abs=1e-12)


def test_zero_connectivity_gives_log_q():
    params = ModelParams(q=4, beta=1.0, c=0.0)
    g1e = cavity_g1(params, 3, rs_spec(), uniform_hierarchy(4))
    assert g1e.value == pytest.approx(math.log(4), abs=1e-14)
    g2e = cavity_g2(params, 3, rs_spec(), uniform_hierarchy(4))
    assert g2e.value == pytest.approx(0.0, abs=1e-14)


def test_uniform_hierarchy_is_annealed_at_any_spec():
    # with uniform spins every cascade level integrates out exactly
    params = ModelParams(q=2, beta=0.8, c=3.0)
    for spec in (rs_spec(), one_rsb_spec(0.4)):
        bound = rsb_upper_bound(params, 3, spec, uniform_hierarchy(2))
        assert bound.value == pytest.approx(annealed_pressure(0.8, 3.0, 2), abs=1e-12)


def test_rs_closed_form_matches_replica_module():
    params = ModelParams(q=3, beta=1.0, c=2.0)
    hier = symmetric_t_hierarchy(3, 0.4)
    y = 1 - math.exp(-1.0)
    g1e = cavity_g1(params, 3, rs_spec(), hier)
    expect = math.log(3) + 2.0 * math.log(1 - y / 3) + rs_g1(1.0, 2.0, 3, 0.4)[0]
    assert g1e.value == pytest.approx(expect, abs=1e-11)
    g2e = cavity_g2(params, 3, rs_spec(), hier)
    expect2 = 1.0 * math.log(1 - y / 3) + rs_g2(1.0, 2.0, 3, 0.4)
    assert g2e.value == pytest.approx(expect2, abs=1e-12)


def test_rs_monte_carlo_agrees_with_closed_form():
    params = ModelParams(q=2, beta=1.0, c=4.0)
    hier = symmetric_t_hierarchy(2, 0.5)
    for which, fn in (("g1", cavity_g1), ("g2", cavity_g2)):
        cf = fn(params, 3, rs_spec(), hier)
        mc = fn(params, 3, rs_spec(), hier, samples=8000, seed=5, method="monte-carlo")
        assert mc.method == "monte-carlo"
        assert abs(mc.value - cf.value) <= combined_error(cf, mc)


def test_one_rsb_limits_interpolate():
    # m -> 0 recovers the RS values, m -> 1 the annealed ones
    beta, c, q, t = 1.0, 4.0, 2, 0.5
    params = ModelParams(q=q, beta=beta, c=c)
    hier = symmetric_t_hierarchy(q, t)
    near_rs = cavity_g2(params, 3, one_rsb_spec(1e-7), hier)
    rs_val = cavity_g2(params, 3, rs_spec(), hier)
    assert near_rs.value == pytest.approx(rs_val.value, abs=1e-5)
    near_ann = cavity_g2(params, 3, one_rsb_spec(1 - 1e-9), hier)
    ann = cavity_g2(params, 3, annealed_spec(), uniform_hierarchy(q))
    assert near_ann.value == pytest.approx(ann.value, abs=1e-6)


def test_one_rsb_monte_carlo_agrees_with_closed_form():
    params = ModelParams(q=2, beta=1.0, c=4.0)
    hier = symmetric_t_hierarchy(2, 0.5)
    spec = one_rsb_spec(0.5)
    for fn, samples in ((cavity_g1, 600), (cavity_g2, 900)):
        cf = fn(params, 3, spec, hier)
        mc = fn(params, 3, spec, hier, samples=samples, seed=21,
                method="monte-carlo", n_atoms=2048)
        assert mc.tail_bound == 0.0 < mc.bias_estimate  # the PD truncation is not certified
        assert abs(mc.value - cf.value) <= combined_error(cf, mc) + mc.bias_estimate * 3


def test_l1_generic_monte_carlo_agrees_with_closed_form():
    params = ModelParams(q=2, beta=1.0, c=4.0)
    spec = CascadeSpec((0.5,))
    u = uniform_hierarchy(2)
    for fn, samples in ((cavity_g1, 600), (cavity_g2, 900)):
        cf = fn(params, 3, spec, u, eps=1e-10)
        mc = fn(params, 3, spec, u, samples=samples, seed=22,
                method="monte-carlo", n_atoms=2048)
        assert abs(mc.value - cf.value) <= combined_error(cf, mc) + mc.bias_estimate * 3


def test_l1_symmetric_t_unsupported():
    params = ModelParams(q=2, beta=1.0, c=1.0)
    with pytest.raises(ValueError):
        cavity_g1(params, 2, annealed_spec(), symmetric_t_hierarchy(2, 0.5))


def test_normalizer_tail_shrinks_with_atoms():
    fracs = []
    for n_atoms in (100, 1000, 10_000):
        a = sample_pd_atoms(0.5, n_atoms, 77)
        total = float(a.atoms.sum())
        assert math.isfinite(total) and total > 0
        fracs.append(a.tail_mass_bound / (a.tail_mass_bound + total))
    assert fracs[0] > fracs[1] > fracs[2]


def test_standard_error_scaling():
    params = ModelParams(q=2, beta=1.0, c=3.0)
    hier = symmetric_t_hierarchy(2, 0.5)
    small = cavity_g1(params, 3, rs_spec(), hier, samples=4000, seed=9,
                      method="monte-carlo")
    big = cavity_g1(params, 3, rs_spec(), hier, samples=8000, seed=9,
                    method="monte-carlo")
    ratio = big.stat_error / small.stat_error
    assert 0.8 / math.sqrt(2) <= ratio <= 1.2 / math.sqrt(2)


def test_rsb_bound_dominates_small_system(pressure_cache):
    params = ModelParams(q=2, beta=1.0, c=4.0)
    p4 = pressure_cache(2, 1.0, 4.0, 4)
    for spec, hier in [
        (annealed_spec(), uniform_hierarchy(2)),
        (rs_spec(), symmetric_t_hierarchy(2, 0.5)),
        (one_rsb_spec(0.5), symmetric_t_hierarchy(2, 0.3)),
    ]:
        bound = rsb_upper_bound(params, 4, spec, hier, samples=2000, seed=13)
        assert bound.value >= p4.value - combined_error(bound, p4)


def test_one_rsb_vs_rs_at_unstable_point_regression():
    # observational regression: at a matched t in the unstable phase the
    # one-step bound does not exceed the RS bound by more than 4 sigma
    params = ModelParams(q=2, beta=1.0, c=9.0)
    hier = symmetric_t_hierarchy(2, 0.6)
    rs = rsb_upper_bound(params, 3, rs_spec(), hier)
    one = rsb_upper_bound(params, 3, one_rsb_spec(0.5), hier, samples=1500,
                          seed=17, method="monte-carlo", n_atoms=2048)
    slack = combined_error(rs, one) + 3 * one.bias_estimate
    assert one.value <= rs.value + slack


def test_cavity_g2_zero_beta_trivial():
    # all Gibbs factors are 1 at beta = 0: only the annealed constant remains
    params = ModelParams(q=3, beta=0.0, c=2.0)
    hier = symmetric_t_hierarchy(3, 0.5)
    assert cavity_g2(params, 3, rs_spec(), hier).value == 0.0
    assert cavity_g1(params, 3, rs_spec(), hier).value == math.log(3)


@pytest.mark.parametrize("spec, hier", [
    (CascadeSpec((0.5,)), uniform_hierarchy(2)),
    (CascadeSpec((0.3, 0.7)), symmetric_t_hierarchy(2, 0.5)),
])
def test_sampled_leaves_at_infinite_beta_rejected(monkeypatch, spec, hier):
    # -beta * 0 is NaN at beta = inf; the check comes before any draw
    def no_draws(seed):
        raise AssertionError("drew samples")

    monkeypatch.setattr("potts_af.cascade.philox", no_draws)
    params = ModelParams(q=2, beta=math.inf, c=1.0)
    for fn in (cavity_g1, cavity_g2):
        with pytest.raises(ValueError, match="finite beta"):
            fn(params, 3, spec, hier, samples=64, method="monte-carlo")


def test_l1_g2_at_m_zero_is_the_limit():
    # G2 of CascadeSpec((0,), first_to_zero) is the m -> 0 limit -c beta / (2q)
    q, beta, c = 2, 1.0, 2.0
    params = ModelParams(q=q, beta=beta, c=c)
    limit = cavity_g2(params, 3, CascadeSpec((0.0,), first_to_zero=True), uniform_hierarchy(q))
    assert limit.value == -c * beta / (2 * q) and limit.tail_bound == 0.0
    near = cavity_g2(params, 3, CascadeSpec((1e-6,)), uniform_hierarchy(q))
    assert near.value == pytest.approx(limit.value, abs=1e-6)


def test_l1_at_m_zero_and_infinite_beta_raises_on_both_sides():
    params = ModelParams(q=2, beta=math.inf, c=2.0)
    spec = CascadeSpec((0.0,), first_to_zero=True)
    for fn in (cavity_g1, cavity_g2):
        with pytest.raises(BudgetExceededError):
            fn(params, 3, spec, uniform_hierarchy(2))


def test_monte_carlo_needs_an_atom():
    params = ModelParams(q=2, beta=1.0, c=1.0)
    with pytest.raises(ValueError, match="n_atoms"):
        cavity_g1(params, 3, CascadeSpec((0.5,)), uniform_hierarchy(2), samples=8,
                  method="monte-carlo", n_atoms=0)


@pytest.mark.parametrize("t", [1.0, -1.0])
@pytest.mark.parametrize("spec", [rs_spec(), one_rsb_spec(0.5)], ids=["rs", "one_rsb"])
def test_integrated_leaves_degenerate_at_infinite_beta(spec, t):
    # at q = 2, beta = inf a leaf factor vanishes: G1's match factor at t = 1,
    # its other factor at t = -1, and G2's match factor at both (u = t^2 = 1).
    # Monte Carlo rejects them before any draw, worded as the closed forms.
    params = ModelParams(q=2, beta=math.inf, c=1.0)
    hier = symmetric_t_hierarchy(2, t)
    for fn, message in ((cavity_g1, "degenerate product factor"),
                        (cavity_g2, "degenerate pair factor")):
        with pytest.raises(ValueError):
            fn(params, 3, spec, hier, method="closed-form")
        with pytest.raises(ValueError, match=message) as err:
            fn(params, 3, spec, hier, samples=64, method="monte-carlo")
        assert "beta < inf" in str(err.value)


def test_integrated_leaves_at_infinite_beta_finite():
    params = ModelParams(q=2, beta=math.inf, c=1.0)
    for spec in (rs_spec(), one_rsb_spec(0.5)):
        for fn in (cavity_g1, cavity_g2):
            est = fn(params, 3, spec, symmetric_t_hierarchy(2, 0.4), samples=64, seed=2,
                     method="monte-carlo", n_atoms=64)
            assert math.isfinite(est.value) and math.isfinite(est.stat_error)
