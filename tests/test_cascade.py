from __future__ import annotations

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from potts_af import cascade
from potts_af.bounds import annealed_pressure, x_param
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
from potts_af.disorder import METHOD_EXACT, METHOD_MC
from potts_af.model import ModelParams
from potts_af.replica import DEGENERATE_PAIR_FACTOR, g1 as rs_g1, g2 as rs_g2
from potts_af.util import MAX_MC_SAMPLES, BudgetExceededError, stream

from conftest import combined_error


def test_cascade_spec_validation():
    with pytest.raises(ValueError):
        CascadeSpec((0.5, 0.3))  # not increasing
    for levels in ((math.nan,), (-0.1, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError):
            CascadeSpec(levels)  # outside [0, 1]
    with pytest.raises(ValueError):
        CascadeSpec((0.2, 0.4, 0.6, 0.8))  # too deep
    spec = one_rsb_spec(0.5)
    assert spec.depth == 3 and spec.atom_levels == (0.5,)
    assert rs_spec().atom_levels == ()
    assert CascadeSpec((0.3, 0.7)).atom_levels == (0.3, 0.7)


def test_cascade_spec_reads_limits_from_levels():
    assert CascadeSpec((1.0,)) == annealed_spec()
    assert CascadeSpec((0.0, 1.0)) == rs_spec()
    assert CascadeSpec((0.0, 0.5, 1.0)) == one_rsb_spec(0.5)
    spec = CascadeSpec((0.0, 0.4))
    assert not spec.last_to_one and spec.atom_levels == (0.4,)
    assert annealed_spec().last_to_one
    with pytest.raises(TypeError):
        CascadeSpec((0.0, 1.0), first_to_zero=True)


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        SpinHierarchySpec("uniform", 3, t=0.5)
    with pytest.raises(ValueError):
        symmetric_t_hierarchy(3, -0.9)
    assert uniform_hierarchy(4).t == 0.0


def test_pd_atoms_descending_positive():
    rng = stream(99)
    for m in (0.2, 0.5, 0.8):
        a = sample_pd_atoms(m, 500, rng)
        assert np.all(np.diff(a.atoms) <= 0)
        assert a.atoms[-1] > 0
        assert a.tail_mass_bound > 0


@pytest.mark.parametrize("m, n_atoms, seed", [(0.1, 5, 0), (0.5, 3000, 7), (0.9, 100, 123),
                                               (0.37, 1, 4)])
def test_pd_atoms_bit_identical_to_the_one_line_formula(m, n_atoms, seed):
    atoms = sample_pd_atoms(m, n_atoms, seed)
    expect = np.cumsum(stream(seed).exponential(1.0, size=n_atoms)) ** (-1.0 / m)
    assert [float.hex(x) for x in atoms.atoms.tolist()] == [float.hex(x) for x in expect.tolist()]
    tail = (m / (1.0 - m)) * expect[-1] ** (1.0 - m)
    assert float.hex(atoms.tail_mass_bound) == float.hex(float(tail))


def test_monte_carlo_sample_cap_raises_before_drawing(monkeypatch):
    def no_seeds(*args):
        raise AssertionError("split seeds")

    monkeypatch.setattr("potts_af.cascade.child_seed", no_seeds)
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
    rng = stream(7)
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
    rng = stream(31)
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
        cf = fn(params, 3, spec, u)
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

    monkeypatch.setattr("potts_af.cascade.stream", no_draws)
    params = ModelParams(q=2, beta=math.inf, c=1.0)
    for fn in (cavity_g1, cavity_g2):
        with pytest.raises(ValueError, match="finite beta"):
            fn(params, 3, spec, hier, samples=64, method="monte-carlo")


@pytest.mark.parametrize("fn", [cavity_g1, cavity_g2, rsb_upper_bound])
def test_poisson_mean_past_numpy_limit_rejected(monkeypatch, fn):
    # numpy's own "lam value too large" names no argument; the check names c
    # and comes before any draw
    def no_draws(seed):
        raise AssertionError("drew samples")

    monkeypatch.setattr("potts_af.cascade.stream", no_draws)
    params = ModelParams(q=2, beta=1.0, c=1e19)
    with pytest.raises(ValueError, match=r"c = 1e\+19 needs .* past the limit 9\.223e\+18"):
        fn(params, 3, CascadeSpec((0.5,)), uniform_hierarchy(2), samples=64,
           method="monte-carlo")


@pytest.mark.parametrize("fn", [cavity_g1, cavity_g2, rsb_upper_bound])
def test_poisson_mean_below_numpy_limit_returns(fn):
    # 1e18 slots per site: no class table fits, and sizing one allocates nothing
    est = fn(ModelParams(q=2, beta=1.0, c=1e18), 3, CascadeSpec((0.5,)), uniform_hierarchy(2),
             samples=8, method="monte-carlo", n_atoms=16)
    assert math.isfinite(est.value) and math.isfinite(est.stat_error)


def test_l1_g2_at_m_zero_is_the_limit():
    # G2 of CascadeSpec((0,)) is the m -> 0 limit -c beta / (2q)
    q, beta, c = 2, 1.0, 2.0
    params = ModelParams(q=q, beta=beta, c=c)
    limit = cavity_g2(params, 3, CascadeSpec((0.0,)), uniform_hierarchy(q))
    assert limit.value == -c * beta / (2 * q) and limit.tail_bound == 0.0
    near = cavity_g2(params, 3, CascadeSpec((1e-6,)), uniform_hierarchy(q))
    assert near.value == pytest.approx(limit.value, abs=1e-6)


def test_l1_at_m_zero_and_infinite_beta_raises_on_both_sides():
    params = ModelParams(q=2, beta=math.inf, c=2.0)
    spec = CascadeSpec((0.0,))
    for fn in (cavity_g1, cavity_g2):
        with pytest.raises(BudgetExceededError):
            fn(params, 3, spec, uniform_hierarchy(2))


def test_monte_carlo_needs_an_atom():
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for levels in ((0.5,), (0.3, 0.7)):
        for n_atoms in (0, -4):
            with pytest.raises(ValueError, match="n_atoms"):
                cavity_g1(params, 3, CascadeSpec(levels), uniform_hierarchy(2), samples=8,
                          method="monte-carlo", n_atoms=n_atoms)


def _refuse_draws(seed):
    raise AssertionError("drew samples")


@pytest.mark.parametrize("n_atoms", [2.5, 3.0, True, np.bool_(True), "8", None, 0, -4])
def test_n_atoms_must_be_an_integer_of_at_least_one(monkeypatch, n_atoms):
    # unchecked, a float fails inside numpy on one atom level and is rounded on two
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    with pytest.raises(ValueError, match="n_atoms"):
        sample_pd_atoms(0.5, n_atoms, 3)
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for levels in ((1.0,), (0.5,), (0.3, 0.7)):
        with pytest.raises(ValueError, match="n_atoms"):
            rsb_upper_bound(params, 3, CascadeSpec(levels), uniform_hierarchy(2), samples=8,
                            method="monte-carlo", n_atoms=n_atoms)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(True), "8", None])
@pytest.mark.parametrize("name", ["n", "samples"])
def test_n_and_samples_must_be_integers(monkeypatch, name, bad):
    # unchecked, the closed form took n = 2.5 silently and Monte Carlo ended
    # in numpy's TypeError, which names no argument
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    params = ModelParams(q=2, beta=1.0, c=1.0)
    args = dict(n=3, samples=8)
    args[name] = bad
    for levels, method in (((0.0, 1.0), "closed-form"), ((0.5,), "monte-carlo"),
                           ((0.3, 0.7), "monte-carlo")):
        with pytest.raises(ValueError, match=name):
            rsb_upper_bound(params, args["n"], CascadeSpec(levels), uniform_hierarchy(2),
                            samples=args["samples"], method=method, n_atoms=16)


def test_numpy_integer_n_and_samples_accepted():
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for levels, method in (((0.0, 1.0), "closed-form"), ((0.5,), "monte-carlo")):
        spec = CascadeSpec(levels)
        expect = rsb_upper_bound(params, 3, spec, uniform_hierarchy(2), 8, 5, method, 16)
        assert rsb_upper_bound(params, np.int64(3), spec, uniform_hierarchy(2), np.int32(8), 5,
                               method, 16) == expect


def test_pd_atom_counts_capped_before_any_draw(monkeypatch):
    # 10^15 atoms used to ask numpy for 7.11 PiB and end in a MemoryError
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    for n_atoms in (cascade.MAX_DRAW_CELLS + 1, 10**15):
        with pytest.raises(BudgetExceededError):
            sample_pd_atoms(0.5, n_atoms, 1)
        with pytest.raises(BudgetExceededError):
            stability_test(0.5, n_atoms, 100, 1)
    with pytest.raises(AssertionError):  # the cap itself is accepted
        sample_pd_atoms(0.5, cascade.MAX_DRAW_CELLS, 1)


@pytest.mark.parametrize("draws, error", [(MAX_MC_SAMPLES + 1, BudgetExceededError),
                                          (10**12, BudgetExceededError), (9, ValueError),
                                          (12.5, ValueError), (True, ValueError),
                                          ("100", ValueError)])
def test_stability_draws_checked_before_any_draw(monkeypatch, draws, error):
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    with pytest.raises(error, match="draws|samples"):
        stability_test(0.5, 100, draws, 1)


@pytest.mark.parametrize("name, value", [
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", -0.5),
    ("scale_mismatch", math.nan), ("scale_mismatch", math.inf), ("scale_mismatch", 0.0),
    ("scale_mismatch", -1.0), ("alpha", 2.0), ("alpha", 1.0), ("alpha", 0.0),
    ("alpha", math.nan)])
def test_stability_floats_checked_before_any_draw(monkeypatch, name, value):
    # these returned NaN fields, scaled the reference by a negative sigma, or
    # read every p-value as a failure
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    with pytest.raises(ValueError, match=name):
        stability_test(0.5, 100, 100, 1, **{name: value})


@pytest.mark.parametrize("top", [0, -2, 11, 2.5, True])
def test_stability_top_checked_before_any_draw(monkeypatch, top):
    # these ended in numpy errors that did not name the argument
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    with pytest.raises(ValueError, match="top"):
        stability_test(0.5, 10, 100, 1, top=top)


def test_stability_rejects_arguments_before_importing_scipy_stats():
    # scipy.stats took over a second to import before a bad draw count was refused
    code = ("import sys; from potts_af import stability_test\n"
            "try:\n    stability_test(0.5, 16, 9, 1)\nexcept ValueError:\n    pass\n"
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_numpy_integer_n_atoms_accepted():
    atoms, expect = sample_pd_atoms(0.5, np.int32(40), 3), sample_pd_atoms(0.5, 40, 3)
    np.testing.assert_array_equal(atoms.atoms, expect.atoms)
    assert atoms.tail_mass_bound == expect.tail_mass_bound
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for levels in ((0.5,), (0.3, 0.7)):
        args = (params, 3, CascadeSpec(levels), uniform_hierarchy(2), 8, 5, "monte-carlo")
        assert rsb_upper_bound(*args, n_atoms=np.int64(300)) == rsb_upper_bound(*args,
                                                                                n_atoms=300)


@pytest.mark.parametrize("levels, n_atoms, n, over", [
    ((0.5,), cascade.MAX_DRAW_CELLS // 6, 3, False),  # exactly the cap at q = 2
    ((0.5,), cascade.MAX_DRAW_CELLS // 6 + 1, 3, True),
    ((0.3, 0.7), 4096**2 // 2, 1, False),  # 2 896^2 leaves
    ((0.3, 0.7), 4097**2, 1, True),
    ((0.3, 0.7), 10**400, 1, True),  # past any float
    ((1.0,), 10**400, 2**23, False),  # no atom level: one leaf whatever n_atoms
    ((1.0,), 1, 2**23 + 1, True),
])
def test_cells_per_draw_capped_before_any_draw(monkeypatch, levels, n_atoms, n, over):
    # a refused generator shows that nothing was drawn or allocated per draw
    # on either side of the cap
    monkeypatch.setattr("potts_af.cascade.stream", _refuse_draws)
    params = ModelParams(q=2, beta=1.0, c=1.0)
    with pytest.raises(BudgetExceededError if over else AssertionError):
        rsb_upper_bound(params, n, CascadeSpec(levels), uniform_hierarchy(2), samples=8,
                        method="monte-carlo", n_atoms=n_atoms)


def test_generic_spec_has_no_closed_form():
    # symmetric-t sampled leaves share their atom's pattern: the only specs
    # whose leaf factors are not iid across the atom leaves
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for levels in ((0.3, 0.7), (0.0, 0.5), (0.2, 0.5, 0.8), (0.0, 0.4, 0.8)):
        for fn in (cavity_g1, cavity_g2):
            with pytest.raises(ValueError, match="no closed form"):
                fn(params, 3, CascadeSpec(levels), symmetric_t_hierarchy(2, 0.5),
                   method="closed-form")


# every depth, both endpoints, and at most the two atom levels Monte Carlo supports
ROUTING_LEVELS = [(0.0,), (0.4,), (1.0,), (0.0, 0.5), (0.3, 0.7), (0.0, 1.0), (0.4, 1.0),
                  (0.0, 0.4, 0.8), (0.0, 0.5, 1.0), (0.3, 0.6, 1.0)]


@pytest.mark.parametrize("hier", [uniform_hierarchy(2), symmetric_t_hierarchy(2, 0.5),
                                  symmetric_t_hierarchy(3, -0.3)], ids=lambda h: f"{h.kind}-{h.q}")
def test_auto_samples_only_where_no_closed_level(hier):
    params = ModelParams(q=hier.q, beta=1.0, c=1.0)
    for levels in ROUTING_LEVELS:
        spec = CascadeSpec(levels)
        if spec.depth == 1 and hier.kind != "uniform":
            continue  # one-level trees carry the uniform hierarchy only
        closed = cascade._closed_level(spec, hier) is not None
        assert closed == (spec.last_to_one or hier.kind == "uniform")
        for est in cascade.cavity_terms(params, 3, spec, hier, samples=16, n_atoms=16):
            assert (est.method == METHOD_EXACT) == closed
            assert (est.samples == 0) == closed


# (levels, q, t): t None is the uniform hierarchy
RULE_CASES = [((0.4, 1.0), 2, 0.5), ((0.6, 1.0), 3, -0.4), ((0.3, 0.6, 1.0), 2, -0.7),
              ((0.2, 0.5, 1.0), 3, 0.5), ((0.0, 0.6), 2, None), ((0.3, 0.7), 3, None),
              ((0.5, 1.0), 2, None)]


@pytest.mark.parametrize("levels, q, t", RULE_CASES)
def test_closed_level_rule_matches_monte_carlo(levels, q, t):
    # the closed forms the one rule adds, against the coupled Monte Carlo pass
    hier = uniform_hierarchy(q) if t is None else symmetric_t_hierarchy(q, t)
    params = ModelParams(q=q, beta=1.0, c=2.0)
    spec = CascadeSpec(levels)
    closed = cascade.cavity_terms(params, 2, spec, hier)
    mc = cascade.cavity_terms(params, 2, spec, hier, samples=2000, seed=31,
                              method="monte-carlo", n_atoms=1024)
    for cf, est in zip(closed[:2], mc[:2]):
        assert cf.method == METHOD_EXACT and est.method == METHOD_MC
        budget = 4 * est.stat_error + 3 * est.bias_estimate + cf.tail_bound
        assert abs(est.value - cf.value) <= budget


@pytest.mark.parametrize("levels", [(0.5,), (0.3, 0.7), (0.0, 0.6)])
def test_g1_sampled_leaves_at_infinite_beta_rejected_before_any_sum(monkeypatch, levels):
    # the closed form would gallop the Poisson cutoff to K_SUM_CAP for nothing
    def no_sum(*args):
        raise AssertionError("searched a Poisson truncation")

    monkeypatch.setattr("potts_af.cascade.profile_sum", no_sum)
    spec, hier = CascadeSpec(levels), uniform_hierarchy(2)
    with pytest.raises(ValueError, match="finite beta"):
        cavity_g1(ModelParams(q=2, beta=math.inf, c=1.0), 3, spec, hier)
    assert math.isfinite(cavity_g2(ModelParams(q=2, beta=math.inf, c=1.0), 3, spec, hier).value)
    monkeypatch.undo()  # with no slots every leaf factor is 1
    assert cavity_g1(ModelParams(q=2, beta=math.inf, c=0.0), 3, spec, hier,
                     method="closed-form").value == math.log(2)


def _one_rsb_g2_oracle(beta, c, q, t, m):
    """One-step RSB G2 written out: (c/2) ln(1 - y/q) + (c/2m) ln E[V^m]."""
    x = x_param(beta, q)
    hi = 1.0 + x * t * t
    lo = 1.0 - (q - 1) * x * t * t
    if lo <= 0.0:
        raise ValueError(DEGENERATE_PAIR_FACTOR)
    inner = math.exp(m * math.log(lo)) / q + (1.0 - 1.0 / q) * math.exp(m * math.log(hi))
    return 0.5 * c * math.log1p(math.expm1(-beta) / q) + 0.5 * c / m * math.log(inner)


def _l1_g2_oracle(beta, c, q, m):
    """One-level G2 written out: (c/2m) ln(1 - (1 - e^(-m beta))/q)."""
    return 0.5 * c / m * math.log1p(math.expm1(-m * beta) / q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_g2_closed_forms_match_written_out_oracles(q):
    ts = np.linspace(-1.0 / (q - 1), 1.0, 9)
    for beta, c, m in itertools.product((0.0, 0.4, 1.0, 3.0, math.inf), (0.5, 4.0, 12.0),
                                        (0.1, 0.25, 0.5, 0.75, 0.9)):
        params = ModelParams(q=q, beta=beta, c=c)
        l1 = cavity_g2(params, 3, CascadeSpec((m,)), uniform_hierarchy(q))
        assert l1.value == pytest.approx(_l1_g2_oracle(beta, c, q, m), rel=0, abs=1e-13)
        for t in ts.tolist():
            hier = symmetric_t_hierarchy(q, t)
            try:
                expect = _one_rsb_g2_oracle(beta, c, q, t, m)
            except ValueError:
                with pytest.raises(ValueError) as err:
                    cavity_g2(params, 3, one_rsb_spec(m), hier)
                assert str(err.value) == DEGENERATE_PAIR_FACTOR
                continue
            got = cavity_g2(params, 3, one_rsb_spec(m), hier).value
            assert got == pytest.approx(expect, rel=0, abs=1e-13), (beta, c, m, t)


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


def test_degenerate_pair_factor_has_one_message():
    # the RS and one-RSB closed forms and the Monte Carlo path reject the
    # vanishing pair factor at beta = inf, t = 1 alike
    params, hier = ModelParams(q=2, beta=math.inf, c=1.0), symmetric_t_hierarchy(2, 1.0)
    for spec, method in ((rs_spec(), "closed-form"), (one_rsb_spec(0.5), "closed-form"),
                         (rs_spec(), "monte-carlo")):
        with pytest.raises(ValueError) as err:
            cavity_g2(params, 3, spec, hier, samples=64, method=method)
        assert str(err.value) == DEGENERATE_PAIR_FACTOR


def test_integrated_leaves_at_infinite_beta_finite():
    params = ModelParams(q=2, beta=math.inf, c=1.0)
    for spec in (rs_spec(), one_rsb_spec(0.5)):
        for fn in (cavity_g1, cavity_g2):
            est = fn(params, 3, spec, symmetric_t_hierarchy(2, 0.4), samples=64, seed=2,
                     method="monte-carlo", n_atoms=64)
            assert math.isfinite(est.value) and math.isfinite(est.stat_error)


@pytest.mark.parametrize("spec", [annealed_spec(), rs_spec(), one_rsb_spec(0.5)],
                         ids=["annealed", "rs", "one-rsb"])
def test_numpy_integer_q_is_accepted(spec):
    # ModelParams and the hierarchy take a numpy integer q, so the bound must too
    numpy_q, python_q = (rsb_upper_bound(ModelParams(q, 1.0, 1.0), 3, spec, uniform_hierarchy(q))
                         for q in (np.int64(2), 2))
    assert numpy_q == python_q
