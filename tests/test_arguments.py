"""One table of bad arguments over the public entry points.

Every entry point that takes beta, a connectivity c, the number of colours
q, an integer count, a seed or a tolerance checks it by the rules of util:
q an integer >= 2 (>= 1 in the balanced sector and the single-graph model),
beta >= 0 with infinity allowed, c finite and >= 0, a count an integer (not
a bool) at or above its least value, a seed an integer >= 0 (not a bool),
on every path, exact or sampled, and a tolerance > 0.  Each bad value must
raise a ValueError that names the argument, and must do so before any
search, table build, enumeration or draw: the fixture below makes every
such step fail loudly with an AssertionError.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import potts_af as pa
from potts_af import bounds, cascade, disorder, model, replica, second_moment
from potts_af.replica import profile_sum
from potts_af.second_moment import OverlapMeasure, mu_kt, phi2_kt_gap

NAN, INF = math.nan, math.inf
J3 = np.ones((3, 3), dtype=np.int64)
J4 = np.zeros((4, 4), dtype=np.int64)


def _one(_bundle):
    return 1.0


@pytest.fixture
def no_work(monkeypatch):
    """Make every search, table build, enumeration and draw raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the arguments were checked")

    for module, names in (
            (bounds, ["_entropy"]),
            (model, ["class_representatives", "config_block"]),
            (disorder, ["poisson_cutoff", "stream", "child_seed", "colour_classes",
                        "_menu_sequences"]),
            (replica, ["poisson_cutoff", "_class_table"]),
            (second_moment, ["_profile", "_row_entropy"]),
            (cascade, ["stream", "child_seed", "_class_table"])):
        for name in names:
            monkeypatch.setattr(module, name, refuse)


def _params(q=2, beta=1.0, c=2.0):
    return pa.ModelParams(q=q, beta=beta, c=c)


# entry points of (beta, c, q); each maps the triple to one call
TRIPLE = {
    "annealed_pressure": lambda b, c, q: pa.annealed_pressure(b, c, q),
    "annealed_entropy": lambda b, c, q: pa.annealed_entropy(b, c, q),
    "classify": lambda b, c, q: pa.classify(b, c, q),
    "instability": lambda b, c, q: pa.instability(b, c, q),
    "g1": lambda b, c, q: pa.g1(b, c, q, 0.3),
    "g2": lambda b, c, q: pa.g2(b, c, q, 0.3),
    "rs_bound": lambda b, c, q: pa.rs_bound(b, c, q, 0.3),
    "rs_bound_t0": lambda b, c, q: pa.rs_bound(b, c, q, 0.0),
    "scan_rs_bound": lambda b, c, q: pa.scan_rs_bound(b, c, q, 5),
    "quartic_coefficients": lambda b, c, q: pa.quartic_coefficients(b, c, q),
    "phi2_kt_gap": lambda b, c, q: phi2_kt_gap(b, c, q, 1.0, 0.5),
    "Phi2_kt": lambda b, c, q: pa.Phi2_kt(b, c, q, 1.0, 0.5),
    "optimize": lambda b, c, q: pa.optimize(b, c, q),
    "zero_t_connectivity": lambda b, c, q: pa.zero_t_connectivity(b, c, q),
    "in_guaranteed_region": lambda b, c, q: pa.in_guaranteed_region(b, c, q),
    "rescale": lambda b, c, q: pa.rescale(b, q, c, 1.0),
    "ModelParams": lambda b, c, q: _params(q, b, c),
}
# entry points of c and q alone
C_Q = {
    "beta_1": lambda c, q: pa.beta_1(c, q),
    "beta_rs_loc": lambda c, q: pa.beta_rs_loc(c, q),
    "beta_ent": lambda c, q: pa.beta_ent(c, q),
    # the CLI second-moment field of this name reads beta_1
    "beta_star_certified": lambda c, q: bounds.beta_1(c, q),
}
# entry points of beta and q alone
BETA_Q = {
    "x_param": lambda b, q: pa.x_param(b, q),
    "rescale_multiplier": lambda b, q: pa.rescale_multiplier(b, q),
    "phi2": lambda b, q: pa.phi2(b, 2.0, q, pa.uniform_overlap(2)),
    # the single-graph model and the balanced sector admit q = 1
    "log_partition": lambda b, q: pa.log_partition(J3, b, q),
    "pressure_density": lambda b, q: pa.pressure_density(J3, b, q),
    "gibbs_weights": lambda b, q: pa.gibbs_weights(J3, b, q),
    "entropy_density": lambda b, q: pa.entropy_density(J3, b, q),
    "gibbs_replica_expectation": lambda b, q: pa.gibbs_replica_expectation(J3, b, q, 1, _one),
    "restricted_partition_balanced": lambda b, q: pa.restricted_partition_balanced(J4, b, q),
    "conditional_moments_balanced": lambda b, q: pa.conditional_moments_balanced(4, q, b, 3),
}
Q_ONE = {"log_partition", "pressure_density", "gibbs_weights", "entropy_density",
         "gibbs_replica_expectation", "restricted_partition_balanced",
         "conditional_moments_balanced", "all_energies", "balanced_count"}
# entry points of q alone
Q_ONLY = {
    "thresholds": lambda q: pa.thresholds(q),
    "t_grid": lambda q: pa.t_grid(q),
    "uniform_overlap": lambda q: pa.uniform_overlap(q),
    "mu_kt": lambda q: mu_kt(q, 0, 1.0),
    "uniform_hierarchy": lambda q: pa.uniform_hierarchy(q),
    "symmetric_t_hierarchy": lambda q: pa.symmetric_t_hierarchy(q, 0.0),
    "all_energies": lambda q: pa.all_energies(J3, q),
    "balanced_count": lambda q: pa.balanced_count(4, q),
}
# entry points of a ModelParams: their triple is checked when it is built
PARAMS = {
    "quenched_pressure_exact": lambda p: pa.quenched_pressure_exact(p, 4, eps=1e-3),
    "quenched_pressure_mc": lambda p: pa.quenched_pressure_mc(p, 4, 16, 0),
    "sum_rule_deficit": lambda p: pa.sum_rule_deficit(p, 4, 3, 3),
    "rsb_upper_bound": lambda p: pa.rsb_upper_bound(p, 2, pa.rs_spec(),
                                                    pa.uniform_hierarchy(p.q)),
}

C_BAD = [NAN, INF, -INF, -1.0, -1e-300]
BETA_BAD = [NAN, -1.0]


def _c_rows():
    for c in C_BAD:
        for name, fn in TRIPLE.items():
            yield f"{name}-c={c}", (lambda fn=fn, c=c: fn(1.0, c, 2)), "c must be finite"
        for name, fn in C_Q.items():
            yield f"{name}-c={c}", (lambda fn=fn, c=c: fn(c, 3)), "c must be finite"
        for name, fn in PARAMS.items():
            yield f"{name}-c={c}", (lambda fn=fn, c=c: fn(_params(c=c))), "c must be finite"
        yield (f"ising_gap-c={c}", lambda c=c: pa.ising_gap(1.0, c, 0.3), "c must be finite")
        yield (f"sample_couplings-c={c}", lambda c=c: pa.sample_couplings(3, c, 0),
               "c must be finite")
        yield (f"phi2-kappa={c}", lambda c=c: pa.phi2(1.0, c, 2, pa.uniform_overlap(2)),
               "kappa must be finite")


def _beta_rows():
    for b in BETA_BAD:
        for name, fn in TRIPLE.items():
            yield f"{name}-beta={b}", (lambda fn=fn, b=b: fn(b, 2.0, 2)), "beta must be >= 0"
        for name, fn in BETA_Q.items():
            yield f"{name}-beta={b}", (lambda fn=fn, b=b: fn(b, 2)), "beta must be >= 0"
        for name, fn in PARAMS.items():
            yield (f"{name}-beta={b}", lambda fn=fn, b=b: fn(_params(beta=b)),
                   "beta must be >= 0")
        yield (f"ising_gap-beta={b}", lambda b=b: pa.ising_gap(b, 2.0, 0.3),
               "beta must be >= 0")


def _q_rows():
    by_q = {**{n: (lambda q, fn=fn: fn(1.0, 2.0, q)) for n, fn in TRIPLE.items()},
            **{n: (lambda q, fn=fn: fn(2.0, q)) for n, fn in C_Q.items()},
            **{n: (lambda q, fn=fn: fn(1.0, q)) for n, fn in BETA_Q.items()},
            **Q_ONLY}
    for name, fn in by_q.items():
        low = 1 if name in Q_ONE else 2
        for q in [low - 1, 2.0, 2.5, True]:
            yield f"{name}-q={q!r}", (lambda fn=fn, q=q: fn(q)), f"q must be an integer >= {low}"


# (entry point, count name, least value, call with the count)
COUNTS = [
    ("t_grid", "points", 1, lambda v: pa.t_grid(2, v)),
    ("scan_rs_bound", "points", 1, lambda v: pa.scan_rs_bound(1.0, 2.0, 2, v)),
    ("quenched_pressure_exact", "n", 1, lambda v: pa.quenched_pressure_exact(_params(), v)),
    ("quenched_pressure_exact", "mc_samples", 1,
     lambda v: pa.quenched_pressure_exact(_params(), 4, mc_samples=v)),
    ("quenched_pressure_mc", "n", 1, lambda v: pa.quenched_pressure_mc(_params(), v, 16, 0)),
    ("quenched_pressure_mc", "samples", 2, lambda v: pa.quenched_pressure_mc(_params(), 4, v, 0)),
    ("sum_rule_deficit", "n", 1, lambda v: pa.sum_rule_deficit(_params(), v, 3, 3)),
    ("sum_rule_deficit", "r_max", 1, lambda v: pa.sum_rule_deficit(_params(), 4, v, 3)),
    ("sum_rule_deficit", "quad_points", 3, lambda v: pa.sum_rule_deficit(_params(), 4, 3, v)),
    ("sample_couplings", "n", 1, lambda v: pa.sample_couplings(v, 1.0, 0)),
    ("balanced_count", "n", 1, lambda v: pa.balanced_count(v, 1)),
    ("conditional_moments_balanced", "k", 0,
     lambda v: pa.conditional_moments_balanced(4, 2, 1.0, v)),
    ("gibbs_replica_expectation", "n_replicas", 1,
     lambda v: pa.gibbs_replica_expectation(J3, 1.0, 2, v, _one)),
    ("rsb_upper_bound", "n", 1,
     lambda v: pa.rsb_upper_bound(_params(), v, pa.rs_spec(), pa.uniform_hierarchy(2))),
    ("rsb_upper_bound", "samples", 2,
     lambda v: pa.rsb_upper_bound(_params(), 2, pa.one_rsb_spec(0.5), pa.uniform_hierarchy(2),
                                  samples=v, method="monte-carlo")),
    ("rsb_upper_bound", "n_atoms", 1,
     lambda v: pa.rsb_upper_bound(_params(), 2, pa.one_rsb_spec(0.5), pa.uniform_hierarchy(2),
                                  samples=8, method="monte-carlo", n_atoms=v)),
    ("sample_pd_atoms", "n_atoms", 1, lambda v: pa.sample_pd_atoms(0.5, v, 1)),
    ("stability_test", "draws", 10, lambda v: pa.stability_test(0.5, 16, v, 1)),
    ("stability_test", "top", 1, lambda v: pa.stability_test(0.5, 16, 100, 1, top=v)),
]


def _count_rows():
    for name, arg, least, fn in COUNTS:
        for v in (least - 1, 2.5, True):  # a bool is no count, whatever the least value
            yield (f"{name}-{arg}={v!r}", lambda fn=fn, v=v: fn(v),
                   f"{arg} must be an integer >= {least}")


# (entry point, call with the seed): the exact and closed-form paths, which
# draw nothing, check the seed as the sampling ones do
SEEDS = [
    ("quenched_pressure_exact", lambda v: pa.quenched_pressure_exact(_params(), 4, seed=v)),
    ("quenched_pressure_mc", lambda v: pa.quenched_pressure_mc(_params(), 4, 16, v)),
    ("sum_rule_deficit", lambda v: pa.sum_rule_deficit(_params(), 4, 3, 3, seed=v)),
    ("sample_couplings", lambda v: pa.sample_couplings(3, 1.0, v)),
    ("stability_test", lambda v: pa.stability_test(0.5, 16, 100, v)),
    *((f"{fn.__name__}-{method}",
       lambda v, fn=fn, method=method: fn(_params(), 2, pa.one_rsb_spec(0.5),
                                          pa.uniform_hierarchy(2), samples=8, seed=v,
                                          method=method))
      for fn in (cascade.cavity_g1, cascade.cavity_g2, cascade.cavity_terms,
                 cascade.rsb_upper_bound)
      for method in ("closed-form", "monte-carlo")),
]


def _seed_rows():
    for name, fn in SEEDS:
        for v in (-1, 1.5, True):
            yield f"{name}-seed={v!r}", (lambda fn=fn, v=v: fn(v)), "seed must be an integer >= 0"


# (entry point, tolerance name, call with the tolerance)
TOLERANCES = [
    ("quenched_pressure_exact", "eps", lambda v: pa.quenched_pressure_exact(_params(), 4, eps=v)),
    ("profile_sum", "eps", lambda v: profile_sum(2.0, 2, -0.1, 0.1, 0.0, v)),
]


def _tolerance_rows():
    for name, arg, fn in TOLERANCES:
        for v in (0.0, -1.0, NAN):
            yield f"{name}-{arg}={v}", (lambda fn=fn, v=v: fn(v)), f"{arg} must be > 0"


# inputs that gave NaN, a wrong number or a different error before the rules
# were shared, as (id, call, message)
REGRESSIONS = [
    ("ising_gap(1, nan, 0.3)", lambda: pa.ising_gap(1, NAN, 0.3), "c must be finite"),
    ("ising_gap(1, -1, 0.3)", lambda: pa.ising_gap(1, -1, 0.3), "c must be finite"),
    ("phi2 kappa nan", lambda: pa.phi2(1, NAN, 2, pa.uniform_overlap(2)), "kappa must be"),
    ("phi2 kappa -1", lambda: pa.phi2(1, -1, 2, pa.uniform_overlap(2)), "kappa must be"),
    ("quartic_coefficients(1, nan, 2)", lambda: pa.quartic_coefficients(1, NAN, 2),
     "c must be finite"),
    ("quartic_coefficients(1, inf, 2)", lambda: pa.quartic_coefficients(1, INF, 2),
     "c must be finite"),
    ("quartic_coefficients(1, -1, 2)", lambda: pa.quartic_coefficients(1, -1, 2),
     "c must be finite"),
    ("scan_rs_bound(1, inf, 2, 5)", lambda: pa.scan_rs_bound(1, INF, 2, 5), "c must be finite"),
    ("rs_bound(1, inf, 2, 0.3)", lambda: pa.rs_bound(1, INF, 2, 0.3), "c must be finite"),
    ("rs_bound(1, inf, 2, 0.0)", lambda: pa.rs_bound(1, INF, 2, 0.0), "c must be finite"),
    ("beta_ent(inf, 3)", lambda: pa.beta_ent(INF, 3), "c must be finite"),
    ("beta_1(inf, 3)", lambda: pa.beta_1(INF, 3), "c must be finite"),
    ("beta_rs_loc(inf, 3)", lambda: pa.beta_rs_loc(INF, 3), "c must be finite"),
    ("classify(1, inf, 2)", lambda: pa.classify(1, INF, 2), "c must be finite"),
    ("instability(1, inf, 2)", lambda: pa.instability(1, INF, 2), "c must be finite"),
    ("annealed_pressure(1, inf, 2)", lambda: pa.annealed_pressure(1, INF, 2),
     "c must be finite"),
    ("conditional_moments_balanced(4, 2, nan, 3)",
     lambda: pa.conditional_moments_balanced(4, 2, NAN, 3), "beta must be >= 0"),
    ("conditional_moments_balanced(4, 2, -1, 3)",
     lambda: pa.conditional_moments_balanced(4, 2, -1, 3), "beta must be >= 0"),
    ("conditional_moments_balanced(4, 2, 1, 2.5)",
     lambda: pa.conditional_moments_balanced(4, 2, 1, 2.5), "k must be an integer"),
    ("zero_t_connectivity(1, nan, 2)", lambda: pa.zero_t_connectivity(1, NAN, 2),
     "c must be finite"),
    ("in_guaranteed_region(1, nan, 2)", lambda: pa.in_guaranteed_region(1, NAN, 2),
     "c must be finite"),
    ("rescale(1, 2, nan, 1)", lambda: pa.rescale(1, 2, NAN, 1), "c must be finite"),
    ("rescale(1, 2, 1, nan)", lambda: pa.rescale(1, 2, 1, NAN), "k must lie"),
    ("t_grid(2, 2.5)", lambda: pa.t_grid(2, 2.5), "points must be an integer"),
    ("balanced_count(4, 2.0)", lambda: pa.balanced_count(4, 2.0), "q must be an integer"),
    ("OverlapMeasure(nan)", lambda: OverlapMeasure(np.full((2, 2), NAN)),
     "overlap measure entries must be finite"),
    *((f"quartic_coefficients(h={h})", lambda h=h: pa.quartic_coefficients(1.0, 2.0, 2, h=h),
       "h must be finite and > 0") for h in (0.0, -0.05, NAN, INF)),
    # steps whose -2h (q = 3) or +2h (q = 2) stencil point leaves the t domain
    ("quartic_coefficients(q=3, h=0.3)", lambda: pa.quartic_coefficients(1.0, 2.0, 3, h=0.3),
     "h must be <= 1/(2(q-1)) = 0.25 at q = 3, got 0.3"),
    ("quartic_coefficients(q=2, h=0.6)", lambda: pa.quartic_coefficients(1.0, 4.0, 2, h=0.6),
     "h must be <= 1/(2(q-1)) = 0.5 at q = 2, got 0.6"),
]

# the remaining structural checks: a shape, a domain or a field out of range
BRANCHES = [
    ("rsb_upper_bound, hierarchy q != model q",
     lambda: pa.rsb_upper_bound(_params(q=2), 2, pa.rs_spec(), pa.uniform_hierarchy(3)),
     "hierarchy q does not match model q"),
    ("SpinHierarchySpec('cone', 2)", lambda: cascade.SpinHierarchySpec("cone", 2),
     "unknown hierarchy kind 'cone'"),
    # an array's first bad t raises its own message, wherever it stands
    ("factor_logs(1, 3, [0, 0.5, 2, -3])",
     lambda: replica.factor_logs(1.0, 3, np.array([0.0, 0.5, 2.0, -3.0])),
     "t = 2.0 outside ansatz domain [-1/(q-1), 1] for q = 3"),
    ("pair_logs(1, 3, [0, 1.5])", lambda: replica.pair_logs(1.0, 3, np.array([0.0, 1.5])),
     "t = 1.5 outside ansatz domain [-1/(q-1), 1] for q = 3"),
    ("factor_logs(inf, 3, [0, 1])", lambda: replica.factor_logs(INF, 3, np.array([0.0, 1.0])),
     "degenerate product factor at x=0.5, t=1.0, q=3 (requires beta < inf)"),
    ("OverlapMeasure(2 x 3)", lambda: OverlapMeasure(np.full((2, 3), 1.0 / 6)),
     "overlap measure must be a square array"),
    ("OverlapMeasure(sum 1.2)", lambda: OverlapMeasure(np.full((2, 2), 0.3)),
     "overlap measure must sum to 1"),
    ("phi2 on [2]^2 at q = 3", lambda: pa.phi2(1.0, 2.0, 3, pa.uniform_overlap(2)),
     "measure is on [2]^2, expected [3]^2"),
    ("mu_kt(3, 0, 3.5)", lambda: mu_kt(3, 0, 3.5), "t must lie in [0, 3], got 3.5"),
    ("mu_kt(3, 0, -0.5)", lambda: mu_kt(3, 0, -0.5), "t must lie in [0, 3], got -0.5"),
    ("mu_kt(3, 4, 1)", lambda: mu_kt(3, 4, 1.0), "k must lie in [0, 3], got 4"),
    ("phi2_kt_gap k = 4", lambda: phi2_kt_gap(1.0, 2.0, 3, 4.0, 1.0),
     "(k, t) must lie in [0, 3]^2, got (4.0, 1.0)"),
    ("phi2_kt_gap t = -0.5", lambda: phi2_kt_gap(1.0, 2.0, 3, 1.0, -0.5),
     "(k, t) must lie in [0, 3]^2, got (1.0, -0.5)"),
    ("as_replicas([])", lambda: model.as_replicas(np.zeros((0, 3))),
     "replica bundle must be a nonempty R x N array"),
    *((f"QuenchedEstimate({field}=-1e-3)",
       lambda field=field: disorder.QuenchedEstimate(
           **dict(dict(value=1.0, stat_error=0.0, tail_bound=0.0, samples=0,
                       method=disorder.METHOD_EXACT), **{field: -1e-3})),
       "error fields must be nonnegative")
      for field in ("stat_error", "tail_bound", "bias_estimate")),
]

ROWS = [*_c_rows(), *_beta_rows(), *_q_rows(), *_count_rows(), *_seed_rows(),
        *_tolerance_rows(), *REGRESSIONS, *BRANCHES]


@pytest.mark.parametrize("call, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_bad_argument_raises_value_error_naming_it(no_work, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("q", [2, np.int64(3)])
def test_good_arguments_pass_the_rules(q):
    # the limits of each rule are admitted: beta = inf, c = 0, numpy integers
    assert pa.annealed_pressure(INF, 0.0, q) == math.log(q)
    assert pa.x_param(INF, q) == 1.0 / (q - 1)
    assert pa.balanced_count(int(q), 1) == 1
    assert pa.conditional_moments_balanced(2, 1, 1.0, np.int64(0)) == (1.0, 1.0)
    assert np.array_equal(pa.sample_couplings(3, 1.0, np.int64(7)), pa.sample_couplings(3, 1.0, 7))
    # the largest stencil step, h = 1/(2(q-1)), puts -2h on the end of the t domain
    assert all(map(math.isfinite, pa.quartic_coefficients(1.0, 2.0, q, h=0.5 / (q - 1))))
