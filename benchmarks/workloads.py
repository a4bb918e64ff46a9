"""The four benchmark workloads: inputs from a seed, and how to run them.

A workload is a list of items.  Each item is a JSON-able spec (its inputs)
plus a ``call`` that names what to run; ``execute`` runs one item through
potts_af's public functions, with a span around every public call, and
returns the item's outputs as plain floats.  All inputs the program sees
come from ``build(workload, seed)``: the parameter grids are fixed, and the
seed supplies every library seed, every sampled coupling matrix and the
seed-drawn closed-form points, so one seed always gives the same inputs.

Why these workloads (each stresses a different module):

- pressure: quenched_pressure_exact in its two regimes, small N (pure-Python
  placement-multiset enumeration) and q=3 N=5-6 (batched ln Z), with plain
  Monte Carlo cross-checks and single-graph enumeration at the edge of the
  state budget.  Uses model, disorder and util; no replica or cascade code.
- sum-rule: sum_rule_deficit drives the same disorder conditional engine
  for Gibbs weights and overlap moments instead of ln Z.
- cascade-mc: rsb_upper_bound by Monte Carlo over truncated cascades plus
  PD atom sampling; never touches the disorder kernel.
- closed-form: deterministic curves, RS scans (the replica profile sum),
  quartic coefficients, closed-form cascade bounds and the second-moment
  optimizer; no Monte Carlo at all.

``probe=True`` gives a small subset of a workload.  A traced run of one
workload runs the probes of the other three so that every per-layer metric
is measured in every traced run (see README.md).
"""

from __future__ import annotations

import math

import numpy as np

from checks import x_param

WORKLOADS = ("pressure", "sum-rule", "cascade-mc", "closed-form")

PRESSURE_EPS = 2e-4
PRESSURE_MC_SAMPLES = 2048
SUM_RULE_R_MAX = 20
SUM_RULE_QUAD = 16
QUARTIC_H = 0.05

# (q, beta, c, n): small N, where placement-multiset enumeration dominates,
# and q = 3 at N = 5-6, where the batched ln Z over placements dominates.
PRESSURE_SMALL = ((2, 0.5, 1.0, 4), (2, 2.0, 4.0, 4), (3, 2.0, 1.0, 3), (3, 0.5, 4.0, 2))
PRESSURE_LARGE = ((3, 2.0, 4.0, 5), (3, 0.5, 1.0, 6))
# plain Monte Carlo cross-checks of two of the points above
PRESSURE_MC = ((2, 0.5, 1.0, 4), (3, 2.0, 4.0, 5))
PRESSURE_MC_DRAWS = 8192
# single graphs at the edge of the default q^N enumeration budget
SINGLE_GRAPH = ((2, 14), (3, 9))
SINGLE_GRAPH_BETA = 1.0
SINGLE_GRAPH_C = 4.0

SUM_RULE_POINTS = ((2, 1.0, 1.0, 2), (2, 1.0, 4.0, 3), (3, 1.0, 2.0, 4), (2, 1.0, 1.0, 6))

# criterion-11 configurations at (q=2, beta=1, c=4, N=5) and the
# criterion-08 q=3 RS configuration; samples are scaled to fit one pass
CASCADE_CONFIGS = {
    "l1": dict(q=2, beta=1.0, c=4.0, n=5, spec=("l1", 0.5), hier=("uniform", 0.0),
               samples=200, n_atoms=2048),
    "rs": dict(q=2, beta=1.0, c=4.0, n=5, spec=("rs",), hier=("symmetric-t", -0.8),
               samples=1000, n_atoms=2048),
    "one_rsb": dict(q=2, beta=1.0, c=4.0, n=5, spec=("one-rsb", 0.5),
                    hier=("symmetric-t", 0.5), samples=200, n_atoms=2048),
    "rs_q3": dict(q=3, beta=0.8, c=2.0, n=3, spec=("rs",), hier=("symmetric-t", -0.3),
                  samples=1000, n_atoms=1024),
}
LAPLACE = dict(m=0.5, p=1.0, lam=1.0, n_atoms=3000, draws=2000)

RS_SCANS = ((2, 1.0, 4.0, 201), (3, 2.0, 10.0, 201), (4, 1.0, 10.0, 41))
QUARTIC_POINTS = ((2, 1.0, 4.0), (3, 2.0, 10.0))
PHASE_C = tuple(float(c) for c in np.linspace(0.5, 40.0, 80))
CLOSED_L1_M = tuple(round(0.1 * i, 1) for i in range(1, 10))
CLOSED_ONE_RSB = tuple((m, t) for m in (0.25, 0.5, 0.75) for t in (-0.8, -0.4, 0.4, 0.8))
OPTIMIZE_BETAS = (0.3, 0.7, 1.3, 2.5, math.inf)
OPTIMIZE_OUTSIDE = ((2, 2.0, 8.0), (3, 2.0, 12.0), (4, 1.5, 20.0))
SEEDED_POINTS = 6


def _tag(*parts) -> str:
    return "-".join(f"{p:g}" if isinstance(p, float) else str(p) for p in parts)


def build(workload: str, seed: int, probe: bool = False) -> list[dict]:
    """The workload's items for this seed; probe=True gives a small subset."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def lib_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    return _BUILDERS[workload](rng, lib_seed, probe)


def _pressure(rng, lib_seed, probe):
    items = []
    small, large = PRESSURE_SMALL, PRESSURE_LARGE
    mc, graphs, draws = PRESSURE_MC, SINGLE_GRAPH, 2
    if probe:
        small, large, mc, graphs, draws = small[:1], large[:1], mc[:1], graphs[:1], 1
    for regime, points in (("small", small), ("large", large)):
        for q, beta, c, n in points:
            items.append(dict(name=f"qpe/{_tag(q, beta, c, n)}", call="quenched_pressure_exact",
                              ref="stat", regime=regime, q=q, beta=beta, c=c, n=n,
                              eps=PRESSURE_EPS, mc_samples=PRESSURE_MC_SAMPLES,
                              seed=lib_seed()))
    for q, beta, c, n in mc:
        items.append(dict(name=f"qpmc/{_tag(q, beta, c, n)}", call="quenched_pressure_mc",
                          ref="stat", pair=f"qpe/{_tag(q, beta, c, n)}", q=q, beta=beta,
                          c=c, n=n, samples=PRESSURE_MC_DRAWS, seed=lib_seed()))
    for q, n in graphs:
        for d in range(draws):
            items.append(dict(name=f"graph/{_tag(q, n)}/{d}", call="single_graph", ref=None,
                              q=q, n=n, beta=SINGLE_GRAPH_BETA, c=SINGLE_GRAPH_C,
                              seed=lib_seed()))
    return items


def _sum_rule(rng, lib_seed, probe):
    points = SUM_RULE_POINTS[2:3] if probe else SUM_RULE_POINTS
    return [dict(name=f"sum_rule/{_tag(q, beta, c, n)}", call="sum_rule_deficit", ref="stat",
                 q=q, beta=beta, c=c, n=n, r_max=SUM_RULE_R_MAX, quad_points=SUM_RULE_QUAD,
                 seed=lib_seed())
            for q, beta, c, n in points]


def _cascade(rng, lib_seed, probe):
    scale = 10 if probe else 1
    items = []
    for label, cfg in CASCADE_CONFIGS.items():
        items.append(dict(cfg, name=f"rsb_mc/{label}", call="rsb_upper_bound_mc", ref="stat",
                          config=label, samples=cfg["samples"] // scale, seed=lib_seed()))
    items.append(dict(LAPLACE, name="pd_laplace", call="pd_laplace", ref=None,
                      draws=LAPLACE["draws"] // scale, seed=lib_seed()))
    return items


def _closed_form(rng, lib_seed, probe):
    items = []
    phase_c = PHASE_C[::8] if probe else PHASE_C
    for q in (2, 3, 4):
        items.append(dict(name=f"phase/q{q}", call="phase_curves", ref="exact", q=q,
                          cs=list(phase_c)))
    for q, beta, c, points in RS_SCANS:
        items.append(dict(name=f"scan/q{q}", call="scan_rs_bound", ref="exact", q=q,
                          beta=beta, c=c, points=11 if probe else points))
    quartic = QUARTIC_POINTS[:1] if probe else QUARTIC_POINTS
    for q, beta, c in quartic:
        items.append(dict(name=f"quartic/{_tag(q, beta, c)}", call="quartic_coefficients",
                          ref="exact", q=q, beta=beta, c=c, h=QUARTIC_H))
    l1_m = CLOSED_L1_M[::4] if probe else CLOSED_L1_M
    one_rsb = CLOSED_ONE_RSB[::6] if probe else CLOSED_ONE_RSB
    for m in l1_m:
        items.append(dict(name=f"closed/l1/{_tag(m)}", call="rsb_upper_bound_closed",
                          ref="exact", q=2, beta=1.0, c=4.0, n=5, spec=("l1", m),
                          hier=("uniform", 0.0)))
    for m, t in one_rsb:
        items.append(dict(name=f"closed/one_rsb/{_tag(m, t)}", call="rsb_upper_bound_closed",
                          ref="exact", q=2, beta=1.0, c=4.0, n=5, spec=("one-rsb", m),
                          hier=("symmetric-t", t)))
    # criterion-10 grid inside the guaranteed region, plus points outside it
    per_q = 2 if probe else 20
    for q in (2, 3, 4):
        gate = 2 * q * math.log(q)
        for i in range(per_q):
            beta = OPTIMIZE_BETAS[i % len(OPTIMIZE_BETAS)]
            c = (i + 1) / per_q * gate / (x_param(beta, q) ** 2 * q * q)
            items.append(dict(name=f"optimize/q{q}/{i}", call="optimize", ref="exact",
                              q=q, beta=beta, c=c))
    if not probe:
        for q, beta, c in OPTIMIZE_OUTSIDE:
            items.append(dict(name=f"optimize/{_tag(q, beta, c)}", call="optimize",
                              ref="exact", q=q, beta=beta, c=c))
    # seed-drawn points, checked by invariants only
    for i in range(1 if probe else SEEDED_POINTS):
        q = int(rng.integers(2, 5))
        beta = float(OPTIMIZE_BETAS[int(rng.integers(0, len(OPTIMIZE_BETAS)))])
        frac = float(rng.uniform(0.05, 1.0))
        c = frac * 2 * q * math.log(q) / (x_param(beta, q) ** 2 * q * q)
        items.append(dict(name=f"optimize/seeded/{i}", call="optimize", ref=None,
                          q=q, beta=beta, c=c))
        items.append(dict(name=f"beta_ent/seeded/{i}", call="beta_ent", ref=None,
                          q=q, c=float(rng.uniform(0.5, 40.0))))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


_BUILDERS = {
    "pressure": _pressure,
    "sum-rule": _sum_rule,
    "cascade-mc": _cascade,
    "closed-form": _closed_form,
}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _estimate(est) -> dict:
    return dict(value=float(est.value), stat_error=float(est.stat_error),
                tail_bound=float(est.tail_bound), samples=int(est.samples))


def _cascade_args(pa, spec: dict):
    kind = spec["spec"][0]
    if kind == "l1":
        cascade = pa.CascadeSpec((spec["spec"][1],))
    elif kind == "rs":
        cascade = pa.rs_spec()
    else:
        cascade = pa.one_rsb_spec(spec["spec"][1])
    hier_kind, t = spec["hier"]
    q = spec["q"]
    hier = pa.uniform_hierarchy(q) if hier_kind == "uniform" else pa.symmetric_t_hierarchy(q, t)
    return pa.ModelParams(q=q, beta=spec["beta"], c=spec["c"]), cascade, hier


def execute(spec: dict, pa, tr) -> dict:
    """Run one item through potts_af's public functions; return its outputs."""
    call = spec["call"]
    if call == "quenched_pressure_exact":
        params = pa.ModelParams(q=spec["q"], beta=spec["beta"], c=spec["c"])
        with tr.span("disorder", "quenched_pressure_exact", n=spec["n"],
                     regime=spec["regime"]) as sp:
            est = pa.quenched_pressure_exact(params, spec["n"], eps=spec["eps"],
                                             seed=spec["seed"], mc_samples=spec["mc_samples"])
        sp.note(samples=est.samples, tail_use=est.tail_bound / (0.5 * spec["eps"]))
        return _estimate(est)
    if call == "quenched_pressure_mc":
        params = pa.ModelParams(q=spec["q"], beta=spec["beta"], c=spec["c"])
        with tr.span("disorder", "quenched_pressure_mc", samples=spec["samples"]):
            est = pa.quenched_pressure_mc(params, spec["n"], spec["samples"], spec["seed"])
        return _estimate(est)
    if call == "single_graph":
        q, n, beta = spec["q"], spec["n"], spec["beta"]
        with tr.span("disorder", "sample_couplings"):
            J = pa.sample_couplings(n, spec["c"], spec["seed"])
        with tr.span("model", "pressure_density", states=q**n):
            pressure = pa.pressure_density(J, beta, q)
        with tr.span("model", "entropy_density", states=q**n):
            entropy = pa.entropy_density(J, beta, q)
        return dict(pressure=float(pressure), entropy=float(entropy),
                    couplings=int(J.sum()))
    if call == "sum_rule_deficit":
        params = pa.ModelParams(q=spec["q"], beta=spec["beta"], c=spec["c"])
        with tr.span("disorder", "sum_rule_deficit") as sp:
            est = pa.sum_rule_deficit(params, spec["n"], spec["r_max"], spec["quad_points"],
                                      seed=spec["seed"])
        sp.note(samples=est.samples)
        return _estimate(est)
    if call == "rsb_upper_bound_mc":
        params, cascade, hier = _cascade_args(pa, spec)
        with tr.span("cascade", "rsb_upper_bound", config=spec["config"],
                     samples=spec["samples"]):
            est = pa.rsb_upper_bound(params, spec["n"], cascade, hier,
                                     samples=spec["samples"], seed=spec["seed"],
                                     method="monte-carlo", n_atoms=spec["n_atoms"])
        return _estimate(est)
    if call == "pd_laplace":
        rng = np.random.Generator(np.random.Philox(spec["seed"]))
        m, p, lam = spec["m"], spec["p"], spec["lam"]
        vals = np.empty(spec["draws"])
        tails = np.empty(spec["draws"])
        for i in range(spec["draws"]):
            with tr.span("cascade", "sample_pd_atoms"):
                atoms = pa.sample_pd_atoms(m, spec["n_atoms"], rng)
            vals[i] = math.exp(-lam * float((atoms.atoms ** p).sum()))
            tails[i] = atoms.tail_mass_bound
        return dict(mean=float(vals.mean()),
                    sem=float(vals.std(ddof=1) / math.sqrt(len(vals))),
                    tail=float(tails.mean()))
    if call == "phase_curves":
        q = spec["q"]
        out = dict(beta_1=[], beta_rs_loc=[], beta_ent=[])
        for c in spec["cs"]:
            for name in out:
                with tr.span("bounds", name):
                    out[name].append(float(getattr(pa, name)(c, q)))
        return out
    if call == "beta_ent":
        with tr.span("bounds", "beta_ent"):
            return dict(beta_ent=float(pa.beta_ent(spec["c"], spec["q"])))
    if call == "scan_rs_bound":
        q, beta, c = spec["q"], spec["beta"], spec["c"]
        with tr.span("replica", "scan_rs_bound", q=q, points=spec["points"]):
            ts, evals = pa.scan_rs_bound(beta, c, q, spec["points"])
        with tr.span("replica", "rs_bound"):
            at_zero = pa.rs_bound(beta, c, q, 0.0)
        with tr.span("bounds", "annealed_pressure"):
            annealed = pa.annealed_pressure(beta, c, q)
        return dict(t=[float(t) for t in ts], rs_bound=[e.rs_bound for e in evals],
                    tail_bound=[e.tail_bound for e in evals],
                    rs_bound_t0=at_zero.rs_bound, annealed=annealed)
    if call == "quartic_coefficients":
        with tr.span("replica", "quartic_coefficients"):
            a1, a2, ref1, ref2 = pa.quartic_coefficients(spec["beta"], spec["c"], spec["q"],
                                                         h=spec["h"])
        return dict(a1=a1, a2=a2, ref1=ref1, ref2=ref2)
    if call == "rsb_upper_bound_closed":
        params, cascade, hier = _cascade_args(pa, spec)
        with tr.span("cascade", "rsb_upper_bound", config="closed"):
            est = pa.rsb_upper_bound(params, spec["n"], cascade, hier, method="closed-form")
        return dict(value=float(est.value), tail_bound=float(est.tail_bound))
    if call == "optimize":
        with tr.span("second_moment", "optimize"):
            res = pa.optimize(spec["beta"], spec["c"], spec["q"])
        return dict(t_star=res.t_star, k_star=res.k_star, max_gap=res.max_gap,
                    certified=bool(res.certified))
    raise ValueError(f"unknown call {call!r}")
