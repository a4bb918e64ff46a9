"""Correctness checks on a workload's outputs.

Checks are pure functions of the outputs, the item specs and the stored
references, so a test can feed them a perturbed value.  They use their own
closed forms (annealed pressure, annealed entropy, the PD Laplace
functional) rather than potts_af's, so a defect in the program cannot hide
in its own oracle.

References (reference.json) were generated at the seed commit.  Exact
outputs must match them to EXACT_TOL, widened only by the certified
truncation tails both sides report.  Monte Carlo outputs are compared
statistically, within SIGMAS combined standard errors plus both tails, so a
change that re-orders draws still passes.
"""

from __future__ import annotations

import math

SIGMAS = 4.0
EXACT_TOL = 1e-12
DOMINATION_SLACK = 1e-9


def annealed_pressure(beta: float, c: float, q: int) -> float:
    y = 1.0 if beta == math.inf else -math.expm1(-beta)
    return math.log(q) + 0.5 * c * math.log1p(-y / q)


def annealed_entropy(beta: float, c: float, q: int) -> float:
    u = math.exp(-beta)
    return annealed_pressure(beta, c, q) + 0.5 * beta * c * u / (q - 1.0 + u)


def x_param(beta: float, q: int) -> float:
    if beta == math.inf:
        return 1.0 / (q - 1)
    u = math.exp(-beta)
    return (1.0 - u) / (q - 1.0 + u)


def in_guaranteed_region(beta: float, c: float, q: int) -> bool:
    return x_param(beta, q) ** 2 * q * q * c <= 2.0 * q * math.log(q)


def quartic_tolerance(h: float) -> float:
    """EXACT_TOL on every g evaluation, propagated through the stencil.

    quartic_coefficients combines (4 s(h/2) - s(h)) / 3 with
    s(hh) = (g(2hh) - 4 g(hh)) / (12 hh^4), each g an even average.
    """
    def stencil(hh: float) -> float:
        return 5.0 / (12.0 * hh**4)

    return EXACT_TOL * (4.0 * stencil(h / 2) + stencil(h)) / 3.0


def _close(value: float, ref: float, tol: float) -> bool:
    if value == ref:
        return True
    return abs(value - ref) <= tol


# outputs whose certified truncation tail is reported beside them
_TAILED = ("value", "rs_bound")


def _compare_exact(out: dict, ref: dict, skip=()) -> list[str]:
    errors = []
    tails_out = out.get("tail_bound")
    tails_ref = ref.get("tail_bound")
    for key, expected in ref.items():
        if key in skip or key == "tail_bound":
            continue
        got = out.get(key)
        if isinstance(expected, list):
            if not isinstance(got, list) or len(got) != len(expected):
                errors.append(f"{key}: shape differs from reference")
                continue
            for i, (g, e) in enumerate(zip(got, expected)):
                tol = EXACT_TOL
                if key in _TAILED and isinstance(tails_ref, list):
                    tol += tails_out[i] + tails_ref[i]
                if not _close(g, e, tol):
                    errors.append(f"{key}[{i}] = {g!r} differs from reference {e!r}")
                    break
        else:
            tol = EXACT_TOL
            if key in _TAILED and isinstance(tails_ref, float):
                tol += tails_out + tails_ref
            if not _close(got, expected, tol):
                errors.append(f"{key} = {got!r} differs from reference {expected!r}")
    return errors


def _compare_stat(out: dict, ref: dict) -> list[str]:
    budget = (SIGMAS * math.hypot(out["stat_error"], ref["stat_error"])
              + out["tail_bound"] + ref["tail_bound"] + EXACT_TOL)
    diff = abs(out["value"] - ref["value"])
    if diff > budget:
        return [f"value {out['value']!r} is {diff:.3e} from reference {ref['value']!r} "
                f"(budget {budget:.3e})"]
    return []


def _check_qpe(spec, out, outs, stored):
    errs = []
    P = annealed_pressure(spec["beta"], spec["c"], spec["q"])
    excess = out["value"] - (P + DOMINATION_SLACK + out["tail_bound"] + SIGMAS * out["stat_error"])
    if excess > 0:
        errs.append(f"p_N exceeds P + 1e-9 + tail + 4 sigma by {excess:.3e}")
    if out["tail_bound"] > 0.5 * spec["eps"]:
        errs.append(f"tail_bound {out['tail_bound']:.3e} > eps/2")
    return errs


def _check_qpmc(spec, out, outs, stored):
    exact = outs.get(spec["pair"])
    if exact is None:
        return [f"paired exact estimate {spec['pair']} missing"]
    budget = SIGMAS * math.hypot(out["stat_error"], exact["stat_error"]) + exact["tail_bound"]
    diff = abs(out["value"] - exact["value"])
    if diff > budget:
        return [f"plain MC and exact pressures differ by {diff:.3e} > {budget:.3e}"]
    return []


def _check_single_graph(spec, out, outs, stored):
    q, n, beta = spec["q"], spec["n"], spec["beta"]
    errs = []
    if not (-EXACT_TOL <= out["entropy"] <= math.log(q) + EXACT_TOL):
        errs.append(f"entropy {out['entropy']!r} outside [0, ln q]")
    lo = math.log(q) - beta * out["couplings"] / n
    if not (lo - EXACT_TOL <= out["pressure"] <= math.log(q) + EXACT_TOL):
        errs.append(f"pressure {out['pressure']!r} outside [ln q - beta |J|/N, ln q]")
    return errs


def _check_sum_rule(spec, out, outs, stored):
    p = stored["p_N"].get(spec["name"])
    if p is None:
        return ["no stored p_N for this point"]
    gap = annealed_pressure(spec["beta"], spec["c"], spec["q"]) - p["value"]
    budget = (out["tail_bound"] + SIGMAS * out["stat_error"]
              + p["tail_bound"] + SIGMAS * p["stat_error"])
    diff = abs(out["value"] - gap)
    if diff > budget:
        return [f"|deficit - (P - p_N)| = {diff:.3e} > {budget:.3e}"]
    return []


def _check_rsb_mc(spec, out, outs, stored):
    errs = []
    closed = stored["closed_form"][spec["config"]]
    budget = SIGMAS * out["stat_error"] + out["tail_bound"] + closed["tail_bound"]
    diff = abs(out["value"] - closed["value"])
    if diff > budget:
        errs.append(f"MC bound {diff:.3e} from its closed form (budget {budget:.3e})")
    p = stored["p_N"][spec["name"]]
    slack = (SIGMAS * (out["stat_error"] + p["stat_error"]) + out["tail_bound"]
             + p["tail_bound"] + 3 * out["tail_bound"])
    if out["value"] < p["value"] - slack:
        errs.append(f"bound {out['value']!r} below stored p_N {p['value']!r} - {slack:.3e}")
    return errs


def _check_laplace(spec, out, outs, stored):
    ratio = spec["m"] / spec["p"]
    target = math.exp(-(spec["lam"] ** ratio) * math.gamma(1.0 - ratio))
    budget = SIGMAS * out["sem"] + spec["lam"] * out["tail"]
    diff = abs(out["mean"] - target)
    if diff > budget:
        return [f"Laplace functional off by {diff:.3e} > {budget:.3e}"]
    return []


def _check_phase(spec, out, outs, stored):
    if spec["q"] == 2 and out["beta_1"] != out["beta_rs_loc"]:
        return ["beta_1 differs from beta_rs_loc at q = 2"]
    return []


def _check_beta_ent(spec, out, outs, stored):
    q, c, root = spec["q"], spec["c"], out["beta_ent"]
    c_ent = 2.0 * math.log(q) / abs(math.log1p(-1.0 / q))
    if c <= c_ent:
        return [] if root == math.inf else [f"beta_ent = {root!r} but c <= c_ent"]
    if not (annealed_entropy(root - 1e-9, c, q) > 0.0 > annealed_entropy(root + 1e-9, c, q)):
        return [f"beta_ent = {root!r} does not bracket the entropy root"]
    return []


def _check_scan(spec, out, outs, stored):
    P = annealed_pressure(spec["beta"], spec["c"], spec["q"])
    errs = []
    if out["rs_bound_t0"] != out["annealed"]:
        errs.append(f"rs_bound(t=0) = {out['rs_bound_t0']!r} != P = {out['annealed']!r}")
    if abs(out["annealed"] - P) > EXACT_TOL:
        errs.append(f"annealed_pressure {out['annealed']!r} != {P!r}")
    return errs


def _check_quartic(spec, out, outs, stored):
    errs = []
    for got, ref in (("a1", "ref1"), ("a2", "ref2")):
        if abs(out[got] - out[ref]) > 0.01 * abs(out[ref]):
            errs.append(f"{got} = {out[got]!r} not within 1% of {out[ref]!r}")
    return errs


def _check_optimize(spec, out, outs, stored):
    if not in_guaranteed_region(spec["beta"], spec["c"], spec["q"]):
        return []
    errs = []
    if not out["certified"]:
        errs.append(f"not certified inside the guaranteed region (gap {out['max_gap']!r})")
    if abs(out["t_star"] - 1.0) > 1e-9:
        errs.append(f"t* = {out['t_star']!r} != 1 inside the guaranteed region")
    return errs


_CHECKS = {
    "quenched_pressure_exact": _check_qpe,
    "quenched_pressure_mc": _check_qpmc,
    "single_graph": _check_single_graph,
    "sum_rule_deficit": _check_sum_rule,
    "rsb_upper_bound_mc": _check_rsb_mc,
    "pd_laplace": _check_laplace,
    "phase_curves": _check_phase,
    "beta_ent": _check_beta_ent,
    "scan_rs_bound": _check_scan,
    "quartic_coefficients": _check_quartic,
    "rsb_upper_bound_closed": lambda *a: [],
    "optimize": _check_optimize,
}


def _nan_free(value) -> bool:
    if isinstance(value, list):
        return all(_nan_free(v) for v in value)
    return not (isinstance(value, float) and math.isnan(value))


def check_item(spec: dict, out: dict, outs: dict, reference: dict) -> list[str]:
    """Failure messages for one item (empty when it passes)."""
    if "error" in out:
        return [out["error"]]
    if not all(_nan_free(v) for v in out.values()):
        return ["output contains NaN"]
    errs = list(_CHECKS[spec["call"]](spec, out, outs, reference))
    ref = reference["items"].get(spec["name"]) if spec.get("ref") else None
    if spec.get("ref") and ref is None:
        errs.append("no stored reference for this item")
    elif spec.get("ref") == "exact":
        if spec["call"] == "quartic_coefficients":
            tol = quartic_tolerance(spec["h"])
            errs += [f"{k} = {out[k]!r} differs from reference {ref[k]!r}"
                     for k in ("a1", "a2") if not _close(out[k], ref[k], tol)]
            errs += _compare_exact(out, ref, skip=("a1", "a2"))
        elif spec["call"] == "optimize":
            # the argmax is not unique on the certified t = 1 line, so only
            # the maximum and the verdict are compared
            errs += _compare_exact(out, ref, skip=("t_star", "k_star"))
        else:
            errs += _compare_exact(out, ref)
    elif spec.get("ref") == "stat":
        errs += _compare_stat(out, ref)
    return errs


def check_all(specs: list[dict], outs: dict, reference: dict) -> dict[str, list[str]]:
    return {spec["name"]: check_item(spec, outs[spec["name"]], outs, reference)
            for spec in specs}
