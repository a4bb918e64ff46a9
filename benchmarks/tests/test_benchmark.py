"""Tests of the benchmark itself: seeded inputs and the correctness checks.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def spec_named(workload: str, name: str, seed: int = 3) -> dict:
    return next(s for s in workloads.build(workload, seed) if s["name"] == name)


def stat_output(name: str, **extra) -> dict:
    return dict(REFERENCE["items"][name], samples=1000, **extra)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7, probe=True) == workloads.build(workload, 7, probe=True)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_item_names_unique_and_referenced():
    for workload in workloads.WORKLOADS:
        specs = workloads.build(workload, 1)
        names = [s["name"] for s in specs]
        assert len(names) == len(set(names))
        for spec in specs:
            if spec["ref"]:
                assert spec["name"] in REFERENCE["items"], spec["name"]


def test_pressure_shifted_by_ten_sigma_fails():
    name = "qpe/3-2-4-5"
    spec = spec_named("pressure", name)
    out = stat_output(name)
    assert out["stat_error"] > 0
    assert checks.check_item(spec, out, {name: out}, REFERENCE) == []
    shifted = dict(out, value=out["value"] + 10 * math.sqrt(2) * out["stat_error"]
                   + 2 * out["tail_bound"])
    assert checks.check_item(spec, shifted, {name: shifted}, REFERENCE)


def test_pressure_above_annealed_fails():
    name = "qpe/2-0.5-1-4"
    spec = spec_named("pressure", name)
    out = stat_output(name, stat_error=0.0)
    out["value"] = checks.annealed_pressure(0.5, 1.0, 2) + 1e-8 + out["tail_bound"]
    errs = checks.check_item(spec, out, {name: out}, dict(REFERENCE, items={}))
    assert any("exceeds P" in e for e in errs)


def test_pressure_tail_above_half_eps_fails():
    name = "qpe/2-2-4-4"
    spec = spec_named("pressure", name)
    out = stat_output(name, tail_bound=0.6 * spec["eps"])
    assert any("eps/2" in e for e in checks.check_item(spec, out, {name: out}, REFERENCE))


def test_plain_mc_disagreeing_with_exact_fails():
    name = "qpmc/3-2-4-5"
    spec = spec_named("pressure", name)
    exact = stat_output(spec["pair"])
    out = dict(exact, stat_error=exact["stat_error"], tail_bound=0.0)
    ref = dict(REFERENCE, items={name: dict(out)})
    assert checks.check_item(spec, out, {spec["pair"]: exact, name: out}, ref) == []
    out["value"] += 10 * math.hypot(out["stat_error"], exact["stat_error"]) + exact["tail_bound"]
    errs = checks.check_item(spec, out, {spec["pair"]: exact, name: out}, ref)
    assert any("plain MC" in e for e in errs)


@pytest.mark.parametrize("entropy", [-1e-6, math.log(2) + 1e-6])
def test_single_graph_entropy_outside_range_fails(entropy):
    spec = spec_named("pressure", "graph/2-14/0")
    out = dict(pressure=0.5, entropy=0.3, couplings=20)
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    assert checks.check_item(spec, dict(out, entropy=entropy), {}, REFERENCE)


def test_sum_rule_shifted_deficit_fails():
    name = "sum_rule/2-1-4-3"
    spec = spec_named("sum-rule", name)
    out = stat_output(name)
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    p = REFERENCE["p_N"][name]
    budget = (out["tail_bound"] + 4 * out["stat_error"] + p["tail_bound"]
              + 4 * p["stat_error"])
    assert checks.check_item(spec, dict(out, value=out["value"] + 2 * budget), {}, REFERENCE)


def test_cascade_bound_shifted_by_ten_sigma_fails():
    name = "rsb_mc/rs"
    spec = spec_named("cascade-mc", name)
    out = stat_output(name)
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    shifted = dict(out, value=out["value"] - 10 * out["stat_error"] - out["tail_bound"])
    errs = checks.check_item(spec, shifted, {}, REFERENCE)
    assert any("closed form" in e for e in errs)


def test_cascade_bound_below_p_n_fails():
    name = "rsb_mc/one_rsb"
    spec = spec_named("cascade-mc", name)
    p = REFERENCE["p_N"][name]
    out = dict(value=p["value"] - 0.1, stat_error=1e-4, tail_bound=0.0, samples=200)
    errs = checks.check_item(spec, out, {}, dict(REFERENCE, items={name: dict(out)}))
    assert any("below stored p_N" in e for e in errs)


def test_laplace_functional_shift_fails():
    spec = spec_named("cascade-mc", "pd_laplace")
    target = math.exp(-math.gamma(0.5))
    out = dict(mean=target, sem=1e-3, tail=1e-4)
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    assert checks.check_item(spec, dict(out, mean=target + 10e-3), {}, REFERENCE)


@pytest.mark.parametrize("name", ["closed/l1/0.5", "closed/one_rsb/0.5-0.4",
                                  "optimize/3-2-12", "phase/q3"])
def test_closed_form_shifted_by_1e9_fails(name):
    spec = spec_named("closed-form", name)
    out = copy.deepcopy(REFERENCE["items"][name])
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    if "value" in out:
        out["value"] += 1e-9
    elif "max_gap" in out:
        out["max_gap"] += 1e-9
    else:
        out["beta_ent"][-1] += 1e-9
    assert checks.check_item(spec, out, {}, REFERENCE)


def test_rs_scan_checks():
    spec = spec_named("closed-form", "scan/q3")
    out = copy.deepcopy(REFERENCE["items"]["scan/q3"])
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    moved = copy.deepcopy(out)
    moved["rs_bound"][17] += 1e-9
    assert checks.check_item(spec, moved, {}, REFERENCE)
    off_zero = dict(out, rs_bound_t0=math.nextafter(out["annealed"], 1.0))
    assert any("t=0" in e for e in checks.check_item(spec, off_zero, {}, REFERENCE))


def test_quartic_checks():
    name = "quartic/3-2-10"
    spec = spec_named("closed-form", name)
    out = dict(REFERENCE["items"][name])
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    assert checks.check_item(spec, dict(out, a1=out["a1"] + 1e-5), {}, REFERENCE)
    far = dict(out, a2=1.02 * out["ref2"])
    assert any("1%" in e for e in checks.check_item(spec, far, {}, dict(REFERENCE, items={
        name: far})))


def test_optimize_in_region_must_certify_at_t_one():
    spec = spec_named("closed-form", "optimize/q3/5")
    out = dict(REFERENCE["items"]["optimize/q3/5"], t_star=1.0, k_star=0.0)
    assert checks.check_item(spec, out, {}, REFERENCE) == []
    assert checks.check_item(spec, dict(out, t_star=0.9), {}, REFERENCE)
    assert checks.check_item(spec, dict(out, certified=False), {}, REFERENCE)


def test_seeded_beta_ent_root_checked():
    spec = next(s for s in workloads.build("closed-form", 5) if s["call"] == "beta_ent")
    spec = dict(spec, q=3, c=30.0)
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if checks.annealed_entropy(mid, 30.0, 3) > 0 else (lo, mid)
    assert checks.check_item(spec, dict(beta_ent=lo), {}, REFERENCE) == []
    assert checks.check_item(spec, dict(beta_ent=lo + 1e-6), {}, REFERENCE)


def test_nan_and_errors_fail():
    spec = spec_named("closed-form", "closed/l1/0.5")
    assert checks.check_item(spec, dict(value=math.nan, tail_bound=0.0), {}, REFERENCE)
    assert checks.check_item(spec, dict(error="ValueError: boom"), {}, REFERENCE)


def test_thread_mismatch_counts_as_failure():
    specs = workloads.build("sum-rule", 1)
    baseline = {s["name"]: {"value": 1.0} for s in specs}
    outs = copy.deepcopy(baseline)
    outs[specs[0]["name"]]["value"] = math.nextafter(1.0, 2.0)
    failures = worker._repeat_failures(specs, outs, baseline, {}, "POTTS_AF_THREADS=2")
    assert list(failures) == [specs[0]["name"]]
    tally = worker.Tally()
    tally.add(specs, failures)
    assert (tally.attempted, tally.failed) == (len(specs), 1)


def test_closed_form_workload_passes_at_this_commit():
    import potts_af as pa

    specs = workloads.build("closed-form", 11)
    outs, _ = worker.run_pass(pa, specs, worker.Tracer(False))
    failures = {k: v for k, v in checks.check_all(specs, outs, REFERENCE).items() if v}
    assert failures == {}
