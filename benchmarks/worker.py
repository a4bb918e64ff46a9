"""Run one workload in-process and print its measurements as one JSON line.

run.py starts this file in a fresh interpreter whose environment pins the
BLAS/OpenMP thread count and POTTS_AF_THREADS, with the checkout's src/ on
PYTHONPATH.  It is not meant to be started by hand.

Untraced (--trace 0): one warm-up pass, whose outputs are checked, then
timed passes over the same inputs until --seconds have passed (at least
MIN_PASSES).  Every timed pass must reproduce the warm-up outputs exactly.
The timed passes are interleaved with the calibration kernel, and wall_s is
the median pass time scaled to the reference machine speed by the median
kernel reading of the run (calibrate.py).

Traced (--trace 1): cycles of one traced pass and two untraced passes, one
at POTTS_AF_THREADS=1 and one at 2 (the order alternates), until --seconds
have passed (at least MIN_CYCLES).  The untraced pair gives the thread-pool
ratio and the bit-identity check; traced minus untraced gives the tracing
overhead.  Then one traced probe pass of each other workload fills the
per-layer metrics this workload does not exercise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

MIN_PASSES = 3
MIN_CYCLES = 2
CALIBRATE_EVERY_S = 0.3
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def run_pass(pa, specs: list[dict], tr: Tracer,
             kernel_times: list[float] | None = None) -> tuple[dict, float]:
    """Run every item once; return the outputs and the time spent in items.

    With kernel_times given, the calibration kernel runs before the first
    item and then between items every CALIBRATE_EVERY_S of item time; its
    times are appended there and are not part of the returned time.
    """
    outs = {}
    busy, next_kernel = 0.0, 0.0
    for spec in specs:
        if kernel_times is not None and busy >= next_kernel:
            kernel_times.append(calibrate.kernel())
            next_kernel = busy + CALIBRATE_EVERY_S
        start = time.perf_counter()
        with tr.span("bench", spec["call"], item=spec["name"]):
            try:
                outs[spec["name"]] = workloads.execute(spec, pa, tr)
            except Exception as exc:  # a raising item is one failed operation
                outs[spec["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
        busy += time.perf_counter() - start
    return outs, busy


def stat_error_rms(specs: list[dict], outs: dict) -> float:
    """RMS error of the workload's estimated outputs.

    Monte Carlo estimates contribute their stat_error.  closed-form has no
    Monte Carlo estimate; its only estimated outputs are the
    finite-difference quartic coefficients, which contribute their distance
    from the closed forms.
    """
    errs = []
    for spec in specs:
        out = outs[spec["name"]]
        if out.get("samples", 0) > 0:
            errs.append(out["stat_error"])
        elif spec["call"] == "quartic_coefficients" and "a1" in out:
            errs += [out["a1"] - out["ref1"], out["a2"] - out["ref2"]]
    if not errs:  # every estimate failed; the run is already incorrect
        return 0.0
    return math.sqrt(sum(e * e for e in errs) / len(errs))


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _select(spans, qualname: str, where: dict):
    return [s for s in spans if s.qualname == qualname
            and all(s.attrs.get(k) == v for k, v in where.items())]


def _per_unit(sel, unit: str | None, scale: float) -> float:
    work = len(sel) if unit is None else sum(s.attrs[unit] for s in sel)
    return scale * sum(s.duration for s in sel) / work if work else 0.0


def _per_pass(sel, value) -> float:
    totals: dict[int, float] = {}
    for s in sel:
        totals[s.pass_id] = totals.get(s.pass_id, 0.0) + value(s)
    return statistics.median(totals.values())


def _dur(s):
    return s.duration


def _attr(name):
    return lambda s: s.attrs[name]


# name -> (unit, span qualname, span filter, reducer over the selected spans)
LAYER_METRICS = {
    "model.pressure_density.us_per_state":
        ("us", "model.pressure_density", {}, lambda sel: _per_unit(sel, "states", 1e6)),
    "disorder.quenched_pressure_exact.small_n_s":
        ("s", "disorder.quenched_pressure_exact", {"regime": "small"},
         lambda sel: _per_pass(sel, _dur)),
    "disorder.quenched_pressure_exact.large_n_s":
        ("s", "disorder.quenched_pressure_exact", {"regime": "large"},
         lambda sel: _per_pass(sel, _dur)),
    "disorder.quenched_pressure_exact.mc_samples":
        ("count", "disorder.quenched_pressure_exact", {},
         lambda sel: _per_pass(sel, _attr("samples"))),
    "disorder.quenched_pressure_exact.tail_use":
        ("ratio", "disorder.quenched_pressure_exact", {},
         lambda sel: statistics.fmean(s.attrs["tail_use"] for s in sel)),
    "disorder.quenched_pressure_mc.us_per_sample":
        ("us", "disorder.quenched_pressure_mc", {}, lambda sel: _per_unit(sel, "samples", 1e6)),
    "disorder.sum_rule_deficit.s_per_point":
        ("s", "disorder.sum_rule_deficit", {}, lambda sel: _per_unit(sel, None, 1.0)),
    "disorder.sum_rule_deficit.mc_samples":
        ("count", "disorder.sum_rule_deficit", {}, lambda sel: _per_pass(sel, _attr("samples"))),
    **{
        f"cascade.rsb_upper_bound.{cfg}.ms_per_sample":
            ("ms", "cascade.rsb_upper_bound", {"config": cfg},
             lambda sel: _per_unit(sel, "samples", 1e3))
        for cfg in workloads.CASCADE_CONFIGS
    },
    "cascade.sample_pd_atoms.us_per_call":
        ("us", "cascade.sample_pd_atoms", {}, lambda sel: _per_unit(sel, None, 1e6)),
    "cascade.rsb_upper_bound.closed_ms_per_call":
        ("ms", "cascade.rsb_upper_bound", {"config": "closed"},
         lambda sel: _per_unit(sel, None, 1e3)),
    **{
        f"replica.scan_rs_bound.ms_per_point.q{q}":
            ("ms", "replica.scan_rs_bound", {"q": q}, lambda sel: _per_unit(sel, "points", 1e3))
        for q in (2, 3, 4)
    },
    "replica.quartic_coefficients.s":
        ("s", "replica.quartic_coefficients", {}, lambda sel: _per_unit(sel, None, 1.0)),
    "bounds.beta_ent.us_per_call":
        ("us", "bounds.beta_ent", {}, lambda sel: _per_unit(sel, None, 1e6)),
    "second_moment.optimize.ms_per_call":
        ("ms", "second_moment.optimize", {}, lambda sel: _per_unit(sel, None, 1e3)),
}


def layer_metrics(own: list, probes: list) -> tuple[dict, dict]:
    """Per-layer metrics from the workload's own spans, else from the probes."""
    metrics, source = {}, {}
    for name, (unit, qualname, where, reduce) in LAYER_METRICS.items():
        sel = _select(own, qualname, where)
        source[name] = "workload"
        if not sel:
            sel = _select(probes, qualname, where)
            source[name] = "probe"
        # a call that raised has no counts noted; it is already a failed operation
        sel = [s for s in sel if "error" not in s.attrs]
        metrics[name] = {"value": reduce(sel) if sel else 0.0, "unit": unit}
    return metrics, source


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, specs, failures: dict[str, list[str]]) -> None:
        self.attempted += len(specs)
        for spec in specs:
            errs = failures.get(spec["name"])
            if errs:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{spec['name']}: {'; '.join(errs)}")


def _repeat_failures(specs, outs, baseline, checked, label) -> dict[str, list[str]]:
    """A repeated pass fails an item that failed before or changed its outputs."""
    failures = {}
    for spec in specs:
        name = spec["name"]
        if checked.get(name):
            failures[name] = checked[name]
        elif outs[name] != baseline[name]:
            failures[name] = [f"outputs differ from the warm-up pass ({label})"]
    return failures


def _set_threads(n: int) -> None:
    os.environ["POTTS_AF_THREADS"] = str(n)


def measure_untraced(pa, specs, seconds, tally, baseline, checked) -> dict:
    times, kernel_times = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        outs, dt = run_pass(pa, specs, Tracer(False), kernel_times)
        times.append(dt)
        tally.add(specs, _repeat_failures(specs, outs, baseline, checked, "repeat"))
    factor = calibrate.speed_factor(kernel_times)
    return {
        "wall_s": {"value": statistics.median(times) * factor, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "stat_error_rms": {"value": stat_error_rms(specs, baseline), "unit": "1"},
    }, {"pass_times_s": times, "speed_factor": factor, "kernel_readings": len(kernel_times),
        "unscaled_wall_s": statistics.median(times)}


def measure_traced(pa, workload, seed, specs, seconds, tally, baseline, checked):
    tr = Tracer(True)
    traced, untraced, ratios = [], {1: [], 2: []}, []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        _set_threads(1)
        tr.pass_id = cycle
        outs, dt = run_pass(pa, specs, tr)
        traced.append(dt)
        tally.add(specs, _repeat_failures(specs, outs, baseline, checked, "traced"))
        pair = {}
        for threads in ((1, 2) if cycle % 2 == 0 else (2, 1)):
            _set_threads(threads)
            outs, pair[threads] = run_pass(pa, specs, Tracer(False))
            untraced[threads].append(pair[threads])
            tally.add(specs, _repeat_failures(specs, outs, baseline, checked,
                                              f"POTTS_AF_THREADS={threads}"))
        ratios.append(pair[2] / pair[1])
        cycle += 1
    _set_threads(1)
    own = list(tr.spans)

    probe_tr = Tracer(True)
    probe_id = -1
    for other in workloads.WORKLOADS:
        if other == workload:
            continue
        probe_specs = workloads.build(other, seed, probe=True)
        run_pass(pa, probe_specs, Tracer(False))  # fill caches and lazy imports
        probe_tr.pass_id = probe_id
        outs, _ = run_pass(pa, probe_specs, probe_tr)
        tally.add(probe_specs, {s["name"]: [outs[s["name"]]["error"]]
                                for s in probe_specs if "error" in outs[s["name"]]})
        probe_id -= 1

    metrics, source = layer_metrics(own, probe_tr.spans)
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
    metrics["util.map_ordered.threads2_over_threads1"] = {
        "value": statistics.median(ratios), "unit": "ratio"}
    metrics["util.map_ordered.threads2_over_threads1_iqr"] = {"value": q3 - q1, "unit": "ratio"}
    untraced_s = statistics.median(untraced[1])
    info = {
        "self_time_s_per_pass": {k: v / len(traced) for k, v in sorted(self_times(own).items())},
        "traced_wall_s": statistics.median(traced),
        "untraced_wall_s": untraced_s,
        "tracing_overhead_s": statistics.median(traced) - untraced_s,
        "threads2_over_threads1_pairs": ratios,
        "metric_source": source,
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import potts_af as pa

    reference = json.loads(REFERENCE.read_text())
    specs = workloads.build(args.workload, args.seed)
    tally = Tally()
    baseline, _ = run_pass(pa, specs, Tracer(False))
    checked = checks.check_all(specs, baseline, reference)
    tally.add(specs, checked)
    if args.trace:
        metrics, info = measure_traced(pa, args.workload, args.seed, specs, args.seconds,
                                       tally, baseline, checked)
    else:
        metrics, info = measure_untraced(pa, specs, args.seconds, tally, baseline, checked)
    info.update(numpy=numpy.__version__, scipy=scipy.__version__, items=len(specs))
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "failures": tally.messages, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
