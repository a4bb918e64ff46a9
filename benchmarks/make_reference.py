"""Regenerate benchmarks/reference.json from the current sources.

    python3 benchmarks/make_reference.py

Run from the repository root.  The stored values are what the checks in
checks.py compare against; regenerate them only in a change that says why
the reference outputs moved.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["POTTS_AF_THREADS"] = "1"

import run  # noqa: E402  (pins the BLAS pools before numpy loads)

import potts_af as pa  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

REFERENCE_SEED = 20110621
# stored p_N for the sum-rule and cascade checks: tighter than the workload
P_N_EPS = 1e-8
P_N_MC_SAMPLES = 8192
# (q, beta, c, n) of the p_N each cascade configuration must dominate
CASCADE_P_N = {"l1": (2, 1.0, 4.0, 5), "rs": (2, 1.0, 4.0, 5),
               "one_rsb": (2, 1.0, 4.0, 5), "rs_q3": (3, 0.8, 2.0, 3)}


def stored_p_n(q, beta, c, n, seed) -> dict:
    est = pa.quenched_pressure_exact(pa.ModelParams(q=q, beta=beta, c=c), n, eps=P_N_EPS,
                                     seed=seed, mc_samples=P_N_MC_SAMPLES)
    return {"value": float(est.value), "stat_error": float(est.stat_error),
            "tail_bound": float(est.tail_bound), "q": q, "beta": beta, "c": c, "n": n}


def main() -> int:
    items = {}
    for workload in workloads.WORKLOADS:
        specs = workloads.build(workload, REFERENCE_SEED)
        outs, _ = run_pass(pa, specs, Tracer(False))
        for spec in specs:
            out = outs[spec["name"]]
            if "error" in out:
                raise RuntimeError(f"{spec['name']}: {out['error']}")
            if spec["ref"] == "exact":
                items[spec["name"]] = out
            elif spec["ref"] == "stat":
                items[spec["name"]] = {k: out[k] for k in ("value", "stat_error", "tail_bound")}
        print(f"{workload}: {len(specs)} items", file=sys.stderr)

    p_n = {}
    for i, spec in enumerate(workloads.build("sum-rule", REFERENCE_SEED)):
        p_n[spec["name"]] = stored_p_n(spec["q"], spec["beta"], spec["c"], spec["n"], seed=i)
    cascade_p_n = {point: stored_p_n(*point, seed=100) for point in set(CASCADE_P_N.values())}
    closed_form = {}
    for label, cfg in workloads.CASCADE_CONFIGS.items():
        p_n[f"rsb_mc/{label}"] = cascade_p_n[CASCADE_P_N[label]]
        params, cascade, hier = workloads._cascade_args(pa, cfg)
        est = pa.rsb_upper_bound(params, cfg["n"], cascade, hier, method="closed-form")
        closed_form[label] = {"value": float(est.value), "tail_bound": float(est.tail_bound)}

    meta = run.provenance(run.pinned_env())
    doc = {
        "generated_by": "python3 benchmarks/make_reference.py",
        "source_revision": meta["git_revision"],
        "source_sha256": meta["source_sha256"],
        "reference_seed": REFERENCE_SEED,
        "items": items,
        "p_N": p_n,
        "closed_form": closed_form,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
