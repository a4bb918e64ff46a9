"""potts-af benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload pressure --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its src/.
--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
stat_error_rms); --trace 1 prints the per-layer metrics, with each layer's
self time and the tracing overhead.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.  Workloads,
metrics and checks are described in benchmarks/README.md.

The workload itself runs in a child interpreter (worker.py) with the BLAS
and OpenMP pools pinned to one thread, so that POTTS_AF_THREADS worker
threads times BLAS threads never exceeds the core count.  set-up time is
measured in separate fresh interpreters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads: the calibration kernel here runs with the same pool
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
STATS_IMPORT_REPEATS = 3
CALIBRATE_REPEATS = 2
DEADLINE_S = 170.0

IMPORT_POTTS_AF = (
    "import time; t = time.perf_counter(); import potts_af; "
    "print(time.perf_counter() - t)"
)
IMPORT_SCIPY_STATS = (
    "import numpy, scipy.special, time; t = time.perf_counter(); import scipy.stats; "
    "print(time.perf_counter() - t)"
)


class BenchmarkError(RuntimeError):
    pass


def pinned_env() -> dict:
    """Environment of every child: the pinned BLAS pools above, one pool
    thread, and the checkout's src/ as the only extra import path."""
    env = dict(os.environ)
    env["POTTS_AF_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(args: list[str], env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out: {args[:2]}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def fresh_import_s(snippet: str, repeats: int, env: dict, deadline: float) -> float:
    """Median time of `snippet` in fresh interpreters, after one untimed run.

    The median is scaled to the reference machine speed by calibration
    kernel readings taken between the interpreters (calibrate.py).
    """
    _child(["-c", snippet], env, deadline)  # writes bytecode caches once
    raw, readings = [], []
    for _ in range(repeats):
        readings += [calibrate.kernel() for _ in range(CALIBRATE_REPEATS)]
        raw.append(float(_child(["-c", snippet], env, deadline)))
    return statistics.median(raw) * calibrate.speed_factor(readings), statistics.median(raw)


def provenance(env: dict) -> dict:
    """Revision and platform facts recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "potts_af").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "potts_af_threads": env["POTTS_AF_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "potts_af" / "__init__.py").is_file():
        print(f"benchmark: no potts_af sources under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env()
    try:
        if args.trace:
            name, scaled, raw = "setup.scipy_stats_import_s", *fresh_import_s(
                IMPORT_SCIPY_STATS, STATS_IMPORT_REPEATS, env, deadline)
        else:
            name, scaled, raw = "setup_s", *fresh_import_s(
                IMPORT_POTTS_AF, SETUP_REPEATS, env, deadline)
        extra = {name: {"value": scaled, "unit": "s"}}
        worker = json.loads(_child(
            [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    meta = provenance(env)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                numpy=worker["info"].pop("numpy"), scipy=worker["info"].pop("scipy"))
    metrics = {**worker["metrics"], **extra}
    worker["info"][f"unscaled_{name}"] = raw
    print("provenance " + json.dumps(meta, sort_keys=True))
    print("detail " + json.dumps(worker["info"], sort_keys=True))
    for msg in worker["failures"]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
