"""Batch command-line surface emitting machine-readable JSON and CSV.

All commands are deterministic for a fixed seed: stochastic work is keyed
by explicit Philox streams and runs on one thread, so output files are
byte-identical under any POTTS_AF_THREADS (validated, otherwise ignored).
Bad parameters end in the same structured error record.  Floats are
serialized with 17 significant digits (round-trip exact); infinities
become the literal string "inf"; NaN is never emitted — any NaN aborts
with a structured error record and a nonzero exit code.

Schema: every JSON document and CSV header carries "potts-af/1".
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, cascade, disorder, replica, second_moment
from .model import DEFAULT_ENUM_BUDGET, ModelParams
from .util import BudgetExceededError, worker_count

SCHEMA = "potts-af/1"
MAX_PHASE_ROWS = 100_000  # about 6 s of boundary curves


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_to_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = fmt_float(float(value))
        return json.dumps(f) if f in ("inf", "-inf") else f
    if value is None:
        return "null"
    return json.dumps(value)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_to_json(payload) + "\n")


def write_csv(path: str, header_lines: list[str], columns: list[str],
              rows: list[list[float]]) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _estimate_dict(est: disorder.QuenchedEstimate) -> dict:
    return {
        "value": est.value,
        "stat_error": est.stat_error,
        "tail_bound": est.tail_bound,
        "bias_estimate": est.bias_estimate,
        "samples": est.samples,
        "method": est.method,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_phase_diagram(args) -> dict | None:
    q = args.q
    if not (math.isfinite(args.c_min) and math.isfinite(args.c_max)):
        raise ValueError("c-min and c-max must be finite")
    if not args.c_step > 0:
        raise ValueError(f"c-step must be > 0, got {args.c_step}")
    if not args.c_min <= args.c_max:
        raise ValueError(f"c-min {args.c_min} exceeds c-max {args.c_max}")
    # the grid runs to c_max + 1e-12, so that slack counts towards the rows
    if (args.c_max + 1e-12 - args.c_min) / args.c_step >= MAX_PHASE_ROWS:
        raise BudgetExceededError(f"c grid exceeds {MAX_PHASE_ROWS} rows")
    th = bounds.thresholds(q)
    cs = []
    c = args.c_min
    while c <= args.c_max + 1e-12:
        cs.append(round(c, 12))
        if c + args.c_step == c:
            raise ValueError(f"c-step {args.c_step} is below the float spacing at c = {c}")
        c += args.c_step
    rows = []
    for cval in cs:
        b1 = bounds.beta_1(cval, q)
        brs = bounds.beta_rs_loc(cval, q)
        bent = bounds.beta_ent(cval, q)
        rows.append([cval, b1, brs, bent, min(brs, bent)])
    header = [
        f"schema: {SCHEMA}",
        "command: phase-diagram",
        f"q={q}",
        f"c_rs_loc={fmt_float(th.c_rs_loc)} c_ent={fmt_float(th.c_ent)} c_1={fmt_float(th.c_1)}",
    ]
    write_csv(args.out, header, ["c", "beta_1", "beta_rs_loc", "beta_ent", "beta_upper"], rows)
    return None


def cmd_pressure(args) -> dict | None:
    _require(args, "beta", "c")
    params = ModelParams(q=args.q, beta=args.beta, c=args.c)
    if args.method == "exact":
        est = disorder.quenched_pressure_exact(params, args.n, eps=args.eps, seed=args.seed)
    else:
        est = disorder.quenched_pressure_mc(params, args.n, samples=args.samples, seed=args.seed)
    pressure = bounds.annealed_pressure(args.beta, args.c, args.q)
    payload = {
        "schema": SCHEMA,
        "command": "pressure",
        "q": args.q,
        "beta": args.beta,
        "c": args.c,
        "n": args.n,
        "method": args.method,
        "seed": args.seed,
        "samples": est.samples,
        "eps": args.eps,
        "estimate": _estimate_dict(est),
        "annealed_pressure": pressure,
        "gap": pressure - est.value,
    }
    write_json(args.out, payload)
    return payload


def cmd_rs_scan(args) -> dict | None:
    _require(args, "beta", "c")
    ts, evals = replica.scan_rs_bound(args.beta, args.c, args.q, args.t_points)
    rows = [[float(t), ev.g1, ev.g2, ev.gap, ev.rs_bound] for t, ev in zip(ts, evals)]
    best_t, best_bound = min(zip(ts, (ev.rs_bound for ev in evals)), key=lambda r: r[1])
    unstable = replica.instability(args.beta, args.c, args.q)
    header = [
        f"schema: {SCHEMA}",
        "command: rs-scan",
        f"q={args.q} beta={fmt_float(args.beta)} c={fmt_float(args.c)}",
        f"annealed_pressure={fmt_float(bounds.annealed_pressure(args.beta, args.c, args.q))}",
        f"min_rs_bound={fmt_float(best_bound)} t_at_min={fmt_float(best_t)} "
        f"instability={'true' if unstable else 'false'}",
    ]
    write_csv(args.out, header, ["t", "g1", "g2", "gap", "rs_bound"], rows)
    return None


def cmd_second_moment(args) -> dict | None:
    _require(args, "beta", "c")
    result = second_moment.optimize(args.beta, args.c, args.q)
    c_frak, k_frak = second_moment.rescale(args.beta, args.q, args.c, result.k_star)
    payload = {
        "schema": SCHEMA,
        "command": "second-moment",
        "q": args.q,
        "beta": args.beta,
        "c": args.c,
        "t_star": result.t_star,
        "k_star": result.k_star,
        "max_gap": result.max_gap,
        "certified": result.certified,
        "rescaled_connectivity": c_frak,
        "rescaled_k": k_frak,
        "zero_t_connectivity": second_moment.zero_t_connectivity(args.beta, args.c, args.q),
        "guaranteed_region": second_moment.in_guaranteed_region(args.beta, args.c, args.q),
        "beta_star_certified": second_moment.beta_star_certified(args.c, args.q),
    }
    write_json(args.out, payload)
    return payload


def cmd_sum_rule(args) -> dict | None:
    _require(args, "beta", "c")
    params = ModelParams(q=args.q, beta=args.beta, c=args.c)
    deficit = disorder.sum_rule_deficit(
        params, args.n, r_max=args.r_max, quad_points=args.quad_points, seed=args.seed
    )
    p_n = disorder.quenched_pressure_exact(params, args.n, eps=args.eps, seed=args.seed + 1)
    direct = bounds.annealed_pressure(args.beta, args.c, args.q) - p_n.value
    payload = {
        "schema": SCHEMA,
        "command": "sum-rule",
        "q": args.q,
        "beta": args.beta,
        "c": args.c,
        "n": args.n,
        "r_max": args.r_max,
        "quad_points": args.quad_points,
        "seed": args.seed,
        "deficit": _estimate_dict(deficit),
        "pressure": _estimate_dict(p_n),
        "direct_gap": direct,
        "discrepancy": abs(deficit.value - direct),
        "error_budget": deficit.tail_bound + deficit.stat_error
        + p_n.tail_bound + p_n.stat_error,
    }
    write_json(args.out, payload)
    return payload


def cmd_cascade(args) -> dict | None:
    _require(args, "beta", "c")
    params = ModelParams(q=args.q, beta=args.beta, c=args.c)
    ms = [float(v) for v in args.m_list.split(",")]
    spec = cascade.CascadeSpec(
        tuple(ms), first_to_zero=(ms[0] == 0.0), last_to_one=(ms[-1] == 1.0)
    )
    if args.hierarchy == "uniform":
        hier = cascade.uniform_hierarchy(args.q)
    else:
        hier = cascade.symmetric_t_hierarchy(args.q, args.t)
    g1e, g2e = cascade.cavity_terms(params, args.n, spec, hier, samples=args.samples,
                                    seed=args.seed, method=args.method)
    bound = g1e.value - g2e.value
    payload = {
        "schema": SCHEMA,
        "command": "cascade",
        "q": args.q,
        "beta": args.beta,
        "c": args.c,
        "n": args.n,
        "levels": ms,
        "hierarchy": args.hierarchy,
        "t": args.t,
        "samples": args.samples,
        "seed": args.seed,
        "g1": _estimate_dict(g1e),
        "g2": _estimate_dict(g2e),
        "bound": bound,
        "bound_stat_error": math.hypot(g1e.stat_error, g2e.stat_error),
        "annealed_pressure": bounds.annealed_pressure(args.beta, args.c, args.q),
    }
    if args.beta < math.inf and args.q**args.n <= DEFAULT_ENUM_BUDGET:
        p_n = disorder.quenched_pressure_exact(params, args.n, eps=args.eps,
                                               seed=args.seed + 2)
        payload["quenched_pressure"] = _estimate_dict(p_n)
        payload["bound_minus_pressure"] = bound - p_n.value
    write_json(args.out, payload)
    return payload


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, n: bool = False, seed: bool = False,
                samples: int | None = None, eps: bool = False) -> None:
    p.add_argument("--q", type=int, required=True, help="number of colors (>= 2)")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature")
    p.add_argument("--c", type=float, default=None, help="mean connectivity")
    if n:
        p.add_argument("--n", type=int, default=4, help="system / cavity size")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples, help="Monte Carlo samples")
    if eps:
        p.add_argument("--eps", type=float, default=1e-6,
                       help="certified truncation target for exact paths")
    p.add_argument("--out", type=str, required=True, help="output file path")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file supplying any of the flags; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potts-af",
        description="Antiferromagnetic Potts model on the Erdos-Renyi graph: "
        "pressures, bounds, phase boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase-diagram", help="beta-boundary curves over a c range")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c-min", type=float, required=True)
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--c-step", type=float, required=True)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(fn=cmd_phase_diagram)

    p = sub.add_parser("pressure", help="quenched pressure at one parameter point")
    _add_common(p, n=True, seed=True, samples=4096, eps=True)
    p.add_argument("--method", choices=["exact", "mc"], default="exact")
    p.set_defaults(fn=cmd_pressure)

    p = sub.add_parser("rs-scan", help="replica-symmetric bound over a t grid")
    _add_common(p)
    p.add_argument("--t-points", type=int, default=201)
    p.set_defaults(fn=cmd_rs_scan)

    p = sub.add_parser("second-moment", help="(k, t) optimization and certification")
    _add_common(p)
    p.set_defaults(fn=cmd_second_moment)

    p = sub.add_parser("sum-rule", help="overlap-fluctuation series vs direct gap")
    _add_common(p, n=True, seed=True, eps=True)
    p.add_argument("--r-max", type=int, default=20)
    p.add_argument("--quad-points", type=int, default=16,
                   help="validated (>= 3), recorded, otherwise ignored: the c' integral is exact")
    p.set_defaults(fn=cmd_sum_rule)

    p = sub.add_parser("cascade", help="cascade upper bound G1 - G2")
    _add_common(p, n=True, seed=True, samples=4096, eps=True)
    p.add_argument("--m-list", type=str, default="0,1",
                   help="comma-separated levels; 0 / 1 endpoints mean the limit flags")
    p.add_argument("--hierarchy", choices=["uniform", "symmetric-t"], default="uniform")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--method", choices=["auto", "closed-form", "monte-carlo"],
                   default="auto")
    p.set_defaults(fn=cmd_cascade)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """Make the --config JSON values defaults of the chosen subcommand.

    Each value passes through its flag's type and choices, and a flag the
    file supplies is no longer required; explicit flags still win.  Returns
    a message naming the keys that match no flag or fail their type.
    """
    commands = parser._subparsers._group_actions[0].choices
    sub = commands.get(next((a for a in argv if not a.startswith("-")), None))
    if sub is None:
        return None
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.nargs != 0}
    pre = argparse.ArgumentParser(add_help=False)  # same flags, so same abbreviations
    for action in flags.values():
        pre.add_argument(*action.option_strings, dest=action.dest)
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return None
    with open(known.config) as fh:
        cfg = dict(json.load(fh))
    problems = []
    for key, raw in cfg.items():
        action = flags.get(key.replace("-", "_"))
        try:
            if action is None or action.dest == "config":
                raise ValueError("matches no flag")
            value = (action.type or str)(str(raw))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"is not one of {list(action.choices)}")
        except ValueError as exc:
            problems.append(f"{key!r}: {exc}")
            continue
        sub.set_defaults(**{action.dest: value})
        action.required = False
    return f"config {known.config}: " + "; ".join(problems) if problems else None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_problem = _apply_config(parser, argv)
    except (OSError, TypeError, ValueError) as exc:
        config_problem = f"cannot read config: {exc}"
    args = parser.parse_args(argv)
    worker_count()  # validate POTTS_AF_THREADS early
    try:
        if config_problem:
            raise ValueError(config_problem)
        args.fn(args)
    except (ValueError, BudgetExceededError, RuntimeError, OSError) as exc:
        record = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        try:
            write_json(args.out, record)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
