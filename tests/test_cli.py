from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from potts_af.cascade import one_rsb_spec, rs_spec, rsb_upper_bound, symmetric_t_hierarchy
from potts_af.cli import fmt_float, main
from potts_af.model import ModelParams


def run_cli(*args: str) -> int:
    return main(list(args))


def test_fmt_float():
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"
    assert float(fmt_float(0.1)) == 0.1
    assert float(fmt_float(1.0 / 3.0)) == 1.0 / 3.0
    with pytest.raises(ValueError):
        fmt_float(math.nan)


def test_phase_diagram_low_connectivity_all_inf(tmp_path):
    out = tmp_path / "pd.csv"
    assert run_cli("phase-diagram", "--q", "2", "--c-min", "0", "--c-max", "1",
                   "--c-step", "0.25", "--out", str(out)) == 0
    text = out.read_text()
    assert "# schema: potts-af/1" in text
    assert "c_rs_loc=1 c_ent=2 c_1=2.7725887222397811" in text
    data_rows = [l for l in text.splitlines() if l and not l.startswith("#") and l[0].isdigit()]
    for row in data_rows:
        cols = row.split(",")
        assert cols[1:] == ["inf", "inf", "inf", "inf"]


def test_phase_diagram_known_row(tmp_path):
    out = tmp_path / "pd9.csv"
    run_cli("phase-diagram", "--q", "2", "--c-min", "9", "--c-max", "9",
            "--c-step", "1", "--out", str(out))
    row = [l for l in out.read_text().splitlines() if l.startswith("9")][0]
    cols = row.split(",")
    assert float(cols[1]) == pytest.approx(math.log(2), abs=1e-14)
    assert float(cols[2]) == pytest.approx(math.log(2), abs=1e-14)


def test_pressure_zero_connectivity(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("pressure", "--q", "3", "--beta", "1", "--c", "0", "--n", "2",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "potts-af/1"
    assert doc["estimate"]["value"] == pytest.approx(math.log(3), abs=1e-14)
    assert doc["gap"] == 0


def test_pressure_single_site_law(tmp_path):
    out = tmp_path / "p1.json"
    run_cli("pressure", "--q", "2", "--beta", "2", "--c", "3", "--n", "1",
            "--eps", "1e-10", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["estimate"]["value"] == pytest.approx(math.log(2) - 3.0, abs=1e-9)
    assert doc["gap"] >= -1e-9


def test_pressure_budget_error_record(tmp_path):
    out = tmp_path / "bad.json"
    code = run_cli("pressure", "--q", "3", "--beta", "1", "--c", "1", "--n", "12",
                   "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["error"]["type"] == "BudgetExceededError"


def test_rs_scan_summary(tmp_path):
    out = tmp_path / "rs.csv"
    assert run_cli("rs-scan", "--q", "2", "--beta", "1", "--c", "9",
                   "--t-points", "41", "--out", str(out)) == 0
    text = out.read_text()
    assert "instability=true" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 41


def test_second_moment_json(tmp_path):
    out = tmp_path / "sm.json"
    assert run_cli("second-moment", "--q", "2", "--beta", "0.4", "--c", "4",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert doc["t_star"] == 1
    assert doc["beta_star_certified"] == pytest.approx(math.log(3), abs=1e-12)


def test_sum_rule_json(tmp_path):
    out = tmp_path / "sr.json"
    assert run_cli("sum-rule", "--q", "2", "--beta", "1", "--c", "1", "--n", "2",
                   "--r-max", "12", "--quad-points", "8", "--seed", "3",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["discrepancy"] <= doc["error_budget"]


def test_cascade_closed_form_json(tmp_path):
    out = tmp_path / "ca.json"
    assert run_cli("cascade", "--q", "2", "--beta", "1", "--c", "4", "--n", "3",
                   "--m-list", "1", "--hierarchy", "uniform",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["bound"] == pytest.approx(doc["annealed_pressure"], abs=1e-12)
    assert doc["bound_minus_pressure"] >= -1e-9


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 1.0, "c": 0.0, "n": 2}))
    out = tmp_path / "pc.json"
    assert run_cli("pressure", "--q", "2", "--config", str(cfg), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"]["value"] == pytest.approx(math.log(2), abs=1e-14)
    # explicit flag wins over the config value
    out2 = tmp_path / "pc2.json"
    run_cli("pressure", "--q", "3", "--config", str(cfg), "--c", "0",
            "--out", str(out2))
    assert json.loads(out2.read_text())["q"] == 3


def test_config_file_supplies_required_flags(tmp_path):
    out = tmp_path / "req.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "beta": "1.5", "c": 0, "n": 2, "out": str(out)}))
    assert run_cli("pressure", "--config", str(cfg)) == 0
    doc = json.loads(out.read_text())
    # values pass through each flag's type: "1.5" -> float, 0 -> float
    assert doc["q"] == 3 and doc["beta"] == 1.5 and doc["c"] == 0.0
    assert doc["estimate"]["value"] == pytest.approx(math.log(3), abs=1e-14)
    # an abbreviated --config is read just as argparse resolves it
    out.unlink()
    assert run_cli("pressure", "--conf", str(cfg)) == 0 and out.exists()


def test_config_explicit_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "beta": 1.0, "c": 0.0, "n": 2, "seed": 5,
                               "out": str(tmp_path / "unused.json")}))
    out = tmp_path / "win.json"
    assert run_cli("pressure", "--config", str(cfg), "--seed", "7", "--q", "3",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert (doc["seed"], doc["q"]) == (7, 3)
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("entries, message", [
    ({"sampels": 10}, "'sampels': matches no flag"),
    ({"n": 2.5}, "'n': invalid literal for int()"),
    ({"method": "exactly"}, "not one of"),
])
def test_config_bad_keys_are_structured_errors(tmp_path, entries, message):
    out = tmp_path / "bad.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "beta": 1.0, "c": 0.0, "out": str(out), **entries}))
    assert run_cli("pressure", "--config", str(cfg)) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ValueError"
    assert message in error["message"]


def test_missing_parameter_is_structured_error(tmp_path):
    out = tmp_path / "m.json"
    code = run_cli("pressure", "--q", "2", "--out", str(out))
    assert code == 1
    assert "missing required" in json.loads(out.read_text())["error"]["message"]


def test_no_nan_in_outputs(tmp_path):
    for name, args in {
        "pd": ["phase-diagram", "--q", "3", "--c-min", "0", "--c-max", "8",
               "--c-step", "2"],
        "sm": ["second-moment", "--q", "3", "--beta", "2", "--c", "30"],
    }.items():
        out = tmp_path / f"{name}.out"
        assert run_cli(*args, "--out", str(out)) == 0
        assert "nan" not in out.read_text().lower()


def test_same_seed_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pressure", "--q", "2", "--beta", "1.5", "--c", "3", "--n", "4",
            "--seed", "99"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cascade_bound_matches_library(tmp_path):
    out = tmp_path / "ca.json"
    assert run_cli("cascade", "--q", "2", "--beta", "1", "--c", "2", "--n", "2",
                   "--m-list", "0,0.5,1", "--hierarchy", "symmetric-t", "--t", "0.5",
                   "--samples", "64", "--seed", "11", "--method", "monte-carlo",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    est = rsb_upper_bound(ModelParams(q=2, beta=1.0, c=2.0), 2, one_rsb_spec(0.5),
                          symmetric_t_hierarchy(2, 0.5), samples=64, seed=11,
                          method="monte-carlo")
    assert doc["bound"] == est.value
    assert doc["bound_stat_error"] == est.stat_error
    assert doc["g1"]["bias_estimate"] + doc["g2"]["bias_estimate"] == est.bias_estimate > 0
    assert doc["g1"]["tail_bound"] == doc["g2"]["tail_bound"] == est.tail_bound == 0.0


def test_cascade_infinite_beta_skips_pressure(tmp_path):
    # the optional quenched-pressure comparison needs finite beta
    out = tmp_path / "inf.json"
    assert run_cli("cascade", "--q", "2", "--beta", "inf", "--c", "3", "--n", "3",
                   "--m-list", "0,1", "--hierarchy", "symmetric-t", "--t", "0.4",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    est = rsb_upper_bound(ModelParams(q=2, beta=math.inf, c=3.0), 3, rs_spec(),
                          symmetric_t_hierarchy(2, 0.4))
    assert doc["bound"] == est.value
    assert "quenched_pressure" not in doc


@pytest.mark.parametrize("args, message", [
    (["rs-scan", "--q", "2", "--beta", "1", "--c", "4", "--t-points", "0"], "t point"),
    (["rs-scan", "--q", "1", "--beta", "1", "--c", "4"], "q >= 2"),
    (["pressure", "--q", "2", "--beta", "1", "--c", "2", "--n", "0"], "n must be"),
    (["pressure", "--q", "2", "--beta", "1", "--c", "2", "--n", "0", "--method", "mc"],
     "n must be"),
    (["pressure", "--q", "2", "--beta", "1", "--c", "2", "--n", "2", "--eps", "nan"],
     "eps must be"),
    (["sum-rule", "--q", "2", "--beta", "1", "--c", "1", "--n", "2", "--eps", "nan"],
     "eps must be"),
    (["cascade", "--q", "2", "--beta", "inf", "--c", "1", "--n", "3", "--m-list", "0,1",
      "--hierarchy", "symmetric-t", "--t", "1", "--method", "monte-carlo"],
     "degenerate product factor"),
])
def test_bad_parameters_are_structured_errors(tmp_path, args, message):
    out = tmp_path / "bad.json"
    assert run_cli(*args, "--out", str(out)) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ValueError"
    assert message in error["message"]


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("grid", [
    ["--c-min", "0", "--c-max", "3", "--c-step", "0"],
    ["--c-min", "0", "--c-max", "3", "--c-step", "-1"],
    ["--c-min", "0", "--c-max", "inf", "--c-step", "1"],
    ["--c-min", "3", "--c-max", "0", "--c-step", "1"],
    ["--c-min", "0", "--c-max", "1e9", "--c-step", "1"],
    ["--c-min", "0", "--c-max", "0", "--c-step", "1e-300"],
    ["--c-min", "10", "--c-max", "10", "--c-step", "1e-16"],
])
def test_phase_diagram_bad_grid_fails_fast(tmp_path, grid):
    # an unbounded grid used to loop forever; run it in a child process with
    # a wall-clock and memory cap so a regression cannot take the suite down
    out = tmp_path / "pd.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "potts_af.cli", "phase-diagram", "--q", "2", *grid,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error" in json.loads(out.read_text())


def test_rs_scan_too_many_points_fails_fast(tmp_path):
    # a billion t points used to allocate 8 GB and run for days
    out = tmp_path / "rs.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "potts_af.cli", "rs-scan", "--q", "2", "--beta", "1",
         "--c", "4", "--t-points", "1000000000", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    error = json.loads(out.read_text())["error"]
    assert "100000" in error["message"]


def test_rs_scan_class_table_budget_fails_fast(tmp_path):
    # q = 5 at c = 150 needs about 68 M colour classes; it used to die with a
    # MemoryError under a 1 GiB cap and be killed for memory without one
    out = tmp_path / "rs.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "potts_af.cli", "rs-scan", "--q", "5", "--beta", "1",
         "--c", "150", "--t-points", "5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "BudgetExceededError"
    assert "1000000 rows" in error["message"]


@pytest.mark.parametrize("argv", [
    ["cascade", "--q", "2", "--beta", "1", "--c", "4", "--m-list", "0.5",
     "--method", "monte-carlo", "--samples", "100000000000"],
    ["pressure", "--q", "2", "--beta", "1", "--c", "4", "--n", "3", "--method", "mc",
     "--samples", "100000000000"],
])
def test_huge_sample_count_fails_fast(tmp_path, argv):
    # the cascade used to die allocating 10^11 values, with a traceback and no
    # record; the plain pressure MC first split one seed per 2048 samples
    out = tmp_path / "mc.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "potts_af.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "BudgetExceededError"
    assert "1000000" in error["message"]


def test_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: scipy.stats is imported lazily by
    # cascade.stability_test, and nothing else in the package uses scipy
    for module in ("potts_af", "potts_af.cli"):
        code = (f"import sys, {module}; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


# ---------------------------------------------------------------------------
# generated argv: every accepted argument ends in a result or an error record
# ---------------------------------------------------------------------------

EXAMPLE_TIMEOUT_S = 20

def _floats(lo: float, hi: float):
    special = [0.0, -0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]
    return st.one_of(st.sampled_from(special), st.floats(lo, hi))


_FLOATS = {
    "beta": _floats(0.0, 8.0), "c": _floats(0.0, 30.0), "eps": _floats(1e-12, 0.1),
    "t": _floats(-1.5, 1.5), "c-min": _floats(-5.0, 40.0), "c-max": _floats(-5.0, 40.0),
    "c-step": _floats(1e-3, 10.0),
}
_INTS = {
    "q": st.integers(-1, 6), "n": st.integers(-1, 8), "seed": st.integers(-2, 2**40),
    "samples": st.one_of(st.integers(-1, 3000), st.sampled_from([10**6 + 1, 10**9, 10**11])),
    "t-points": st.integers(-1, 400),
    "r-max": st.integers(-1, 40), "quad-points": st.integers(-1, 20),
}
_CHOICES = {
    "hierarchy": ["uniform", "symmetric-t"],
    "m-list": ["0,1", "0,0.5,1", "0.5", "0.3,0.7", "0,0.4", "1,0", "0,2", "nan", "x", ""],
}
_REQUIRED = ("q", "c-min", "c-max", "c-step")  # argparse itself refuses argv without these
_COMMON = ("q", "beta", "c")
_FLAGS = {
    "phase-diagram": ("q", "c-min", "c-max", "c-step"),
    "pressure": (*_COMMON, "n", "seed", "samples", "eps", "method"),
    "rs-scan": (*_COMMON, "t-points"),
    "second-moment": _COMMON,
    "sum-rule": (*_COMMON, "n", "seed", "eps", "r-max", "quad-points"),
    "cascade": (*_COMMON, "n", "seed", "samples", "eps", "m-list", "hierarchy", "t", "method"),
}
_METHODS = {"pressure": ["exact", "mc"], "cascade": ["auto", "closed-form", "monte-carlo"]}


@st.composite
def cli_argv(draw) -> list[str]:
    """A subcommand with values of the right type for each flag, any of them
    possibly absent, so argparse accepts the line and the program must judge it."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in _FLAGS[command]:
        if flag not in _REQUIRED and not draw(st.booleans()) and draw(st.booleans()):
            continue  # absent a quarter of the time
        if flag in _FLOATS:
            value = repr(draw(_FLOATS[flag]))
        elif flag in _INTS:
            value = str(draw(_INTS[flag]))
        else:
            value = draw(st.sampled_from(_METHODS[command] if flag == "method" else _CHOICES[flag]))
        argv.append(f"--{flag}={value}")  # "=" lets values such as -inf through
    return argv


def _nan_free(value) -> bool:
    if isinstance(value, dict):
        return all(_nan_free(v) for v in value.values())
    if isinstance(value, list):
        return all(_nan_free(v) for v in value)
    return not (isinstance(value, float) and math.isnan(value))


def check_cli_outcome(argv: list[str], out) -> None:
    """Run argv in a child under a 1 GiB address-space cap and a wall-clock
    bound; it must exit 0 with NaN-free output or 1 with the error record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out.unlink(missing_ok=True)  # no earlier example's file can stand in
    proc = subprocess.run([sys.executable, "-m", "potts_af.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=EXAMPLE_TIMEOUT_S,
                          preexec_fn=_cap_address_space)
    assert proc.returncode in (0, 1), (argv, proc.returncode, proc.stderr[-2000:])
    text = out.read_text()
    if argv[0] in ("phase-diagram", "rs-scan") and proc.returncode == 0:
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        assert rows, argv  # never a silently empty table
        assert not any(math.isnan(float(v)) for row in rows for v in row), argv
        return
    doc = json.loads(text)
    assert doc["schema"] == "potts-af/1" and doc["command"] == argv[0]
    if proc.returncode == 1:
        assert set(doc["error"]) == {"type", "message"}, argv
    else:
        assert "error" not in doc and _nan_free(doc), argv


@settings(max_examples=18, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_generated_argv_ends_in_result_or_error_record(tmp_path, argv):
    check_cli_outcome(argv, tmp_path / "out")
