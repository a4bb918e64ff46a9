"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> PASS|FAIL` line (visible with -s or
in the captured output of a failure).  Criteria with stated runtime caps
time their own computation.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstest

import potts_af as pa
from potts_af.model import ModelParams
from potts_af.util import stream

from conftest import combined_error

GRID_Q = (2, 3)
GRID_BETA = (0.5, 1.0, 2.0)
GRID_C = (1.0, 4.0)


def record(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_annealed_domination(pressure_cache):
    start = time.time()
    worst = -math.inf
    for q, beta, c in itertools.product(GRID_Q, GRID_BETA, GRID_C):
        for n in range(2, 7):
            est = pressure_cache(q, beta, c, n)
            margin = pa.annealed_pressure(beta, c, q) + 1e-9 + est.tail_bound - est.value
            worst = max(worst, est.value - pa.annealed_pressure(beta, c, q)
                        - 1e-9 - est.tail_bound)
            assert margin >= 0, (q, beta, c, n)
    elapsed = time.time() - start
    record(1, elapsed < 120.0 and worst <= 0,
           f"p_N <= P + 1e-9 + tail on 60-point grid (worst excess {worst:.3e}, "
           f"{elapsed:.1f}s)")


def test_criterion_02_single_site_law():
    triples = [(2, 0.5, 1.0), (2, 1.0, 2.0), (2, 2.0, 4.0),
               (3, 0.5, 4.0), (3, 1.0, 1.0), (3, 2.0, 2.0),
               (4, 0.5, 2.0), (4, 1.0, 4.0), (4, 2.0, 1.0)]
    worst = 0.0
    for q, beta, c in triples:
        est = pa.quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), 1, eps=1e-10)
        err = abs(est.value - (math.log(q) - beta * c / 2))
        assert err <= 1e-10 + est.tail_bound
        worst = max(worst, err)
    record(2, True, f"p_1 = ln q - beta c/2 on 9 triples (worst error {worst:.2e})")


def test_criterion_03_superadditivity(pressure_cache):
    combos = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    checked = 0
    for q, beta, c in itertools.product(GRID_Q, GRID_BETA, GRID_C):
        ests = {n: pressure_cache(q, beta, c, n) for n in range(1, 7)}
        for n1, n2 in combos:
            big, a, b = ests[n1 + n2], ests[n1], ests[n2]
            slack = ((n1 + n2) * combined_error(big) + n1 * combined_error(a)
                     + n2 * combined_error(b))
            lhs = (n1 + n2) * big.value
            rhs = n1 * a.value + n2 * b.value
            assert lhs >= rhs - slack, (q, beta, c, n1, n2, lhs - rhs)
            checked += 1
    record(3, True, f"superadditivity holds on {checked} combinations")


def test_criterion_04_lipschitz(pressure_cache):
    checked = 0
    for q, beta in itertools.product(GRID_Q, GRID_BETA):
        for c1, c2 in ((1.0, 2.0), (2.0, 4.0)):
            for n in range(1, 5):
                e1 = pressure_cache(q, beta, c1, n)
                e2 = pressure_cache(q, beta, c2, n)
                bound = beta * abs(c2 - c1) / 2 + combined_error(e1, e2)
                assert abs(e2.value - e1.value) <= bound, (q, beta, c1, c2, n)
                checked += 1
    record(4, True, f"|p_N(c2) - p_N(c1)| <= beta |c2 - c1|/2 on {checked} pairs")


def test_criterion_05_sum_rule(pressure_cache):
    start = time.time()
    params = ModelParams(q=2, beta=1.0, c=1.0)
    deficit = pa.sum_rule_deficit(params, 2, r_max=20, quad_points=16, seed=11)
    p2 = pressure_cache(2, 1.0, 1.0, 2, 1e-8)
    direct = pa.annealed_pressure(1.0, 1.0, 2) - p2.value
    budget = deficit.tail_bound + 4 * deficit.stat_error + combined_error(p2)
    discrepancy = abs(deficit.value - direct)
    elapsed = time.time() - start
    ok = discrepancy <= budget and budget <= 5e-3 and elapsed < 300.0
    record(5, ok, f"sum rule: |deficit - gap| = {discrepancy:.2e} <= budget "
                  f"{budget:.2e} <= 5e-3 ({elapsed:.1f}s)")


def test_criterion_06_q2_boundary_coincidence():
    worst = 0.0
    for c in (2.0, 4.0, 9.0, 25.0):
        lo, hi = 1e-9, 80.0
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            if c * pa.x_param(mid, 2) ** 2 < 1.0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - pa.beta_rs_loc(c, 2)))
    record(6, worst <= 1e-12, f"root of c x^2 = 1 matches beta_rs_loc(c,2) "
                              f"(worst {worst:.2e})")


def test_criterion_07_quartic_coefficients():
    worst = 0.0
    for q, c, beta in ((2, 4.0, 1.0), (3, 10.0, 2.0)):
        a1, a2, ref1, ref2 = pa.quartic_coefficients(beta, c, q)
        rel1 = abs(a1 - ref1) / abs(ref1)
        rel2 = abs(a2 - ref2) / abs(ref2)
        assert rel1 <= 0.01 and rel2 <= 0.01, (q, c, beta, rel1, rel2)
        worst = max(worst, rel1, rel2)
    record(7, True, f"t^4 coefficients within 1% of closed forms (worst {worst:.2e})")


def test_criterion_08_cascade_recovery():
    start = time.time()
    # exact annealed recovery at L = 1, m -> 1
    worst_exact = 0.0
    for q, beta, c in ((2, 1.0, 4.0), (3, 0.7, 2.0)):
        params = ModelParams(q=q, beta=beta, c=c)
        y = 1 - math.exp(-beta)
        g1e = pa.cavity_g1(params, 3, pa.annealed_spec(), pa.uniform_hierarchy(q))
        g2e = pa.cavity_g2(params, 3, pa.annealed_spec(), pa.uniform_hierarchy(q))
        worst_exact = max(
            worst_exact,
            abs(g1e.value - (math.log(q) + c * math.log(1 - y / q))),
            abs(g2e.value - 0.5 * c * math.log(1 - y / q)),
        )
    assert worst_exact <= 1e-12

    # RS Monte Carlo matches the replica module at 1e4 samples
    worst_z = 0.0
    for q, beta, c, t in ((2, 1.0, 2.5, 0.5), (3, 0.8, 2.0, -0.3)):
        params = ModelParams(q=q, beta=beta, c=c)
        hier = pa.symmetric_t_hierarchy(q, t)
        y = 1 - math.exp(-beta)
        mc1 = pa.cavity_g1(params, 3, pa.rs_spec(), hier, samples=10_000,
                           seed=101, method="monte-carlo")
        val1, tail1 = pa.g1(beta, c, q, t)
        ref1 = math.log(q) + c * math.log(1 - y / q) + val1
        assert abs(mc1.value - ref1) <= 4 * mc1.stat_error + tail1, (q, t, "g1")
        mc2 = pa.cavity_g2(params, 3, pa.rs_spec(), hier, samples=10_000,
                           seed=102, method="monte-carlo")
        ref2 = 0.5 * c * math.log(1 - y / q) + pa.g2(beta, c, q, t)
        assert abs(mc2.value - ref2) <= 4 * mc2.stat_error, (q, t, "g2")
        worst_z = max(worst_z, abs(mc1.value - ref1) / mc1.stat_error,
                      abs(mc2.value - ref2) / mc2.stat_error)
    elapsed = time.time() - start
    record(8, elapsed < 180.0,
           f"cascade recovery: exact to {worst_exact:.1e}, RS MC worst z = "
           f"{worst_z:.2f} ({elapsed:.1f}s)")


def test_criterion_09_pd_sampler_laws():
    # Frechet law of the top atom at 1e5 draws, m in {0.3, 0.7}
    rng = stream(2025)
    min_p = 1.0
    for m in (0.3, 0.7):
        top = np.array([pa.sample_pd_atoms(m, 1, rng).atoms[0] for _ in range(100_000)])
        res = kstest(top, lambda a, mm=m: np.exp(-a ** (-mm)))
        assert res.pvalue > 0.001, (m, res.pvalue)
        min_p = min(min_p, res.pvalue)

    # Laplace functional identity at (m, p, lambda) = (0.5, 1, 1); the
    # Gamma integral comes from an independent quadrature oracle
    m, p, lam = 0.5, 1.0, 1.0
    integral, _ = quad(lambda x: x ** (-m / p) * math.exp(-x), 0.0, 60.0)
    target = math.exp(-(lam ** (m / p)) * integral)
    draws, n_atoms = 6000, 3000
    vals = np.empty(draws)
    tails = np.empty(draws)
    for i in range(draws):
        a = pa.sample_pd_atoms(m, n_atoms, rng)
        vals[i] = math.exp(-lam * float((a.atoms**p).sum()))
        tails[i] = a.tail_mass_bound
    sem = vals.std(ddof=1) / math.sqrt(draws)
    laplace_err = abs(vals.mean() - target)
    assert laplace_err <= 4 * sem + lam * tails.mean()

    # stability property passes; the deliberate 1.2x mismatch fails
    good = pa.stability_test(0.5, 256, 10_000, seed=55)
    bad = pa.stability_test(0.5, 256, 20_000, seed=56, scale_mismatch=1.2)
    assert good.passed and not bad.passed
    record(9, True, f"PD laws: KS min p = {min_p:.4f}, Laplace err {laplace_err:.1e} "
                    f"<= {4 * sem + lam * tails.mean():.1e}, stability ok, power ok")


def test_criterion_10_second_moment_certification():
    # phi2(uniform) = 2P on a grid
    for q in (2, 3, 4):
        for beta in (0.0, 0.7, 1.5, math.inf):
            for kappa in (0.5, 2.0, 7.0):
                diff = abs(pa.phi2(beta, kappa, q, pa.uniform_overlap(q))
                           - 2 * pa.annealed_pressure(beta, kappa, q))
                assert diff <= 1e-12, (q, beta, kappa, diff)

    # exact collapse at t = 1 and k = q
    for q in (2, 3, 4):
        for beta in (0.6, math.inf):
            assert pa.Phi2_kt(beta, 5.0, q, 0.7, 1.0) == 2 * pa.annealed_pressure(beta, 5.0, q)
            assert pa.Phi2_kt(beta, 5.0, q, q, 2.0) == 2 * pa.annealed_pressure(beta, 5.0, q)

    # rescaling identity on a (beta, c, q, k, t) grid
    worst = 0.0
    for q in (2, 3, 4):
        for beta in (0.4, 1.0, 2.5, math.inf):
            for c in (0.8, 4.0, 15.0):
                for k in (0.0, 0.6 * q, float(q)):
                    lam = pa.rescale_multiplier(beta, q)
                    c_frak, k_frak = pa.rescale(beta, q, c, k)
                    for t in np.linspace(0.0, q, 9):
                        lhs = lam * (pa.Phi2_kt(beta, c, q, k, float(t))
                                     - 2 * pa.annealed_pressure(beta, c, q))
                        rhs = pa.Phi2_kt(math.inf, c_frak, q, k_frak, float(t)) \
                            - 2 * pa.annealed_pressure(math.inf, c_frak, q)
                        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10

    # optimize is certified with t* = 1 everywhere in the guaranteed region
    betas = (0.3, 0.7, 1.3, 2.5, math.inf)
    for q in (2, 3, 4):
        gate = 2 * q * math.log(q)
        for i in range(20):
            target = (i + 1) / 20.0 * gate
            beta = betas[i % len(betas)]
            c = target / (pa.x_param(beta, q) ** 2 * q * q)
            assert pa.in_guaranteed_region(beta, c, q)
            res = pa.optimize(beta, c, q)
            assert res.certified, (q, beta, c, res.max_gap)
            assert abs(res.t_star - 1.0) <= 1e-9, (q, beta, c, res.t_star)
    record(10, True, f"second-moment certification (rescaling worst {worst:.1e}; "
                     f"60 gated optimizations certified with t* = 1)")


def test_criterion_11_rsb_dominance(pressure_cache):
    params = ModelParams(q=2, beta=1.0, c=4.0)
    p5 = pressure_cache(2, 1.0, 4.0, 5)
    configs = [
        ("annealed closed", pa.annealed_spec(), pa.uniform_hierarchy(2), "auto", 0),
        ("L1 m=0.5 closed", pa.CascadeSpec((0.5,)), pa.uniform_hierarchy(2), "auto", 0),
        ("L1 m=0.5 MC", pa.CascadeSpec((0.5,)), pa.uniform_hierarchy(2),
         "monte-carlo", 1200),
        ("RS t=0.5 closed", pa.rs_spec(), pa.symmetric_t_hierarchy(2, 0.5), "auto", 0),
        ("RS t=-0.8 MC", pa.rs_spec(), pa.symmetric_t_hierarchy(2, -0.8),
         "monte-carlo", 8000),
        ("1RSB m=0.5 t=0.5 MC", pa.one_rsb_spec(0.5),
         pa.symmetric_t_hierarchy(2, 0.5), "monte-carlo", 900),
    ]
    worst = math.inf
    for label, spec, hier, method, samples in configs:
        bound = pa.rsb_upper_bound(params, 5, spec, hier, samples=max(samples, 2),
                                   seed=77, method=method, n_atoms=2048)
        slack = combined_error(bound, p5) + 3 * bound.bias_estimate
        margin = bound.value - (p5.value - slack)
        assert margin >= 0, (label, bound.value, p5.value)
        worst = min(worst, bound.value - p5.value)
    record(11, True, f"rsb_upper_bound >= p_5 on 6 configurations "
                     f"(smallest raw margin {worst:.3f})")


def test_criterion_12_conditional_moment_formulas():
    n, q, k, beta = 4, 2, 2, 1.0
    cells = [(i, j) for i in range(n) for j in range(n)]
    balanced = [s for s in itertools.product(range(q), repeat=n)
                if s.count(0) == n // q]

    def z_tilde(J):
        total = 0.0
        for s in balanced:
            h = sum(J[i][j] * (s[i] == s[j]) for i in range(n) for j in range(n))
            total += math.exp(-beta * h)
        return total

    m1 = m2 = 0.0
    for placement in itertools.product(range(len(cells)), repeat=k):
        J = [[0] * n for _ in range(n)]
        for pcell in placement:
            i, j = cells[pcell]
            J[i][j] += 1
        z = z_tilde(J)
        m1 += z
        m2 += z * z
    m1 /= len(cells) ** k
    m2 /= len(cells) ** k
    first, second = pa.conditional_moments_balanced(n, q, beta, k)
    err = max(abs(first - m1), abs(second - m2))
    record(12, err <= 1e-12, f"balanced conditional moments match brute force "
                             f"(worst {err:.2e})")


CLI_CASES = [
    ["phase-diagram", "--q", "2", "--c-min", "0", "--c-max", "3", "--c-step", "1"],
    ["pressure", "--q", "2", "--beta", "1", "--c", "2", "--n", "3", "--seed", "17"],
    ["rs-scan", "--q", "2", "--beta", "1", "--c", "4", "--t-points", "11"],
    ["second-moment", "--q", "3", "--beta", "1", "--c", "5"],
    ["sum-rule", "--q", "2", "--beta", "1", "--c", "1", "--n", "2",
     "--r-max", "8", "--quad-points", "6", "--seed", "2"],
    ["cascade", "--q", "2", "--beta", "1", "--c", "3", "--n", "3",
     "--m-list", "0,1", "--hierarchy", "symmetric-t", "--t", "0.4",
     "--samples", "400", "--seed", "5", "--method", "monte-carlo"],
]


def test_criterion_13_cli_determinism(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "POTTS_AF_THREADS"}
    for idx, case in enumerate(CLI_CASES):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{idx}_{run}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "potts_af.cli", *case, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, (case, proc.stderr)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"run-dependent output for {case[0]}"
    record(13, True, f"{len(CLI_CASES)} CLI commands byte-identical across "
                     f"two fresh runs")
