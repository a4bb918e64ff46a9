"""g1 against an oracle that never enumerates colour classes.

With K ~ Poisson(c) and k iid uniform colours, the colour counts n_s are iid
Poisson(c/q) (Poisson splitting), so with r = A/B

    g1 = E ln W = c ln B - ln q + E ln X,    X = sum_s r^{n_s},

and Frullani's integral ln X = int_0^inf (e^-u - e^-uX) du/u turns E ln X
into one integral of phi(u)^q, phi(u) = E e^{-u r^n} with n ~ Poisson(c/q):
a 1-D integral of a 1-D Poisson sum, whatever q is.  The oracle takes the
trapezoid rule in ln u, which converges geometrically for this integrand,
over a u range from far below 1 / max X to far above 1 / min X.  It shares
only factor_logs with the package: no class table, gap pattern or Poisson
truncation search.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from potts_af.replica import factor_logs, g1, profile_sum

NODES = 2401


def splitting_g1(beta: float, c: float, q: int, t: float) -> float:
    log_a, log_b = factor_logs(beta, q, t)
    lam = c / q
    n = np.arange(int(lam + 15.0 * math.sqrt(lam) + 40.0) + 1)
    log_p = n * math.log(lam) - lam - np.array([math.lgamma(k + 1.0) for k in n])
    keep = log_p > -60.0  # the dropped Poisson mass is below 1e-25
    n, p = n[keep], np.exp(log_p[keep])
    p /= p.sum()  # so that 1 - phi(u) reaches 1, and phi(u)^q 0, as u grows
    log_rn = n * (log_a - log_b)  # ln r^n for each count that carries weight
    # below u_lo the integrand is about u (E X - 1), past u_hi below e^-60
    lo = -40.0 - max(0.0, math.log(q) + log_rn.max())
    hi = math.log(60.0) - min(0.0, log_rn.min())
    x = np.linspace(lo, hi, NODES)
    scaled = np.minimum(x[:, None] + log_rn, 700.0)  # e^700 already sends e^-u r^n to 0
    miss = np.minimum(-(p * np.expm1(-np.exp(scaled))).sum(axis=1), 1.0)  # 1 - phi(u)
    with np.errstate(divide="ignore"):  # phi(u) = 0 at the largest u
        f = np.expm1(-np.exp(x)) - np.expm1(q * np.log1p(-miss))  # e^-u - phi(u)^q
    integral = (hi - lo) / (NODES - 1) * (f.sum() - 0.5 * (f[0] + f[-1]))
    return c * log_b - math.log(q) + integral


POINTS = [(2.474, 8.0, 3, 0.63), (8.0, 8.8, 4, 0.9), (1.0, 4.0, 2, -0.8), (8.0, 14.0, 5, 0.9)]


@pytest.mark.parametrize("beta, c, q, t", POINTS)
def test_g1_matches_poisson_splitting(beta, c, q, t):
    value, tail = g1(beta, c, q, t)
    assert abs(value - splitting_g1(beta, c, q, t)) <= tail + 1e-10


@pytest.mark.parametrize("beta, c, q, t", POINTS)
def test_tight_profile_sum_matches_poisson_splitting(beta, c, q, t):
    # with the tail cut near rounding, the class sum and the quadrature agree
    # to about 1e-15; the margin allows for rounding in both
    value, tail, _ = profile_sum(c, q, *factor_logs(beta, q, t), 0.0, 1e-15)
    assert abs(value - splitting_g1(beta, c, q, t)) <= tail + 1e-13


def test_g1_matches_poisson_splitting_at_q8():
    # q = 8 holds a class table of 0.66 M rows; a fresh interpreter frees it
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_splitting_oracle import splitting_g1
from potts_af.replica import g1
value, tail = g1(3.0, 20.0, 8, 0.5)
print(abs(value - splitting_g1(3.0, 20.0, 8, 0.5)) - tail)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1e-10


def test_splitting_oracle_where_x_is_q():
    # at t = 0 (r = 1) and as c -> 0 (every n_s = 0) X is q, and the
    # quadrature must return Frullani's ln q to cancel the - ln q
    assert abs(splitting_g1(1.5, 6.0, 4, 0.0)) <= 1e-12
    assert abs(splitting_g1(1.0, 1e-300, 3, 0.4)) <= 1e-12
