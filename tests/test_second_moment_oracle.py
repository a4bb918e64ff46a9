"""The closed-form-k, branch-and-bound optimizer against the 2-D grid search.

The oracle below is the optimizer second_moment used before k was
eliminated: a dense (k, t) grid, then three rounds of alternating
golden-section refinement from the best grid point, with "certified"
meaning only that the refined maximum is <= CERTIFIED_TOL.  Its gap
function is the scalar closed form of that version.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af.bounds import x_param
from potts_af.second_moment import (
    CERTIFIED_TOL,
    _certify,
    _profile,
    _row_entropy,
    optimize,
    phi2_kt_gap,
)

BETAS = (0.3, 1.0, 2.0, 5.0, math.inf)
# multiples of the guaranteed-region gate x^2 q^2 c = 2 q ln q; dense just
# outside it, but away from the points where the verdict flips (1.12-1.44)
GATE_FRACTIONS = (0.05, 0.3, 0.6, 0.9, 1.0, 1.001, 1.01, 1.03, 1.06, 1.09, 1.5, 2.0, 3.0)
OUTSIDE_REFERENCE = {  # benchmark points outside the gate: (q, beta, c) -> max_gap
    (2, 2.0, 8.0): 1.1394384872030785,
    (3, 2.0, 12.0): 0.627344333453917,
    (4, 1.5, 20.0): 0.2831793674811509,
}


def _oracle_gap(beta, c, q, k, t):
    x = x_param(beta, q)
    first = t * math.log(t) if t > 0 else 0.0
    second = (q - t) * math.log((q - t) / (q - 1.0)) if q - t > 0 else 0.0
    energy = 0.5 * c * math.log1p(x * x * (q - k) * (t - 1.0) ** 2 / (q * (q - 1.0)))
    return energy - (q - k) * (first + second) / q**2


def _oracle_grid(beta, c, q, ks, ts):
    x = x_param(beta, q)
    k, t = ks[:, None], ts[None, :]
    energy = 0.5 * c * np.log1p(x * x * (q - k) * (t - 1.0) ** 2 / (q * (q - 1.0)))
    tlnt = t * np.log(np.where(t > 0, t, 1.0))
    qmt = q - t
    rest = qmt * np.log(np.where(qmt > 0, qmt / (q - 1.0), 1.0))
    return energy - (q - k) * (tlnt + rest) / q**2


def _golden_max(fn, lo, hi, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = fn(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = fn(c1)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def oracle_optimize(beta, c, q, grid_points=401):
    """(max_gap, certified) of the 2-D grid plus golden-section search."""
    ks = np.linspace(0.0, q, grid_points)
    ts = np.union1d(np.linspace(0.0, q, grid_points), [1.0])
    gaps = _oracle_grid(beta, c, q, ks, ts)
    ik, it = divmod(int(np.argmax(gaps)), len(ts))
    k_best, t_best, gap_best = float(ks[ik]), float(ts[it]), float(gaps[ik, it])
    dk = q / (grid_points - 1)
    for _ in range(3):
        k_best, _ = _golden_max(lambda kk: _oracle_gap(beta, c, q, kk, t_best),
                                max(0.0, k_best - dk), min(float(q), k_best + dk))
        t_best, gap_ref = _golden_max(lambda tt: _oracle_gap(beta, c, q, k_best, tt),
                                      max(0.0, t_best - dk), min(float(q), t_best + dk))
    gap_best = max(gap_best, gap_ref)
    return gap_best, gap_best <= CERTIFIED_TOL


def _gate_c(beta, q, fraction):
    return fraction * 2 * q * math.log(q) / (x_param(beta, q) ** 2 * q * q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_max_gap_and_verdict_match_the_grid_oracle(q):
    for beta in BETAS:
        for fraction in GATE_FRACTIONS:
            c = _gate_c(beta, q, fraction)
            res = optimize(beta, c, q)
            gap, certified = oracle_optimize(beta, c, q)
            assert res.max_gap >= gap - 1e-14, (q, beta, fraction, res.max_gap, gap)
            # the oracle's golden section stops short by at most a few 1e-8
            assert res.max_gap <= gap + 1e-7, (q, beta, fraction, res.max_gap, gap)
            assert res.certified == certified, (q, beta, fraction, res, gap)


def test_outside_gate_benchmark_points():
    for (q, beta, c), expected in OUTSIDE_REFERENCE.items():
        res = optimize(beta, c, q)
        assert not res.certified
        assert res.max_gap == pytest.approx(expected, abs=1e-12)
        assert phi2_kt_gap(beta, c, q, res.k_star, res.t_star) == pytest.approx(
            res.max_gap, abs=1e-13)


def test_closed_form_u_star_matches_brute_force_over_k():
    rng = np.random.default_rng(11)
    ks = np.linspace(0.0, 1.0, 200_001)
    for _ in range(40):
        q = int(rng.integers(2, 7))
        beta = float(rng.choice(BETAS))
        c = _gate_c(beta, q, float(rng.uniform(0.05, 3.0)))
        t = float(rng.uniform(0.0, q))
        alpha = x_param(beta, q) ** 2 * (t - 1.0) ** 2 / (q * (q - 1.0))
        u_star, g = (float(v) for v in _profile(alpha, _row_entropy(t, q), c, q, float(q)))
        gaps = _oracle_grid(beta, c, q, q * ks, np.array([t]))[:, 0]
        best = int(np.argmax(gaps))
        # the profile is the maximum over k, attained at k = q - u*
        assert g >= gaps[best] - 1e-14
        assert g == pytest.approx(_oracle_gap(beta, c, q, q - u_star, t), abs=1e-14)
        # and u* is the brute-force argmax, up to the k grid's resolution
        # where the maximum is sharp enough to pin it down
        near = gaps >= gaps[best] - 1e-12
        assert q * ks[near].min() - 1e-4 <= q - u_star <= q * ks[near].max() + 1e-4


def test_certify_is_sound_on_random_cells():
    # whenever a cell is certified, a fine (k, t) grid on it stays <= the
    # tolerance; half the cells touch t = 1 (the Taylor bound) and may span
    # most of the domain, and c straddles the points where verdicts flip
    rng = np.random.default_rng(12)
    ks = np.linspace(0.0, 1.0, 201)
    checked = 0
    for _ in range(400):
        q = int(rng.integers(2, 7))
        beta = float(rng.choice(BETAS))
        c = _gate_c(beta, q, float(rng.uniform(0.5, 1.7)))
        if rng.random() < 0.5:
            lo, hi = float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, q))
        else:
            lo, hi = sorted(float(v) for v in rng.uniform(0.0, q, 2))
        gaps = _oracle_grid(beta, c, q, q * ks, np.linspace(lo, hi, 401))
        slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
        if _certify(slope, c, q, np.array([lo, hi])):
            checked += 1
            assert gaps.max() <= CERTIFIED_TOL, (q, beta, c, lo, hi, gaps.max())
    assert checked > 100
