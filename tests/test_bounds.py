from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from potts_af import bounds
from potts_af.bounds import (
    BETA_SCAN_MAX,
    LABEL_ANNEALED,
    LABEL_NON_ANNEALED,
    _entropy,
    _entropy_bracket,
    annealed_entropy,
    annealed_pressure,
    beta_1,
    beta_ent,
    beta_rs_loc,
    classify,
    thresholds,
    x_param,
)


@pytest.mark.parametrize("q, c", [(2, 1.0), (3, 4.0), (4, 10.0)])
def test_annealed_entropy_at_zero_temperature_is_the_pressure(q, c):
    # at beta = inf the energy term beta c u / (q - 1 + u) is 0: no e^-beta left
    assert annealed_entropy(math.inf, c, q) == annealed_pressure(math.inf, c, q)
    assert annealed_entropy(math.inf, c, q) == math.log(q) + 0.5 * c * math.log1p(-1.0 / q)


def test_annealed_pressure_endpoints():
    assert annealed_pressure(0.0, 5.0, 3) == pytest.approx(math.log(3), abs=1e-15)
    assert annealed_pressure(2.0, 0.0, 3) == pytest.approx(math.log(3), abs=1e-15)
    assert annealed_pressure(math.inf, 4.0, 2) == pytest.approx(
        math.log(2) + 2.0 * math.log(0.5), abs=1e-14
    )


def test_annealed_pressure_monotone():
    betas = np.linspace(0.01, 8.0, 60)
    vals = [annealed_pressure(float(b), 3.0, 2) for b in betas]
    assert all(b > a for a, b in zip(vals[1:], vals[:-1]))
    cs = np.linspace(0.0, 10.0, 50)
    vals_c = [annealed_pressure(1.0, float(c), 3) for c in cs]
    assert all(b > a for a, b in zip(vals_c[1:], vals_c[:-1]))


def test_x_param_values():
    assert x_param(0.0, 5) == 0.0
    assert x_param(math.inf, 3) == pytest.approx(0.5, abs=1e-15)
    assert x_param(math.log(2), 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    betas = np.linspace(0.0, 20.0, 80)
    xs = [x_param(float(b), 4) for b in betas]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert all(0.0 <= x <= 1.0 / 3.0 for x in xs)


def test_thresholds_values():
    th3 = thresholds(3)
    assert th3.c_rs_loc == 4.0
    th2 = thresholds(2)
    assert th2.c_ent == pytest.approx(2.0, abs=1e-14)
    assert th2.c_1 == pytest.approx(4 * math.log(2), abs=1e-14)


def test_beta_rs_loc_values():
    assert beta_rs_loc(4.0, 2) == pytest.approx(math.log(3), abs=1e-14)
    assert beta_rs_loc(9.0, 2) == pytest.approx(math.log(2), abs=1e-14)
    assert beta_rs_loc(4.0, 3) == math.inf  # boundary c = (q-1)^2
    assert beta_rs_loc(0.5, 2) == math.inf


def test_beta_1_values():
    assert beta_1(9.0, 2) == beta_rs_loc(9.0, 2)
    assert beta_1(9.0, 2) == pytest.approx(math.log(2), abs=1e-14)
    assert beta_1(6 * math.log(3), 3) == math.inf  # boundary c = c_1(3)
    assert beta_1(24 * math.log(3), 3) == pytest.approx(math.log(4), abs=1e-13)


def test_beta_ent_below_threshold_is_infinite():
    for q in (2, 3, 5):
        c_ent = thresholds(q).c_ent
        assert beta_ent(0.9 * c_ent, q) == math.inf
        assert beta_ent(c_ent, q) == math.inf


def test_beta_ent_is_infinite_where_the_computed_limit_is_not_negative():
    # the float after c_ent(8) lies below the exact threshold, and the
    # computed beta -> inf entropy there is 0: no root, not an error
    q = 8
    c = math.nextafter(thresholds(q).c_ent, math.inf)
    assert annealed_entropy(math.inf, c, q) == 0.0
    assert beta_ent(c, q) == math.inf
    assert classify(50.0, c, q).beta_upper == beta_rs_loc(c, q)
    # where the computed limit is negative the root stays finite
    assert math.isfinite(beta_ent(math.nextafter(thresholds(5).c_ent, math.inf), 5))


def test_beta_ent_residual():
    # the returned root solves annealed_entropy = 0 to within 1e-9
    for q, c in [(2, 9.0), (2, 4.0), (3, 10.0), (4, 50.0)]:
        root = beta_ent(c, q)
        assert math.isfinite(root)
        assert abs(annealed_entropy(root, c, q)) <= 1e-9


def test_beta_ent_monotone_in_c():
    for q in (2, 3):
        c0 = thresholds(q).c_ent
        cs = np.linspace(1.05 * c0, 6 * c0, 12)
        roots = [beta_ent(float(c), q) for c in cs]
        assert all(b <= a + 1e-12 for a, b in zip(roots, roots[1:]))


def checked_beta_ent(c: float, q: int) -> float:
    """The bisection of beta_ent on the checked, public annealed_entropy."""
    if c <= thresholds(q).c_ent or annealed_entropy(math.inf, c, q) >= 0.0:
        return math.inf
    lo, hi = 0.0, 1e-3
    while annealed_entropy(hi, c, q) > 0.0:
        lo, hi = hi, 1.5 * hi
        if hi > BETA_SCAN_MAX:
            raise RuntimeError("not bracketed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if annealed_entropy(mid, c, q) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_ent_or_raise(root_find, c, q):
    try:
        return root_find(c, q)
    except RuntimeError:
        return "raises"


@pytest.mark.parametrize("q", range(2, 9))
def test_beta_ent_bit_equal_to_checked_bisection(q):
    # the benchmark's range, roots near the first scan point (c up to 300),
    # and flat roots just above c_ent, down to the next float, where the
    # bracket leaves an end open; at q = 8 the next float's beta -> inf limit
    # computes to 0, and both return inf
    c_ent = thresholds(q).c_ent
    cs = [*np.linspace(0.5, 80.0, 41), *np.linspace(80.0, 300.0, 12)]
    cs += [c_ent * (1.0 + 10.0 ** -e) for e in np.arange(3.0, 15.5, 0.5)]
    cs += [math.nextafter(c_ent, math.inf), c_ent * (1.0 + 2.0 ** -50)]
    for c in cs:
        c = float(c)
        assert beta_ent_or_raise(beta_ent, c, q) == beta_ent_or_raise(checked_beta_ent, c, q), c


def exact_entropy(beta: float, c: float, q: int) -> Decimal:
    """s_ann at the float beta in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        b, c, q = Decimal(beta), Decimal(c), Decimal(q)
        u = (-b).exp()
        return q.ln() + c / 2 * (1 - (1 - u) / q).ln() + b * c / 2 * u / (q - 1 + u)


def test_entropy_bracket_margin_against_decimal():
    # _entropy_bracket's ends: _entropy beyond +-delta there, s_ann of the
    # right sign there, and _entropy within its stated rounding everywhere
    eps = math.ulp(1.0)
    rng = np.random.default_rng(5)
    for _ in range(40):
        q = int(rng.integers(2, 9))
        c_ent = thresholds(q).c_ent
        c = float(c_ent * math.exp(rng.uniform(math.log(1e-6), math.log(300.0 / c_ent))) + c_ent)
        log_q = math.log(q)
        lo, hi = _entropy_bracket(c, q, log_q, -math.log1p(-1.0 / q))
        delta = 64.0 * eps * (log_q + c)
        root = beta_ent(c, q)  # a bisection midpoint, within ROOT_ATOL / 2 of the root
        assert 0.0 < lo < hi < math.inf and lo - 5e-11 < root < hi + 5e-11
        assert _entropy(lo, c, q, log_q) > delta and exact_entropy(lo, c, q) > 0
        assert _entropy(hi, c, q, log_q) < -delta and exact_entropy(hi, c, q) < 0
        betas = [lo, hi, *np.linspace(lo, hi, 9), *(root + root * rng.normal(0.0, 1e-9, 8))]
        for beta in map(float, betas):
            computed = _entropy(beta, c, q, log_q)
            exact = exact_entropy(beta, c, q)
            assert abs(Decimal(computed) - exact) <= Decimal(4.0 * eps * (log_q + c))
            if abs(computed) > delta / 2:
                assert (computed > 0) == (exact > 0)


@pytest.mark.parametrize("q", range(2, 9))
def test_entropy_bracket_ends_are_certified_or_open(q):
    # at flat roots just above c_ent an end misses delta and must stay open
    c_ent = thresholds(q).c_ent
    log_q = math.log(q)
    opened = 0
    for c in [c_ent * (1.0 + 10.0 ** -e) for e in np.arange(8.0, 15.5, 0.5)]:
        lo, hi = _entropy_bracket(c, q, log_q, -math.log1p(-1.0 / q))
        delta = 64.0 * math.ulp(1.0) * (log_q + c)
        assert 0.0 <= lo < hi
        assert lo == 0.0 or _entropy(lo, c, q, log_q) > delta
        assert hi == math.inf or _entropy(hi, c, q, log_q) < -delta
        opened += lo == 0.0 or hi == math.inf
    assert opened >= 2


def test_beta_ent_evaluations_on_the_phase_grid(monkeypatch):
    # the benchmark's phase grid: 207 finite roots, each found with about
    # two _entropy calls (the bracket's ends) besides its Newton steps
    calls = []
    entropy = bounds._entropy
    monkeypatch.setattr(bounds, "_entropy", lambda *a: calls.append(a) or entropy(*a))
    roots = [beta_ent(float(c), q) for q in (2, 3, 4) for c in np.linspace(0.5, 40.0, 80)]
    finite = sum(map(math.isfinite, roots))
    assert finite == 207
    assert len(calls) / finite <= 2.5


def test_beta_ent_above_rs_loc_for_q2():
    # entropy positivity must not undercut the exact q=2 boundary
    for c in (1.5, 4.0, 9.0, 25.0):
        assert beta_ent(c, 2) >= beta_rs_loc(c, 2)


def test_q2_boundary_root_identity():
    # the root of c x(beta,2)^2 = 1 coincides with beta_rs_loc(c,2)
    for c in (2.0, 4.0, 9.0, 25.0):
        target = beta_rs_loc(c, 2)
        lo, hi = 1e-6, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c * x_param(mid, 2) ** 2 < 1.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(target, abs=1e-12)


def test_q2_bracket_collapse():
    for c in (1.5, 3.0, 9.0, 30.0):
        assert beta_1(c, 2) == beta_rs_loc(c, 2)


def test_classify_examples():
    region = classify(0.5, 9.0, 2)
    assert region.label == LABEL_ANNEALED
    region = classify(1.0, 9.0, 2)
    assert region.label == LABEL_NON_ANNEALED
    assert region.beta_lower == pytest.approx(math.log(2), abs=1e-14)
    assert region.beta_upper == pytest.approx(math.log(2), abs=1e-14)
    # low connectivity: annealed at any finite temperature
    assert classify(50.0, 2.0, 3).label == LABEL_ANNEALED


def test_classify_bracket_order_q2():
    for c in (0.5, 1.5, 4.0, 9.0):
        region = classify(0.3, c, 2)
        assert region.beta_lower <= region.beta_upper


def test_invalid_inputs():
    with pytest.raises(ValueError):
        annealed_pressure(-1.0, 1.0, 2)
    for beta, c, q in [(-1.0, 1.0, 2), (1.0, -1.0, 2), (1.0, 1.0, 1)]:
        with pytest.raises(ValueError):
            annealed_entropy(beta, c, q)
    with pytest.raises(ValueError):
        x_param(1.0, 1)
    with pytest.raises(ValueError):
        beta_rs_loc(-2.0, 2)


def test_numpy_integer_q_is_accepted():
    # ModelParams takes a numpy integer q, so the closed forms must too
    curves = [lambda q: annealed_pressure(1.0, 2.0, q), lambda q: x_param(1.0, q),
              thresholds, lambda q: beta_rs_loc(9.0, q), lambda q: beta_1(30.0, q),
              lambda q: beta_ent(9.0, q), lambda q: classify(1.0, 9.0, q)]
    for q in (2, 3):
        for curve in curves:
            assert curve(np.int64(q)) == curve(q)
    with pytest.raises(ValueError, match="q must be an integer"):
        annealed_pressure(1.0, 1.0, 2.0)
