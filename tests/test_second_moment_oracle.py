"""The closed-form-k, branch-and-bound optimizer against two older searches.

The grid oracle is the optimizer second_moment used before k was
eliminated: a dense (k, t) grid, then three rounds of alternating
golden-section refinement from the best grid point, with "certified"
meaning only that the refined maximum is <= CERTIFIED_TOL.  Its gap
function is the scalar closed form of that version.

The zoom oracle is the t search that preceded the bracketed root of g':
the same 402-point scan, then rounds of 129 points around the best point,
each 64 times finer, down to a spacing below 5e-14 q, with the same tie
rule and the same branch-and-bound certificate.

The endpoint oracle is the branch-and-bound certificate that evaluated
(t-1)^2 and E(t) at both ends of every cell in every round and gave only
the cells touching t = 1 the Taylor bound.  The certificate bounds every
cell by the smaller of its endpoint bound and its Taylor bound, so round
by round it must evaluate a subset of the oracle's cells, certify
wherever the oracle does, and, where it certifies and the oracle does
not, face a maximum <= CERTIFIED_TOL.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from potts_af import second_moment as sm
from potts_af.bounds import x_param
from potts_af.second_moment import (
    CERTIFIED_TOL,
    MAX_CELLS,
    _certify,
    _local_candidates,
    _profile,
    _row_entropy,
    _scan_grid,
    in_guaranteed_region,
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


def endpoint_certify(slope: float, c: float, q: int, edges: np.ndarray) -> bool:
    """Branch and bound over the t-cells between edges: True if gap <= CERTIFIED_TOL.

    With s = (t-1)^2, a = slope s is at most its larger endpoint value on a
    cell and E at least its smaller one (both convex, E zero at t = 1); on a
    cell touching t = 1, E >= s min E''/2 (E'' = 1/t + 1/(q-t)) bounds the gap
    in w = s u <= q max s.  Failing cells are bisected up to MAX_CELLS.
    """
    lo, hi, seen = edges[:-1], edges[1:], 0
    while lo.size:
        seen += lo.size
        if seen > MAX_CELLS:
            return False
        touch = (lo <= 1.0) & (hi >= 1.0)
        flat, s_max = np.minimum(hi, 0.5 * q), np.maximum((lo - 1.0) ** 2, (hi - 1.0) ** 2)
        e_min = _row_entropy(np.stack([lo, hi]), q).min(axis=0)
        ent = np.where(touch, 0.5 / flat + 0.5 / (q - flat), e_min)
        fail = _profile(slope * np.where(touch, 1.0, s_max), ent, c, q,
                        np.where(touch, q * s_max, float(q)))[1] > CERTIFIED_TOL
        lo, hi, mid = lo[fail], hi[fail], 0.5 * (lo[fail] + hi[fail])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return True


def certify_at(slope, c, q, edges):
    """`_certify` on edges, with (t-1)^2 and E(t) evaluated there."""
    return _certify(slope, c, q, edges, (edges - 1.0) ** 2, _row_entropy(edges, q))


def zoom_optimize(beta, c, q, grid_points=401):
    """(t*, k*, max_gap, certified) of the scan plus six 129-point zoom rounds."""
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
    ts = np.union1d(np.linspace(0.0, q, grid_points), [1.0])
    pts, h = ts, q / (grid_points - 1)
    steps = np.arange(-64, 65) / 64
    while True:
        u, g = _profile(slope * (pts - 1.0) ** 2, _row_entropy(pts, q), c, q, float(q))
        i = int(np.lexsort((pts, -u, -g))[0])
        if h <= 5e-14 * q:
            break
        pts, h = np.clip(pts[i] + h * steps, 0.0, q), h / 64
    certified = g[i] <= CERTIFIED_TOL and certify_at(slope, c, q, ts)
    return float(pts[i]), q - float(u[i]), float(g[i]), bool(certified)


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


def test_certify_is_sound_on_random_cells(monkeypatch):
    # every cell's bound is at least the maximum of a fine (k, t) grid on it;
    # whenever a cell is certified, that maximum is <= the tolerance, and the
    # endpoint oracle never certifies a cell the certificate does not; a
    # third of the cells touch t = 1 and may span most of the domain, a
    # third lie beside it on either side, 1e-8 to 1e-1 away, with widths
    # from 1e-6 to 1, and c straddles the points where verdicts flip
    rng = np.random.default_rng(12)
    ks = np.linspace(0.0, 1.0, 201)
    checked = beside = stronger = 0
    for n in range(600):
        q = int(rng.integers(2, 7))
        beta = float(rng.choice(BETAS))
        c = _gate_c(beta, q, float(rng.uniform(0.5, 1.7)))
        if n % 3 == 0:
            lo, hi = float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, q))
        elif n % 3 == 1:
            lo, hi = sorted(float(v) for v in rng.uniform(0.0, q, 2))
        else:
            away, width = 10.0 ** rng.uniform(-8.0, -1.0), 10.0 ** rng.uniform(-6.0, 0.0)
            if rng.random() < 0.5:
                lo, hi = 1.0 + away, min(1.0 + away + width, float(q))
            else:
                lo, hi = max(1.0 - away - width, 0.0), 1.0 - away
        gaps = _oracle_grid(beta, c, q, q * ks, np.linspace(lo, hi, 401))
        slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
        t = np.array([lo, hi])
        lo_end, hi_end = np.array([t, (t - 1.0) ** 2, _row_entropy(t, q)]).T[:, :, None]
        bound = float(sm._cell_bounds(slope, c, q, lo_end, hi_end)[0])
        assert bound >= gaps.max() - 1e-13, (q, beta, c, lo, hi, bound, gaps.max())
        certified = certify_at(slope, c, q, t)
        assert certified or not endpoint_certify(slope, c, q, t), (q, beta, c, lo, hi)
        if certified:
            checked += 1
            beside += n % 3 == 2
            assert gaps.max() <= CERTIFIED_TOL, (q, beta, c, lo, hi, gaps.max())
        if bound <= CERTIFIED_TOL:  # one round; does the oracle need more?
            with monkeypatch.context() as m:
                m.setattr(sys.modules[__name__], "MAX_CELLS", 1)
                stronger += not endpoint_certify(slope, c, q, t)
    assert checked > 150 and beside > 50 and stronger > 50, (checked, beside, stronger)


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_cell_bound_holds_on_cells_straddling_t_one(beta):
    # at q = 2, past c x^2 = 1, g is even about t = 1 with maxima at 1 +- d;
    # on [1 - r, 1 + r] with r > d the smaller end entropy is E(1 + r), so
    # only E's minimum 0 at t = 1 keeps the endpoint bound above g(1 + d)
    q = 2
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
    for cx2 in (1.01, 1.1, 1.5, 2.0):
        c = cx2 / x_param(beta, q) ** 2
        res = optimize(beta, c, q)
        for spread in (1.05, 1.5, 3.0):
            r = min(spread * abs(res.t_star - 1.0), 1.0)
            t = np.array([1.0 - r, 1.0 + r])
            lo_end, hi_end = np.array([t, (t - 1.0) ** 2, _row_entropy(t, q)]).T[:, :, None]
            bound = float(sm._cell_bounds(slope, c, q, lo_end, hi_end)[0])
            assert bound >= res.max_gap > 0.0, (beta, cx2, spread, bound, res)


def _assert_matches_zoom(beta, c, q):
    res = optimize(beta, c, q)
    t_zoom, _, gap_zoom, certified_zoom = zoom_optimize(beta, c, q)
    assert abs(res.max_gap - gap_zoom) <= 1e-13, (q, beta, c, res, gap_zoom)
    assert res.certified == certified_zoom, (q, beta, c, res, certified_zoom)
    if res.max_gap <= CERTIFIED_TOL:  # where optimize runs the certificate
        slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
        oracle = endpoint_certify(slope, c, q, _scan_grid(q)[0])
        # at least as strong as the endpoint oracle, and sound where stronger
        assert res.certified or not oracle, (q, beta, c)
        assert oracle or not res.certified or gap_zoom <= CERTIFIED_TOL, (q, beta, c)
    if in_guaranteed_region(beta, c, q):
        assert abs(res.t_star - 1.0) <= 1e-9, (q, beta, c, res)
    return res, t_zoom


def test_root_search_matches_the_zoom_oracle():
    # seeded (q, beta, c) with c from 0 to three times the gate, beta = 0 and c = 0 included
    rng = np.random.default_rng(21)
    betas = (0.0, 0.3, 1.0, 2.5, math.inf)
    inside = 0
    for n in range(2_000):
        q = int(rng.integers(2, 7))
        beta = betas[n % 5] if n % 10 else float(rng.uniform(0.0, 20.0))
        if n % 25 == 0:
            c = 0.0
        elif beta == 0.0:
            c = float(rng.uniform(0.0, 100.0))
        else:
            c = _gate_c(beta, q, float(rng.uniform(0.0, 3.0)))
        inside += in_guaranteed_region(beta, c, q)
        _assert_matches_zoom(beta, c, q)
    assert 500 < inside < 1_500


@pytest.mark.parametrize("q, beta, c, end", [
    (5, 0.3, 575.277, 5.0),  # maxima in the last cell, where g'(q) = -inf
    (6, math.inf, 43.3573, 6.0),
    (6, 2.5, 54.6542, 6.0),
    (2, math.inf, 10.0, 0.0),  # in the first cell, where g'(0) = +inf
    (2, math.inf, 40.0, 0.0),  # at t = 0 itself, up to rounding
])
def test_maxima_at_the_ends_of_the_domain(q, beta, c, end):
    res, t_zoom = _assert_matches_zoom(beta, c, q)
    assert abs(res.t_star - end) < q / 400 and abs(t_zoom - end) < q / 400
    assert abs(res.t_star - t_zoom) <= 1e-7, (res, t_zoom)


@pytest.mark.parametrize("beta", [1.0, math.inf])
@pytest.mark.parametrize("excess", [1e-6, 3.2e-6])
def test_maxima_inside_the_cells_beside_t_one(beta, excess):
    # just past c x^2 = 1 at q = 2, t = 1 is a local minimum of g, and the
    # two mirror-image maxima lie inside the cells beside it, where every
    # scan point has g = 0 and g' = 0; both cells are searched
    q = 2
    c = (1.0 + excess) / x_param(beta, q) ** 2
    res, _ = _assert_matches_zoom(beta, c, q)
    assert res.max_gap > 1e-13 and 0 < abs(res.t_star - 1.0) < q / 400
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
    ts = np.union1d(np.linspace(0.0, q, 401), [1.0])
    cand = np.array(_local_candidates(ts, int(np.searchsorted(ts, 1.0)), slope, c, q))
    g = _profile(slope * (cand - 1.0) ** 2, _row_entropy(cand, q), c, q, float(q))[1]
    for side in (cand < 1.0, cand > 1.0):
        assert g[side].max() == pytest.approx(res.max_gap, abs=1e-13)


# points where the maximum is <= CERTIFIED_TOL but the proof runs past MAX_CELLS
CAP_BANDS = [
    *((3, math.inf, _gate_c(math.inf, 3, f)) for f in (1.261883, 1.26189, 1.2619, 1.261901)),
    (2, math.inf, 1.0 + 7e-5),
]


def _certify_rounds(monkeypatch, slope, c, q):
    """`_certify` on the scan grid: its verdict and the set of cells of each round."""
    rounds, cell_bounds = [], sm._cell_bounds

    def record(slope, c, q, lo, hi):
        rounds.append(set(zip(lo[0].tolist(), hi[0].tolist())))
        return cell_bounds(slope, c, q, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(sm, "_cell_bounds", record)
        return _certify(slope, c, q, *_scan_grid(q)), rounds


def _oracle_rounds(monkeypatch, slope, c, q, cap):
    """The set of cells of each round of `endpoint_certify` on the scan grid
    with cap cells, read from its `_row_entropy` calls."""
    rounds, row_entropy = [], sm._row_entropy

    def record(t, q):
        rounds.append(set(zip(t[0].tolist(), t[1].tolist())))
        return row_entropy(t, q)

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "_row_entropy", record)
        m.setattr(sys.modules[__name__], "MAX_CELLS", cap)
        endpoint_certify(slope, c, q, _scan_grid(q)[0])
    return rounds


def _assert_within_oracle(monkeypatch, beta, c, q):
    """Round by round, the certificate evaluates a subset of the endpoint
    oracle's cells; it certifies wherever the oracle does, and where only it
    certifies, the zoom oracle's maximum is <= CERTIFIED_TOL.  Returns both
    verdicts.  The oracle's cells are read with eight times the cell cap, so
    that they cover every round the certificate runs."""
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
    certified, new_rounds = _certify_rounds(monkeypatch, slope, c, q)
    oracle = endpoint_certify(slope, c, q, _scan_grid(q)[0])
    old_rounds = _oracle_rounds(monkeypatch, slope, c, q, 8 * sm.MAX_CELLS)
    assert len(new_rounds) <= len(old_rounds), (q, beta, c)
    for new, old in zip(new_rounds, old_rounds):
        assert new <= old, (q, beta, c)
    assert certified or not oracle, (q, beta, c)
    if certified and not oracle:
        assert zoom_optimize(beta, c, q)[2] <= CERTIFIED_TOL, (q, beta, c)
    return certified, oracle


@pytest.mark.parametrize("q, beta, c", CAP_BANDS)
def test_certify_gives_up_in_the_cap_bands_like_the_endpoint_oracle(monkeypatch, q, beta, c):
    res = optimize(beta, c, q)
    assert res.max_gap <= CERTIFIED_TOL and not res.certified, res
    assert _assert_within_oracle(monkeypatch, beta, c, q) == (False, False)


@pytest.mark.parametrize("beta", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("cx2", [0.998, 0.999, 1.0, 1.0 + 1e-6, 1.0 + 1e-5])
def test_q2_false_negatives_of_the_endpoint_oracle_certify(monkeypatch, beta, cx2):
    # the gap is 0 up to c x^2 = 1 and 2e-13 to 5e-11 just past it, but the
    # oracle's cells beside t = 1 split until they pass MAX_CELLS
    c = cx2 / x_param(beta, 2) ** 2
    res = optimize(beta, c, 2)
    assert res.certified and res.max_gap <= CERTIFIED_TOL, res
    assert (res.max_gap == 0.0) == (cx2 <= 1.0), res
    assert _assert_within_oracle(monkeypatch, beta, c, 2) == (True, False)


@pytest.mark.parametrize("cap", [100, 500, 2_000])
def test_certify_hits_the_cell_cap_where_the_endpoint_oracle_does(monkeypatch, cap):
    # both read MAX_CELLS at call time: the certificate from its module, the
    # oracle from this one
    monkeypatch.setattr(sm, "MAX_CELLS", cap)
    monkeypatch.setattr(sys.modules[__name__], "MAX_CELLS", cap)
    verdicts = [_assert_within_oracle(monkeypatch, beta, c, q)[0]
                for q in (2, 3, 4) for beta in (1.0, math.inf)
                for c in [_gate_c(beta, q, f) for f in (0.5, 1.0, 1.2, 1.25, 1.26)]
                + [(1.0 + 1e-3) / x_param(beta, q) ** 2]]
    assert any(verdicts) == (cap > 401) and not all(verdicts)
