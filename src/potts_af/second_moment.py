"""Constrained second-moment machinery for the balanced partition function.

The large-deviation functional over pair-overlap measures mu on [q]^2 is

    phi2(beta, kappa, q, mu) = s(mu)
        + (kappa/2) ln(1 - 2(1-e^-beta)/q + (1-e^-beta)^2 sum mu^2),

with s(mu) the Shannon entropy (0 ln 0 := 0).  At the uniform measure it
equals twice the annealed pressure.  The one-parameter-per-row family

    mu_{k,t}: rows r1 <= k uniform; rows r1 > k put t q^-2 on column 0 and
              (q-t)/(q-1) q^-2 elsewhere,

gives, with x = x(beta, q), E(t) = t ln t + (q-t) ln((q-t)/(q-1)), u = q - k
and a(t) = x^2 (t-1)^2 / (q(q-1)), the closed form

    Phi2(beta,c,q,k,t) - 2P = (c/2) ln(1 + a(t) u) - u E(t) / q^2,

which matches phi2(mu_{k,t}) identically for integer k and extends to real
k as a pure optimization parameter.  It is concave in u, so `optimize`
eliminates k in closed form, and its `certified` is a proof over the whole
(k, t) square.  Rescaling with the multiplier
lambda = x^2 (q-1)^2 maps the positive-temperature gap exactly onto the
zero-temperature one:

    lambda (Phi2(beta,c,q,k,t) - 2P(beta,c))
        = Phi2(inf, lambda c, q, q - lambda (q-k), t) - 2P(inf, lambda c),

because x(inf, q) = 1/(q-1) absorbs lambda in both the energy and entropy
terms.  The zero-t optimum is guaranteed (t* = 1, zero gap) whenever the
effective zero-temperature connectivity x^2 q^2 c stays below 2 q ln q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import annealed_pressure, x_param
from .util import check_beta, check_c, check_q

CERTIFIED_TOL = 1e-9
GRID_POINTS = 401
MAX_CELLS = 1 << 14  # cap on t-cells examined by one certification


@dataclass(frozen=True)
class OverlapMeasure:
    """Probability mass function on [q]^2, stored as a q x q array."""

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap measure must be a square array")
        if not np.all(np.isfinite(m) & (m >= -1e-15)):
            raise ValueError("overlap measure entries must be finite and >= 0")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValueError("overlap measure must sum to 1")
        object.__setattr__(self, "mass", m)

    @property
    def q(self) -> int:
        return self.mass.shape[0]

    def has_uniform_marginals(self) -> bool:
        """Membership test for the doubly balanced class M_*([q]^2), to 1e-12."""
        marginals = np.concatenate([self.mass.sum(axis=0), self.mass.sum(axis=1)])
        return bool(np.all(np.abs(marginals - 1.0 / self.q) <= 1e-12))


@dataclass(frozen=True)
class SecondMomentResult:
    t_star: float
    k_star: float
    max_gap: float
    certified: bool


def uniform_overlap(q: int) -> OverlapMeasure:
    check_q(q)
    return OverlapMeasure(np.full((q, q), 1.0 / q**2))


def phi2(beta: float, kappa: float, q: int, mu: OverlapMeasure) -> float:
    """Entropy plus energy of a pair-overlap measure; beta = inf allowed."""
    check_q(q)
    check_beta(beta)
    check_c(kappa, "kappa")
    if mu.q != q:
        raise ValueError(f"measure is on [{mu.q}]^2, expected [{q}]^2")
    y = -math.expm1(-beta)
    m = mu.mass
    nz = m[m > 0]
    entropy = -float(np.dot(nz, np.log(nz)))
    return entropy + 0.5 * kappa * math.log(
        1.0 - 2.0 * y / q + y * y * float((m * m).sum())
    )


def mu_kt(q: int, k: float, t: float) -> OverlapMeasure:
    """The row-structured family member for integer k.

    Non-integer k does not define a measure (k enters Phi2_kt as a real
    parameter only), so it is rejected here.
    """
    check_q(q)
    if not (0 <= t <= q):
        raise ValueError(f"t must lie in [0, {q}], got {t}")
    if not (0 <= k <= q):
        raise ValueError(f"k must lie in [0, {q}], got {k}")
    if abs(k - round(k)) > 1e-12:
        raise ValueError(
            f"mu_kt is a measure only for integer k (got {k}); "
            "use Phi2_kt directly for real k"
        )
    kk = int(round(k))
    mass = np.empty((q, q))
    mass[:kk, :] = 1.0 / q**2
    mass[kk:, 0] = t / q**2
    mass[kk:, 1:] = (q - t) / (q - 1.0) / q**2
    return OverlapMeasure(mass)


def _row_entropy(t, q: int):
    """E(t) = t ln t + (q-t) ln((q-t)/(q-1)), 0 ln 0 := 0; log1p keeps it accurate near t = 1."""
    rest = q - t
    return (t * np.log(np.where(t > 0, t, 1.0))
            + rest * np.log1p(np.where(rest > 0, (1.0 - t) / (q - 1.0), 0.0)))


def phi2_kt_gap(beta: float, c: float, q: int, k: float, t: float) -> float:
    """Phi2(beta, c, q, k, t) - 2 P(beta, c), computed without cancellation."""
    check_c(c)
    if not (0 <= t <= q) or not (0 <= k <= q):
        raise ValueError(f"(k, t) must lie in [0, {q}]^2, got ({k}, {t})")
    x = x_param(beta, q)
    energy = 0.5 * c * math.log1p(x * x * (q - k) * (t - 1.0) ** 2 / (q * (q - 1.0)))
    return energy - (q - k) * float(_row_entropy(t, q)) / q**2


def Phi2_kt(beta: float, c: float, q: int, k: float, t: float) -> float:
    """Closed-form phi2(mu_{k,t}); k may be real in [0, q]."""
    return 2.0 * annealed_pressure(beta, c, q) + phi2_kt_gap(beta, c, q, k, t)


def rescale(beta: float, q: int, c: float, k: float) -> tuple[float, float]:
    """Map (c, k) to the zero-temperature pair (C, K).

    With lambda = x^2 (q-1)^2 the identity

        lambda (Phi2(beta,c,q,k,t) - 2P(beta,c))
            = Phi2(inf, C, q, K, t) - 2P(inf, C)

    holds for every t; at beta = inf the map is the identity.
    """
    lam = rescale_multiplier(beta, q)
    check_c(c)
    if not 0 <= k <= q:
        raise ValueError(f"k must lie in [0, {q}], got {k}")
    return lam * c, q - lam * (q - k)


def rescale_multiplier(beta: float, q: int) -> float:
    """The exact overall multiplier x^2 (q-1)^2 of the rescaling identity."""
    return x_param(beta, q) ** 2 * (q - 1.0) ** 2


def zero_t_connectivity(beta: float, c: float, q: int) -> float:
    """Effective connectivity x^2 q^2 c gating the guaranteed t* = 1 region."""
    check_c(c)
    return x_param(beta, q) ** 2 * q * q * c


def in_guaranteed_region(beta: float, c: float, q: int) -> bool:
    """True when x^2 q^2 c <= 2 q ln q, where t* = 1 is guaranteed."""
    return zero_t_connectivity(beta, c, q) <= 2.0 * q * math.log(q)


def _profile(alpha, ent, c: float, q: int, top):
    """(argmax, max) over w in [0, top] of (c/2) ln(1 + alpha w) - w ent / q^2.

    Concave in w, so the argmax is c q^2 / (2 ent) - 1/alpha clipped to
    [0, top]; where alpha = ent = 0 every w ties and top is taken.
    """
    num, den = c * (q * q * alpha) - 2.0 * ent, 2.0 * ent * alpha
    ceiling = num >= top * den
    inside = (num > 0) & ~ceiling  # so 0 < num / den < top, up to rounding
    w = np.where(inside, np.minimum(num / np.where(inside, den, 1.0), top), ceiling * top)
    return w, 0.5 * c * np.log1p(alpha * w) - w * ent / (q * q)


def _cell_bounds(slope: float, c: float, q: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Upper bounds on the gap over the t-cells from lo to hi, rows (t, s, E) at each end.

    Each cell takes the smaller of two sound bounds on max (c/2) ln(1 + a u)
    - u E / q^2 over its t and u = q - k in [0, q], with a = slope s and s =
    (t-1)^2.  (i) Endpoints: a is at most slope max s and E at least its
    smaller end value (both convex), or 0 on a cell holding t = 1.  (ii)
    Taylor at t = 1: E(1) = E'(1) = 0, and E'' = 1/t + 1/(q-t) is smallest
    over the hull of the cell and t = 1 at f = min(max(hi, 1), q/2), so E >=
    s E''(f)/2 there, and the gap is bounded in w = s u <= q max s.
    """
    s_max = np.maximum(lo[1], hi[1])
    ent = np.where((lo[0] <= 1.0) & (hi[0] >= 1.0), 0.0, np.minimum(lo[2], hi[2]))
    flat = np.minimum(np.maximum(hi[0], 1.0), 0.5 * q)
    return np.minimum(_profile(slope * s_max, ent, c, q, float(q))[1],
                      _profile(slope, 0.5 / flat + 0.5 / (q - flat), c, q, q * s_max)[1])


def _certify(slope: float, c: float, q: int, edges: np.ndarray,
             s: np.ndarray, e: np.ndarray) -> bool:
    """Branch and bound over the t-cells between edges: True if gap <= CERTIFIED_TOL.

    s = (t-1)^2 and e = E(t) are given at the edges, as `_scan_grid` holds
    them.  Every cell is bounded by `_cell_bounds`; failing cells are
    bisected up to MAX_CELLS, and each child inherits (t, s, E) at the end
    it shares with its parent, so every round evaluates s and E at the new
    midpoints only.  Bound (i) on a cell clear of t = 1, and bound (ii) on
    one touching it (f = min(hi, q/2) there), are bit for bit the bounds of
    the certificate that gave only the touching cells the Taylor bound, so
    the failing cells are a subset of that certificate's, round by round.
    Past MAX_CELLS the answer is False, even where the maximum is <=
    CERTIFIED_TOL: at beta = inf that happens at q = 3 for c from 1.261883
    to 1.261901 times the x^2 q^2 c = 2 q ln q gate, and at q = 2 for c - 1
    from 6.32e-5 to 7.30e-5, just short of the maximum reaching 1e-9.
    """
    ends = np.array([edges, s, e])  # rows t, s, E at every cell end
    lo, hi, seen = ends[:, :-1], ends[:, 1:], 0
    while True:
        seen += lo.shape[1]
        if seen > MAX_CELLS:
            return False
        fail = (_cell_bounds(slope, c, q, lo, hi) > CERTIFIED_TOL).nonzero()[0]
        if not fail.size:
            return True
        lo, hi = lo.take(fail, axis=1), hi.take(fail, axis=1)
        t = 0.5 * (lo[0] + hi[0])
        mid = np.array([t, (t - 1.0) ** 2, _row_entropy(t, q)])
        lo, hi = np.concatenate([lo, mid], axis=1), np.concatenate([mid, hi], axis=1)


def _profile_slope(t: float, slope: float, c: float, q: int) -> float:
    """g'(t) = w* (c slope (t-1) / (1 + alpha w*) - E'(t) / q^2), by the envelope theorem.

    w* is `_profile`'s argmax and E'(t) = ln(t (q-1) / (q-t)), so g' is 0
    where w* = 0 and infinite at t = 0 and t = q.  A scalar twin of
    `_profile`: it only steers the root search, whose candidates
    `_profile` evaluates.
    """
    alpha, rest = slope * (t - 1.0) ** 2, q - t
    ent = ((t * math.log(t) if t > 0 else 0.0)
           + (rest * math.log1p((1.0 - t) / (q - 1.0)) if rest > 0 else 0.0))
    num, den = c * (q * q * alpha) - 2.0 * ent, 2.0 * ent * alpha
    w = float(q) if num >= q * den else min(num / den, q) if num > 0 else 0.0
    if w == 0.0:
        return 0.0
    d_ent = math.log(t * (q - 1.0) / rest) if 0 < t < q else math.copysign(math.inf, t - 1.0)
    return w * (c * slope * (t - 1.0) / (1.0 + alpha * w) - d_ent / (q * q))


def _close_bracket(near: float, f_near: float, far: float, f_far: float,
                   slope: float, c: float, q: int) -> tuple[float, float]:
    """Close a cell on which g rises from `near` onto a root of g', to a width <= 5e-14 q.

    f_near > 0 >= f_far are g' times the sign of far - near; either may be
    infinite, and then, or when the false-position point leaves the cell,
    the Illinois step is a bisection.  g' = 0 (w* = 0, g flat) counts as
    past the root.
    """
    sign, side = math.copysign(1.0, far - near), 0
    for _ in range(200):  # bisection alone needs at most 36 steps from q / 400
        if abs(far - near) <= 5e-14 * q:
            break
        m = 0.5 * (near + far)
        if 0.0 < f_near - f_far < math.inf:
            m_false = (far * f_near - near * f_far) / (f_near - f_far)
            m = m_false if min(near, far) < m_false < max(near, far) else m
        fm = sign * _profile_slope(m, slope, c, q)
        if fm > 0:
            near, f_near, f_far, side = m, fm, 0.5 * f_far if side > 0 else f_far, 1
        else:
            far, f_far, f_near, side = m, fm, 0.5 * f_near if side < 0 else f_near, -1
    return near, far


def _local_candidates(pts: np.ndarray, i: int, slope: float, c: float, q: int) -> list[float]:
    """The ends of the closed brackets on roots of g' beside pts[i], the
    candidates besides pts[i] itself.

    g rises into the neighbour cell on the side of g'(pts[i]); if g' keeps
    its sign over that cell, the far end is the candidate.  g' = 0 at the
    best point means t = 1, where g'' has the sign of c x^2 - 1: when that
    is positive, g rises into both cells and both are searched; otherwise
    there is no candidate.
    """
    t = float(pts[i])
    d = _profile_slope(t, slope, c, q)
    if d != 0.0:
        signs, f_near = [math.copysign(1.0, d)], abs(d)
    elif t == 1.0 and c * slope * q * (q - 1.0) > 1.0:
        signs, f_near = [-1.0, 1.0], math.inf
    else:
        return []
    cand = []
    for sign in signs:
        far = float(pts[i + int(sign)])
        f_far = sign * _profile_slope(far, slope, c, q)
        cand += [far] if f_far > 0 else _close_bracket(t, f_near, far, f_far, slope, c, q)
    return cand


@lru_cache(maxsize=16)
def _scan_grid(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan points ts (GRID_POINTS points of [0, q] plus t = 1), (ts-1)^2
    and E(ts), read-only: shared by every `optimize` call at this q."""
    ts = np.union1d(np.linspace(0.0, q, GRID_POINTS), [1.0])
    grid = ts, (ts - 1.0) ** 2, _row_entropy(ts, q)
    for a in grid:
        a.flags.writeable = False
    return grid


def optimize(beta: float, c: float, q: int) -> SecondMomentResult:
    """Maximize Phi2 - 2P over (k, t) in [0, q]^2.

    k is eliminated in closed form; the exact profile g(t) = max_k gap is
    scanned on GRID_POINTS points of [0, q] plus t = 1, whose (t-1)^2 and
    E(t) are computed once per q (`_scan_grid`).  Beside the best point, a
    bracketed root of the analytic g' is closed to a width of 5e-14 q
    (`_local_candidates`), and the best of that point, which keeps its scan
    values, and the bracket ends is returned.  Ties go to the lowest k,
    then the lowest t, so the symmetric zero gives t* = 1, k* = 0 exactly.
    certified proves (up to rounding) gap <= CERTIFIED_TOL on the whole
    square by branch and bound over t-cells, run only if max_gap is too.
    It starts from the scan's values, each cell inherits its end values,
    and each is bounded by the better of its endpoint bound and its Taylor
    bound at t = 1 (`_cell_bounds`).  certified=False with max_gap <=
    CERTIFIED_TOL means the proof ran past MAX_CELLS (see `_certify` for
    the bands where it does).
    Every field is a plain Python float or bool.
    """
    check_c(c)
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))

    def best(pts, u, g):
        i = int(np.lexsort((pts, -u, -g))[0])  # ties: largest u (lowest k), then lowest t
        return i, float(pts[i]), float(u[i]), float(g[i])

    ts, s, e = _scan_grid(q)
    i, t, u, g = best(ts, *_profile(slope * s, e, c, q, float(q)))
    ends = np.array(_local_candidates(ts, i, slope, c, q))
    if ends.size:
        u_end, g_end = _profile(slope * (ends - 1.0) ** 2, _row_entropy(ends, q), c, q, float(q))
        _, t, u, g = best(np.append(t, ends), np.append(u, u_end), np.append(g, g_end))
    certified = g <= CERTIFIED_TOL and _certify(slope, c, q, ts, s, e)
    return SecondMomentResult(t, float(q - u), g, bool(certified))


def ising_gap(beta: float, c: float, theta: float) -> float:
    """Linearized q = 2 bound: H-part plus (c/2) x^2 (2 theta - 1)^2.

    Upper-bounds phi2 - 2P via ln(1 + u) <= u applied to the exact energy
    term (c/2) ln(1 + x^2 (2 theta - 1)^2).  Its second theta-derivative at
    the symmetric point is 4 (c x^2 - 1), so theta = 1/2 goes unstable
    exactly on the beta_rs_loc(c, 2) boundary.
    """
    check_c(c)
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    x = x_param(beta, 2)
    ent = 0.0
    if theta > 0:
        ent -= theta * math.log(2.0 * theta)
    if theta < 1:
        ent -= (1.0 - theta) * math.log(2.0 * (1.0 - theta))
    return ent + 0.5 * c * x * x * (2.0 * theta - 1.0) ** 2

