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
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import annealed_pressure, beta_1, beta_rs_loc, x_param

CERTIFIED_TOL = 1e-9
GRID_POINTS = 401
ZOOM_STEPS = 64  # zoom points on each side of the best point; the bracket shrinks 64x a round
MAX_CELLS = 1 << 14  # cap on t-cells examined by one certification


@dataclass(frozen=True)
class OverlapMeasure:
    """Probability mass function on [q]^2, stored as a q x q array."""

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap measure must be a square array")
        if np.any(m < -1e-15):
            raise ValueError("overlap measure entries must be >= 0")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValueError("overlap measure must sum to 1")
        object.__setattr__(self, "mass", m)

    @property
    def q(self) -> int:
        return self.mass.shape[0]

    def has_uniform_marginals(self, tol: float = 1e-12) -> bool:
        """Membership test for the doubly balanced class M_*([q]^2)."""
        target = 1.0 / self.q
        return bool(
            np.all(np.abs(self.mass.sum(axis=0) - target) <= tol)
            and np.all(np.abs(self.mass.sum(axis=1) - target) <= tol)
        )


@dataclass(frozen=True)
class SecondMomentResult:
    t_star: float
    k_star: float
    max_gap: float
    certified: bool


def uniform_overlap(q: int) -> OverlapMeasure:
    return OverlapMeasure(np.full((q, q), 1.0 / q**2))


def _y(beta: float) -> float:
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    return 1.0 if beta == math.inf else -math.expm1(-beta)


def phi2(beta: float, kappa: float, q: int, mu: OverlapMeasure) -> float:
    """Entropy plus energy of a pair-overlap measure; beta = inf allowed."""
    if mu.q != q:
        raise ValueError(f"measure is on [{mu.q}]^2, expected [{q}]^2")
    y = _y(beta)
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


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and >= 0, got {c}")


def _row_entropy(t, q: int):
    """E(t) = t ln t + (q-t) ln((q-t)/(q-1)), 0 ln 0 := 0; log1p keeps it accurate near t = 1."""
    rest = q - t
    return (t * np.log(np.where(t > 0, t, 1.0))
            + rest * np.log1p(np.where(rest > 0, (1.0 - t) / (q - 1.0), 0.0)))


def phi2_kt_gap(beta: float, c: float, q: int, k: float, t: float) -> float:
    """Phi2(beta, c, q, k, t) - 2 P(beta, c), computed without cancellation."""
    _check_c(c)
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
    return lam * c, q - lam * (q - k)


def rescale_multiplier(beta: float, q: int) -> float:
    """The exact overall multiplier x^2 (q-1)^2 of the rescaling identity."""
    return x_param(beta, q) ** 2 * (q - 1.0) ** 2


def zero_t_connectivity(beta: float, c: float, q: int) -> float:
    """Effective connectivity x^2 q^2 c gating the guaranteed t* = 1 region."""
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


def _certify(slope: float, c: float, q: int, edges: np.ndarray) -> bool:
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


def optimize(beta: float, c: float, q: int,
             grid_points: int = GRID_POINTS) -> SecondMomentResult:
    """Maximize Phi2 - 2P over (k, t) in [0, q]^2.

    k is eliminated in closed form; the exact profile g(t) = max_k gap is
    scanned on grid_points points of [0, q] plus t = 1, then zoomed around
    the best point to a bracket below 1e-13 q.  Ties go to the lowest k,
    then the lowest t, so the symmetric zero gives t* = 1, k* = 0 exactly.
    certified proves (up to rounding) gap <= CERTIFIED_TOL on the whole
    square by branch and bound over t-cells, run only if max_gap is too.
    """
    _check_c(c)
    if not (isinstance(grid_points, numbers.Integral) and grid_points >= 2):
        raise ValueError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    slope = x_param(beta, q) ** 2 / (q * (q - 1.0))
    ts = np.union1d(np.linspace(0.0, q, grid_points), [1.0])
    pts, h = ts, q / (grid_points - 1)
    steps = np.arange(-ZOOM_STEPS, ZOOM_STEPS + 1) / ZOOM_STEPS
    while True:
        u, g = _profile(slope * (pts - 1.0) ** 2, _row_entropy(pts, q), c, q, float(q))
        i = int(np.lexsort((pts, -u, -g))[0])  # ties: largest u (lowest k), then lowest t
        if h <= 5e-14 * q:
            break
        pts, h = np.clip(pts[i] + h * steps, 0.0, q), h / ZOOM_STEPS  # keeps pts[i] exactly
    certified = g[i] <= CERTIFIED_TOL and _certify(slope, c, q, ts)
    return SecondMomentResult(float(pts[i]), q - float(u[i]), float(g[i]), bool(certified))


def ising_gap(beta: float, c: float, theta: float) -> float:
    """Linearized q = 2 bound: H-part plus (c/2) x^2 (2 theta - 1)^2.

    Upper-bounds phi2 - 2P via ln(1 + u) <= u applied to the exact energy
    term (c/2) ln(1 + x^2 (2 theta - 1)^2).  Its second theta-derivative at
    the symmetric point is 4 (c x^2 - 1), so theta = 1/2 goes unstable
    exactly on the beta_rs_loc(c, 2) boundary.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    x = x_param(beta, 2)
    ent = 0.0
    if theta > 0:
        ent -= theta * math.log(2.0 * theta)
    if theta < 1:
        ent -= (1.0 - theta) * math.log(2.0 * (1.0 - theta))
    return ent + 0.5 * c * x * x * (2.0 * theta - 1.0) ** 2


def beta_star_certified(c: float, q: int) -> float:
    """Certified annealed-region boundary: exact for q = 2, a lower bound else."""
    if q == 2:
        return beta_rs_loc(c, 2)
    return beta_1(c, q)
