"""Closed-form phase boundaries of the antiferromagnetic Potts model.

Everything here is an explicit function of (beta, c, q): the annealed
pressure, the temperature parameter x, the three connectivity thresholds,
the beta-boundary curves, and a region classifier.  Inverse temperature
beta = math.inf is a legitimate value for all curves (several take the
value infinity on whole parameter ranges), so plain float infinity is used
throughout; e^-inf = 0 gives the formulas their beta = inf values exactly,
and only the entropy (beta e^-beta = inf * 0 there) takes its limit.
Arguments follow util's rules: q an integer >= 2, beta >= 0, c finite.

Sign convention for the entropy curve: the per-site Gibbs entropy is
s = p - beta * dp/dbeta (so s = ln q at beta = 0).  Applied to the
annealed pressure this gives

    s_ann(beta, c) = P(beta, c) + (beta c / 2) e^-beta / (q - 1 + e^-beta),

and beta_ent is the unique root of s_ann, finite exactly when c exceeds
c_ent(q) = 2 ln q / |ln(1 - 1/q)|.  Its value is the midpoint of a fixed
scan and bisection on the computed sign of s_ann; a certified bracket
fixes that sign outside a narrow interval, so only points inside it
evaluate s_ann.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .util import check_beta, check_c, check_q, check_state

ROOT_ATOL = 1e-10  # absolute tolerance for every root find in this module
BETA_SCAN_MAX = 500.0

LABEL_ANNEALED = "annealed-certified"
LABEL_UNKNOWN = "gap-unknown"
LABEL_NON_ANNEALED = "non-annealed"


@dataclass(frozen=True)
class PhaseThresholds:
    """Connectivity thresholds c_RS^loc = (q-1)^2, c_ent, c_1 = 2q ln q."""

    c_rs_loc: float
    c_ent: float
    c_1: float


@dataclass(frozen=True)
class PhaseRegion:
    """Classifier output: label plus the bracketing temperatures.

    beta_lower <= beta_upper holds wherever the underlying curve formulas
    are mutually consistent (always at q = 2); see classify().
    """

    label: str
    beta_lower: float
    beta_upper: float


def annealed_pressure(beta: float, c: float, q: int) -> float:
    """P(beta, c) = ln q + (c/2) ln(1 - (1 - e^-beta)/q).  beta = inf allowed."""
    check_state(beta, c, q)
    return _pressure(beta, c, q, math.log(q))


def _pressure(beta: float, c: float, q: int, log_q: float) -> float:
    """annealed_pressure without its checks, given ln q."""
    y = -math.expm1(-beta)
    return log_q + 0.5 * c * math.log1p(-y / q)


def x_param(beta: float, q: int) -> float:
    """x(beta, q) = (1 - e^-beta)/(q - 1 + e^-beta), in [0, 1/(q-1)]."""
    check_q(q)
    check_beta(beta)
    u = math.exp(-beta)
    return (1.0 - u) / (q - 1.0 + u)


def thresholds(q: int) -> PhaseThresholds:
    check_q(q)
    return PhaseThresholds(
        c_rs_loc=float((q - 1) ** 2),
        c_ent=2.0 * math.log(q) / abs(math.log1p(-1.0 / q)),
        c_1=2.0 * q * math.log(q),
    )


def beta_rs_loc(c: float, q: int) -> float:
    """Local-instability boundary: inf for c <= (q-1)^2, else -ln(1 - q/(1+sqrt(c)))."""
    check_q(q)
    check_c(c)
    if c <= (q - 1) ** 2:
        return math.inf
    return -math.log1p(-q / (1.0 + math.sqrt(c)))


def beta_1(c: float, q: int) -> float:
    """Certified annealed boundary from the second-moment method.

    For q = 2 this collapses onto beta_rs_loc(c, 2); for q > 2 it is inf
    up to c_1(q) = 2q ln q and the displayed closed form beyond.
    """
    check_q(q)
    check_c(c)
    if q == 2:
        return beta_rs_loc(c, 2)
    if c <= 2.0 * q * math.log(q):
        return math.inf
    return -math.log1p(-q / (q - 1.0 + math.sqrt(c / (2.0 * q * math.log(q)))))


def annealed_entropy(beta: float, c: float, q: int) -> float:
    """Entropy of the annealed pressure, s_ann = P - beta dP/dbeta."""
    check_state(beta, c, q)
    return _entropy(beta, c, q, math.log(q))


def _entropy(beta: float, c: float, q: int, log_q: float) -> float:
    """annealed_entropy without its checks, given ln q: the kernel of the
    root find in beta_ent, which checks (c, q) once.  At finite beta its
    rounding is below 4 eps (ln q + c), eps = 2^-52, with each libm call
    within one ulp: no term exceeds ln q or c/2 in size."""
    if beta == math.inf:
        return _pressure(beta, c, q, log_q)
    u = math.exp(-beta)
    return _pressure(beta, c, q, log_q) + 0.5 * beta * c * u / (q - 1.0 + u)


def _entropy_bracket(c: float, q: int, log_q: float, rho: float) -> tuple[float, float]:
    """Ends lo < hi around the root of s_ann, for c > c_ent(q), rho = |ln(1 - 1/q)|.

    _entropy reads above delta = 64 eps (ln q + c) at lo and below -delta
    at hi; as delta exceeds twice its rounding and s_ann decreases, it is
    positive at every beta <= lo and negative at every beta >= hi.  An end
    that misses delta (flat roots just above c_ent) stays open: 0 or inf.
    The root comes from Newton steps on ln d, d = 2 (s_ann - s_ann(inf)) / c
    = ln(1 + u/k) + beta u / (k + u), u = e^-beta, k = q - 1, which is
    concave in beta; they start near the roots of its small- and large-beta
    forms d(0) - beta^2 k / (2 q^2) and (1 + beta) u / k.
    """
    k = q - 1.0
    t = rho - 2.0 * log_q / c  # d at the root
    if not t > 0.0:
        return 0.0, math.inf
    a = -math.log(k * t)  # > 0, as k rho < 1
    beta = math.hypot(a + math.log1p(a), q * math.sqrt(4.0 * log_q / (c * k)))
    for _ in range(40):
        u = math.exp(-beta)
        v = k + u
        d = math.log1p(u / k) + beta * u / v
        step = math.log(d / t) * d * v * v / (beta * u * k)
        beta = min(max(beta + step, 0.5 * beta), BETA_SCAN_MAX)
        if abs(step) <= 1e-7 * beta:
            break
    delta = 64.0 * math.ulp(1.0) * (log_q + c)
    width = 4.0 * delta * v * v / (c * beta * u * k)  # 2 delta / |ds_ann/dbeta|
    lo, hi = beta - width, beta + width
    if not (lo > 0.0 and _entropy(lo, c, q, log_q) > delta):
        lo = 0.0
    if not _entropy(hi, c, q, log_q) < -delta:
        hi = math.inf
    return lo, hi


def beta_ent(c: float, q: int) -> float:
    """Root of the annealed entropy; inf when c <= c_ent(q) or its computed
    beta -> inf limit is >= 0.

    s_ann is ln q at beta = 0 and decreases (its beta-derivative is
    -beta * P'' <= 0 by convexity of P), crossing zero iff its beta -> inf
    limit ln q - (c/2)|ln(1 - 1/q)| is negative, i.e. iff c > c_ent(q).
    Returns the midpoint of a scan from beta = 1e-3 in x1.5 steps and a
    bisection to width ROOT_ATOL on the sign of _entropy, replayed float for
    float: the sign is read off `_entropy_bracket` outside (lo, hi) and
    evaluated only inside, so about 6 evaluations give the float of 50.
    """
    check_q(q)
    check_c(c)
    log_q = math.log(q)
    rho = -math.log1p(-1.0 / q)
    # c_ent(q), as thresholds computes it, misses the exact threshold by a
    # few ulps: past it the computed beta -> inf limit of s_ann, the
    # pressure there, can still read >= 0
    if c <= 2.0 * log_q / rho or _pressure(math.inf, c, q, log_q) >= 0.0:
        return math.inf
    sure_lo, sure_hi = _entropy_bracket(c, q, log_q, rho)
    lo = 0.0
    hi = 1e-3
    while hi <= sure_lo or (hi < sure_hi and _entropy(hi, c, q, log_q) > 0.0):
        lo = hi
        hi *= 1.5
        if hi > BETA_SCAN_MAX:
            raise RuntimeError(
                f"beta_ent root not bracketed below beta = {BETA_SCAN_MAX} "
                f"for c = {c}, q = {q}"
            )
    while hi - lo > ROOT_ATOL:
        mid = 0.5 * (lo + hi)
        if mid <= sure_lo or (mid < sure_hi and _entropy(mid, c, q, log_q) > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify(beta: float, c: float, q: int) -> PhaseRegion:
    """Place (beta, c, q) relative to the certified brackets.

    beta <= beta_1         -> annealed-certified (p = P there),
    beta >  min(beta_rs_loc, beta_ent) -> non-annealed (p < P there),
    otherwise gap-unknown.  The first clause wins when the two brackets
    overlap, which can happen for q > 2 where the lower curve is not
    comparable to the upper ones.
    """
    check_beta(beta)
    lower = beta_1(c, q)
    upper = min(beta_rs_loc(c, q), beta_ent(c, q))
    if beta <= lower:
        label = LABEL_ANNEALED
    elif beta > upper:
        label = LABEL_NON_ANNEALED
    else:
        label = LABEL_UNKNOWN
    return PhaseRegion(label=label, beta_lower=lower, beta_upper=upper)
