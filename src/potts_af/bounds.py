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
c_ent(q) = 2 ln q / |ln(1 - 1/q)|.
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
    root find in beta_ent, which checks (c, q) once."""
    if beta == math.inf:
        return _pressure(beta, c, q, log_q)
    u = math.exp(-beta)
    return _pressure(beta, c, q, log_q) + 0.5 * beta * c * u / (q - 1.0 + u)


def beta_ent(c: float, q: int) -> float:
    """Root of the annealed entropy; inf when c <= c_ent(q).

    s_ann is ln q at beta = 0 and decreases (its beta-derivative is
    -beta * P'' <= 0 by convexity of P), crossing zero iff its beta -> inf
    limit ln q - (c/2)|ln(1 - 1/q)| is negative, i.e. iff c > c_ent(q).
    Bracketing scan with multiplicative steps, then bisection to 1e-10.
    """
    check_q(q)
    check_c(c)
    if c <= thresholds(q).c_ent:
        return math.inf
    log_q = math.log(q)
    lo = 0.0
    hi = 1e-3
    while _entropy(hi, c, q, log_q) > 0.0:
        lo = hi
        hi *= 1.5
        if hi > BETA_SCAN_MAX:
            raise RuntimeError(
                f"beta_ent root not bracketed below beta = {BETA_SCAN_MAX} "
                f"for c = {c}, q = {q}"
            )
    while hi - lo > ROOT_ATOL:
        mid = 0.5 * (lo + hi)
        if _entropy(mid, c, q, log_q) > 0.0:
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
