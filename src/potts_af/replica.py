"""Two-level replica-symmetric ansatz: g1, g2, the RS bound, instability.

With x = x(beta, q) and a symmetry-breaking strength t in
[-1/(q-1), 1], the two corrections to the annealed decomposition are

    g2(t) = (c/2q) [ (q-1) ln(1 + x t^2) + ln(1 - (q-1) x t^2) ],

    g1(t) = sum_k pi_c(k) E_tau ln( (1/q) sum_s prod_i (1 - x t (q d(tau_i, s) - 1)) ),

where the tau_i are k iid uniform colors and pi_c is Poisson(c).  The
inner expectation collapses to color counts: with n_s slots of color s the
product is A^{n_s} B^{k - n_s} for A = 1 - (q-1) x t, B = 1 + x t, so the
tau average is an exact sum over (k + q - 1 choose q - 1) count profiles
with multinomial weights.  The Poisson k-sum is truncated with a certified
tail using |ln W| <= k max(|ln A|, |ln B|).  The same profile sum at a
cascade level m, (1/m) ln E_tau[W^m], gives the RSB functionals in the
cascade module (profile_sum).

Both corrections vanish at t = 0; their t^4 coefficients are
-(1/4)(q-1) c^2 x^4 and -(1/4)(q-1) c x^2, so the symmetric point goes
locally unstable exactly when c x^2 > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp

from .bounds import annealed_pressure, x_param
from .util import compositions, poisson_cutoff, poisson_pmf_vector, poisson_sf

K_SUM_CAP = 2000  # hard cap on the Poisson truncation order


@dataclass(frozen=True)
class RsEvaluation:
    """One evaluation of the RS bound at fixed (beta, c, q, t)."""

    g1: float
    g2: float
    gap: float
    rs_bound: float
    k_truncation: int
    tail_bound: float


def _check_t(t: float, q: int) -> None:
    if not (-1.0 / (q - 1) <= t <= 1.0):
        raise ValueError(f"t = {t} outside ansatz domain [-1/(q-1), 1] for q = {q}")


def g2(beta: float, c: float, q: int, t: float) -> float:
    _check_t(t, q)
    x = x_param(beta, q)
    hi = 1.0 + x * t * t
    lo = 1.0 - (q - 1) * x * t * t
    if lo <= 0.0 or hi <= 0.0:
        raise ValueError(f"log argument nonpositive at beta={beta}, q={q}, t={t}")
    return 0.5 * c / q * ((q - 1) * math.log(hi) + math.log(lo))


@lru_cache(maxsize=512)
def _composition_table(k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Color-count profiles of k uniform slots with their log-probabilities."""
    counts = np.array(list(compositions(k, q)), dtype=np.int64)
    logw = (
        gammaln(k + 1)
        - gammaln(counts + 1.0).sum(axis=1)
        - k * math.log(q)
    )
    return counts, logw


def factor_logs(beta: float, q: int, t: float) -> tuple[float, float, float]:
    """(ln A, ln B, max |ln|) for the g1 factors A = 1 - (q-1) x t, B = 1 + x t."""
    _check_t(t, q)
    x = x_param(beta, q)
    a = 1.0 - (q - 1) * x * t
    b = 1.0 + x * t
    if a <= 0.0 or b <= 0.0:
        raise ValueError(
            f"degenerate product factor at x={x}, t={t}, q={q} (requires beta < inf)"
        )
    return math.log(a), math.log(b), max(abs(math.log(a)), abs(math.log(b)))


def profile_sum(c: float, q: int, log_a: float, log_b: float, m: float, mag: float,
                eps: float) -> tuple[float, float, int]:
    """sum_k pi_c(k) (1/m) ln E_tau[W_k^m] with a certified Poisson tail.

    W_k = (1/q) sum_s A^{n_s} B^{k-n_s} over k iid uniform colors, and m = 0
    stands for the limit E_tau[ln W_k].  `mag` bounds |ln A| and |ln B|, so
    every k-term is at most k mag in size.  Returns (value, tail, k_max):
    tail = mag c P(K >= k_max) bounds the dropped k > k_max terms.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if c == 0.0 or mag == 0.0:
        return 0.0, 0.0, 0  # W_k = 1 for every profile that carries weight
    k_tail = lambda k: mag * c * poisson_sf(k, c)
    k_max = poisson_cutoff(k_tail, eps, K_SUM_CAP)
    pmf = poisson_pmf_vector(k_max, c)
    total = 0.0
    for k in range(k_max + 1):
        counts, logw = _composition_table(k, q)
        # ln W per color-count profile, against its largest term
        log_terms = counts * log_a + (k - counts) * log_b
        top = log_terms.max(axis=1, keepdims=True) if k > 0 else np.zeros((len(counts), 1))
        log_w = top[:, 0] + np.log(np.exp(log_terms - top).sum(axis=1)) - math.log(q)
        if m == 0.0:
            total += pmf[k] * float(np.exp(logw) @ log_w)
        else:
            total += pmf[k] * float(logsumexp(logw + m * log_w)) / m
    return total, k_tail(k_max), k_max


def g1(beta: float, c: float, q: int, t: float, eps: float = 1e-10) -> tuple[float, float]:
    """Exact-in-tau evaluation of g1 (profile_sum at m = 0) with a certified
    Poisson tail.

    Returns (value, tail) where tail bounds the dropped k > k_max mass.
    """
    log_a, log_b, mag = factor_logs(beta, q, t)
    value, tail, _ = profile_sum(c, q, log_a, log_b, 0.0, mag, eps)
    return value, tail


def rs_bound(beta: float, c: float, q: int, t: float, eps: float = 1e-10) -> RsEvaluation:
    """Assemble P(beta, c) + g1 - g2; equals P exactly at t = 0."""
    pressure = annealed_pressure(beta, c, q)
    if t == 0.0:
        return RsEvaluation(g1=0.0, g2=0.0, gap=0.0, rs_bound=pressure,
                            k_truncation=0, tail_bound=0.0)
    log_a, log_b, mag = factor_logs(beta, q, t)
    val1, tail, k_max = profile_sum(c, q, log_a, log_b, 0.0, mag, eps)
    val2 = g2(beta, c, q, t)
    gap = val1 - val2
    return RsEvaluation(g1=val1, g2=val2, gap=gap, rs_bound=pressure + gap,
                        k_truncation=k_max, tail_bound=tail)


def instability(beta: float, c: float, q: int) -> bool:
    """True iff c x(beta, q)^2 > 1: the symmetric RS point is locally unstable."""
    if not c >= 0:
        raise ValueError("c must be >= 0")
    return c * x_param(beta, q) ** 2 > 1.0


def t_grid(q: int, points: int = 201) -> np.ndarray:
    """Uniform scan grid on the ansatz domain [-1/(q-1), 1]."""
    if q < 2 or points < 1:
        raise ValueError(f"need q >= 2 and at least one t point, got q={q}, points={points}")
    return np.linspace(-1.0 / (q - 1), 1.0, points)


def scan_rs_bound(beta: float, c: float, q: int, points: int = 201,
                  eps: float = 1e-10) -> tuple[np.ndarray, list[RsEvaluation]]:
    ts = t_grid(q, points)
    return ts, [rs_bound(beta, c, q, float(t), eps) for t in ts]


def quartic_coefficients(beta: float, c: float, q: int, h: float = 0.05,
                         eps: float = 1e-12) -> tuple[float, float, float, float]:
    """Extract the t^4 coefficients of g1 and g2 and their reference values.

    Even five-point stencil: with gh = (g(h) + g(-h))/2, the combination
    (gh(2h) - 4 gh(h)) / (12 h^4) kills the t^2 term and leaves the quartic
    coefficient with an O(h^2) error; one Richardson level in h removes
    that.  References are the closed forms -(1/4)(q-1) c^2 x^4 and
    -(1/4)(q-1) c x^2.
    """
    if eps > 1e-10:
        raise ValueError("quartic extraction requires g1 eps <= 1e-10")
    x = x_param(beta, q)
    ref1 = -0.25 * (q - 1) * c * c * x**4
    ref2 = -0.25 * (q - 1) * c * x**2
    if x == 0.0 or c == 0.0:
        return 0.0, 0.0, 0.0, 0.0

    def even_g1(tt: float) -> float:
        return 0.5 * (g1(beta, c, q, tt, eps)[0] + g1(beta, c, q, -tt, eps)[0])

    def even_g2(tt: float) -> float:
        return 0.5 * (g2(beta, c, q, tt) + g2(beta, c, q, -tt))

    def quartic(even_fn) -> float:
        def stencil(hh: float) -> float:
            return (even_fn(2 * hh) - 4.0 * even_fn(hh)) / (12.0 * hh**4)

        return (4.0 * stencil(h / 2) - stencil(h)) / 3.0

    return quartic(even_g1), quartic(even_g2), ref1, ref2
