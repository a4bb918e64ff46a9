"""Deterministic Potts-model primitives on one coupling matrix.

The Hamiltonian over N sites with q colors and a nonnegative integer
coupling matrix J is

    H(sigma, J) = sum_{i,j} J_ij * delta(sigma_i, sigma_j),

summed over all ordered pairs including the diagonal (a self loop always
pays J_ii).  H does not change when the colours are permuted, so ln Z,
the pressure and the entropy are sums over the colour classes of [q]^N
(class_representatives: one restricted-growth string per class, with
its multiplicity), 2^(N-1) classes at q = 2 instead of 2^N
configurations.  Gibbs weights, energies in counting order and replica
expectations still enumerate all q^N configurations.  Either way the
q^N state-space size is held to DEFAULT_ENUM_BUDGET, read at call time,
which admits N <= 14 at q = 2 and N <= 9 at q = 3.

Configurations are indexed in mixed-radix counting order (site N-1 is the
fastest digit).  Colors are 0-based throughout: sigma_i in {0, .., q-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .util import (BudgetExceededError, check_beta, check_int, check_q, check_state,
                   log_factorial, logsumexp)

# q^N cap: admits 2^14 and 3^9, the stated per-q defaults.
DEFAULT_ENUM_BUDGET = 20_000


@dataclass(frozen=True)
class ModelParams:
    """Model triple (q, beta, c): colors, inverse temperature, connectivity."""

    q: int
    beta: float
    c: float

    def __post_init__(self):
        check_state(self.beta, self.c, self.q)


def as_couplings(J) -> np.ndarray:
    """Validate a coupling matrix: square, nonempty, finite and nonnegative."""
    arr = np.asarray(J)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("coupling matrix must be square")
    if arr.shape[0] == 0:
        raise ValueError("coupling matrix must have at least one site")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coupling matrix entries must be finite")
    if np.any(arr < 0):
        raise ValueError("coupling matrix entries must be >= 0")
    return arr


def as_replicas(replicas) -> np.ndarray:
    """Validate a replica bundle: R x N array of spin configurations."""
    arr = np.asarray(replicas, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("replica bundle must be a nonempty R x N array")
    return arr


def hamiltonian(sigma, J) -> float | int:
    """H(sigma, J) = sum_{ij} J_ij delta(sigma_i, sigma_j).

    Integer couplings give an exact integer result.
    """
    J = as_couplings(J)
    sig = np.asarray(sigma, dtype=np.int64)
    if sig.ndim != 1 or sig.shape[0] != J.shape[0]:
        raise ValueError(
            f"dimension mismatch: {sig.shape} spins vs {J.shape} couplings"
        )
    same = sig[:, None] == sig[None, :]
    total = J[same].sum()
    return int(total) if np.issubdtype(J.dtype, np.integer) else float(total)


def _check_finite_beta(name: str, beta: float) -> None:
    """check_beta, then ValueError at beta = inf, where `name` has no value."""
    check_beta(beta)
    if beta == math.inf:
        raise ValueError(f"{name} requires finite beta")


def _fits_budget(q: int, n: int) -> bool:
    """Whether q^n configurations fit DEFAULT_ENUM_BUDGET, for an int q >= 1.
    Past n ln q = ln DEFAULT_ENUM_BUDGET + 1 they do not, and q^n, slow to
    form at a huge n, is not formed."""
    return ((q == 1 or n <= (math.log(DEFAULT_ENUM_BUDGET) + 1.0) / math.log(q))
            and q**n <= DEFAULT_ENUM_BUDGET)


def _check_budget(q: int, n: int) -> int:
    """q^n, the number of configurations, after checking q and DEFAULT_ENUM_BUDGET.

    The power is taken on int(q): a numpy q ** n would wrap.
    """
    check_q(q, 1)
    q = int(q)
    if not _fits_budget(q, n):
        raise BudgetExceededError(f"enumerating q^N = {q}^{n} configurations exceeds "
                                  f"enumeration budget {DEFAULT_ENUM_BUDGET}")
    return q**n


def config_block(n: int, q: int, lo: int, hi: int) -> np.ndarray:
    """Configurations lo..hi-1 in counting order, shape (hi-lo, n)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((hi - lo, n), dtype=np.int8)
    for site in range(n - 1, -1, -1):
        digits[:, site] = idx % q
        idx //= q
    return digits


@lru_cache(maxsize=16)
def _site_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the pairs i < j in row order: read-only, shared per n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def config_energies(cfg: np.ndarray, J) -> np.ndarray:
    """H(sigma, J) per configuration row, folded: tr J + sum_{i<j} (J_ij + J_ji) delta.

    Integer couplings give exact (integer-valued) energies.
    """
    J = np.asarray(J)
    i, j = _site_pairs(J.shape[0])
    w = (J[i, j] + J[j, i]).astype(np.float64)
    live = np.flatnonzero(w)
    same = cfg[:, i[live]] == cfg[:, j[live]]
    return float(np.trace(J)) + same.astype(np.float64) @ w[live]


@lru_cache(maxsize=64)
def class_representatives(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, log multiplicity) of the colour-relabelling classes of [q]^n.

    H is invariant under color permutations, so a configuration sum runs
    over the restricted-growth strings (sigma_0 = 0, each sigma_i at most
    one above every earlier color); one using b colors stands for
    q!/(q-b)! configurations.  The strings are grown site by site, in
    lexicographic order, as int8 rows of shape (classes, n); q = 3 has
    122 classes at n = 6 (of 729).  Needs n >= 1 and q >= 1.
    """
    reps = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int64)  # highest color of each row so far
    for _ in range(n - 1):
        kids = np.minimum(top + 2, q)  # colors 0..top+1 may follow
        parent = np.repeat(np.arange(len(reps)), kids)
        color = np.arange(len(parent)) - np.repeat(np.cumsum(kids) - kids, kids)
        reps = np.column_stack([reps[parent], color.astype(np.int8)])
        top = np.maximum(top[parent], color)
    log_mult = log_factorial(q) - log_factorial(q - 1 - top)
    reps.flags.writeable = log_mult.flags.writeable = False  # shared by the cache
    return reps, log_mult


@lru_cache(maxsize=64)
def colour_classes(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(pair indicator, log multiplicity) of the colour classes of [q]^n, the
    disorder kernel's view of class_representatives: a float64 (classes,
    n(n-1)/2) matrix of delta(sigma_i, sigma_j) over the pairs i < j."""
    reps, log_mult = class_representatives(n, q)
    i, j = _site_pairs(n)
    indicator = (reps[:, i] == reps[:, j]).astype(np.float64)
    indicator.flags.writeable = False  # shared by the cache
    return indicator, log_mult


def all_energies(J, q: int) -> np.ndarray:
    """Energies of all q^N configurations, in counting order."""
    J = as_couplings(J)
    n = J.shape[0]
    return config_energies(config_block(n, q, 0, _check_budget(q, n)), J)


def _class_energies(J, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, log multiplicity, representative) per colour class of J.

    J and q are validated and the q^N budget is checked before any table
    is built.  H comes from config_energies over the live pairs of J, so
    no (classes, pairs) indicator is formed.
    """
    J = as_couplings(J)
    _check_budget(q, J.shape[0])
    reps, log_mult = class_representatives(J.shape[0], int(q))
    return config_energies(reps, J), log_mult, reps


def log_partition(J, beta: float, q: int) -> float:
    """ln Z(J) = ln sum_sigma exp(-beta H(sigma, J)), summed over the colour
    classes with their multiplicities.

    The sum is accumulated in log space against the running maximum, so
    beta up to ~50 does not underflow.  beta must be finite here; the
    beta = inf limit is only meaningful for entropy_density and for the
    balanced restricted counting in the disorder module.
    """
    _check_finite_beta("log_partition", beta)
    energies, log_mult, _ = _class_energies(J, q)
    return float(logsumexp(log_mult - beta * energies))


def pressure_density(J, beta: float, q: int) -> float:
    """Finite-volume pressure ln Z / N."""
    return log_partition(J, beta, q) / np.shape(J)[0]


def gibbs_weights(J, beta: float, q: int) -> np.ndarray:
    """Boltzmann-Gibbs probabilities of all q^N configurations."""
    _check_finite_beta("gibbs_weights", beta)
    energies = all_energies(J, q)
    w = -beta * energies
    w -= w.max()
    w = np.exp(w)
    return w / w.sum()


def entropy_density(J, beta: float, q: int) -> float:
    """Gibbs entropy per site, -(1/N) sum_sigma w(sigma) ln w(sigma), summed
    over the colour classes with their multiplicities.

    Always >= 0.  At beta = inf the Gibbs measure is uniform on the
    minimum-energy configurations, so the entropy is ln(#ground states)/N;
    the count sums the integer multiplicities q!/(q-b)! of the
    minimum-energy classes, exactly.
    """
    check_beta(beta)
    energies, log_mult, reps = _class_energies(J, q)
    n = reps.shape[1]
    emin = energies.min()
    if beta == math.inf:
        # ground classes by colors used, b - 1 = the highest color
        per_b = np.bincount(reps.max(axis=1)[energies == emin], minlength=q)
        ground = sum(int(k) * math.perm(q, b + 1) for b, k in enumerate(per_b))
        return math.log(ground) / n
    shifted = -beta * (energies - emin)
    logz_shifted = float(logsumexp(shifted + log_mult))
    w = np.exp(shifted + log_mult - logz_shifted)
    mean_shifted = float(np.dot(w, shifted))
    # s = beta*<E> + ln Z, written against the shifted energies so that the
    # two large terms cancel exactly in exact arithmetic.
    return (logz_shifted - mean_shifted) / n


def empirical_measure(replicas, s) -> float:
    """R-replica empirical measure rho(s) = (1/N) sum_i prod_r delta(sigma_i^r, s_r)."""
    bundle = as_replicas(replicas)
    pattern = np.asarray(s, dtype=np.int64)
    if pattern.ndim != 1 or pattern.shape[0] != bundle.shape[0]:
        raise ValueError(
            f"pattern length {pattern.shape} does not match replica count {bundle.shape[0]}"
        )
    hits = np.all(bundle == pattern[:, None], axis=0)
    return float(hits.mean())


def gibbs_replica_expectation(J, beta: float, q: int, n_replicas: int, f) -> float:
    """<f> under the R-fold product Gibbs measure, by full enumeration.

    f maps an (R, N) replica bundle to a real.  The product state space has
    q^(N*R) terms and is held to DEFAULT_ENUM_BUDGET; pass a factorized f
    through R = 1 calls when that blows up.
    """
    J = as_couplings(J)
    n = J.shape[0]
    check_int("n_replicas", n_replicas)
    _check_budget(q, n * n_replicas)
    w = gibbs_weights(J, beta, q)
    n_states = len(w)
    configs = config_block(n, q, 0, n_states)
    total = 0.0
    for combo in product(range(n_states), repeat=n_replicas):
        rows = list(combo)
        total += np.prod(w[rows]) * f(configs[rows, :])
    return total
