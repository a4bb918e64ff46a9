"""Deterministic Potts-model primitives by exact enumeration.

The Hamiltonian over N sites with q colors and a nonnegative integer
coupling matrix J is

    H(sigma, J) = sum_{i,j} J_ij * delta(sigma_i, sigma_j),

summed over all ordered pairs including the diagonal (a self loop always
pays J_ii).  Everything here enumerates the q^N configuration space
exactly: partition function, Gibbs weights and entropy, replica
expectations.  State-space size is guarded by an explicit budget; the
default admits N <= 14 at q = 2 and N <= 9 at q = 3.

Configurations are indexed in mixed-radix counting order (site N-1 is the
fastest digit).  Colors are 0-based throughout: sigma_i in {0, .., q-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .util import BudgetExceededError, log_factorial, logsumexp

# q^N cap: admits 2^14 and 3^9, the stated per-q defaults.
DEFAULT_ENUM_BUDGET = 20_000


@dataclass(frozen=True)
class ModelParams:
    """Model triple (q, beta, c): colors, inverse temperature, connectivity."""

    q: int
    beta: float
    c: float

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (0.0 <= self.c < math.inf):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")


def as_couplings(J) -> np.ndarray:
    arr = np.asarray(J)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("coupling matrix must be square")
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


def _check_budget(n_states: int, max_configs: int) -> None:
    if n_states > max_configs:
        raise BudgetExceededError(
            f"enumerating {n_states} configurations exceeds budget {max_configs}"
        )


def config_block(n: int, q: int, lo: int, hi: int) -> np.ndarray:
    """Configurations lo..hi-1 in counting order, shape (hi-lo, n)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((hi - lo, n), dtype=np.int8)
    for site in range(n - 1, -1, -1):
        digits[:, site] = idx % q
        idx //= q
    return digits


def config_energies(cfg: np.ndarray, J) -> np.ndarray:
    """H(sigma, J) per configuration row, folded: tr J + sum_{i<j} (J_ij + J_ji) delta.

    Integer couplings give exact (integer-valued) energies.
    """
    J = np.asarray(J)
    i, j = np.triu_indices(J.shape[0], 1)
    w = (J[i, j] + J[j, i]).astype(np.float64)
    live = np.flatnonzero(w)
    same = cfg[:, i[live]] == cfg[:, j[live]]
    return float(np.trace(J)) + same.astype(np.float64) @ w[live]


@lru_cache(maxsize=64)
def colour_classes(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(pair indicator, log multiplicity) of the color-relabelling classes of [q]^n.

    H is invariant under color permutations, so a configuration sum runs
    over the restricted-growth strings (sigma_0 = 0, each sigma_i at most
    one above every earlier color); one using b colors stands for
    q!/(q-b)! configurations.  q = 3 has 122 classes at n = 6 (of 729).
    """
    cfg = config_block(n, q, 0, q**n)
    top = np.maximum.accumulate(cfg, axis=1)
    reps = cfg[(cfg[:, 0] == 0) & np.all(cfg[:, 1:] <= top[:, :-1] + 1, axis=1)]
    i, j = np.triu_indices(n, 1)
    indicator = (reps[:, i] == reps[:, j]).astype(np.float64)  # (classes, n(n-1)/2)
    log_mult = log_factorial(q) - log_factorial(q - 1 - reps.max(axis=1))
    indicator.flags.writeable = log_mult.flags.writeable = False  # shared by the cache
    return indicator, log_mult


def all_energies(J, q: int, max_configs: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Energies of all q^N configurations, in counting order."""
    J = as_couplings(J)
    n = J.shape[0]
    _check_budget(q**n, max_configs)
    return config_energies(config_block(n, q, 0, q**n), J)


def log_partition(J, beta: float, q: int,
                  max_configs: int = DEFAULT_ENUM_BUDGET) -> float:
    """ln Z(J) = ln sum_sigma exp(-beta H(sigma, J)), exhaustive.

    The sum is accumulated in log space against the running maximum, so
    beta up to ~50 does not underflow.  beta must be finite here; the
    beta = inf limit is only meaningful for entropy_density and for the
    balanced restricted counting in the disorder module.
    """
    if not (0.0 <= beta < math.inf):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    energies = all_energies(J, q, max_configs)
    return float(logsumexp(-beta * energies))


def pressure_density(J, beta: float, q: int,
                     max_configs: int = DEFAULT_ENUM_BUDGET) -> float:
    """Finite-volume pressure ln Z / N."""
    J = as_couplings(J)
    return log_partition(J, beta, q, max_configs) / J.shape[0]


def gibbs_weights(J, beta: float, q: int,
                  max_configs: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Boltzmann-Gibbs probabilities of all q^N configurations."""
    if not (0.0 <= beta < math.inf):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    energies = all_energies(J, q, max_configs)
    w = -beta * energies
    w -= w.max()
    w = np.exp(w)
    return w / w.sum()


def entropy_density(J, beta: float, q: int,
                    max_configs: int = DEFAULT_ENUM_BUDGET) -> float:
    """Gibbs entropy per site, -(1/N) sum_sigma w(sigma) ln w(sigma).

    Always >= 0.  At beta = inf the Gibbs measure is uniform on the
    minimum-energy configurations, so the entropy is ln(#ground states)/N.
    """
    J = as_couplings(J)
    n = J.shape[0]
    energies = all_energies(J, q, max_configs)
    if beta == math.inf:
        emin = energies.min()
        return math.log(int((energies == emin).sum())) / n
    shifted = -beta * (energies - energies.min())
    logz_shifted = float(logsumexp(shifted))
    w = np.exp(shifted - logz_shifted)
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


def gibbs_replica_expectation(J, beta: float, q: int, n_replicas: int, f,
                              max_configs: int = DEFAULT_ENUM_BUDGET) -> float:
    """<f> under the R-fold product Gibbs measure, by full enumeration.

    f maps an (R, N) replica bundle to a real.  The product state space has
    q^(N*R) terms and is budget-guarded; pass a factorized f through R = 1
    calls when that blows up.
    """
    J = as_couplings(J)
    n = J.shape[0]
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    _check_budget(q ** (n * n_replicas), max_configs)
    w = gibbs_weights(J, beta, q, max_configs)
    n_states = q**n
    configs = config_block(n, q, 0, n_states)
    total = 0.0
    for combo in product(range(n_states), repeat=n_replicas):
        rows = list(combo)
        total += np.prod(w[rows]) * f(configs[rows, :])
    return total
