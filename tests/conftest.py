from __future__ import annotations

import pytest

from potts_af.disorder import QuenchedEstimate, quenched_pressure_exact
from potts_af.model import ModelParams


@pytest.fixture(scope="session")
def pressure_cache():
    """Memoized quenched pressures shared across tests and acceptance runs."""
    cache: dict[tuple, QuenchedEstimate] = {}

    def get(q: int, beta: float, c: float, n: int, eps: float = 2e-4) -> QuenchedEstimate:
        key = (q, beta, c, n, eps)
        if key not in cache:
            cache[key] = quenched_pressure_exact(
                ModelParams(q=q, beta=beta, c=c), n, eps=eps,
                seed=hash(key) % (2**32), mc_samples=2048,
            )
        return cache[key]

    return get


def combined_error(*estimates: QuenchedEstimate, sigmas: float = 4.0) -> float:
    """Certified tails and estimated biases plus a k-sigma statistical allowance."""
    return sum(e.tail_bound + e.bias_estimate + sigmas * e.stat_error for e in estimates)
