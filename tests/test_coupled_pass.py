"""The coupled Monte Carlo pass behind cavity_terms and rsb_upper_bound.

One pass draws G1 and G2 over the same cascade weights, and G2 thins its
pair count from G1's slots: K ~ Binomial(sum_i k_i, 1/2) with k_i ~
Poisson(c), which is Poisson(cn/2).  It is the only Monte Carlo pass, so
cavity_g1 and cavity_g2 return its terms, equal to those of cavity_terms.
Every estimate subtracts the pass's zero-mean control columns at
coefficients cross-fitted on the first and second halves of the draws; the
bound's stat_error is the standard error of the adjusted per-draw
differences, below the raw paired one.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from potts_af import cascade
from potts_af.cascade import (
    CascadeSpec,
    annealed_spec,
    cavity_g1,
    cavity_g2,
    cavity_terms,
    one_rsb_spec,
    rs_spec,
    rsb_upper_bound,
    symmetric_t_hierarchy,
    uniform_hierarchy,
)
from potts_af.disorder import METHOD_MC
from potts_af.model import ModelParams
from test_kernel_oracle import cross_fitted

BENCH = ModelParams(q=2, beta=1.0, c=4.0)
# the benchmark's bound configurations at N = 5, then the engine's other
# branches: sampled leaves with a shared pattern, and two atom levels
CONFIGS = {
    "l1": (BENCH, CascadeSpec((0.5,)), uniform_hierarchy(2)),
    "rs": (BENCH, rs_spec(), symmetric_t_hierarchy(2, -0.8)),
    "one_rsb": (BENCH, one_rsb_spec(0.5), symmetric_t_hierarchy(2, 0.5)),
    "sampled, t > 0": (ModelParams(q=3, beta=1.0, c=2.0), CascadeSpec((0.0, 0.5)),
                       symmetric_t_hierarchy(3, 0.4)),
    "two levels": (ModelParams(q=2, beta=1.0, c=2.0), CascadeSpec((0.3, 0.7)),
                   uniform_hierarchy(2)),
}
N, SAMPLES, ATOMS = 5, 300, 256


def test_thinned_pair_count_has_the_poisson_law(monkeypatch):
    # record the pair counts the coupled pass hands to the G2 match draw
    seen = []
    draw = cascade._leaf_matches

    def record(rng, k, *args):
        seen.append(k.copy())
        return draw(rng, k, *args)

    monkeypatch.setattr(cascade, "_leaf_matches", record)
    c, n, samples = 2.0, 3, 6000
    cavity_terms(ModelParams(q=2, beta=1.0, c=c), n, annealed_spec(), uniform_hierarchy(2),
                 samples=samples, seed=21, method="monte-carlo")
    k = np.concatenate(seen)
    lam = 0.5 * c * n
    assert len(k) == samples
    assert abs(k.mean() - lam) <= 5 * math.sqrt(lam / samples)
    # a Poisson sample variance has variance (mu_4 - sigma^4) / S = (lam + 2 lam^2) / S
    assert abs(k.var(ddof=1) - lam) <= 5 * math.sqrt((lam + 2 * lam * lam) / samples)
    # chi-square over the counts 0..top - 1 and one tail bin, each expecting >= 20 draws
    top = int(poisson.isf(20 / samples, lam))
    observed = np.append(np.bincount(np.minimum(k, top), minlength=top + 1)[:top],
                         np.count_nonzero(k >= top))
    expected = samples * np.append(poisson.pmf(np.arange(top), lam), poisson.sf(top - 1, lam))
    assert chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("config", list(CONFIGS))
def test_terms_alone_equal_the_coupled_terms(config):
    params, spec, hier = CONFIGS[config]
    kw = dict(samples=SAMPLES, seed=31, method="monte-carlo", n_atoms=ATOMS)
    e1, e2, _ = cavity_terms(params, N, spec, hier, **kw)
    for est in (e1, e2):
        assert est.method == METHOD_MC and est.samples == SAMPLES
        assert est.bias_estimate > 0 or not spec.atom_levels
    assert cavity_g1(params, N, spec, hier, **kw) == e1
    assert cavity_g2(params, N, spec, hier, **kw) == e2


def run_mc(params, n, spec, hier, samples, seed, n_atoms):
    """The pass's per-draw (values, controls, tail fractions), its chunks
    concatenated: values (2, S), controls (columns, S), fractions (S,)."""
    vals, controls, fracs = zip(*cascade._run_mc(params, n, spec, hier, samples, seed, n_atoms))
    return np.hstack(vals), np.hstack(controls), np.concatenate(fracs)


def _sem(rows: np.ndarray) -> np.ndarray:
    return rows.std(axis=-1, ddof=1) / math.sqrt(rows.shape[-1])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_bound_error_is_the_paired_standard_error(config):
    params, spec, hier = CONFIGS[config]
    vals, controls, fracs = run_mc(params, N, spec, hier, SAMPLES, 41, ATOMS)
    assert controls.shape == ((4 if spec.atom_levels else 2), SAMPLES)
    e1, e2, bound = cavity_terms(params, N, spec, hier, samples=SAMPLES, seed=41,
                                 method="monte-carlo", n_atoms=ATOMS)
    means, sems = cross_fitted(np.column_stack([*vals, vals[0] - vals[1]]), controls.T)
    for est, mean, sem in zip((e1, e2), means, sems):
        assert est.value == pytest.approx(mean, rel=0, abs=1e-12)
        assert est.stat_error == pytest.approx(sem, rel=1e-9)
    assert bound.stat_error == pytest.approx(sems[2], rel=1e-9)
    # the coupling puts the raw paired error below the quadrature sum of the
    # terms' raw errors, and the controls put the bound's error below both
    assert bound.stat_error < _sem(vals[0] - vals[1]) < math.hypot(*_sem(vals))
    assert bound.value == e1.value - e2.value
    assert bound.bias_estimate == e1.bias_estimate + e2.bias_estimate
    assert e1.bias_estimate == pytest.approx(fracs.mean() / N, rel=1e-12)
    assert bound == rsb_upper_bound(params, N, spec, hier, samples=SAMPLES, seed=41,
                                    method="monte-carlo", n_atoms=ATOMS)



def test_pass_memory_does_not_grow_with_the_draws():
    # the pass streams each chunk into fixed cross-fit sums, so the draws
    # past the first 1 000 may not cost 16 B each; per-draw arrays took
    # about 227 B a draw.  What does grow is bounded: a first call at the
    # larger count grows the shared class tables to its largest k, and
    # CPython's free list of 1-tuples holds at most 2 000 of 48 B.
    args = (BENCH, N, rs_spec(), symmetric_t_hierarchy(2, -0.8))

    def peak(samples: int) -> int:
        tracemalloc.start()
        try:
            rsb_upper_bound(*args, samples=samples, seed=1, method="monte-carlo")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rsb_upper_bound(*args, samples=30_000, seed=1, method="monte-carlo")
    assert peak(30_000) - peak(1000) <= 16 * 29_000


def test_batch_buffers_stay_small_at_2048_leaves():
    # the benchmark's l1 bound evaluates its draws in batches of reused
    # buffers; a traced peak past 1.5 MiB means batches grew or their
    # arrays are allocated afresh (block-at-a-time evaluation read 0.37 MiB)
    args = CONFIGS["l1"]
    rsb_upper_bound(*args[:1], N, *args[1:], samples=200, seed=2, method="monte-carlo",
                    n_atoms=2048)
    tracemalloc.start()
    try:
        rsb_upper_bound(*args[:1], N, *args[1:], samples=200, seed=2, method="monte-carlo",
                        n_atoms=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
