from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import potts_af as pa
from potts_af import disorder
from potts_af.bounds import annealed_pressure
from potts_af.cascade import cavity_terms
from potts_af.disorder import (
    DEFAULT_EXACT_BUDGET,
    M_MAX_CAP,
    METHOD_EXACT,
    SUM_RULE_MAX_R,
    SUM_RULE_TAIL_EPS,
    balanced_count,
    conditional_moments_balanced,
    quenched_pressure_exact,
    quenched_pressure_mc,
    restricted_partition_balanced,
    sample_couplings,
    sum_rule_deficit,
)
from potts_af.model import ModelParams, log_partition
from potts_af.util import (MAX_MC_SAMPLES, BudgetExceededError, log_multinomial,
                           multinomial_table, poisson_cutoff, poisson_pmf_vector, poisson_sf,
                           stream)

from conftest import combined_error
from test_kernel_oracle import cross_fitted, graph_controls, old_overlap_moments, upper_couplings


def test_sample_couplings_zero_connectivity():
    J = sample_couplings(4, 0.0, seed=1)
    assert np.all(J == 0)


def test_sample_couplings_moments():
    n, c, draws = 4, 2.0, 4000
    totals = np.array([sample_couplings(n, c, seed=s).sum() for s in range(draws)])
    # total count is Poisson(c n / 2)
    mean, var = c * n / 2, c * n / 2
    assert abs(totals.mean() - mean) <= 4 * math.sqrt(var / draws)
    entries = np.array([sample_couplings(n, c, seed=s)[0, 0] for s in range(draws)])
    lam = c / (2 * n)
    assert abs(entries.mean() - lam) <= 4 * math.sqrt(lam / draws)
    assert abs(entries.var() - lam) <= 4 * lam * math.sqrt(2.0 / draws) + 0.05 * lam


def test_poisson_mean_past_numpy_limit_is_a_structured_error():
    # numpy's own "lam value too large" names no argument; the guard names c
    limit = r"c = 1e\+\d\d needs a Poisson mean of .* past the limit 9\.223e\+18"
    with pytest.raises(ValueError, match=limit):
        quenched_pressure_mc(ModelParams(q=2, beta=1.0, c=1e19), 4, 64, seed=0)
    with pytest.raises(ValueError, match=limit):
        sample_couplings(2, 1e20, seed=0)
    below = quenched_pressure_mc(ModelParams(q=2, beta=1.0, c=1e18), 4, 64, seed=0)
    assert math.isfinite(below.value) and math.isfinite(below.stat_error)


def test_sample_couplings_reproducible():
    a = sample_couplings(5, 3.0, seed=42)
    b = sample_couplings(5, 3.0, seed=42)
    np.testing.assert_array_equal(a, b)


def couplings_given_k(n: int, k: int, seed: int) -> np.ndarray:
    """K iid uniform ordered cells of {0..n-1}^2, counted into a coupling matrix."""
    edges = stream(seed).integers(0, n, size=(k, 2), dtype=np.int64)
    J = np.zeros((n, n), dtype=np.int64)
    np.add.at(J, (edges[:, 0], edges[:, 1]), 1)
    return J


def test_sample_edges_given_k():
    # given their total K, the Poisson couplings are K iid uniform cells, so
    # the share of one cell is a Bernoulli(1/n^2) mean over K edges
    assert sample_couplings(3, 0.0, seed=0).sum() == 0
    J = sample_couplings(3, 2 * 50_000 / 3, seed=5)
    k = int(J.sum())
    freq = J[0, 0] / k
    p = 1.0 / 9
    assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / k)


def test_conditional_gibbs_factor_closed_form():
    # averaging e^{-beta H(Sigma_R, J)} over all n^{2K} unit-edge placements
    # must equal (n^-2 sum_ij e^{-beta sum_r d})^K
    n, q, beta = 2, 2, 1.3
    replicas = np.array([[0, 1], [0, 0]])  # R = 2 fixed bundle
    inner = 0.0
    for i in range(n):
        for j in range(n):
            expo = sum(float(r[i] == r[j]) for r in replicas)
            inner += math.exp(-beta * expo)
    inner /= n * n
    cells = [(i, j) for i in range(n) for j in range(n)]
    for k in (1, 2):
        acc = 0.0
        for placement in itertools.product(range(len(cells)), repeat=k):
            J = np.zeros((n, n))
            for p in placement:
                J[cells[p]] += 1
            h = sum(
                float(J[i, j]) * float(r[i] == r[j])
                for r in replicas for i in range(n) for j in range(n)
            )
            acc += math.exp(-beta * h)
        acc /= len(cells) ** k
        assert acc == pytest.approx(inner**k, rel=1e-12)


def test_quenched_exact_zero_connectivity():
    est = quenched_pressure_exact(ModelParams(q=3, beta=2.0, c=0.0), 3)
    assert est.value == math.log(3)
    assert est.tail_bound == 0.0 and est.stat_error == 0.0


def test_quenched_exact_single_site_law():
    # p_1(beta, c) = ln q - beta c / 2, certified to 1e-10
    for q, beta, c in [(2, 1.0, 1.0), (3, 0.5, 4.0), (4, 2.0, 2.0)]:
        est = quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), 1, eps=1e-10)
        assert est.stat_error == 0.0
        assert abs(est.value - (math.log(q) - beta * c / 2)) <= 1e-10 + est.tail_bound


def test_quenched_exact_matches_direct_poisson_average():
    # brute-force oracle: truncated expectation over iid Poisson entries
    q, beta, c, n = 2, 1.0, 1.0, 2
    lam = c / (2 * n)
    total, mass = 0.0, 0.0
    for entries in itertools.product(range(9), repeat=n * n):
        w = math.prod(math.exp(-lam) * lam**e / math.factorial(e) for e in entries)
        J = np.array(entries).reshape(n, n)
        total += w * log_partition(J, beta, q) / n
        mass += w
    est = quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), n, eps=1e-8)
    assert est.stat_error == 0.0  # fully exact at this size
    assert abs(total - est.value) <= est.tail_bound + (1 - mass) * 5 + 1e-12


def test_quenched_exact_truncates_at_smallest_certified_cutoff():
    # the reported tail is the bound at M_max for the pair-edge count
    # M ~ Poisson(c(N-1)/2 = 10), which pins M_max = 31
    beta, c, n, eps = 2.0, 4.0, 6, 1e-6
    lam = c * (n - 1) / 2
    tail = lambda m: (beta / n) * lam * poisson_sf(m, lam)
    est = quenched_pressure_exact(ModelParams(q=2, beta=beta, c=c), n, eps=eps,
                                  mc_samples=64)
    assert est.tail_bound == tail(31)
    assert tail(31) <= 0.5 * eps < tail(30)


def test_quenched_bad_inputs_rejected():
    params = ModelParams(q=2, beta=1.0, c=1.0)
    for kwargs in (dict(n=0), dict(n=2, eps=math.nan), dict(n=2, eps=0.0)):
        with pytest.raises(ValueError):
            quenched_pressure_exact(params, **kwargs)
    with pytest.raises(ValueError):
        quenched_pressure_mc(params, 0, samples=10, seed=0)
    with pytest.raises(ValueError):
        sum_rule_deficit(params, 0, r_max=4, quad_points=4)


def test_quenched_mc_trivial_cases():
    est = quenched_pressure_mc(ModelParams(q=2, beta=1.0, c=0.0), 3, samples=100, seed=0)
    assert est.value == pytest.approx(math.log(2), abs=1e-14)
    assert est.stat_error == 0.0
    est = quenched_pressure_mc(ModelParams(q=3, beta=0.0, c=2.0), 3, samples=100, seed=0)
    assert est.value == pytest.approx(math.log(3), abs=1e-13)


def test_quenched_mc_agrees_with_exact(pressure_cache):
    for q, beta, c, n in [(2, 1.0, 2.0, 3), (3, 0.5, 1.0, 4)]:
        exact = pressure_cache(q, beta, c, n)
        mc = quenched_pressure_mc(ModelParams(q=q, beta=beta, c=c), n,
                                  samples=6000, seed=77)
        assert abs(exact.value - mc.value) <= combined_error(exact, mc)


def test_quenched_mc_needs_two_samples():
    with pytest.raises(ValueError):
        quenched_pressure_mc(ModelParams(q=2, beta=1.0, c=1.0), 2, samples=1, seed=0)


def test_sample_counts_past_the_cap_raise_before_drawing(monkeypatch):
    def no_seeds(*args):
        raise AssertionError("split seeds")

    monkeypatch.setattr("potts_af.disorder.child_seed", no_seeds)
    params, huge = ModelParams(q=2, beta=1.0, c=1.0), MAX_MC_SAMPLES + 1
    with pytest.raises(BudgetExceededError, match=str(MAX_MC_SAMPLES)):
        quenched_pressure_mc(params, 3, samples=huge, seed=0)
    with pytest.raises(BudgetExceededError, match=str(MAX_MC_SAMPLES)):
        quenched_pressure_exact(params, 3, mc_samples=huge)


def test_superadditivity_small_grid(pressure_cache):
    for q, beta, c in [(2, 1.0, 2.0), (3, 0.7, 1.5)]:
        ests = {n: pressure_cache(q, beta, c, n) for n in (1, 2, 3, 4)}
        for n1, n2 in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            big, a, b = ests[n1 + n2], ests[n1], ests[n2]
            lhs = (n1 + n2) * big.value
            rhs = n1 * a.value + n2 * b.value
            slack = (n1 + n2) * combined_error(big) + n1 * combined_error(a) \
                + n2 * combined_error(b)
            assert lhs >= rhs - slack


def test_lipschitz_in_c(pressure_cache):
    for q, beta, (c1, c2), n in [(2, 1.0, (1.0, 2.0), 3), (3, 2.0, (2.0, 4.0), 3)]:
        e1, e2 = pressure_cache(q, beta, c1, n), pressure_cache(q, beta, c2, n)
        assert abs(e2.value - e1.value) <= beta * (c2 - c1) / 2 + combined_error(e1, e2)


def test_annealed_domination_small(pressure_cache):
    for q, beta, c, n in [(2, 2.0, 4.0, 4), (3, 1.0, 1.0, 3)]:
        est = pressure_cache(q, beta, c, n)
        assert est.value <= annealed_pressure(beta, c, q) + 1e-9 + combined_error(est)


def test_fekete_running_max(pressure_cache):
    # the running maximum of p_N is nondecreasing within errors, and stays
    # below the annealed limit
    q, beta, c = 2, 1.0, 2.0
    ests = [pressure_cache(q, beta, c, n) for n in (1, 2, 3, 4, 5)]
    running = -math.inf
    for est in ests:
        running = max(running, est.value)
        assert est.value <= annealed_pressure(beta, c, q) + combined_error(est)
    values = [e.value for e in ests]
    maxima = np.maximum.accumulate(values)
    for v, m, e in zip(values, maxima, ests):
        assert m >= v - combined_error(e)


def test_conditional_law_equivalence():
    # couplings built from Poisson-count uniform edges match direct Poisson
    # sampling on total-count statistics
    n, c, draws = 3, 2.0, 100_000
    rng = np.random.default_rng(123)
    lam = c * n / 2
    direct = np.array([sample_couplings(n, c, seed=int(s)).sum()
                       for s in rng.integers(0, 2**31, size=draws // 10)])
    ks = rng.poisson(lam, size=draws // 10)
    via_edges = np.array([
        couplings_given_k(n, int(k), seed=int(s)).sum()
        for k, s in zip(ks, rng.integers(0, 2**31, size=draws // 10))
    ])
    hi = int(max(direct.max(), via_edges.max())) + 1
    bins = np.arange(0, hi + 1)
    h1, _ = np.histogram(direct, bins=bins)
    h2, _ = np.histogram(via_edges, bins=bins)
    keep = (h1 + h2) >= 10
    table = np.stack([h1[keep], h2[keep]])
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_two_sites_exact_whatever_the_budget(monkeypatch):
    # at N = 2 there is one pair, so given M the couplings are a point mass
    calls = (lambda: quenched_pressure_exact(ModelParams(q=3, beta=0.5, c=4.0), 2),
             lambda: sum_rule_deficit(ModelParams(q=2, beta=1.0, c=1.0), 2, 5, 4))
    exact = [call() for call in calls]
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", 0)
    for call, expect in zip(calls, exact):
        est = call()
        assert est.stat_error == 0.0 and est.samples == 0 and est.method == METHOD_EXACT
        assert est == expect


def test_sum_rule_trivial_cases():
    zero_beta = sum_rule_deficit(ModelParams(q=2, beta=0.0, c=2.0), 2, 5, 4)
    assert zero_beta.value == 0.0
    zero_c = sum_rule_deficit(ModelParams(q=2, beta=1.0, c=0.0), 2, 5, 4)
    assert zero_c.value == 0.0


def test_sum_rule_matches_direct_gap(pressure_cache):
    params = ModelParams(q=2, beta=1.0, c=1.0)
    deficit = sum_rule_deficit(params, 2, r_max=20, quad_points=16, seed=4)
    p2 = pressure_cache(2, 1.0, 1.0, 2, 1e-7)
    direct = annealed_pressure(1.0, 1.0, 2) - p2.value
    budget = deficit.tail_bound + 4 * deficit.stat_error + combined_error(p2)
    assert abs(deficit.value - direct) <= budget


def test_sum_rule_enumeration_budget():
    # q^n = 3^14 = 4.8 M configurations is refused before any enumeration
    with pytest.raises(BudgetExceededError, match="exceeds enumeration budget"):
        sum_rule_deficit(ModelParams(q=3, beta=1.0, c=1.0), 14, r_max=2, quad_points=3)


def test_sum_rule_r_max_cap_raises_before_allocating(monkeypatch):
    # r_max = 10^9 once allocated its R array and ran a Horner step per R
    # in every kernel block, until it was killed for memory
    params = ModelParams(2, 1.0, 2.0)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"exceeds {SUM_RULE_MAX_R}"):
        sum_rule_deficit(params, 3, 10**9, 3)
    assert time.perf_counter() - start < 0.1
    assert sum_rule_deficit(params, 3, SUM_RULE_MAX_R, 3).tail_bound < 1e-10
    monkeypatch.setattr(disorder, "SUM_RULE_MAX_R", 20)  # read at call time
    sum_rule_deficit(params, 3, 20, 3)
    with pytest.raises(BudgetExceededError, match="r_max 21 exceeds 20"):
        sum_rule_deficit(params, 3, 21, 3)


def drawn_per_stratum(monkeypatch) -> Counter:
    """Monte Carlo rows drawn per pair-edge count M, recorded from here on."""
    drawn = Counter()
    place = disorder._placements
    monkeypatch.setattr(disorder, "_placements",
                        lambda rng, p, m: drawn.update({int(m[0]): len(m)}) or place(rng, p, m))
    return drawn


def sample_rule(mc_samples: int, share: float) -> int:
    return max(256, min(8 * mc_samples, int(4 * mc_samples * share) + 1))


def monte_carlo_strata(n: int, m_max: int) -> list[int]:
    """The M whose pair-count multisets pass the default exact budget."""
    p = n * (n - 1) // 2
    return [m for m in range(m_max + 1) if math.comb(p + m - 1, m) > DEFAULT_EXACT_BUDGET]


def test_pressure_samples_follow_the_poisson_weights(monkeypatch):
    # the benchmark's (3, 2, 4, N = 5) point: share = pi(M), 4 617 samples in all
    q, beta, c, n, eps, mc_samples = 3, 2.0, 4.0, 5, 2e-4, 2048
    drawn = drawn_per_stratum(monkeypatch)
    est = quenched_pressure_exact(ModelParams(q=q, beta=beta, c=c), n, eps=eps, seed=1,
                                  mc_samples=mc_samples)
    lam = c * (n - 1) / 2
    m_max = poisson_cutoff(lambda m: (beta / n) * lam * poisson_sf(m, lam), eps / 2, M_MAX_CAP)
    pmf = poisson_pmf_vector(m_max, lam)
    assert drawn == {m: sample_rule(mc_samples, pmf[m]) for m in monte_carlo_strata(n, m_max)}
    assert est.samples == sum(drawn.values()) == 4617


def test_sum_rule_samples_follow_the_stratum_weights(monkeypatch):
    # share = w_M / (sum of w over the Monte Carlo strata), w_M = P(Poisson(c(N-1)/2) >= M+1)
    n, c, mc_samples = 6, 1.0, 2048
    drawn = drawn_per_stratum(monkeypatch)
    est = sum_rule_deficit(ModelParams(q=2, beta=1.0, c=c), n, 20, 16, seed=1)
    lam = c * (n - 1) / 2
    m_max = poisson_cutoff(lambda m: poisson_sf(m + 1, lam), 1e-10, M_MAX_CAP)
    sampled = monte_carlo_strata(n, m_max)
    total = sum(poisson_sf(m + 1, lam) for m in sampled)
    assert drawn == {m: sample_rule(mc_samples, poisson_sf(m + 1, lam) / total) for m in sampled}
    assert est.samples == sum(drawn.values()) == 10_387


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sum_rule_allocation_beats_flat_samples(seed, monkeypatch):
    # the same strata with a flat 2 048 samples each, the sum rule's old plan
    # (stat_error 6.0-6.7e-8 on seeds 1-5, against 4.2-4.3e-8), draw 2.4
    # times as many samples
    params = ModelParams(q=2, beta=1.0, c=1.0)
    est = sum_rule_deficit(params, 6, 20, 16, seed=seed)
    monkeypatch.setattr(disorder, "_sample_plan",
                        lambda mc_strata, weights, total, mc: np.where(mc_strata, mc, 0))
    flat = sum_rule_deficit(params, 6, 20, 16, seed=seed)
    assert (est.samples, flat.samples) == (10_387, 24_576)
    assert est.stat_error < 0.8 * flat.stat_error
    assert abs(est.value - flat.value) <= 4 * math.hypot(est.stat_error, flat.stat_error)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 1.0, 6), (3, 1.0, 2.0, 5)])
def test_sum_rule_stat_error_is_one_standard_error(q, beta, c, n, seed):
    # each Monte Carlo stratum's rows, redrawn from its seed in the engine's
    # blocks, give per-row series sum_R coef_R moment_R by the unreduced
    # kernel; less the four graph controls (occupancy, multi-edges, degree
    # squares, triangles) at cross-fitted coefficients, their standard
    # errors, combined with the stratum weights, are the deficit's one
    # standard error
    est = sum_rule_deficit(ModelParams(q=q, beta=beta, c=c), n, 20, 16, seed=seed)
    lam, p, y = c * (n - 1) / 2, n * (n - 1) // 2, -math.expm1(-beta)
    m_max = poisson_cutoff(lambda m: poisson_sf(m + 1, lam), SUM_RULE_TAIL_EPS, M_MAX_CAP)
    sampled = monte_carlo_strata(n, m_max)
    total = sum(poisson_sf(m + 1, lam) for m in sampled)
    coef_r = np.array([0.5 * y**r / r for r in range(1, 21)])
    variance, drawn = 0.0, 0
    for m in sampled:
        samples = sample_rule(2048, poisson_sf(m + 1, lam) / total)
        rng = stream(np.random.SeedSequence(seed).spawn(m + 1)[m])
        draws = np.concatenate([
            disorder._placements(rng, p, np.full(min(disorder.CHUNK, samples - lo), m))
            for lo in range(0, samples, disorder.CHUNK)])
        values = old_overlap_moments(upper_couplings(draws, n), n, q, beta, 20) @ coef_r
        weight = poisson_sf(m + 1, lam) * 2 / (n - 1)
        variance += (weight * cross_fitted(values, graph_controls(draws, n, m))[1]) ** 2
        drawn += samples
    assert est.samples == drawn > 0
    assert est.stat_error == pytest.approx(math.sqrt(variance), rel=1e-9, abs=0)


def test_fully_exact_calls_make_no_seed(monkeypatch):
    # no stratum samples at these points, so no seed or stream is made
    def refuse(*args):
        raise AssertionError("made a seed or a stream with no stratum to sample")

    monkeypatch.setattr(disorder, "child_seed", refuse)
    monkeypatch.setattr(disorder, "stream", refuse)
    for est in (sum_rule_deficit(ModelParams(q=2, beta=1.0, c=4.0), 3, 20, 16, seed=1),
                quenched_pressure_exact(ModelParams(q=2, beta=0.5, c=1.0), 4, seed=1)):
        assert est.samples == 0 and est.stat_error == 0.0 and est.method == METHOD_EXACT


def test_estimates_hold_plain_floats():
    # every producer of a QuenchedEstimate, on its exact, Monte Carlo and
    # trivial paths, returns Python floats, not numpy scalars
    params, zero_c = ModelParams(q=2, beta=1.0, c=2.0), ModelParams(q=2, beta=1.0, c=0.0)
    one_rsb, hier = pa.one_rsb_spec(0.5), pa.uniform_hierarchy(2)
    estimates = [
        quenched_pressure_exact(params, 4),
        quenched_pressure_exact(ModelParams(q=3, beta=2.0, c=4.0), 5, eps=2e-4, mc_samples=64),
        quenched_pressure_exact(zero_c, 4),
        quenched_pressure_mc(params, 4, samples=100, seed=1),
        quenched_pressure_mc(zero_c, 4, samples=100, seed=1),
        sum_rule_deficit(ModelParams(q=2, beta=1.0, c=4.0), 3, 20, 16),
        sum_rule_deficit(ModelParams(q=2, beta=1.0, c=1.0), 6, 20, 16),
        sum_rule_deficit(zero_c, 4, 20, 16),
        *cavity_terms(params, 3, pa.rs_spec(), hier),
        *cavity_terms(params, 3, one_rsb, hier, samples=64, seed=1, method="monte-carlo"),
        *cavity_terms(params, 3, one_rsb, pa.symmetric_t_hierarchy(2, 0.5),
                      method="closed-form"),
    ]
    assert {est.method for est in estimates} == {METHOD_EXACT, "monte-carlo"}
    for est in estimates:
        for field in ("value", "stat_error", "tail_bound", "bias_estimate"):
            assert type(getattr(est, field)) is float, (est, field)


@pytest.mark.parametrize("q, beta, c, n, per_stratum_kib", [(3, 1.0, 2.0, 4, 1371),
                                                           (2, 1.0, 1.0, 6, 2402)])
def test_sum_rule_peak_memory(q, beta, c, n, per_stratum_kib):
    # tracemalloc peak of one call with the orbit and class tables cached,
    # within 5% of the peak of the engine that ran one stratum at a time,
    # flat 2 048 samples each (per_stratum_kib; numpy 2.4, Python 3.11)
    params = ModelParams(q=q, beta=beta, c=c)
    sum_rule_deficit(params, n, 20, 16, seed=1)
    tracemalloc.start()
    try:
        sum_rule_deficit(params, n, 20, 16, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * per_stratum_kib * 1024


def test_balanced_count():
    assert balanced_count(4, 2) == 6
    assert balanced_count(6, 3) == 90


def test_restricted_partition_counting():
    # beta = 0 / J = 0 reduce to pure counting of balanced configurations
    J = np.zeros((4, 4), dtype=int)
    expect = math.log(6)
    assert restricted_partition_balanced(J, 0.0, 2) == pytest.approx(expect, abs=1e-13)
    assert restricted_partition_balanced(J, 3.0, 2) == pytest.approx(expect, abs=1e-13)
    with pytest.raises(ValueError):
        restricted_partition_balanced(np.zeros((3, 3)), 1.0, 2)


def test_restricted_partition_zero_temperature():
    # N = q = 2 with a single bond: balanced proper colorings by brute force
    J = np.zeros((2, 2), dtype=int)
    J[0, 1] = 1
    brute = sum(
        1 for s in itertools.product(range(2), repeat=2)
        if s.count(0) == 1 and (J[0, 1] * (s[0] == s[1])) == 0
    )
    assert restricted_partition_balanced(J, math.inf, 2) == pytest.approx(math.log(brute))
    # no proper balanced coloring -> -inf
    J_all = np.ones((2, 2), dtype=int)
    assert restricted_partition_balanced(J_all, math.inf, 2) == -math.inf


def test_conditional_moments_k0_and_beta0():
    n, q = 4, 2
    first, second = conditional_moments_balanced(n, q, 1.7, 0)
    assert first == pytest.approx(balanced_count(n, q), abs=1e-12)
    brute_second = sum(
        1
        for s1 in itertools.product(range(q), repeat=n)
        for s2 in itertools.product(range(q), repeat=n)
        if s1.count(0) == 2 and s2.count(0) == 2
    )
    assert second == pytest.approx(brute_second, rel=1e-12)
    first_b0, _ = conditional_moments_balanced(n, q, 0.0, 7)
    assert first_b0 == pytest.approx(balanced_count(n, q), abs=1e-12)


def test_conditional_moments_vs_placement_brute_force():
    # exhaustive oracle over all n^{2K} edge placements
    n, q, k, beta = 4, 2, 2, 1.0
    cells = [(i, j) for i in range(n) for j in range(n)]
    balanced = [s for s in itertools.product(range(q), repeat=n) if s.count(0) == n // q]

    def z_tilde(J):
        total = 0.0
        for s in balanced:
            h = sum(J[i][j] * (s[i] == s[j]) for i in range(n) for j in range(n))
            total += math.exp(-beta * h)
        return total

    m1 = m2 = 0.0
    for placement in itertools.product(range(len(cells)), repeat=k):
        J = [[0] * n for _ in range(n)]
        for p in placement:
            i, j = cells[p]
            J[i][j] += 1
        z = z_tilde(J)
        m1 += z
        m2 += z * z
    m1 /= len(cells) ** k
    m2 /= len(cells) ** k
    first, second = conditional_moments_balanced(n, q, beta, k)
    assert first == pytest.approx(m1, abs=1e-12)
    assert second == pytest.approx(m2, abs=1e-12)


def _doubly_balanced(n: int, q: int):
    """Flattened q x q tables with row and column sums N/q, in the order of
    itertools.product(range(N/q + 1), repeat=q * q), built row by row: the
    first q - 1 rows are compositions of N/q, the last is what they leave."""
    m = n // q
    rows = [r for r in itertools.product(range(m + 1), repeat=q) if sum(r) == m]
    for head in itertools.product(rows, repeat=q - 1):
        last = tuple(m - sum(col) for col in zip(*head)) if head else (m,) * q
        if min(last) >= 0:
            yield sum(head, ()) + last


@pytest.mark.parametrize("n, q", [(4, 2), (6, 2), (6, 3), (8, 4)])
def test_menu_sequences_are_the_doubly_balanced_tables(n, q):
    menu, _ = multinomial_table(n // q, np.zeros(q))
    picks, last = disorder._menu_sequences(menu, np.full(q, n // q), q - 1)
    tables = np.concatenate((menu[picks].reshape(len(last), -1), last), axis=1)
    assert tables.tolist() == [list(t) for t in _doubly_balanced(n, q)]


@pytest.mark.parametrize("n, q, beta, k", [(8, 4, 1.0, 3), (12, 3, 1.0, 3), (12, 4, 0.7, 5),
                                           (10, 5, 2.0, 4)])
def test_second_moment_matches_an_fsum_reference(n, q, beta, k):
    y = -math.expm1(-beta)
    terms = []
    for flat in _doubly_balanced(n, q):
        base = 1.0 - 2.0 * y / q + y * y * sum((cell / n) ** 2 for cell in flat)
        terms.append(math.exp(log_multinomial(flat) + k * math.log(base)))
    reference = math.fsum(terms)
    _, second = conditional_moments_balanced(n, q, beta, k)
    assert abs(second - reference) <= 1e-15 * reference


def _pinned_couplings(n: int, lam: float, seed: int, loops: bool = True) -> np.ndarray:
    J = np.random.default_rng(seed).poisson(lam, size=(n, n))
    if not loops:
        np.fill_diagonal(J, 0)
    return J


@pytest.mark.parametrize("couplings, beta, q, pin", [
    ((6, 1.0, 1), 0.7, 2, "-0x1.697a3cb572ccfp+3"),
    ((6, 1.0, 2), 1.3, 3, "-0x1.928bd71f19798p+3"),
    ((9, 0.3, 3), 0.4, 3, "0x1.60e6cc8e9134fp+2"),
    ((8, 0.5, 4), 2.0, 4, "-0x1.4d74223ca72d2p+1"),
    ((10, 0.4, 8), 25.0, 5, "-0x1.6a1f1b27fababp+6"),
    ((3, 1.0, 7), 0.5, 1, "-0x1.4000000000000p+2"),
    ((9, 0.2, 9, False), math.inf, 3, "0x1.545c13f670efbp+2"),
    ((8, 0.3, 10, False), math.inf, 4, "0x1.5ec2c9c23c107p+2"),
    ((12, 0.1, 5, False), math.inf, 2, "-inf"),
])
def test_restricted_partition_balanced_pins(couplings, beta, q, pin):
    # float.hex values of the recursive enumerator the array one replaced
    value = restricted_partition_balanced(_pinned_couplings(*couplings), beta, q)
    assert (value.hex() if math.isfinite(value) else str(value)) == pin


def test_second_moment_refuses_past_the_budget_early():
    # 3 x 3 tables of margins 44 outnumber BALANCED_BUDGET
    with pytest.raises(BudgetExceededError, match=f"more than {disorder.BALANCED_BUDGET}"):
        conditional_moments_balanced(132, 3, 1.0, 3)


def test_second_moment_traced_peak():
    # the 381 424 pair measures at (28, 4), under BALANCED_BUDGET, are held at once
    tracemalloc.start()
    try:
        conditional_moments_balanced(28, 4, 1.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 150 << 20
