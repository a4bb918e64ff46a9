"""The symmetry-reduced disorder kernel against the unreduced kernel.

The oracle below is the kernel the disorder engine used before pair
folding and colour relabelling: a q^N x N^2 indicator over ordered cells,
scipy's logsumexp over every configuration, and a Python loop over the
placement multisets of the N^2 ordered cells, conditioned on the total
edge count K.  The engine conditions on the pair-edge count M instead; of
K uniform ordered cells, M ~ Binomial(K, 1 - 1/N) fall off the diagonal,
so the K-conditional averages are Binomial mixtures of the M-conditional
ones, less beta (K - M) for ln Z.

The engine's exact path averages over site-relabelling orbit tables, not
over the C(P + M - 1, M) pair-count multisets it enumerated before;
multiset_placements keeps that enumeration as the oracle, and laws are
compared after lumping each row to a complete canonical form, the least
code over its N! relabellings.

The engine averages one float per row; for the overlaps that is the series
sum_R coef_R moment_R.  Engine checks use a fixed random COEF with entries
in [0.5, 1.5], so an error in any one moment shows at least half its size;
reduced_overlap_moments keeps the per-R kernel the series replaced, which
each unit coef must reproduce bit for bit.

The single-graph functions (log_partition, pressure_density,
entropy_density) sum over the colour classes; their oracle below
enumerates every configuration with config_block and an energy written
out over the ordered site pairs.
"""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from potts_af import disorder, model
from potts_af.disorder import (
    DEFAULT_EXACT_BUDGET,
    M_MAX_CAP,
    UNSHIFTED_EXPONENT,
    _class_weights,
    _conditional_average,
    _exact_placements,
    _lnz_batch,
    _mc_strata,
    _orbit_tables,
    _overlap_series,
    _workspace,
    quenched_pressure_exact,
    quenched_pressure_mc,
    restricted_partition_balanced,
    sample_couplings,
)
from potts_af.model import (
    ModelParams,
    all_energies,
    class_representatives,
    colour_classes,
    config_block,
    config_energies,
    entropy_density,
    gibbs_replica_expectation,
    gibbs_weights,
    log_partition,
    pressure_density,
)
from potts_af.util import (
    BudgetExceededError,
    log_multinomial,
    multinomial_table,
    multiset_permutations,
    poisson_cutoff,
    poisson_pmf_vector,
    poisson_sf,
    stream,
)

TOL = 1e-12
COEF = np.random.default_rng(27).uniform(0.5, 1.5, 20)  # series weights of the engine checks


def _pair_indicator(n: int, q: int) -> np.ndarray:
    """(q^n, n^2) matrix D with D[cfg, i*n+j] = [sigma_i == sigma_j]."""
    cfg = config_block(n, q, 0, q**n)
    cols = [(cfg[:, i] == cfg[:, j]) for i in range(n) for j in range(n)]
    return np.stack(cols, axis=1).astype(np.float64)


def old_lnz(jflat: np.ndarray, n: int, q: int, beta: float) -> np.ndarray:
    return logsumexp(-beta * (jflat @ _pair_indicator(n, q).T), axis=1)


def old_overlap_moments(jflat: np.ndarray, n: int, q: int, beta: float,
                        r_max: int) -> np.ndarray:
    disc = _pair_indicator(n, q)
    energies = -beta * (jflat @ disc.T)
    energies -= energies.max(axis=1, keepdims=True)
    w = np.exp(energies)
    m = (w / w.sum(axis=1, keepdims=True)) @ disc
    return np.stack([(m ** r).mean(axis=1) for r in range(1, r_max + 1)], axis=1)


def reduced_overlap_moments(rows: np.ndarray, n: int, q: int, beta: float,
                            r_max: int) -> np.ndarray:
    """[N^-2 sum_ij M_ij^R for R = 1..r_max] per pair-count row over the
    colour classes: the engine's kernel before it summed the series."""
    indicator, log_mult = colour_classes(n, q)
    mult = np.exp(log_mult)
    w, _ = _class_weights(rows, n, q, beta, None)
    m = (indicator.T * mult) @ w.T
    m /= w @ mult
    sums = np.empty((r_max, len(rows)))
    power = m.copy()
    for ridx in range(r_max):
        if ridx:
            power *= m
        np.add.reduce(power, axis=0, out=sums[ridx])
    sums *= 2.0
    sums += n
    sums /= n * n
    return sums.T


def old_exact_multisets(n_cells: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    count = math.comb(n_cells + k - 1, k)
    jrows = np.zeros((count, n_cells))
    logw = np.empty(count)
    log_cells = k * math.log(n_cells) if k else 0.0
    for row, combo in enumerate(itertools.combinations_with_replacement(range(n_cells), k)):
        counts = Counter(combo)
        for cell, cnt in counts.items():
            jrows[row, cell] = cnt
        logw[row] = log_multinomial(tuple(counts.values())) - log_cells
    return jrows, np.exp(logw)


def multiset_placements(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(P + M - 1, M) pair-count multisets of M uniform pair edges, with
    their multinomial probabilities: the engine's exact rows before orbits."""
    p = n * (n - 1) // 2
    counts, logw = multinomial_table(m, np.full(p, -math.log(p)))
    return counts, np.exp(logw)


def canonical(rows, n: int, base: int) -> np.ndarray:
    """A complete site-relabelling invariant per pair-count row with entries
    below base: the least base-`base` code over its n! relabellings."""
    i, j = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    perms = np.array(list(itertools.permutations(range(n))))
    relabel = pair[perms[:, i], perms[:, j]]  # (n!, P) pair read by each relabelling
    rows = np.asarray(rows, dtype=np.int64)
    assert rows.max(initial=0) < base and base ** len(i) < 2**63
    place = base ** np.arange(len(i), dtype=np.int64)
    return np.concatenate([(rows[lo:lo + 128, relabel] @ place).min(axis=1)
                           for lo in range(0, len(rows), 128)])


def lumped(rows: np.ndarray, weights, n: int, base: int) -> dict[int, float]:
    """A law over pair-count rows, summed over each site-relabelling orbit."""
    keys, inverse = np.unique(canonical(rows, n, base), return_inverse=True)
    return dict(zip(keys.tolist(), np.bincount(inverse, weights=weights).tolist()))


def random_couplings(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).poisson(0.8, size=(n, n))


def pair_sums(ordered: np.ndarray, n: int) -> np.ndarray:
    """(B, n^2) ordered-cell counts -> (B, P) pair sums J_ij + J_ji, i < j."""
    sq, (i, j) = ordered.reshape(-1, n, n), np.triu_indices(n, 1)
    return sq[:, i, j] + sq[:, j, i]


def upper_couplings(rows: np.ndarray, n: int) -> np.ndarray:
    """(B, P) pair counts -> (B, n^2) couplings with each pair on J_ij, i < j."""
    out = np.zeros((rows.shape[0], n, n))
    i, j = np.triu_indices(n, 1)
    out[:, i, j] = rows
    return out.reshape(rows.shape[0], n * n)


def thinned(n: int, k: int):
    """(m, P(M = m | K = k)) for the M ~ Binomial(k, 1 - 1/n) pair edges."""
    p = 1.0 - 1.0 / n
    return [(m, math.comb(k, m) * p**m * (1.0 - p) ** (k - m)) for m in range(k + 1)]


def uniform_pair_counts(rng: np.random.Generator, p: int, m) -> np.ndarray:
    """The engine's Monte Carlo placements, written out: one integers call
    gives the pair of every edge of the rows with at most 8P edges, row
    after row, and one multinomial call then fills the longer rows."""
    m = np.asarray(m)
    short = m <= 8 * p
    pairs = iter(rng.integers(0, p, size=int(m[short].sum())).tolist())
    rows = np.zeros((len(m), p), dtype=np.int64)
    for r in np.flatnonzero(short):
        for _ in range(m[r]):
            rows[r, next(pairs)] += 1
    if not short.all():
        rows[~short] = rng.multinomial(m[~short], np.full(p, 1.0 / p))
    return rows


def occupancy_means(p: int, m) -> np.ndarray:
    """E[pairs with J_p > 0 | M = m] for m uniform pair edges: P (1 - (1 - 1/P)^m)."""
    return p * (1.0 - (1.0 - 1.0 / p) ** np.asarray(m, dtype=np.float64))


def occupancy_control(draws: np.ndarray, m) -> np.ndarray:
    """Pairs occupied by each row of pair counts, less their mean given M."""
    return np.count_nonzero(draws, axis=1) - occupancy_means(draws.shape[1], m)


def graph_controls(draws: np.ndarray, n: int, m) -> np.ndarray:
    """(S, 4) controls of the sum rule's draws, from each row's full
    symmetric coupling matrix A: the occupied pairs, the multi-edges sum_p
    J_p^2 = sum_ij A_ij^2 / 2, the degree squares (row sums of A, squared
    and summed) and the triangles trace(A^3)/6, each less its mean given M
    = m: P (1 - (1 - 1/P)^m), m + m(m - 1)/P, 2m + 4m(m - 1)/N and C(N, 3)
    m(m - 1)(m - 2)/P^3."""
    p, m = n * (n - 1) // 2, float(m)
    a = upper_couplings(draws, n).reshape(-1, n, n)
    a = a + a.transpose(0, 2, 1)
    moments = np.column_stack([
        np.count_nonzero(draws, axis=1),
        (a * a).sum(axis=(1, 2)) / 2,
        (a.sum(axis=2) ** 2).sum(axis=1),
        np.trace(a @ a @ a, axis1=1, axis2=2) / 6,
    ])
    means = [occupancy_means(p, m), m + m * (m - 1) / p, 2 * m + 4 * m * (m - 1) / n,
             math.comb(n, 3) * m * (m - 1) * (m - 2) / p**3]
    return moments - means


def cross_fitted(values: np.ndarray, controls: np.ndarray):
    """(mean, sem) of per-draw values less zero-mean controls (one column
    each) at least-squares coefficients, with an intercept, fitted by
    np.linalg.lstsq on the other half of the draws: the first ceil(S/2)
    draws and the rest, as the engine splits them; a half of at most k + 1
    draws fits nothing.  The engine's cross-fit, written out per draw.

    values is (S,), giving floats, or (S, r), giving arrays of r: each
    column is fitted on its own, so a column of differences, such as
    G1 - G2, gets the paired standard error of the adjusted differences."""
    values = np.asarray(values, dtype=np.float64)
    columns = values.reshape(len(values), -1)
    adjusted = columns.copy()
    middle, k = (len(values) + 1) // 2, controls.shape[1]
    halves = (slice(0, middle), slice(middle, len(values)))
    for half, other in (halves, halves[::-1]):
        x, y = controls[other], columns[other]
        coef = np.zeros((k, y.shape[1]))
        if len(y) > k + 1:
            coef = np.linalg.lstsq(x - x.mean(axis=0), y - y.mean(axis=0), rcond=None)[0]
        adjusted[half] -= controls[half] @ coef
    means = adjusted.mean(axis=0)
    sems = adjusted.std(axis=0, ddof=1) / math.sqrt(len(adjusted))
    if values.ndim == 1:
        return float(means[0]), float(sems[0])
    return means, sems


OCCUPANCY = (disorder._occupancy, disorder._occupancy_means)  # the pressure's control
GRAPH_MOMENTS = (disorder._graph_moments, disorder._graph_means)  # the sum rule's four


def stratum_average(n: int, m: int, per_j, samples: int, seed: int, controls=OCCUPANCY):
    """(mean, sem, samples) of f given M = m from the engine's pass over the
    strata 0..m, where m alone may be Monte Carlo: `samples` draws from
    child m of `seed` once its multisets pass DEFAULT_EXACT_BUDGET, less
    `controls` at cross-fitted coefficients."""
    budgets = np.zeros(m + 1, dtype=np.int64)
    budgets[m] = samples if _mc_strata(n, m)[m] else 0
    means, sems = _conditional_average(n, per_j, budgets, seed, *controls)
    return means[m], sems[m], int(budgets[m])


def pair_average(n: int, m: int, per_j):
    """E[f | M = m] by the engine; with no pairs (n = 1) the only row is empty."""
    if n == 1:
        return per_j(np.zeros((1, 0), dtype=np.int64))[0]
    return stratum_average(n, m, per_j, 8, 0)[0]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_folded_lnz_matches_unreduced_kernel(q, n):
    for seed in range(4):
        J = random_couplings(n, 100 * n + seed)
        beta = 0.3 + 0.7 * seed
        folded = _lnz_batch(pair_sums(J.reshape(1, -1), n), n, q, beta)[0] - beta * np.trace(J)
        assert abs(folded - old_lnz(J.reshape(1, -1).astype(float), n, q, beta)[0]) <= TOL
        assert abs(folded - log_partition(J, beta, q)) <= TOL


@pytest.mark.parametrize("n, q, classes", [(5, 3, 41), (6, 3, 122), (4, 4, 15), (6, 2, 32)])
def test_colour_classes_cover_every_configuration(n, q, classes):
    indicator, log_mult = colour_classes(n, q)
    assert indicator.shape == (classes, n * (n - 1) // 2)
    assert np.exp(log_mult).sum() == pytest.approx(q**n, rel=1e-14)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 0), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_exact_placements_match_ordered_brute_force(n, k):
    # the pair-sum law of K uniform ordered cells, as a Binomial mixture over
    # M of the engine's orbit tables, both lumped by site-relabelling orbit
    p = n * (n - 1) // 2
    thinned_law: dict[int, float] = {}
    for m, w_m in thinned(n, k):
        if p == 0:  # no pairs: every edge is a self-loop
            rows, weights = np.zeros((1, 0), dtype=np.int64), np.ones(1)
        else:
            rows, weights = _exact_placements(n, m)
            assert abs(weights.sum() - 1.0) <= TOL and np.all(rows.sum(axis=1) == m)
            # every row is a relabelling of a row of M - 1 edges plus one pair edge
            if m:
                parents, _ = _exact_placements(n, m - 1)
                grown = (parents[:, None, :] + np.eye(p, dtype=np.int64)).reshape(-1, p)
                assert np.isin(canonical(rows, n, k + 1), canonical(grown, n, k + 1)).all()
        for key, w in lumped(rows, weights, n, k + 1).items():
            thinned_law[key] = thinned_law.get(key, 0.0) + w_m * w
    brute: dict[int, float] = {}
    for cells in itertools.product(range(n * n), repeat=k):
        ordered = np.bincount(np.asarray(cells, dtype=np.int64), minlength=n * n)
        key = int(canonical(pair_sums(ordered.reshape(1, -1), n), n, k + 1)[0])
        brute[key] = brute.get(key, 0.0) + float(n * n) ** -k
    assert brute.keys() == {key for key, w in thinned_law.items() if w > 0}
    for key, w in brute.items():
        assert abs(thinned_law[key] - w) <= TOL


@pytest.mark.parametrize("n, m_top", [(3, 12), (4, 8), (5, 5), (6, 4)])
def test_orbit_tables_lump_to_the_multiset_law(n, m_top):
    # per M, the orbit table and the multiset enumeration put the same
    # weight on every site-relabelling orbit
    for m in range(m_top + 1):
        rows, weights = _exact_placements(n, m)
        assert len(rows) <= math.comb(n * (n - 1) // 2 + m - 1, m)
        table = lumped(rows, weights, n, m + 1)
        multisets = lumped(*multiset_placements(n, m), n, m + 1)
        assert table.keys() == multisets.keys()
        assert max(abs(table[key] - w) for key, w in multisets.items()) <= TOL


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, m", [(4, 19), (5, 9), (6, 6), (3, 22)])
def test_orbit_tables_match_multiset_enumeration(q, n, m):
    # E[ln Z | M] and the overlap series over the orbit table, against the
    # multiset enumeration the engine ran before
    beta = 1.3
    rows, weights = multiset_placements(n, m)
    for fn in (lambda rows: _lnz_batch(rows, n, q, beta),
               lambda rows: _overlap_series(rows, n, q, beta, COEF)):
        mean, _, used = stratum_average(n, m, fn, 8, 0)
        expect = sum(np.tensordot(weights[i:i + 4096], fn(rows[i:i + 4096]), axes=1)
                     for i in range(0, len(rows), 4096))
        assert used == 0
        np.testing.assert_allclose(mean, expect, rtol=TOL, atol=0)


def test_orbit_tables_cached_per_n(monkeypatch):
    # one table per N, grown in place; a smaller M builds nothing, and the
    # shared arrays are read-only
    grown = []
    grow = disorder._grow_orbit_table
    monkeypatch.setattr(disorder, "_grow_orbit_table",
                        lambda *args: grown.append(args[0]) or grow(*args))
    _orbit_tables.cache_clear()
    tables = _orbit_tables(5)
    rows, weights = _exact_placements(5, 4)
    assert _orbit_tables(5) is tables and len(tables) == 5 and grown == [5] * 4
    held = list(tables)
    assert _exact_placements(5, 2) is held[2] and _exact_placements(5, 4)[0] is rows
    assert len(grown) == 4
    _exact_placements(5, 6)
    assert len(tables) == 7 and all(a is b for a, b in zip(tables, held))
    _exact_placements(4, 3)
    assert _orbit_tables.cache_info().currsize == 2 and len(_orbit_tables(4)) == 4
    assert len(grown) == 9 and len(tables) == 7
    for rows, weights in tables + _orbit_tables(4):
        assert not rows.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        tables[3][0][0, 0] = 1


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n, k_top", [(1, 5), (2, 6), (3, 4), (4, 3)])
def test_exact_conditional_averages_match_unreduced_kernel(q, n, k_top):
    beta, r_max = 1.3, 20
    if n > 1:  # the pair averages of every m used below are enumerated
        assert not _mc_strata(n, k_top).any()
    lnz_fn = lambda rows: _lnz_batch(rows, n, q, beta)
    series_fn = lambda rows: _overlap_series(rows, n, q, beta, COEF[:r_max])
    for k in range(k_top + 1):
        jrows, weights = old_exact_multisets(n * n, k)
        lnz = sum(w * (pair_average(n, m, lnz_fn) - beta * (k - m)) for m, w in thinned(n, k))
        assert abs(lnz - weights @ old_lnz(jrows, n, q, beta)) <= TOL
        series = sum(w * pair_average(n, m, series_fn) for m, w in thinned(n, k))
        expect = weights @ old_overlap_moments(jrows, n, q, beta, r_max) @ COEF[:r_max]
        assert abs(series - expect) <= TOL


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4), (3, 0.5, 1.0, 5),
                                         (2, 40.0, 8.0, 4)])
def test_mc_path_draws_unchanged(q, beta, c, n):
    # the Monte Carlo path draws a pair-edge count M ~ Poisson(c(n-1)/2) per
    # sample, places the M edges on uniform pairs and adds the self-loop mean
    # -beta c/2n; the unreduced kernel gives the same values on the same
    # draws, less the occupancy and edge-count controls at cross-fitted
    # coefficients
    params = ModelParams(q=q, beta=beta, c=c)
    samples, seed = 3000, 11
    lam, p = c * (n - 1) / 2.0, n * (n - 1) // 2
    chunks = [(i, min(i + 2048, samples)) for i in range(0, samples, 2048)]
    parts, controls = [], []
    for (lo, hi), ss in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        rng = stream(ss)
        edges = rng.poisson(lam, size=hi - lo)
        draws = uniform_pair_counts(rng, p, edges)
        parts.append(old_lnz(upper_couplings(draws, n), n, q, beta) / n)
        controls.append(np.column_stack([occupancy_control(draws, edges), edges - lam]))
    mean, sem = cross_fitted(np.concatenate(parts), np.concatenate(controls))
    est = quenched_pressure_mc(params, n, samples, seed)
    assert abs(est.value - (mean - beta * c / (2 * n))) <= TOL
    assert abs(est.stat_error - sem) <= TOL


def test_mc_overlap_moments_draws_unchanged(monkeypatch):
    # the sum rule's draws carry the four graph controls of graph_controls
    n, q, beta, k, samples, seed = 4, 3, 1.0, 9, 500, 21
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", 0)
    child = np.random.SeedSequence(seed).spawn(k + 1)[k]
    draws = uniform_pair_counts(stream(child), 6, np.full(samples, k))  # over P = 6 pairs
    values = old_overlap_moments(upper_couplings(draws, n), n, q, beta, 20) @ COEF
    mean, sem, used = stratum_average(
        n, k, lambda rows: _overlap_series(rows, n, q, beta, COEF), samples, seed, GRAPH_MOMENTS)
    expect = cross_fitted(values, graph_controls(draws, n, k))
    assert used == samples
    assert abs(mean - expect[0]) <= TOL
    assert abs(sem - expect[1]) <= TOL


@pytest.mark.parametrize("n, q, m, beta", [(4, 2, 20, 40.0), (4, 3, 20, 60.0), (3, 2, 30, 50.0)])
def test_shifted_kernel_matches_unreduced_kernel(n, q, m, beta):
    # beta M > UNSHIFTED_EXPONENT, so the rows are shifted by their least energy
    assert beta * m > UNSHIFTED_EXPONENT
    jrows, weights = _exact_placements(n, m)
    full = upper_couplings(jrows, n)
    lnz_fn = lambda rows: _lnz_batch(rows, n, q, beta)
    assert np.abs(lnz_fn(jrows) - old_lnz(full, n, q, beta)).max() <= TOL
    mean, _, used = stratum_average(n, m, lnz_fn, 8, 0)
    assert used == 0 and abs(mean - weights @ old_lnz(full, n, q, beta)) <= TOL
    series = stratum_average(n, m, lambda rows: _overlap_series(rows, n, q, beta, COEF), 8, 0)[0]
    assert abs(series - weights @ old_overlap_moments(full, n, q, beta, 20) @ COEF) <= TOL


def test_shift_keeps_frustrated_rows_finite():
    # every 2-colouring of a triangle with 10 edges per pair costs at least
    # 10, and e^{-100 * 10} underflows without the shift
    n, q, beta = 3, 2, 100.0
    rows = np.array([[10, 10, 10], [0, 0, 30], [1, 2, 3]])
    lnz = _lnz_batch(rows, n, q, beta)
    assert lnz[0] == pytest.approx(math.log(6.0) - 1000.0, rel=1e-15)
    assert np.abs(lnz - old_lnz(upper_couplings(rows, n), n, q, beta)).max() <= TOL
    moments = old_overlap_moments(upper_couplings(rows, n), n, q, beta, 5)
    for unit, expect in zip(np.eye(5), moments.T):
        np.testing.assert_allclose(_overlap_series(rows, n, q, beta, unit), expect,
                                   rtol=0, atol=TOL)


@pytest.mark.parametrize("n, q, m, beta", [(4, 3, 6, 1.3), (5, 2, 7, 0.4), (3, 2, 30, 50.0)])
def test_overlap_series_recovers_each_moment(n, q, m, beta):
    # a unit coef gives one moment, bit for bit as the per-R kernel gave it;
    # any coef gives the series of the unreduced moments (m = 30 is shifted)
    rows = _exact_placements(n, m)[0].astype(np.float64)
    reduced = reduced_overlap_moments(rows, n, q, beta, 20)
    moments = old_overlap_moments(upper_couplings(rows, n), n, q, beta, 20)
    for r, unit in enumerate(np.eye(20)):
        series = _overlap_series(rows, n, q, beta, unit)
        assert np.array_equal(series, reduced[:, r])
        np.testing.assert_allclose(series, moments[:, r], rtol=0, atol=TOL)
    coef = np.random.default_rng(m).random(20)
    np.testing.assert_allclose(_overlap_series(rows, n, q, beta, coef), moments @ coef,
                               rtol=TOL, atol=0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r_max", [1, 2, 20])
def test_horner_series_matches_the_moments_at_any_length(q, r_max):
    # the series is summed by Horner from its last term, which is also its
    # first at r_max = 1; the (4, 20) rows at beta = 40 are shifted
    n = 4
    for m, beta in ((6, 1.3), (20, 40.0)):
        rows = _exact_placements(n, m)[0]
        assert (beta * m > UNSHIFTED_EXPONENT) == (m == 20)
        expect = old_overlap_moments(upper_couplings(rows, n), n, q, beta, r_max) @ COEF[:r_max]
        series = _overlap_series(rows.astype(np.float64), n, q, beta, COEF[:r_max])
        np.testing.assert_allclose(series, expect, rtol=0, atol=TOL)


@pytest.mark.parametrize("exact_budget, samples", [(DEFAULT_EXACT_BUDGET, 8), (0, 9000)])
def test_shared_workspace_matches_fresh_buffers(exact_budget, samples, monkeypatch):
    # the orbit table, cut into 64-row chunks, and 9 000 draws span several
    # chunks, the last ones partial; one workspace shared by every chunk
    # leaks no stale rows
    n, q, m, beta = 6, 3, 6, 1.3
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", exact_budget)
    if exact_budget:
        monkeypatch.setattr(disorder, "CHUNK", 64)
    rows = len(_exact_placements(n, m)[0]) if exact_budget else samples
    assert rows // disorder.CHUNK >= 2 and rows % disorder.CHUNK
    work = _workspace(n, q)
    for kernel in (lambda rows, buf: _lnz_batch(rows, n, q, beta, buf),
                   lambda rows, buf: _overlap_series(rows, n, q, beta, COEF, buf)):
        shared = stratum_average(n, m, lambda rows: kernel(rows, work), samples, 4)
        fresh = stratum_average(n, m, lambda rows: kernel(rows, np.full_like(work, np.nan)),
                                samples, 4)
        assert shared[2] == fresh[2] == (0 if exact_budget else samples)
        assert all(np.array_equal(a, b) for a, b in zip(shared[:2], fresh[:2]))


@pytest.mark.parametrize("q, beta, c, n", [(2, 1.0, 2.0, 3), (3, 2.0, 4.0, 4)])
def test_exact_budget_zero_matches_unreduced_kernel(q, beta, c, n, monkeypatch):
    params = ModelParams(q=q, beta=beta, c=c)
    eps, seed, mc_samples = 2e-4, 5, 64
    lam, p = c * (n - 1) / 2.0, n * (n - 1) // 2
    m_max = poisson_cutoff(lambda m: (beta / n) * lam * poisson_sf(m, lam), 0.5 * eps,
                           M_MAX_CAP)
    pmf = poisson_pmf_vector(m_max, lam)
    seeds = np.random.SeedSequence(seed).spawn(m_max + 1)
    value = pmf[0] * math.log(q) + (1.0 - pmf.sum()) * math.log(q) - beta * c / (2 * n)
    for m in range(1, m_max + 1):
        budget = max(256, min(8 * mc_samples, int(4 * mc_samples * pmf[m]) + 1))
        draws = uniform_pair_counts(stream(seeds[m]), p, np.full(budget, m))
        values = old_lnz(upper_couplings(draws, n), n, q, beta) / n
        value += pmf[m] * cross_fitted(values, occupancy_control(draws, m)[:, None])[0]
    monkeypatch.setattr(disorder, "DEFAULT_EXACT_BUDGET", 0)
    est = quenched_pressure_exact(params, n, eps=eps, seed=seed, mc_samples=mc_samples)
    assert abs(est.value - value) <= TOL


# ---------------------------------------------------------------------------
# the strata pass: exact strata batched into shared kernel calls
# ---------------------------------------------------------------------------

def per_stratum_engine(n: int, per_j, budgets: np.ndarray, seed: int, *controls):
    """The engine with every exact stratum averaged on its own, as before the
    strata shared kernel calls: its orbit table in 4 096-row chunks and one
    weighted sum (tensordot) per chunk.  Monte Carlo strata are the engine's."""
    means, sems = _conditional_average(n, per_j, budgets, seed, *controls)
    for m in np.flatnonzero(budgets == 0):
        rows, weights = _exact_placements(n, m)
        means[m] = sum(np.tensordot(weights[i:i + 4096], per_j(rows[i:i + 4096]), axes=1)
                       for i in range(0, len(rows), 4096))
    return means, sems


def test_table_blocks_read_the_tables_in_order(monkeypatch):
    monkeypatch.setattr(disorder, "CHUNK", 5)
    sizes = [3, 1, 12, 5, 2]
    tables = [(np.arange(2 * k).reshape(k, 2) + 100 * i, np.arange(k) + 100.0 * i)
              for i, k in enumerate(sizes)]
    blocks = list(disorder._table_blocks(tables))
    filled = [sum(len(w) for w in weights) for _, weights, _, _ in blocks]
    assert filled == [5, 5, 5, 5, 3]
    for rows, weights, owners, starts in blocks:
        assert starts == np.cumsum([0] + [len(w) for w in weights[:-1]]).tolist()
        assert all(np.shares_memory(r, tables[k][0]) for r, k in zip(rows, owners))  # views
    for k, (table_rows, table_weights) in enumerate(tables):
        pieces = [(r, w) for rows, weights, owners, _ in blocks
                  for r, w, owner in zip(rows, weights, owners) if owner == k]
        assert np.array_equal(np.concatenate([r for r, _ in pieces]), table_rows)
        assert np.array_equal(np.concatenate([w for _, w in pieces]), table_weights)
    assert max(len(owners) for _, _, owners, _ in blocks) == 3  # tables 0-2 share a block


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batched_exact_strata_match_per_stratum_loop(q, n, monkeypatch):
    # both estimators, with blocks of 37 rows that straddle strata, against
    # the per-stratum exact loop; the Monte Carlo strata (N >= 5) draw the
    # same rows at any block size
    params = ModelParams(q=q, beta=1.3, c=2.0)
    estimators = (lambda: quenched_pressure_exact(params, n, eps=2e-4, seed=3, mc_samples=64),
                  lambda: disorder.sum_rule_deficit(params, n, 20, 3, seed=3))
    monkeypatch.setattr(disorder, "SUM_RULE_MC_SAMPLES", 64)
    with monkeypatch.context() as patch:
        patch.setattr(disorder, "_conditional_average", per_stratum_engine)
        old = [estimator() for estimator in estimators]
    calls = []
    kernel = disorder._class_weights
    monkeypatch.setattr(disorder, "_class_weights",
                        lambda rows, *args: calls.append(len(rows)) or kernel(rows, *args))
    monkeypatch.setattr(disorder, "CHUNK", 37)
    for before, estimator in zip(old, estimators):
        calls.clear()
        new = estimator()
        assert new.samples == before.samples and new.tail_bound == before.tail_bound
        assert abs(new.value - before.value) <= TOL
        assert new.stat_error == pytest.approx(before.stat_error, rel=1e-12, abs=0)
        assert max(calls) <= 37 and (new.samples > 0) == (n >= 5)


def test_balanced_energies_bit_identical():
    rng = np.random.default_rng(3)
    for n, q in [(4, 2), (6, 3), (6, 2)]:
        J = rng.poisson(1.0, size=(n, n))
        cfg = np.array(list(multiset_permutations([n // q] * q)), dtype=np.int8)
        old = np.array([float(J[s[:, None] == s[None, :]].sum()) for s in cfg.astype(np.int64)])
        assert np.array_equal(config_energies(cfg, J), old)
        beta = 0.7
        assert abs(restricted_partition_balanced(J, beta, q)
                   - logsumexp(-beta * old)) <= TOL


# ---------------------------------------------------------------------------
# single-graph quantities over colour classes
# ---------------------------------------------------------------------------

def old_colour_classes(n: int, q: int):
    """Restricted-growth strings filtered from all q^n configurations, with
    their pair indicator and log multiplicities: the table before the
    strings were grown site by site."""
    cfg = config_block(n, q, 0, q**n)
    top = np.maximum.accumulate(cfg, axis=1)
    reps = cfg[(cfg[:, 0] == 0) & np.all(cfg[:, 1:] <= top[:, :-1] + 1, axis=1)]
    i, j = np.triu_indices(n, 1)
    log_mult = np.array([math.lgamma(q + 1) - math.lgamma(q - b) for b in reps.max(axis=1)])
    return reps, (reps[:, i] == reps[:, j]).astype(np.float64), log_mult


def enumerated(J: np.ndarray, q: int) -> np.ndarray:
    """H of every configuration in counting order, summed over the ordered pairs."""
    n = J.shape[0]
    cfg = config_block(n, q, 0, q**n)
    same = cfg[:, :, None] == cfg[:, None, :]
    return np.einsum("sij,ij->s", same, J.astype(np.float64))


SINGLE_GRAPH_SIZES = ([(2, n) for n in range(1, 15)] + [(3, n) for n in range(1, 10)]
                      + [(4, n) for n in range(1, 8)] + [(5, 4), (6, 3), (7, 2), (5, 1)])


@pytest.mark.parametrize("q, n", SINGLE_GRAPH_SIZES)
def test_class_representatives_match_the_filter(q, n):
    reps, log_mult = class_representatives(n, q)
    old_reps, old_indicator, old_log_mult = old_colour_classes(n, q)
    assert reps.dtype == np.int8 and np.array_equal(reps, old_reps)
    np.testing.assert_allclose(log_mult, old_log_mult, rtol=0, atol=TOL)
    # the disorder kernel's indicator is derived from the same table, row for row
    indicator, kernel_log_mult = colour_classes(n, q)
    assert np.array_equal(indicator, old_indicator)
    assert np.array_equal(kernel_log_mult, log_mult)
    assert not reps.flags.writeable and not indicator.flags.writeable


@pytest.mark.parametrize("q, n", SINGLE_GRAPH_SIZES)
def test_single_graph_over_classes_matches_enumeration(q, n):
    rng = np.random.default_rng(1000 * q + n)
    integer = rng.poisson(2.0 / n, size=(n, n))  # self-loops included
    dyadic = np.round(rng.exponential(0.5, size=(n, n)) * 64) / 64  # exact float sums
    generic = rng.exponential(0.5, size=(n, n)) * (rng.random((n, n)) < 0.6)
    for J in (integer, dyadic, generic):
        energies = enumerated(J, q)
        for beta in (0.0, 0.7, 40.0):
            lnz = float(logsumexp(-beta * energies))
            assert abs(log_partition(J, beta, q) - lnz) <= TOL
            assert abs(pressure_density(J, beta, q) - lnz / n) <= TOL
            # s = ln Z + beta <E>, against the least energy so that no large terms cancel
            shifted = -beta * (energies - energies.min())
            lnz_shifted = float(logsumexp(shifted))
            entropy = (lnz_shifted - float(np.exp(shifted - lnz_shifted) @ shifted)) / n
            assert abs(entropy_density(J, beta, q) - entropy) <= TOL
        if J is not generic:  # exact energies, so the ground states tie exactly
            ground = int((energies == energies.min()).sum())
            assert entropy_density(J, math.inf, q) == math.log(ground) / n


def test_ground_count_is_exact_integer_sum():
    # no couplings: every configuration is a ground state, q^N of them
    for q, n in [(2, 14), (3, 9), (7, 5)]:
        assert entropy_density(np.zeros((n, n), dtype=int), math.inf, q) == math.log(q**n) / n
    # a 4-cycle at q = 3: 18 proper colourings
    J = np.zeros((4, 4), dtype=int)
    J[[0, 1, 2, 3], [1, 2, 3, 0]] = 1
    assert entropy_density(J, math.inf, 3) == math.log(18) / 4


def test_single_graph_builds_no_pair_indicator():
    # (2, 14): 8 192 classes x 91 pairs would be a 6 MB float table
    n, q = 14, 2
    J = sample_couplings(n, 4.0, 3)
    table_bytes = len(class_representatives(n, q)[0]) * (n * (n - 1) // 2) * 8
    before = colour_classes.cache_info()
    tracemalloc.start()
    try:
        for beta in (1.0, math.inf):
            entropy_density(J, beta, q)
        pressure_density(J, 1.0, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert colour_classes.cache_info() == before
    assert peak < 0.75 * table_bytes


@pytest.mark.parametrize("fn", [log_partition, pressure_density, entropy_density])
def test_budget_guard_builds_no_class_table(fn):
    class_representatives.cache_clear()
    colour_classes.cache_clear()  # its log multiplicities are class_representatives' arrays
    with pytest.raises(BudgetExceededError):
        fn(np.zeros((10, 10), dtype=int), 1.0, 3)  # 3^10 configurations, past the budget
    info = class_representatives.cache_info()
    assert info.currsize == 0 and info.misses == 0


@pytest.mark.parametrize("fn", [
    log_partition, pressure_density, entropy_density,
    # the counting-order enumerations, as (J, beta, q) -> comparable value
    pytest.param(lambda J, beta, q: tuple(all_energies(J, q)), id="all_energies"),
    pytest.param(lambda J, beta, q: tuple(gibbs_weights(J, beta, q)), id="gibbs_weights"),
    pytest.param(lambda J, beta, q: gibbs_replica_expectation(J, beta, q, 1, np.sum),
                 id="gibbs_replica_expectation"),
])
def test_budget_guard_with_numpy_q(fn, monkeypatch):
    # np.int64(2) ** 64 wraps to 0; the budget must see 2^64.  A table built
    # past the guard would have 2^63 rows, so building one fails the test.
    assert fn(np.ones((4, 4)), 1.0, np.int64(3)) == fn(np.ones((4, 4)), 1.0, 3)
    monkeypatch.setattr(model, "class_representatives",
                        lambda n, q: pytest.fail(f"class table built at (N, q) = ({n}, {q})"))
    with pytest.raises(BudgetExceededError):
        fn(np.zeros((64, 64)), 1.0, np.int64(2))


@pytest.mark.parametrize("fn", [
    lambda p: quenched_pressure_exact(p, 64),
    lambda p: quenched_pressure_mc(p, 64, 4, 0),
    lambda p: disorder.sum_rule_deficit(p, 64, 4, 3),
], ids=["quenched_pressure_exact", "quenched_pressure_mc", "sum_rule_deficit"])
def test_disorder_budget_guard_with_numpy_q(fn, monkeypatch):
    monkeypatch.setattr(model, "class_representatives",
                        lambda n, q: pytest.fail(f"class table built at (N, q) = ({n}, {q})"))
    with pytest.raises(BudgetExceededError):
        fn(ModelParams(np.int64(2), 1.0, 1.0))


@pytest.mark.parametrize("fn, q, n", [
    (lambda: quenched_pressure_exact(ModelParams(3, 1.0, 2.0), 10_000), 3, 10_000),
    (lambda: disorder.sum_rule_deficit(ModelParams(2, 1.0, 2.0), 20_000, 20, 16), 2, 20_000),
    (lambda: quenched_pressure_mc(ModelParams(2, 1.0, 2.0), 10**7, 4, 0), 2, 10**7),
    (lambda: gibbs_replica_expectation(np.ones((4, 4)), 1.0, 3, 10**6, np.sum), 3, 4 * 10**6),
], ids=["quenched_pressure_exact", "sum_rule_deficit", "quenched_pressure_mc",
        "gibbs_replica_expectation"])
def test_budget_guard_refuses_a_huge_n_at_once(fn, q, n):
    # q^N past 4 300 digits once failed to format into the message, and at
    # N = 10^7 took seconds to form; the guard names q, N and the budget
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        fn()
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == (f"enumerating q^N = {q}^{n} configurations exceeds "
                              f"enumeration budget {model.DEFAULT_ENUM_BUDGET}")


def test_budget_guard_admits_the_budget_exactly(monkeypatch):
    # the log test only skips powers past e times the budget
    monkeypatch.setattr(model, "DEFAULT_ENUM_BUDGET", 3**9)
    assert model._check_budget(3, 9) == 3**9
    with pytest.raises(BudgetExceededError):
        model._check_budget(3, 10)
    monkeypatch.setattr(model, "DEFAULT_ENUM_BUDGET", 3**9 - 1)
    with pytest.raises(BudgetExceededError):
        model._check_budget(3, 9)
    assert model._check_budget(1, 10**400) == 1
    with pytest.raises(BudgetExceededError):
        model._check_budget(2, 10**400)  # past any float


@pytest.mark.parametrize("fn", [log_partition, pressure_density, entropy_density])
@pytest.mark.parametrize("J, beta", [
    (np.zeros((0, 0)), 1.0),
    (np.array([[0.0, math.nan], [0.0, 0.0]]), 1.0),
    (np.array([[0.0, math.inf], [0.0, 0.0]]), 0.0),
    (np.array([[math.inf]]), 1.0),
])
def test_single_graph_rejects_empty_and_nonfinite_couplings(fn, J, beta):
    with pytest.raises(ValueError, match="coupling matrix"):
        fn(J, beta, 2)


@pytest.mark.parametrize("fn", [log_partition, pressure_density, entropy_density])
@pytest.mark.parametrize("q", [0, 2.0, 2.5])
def test_single_graph_rejects_non_integer_q(fn, q):
    # 2.0 == 2 would otherwise share the integer class table's cache entry
    class_representatives(3, 2)
    with pytest.raises(ValueError, match="q must be an integer"):
        fn(np.ones((3, 3)), 1.0, q)


@pytest.mark.parametrize("beta", [math.nan, -0.5])
def test_entropy_rejects_nan_and_negative_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        entropy_density(np.ones((3, 3)), beta, 2)


@pytest.mark.parametrize("J, beta, q, match", [
    ([[0, -1], [-1, 0]], 1.0, 2, ">= 0"),
    ([[0, 1, 0]], 1.0, 2, "square"),
    ([[0, math.nan], [0, 0]], 1.0, 2, "finite"),
    (np.zeros((0, 0)), 1.0, 2, "at least one site"),
    ([[0, 1], [0, 0]], -1.0, 2, "beta"),
    ([[0, 1], [0, 0]], math.nan, 2, "beta"),
    (np.zeros((4, 4)), 1.0, 0, "q must be"),
])
def test_balanced_partition_validates_inputs(J, beta, q, match):
    with pytest.raises(ValueError, match=match):
        restricted_partition_balanced(J, beta, q)


@pytest.mark.parametrize("n, q", [(1, 1), (4, 2), (6, 2), (6, 3), (9, 3), (8, 4)])
def test_balanced_partition_fixes_the_first_site(n, q, monkeypatch):
    # only the N!/((N/q)!)^q / q configurations with sigma_0 = 0 are enumerated
    # and ln q is added back; the ground counts stay exact integers
    rng = np.random.default_rng(n * q)
    J = rng.poisson(2.0 / n, size=(n, n))
    np.fill_diagonal(J, 0)
    full = np.array(list(multiset_permutations([n // q] * q)), dtype=np.int8)
    energies = config_energies(full, J)
    seen = []
    monkeypatch.setattr(disorder, "config_energies",
                        lambda cfg, J: seen.append(cfg.copy()) or config_energies(cfg, J))
    for beta in (0.0, 0.7, 40.0):
        assert abs(restricted_partition_balanced(J, beta, q)
                   - logsumexp(-beta * energies)) <= TOL
    ground = int((energies == 0.0).sum())
    expect = math.log(ground) if ground else -math.inf
    assert restricted_partition_balanced(J, math.inf, q) == expect
    assert all(len(cfg) == len(full) // q and not cfg[:, 0].any() for cfg in seen)
