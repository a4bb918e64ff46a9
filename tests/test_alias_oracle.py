"""Alias draws that read their values from the table, against the row draw.

cascade._alias_draw reads pick[2 row + (frac < accept[row])] from a table
that carries the value of each row's alias and of the row itself
(replica._alias_picks).  The reference is the row draw it replaced,
np.where(frac < accept[row], row, alias[row]), followed by a read of the
values at those rows.  From the same generator state the two must give
bit-identical values, for the colour-class tables of G1 (values ln S) and
for the binomial tables of G2 (values the match count), k = 0 included,
where a run has a single row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from potts_af.cascade import _alias_draw, _ClassDraw, _leaf_matches
from potts_af.replica import _alias_tables, _binomial_alias, _class_alias
from potts_af.util import log_factorial, stream

LEAVES = 6


def reference_draw(rng, accept, alias, bounds, values, k, leaves):
    """The row draw before alias tables carried their values."""
    first = bounds[k][..., None]
    x = rng.random((*k.shape, leaves)) * (bounds[k + 1][..., None] - first)
    j = x.astype(np.int64)
    row = first + j
    return values[np.where(x - j < accept[row], row, alias[row])]


def slot_counts(seed, shape):
    """Poisson slot counts with k = 0 in the first cell."""
    k = stream(seed).poisson(3.0, size=shape)
    k.flat[0] = 0
    return k


@pytest.mark.parametrize("q", [2, 3, 4])
def test_class_draws_read_the_reference_values(q):
    k = slot_counts([q, 1], (300, 5))
    sampler = _ClassDraw(q, -0.73)
    assert sampler.covers(int(k.max()))
    accept, alias, bounds = _class_alias(sampler.top, q)
    new = _alias_draw(stream([q, 2]), sampler.table, k, LEAVES)
    old = reference_draw(stream([q, 2]), accept, alias, bounds, sampler.log_s, k, LEAVES)
    np.testing.assert_array_equal(new, old)
    np.testing.assert_array_equal(sampler.draw(stream([q, 2]), k, LEAVES), old.sum(axis=1))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_binomial_draws_read_the_reference_values(q):
    k = slot_counts([q, 3], 2000)
    k_top = int(k.max())
    # the reference builds its alias table from the binomial weights itself
    ks = np.arange(k_top + 2)
    bounds = ks * (ks + 1) // 2
    run = np.repeat(ks[:-1], ks[1:])
    j = np.arange(bounds[-1]) - bounds[run]
    logw = (log_factorial(run) - log_factorial(j) - log_factorial(run - j)
            - j * math.log(q) + (run - j) * math.log1p(-1.0 / q))
    accept, alias, _ = _alias_tables(logw, bounds)
    table = _binomial_alias(k_top, q)
    np.testing.assert_array_equal(table[0], accept)
    np.testing.assert_array_equal(table[2], bounds)
    new = _alias_draw(stream([q, 4]), table, k, LEAVES)
    old = reference_draw(stream([q, 4]), accept, alias, bounds, j, k, LEAVES)
    np.testing.assert_array_equal(new, old)
    matches = _leaf_matches(stream([q, 4]), k, q, None, 2, LEAVES // 2)
    np.testing.assert_array_equal(matches.reshape(len(k), -1), old)
