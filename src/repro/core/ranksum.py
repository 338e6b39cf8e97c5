"""The Wilcoxon rank-sum (Mann-Whitney) test, implemented from scratch.

The paper chooses this non-parametric test because back-off samples are
far from Gaussian (they are bounded, discrete, and mixture-shaped), so
t-tests are inappropriate.  The monitor's question is one-sided: *are
the observed back-offs stochastically smaller than the dictated ones?*

Implementation notes:

- ranks use the average-rank convention for ties;
- for small combined samples without ties the *exact* null distribution
  of the rank sum is computed by dynamic programming;
- otherwise the normal approximation with tie correction and continuity
  correction is used (the standard large-sample treatment).

:func:`rank_sum_many` evaluates many windows in one numpy pass and is
bit-identical to :func:`rank_sum_test` window for window; the streaming
service's scheduler uses it to rank a flush's worth of windows at once.

``scipy.stats.ranksums`` exists, but the test is the analytical heart of
the paper's statistical method, so it is implemented here (and verified
against scipy in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

ALTERNATIVES = ("two-sided", "less", "greater")

#: Largest combined sample size for which the exact null is enumerated.
EXACT_LIMIT = 25

_SQRT2 = math.sqrt(2.0)


def check_alternative(alternative: str) -> str:
    """``alternative`` if it names a test direction; ValueError otherwise."""
    if alternative not in ALTERNATIVES:
        raise ValueError(
            f"alternative must be one of {ALTERNATIVES}, got {alternative!r}"
        )
    return alternative


def wilcoxon_ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based) of ``values``, ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = mean_rank
        i = j + 1
    return ranks


@dataclass(frozen=True)
class RankSumResult:
    """Outcome of one rank-sum test."""

    statistic: float       # rank sum of the second sample (y)
    u_statistic: float     # Mann-Whitney U of the second sample
    p_value: float
    alternative: str
    method: str            # "exact" or "normal"
    n_x: int
    n_y: int


# n_y <= n_total <= EXACT_LIMIT gives at most 25 * 26 / 2 = 325 distinct
# (n_y, n_total) pairs, so 512 entries can never evict a live table; the
# previous 4096 bound was paying dict overhead for slots that could not
# be reached.
@lru_cache(maxsize=512)
def _exact_cdf_table(n_y: int, n_total: int) -> Tuple[int, ...]:
    """Counts of rank subsets: ways[s] = #(size-n_y subsets of 1..n_total
    with rank sum s).  Cached per (n_y, n_total)."""
    max_sum = n_total * (n_total + 1) // 2
    # Knapsack DP over ranks; the inner sum axis is one vectorized
    # shifted-slice add per (rank, k).  k runs high-to-low so each rank
    # is counted at most once per subset; rows never overlap in memory,
    # keeping the in-place adds well-defined.  Counts stay exact: the
    # largest entry is comb(25, 12) ~ 5.2e6, far inside int64.
    ways = np.zeros((n_y + 1, max_sum + 1), dtype=np.int64)
    ways[0, 0] = 1
    for rank in range(1, n_total + 1):
        for k in range(min(rank, n_y), 0, -1):
            ways[k, rank:] += ways[k - 1, : max_sum + 1 - rank]
    # Plain-int tuple so downstream sums/divisions stay Python floats.
    return tuple(int(count) for count in ways[n_y])


def tie_group_sizes(ordered: Sequence[float]) -> List[int]:
    """Sizes (> 1) of equal-value runs in an ascending-sorted sample.

    One pass over the sorted sample; ascending order keeps the float
    tie-correction summation in :func:`_normal_p` order-stable (set
    iteration order would be hash-seed dependent, and the old
    ``combined.count`` scan was O(n^2)).
    """
    sizes: List[int] = []
    run = 1
    for i in range(1, len(ordered)):
        if ordered[i] == ordered[i - 1]:
            run += 1
        else:
            if run > 1:
                sizes.append(run)
            run = 1
    if run > 1:
        sizes.append(run)
    return sizes


def _exact_p(w_y: float, n_y: int, n_total: int, alternative: str) -> float:
    counts = _exact_cdf_table(n_y, n_total)
    total = math.comb(n_total, n_y)
    w = int(round(w_y))
    cdf_le = sum(counts[: w + 1]) / total
    sf_ge = sum(counts[w:]) / total
    if alternative == "less":
        return cdf_le
    if alternative == "greater":
        return sf_ge
    return min(1.0, 2.0 * min(cdf_le, sf_ge))


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _normal_p(
    w_y: float,
    n_x: int,
    n_y: int,
    tie_sizes: List[int],
    alternative: str,
) -> float:
    n_total = n_x + n_y
    mean = n_y * (n_total + 1) / 2.0
    variance = n_x * n_y * (n_total + 1) / 12.0
    if tie_sizes:
        tie_term = sum(t**3 - t for t in tie_sizes)
        variance -= n_x * n_y * tie_term / (12.0 * n_total * (n_total - 1))
    if variance <= 0:
        # All observations identical: no evidence either way.
        return 1.0
    sd = math.sqrt(variance)
    if alternative == "less":
        return _phi((w_y - mean + 0.5) / sd)
    if alternative == "greater":
        return 1.0 - _phi((w_y - mean - 0.5) / sd)
    z = (w_y - mean) / sd
    return min(1.0, 2.0 * (1.0 - _phi(abs(z) - 0.5 / sd)))


def rank_sum_test(
    x: Iterable[float],
    y: Iterable[float],
    alternative: str = "two-sided",
) -> RankSumResult:
    """Wilcoxon rank-sum test of sample ``y`` against sample ``x``.

    ``alternative`` describes ``y`` relative to ``x``:

    - ``"less"``     — H1: y is stochastically smaller than x (the
      misbehavior direction: observed back-offs shorter than dictated);
    - ``"greater"``  — H1: y is stochastically larger;
    - ``"two-sided"``— H1: the distributions differ.

    Returns a :class:`RankSumResult`.
    """
    check_alternative(alternative)
    x = list(x)
    y = list(y)
    if not x or not y:
        raise ValueError("rank_sum_test requires two non-empty samples")

    combined = x + y
    ranks = wilcoxon_ranks(combined)
    w_y = sum(ranks[len(x) :])
    n_x, n_y = len(x), len(y)
    u_y = w_y - n_y * (n_y + 1) / 2.0

    # Tie group sizes for the variance correction / exact-method gate.
    tie_sizes = tie_group_sizes(sorted(combined))

    if not tie_sizes and (n_x + n_y) <= EXACT_LIMIT:
        p = _exact_p(w_y, n_y, n_x + n_y, alternative)
        method = "exact"
    else:
        p = _normal_p(w_y, n_x, n_y, tie_sizes, alternative)
        method = "normal"
    return RankSumResult(
        statistic=w_y,
        u_statistic=u_y,
        p_value=min(max(p, 0.0), 1.0),
        alternative=alternative,
        method=method,
        n_x=n_x,
        n_y=n_y,
    )


def rank_sum_many(
    xs: Sequence[Sequence[float]],
    ys: Sequence[Sequence[float]],
    alternative: str = "two-sided",
) -> List[RankSumResult]:
    """Batched Wilcoxon rank-sum tests, bit-identical to the scalar path.

    ``xs[i]``/``ys[i]`` are the i-th window's dictated/estimated
    samples; windows may have different lengths (rows are padded with
    ``+inf``, which sorts past every finite sample and never joins a
    finite tie group).  Returns one :class:`RankSumResult` per window
    whose every field equals ``rank_sum_test(xs[i], ys[i], alternative)``
    exactly:

    * ranks are half-integers, so rank sums are exact in float64 in any
      summation order;
    * the tie correction's ``sum(t**3 - t)`` is integer arithmetic;
    * the normal approximation repeats the scalar operation order
      elementwise (IEEE-correctly-rounded ops on identical inputs), and
      ``math.erf`` is applied per element;
    * tie-free small windows fall back to the shared memoized exact-null
      tables behind :func:`_exact_p`.
    """
    check_alternative(alternative)
    if len(xs) != len(ys):
        raise ValueError("rank_sum_many requires as many x rows as y rows")
    batch = len(xs)
    if batch == 0:
        return []
    n_x = np.array([len(x) for x in xs], dtype=np.int64)
    n_y = np.array([len(y) for y in ys], dtype=np.int64)
    if not (n_x.min() and n_y.min()):
        raise ValueError("rank_sum_test requires two non-empty samples")
    n_total = n_x + n_y
    width = int(n_total.max())

    # Fill the padded sample matrix with two boolean-mask assignments:
    # C-order mask filling enumerates (row, ascending column) exactly
    # like concatenating the rows, so a flat value list drops into
    # place without a per-row python loop.
    index = np.arange(width, dtype=np.int64)
    in_x = index[np.newaxis, :] < n_x[:, np.newaxis]
    in_row = index[np.newaxis, :] < n_total[:, np.newaxis]
    combined = np.full((batch, width), np.inf, dtype=np.float64)
    combined[in_x] = [v for row in xs for v in row]
    combined[in_row & ~in_x] = [v for row in ys for v in row]

    # Average ranks with ties, vectorized: stable argsort (the scalar
    # sort is stable too, so tie groups enumerate identically), then
    # every sorted position learns its tie group's [first, last] bounds
    # via running max/min scans, giving mean rank (first+last)/2 + 1.
    order = np.argsort(combined, axis=1, kind="stable")
    svals = np.take_along_axis(combined, order, axis=1)
    first_of_group = np.ones((batch, width), dtype=bool)
    np.not_equal(svals[:, 1:], svals[:, :-1], out=first_of_group[:, 1:])
    group_first = np.maximum.accumulate(
        np.where(first_of_group, index, -1), axis=1
    )
    last_of_group = np.empty((batch, width), dtype=bool)
    last_of_group[:, -1] = True
    last_of_group[:, :-1] = first_of_group[:, 1:]
    group_last = np.minimum.accumulate(
        np.where(last_of_group, index, width)[:, ::-1], axis=1
    )[:, ::-1]
    mean_rank = (group_first + group_last) / 2.0 + 1.0
    ranks = np.empty_like(combined)
    np.put_along_axis(ranks, order, mean_rank, axis=1)

    w_y = np.where(in_row & ~in_x, ranks, 0.0).sum(axis=1)
    u_y = w_y - (n_y * (n_y + 1)) / 2.0

    # Tie group sizes live on the sorted axis; only groups of real
    # samples count (the +inf padding forms its own group past n_total).
    sizes = group_last - group_first + 1
    real_group = first_of_group & in_row
    tie_term = np.where(real_group, sizes**3 - sizes, 0).sum(axis=1)
    has_ties = tie_term > 0

    exact_rows = ~has_ties & (n_total <= EXACT_LIMIT)
    # Normal approximation, mirroring _normal_p's operation order.
    nt_float = n_total.astype(np.float64)
    mean = (n_y * (n_total + 1)) / 2.0
    variance = (n_x * n_y * (n_total + 1)) / 12.0
    correction = (n_x * n_y * tie_term) / (12.0 * nt_float * (nt_float - 1.0))
    variance = variance - correction
    degenerate = variance <= 0
    sd = np.sqrt(np.where(degenerate, 1.0, variance))
    if alternative == "less":
        args = (w_y - mean + 0.5) / sd
    elif alternative == "greater":
        args = (w_y - mean - 0.5) / sd
    else:
        z = (w_y - mean) / sd
        args = np.abs(z) - 0.5 / sd

    results: List[RankSumResult] = []
    arg_list = args.tolist()
    for i in range(batch):
        ny_i = int(n_y[i])
        nt_i = int(n_total[i])
        wy_i = float(w_y[i])
        if exact_rows[i]:
            p = _exact_p(wy_i, ny_i, nt_i, alternative)
            method = "exact"
        else:
            method = "normal"
            if degenerate[i]:
                p = 1.0
            elif alternative == "less":
                p = _phi(arg_list[i])
            elif alternative == "greater":
                p = 1.0 - _phi(arg_list[i])
            else:
                p = min(1.0, 2.0 * (1.0 - _phi(arg_list[i])))
        results.append(
            RankSumResult(
                statistic=wy_i,
                u_statistic=float(u_y[i]),
                p_value=min(max(p, 0.0), 1.0),
                alternative=alternative,
                method=method,
                n_x=int(n_x[i]),
                n_y=ny_i,
            )
        )
    return results
