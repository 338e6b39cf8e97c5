"""Unit tests for the from-scratch Wilcoxon rank-sum test.

Cross-validated against scipy.stats (available in the environment) on
both the normal-approximation and exact paths.  The batched kernel
``rank_sum_many`` is held to *bit-identity* with ``rank_sum_test``
(``==`` on floats, not approx): the fingerprint suites hash reprs of
everything downstream of a p-value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core.ranksum import (
    ALTERNATIVES,
    EXACT_LIMIT,
    RankSumResult,
    _exact_cdf_table,
    rank_sum_many,
    rank_sum_test,
    tie_group_sizes,
    wilcoxon_ranks,
)


class TestRanks:
    def test_simple_ranks(self):
        assert wilcoxon_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_tie_average(self):
        assert wilcoxon_ranks([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_all_tied(self):
        assert wilcoxon_ranks([7, 7, 7, 7]) == [2.5] * 4

    def test_rank_sum_invariant(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        n = len(values)
        assert sum(wilcoxon_ranks(values)) == pytest.approx(n * (n + 1) / 2)

    def test_empty(self):
        assert wilcoxon_ranks([]) == []


class TestBasicProperties:
    def test_identical_populations_high_p(self):
        x = list(range(20))
        y = list(range(20))
        result = rank_sum_test(x, y, "two-sided")
        assert result.p_value > 0.5

    def test_shifted_population_detected(self):
        x = list(range(100, 130))
        y = list(range(0, 30))
        result = rank_sum_test(x, y, "less")
        assert result.p_value < 1e-6

    def test_wrong_direction_not_detected(self):
        x = list(range(0, 30))
        y = list(range(100, 130))
        assert rank_sum_test(x, y, "less").p_value > 0.99
        assert rank_sum_test(x, y, "greater").p_value < 1e-6

    def test_two_sided_catches_both_directions(self):
        x = list(range(0, 30))
        y = list(range(100, 130))
        assert rank_sum_test(x, y, "two-sided").p_value < 1e-6
        assert rank_sum_test(y, x, "two-sided").p_value < 1e-6

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([], [1, 2])

    def test_bad_alternative_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([1], [2], "sideways")

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=8).tolist()
            y = rng.normal(size=6).tolist()
            for alt in ("less", "greater", "two-sided"):
                assert 0.0 <= rank_sum_test(x, y, alt).p_value <= 1.0

    def test_statistic_is_y_rank_sum(self):
        x = [10, 20]
        y = [1, 2]
        result = rank_sum_test(x, y)
        assert result.statistic == 3.0  # y holds ranks 1 and 2
        assert result.u_statistic == 0.0

    def test_method_selection(self):
        small_x = list(range(0, 10))
        small_y = [v + 0.5 for v in range(10, 20)]
        assert rank_sum_test(small_x, small_y).method == "exact"
        big = list(range(40))
        big_y = [v + 0.5 for v in range(40)]
        assert rank_sum_test(big, big_y).method == "normal"

    def test_ties_force_normal_method(self):
        x = [1, 2, 3]
        y = [3, 4, 5]
        assert rank_sum_test(x, y).method == "normal"


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_large_sample_matches_mannwhitneyu(self, seed, alternative):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, size=40)
        y = rng.normal(0.3, 1, size=35)
        ours = rank_sum_test(x.tolist(), y.tolist(), alternative)
        theirs = scipy_stats.mannwhitneyu(
            y, x, alternative=alternative, method="asymptotic"
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-3, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_exact_matches_mannwhitneyu_exact(self, seed, alternative):
        rng = np.random.default_rng(100 + seed)
        # Continuous draws: no ties, small samples -> exact path.
        x = rng.normal(0, 1, size=9)
        y = rng.normal(0.5, 1, size=8)
        ours = rank_sum_test(x.tolist(), y.tolist(), alternative)
        assert ours.method == "exact"
        theirs = scipy_stats.mannwhitneyu(
            y, x, alternative=alternative, method="exact"
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)

    def test_u_statistic_matches_scipy(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=12)
        y = rng.normal(size=15)
        ours = rank_sum_test(x.tolist(), y.tolist())
        theirs = scipy_stats.mannwhitneyu(y, x, alternative="two-sided")
        assert ours.u_statistic == pytest.approx(theirs.statistic)


def _tie_sizes_reference(combined):
    """The original O(n^2) tie scan, kept verbatim as the oracle."""
    sizes = []
    for value in sorted(set(combined)):
        t = combined.count(value)
        if t > 1:
            sizes.append(t)
    return sizes


class TestTieSizes:
    """The one-pass tie scan must reproduce the O(n^2) original exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_quadratic_reference(self, seed):
        rng = np.random.default_rng(seed)
        # Coarse integer draws force heavy ties; occasional floats mix in.
        combined = rng.integers(0, 6, size=rng.integers(1, 60)).astype(
            float
        ).tolist()
        if seed % 2:
            combined += rng.uniform(0, 3, size=5).round(1).tolist()
        assert tie_group_sizes(sorted(combined)) == _tie_sizes_reference(
            combined
        )

    def test_edge_cases(self):
        assert tie_group_sizes([]) == []
        assert tie_group_sizes([1.0]) == []
        assert tie_group_sizes([1.0, 2.0, 3.0]) == []
        assert tie_group_sizes([2.0, 2.0, 2.0]) == [3]
        assert tie_group_sizes([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]) == [2, 3]

    def test_order_is_ascending_by_value(self):
        # _normal_p sums tie_sizes in this order; it must stay ascending.
        combined = [5.0, 5.0, 5.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0]
        assert tie_group_sizes(sorted(combined)) == [2, 3, 4]


def _exact_table_reference(n_total):
    """The original pure-python DP, run once per n_total with n_y=n_total.

    Row ``k`` of the 2-D table is exactly what the original
    ``_exact_cdf_table(k, n_total)`` returned: bounding the DP by a
    smaller n_y only skips rows above it, never changes rows below.
    """
    max_sum = n_total * (n_total + 1) // 2
    ways = [[0] * (max_sum + 1) for _ in range(n_total + 1)]
    ways[0][0] = 1
    for rank in range(1, n_total + 1):
        for k in range(min(rank, n_total), 0, -1):
            row, prev = ways[k], ways[k - 1]
            for s in range(max_sum, rank - 1, -1):
                if prev[s - rank]:
                    row[s] += prev[s - rank]
    return ways


class TestExactTableVectorized:
    """The numpy DP must equal the original table for every reachable
    (n_y, n_total) pair up to EXACT_LIMIT."""

    def test_all_pairs_up_to_exact_limit(self):
        for n_total in range(1, EXACT_LIMIT + 1):
            reference = _exact_table_reference(n_total)
            for n_y in range(1, n_total + 1):
                table = _exact_cdf_table(n_y, n_total)
                assert table == tuple(reference[n_y]), (n_y, n_total)
                assert all(isinstance(c, int) for c in table)

    def test_total_count_is_binomial(self):
        import math

        for n_y, n_total in ((3, 8), (12, 25), (25, 25)):
            assert sum(_exact_cdf_table(n_y, n_total)) == math.comb(
                n_total, n_y
            )


class TestFalseAlarmCalibration:
    def test_type_i_error_near_alpha(self):
        """Under H0 the rejection rate must track the significance level."""
        rng = np.random.default_rng(42)
        alpha = 0.05
        trials = 400
        rejections = 0
        for _ in range(trials):
            x = rng.uniform(0, 32, size=20).tolist()
            y = rng.uniform(0, 32, size=20).tolist()
            if rank_sum_test(x, y, "less").p_value < alpha:
                rejections += 1
        rate = rejections / trials
        assert rate < 2.5 * alpha
        assert rate > 0.0  # sanity: the test does reject sometimes


# Samples that provoke every rank-sum regime: coarse integers force
# heavy ties (normal path), continuous floats stay tie-free (exact path
# for small windows), and tiny windows hit the degenerate-variance and
# all-identical corners.
tied_values = st.integers(min_value=0, max_value=6).map(float)
continuous_values = st.floats(
    min_value=-32.0, max_value=32.0, allow_nan=False, allow_infinity=False
)
sample_values = st.one_of(tied_values, continuous_values)
sample = st.lists(sample_values, min_size=1, max_size=30)


class TestRankSumManyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        windows=st.lists(st.tuples(sample, sample), min_size=1, max_size=8),
        alternative=st.sampled_from(ALTERNATIVES),
    )
    def test_bit_identical_to_scalar(self, windows, alternative):
        xs = [w[0] for w in windows]
        ys = [w[1] for w in windows]
        batched = rank_sum_many(xs, ys, alternative)
        for x, y, ours in zip(xs, ys, batched):
            scalar = rank_sum_test(x, y, alternative)
            assert ours == scalar  # dataclass equality: every field, exact

    @settings(max_examples=30, deadline=None)
    @given(x=sample, y=sample, alternative=st.sampled_from(ALTERNATIVES))
    def test_fields_are_plain_python_types(self, x, y, alternative):
        # np.float64 leaking into RankSumResult would poison downstream
        # verdict reprs (numpy 2.x reprs as "np.float64(...)"), which the
        # fingerprint suites hash.
        result = rank_sum_many([x], [y], alternative)[0]
        assert type(result.statistic) is float
        assert type(result.u_statistic) is float
        assert type(result.p_value) is float
        assert type(result.n_x) is int and type(result.n_y) is int

    def test_all_identical_samples(self):
        for alternative in ALTERNATIVES:
            batched = rank_sum_many([[3.0] * 8], [[3.0] * 5], alternative)[0]
            assert batched == rank_sum_test([3.0] * 8, [3.0] * 5, alternative)
            assert batched.p_value == 1.0
            assert batched.method == "normal"

    def test_mixed_methods_in_one_batch(self):
        xs = [[1.0, 2.5, 4.0], [1.0, 1.0, 2.0], list(range(30))]
        ys = [[0.5, 3.0], [1.0, 3.0], [v + 0.25 for v in range(30)]]
        results = rank_sum_many(xs, ys, "less")
        assert [r.method for r in results] == ["exact", "normal", "normal"]
        for x, y, ours in zip(xs, ys, results):
            assert ours == rank_sum_test(x, y, "less")

    @pytest.mark.parametrize("alternative", ALTERNATIVES)
    def test_cross_checked_against_scipy(self, alternative):
        rng = np.random.default_rng(13)
        xs, ys = [], []
        for _ in range(12):
            xs.append(rng.normal(0, 1, size=int(rng.integers(8, 40))).tolist())
            ys.append(rng.normal(0.3, 1, size=int(rng.integers(8, 40))).tolist())
        for x, y, ours in zip(xs, ys, rank_sum_many(xs, ys, alternative)):
            method = "exact" if ours.method == "exact" else "asymptotic"
            theirs = scipy_stats.mannwhitneyu(
                y, x, alternative=alternative, method=method
            )
            rel = 1e-9 if method == "exact" else 1e-3
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=rel, abs=1e-6)
            assert ours.u_statistic == pytest.approx(theirs.statistic)

    def test_empty_batch_and_validation(self):
        assert rank_sum_many([], [], "less") == []
        with pytest.raises(ValueError):
            rank_sum_many([[1.0]], [[1.0]], "sideways")
        with pytest.raises(ValueError):
            rank_sum_many([[1.0], []], [[1.0], [2.0]], "less")
        with pytest.raises(ValueError):
            rank_sum_many([[1.0]], [[1.0], [2.0]], "less")
