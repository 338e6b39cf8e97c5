"""Unit tests for the ARMA traffic-intensity estimator (paper eq. 6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.arma import ArmaTrafficEstimator
from repro.core.observation import ChannelViewBase


class TestUpdate:
    def test_first_update_seeds_estimate(self):
        est = ArmaTrafficEstimator()
        est.update(0.4)
        assert est.estimate == pytest.approx(0.4)

    def test_recursion_matches_eq6(self):
        est = ArmaTrafficEstimator(alpha=0.9)
        est.update(0.5)
        est.update(1.0)
        assert est.estimate == pytest.approx(0.9 * 0.5 + 0.1 * 1.0)

    def test_converges_to_constant_input(self):
        est = ArmaTrafficEstimator(alpha=0.9)
        for _ in range(300):
            est.update(0.7)
        assert est.estimate == pytest.approx(0.7, abs=1e-6)

    def test_alpha_near_one_is_smooth(self):
        smooth = ArmaTrafficEstimator(alpha=0.995)
        jumpy = ArmaTrafficEstimator(alpha=0.5)
        for est in (smooth, jumpy):
            est.update(0.2)
            est.update(0.9)
        assert abs(smooth.estimate - 0.2) < abs(jumpy.estimate - 0.2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ArmaTrafficEstimator().update(1.2)

    def test_default_alpha_matches_paper(self):
        assert ArmaTrafficEstimator().alpha == 0.995


class TestIngest:
    def test_before_data_estimate_zero(self):
        assert ArmaTrafficEstimator().estimate == 0.0

    def test_partial_interval_uses_raw_mean(self):
        est = ArmaTrafficEstimator(sample_interval_slots=1000)
        est.ingest(50, 100)
        assert not est.warmed_up
        assert est.estimate == pytest.approx(0.5)

    def test_full_interval_triggers_update(self):
        est = ArmaTrafficEstimator(sample_interval_slots=100)
        est.ingest(30, 100)
        assert est.warmed_up
        assert est.intervals_consumed == 1
        assert est.estimate == pytest.approx(0.3)

    def test_many_chunks_track_mean(self):
        est = ArmaTrafficEstimator(alpha=0.9, sample_interval_slots=100)
        for _ in range(500):
            est.ingest(60, 100)
        assert est.estimate == pytest.approx(0.6, abs=1e-3)

    def test_chunk_boundaries_irrelevant_for_constant_traffic(self):
        a = ArmaTrafficEstimator(alpha=0.95, sample_interval_slots=100)
        b = ArmaTrafficEstimator(alpha=0.95, sample_interval_slots=100)
        for _ in range(100):
            a.ingest(40, 100)
        for _ in range(200):
            b.ingest(20, 50)
        assert a.estimate == pytest.approx(b.estimate, abs=1e-6)

    def test_invalid_counts_rejected(self):
        est = ArmaTrafficEstimator()
        with pytest.raises(ValueError):
            est.ingest(10, 5)
        with pytest.raises(ValueError):
            est.ingest(-1, 5)

    def test_estimate_bounded(self):
        est = ArmaTrafficEstimator(sample_interval_slots=10)
        est.ingest(10, 10)
        est.ingest(0, 10)
        assert 0.0 <= est.estimate <= 1.0


def _timeline(busy):
    """A channel view holding the given ``(start, end)`` busy intervals."""
    view = ChannelViewBase()
    for start, end in busy:
        view._add_busy_interval(start, end)
    return view


class TestFold:
    def test_worked_eq6_example(self):
        # Three 100-slot intervals with 30, 0 and 70 busy slots.
        view = _timeline([(10, 25), (60, 75), (210, 250), (260, 290)])
        est = ArmaTrafficEstimator(sample_interval_slots=100)
        alpha = est.alpha
        est.fold(view, 0, 100)
        assert est.estimate == 0.3
        est.fold(view, 100, 200)
        assert est.estimate == alpha * 0.3
        est.fold(view, 200, 300)
        assert est.estimate == alpha * (alpha * 0.3) + (1 - alpha) * 0.7
        assert est.intervals_consumed == 3
        assert est.pending_busy == 0.0
        assert est.pending_total == 0.0

    def test_completed_interval_uses_exact_busy_count(self):
        # 7/100 apportioned back as (7/100)*100 slots would read
        # 0.07000000000000001; the exact count reads 0.07.
        view = _timeline([(20, 27), (130, 159)])
        est = ArmaTrafficEstimator(sample_interval_slots=100)
        est.fold(view, 0, 60)
        est.fold(view, 60, 100)
        assert est.estimate == 0.07
        est.fold(view, 100, 200)
        assert est.estimate == est.alpha * 0.07 + (1 - est.alpha) * 0.29
        assert est.pending_busy == 0.0
        assert est.pending_total == 0.0

    def test_partial_interval_reports_exact_raw_mean(self):
        view = _timeline([(5, 12), (40, 43)])
        est = ArmaTrafficEstimator(sample_interval_slots=100)
        est.fold(view, 0, 30)
        est.fold(view, 30, 50)
        assert not est.warmed_up
        assert est.estimate == 10 / 50

    def test_idle_rest_folds_one_update_per_interval(self):
        view = _timeline([(0, 50)])
        est = ArmaTrafficEstimator(alpha=0.5, sample_interval_slots=100)
        est.fold(view, 0, 1050)
        assert est.intervals_consumed == 10
        assert est.estimate == 0.5 * 0.5**9
        assert est.pending_busy == 0.0
        assert est.pending_total == 50

    @given(
        busy=st.lists(
            st.tuples(st.integers(0, 3000), st.integers(1, 80)), max_size=40
        ),
        start=st.integers(0, 400),
        span=st.integers(1, 3000),
        cuts=st.lists(st.integers(1, 3000), max_size=8),
        interval=st.integers(1, 300),
    )
    def test_fold_is_chunking_invariant(self, busy, start, span, cuts, interval):
        view = _timeline([(lo, lo + length) for lo, length in busy])
        end = start + span
        whole = ArmaTrafficEstimator(alpha=0.9, sample_interval_slots=interval)
        whole.fold(view, start, end)
        pieces = ArmaTrafficEstimator(alpha=0.9, sample_interval_slots=interval)
        cursor = start
        for cut in sorted({start + c for c in cuts if c < span}) + [end]:
            pieces.fold(view, cursor, cut)
            cursor = cut
        assert whole.estimate == pieces.estimate
        assert whole.intervals_consumed == pieces.intervals_consumed
        assert whole.pending_busy == pieces.pending_busy
        assert whole.pending_total == pieces.pending_total
