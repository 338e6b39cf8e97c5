"""Unit tests for the back-off hypothesis test wrapper."""

import pytest

from repro.core.hypothesis import BackoffHypothesisTest, TestDecision
from repro.util.rng import RngStream


class TestWindowing:
    def test_pending_until_window_full(self):
        test = BackoffHypothesisTest(sample_size=5)
        for i in range(4):
            test.add_sample(10, 10)
            decision, result = test.evaluate()
            assert decision is TestDecision.NOT_ENOUGH_SAMPLES
            assert result is None
        test.add_sample(10, 10)
        decision, _result = test.evaluate()
        assert decision is not TestDecision.NOT_ENOUGH_SAMPLES

    def test_window_slides(self):
        test = BackoffHypothesisTest(sample_size=3)
        for v in (1, 2, 3, 4):
            test.add_sample(v, v)
        assert test.n_samples == 3
        assert list(test._x) == [2.0, 3.0, 4.0]

    def test_reset(self):
        test = BackoffHypothesisTest(sample_size=2)
        test.add_sample(1, 1)
        test.reset()
        assert test.n_samples == 0


class TestDecisions:
    def test_honest_samples_retain_h0(self):
        rng = RngStream(1, "honest")
        test = BackoffHypothesisTest(sample_size=50, alpha=0.01)
        for _ in range(50):
            v = rng.integers(0, 32)
            test.add_sample(v, v + rng.normal(0, 1))
        decision, result = test.evaluate()
        assert decision is TestDecision.RETAIN_H0
        assert result.p_value >= 0.01

    def test_cheating_samples_reject_h0(self):
        rng = RngStream(2, "cheat")
        test = BackoffHypothesisTest(sample_size=50, alpha=0.01)
        for _ in range(50):
            v = rng.integers(0, 32)
            test.add_sample(v, 0.3 * v)
        decision, result = test.evaluate()
        assert decision is TestDecision.REJECT_H0
        assert result.p_value < 0.01

    def test_one_sided_ignores_slow_senders(self):
        """A node backing off *longer* than dictated is not malicious
        under the default alternative."""
        rng = RngStream(3, "slow")
        test = BackoffHypothesisTest(sample_size=50, alpha=0.01)
        for _ in range(50):
            v = rng.integers(0, 32)
            test.add_sample(v, 3.0 * v + 5)
        decision, _result = test.evaluate()
        assert decision is TestDecision.RETAIN_H0

    def test_two_sided_catches_slow_senders(self):
        rng = RngStream(3, "slow")
        test = BackoffHypothesisTest(
            sample_size=50, alpha=0.01, alternative="two-sided"
        )
        for _ in range(50):
            v = rng.integers(0, 32)
            test.add_sample(v, 3.0 * v + 5)
        decision, _result = test.evaluate()
        assert decision is TestDecision.REJECT_H0


class TestValidation:
    def test_paper_sample_sizes_accepted(self):
        for size in (10, 25, 50, 100):
            assert BackoffHypothesisTest(sample_size=size).sample_size == size

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            BackoffHypothesisTest(alpha=1.5)

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ValueError):
            BackoffHypothesisTest(sample_size=0)

    def test_unknown_alternative_rejected(self):
        # Checked at construction, not when the first window is ranked.
        with pytest.raises(ValueError, match="alternative"):
            BackoffHypothesisTest(sample_size=5, alternative="bogus")
