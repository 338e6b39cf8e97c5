"""Equivalence contract of the shared observation plane.

The :class:`SharedChannelObservatory` replaces one full engine listener
per detector with a single listener that feeds subscribed detectors —
each querying its monitor node's shared channel and owning its demux;
its promise is that this is a pure re-plumbing — same-seed observations,
verdicts, audit logs and metrics snapshots stay byte-identical to the
per-detector-observer path.  These tests pin that promise on the
paper's scenarios (grid, random, mobile with monitor hand-off) and on
the dense multi-monitor grid where sharing actually kicks in, plus the
view-API compatibility, the subscription lifecycle and what one
tracked link holds.
"""

import hashlib
import itertools
import json

import pytest

from repro.core.arma import ArmaTrafficEstimator
from repro.core.bianchi import CompetingTerminalEstimator
from repro.core.detector import (
    BackoffMisbehaviorDetector,
    DetectorConfig,
    cached_region_model,
    reset_region_cache,
)
from repro.core.handoff import MonitorHandoff
from repro.core.observation import ChannelObserver, joint_state_counts
from repro.core.observatory import SharedChannelObservatory
from repro.core.ranksum import rank_sum_test
from repro.experiments.runner import collect_detection_samples
from repro.experiments.scenarios import (
    GridScenario,
    MultiMonitorGridScenario,
    RandomScenario,
)
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.provenance import ProvenanceLog
from repro.obs.registry import MetricsRegistry
from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission
from repro.serve.capture import capture_scenario, synthetic_stream
from repro.serve.server import ServeConfig, ServeSession
from repro.sim.listeners import SimulationListener
from repro.traffic import queue as traffic_queue

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)
#: synthetic serve links form a sample on every exchange after the first
SMALL_WINDOW = DetectorConfig(
    sample_size=5, known_n=5, known_k=5, warmup_slots=0
)


def _fresh_run_state():
    """Reset cross-run process state so same-seed runs are bytewise equal.

    Packet uids feed the RTS payload digests; the module-global counter
    keeps counting across runs in one process, so it must rewind for the
    second run to emit identical frames.
    """
    traffic_queue._packet_ids = itertools.count()
    reset_region_cache()


def _audit_sha(audit):
    digest = hashlib.sha256()
    for record in audit.records:
        digest.update(json.dumps(record.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def _collect(scenario, pm, use_observatory, target_samples, max_duration_s):
    _fresh_run_state()
    audit = DecisionAuditLog()
    detector = collect_detection_samples(
        scenario,
        pm,
        detector_config=CONFIG,
        target_samples=target_samples,
        max_duration_s=max_duration_s,
        audit=audit,
        use_observatory=use_observatory,
    )
    return detector, audit


class TestSameSeedEquivalence:
    """Legacy per-detector listener vs observatory subscription."""

    def _assert_equivalent(self, make_scenario, pm, target, duration):
        legacy, audit_l = _collect(
            make_scenario(), pm, False, target, duration
        )
        shared, audit_s = _collect(
            make_scenario(), pm, True, target, duration
        )
        assert legacy.observation_count == shared.observation_count
        assert legacy.observations == shared.observations
        assert legacy.verdicts == shared.verdicts
        assert legacy.flagged_malicious == shared.flagged_malicious
        assert _audit_sha(audit_l) == _audit_sha(audit_s)
        assert len(audit_l.records) == len(audit_s.records) > 0
        return legacy, shared

    def test_grid(self):
        legacy, shared = self._assert_equivalent(
            lambda: GridScenario(seed=5), 60, 300, 60.0
        )
        assert legacy.observation_count >= 100
        assert legacy.observed == shared.observed

    def test_random_static(self):
        legacy, shared = self._assert_equivalent(
            lambda: RandomScenario(seed=5), 50, 200, 60.0
        )
        assert legacy.observed == shared.observed

    def test_mobile_handoff(self):
        legacy, shared = self._assert_equivalent(
            lambda: RandomScenario(mobile=True, seed=23), 70, 200, 120.0
        )
        assert isinstance(legacy, MonitorHandoff)
        assert isinstance(shared, MonitorHandoff)
        assert legacy.handoffs == shared.handoffs
        assert legacy.monitor_id == shared.monitor_id


class TestMultiDetectorEquivalence:
    """The dense-monitor regime: 16 detectors on 4 shared channels."""

    def _run(self, use_observatory):
        _fresh_run_state()
        scenario = MultiMonitorGridScenario(seed=7)
        taggeds = scenario.tagged_nodes()
        policies = {
            taggeds[0]: PercentageMisbehavior(60),
            taggeds[2]: PercentageMisbehavior(75),
        }
        sim, pairs = scenario.build(policies=policies)
        audit = DecisionAuditLog()
        metrics = MetricsRegistry()
        detectors = []
        observatory = None
        if use_observatory:
            observatory = SharedChannelObservatory()
            sim.add_listener(observatory)
            for monitor, tagged in pairs:
                detectors.append(observatory.attach(
                    monitor, tagged, config=CONFIG,
                    separation=scenario.separation,
                    audit=audit, metrics=metrics,
                ))
        else:
            for monitor, tagged in pairs:
                detector = BackoffMisbehaviorDetector(
                    monitor, tagged, config=CONFIG,
                    separation=scenario.separation,
                    audit=audit, metrics=metrics,
                )
                sim.add_listener(detector)
                detectors.append(detector)
        sim.run(5.0)
        return detectors, audit, metrics, observatory

    def test_16_detectors_byte_identical(self):
        legacy, audit_l, metrics_l, _ = self._run(False)
        shared, audit_s, metrics_s, observatory = self._run(True)
        assert len(legacy) == len(shared) == 16
        for det_l, det_s in zip(legacy, shared):
            assert det_l.observations == det_s.observations
            assert det_l.verdicts == det_s.verdicts
            assert det_l.observed == det_s.observed
            # Feeds fold on read: this settles feeds the dispatch skipped.
            assert det_l.rho == det_s.rho
        assert _audit_sha(audit_l) == _audit_sha(audit_s)
        assert len(audit_l.records) == len(audit_s.records) > 0
        assert metrics_l.snapshot() == metrics_s.snapshot()
        # The sharing actually happened: 16 subscriptions collapse onto
        # 4 monitor channels, each with one feed whose ARMA and
        # competing-terminal estimators its 4 detectors share.
        assert len(observatory._channels) == 4
        for channel in observatory._channels.values():
            assert channel.subscribers == 4
            (feed,) = channel.feeds.values()
            assert len(feed.detectors) == 4
            for detector in feed.detectors:
                assert detector.observer is channel
                assert detector.arma is feed.arma
                assert detector.terminal_estimator is feed.terminal


class TestViewCompatibility:
    """A subscribed detector's shared channel and demux answer every
    ChannelObserver query identically."""

    def _run_pair(self):
        _fresh_run_state()
        scenario = GridScenario(seed=9)
        _sim, sender, monitor = scenario.build()
        _fresh_run_state()
        sim, sender, monitor = scenario.build(
            policies={sender: PercentageMisbehavior(50)}
        )
        observer = ChannelObserver(monitor, sender)
        sim.add_listener(observer)
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
        detector = observatory.attach(
            monitor, sender, config=CONFIG, separation=scenario.separation
        )
        sim.run(5.0)
        return observer, detector, observatory

    def test_queries_match_channel_observer(self):
        observer, detector, observatory = self._run_pair()
        channel = detector.observer
        end = observer.last_slot
        assert end > 0
        assert observatory.last_slot == end
        spans = [(0, end), (end // 4, end // 2), (end // 2, end), (0, 1)]
        for start, stop in spans:
            assert channel.busy_slots_in(start, stop) == (
                observer.busy_slots_in(start, stop)
            )
            assert channel.busy_intervals_in(start, stop) == (
                observer.busy_intervals_in(start, stop)
            )
            assert channel.idle_busy_counts(start, stop) == (
                observer.idle_busy_counts(start, stop)
            )
            assert channel.own_tx_slots_in(start, stop) == (
                observer.own_tx_slots_in(start, stop)
            )
        assert detector.observed == observer.observed

    def test_last_slot_tracks_every_end_event(self):
        _fresh_run_state()
        scenario = MultiMonitorGridScenario(seed=7)
        sim, pairs = scenario.build()
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
        for monitor, tagged in pairs:
            observatory.attach(
                monitor, tagged, config=CONFIG, separation=scenario.separation
            )
        checker = _LastSlotChecker(observatory)
        sim.add_listener(checker)  # dispatched after the observatory
        sim.run(1.0)
        assert checker.ends > 100
        assert checker.mismatches == 0

    def test_joint_state_counts_interop(self):
        observer, detector, _observatory = self._run_pair()
        end = observer.last_slot
        mixed = joint_state_counts(detector.observer, observer, 0, end)
        pure = joint_state_counts(observer, observer, 0, end)
        assert mixed == pure
        assert sum(mixed.values()) == end


class _LastSlotChecker(SimulationListener):
    """Counts end events after which the observatory's ``last_slot``
    differs from the largest end slot ingested so far."""

    def __init__(self, observatory):
        self.observatory = observatory
        self.largest = 0
        self.ends = 0
        self.mismatches = 0

    def on_transmission_end(self, slot, transmission, success, medium):
        self.ends += 1
        self.largest = max(self.largest, transmission.end_slot)
        self.mismatches += self.observatory.last_slot != self.largest


def _toy_plane():
    """A 3-node medium plus observatory for lifecycle tests."""
    medium = Medium(Channel())
    medium.update_positions({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0)})
    observatory = SharedChannelObservatory()
    return medium, observatory


def _drive(medium, observatory, sender, start, end, receiver=1):
    tx = Transmission(
        sender=sender, receiver=receiver,
        start_slot=start, end_slot=end, kind="handshake",
    )
    tx_id = medium.start_transmission(tx)
    observatory.on_transmission_start(start, tx, medium)
    medium.end_transmission(tx_id)
    observatory.on_transmission_end(end, tx, False, medium)


class TestSubscriptionLifecycle:
    def test_subscribed_detector_rejects_listener_registration(self):
        _, observatory = _toy_plane()
        detector = observatory.attach(1, 0, config=CONFIG)
        with pytest.raises(RuntimeError):
            detector.on_transmission_start(0, None, None)
        with pytest.raises(RuntimeError):
            detector.on_transmission_end(0, None, False, None)

    def test_fresh_channel_starts_empty(self):
        medium, observatory = _toy_plane()
        observatory.attach(1, 0, config=CONFIG)
        _drive(medium, observatory, sender=0, start=10, end=20)
        shared = observatory._channels[1]
        assert shared.busy_slots_in(0, 100) == 10
        late = observatory.attach(1, 2, config=CONFIG, fresh_channel=True)
        # The private channel never saw the earlier interval...
        assert late.observer.busy_slots_in(0, 100) == 0
        # ...and the shared one is untouched by the new subscription.
        assert shared.subscribers == 1
        _drive(medium, observatory, sender=0, start=30, end=40)
        assert late.observer.busy_slots_in(0, 100) == 10
        assert shared.busy_slots_in(0, 100) == 20

    def test_detach_freezes_state_and_releases_channel(self):
        medium, observatory = _toy_plane()
        first = observatory.attach(1, 0, config=CONFIG)
        second = observatory.attach(1, 2, config=CONFIG)
        assert observatory._channels[1].subscribers == 2
        _drive(medium, observatory, sender=0, start=10, end=20)
        observatory.detach(first)
        assert observatory._channels[1].subscribers == 1
        frozen = first.observer.busy_slots_in(0, 100)
        _drive(medium, observatory, sender=0, start=30, end=40)
        # The detached detector still reads the shared channel.
        assert first.observer.busy_slots_in(0, 100) == frozen + 10
        assert len(first.observed) == 1  # demux frozen
        observatory.detach(second)
        assert 1 not in observatory._channels
        assert observatory._channel_list == []

    def test_second_detach_raises_and_keeps_the_shared_channel(self):
        medium, observatory = _toy_plane()
        first = observatory.attach(1, 0, config=CONFIG)
        second = observatory.attach(1, 2, config=CONFIG)
        channel = observatory._channels[1]
        observatory.detach(first)
        with pytest.raises(ValueError):
            observatory.detach(first)
        # The remaining subscriber still holds the shared channel...
        assert channel.subscribers == 1
        assert observatory._channel_list == [channel]
        assert observatory._monitor_index == {1: [channel]}
        # ...and its channel keeps updating.
        _drive(medium, observatory, sender=2, start=10, end=20)
        assert channel.busy_slots_in(0, 100) == 10
        assert len(second.observed) == 1

    def test_detach_drops_feeds_no_detector_holds(self):
        medium, observatory = _toy_plane()
        first = observatory.attach(1, 0, config=CONFIG)
        unborn = observatory.attach(1, 2, config=CONFIG)
        channel = observatory._channels[1]
        # Same attach epoch: one shared feed and its estimators.
        assert list(channel.feeds.values()) == [first._arma_feed]
        assert unborn._arma_feed is first._arma_feed
        _drive(medium, observatory, sender=0, start=10, end=20)
        late = observatory.attach(1, 0, config=CONFIG)
        assert len(channel.feeds) == 2
        assert observatory._unborn == [late._arma_feed]
        observatory.detach(late)
        assert observatory._unborn == []
        assert list(channel.feeds.values()) == [first._arma_feed]
        assert first.terminal_estimator is first._arma_feed.terminal
        observatory.detach(first)
        # ``unborn`` still holds the epoch-0 feed and its estimators.
        assert list(channel.feeds.values()) == [unborn._arma_feed]
        assert unborn.terminal_estimator is unborn._arma_feed.terminal

    def test_serve_eviction_keeps_live_channel_feeds_bounded(self):
        """Links that share monitors churn through a capped serve table;
        each live channel keeps at most one feed (with its terminal
        estimator) per subscriber, not one per link it ever served."""
        lines, _pairs, separation = capture_scenario("multi", 1.0)
        session = ServeSession(
            ServeConfig(detector=CONFIG, separation=separation, max_links=8)
        )
        for line in lines:
            session.handle_line(line)
        assert session.table.evicted_links > 0
        channels = session.observatory._channel_list
        assert channels
        for channel in channels:
            assert len(channel.feeds) <= channel.subscribers


class TestRegionModelCache:
    def test_cached_model_is_shared(self):
        reset_region_cache()
        first = cached_region_model()
        assert cached_region_model() is first
        reset_region_cache()
        again = cached_region_model()
        assert again is not first
        assert again.regions.uniform_invisible_fraction == (
            first.regions.uniform_invisible_fraction
        )

    def test_detectors_share_default_model(self):
        reset_region_cache()
        one = BackoffMisbehaviorDetector(1, 0, config=CONFIG)
        two = BackoffMisbehaviorDetector(3, 2, config=CONFIG)
        assert one.state_estimator.region_model is (
            two.state_estimator.region_model
        )


class TestPerLinkLayout:
    """What one tracked link holds: slotted objects, shared helpers and
    windows that grow with the samples the link forms."""

    def test_same_config_detectors_share_stateless_helpers(self):
        _, observatory = _toy_plane()
        one = observatory.attach(1, 0, config=CONFIG)
        two = observatory.attach(2, 0, config=CONFIG)
        # Different monitors: separate channels and terminal estimators...
        assert one.terminal_estimator is not two.terminal_estimator
        # ...but the config-derived, stateless parts are shared.
        assert one.countdown_verifier is two.countdown_verifier
        assert one.state_estimator is two.state_estimator
        assert one.density_estimator is two.density_estimator
        assert one.terminal_estimator.model is two.terminal_estimator.model

    def test_per_link_objects_have_no_instance_dict(self):
        session = ServeSession(ServeConfig(detector=SMALL_WINDOW))
        session.run(synthetic_stream(2, 3))
        states = session.table.states()
        assert len(states) == 2
        for state in states:
            detector = state.detector
            held = [
                detector,
                detector.test,
                detector.arma,
                detector.prng,
                detector.seq_verifier,
                detector.attempt_verifier,
                detector.countdown_verifier,
                detector.terminal_estimator,
                detector.observer,
                detector._arma_feed,
                state.audit,
                state.provenance,
            ]
            for item in held:
                assert not hasattr(item, "__dict__"), type(item).__name__

    def test_shared_estimators_are_built_once(self, monkeypatch):
        """Each feed builds one ARMA and one competing-terminal
        estimator, and every detector on it reads those two."""
        lines, pairs, separation = capture_scenario("multi", 1.0)
        built = {ArmaTrafficEstimator: 0, CompetingTerminalEstimator: 0}
        for cls in built:

            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        session = ServeSession(
            ServeConfig(detector=CONFIG, separation=separation), links=pairs
        )
        for line in lines:
            session.handle_line(line)
        feeds = [
            feed
            for channel in session.observatory._channel_list
            for feed in channel.feeds.values()
        ]
        assert len(feeds) == 4
        assert built == {ArmaTrafficEstimator: 4, CompetingTerminalEstimator: 4}
        states = session.table.states()
        assert len(states) == len(pairs) == 16
        for state in states:
            detector = state.detector
            assert detector._arma_feed in feeds
            assert detector.arma is detector._arma_feed.arma
            assert detector.terminal_estimator is detector._arma_feed.terminal

    def test_windows_hold_only_the_newest_samples(self):
        size = SMALL_WINDOW.sample_size
        _, observatory = _toy_plane()
        fresh = observatory.attach(1, 0, config=SMALL_WINDOW)
        assert fresh.test.window_snapshot() == ([], [])
        assert fresh._window_meta == []
        # One anchor exchange, then size + 3 samples on one link.
        session = ServeSession(ServeConfig(detector=SMALL_WINDOW))
        session.run(synthetic_stream(1, size + 4))
        (state,) = session.table.states()
        detector = state.detector
        assert len(detector.observations) == size + 3
        x, y = detector.test.window_snapshot()
        meta = detector._window_meta
        assert len(x) == len(y) == len(meta) == size
        # The provenance bookkeeping moves in lockstep with the window.
        assert [m[0] for m in meta] == list(range(3, size + 3))
        assert [m[2] for m in meta] == x
        assert [m[3] for m in meta] == y

    def test_small_window_provenance_reranks_exactly(self):
        _fresh_run_state()
        provenance = ProvenanceLog()
        collect_detection_samples(
            GridScenario(seed=5),
            60,
            detector_config=SMALL_WINDOW,
            target_samples=60,
            max_duration_s=20.0,
            provenance=provenance,
        )
        windows = [r for r in provenance.records if r.rule == "rank_sum"]
        assert len(windows) >= 10
        for record in windows:
            assert len(record.dictated) == SMALL_WINDOW.sample_size
            assert len(record.estimated) == SMALL_WINDOW.sample_size
            result = rank_sum_test(
                record.dictated, record.estimated, SMALL_WINDOW.alternative
            )
            assert result.p_value == record.p_value
            assert result.statistic == record.statistic
