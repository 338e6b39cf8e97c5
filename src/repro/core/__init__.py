"""The paper's contribution: detecting back-off timer violations.

Combines deterministic verification of the announced verifiable back-off
sequence (PRS offsets, attempt numbers + MD5 digests) with statistical
inference under channel-view uncertainty (paper eqs. 1-6 + the Wilcoxon
rank-sum test).

The main entry point is :class:`BackoffMisbehaviorDetector`, a
simulation listener you attach for one (monitor, tagged-node) pair; it
produces :class:`Verdict` objects as observation windows fill.
"""

from repro.core.arma import ArmaTrafficEstimator
from repro.core.bianchi import BianchiModel, CompetingTerminalEstimator
from repro.core.density import NodeDensityEstimator
from repro.core.detector import (
    BackoffMisbehaviorDetector,
    DetectorConfig,
    cached_region_model,
    reset_region_cache,
)
from repro.core.handoff import MonitorHandoff
from repro.core.deterministic import (
    AttemptNumberVerifier,
    DeterministicViolation,
    SequenceOffsetVerifier,
    UnambiguousCountdownVerifier,
)
from repro.core.hypothesis import BackoffHypothesisTest, TestDecision
from repro.core.observation import (
    ChannelObserver,
    ChannelViewBase,
    ObservedTransmission,
    joint_state_counts,
)
from repro.core.observatory import MonitorChannel, SharedChannelObservatory
from repro.core.ranksum import RankSumResult, rank_sum_test, wilcoxon_ranks
from repro.core.records import BackoffObservation, Verdict
from repro.core.sysstate import SystemStateEstimator, SystemStateProbabilities

__all__ = [
    "ArmaTrafficEstimator",
    "AttemptNumberVerifier",
    "BackoffHypothesisTest",
    "BackoffMisbehaviorDetector",
    "BackoffObservation",
    "BianchiModel",
    "ChannelObserver",
    "ChannelViewBase",
    "CompetingTerminalEstimator",
    "DetectorConfig",
    "DeterministicViolation",
    "MonitorChannel",
    "MonitorHandoff",
    "NodeDensityEstimator",
    "ObservedTransmission",
    "RankSumResult",
    "SharedChannelObservatory",
    "SequenceOffsetVerifier",
    "SystemStateEstimator",
    "SystemStateProbabilities",
    "TestDecision",
    "UnambiguousCountdownVerifier",
    "Verdict",
    "cached_region_model",
    "joint_state_counts",
    "rank_sum_test",
    "reset_region_cache",
    "wilcoxon_ranks",
]
