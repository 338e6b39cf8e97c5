"""Offline analysis of detection runs.

Post-processes a detector's sample/verdict stream into the quantities a
deployment (or a reviewer) asks about: how *fast* a cheater is caught,
and summary statistics of the estimation error.
"""

from repro.analysis.latency import DetectionLatency, detection_latency
from repro.analysis.summary import EstimationSummary, summarize_estimation

__all__ = [
    "DetectionLatency",
    "EstimationSummary",
    "detection_latency",
    "summarize_estimation",
]
