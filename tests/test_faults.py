"""Tests for repro.faults: specs, schedules, runtime wiring, determinism.

The fault layer's contract has three legs:

1. **pure draws** — every impairment decision is a pure function of
   (spec seed, monitor, sender, start slot): query order, worker count
   and observer backend cannot change outcomes;
2. **honest codec** — corruption/truncation run the real wire codec
   (encode, damage, decode), so what quarantines is exactly what a real
   monitor could not parse;
3. **one switch** — ``set_fault_spec`` / ``REPRO_FAULTS`` / ``--faults``
   all meet in :func:`repro.faults.runtime.active_schedule`, which every
   new observer consults.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    IMPAIRMENT_BURST_LOSS,
    IMPAIRMENT_DECODE_FAILURE,
    IMPAIRMENT_REASONS,
    IMPAIRMENT_RTS_CORRUPT,
    IMPAIRMENT_RTS_TRUNCATED,
    FaultSchedule,
    FaultSpec,
    active_schedule,
    faults_enabled,
    installed_spec,
    parse_fault_spec,
    reset_fault_runtime,
    set_fault_spec,
)
from repro.mac.frames import RtsFrame

FRAME = RtsFrame(sender=4, receiver=9, seq_off=17, attempt=2, digest=b"q" * 16)


# -- spec parsing -------------------------------------------------------------


@pytest.mark.parametrize("text", ["", "off", "0", "none", "  off  "])
def test_disabled_spellings_parse_to_none(text):
    assert parse_fault_spec(text) is None


def test_parse_full_spec():
    spec = parse_fault_spec("decode=0.3,corrupt=0.1,truncate=0.05,burst=0.2:3000,seed=7")
    assert spec == FaultSpec(
        decode=0.3, corrupt=0.1, truncate=0.05,
        burst_fraction=0.2, burst_slots=3000, seed=7,
    )


def test_burst_defaults_to_2000_slots():
    spec = parse_fault_spec("burst=0.25")
    assert spec.burst_fraction == 0.25
    assert spec.burst_slots == 2000


def test_all_zero_spec_is_none():
    assert parse_fault_spec("decode=0.0,corrupt=0") is None


def test_describe_round_trips():
    for text in (
        "decode=0.3,seed=5",
        "corrupt=0.1,truncate=0.05,seed=0",
        "decode=0.2,burst=0.1:500,seed=3",
    ):
        spec = parse_fault_spec(text)
        assert parse_fault_spec(spec.describe()) == spec


@pytest.mark.parametrize(
    "text",
    [
        "decode=1.5",          # probability out of range
        "decode",              # missing value
        "warp=0.1",            # unknown key
        "decode=abc",          # unparsable float
        "burst=0.2:0",         # burst without positive length
    ],
)
def test_bad_specs_raise_value_error(text):
    with pytest.raises(ValueError):
        parse_fault_spec(text)


def test_spec_validation_direct():
    with pytest.raises(ValueError):
        FaultSpec(decode=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(burst_fraction=0.2, burst_slots=0)


# -- schedule purity ----------------------------------------------------------


def test_draws_are_order_independent():
    spec = FaultSpec(decode=0.3, corrupt=0.1, truncate=0.05, seed=11)
    forward = FaultSchedule(spec)
    backward = FaultSchedule(spec)
    queries = [(m, s, slot) for m in (1, 2) for s in (3, 4) for slot in range(0, 4000, 37)]
    got_forward = [forward.link_impairment(*q) for q in queries]
    got_backward = [backward.link_impairment(*q) for q in reversed(queries)]
    assert got_forward == list(reversed(got_backward))


def test_two_schedules_same_spec_agree():
    spec = parse_fault_spec("decode=0.4,burst=0.1:200,seed=23")
    a, b = FaultSchedule(spec), FaultSchedule(spec)
    for slot in range(0, 5000, 13):
        assert a.link_impairment(0, 5, slot) == b.link_impairment(0, 5, slot)


def test_links_draw_independently():
    schedule = FaultSchedule(FaultSpec(decode=0.5, seed=1))
    link_a = [schedule.link_impairment(1, 5, s) for s in range(500)]
    link_b = [schedule.link_impairment(2, 5, s) for s in range(500)]
    assert link_a != link_b  # distinct per-link seeds


def test_decode_rate_approximates_spec():
    schedule = FaultSchedule(FaultSpec(decode=0.3, seed=2))
    hits = sum(
        schedule.link_impairment(0, 1, slot) == IMPAIRMENT_DECODE_FAILURE
        for slot in range(4000)
    )
    assert 0.25 < hits / 4000 < 0.35


def test_burst_windows_are_contiguous_and_sized():
    spec = FaultSpec(burst_fraction=0.2, burst_slots=50, seed=9)
    schedule = FaultSchedule(spec)
    flags = [
        schedule.link_impairment(0, 1, slot) == IMPAIRMENT_BURST_LOSS
        for slot in range(20_000)
    ]
    fraction = sum(flags) / len(flags)
    assert 0.1 < fraction < 0.3
    # Runs of in-burst slots come in blocks of exactly burst_slots
    # (modulo the sweep boundaries).
    runs, current = [], 0
    for flag in flags:
        if flag:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    assert runs and all(r == 50 for r in runs[1:-1] or runs)


def test_clean_spec_never_impairs():
    schedule = FaultSchedule(FaultSpec(seed=5))
    assert not schedule.spec.any_active
    assert all(
        schedule.link_impairment(0, 1, slot) is None for slot in range(1000)
    )


# -- deliver_rts --------------------------------------------------------------


def test_deliver_rts_invariant():
    """(rts is None) iff a reason is returned; reasons are catalogued."""
    spec = parse_fault_spec("decode=0.2,corrupt=0.2,truncate=0.2,burst=0.1:40,seed=3")
    schedule = FaultSchedule(spec)
    reasons = set()
    for slot in range(3000):
        rts, reason = schedule.deliver_rts(0, 4, slot, FRAME)
        assert (rts is None) == (reason is not None)
        if reason is None:
            assert rts == FRAME
        else:
            assert reason in IMPAIRMENT_REASONS
            reasons.add(reason)
    assert IMPAIRMENT_DECODE_FAILURE in reasons
    assert IMPAIRMENT_RTS_CORRUPT in reasons
    assert IMPAIRMENT_RTS_TRUNCATED in reasons
    assert IMPAIRMENT_BURST_LOSS in reasons


def test_deliver_rts_passes_none_frame_through_faults():
    """A physics-undecodable observation (frame None) stays None; the
    schedule may still attribute a reason when the link draws faulty."""
    schedule = FaultSchedule(FaultSpec(decode=1.0, seed=3))
    rts, reason = schedule.deliver_rts(0, 4, 100, None)
    assert rts is None and reason == IMPAIRMENT_DECODE_FAILURE


def test_damage_wire_truncates_strictly():
    from repro.mac.frames import encode_rts

    schedule = FaultSchedule(FaultSpec(truncate=1.0, seed=8))
    wire = encode_rts(FRAME)
    for slot in range(50):
        damaged = schedule.damage_wire(0, 1, slot, wire, IMPAIRMENT_RTS_TRUNCATED)
        assert len(damaged) < len(wire)
        assert damaged == wire[: len(damaged)]


def test_damage_wire_corrupts_in_place():
    from repro.mac.frames import encode_rts

    schedule = FaultSchedule(FaultSpec(corrupt=1.0, seed=8))
    wire = encode_rts(FRAME)
    for slot in range(50):
        damaged = schedule.damage_wire(0, 1, slot, wire, IMPAIRMENT_RTS_CORRUPT)
        assert len(damaged) == len(wire)
        assert damaged != wire


# -- runtime switch -----------------------------------------------------------


def test_set_fault_spec_parses_strings():
    spec = set_fault_spec("decode=0.3,seed=4")
    assert installed_spec() == spec == FaultSpec(decode=0.3, seed=4)
    assert faults_enabled()


def test_set_fault_spec_off_clears():
    set_fault_spec("decode=0.3,seed=4")
    assert set_fault_spec("off") is None
    assert installed_spec() is None
    assert not faults_enabled()


def test_active_schedule_is_memoized():
    set_fault_spec("decode=0.3,seed=4")
    assert active_schedule() is active_schedule()


def test_env_var_activates_faults(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "decode=0.25,seed=6")
    reset_fault_runtime()
    schedule = active_schedule()
    assert schedule is not None
    assert schedule.spec == FaultSpec(decode=0.25, seed=6)


def test_installed_spec_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "decode=0.25,seed=6")
    set_fault_spec("decode=0.75,seed=1")
    assert active_schedule().spec.decode == 0.75


def test_reset_fault_runtime_registered():
    from repro.util.caches import registered_resets

    assert reset_fault_runtime in registered_resets()


def test_new_observers_pick_up_the_active_schedule():
    from repro.core.observation import ChannelObserver
    from repro.core.observatory import SharedChannelObservatory

    assert ChannelObserver(monitor_id=1, tagged_id=2).faults is None
    set_fault_spec("decode=0.5,seed=2")
    observer = ChannelObserver(monitor_id=1, tagged_id=2)
    assert observer.faults is active_schedule()
    observatory = SharedChannelObservatory()
    assert observatory.faults is active_schedule()
    detector = observatory.attach(1, 2)
    assert detector._arma_feed.observatory.faults is active_schedule()
    assert detector._quarantine_audit


# -- end-to-end determinism ---------------------------------------------------


def _run_detector(use_observatory, spec="decode=0.35,seed=13"):
    from repro.experiments.runner import collect_detection_samples
    from repro.experiments.scenarios import GridScenario
    from repro.util.caches import reset_all_caches

    reset_all_caches()
    set_fault_spec(spec)
    try:
        return collect_detection_samples(
            GridScenario(load=0.6, seed=11),
            pm=40,
            target_samples=80,
            max_duration_s=30.0,
            use_observatory=use_observatory,
        )
    finally:
        set_fault_spec(None)


def test_legacy_and_observatory_agree_under_faults():
    """The equivalence contract survives fault injection: both observer
    backends quarantine the same observations for the same reasons and
    reach identical verdicts."""
    legacy = _run_detector(use_observatory=False)
    shared = _run_detector(use_observatory=True)
    legacy_obs = [repr(o) for o in legacy.observed]
    shared_obs = [repr(o) for o in shared.observed]
    assert legacy_obs == shared_obs
    assert legacy.quarantine_counts == shared.quarantine_counts
    assert [repr(v) for v in legacy.verdicts] == [repr(v) for v in shared.verdicts]
    assert [repr(v) for v in legacy.violations] == [
        repr(v) for v in shared.violations
    ]
    # Faults actually fired in this run (the contract is not vacuous).
    assert legacy.quarantine_counts.get(IMPAIRMENT_DECODE_FAILURE, 0) > 0


def test_faulted_runs_are_reproducible():
    first = _run_detector(use_observatory=True)
    second = _run_detector(use_observatory=True)
    assert [repr(o) for o in first.observed] == [
        repr(o) for o in second.observed
    ]
    assert first.quarantine_counts == second.quarantine_counts


def test_fault_sweep_deterministic_across_jobs():
    from repro.experiments.faults_sweep import run_fault_sweep

    kwargs = dict(
        decode_probs=(0.0, 0.3),
        pm=60,
        runs=1,
        target_samples=40,
        sample_size=10,
        max_duration_s=20.0,
    )
    baseline = [repr(p) for p in run_fault_sweep(jobs=1, **kwargs)]
    for jobs in (2, 4):
        assert [repr(p) for p in run_fault_sweep(jobs=jobs, **kwargs)] == baseline


def test_fault_trial_restores_previous_spec():
    from repro.experiments.faults_sweep import fault_trial

    set_fault_spec("decode=0.1,seed=99")
    fault_trial((0.6, 0, 7, "decode=0.5,seed=1", 10, 5.0, 10, 0.05))
    assert installed_spec() == FaultSpec(decode=0.1, seed=99)


# -- CLI wiring ---------------------------------------------------------------


def test_cli_faults_flag_installs_and_clears(capsys):
    from repro.cli import main

    rc = main(
        ["demo", "--seconds", "1.0", "--seed", "3",
         "--faults", "decode=0.4,seed=5"]
    )
    assert rc == 0
    assert installed_spec() is None  # cleared on the way out
    capsys.readouterr()


def test_cli_faults_off_is_accepted(capsys):
    from repro.cli import main

    assert main(["demo", "--seconds", "1.0", "--faults", "off"]) == 0
    capsys.readouterr()
