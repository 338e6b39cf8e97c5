"""The cache-reset registry and the shared-state footgun it fixes.

Module-level caches (region model memo, REPRO_SCALE parse, fault
runtime, packet uid counter) used to leak between tests.  Now every
such cache registers a reset hook with :mod:`repro.util.caches`, the
root conftest rewinds them all before each test, and lint rule RPR401
keeps the registry exhaustive.
"""

from __future__ import annotations

from repro.util.caches import (
    register_cache_reset,
    registered_resets,
    reset_all_caches,
)


def test_register_returns_the_hook_and_deduplicates():
    calls = []

    def hook():
        calls.append(1)

    before = len(registered_resets())
    try:
        assert register_cache_reset(hook) is hook
        assert register_cache_reset(hook) is hook  # idempotent
        assert len(registered_resets()) == before + 1
        reset_all_caches()
        assert calls == [1]
    finally:
        # Keep the process-wide registry clean for other tests.
        import repro.util.caches as caches

        caches._RESET_HOOKS.remove(hook)


def test_known_caches_are_registered():
    # Import the defining modules so their decorators have run.
    from repro.core.detector import reset_region_cache
    from repro.util.fidelity import reset_fidelity_cache
    from repro.faults.runtime import reset_fault_runtime
    from repro.traffic.queue import reset_packet_ids

    registered = registered_resets()
    for hook in (
        reset_region_cache,
        reset_fidelity_cache,
        reset_fault_runtime,
        reset_packet_ids,
    ):
        assert hook in registered


def test_reset_rewinds_the_fidelity_cache(monkeypatch):
    from repro.util.fidelity import fidelity_scale

    monkeypatch.setenv("REPRO_SCALE", "2.5")
    assert fidelity_scale() == 2.5
    monkeypatch.setenv("REPRO_SCALE", "3.5")
    reset_all_caches()
    assert fidelity_scale() == 3.5


def test_reset_rewinds_the_fault_runtime():
    from repro.faults.runtime import installed_spec, set_fault_spec

    set_fault_spec("decode=0.5,seed=1")
    reset_all_caches()
    assert installed_spec() is None


def test_reset_rewinds_packet_uids():
    from repro.traffic.queue import Packet

    first = Packet(source=1, destination=2).uid
    Packet(source=1, destination=2)
    reset_all_caches()
    assert Packet(source=1, destination=2).uid == first


def test_conftest_fixture_isolates_packet_uids():
    """The autouse fixture ran before this test, so the process-global
    uid counter starts from a rewound position regardless of how many
    packets earlier tests created."""
    from repro.traffic.queue import Packet

    assert Packet(source=0, destination=1).uid == 0
