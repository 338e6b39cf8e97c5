"""Equivalence of the incremental Medium against a brute-force reference.

The incremental carrier-sense indexes (per-listener sensed maps and
the handshake index) must answer every query exactly as a full scan of
the active transmissions would.  Seeded random start / extend / end /
update_positions sequences are applied to both, and every query is
compared after every operation.
"""

import pytest

from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission
from repro.util.rng import RngStream


class BruteForceReference:
    """The O(active transmissions) semantics the Medium must match.

    Reuses the Medium's adjacency sets (those are not under test) but
    answers every carrier-sense query by scanning a shadow copy of the
    active transmissions.
    """

    def __init__(self, medium):
        self._medium = medium
        self._active = {}

    def start(self, tx_id, tx):
        self._active[tx_id] = tx

    def end(self, tx_id):
        del self._active[tx_id]

    def is_transmitting(self, node_id):
        return any(tx.sender == node_id for tx in self._active.values())

    def senses_busy(self, node_id):
        return any(
            self._medium.senses(tx.sender, node_id)
            for tx in self._active.values()
        )

    def interferers_at(self, receiver, exclude_sender):
        return [
            tx.sender
            for tx in self._active.values()
            if self._medium.senses(tx.sender, receiver)
            and tx.sender != exclude_sender
        ]

    def active_handshakes(self):
        return [
            (tx_id, tx)
            for tx_id, tx in self._active.items()
            if tx.kind == "handshake"
        ]


def _assert_equivalent(medium, reference, node_ids):
    for node in node_ids:
        assert medium.is_transmitting(node) == reference.is_transmitting(node)
        assert medium.senses_busy(node) == reference.senses_busy(node)
        for exclude in (None, node):
            assert medium.interferers_at(node, exclude_sender=exclude) == (
                reference.interferers_at(node, exclude_sender=exclude)
            )
    assert list(medium.active_handshakes()) == reference.active_handshakes()


def _positions(rng, count, span=1200.0):
    return {i: rng.random_point(span, span) for i in range(count)}


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_random_sequences_match_brute_force(seed):
    rng = RngStream(seed, "medium-equivalence")
    nodes = 14
    medium = Medium(Channel())
    medium.update_positions(_positions(rng, nodes))
    reference = BruteForceReference(medium)
    node_ids = range(nodes)

    live = {}  # tx_id -> Transmission
    clock = 0
    for _step in range(300):
        clock += 1
        op = rng.integers(0, 100)
        if op < 40 or not live:  # start
            sender = rng.integers(0, nodes)
            receiver = (sender + 1 + rng.integers(0, nodes - 1)) % nodes
            tx = Transmission(
                sender=sender,
                receiver=receiver,
                start_slot=clock,
                end_slot=clock + 1 + rng.integers(0, 30),
                kind="handshake" if rng.integers(0, 2) else "data",
            )
            tx_id = medium.start_transmission(tx)
            reference.start(tx_id, tx)
        elif op < 70:  # end
            tx_id = rng.choice(sorted(live))
            medium.end_transmission(tx_id)
            reference.end(tx_id)
        elif op < 90:  # extend (never shrink), sometimes flip the kind
            tx_id = rng.choice(sorted(live))
            tx = live[tx_id]
            new_end = tx.end_slot + rng.integers(0, 25)
            kind = "exchange" if rng.integers(0, 2) else None
            medium.extend_transmission(tx_id, new_end, kind=kind)
            if kind is not None:
                tx.kind = kind  # the reference shares the Transmission
        else:  # mobility epoch: reachability and indexes rebuild
            medium.update_positions(_positions(rng, nodes))
        live = dict(medium.active_items())
        _assert_equivalent(medium, reference, node_ids)
