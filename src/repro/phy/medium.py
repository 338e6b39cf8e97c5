"""The shared wireless medium: active transmissions and carrier sensing.

The medium is the meeting point of the PHY and the slotted MAC engine.
It tracks which nodes are transmitting (and until which slot), and
answers, per node, the question the DCF asks every slot boundary: *do I
sense the channel busy right now, and if so until when?*

Spatial reachability (who senses / can decode whom) has two
interchangeable index modes:

* ``"brute"`` — the original all-pairs precompute: every
  ``update_positions`` rebuilds full adjacency sets in O(n²).  Exact
  for any propagation model and the reference the grid mode is tested
  against.
* ``"grid"`` — a uniform spatial hash
  (:class:`repro.geometry.spatial.SpatialGrid`) with cell size derived
  from the maximum effective sensing radius.  ``update_positions``
  becomes incremental (only nodes that crossed a cell boundary
  reindex) and adjacency is computed *lazily per node* from the 3×3
  cell neighborhood, so an epoch costs O(moved) + O(candidates of the
  nodes actually queried) instead of O(n²).  Because the grid only
  prunes provably out-of-range pairs and every candidate is re-checked
  with the exact :meth:`Channel.link_state` predicate, query results
  are set-identical to brute force (``tests/test_spatial.py``).

Mode selection (the ``index`` constructor argument) defaults to
``"auto"``: grid whenever the propagation model declares a finite
:meth:`~repro.phy.propagation.PropagationModel.range_scale_bound`
(free space, zero-sigma shadowing), brute otherwise — log-normal
shadowing margins are unbounded, and its lazily-drawn per-pair RNG
stream also depends on query order, so only the eager all-pairs scan
reproduces its committed fingerprints.

Carrier-sense state is *incremental*: every ``start_transmission`` /
``end_transmission`` updates, for each node that senses the
transmitter, an insertion-ordered map of the transmissions it currently
senses.  The per-slot queries the engine
hammers — :meth:`senses_busy`, :meth:`is_transmitting`,
:meth:`interferers_at` — are therefore O(1) or O(sensed transmissions)
instead of O(all active transmissions).  Transition cost is O(sensors of
the transmitter), which is the same set the engine must reconcile
anyway.

Invariants the incremental state maintains (see
``tests/test_medium_equivalence.py`` for the brute-force cross-check):

* ``_sensed_active[listener]`` holds exactly the ``tx_id -> sender``
  pairs of active transmissions whose sender is in
  ``_sensed_by[sender]``'s listener set, in start order;
* it is rebuilt from scratch on ``update_positions`` (mobility epochs),
  because reachability itself changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.geometry.spatial import SpatialGrid, cell_size_for_radius
from repro.phy.channel import Channel, Point
from repro.util.units import Slots

_EMPTY_SET: FrozenSet[int] = frozenset()


@dataclass
class Transmission:
    """One atomic busy period on the air.

    The slotted MAC models a full RTS/CTS/DATA/ACK exchange as a single
    busy period of precomputed length (see ``repro.mac.constants``); the
    ``kind`` records what the period carries for observers and collision
    accounting.

    ``end_slot`` and ``kind`` must not be reassigned while the
    transmission is registered on a :class:`Medium` — go through
    :meth:`Medium.extend_transmission`, which refuses to shrink the
    period and keeps the handshake index in step.
    """

    sender: int
    receiver: int
    start_slot: Slots
    end_slot: Slots
    kind: str = "data"
    frame: object = None
    corrupted: bool = field(default=False, compare=False)

    @property
    def duration(self) -> Slots:
        return self.end_slot - self.start_slot


class Medium:
    """Tracks active transmissions and per-node carrier sensing.

    ``index`` selects the reachability index: ``"auto"`` (grid when the
    propagation model has a finite range-scale bound, brute otherwise),
    ``"grid"`` (requires a finite bound) or ``"brute"`` (always valid).
    """

    def __init__(self, channel: Channel, index: str = "auto") -> None:
        if index not in ("auto", "grid", "brute"):
            raise ValueError(
                f"index must be 'auto', 'grid' or 'brute', got {index!r}"
            )
        self.channel = channel
        bound = channel.propagation.range_scale_bound()
        if index == "grid" and bound is None:
            raise ValueError(
                "index='grid' requires a propagation model with a finite "
                "range_scale_bound(); unbounded shadowing margins need the "
                "all-pairs index"
            )
        use_grid = index == "grid" or (index == "auto" and bound is not None)
        #: Resolved index mode, ``"grid"`` or ``"brute"``.
        self.index_mode: str = "grid" if use_grid else "brute"
        self._grid: Optional[SpatialGrid] = None
        if use_grid:
            assert bound is not None
            max_radius = (
                max(channel.transmission_range, channel.sensing_range) * bound
            )
            self._grid = SpatialGrid(cell_size_for_radius(max_radius))
        self._positions: Dict[int, Point] = {}
        #: node_id -> set of node_ids whose transmissions it senses.
        #: Brute mode: fully populated on update_positions.  Grid mode:
        #: filled lazily per queried node from the 3x3 candidates.
        self._sensed_from: Dict[int, Set[int]] = {}
        #: node_id -> set of node_ids that sense *its* transmissions
        self._sensed_by: Dict[int, Set[int]] = {}
        #: node_id -> set of node_ids whose frames it can decode
        self._decodes_from: Dict[int, Set[int]] = {}
        self._active: Dict[int, Transmission] = {}
        self._next_tx_id = 0
        # -- incremental carrier-sense state --------------------------------
        #: node_id -> number of its own active transmissions
        self._tx_count: Dict[int, int] = {}
        #: tx_id -> in-flight handshake-kind transmissions
        self._handshakes: Dict[int, Transmission] = {}
        #: listener -> {tx_id: sender} for transmissions it senses,
        #: in start order (mirrors iterating ``_active`` filtered).
        self._sensed_active: Dict[int, Dict[int, int]] = {}
        # -- frozenset caches for the reachability accessors ----------------
        self._neighbors_cache: Dict[int, FrozenSet[int]] = {}
        self._sensors_cache: Dict[int, FrozenSet[int]] = {}

    # -- topology ----------------------------------------------------------

    def update_positions(self, positions: Mapping[int, Point]) -> None:
        """Install new node positions and refresh reachability state.

        ``positions`` maps node id -> (x, y).  Call once at setup and
        again at every mobility epoch.  Brute mode rebuilds the full
        adjacency sets; grid mode incrementally re-buckets only the
        nodes that crossed a cell boundary and invalidates the lazy
        per-node adjacency.  Reachability changed either way, so the
        incremental carrier-sense indexes are rebuilt from the active
        transmissions as well.
        """
        self._positions = dict(positions)
        if self._grid is not None:
            self._grid.update(self._positions)
            self._sensed_from = {}
            self._sensed_by = {}
            self._decodes_from = {}
        else:
            self._rebuild_all_pairs()
        self._neighbors_cache.clear()
        self._sensors_cache.clear()
        self._rebuild_sensing_index()
        # Lazy import: repro.obs is cross-cutting; active_tracer() is
        # None unless the process-wide flight recorder is switched on.
        from repro.obs.trace import PID_ENGINE, active_tracer

        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "medium.reconcile",
                pid=PID_ENGINE,
                category="medium",
                args={"nodes": len(self._positions)},
            )

    def _rebuild_all_pairs(self) -> None:
        """Brute mode: precompute every adjacency set in O(n²)."""
        ids = sorted(self._positions)
        self._sensed_from = {i: set() for i in ids}
        self._sensed_by = {i: set() for i in ids}
        self._decodes_from = {i: set() for i in ids}
        for idx, a in enumerate(ids):
            for b in ids[idx + 1 :]:
                state_ab = self.channel.link_state(
                    a, self._positions[a], b, self._positions[b]
                )
                state_ba = self.channel.link_state(
                    b, self._positions[b], a, self._positions[a]
                )
                if state_ab.sensed:
                    self._sensed_from[b].add(a)
                    self._sensed_by[a].add(b)
                if state_ab.decodable:
                    self._decodes_from[b].add(a)
                if state_ba.sensed:
                    self._sensed_from[a].add(b)
                    self._sensed_by[b].add(a)
                if state_ba.decodable:
                    self._decodes_from[a].add(b)

    def _compute_adjacency(self, node_id: int) -> None:
        """Grid mode: fill one node's adjacency from its 3×3 candidates.

        Every candidate is re-checked with the exact link predicate in
        both directions, so the resulting sets match the brute-force
        scan exactly; the grid only prunes pairs provably out of range.
        """
        grid = self._grid
        assert grid is not None, "_compute_adjacency outside grid mode"
        positions = self._positions
        position = positions[node_id]
        link_state = self.channel.link_state
        sensed_from: Set[int] = set()
        sensed_by: Set[int] = set()
        decodes_from: Set[int] = set()
        for other in grid.candidates_of(node_id):
            other_position = positions[other]
            inbound = link_state(other, other_position, node_id, position)
            if inbound.sensed:
                sensed_from.add(other)
            if inbound.decodable:
                decodes_from.add(other)
            outbound = link_state(node_id, position, other, other_position)
            if outbound.sensed:
                sensed_by.add(other)
        self._sensed_from[node_id] = sensed_from
        self._sensed_by[node_id] = sensed_by
        self._decodes_from[node_id] = decodes_from

    def _sensed_from_set(self, node_id: int) -> AbstractSet[int]:
        """Nodes ``node_id`` senses (lazily computed in grid mode)."""
        cached = self._sensed_from.get(node_id)
        if cached is not None:
            return cached
        if self._grid is None or node_id not in self._positions:
            return _EMPTY_SET
        self._compute_adjacency(node_id)
        return self._sensed_from[node_id]

    def _sensed_by_set(self, node_id: int) -> AbstractSet[int]:
        """Nodes that sense ``node_id`` (lazily computed in grid mode)."""
        cached = self._sensed_by.get(node_id)
        if cached is not None:
            return cached
        if self._grid is None or node_id not in self._positions:
            return _EMPTY_SET
        self._compute_adjacency(node_id)
        return self._sensed_by[node_id]

    def _decodes_from_set(self, node_id: int) -> AbstractSet[int]:
        """Nodes ``node_id`` can decode (lazily computed in grid mode)."""
        cached = self._decodes_from.get(node_id)
        if cached is not None:
            return cached
        if self._grid is None or node_id not in self._positions:
            return _EMPTY_SET
        self._compute_adjacency(node_id)
        return self._decodes_from[node_id]

    def _rebuild_sensing_index(self) -> None:
        """Recompute the incremental indexes under the new adjacency."""
        self._tx_count = {}
        self._handshakes = {}
        self._sensed_active = {}
        # ``_active`` preserves start order (tx ids are handed out
        # monotonically and dict insertion order survives deletions), so
        # the per-listener maps come out in the same order a full scan
        # of ``_active`` would produce.
        for tx_id, tx in self._active.items():
            self._index_transmission(tx_id, tx)

    @property
    def positions(self) -> Mapping[int, Point]:
        """Read-only view of node id -> (x, y); never copied."""
        return MappingProxyType(self._positions)

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        """Nodes whose frames ``node_id`` can decode (one-hop neighbors)."""
        cached = self._neighbors_cache.get(node_id)
        if cached is None:
            cached = self._neighbors_cache[node_id] = frozenset(
                self._decodes_from_set(node_id)
            )
        return cached

    def sensors_of(self, node_id: int) -> FrozenSet[int]:
        """Nodes that sense ``node_id``'s transmissions (cached frozenset)."""
        cached = self._sensors_cache.get(node_id)
        if cached is None:
            cached = self._sensors_cache[node_id] = frozenset(
                self._sensed_by_set(node_id)
            )
        return cached

    def can_decode(self, sender: int, receiver: int) -> bool:
        return sender in self._decodes_from_set(receiver)

    def clean_decode(self, sender: int, receiver: int) -> bool:
        """True iff ``receiver`` can decode ``sender``'s frame right now.

        The full monitor-side decode predicate: in decode range, the
        receiver itself silent (no clear-channel assessment while
        transmitting), and no other sensed transmission garbling the
        preamble.  This is the physics half of the decode path; link
        faults (:mod:`repro.faults`) degrade it further, observer-side.
        """
        return (
            self.can_decode(sender, receiver)
            and not self.is_transmitting(receiver)
            and not self.interferers_at(receiver, exclude_sender=sender)
        )

    def senses(self, transmitter: int, listener: int) -> bool:
        return transmitter in self._sensed_from_set(listener)

    # -- transmissions -----------------------------------------------------

    def _index_transmission(self, tx_id: int, tx: Transmission) -> None:
        """Fold one transmission into the incremental indexes."""
        sender = tx.sender
        self._tx_count[sender] = self._tx_count.get(sender, 0) + 1
        if tx.kind == "handshake":
            self._handshakes[tx_id] = tx
        sensed_active = self._sensed_active
        for listener in self._sensed_by_set(sender):
            tracked = sensed_active.get(listener)
            if tracked is None:
                tracked = sensed_active[listener] = {}
            tracked[tx_id] = sender

    def _unindex_transmission(self, tx_id: int, tx: Transmission) -> None:
        """Drop one transmission from the incremental indexes."""
        sender = tx.sender
        count = self._tx_count[sender] - 1
        if count:
            self._tx_count[sender] = count
        else:
            del self._tx_count[sender]
        self._handshakes.pop(tx_id, None)
        for listener in self._sensed_by_set(sender):
            tracked = self._sensed_active.get(listener)
            if tracked is not None:
                tracked.pop(tx_id, None)

    def start_transmission(self, transmission: Transmission) -> int:
        """Register a transmission; returns its medium-assigned id."""
        if transmission.end_slot <= transmission.start_slot:
            raise ValueError("transmission must have positive duration")
        tx_id = self._next_tx_id
        self._next_tx_id += 1
        self._active[tx_id] = transmission
        self._index_transmission(tx_id, transmission)
        return tx_id

    def end_transmission(self, tx_id: int) -> Transmission:
        """Remove a finished transmission; returns it."""
        tx = self._active.pop(tx_id)
        self._unindex_transmission(tx_id, tx)
        return tx

    def extend_transmission(
        self, tx_id: int, end_slot: Slots, kind: Optional[str] = None
    ) -> Transmission:
        """Grow an in-flight transmission's busy period (never shrink).

        The engine uses this for the handshake -> exchange phase change:
        the busy period extends through DATA + ACK and the ``kind``
        flips to ``"exchange"``.  Returns the transmission.  Mutating the
        ``Transmission`` directly would skip the never-shrink check and
        leave the handshake index stale — this is the only supported way.
        """
        tx = self._active[tx_id]
        if end_slot < tx.end_slot:
            raise ValueError(
                f"cannot shrink transmission {tx_id} "
                f"({tx.end_slot} -> {end_slot})"
            )
        tx.end_slot = end_slot
        if kind is not None and kind != tx.kind:
            tx.kind = kind
            if kind == "handshake":
                self._handshakes[tx_id] = tx
            else:
                self._handshakes.pop(tx_id, None)
        return tx

    def active_transmissions(self) -> Iterable[Transmission]:
        """The in-flight transmissions, in start order (live view)."""
        return self._active.values()

    def active_items(self) -> Iterable[Tuple[int, Transmission]]:
        """``(tx_id, transmission)`` pairs for all in-flight transmissions,
        in start order (live view — do not mutate the medium while
        iterating)."""
        return self._active.items()

    def active_handshakes(self) -> Iterable[Tuple[int, Transmission]]:
        """``(tx_id, transmission)`` pairs for in-flight *handshake*-kind
        transmissions only, in start order (live view)."""
        return self._handshakes.items()

    def active_item(self, tx_id: int) -> Transmission:
        """The in-flight transmission with medium id ``tx_id``."""
        return self._active[tx_id]

    def is_transmitting(self, node_id: int) -> bool:
        return node_id in self._tx_count

    # -- carrier sensing ---------------------------------------------------

    def senses_busy(self, node_id: int) -> bool:
        """True if ``node_id`` currently senses the channel busy.

        A node's own transmission does not count: while transmitting it
        is not performing clear-channel assessment.  (A node is never in
        its own ``sensed_from`` set, so the index needs no special
        case.)
        """
        return bool(self._sensed_active.get(node_id))

    def interferers_at(self, receiver: int, exclude_sender: int) -> List[int]:
        """Active transmitters (other than ``exclude_sender``) that the
        receiver senses — i.e., sources of collision at ``receiver``."""
        tracked = self._sensed_active.get(receiver)
        if not tracked:
            return []
        return [s for s in tracked.values() if s != exclude_sender]
