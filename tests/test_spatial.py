"""The spatial-hash sensing index must be invisible to every query.

The uniform grid (`repro.geometry.spatial.SpatialGrid`) only *prunes*
candidates; the exact link predicate is re-applied on each one.  The
suite pins the two layers of that contract:

- the grid alone: the 3x3 neighborhood is a superset of any disk of
  radius <= cell_size, so filtering it by the exact distance equals
  the all-pairs oracle (`brute_force_in_range`) — hypothesis over
  random placements, plus seeded mobility trajectories where the
  incremental ``update`` must match a from-scratch ``rebuild``;
- the Medium on top: ``index="grid"`` and ``index="brute"`` answer
  neighbors / sensors_of / can_decode / senses and
  the carrier-sense queries identically, through mobility epochs and
  active transmissions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.spatial import (
    SpatialGrid,
    brute_force_in_range,
    cell_size_for_radius,
)
from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission
from repro.phy.propagation import LogNormalShadowing
from repro.util.rng import RngStream

positions_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-5000, max_value=5000, allow_nan=False),
        st.floats(min_value=-5000, max_value=5000, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestSpatialGrid:
    def test_key_is_floor_division(self):
        grid = SpatialGrid(100.0)
        assert grid.key((0.0, 0.0)) == (0, 0)
        assert grid.key((99.9, 100.0)) == (0, 1)
        assert grid.key((-0.1, -100.0)) == (-1, -1)

    def test_rebuild_then_membership(self):
        grid = SpatialGrid(50.0)
        grid.rebuild({0: (0, 0), 1: (10, 10), 2: (120, 0)})
        assert len(grid) == 3
        assert 1 in grid and 7 not in grid
        assert grid.cell_of(0) == grid.cell_of(1) == (0, 0)
        assert grid.cell_of(2) == (2, 0)
        assert grid.cell_count == 2

    def test_update_reports_only_cell_crossers(self):
        grid = SpatialGrid(50.0)
        grid.rebuild({0: (0, 0), 1: (10, 10), 2: (120, 0)})
        # 0 drifts within its cell, 1 crosses, 2 unchanged, 3 is new.
        moved = grid.update({0: (49, 0), 1: (60, 10), 2: (120, 0), 3: (5, 5)})
        assert sorted(moved) == [1, 3]
        assert grid.cell_of(1) == (1, 0)
        assert 3 in grid

    def test_update_drops_vanished_nodes(self):
        grid = SpatialGrid(50.0)
        grid.rebuild({0: (0, 0), 1: (200, 200)})
        moved = grid.update({0: (0, 0)})
        assert moved == []
        assert 1 not in grid
        assert len(grid) == 1
        assert grid.cell_count == 1

    def test_candidates_exclude_self(self):
        grid = SpatialGrid(50.0)
        grid.rebuild({0: (0, 0), 1: (10, 10), 2: (60, 0)})
        assert sorted(grid.candidates_of(0)) == [1, 2]
        assert sorted(grid.candidates_of(7)) == []  # unindexed: empty

    def test_occupied_cells_and_nodes_in(self):
        grid = SpatialGrid(50.0)
        grid.rebuild({0: (0, 0), 1: (10, 10), 2: (120, 0)})
        assert grid.occupied_cells() == [(0, 0), (2, 0)]
        assert grid.nodes_in((0, 0)) == (0, 1)
        assert grid.nodes_in((9, 9)) == ()

    @given(points=positions_strategy, radius=st.floats(min_value=1, max_value=1500))
    @settings(max_examples=60, deadline=None)
    def test_neighborhood_filtered_equals_brute_force(self, points, radius):
        positions = dict(enumerate(points))
        grid = SpatialGrid(cell_size_for_radius(radius))
        grid.rebuild(positions)
        for node_id in positions:
            oracle = brute_force_in_range(positions, node_id, radius)
            pruned = {
                other
                for other in grid.candidates_of(node_id)
                if other in brute_force_in_range(
                    {node_id: positions[node_id], other: positions[other]},
                    node_id,
                    radius,
                )
            }
            assert pruned == oracle

    @pytest.mark.parametrize("seed", [2, 11])
    def test_incremental_update_matches_rebuild_under_mobility(self, seed):
        """A grid maintained by `update` over a random walk must be
        indistinguishable from one rebuilt from scratch each epoch."""
        rng = RngStream(seed, "spatial-mobility")
        radius = 550.0
        positions = {i: rng.random_point(3000.0, 3000.0) for i in range(30)}
        incremental = SpatialGrid(cell_size_for_radius(radius))
        incremental.rebuild(positions)
        for _epoch in range(25):
            for node_id in positions:
                x, y = positions[node_id]
                positions[node_id] = (
                    x + rng.uniform(-300.0, 300.0),
                    y + rng.uniform(-300.0, 300.0),
                )
            incremental.update(positions)
            fresh = SpatialGrid(cell_size_for_radius(radius))
            fresh.rebuild(positions)
            assert incremental.occupied_cells() == fresh.occupied_cells()
            for node_id in positions:
                assert incremental.cell_of(node_id) == fresh.cell_of(node_id)
                assert set(incremental.candidates_of(node_id)) == set(
                    fresh.candidates_of(node_id)
                )
                oracle = brute_force_in_range(positions, node_id, radius)
                assert oracle <= set(incremental.candidates_of(node_id))


def _assert_adjacency_equal(grid_medium, brute_medium, node_ids):
    for node in node_ids:
        assert grid_medium.neighbors(node) == brute_medium.neighbors(node)
        assert grid_medium.sensors_of(node) == brute_medium.sensors_of(node)
        for other in node_ids:
            assert grid_medium.can_decode(node, other) == (
                brute_medium.can_decode(node, other)
            )
            assert grid_medium.senses(node, other) == (
                brute_medium.senses(node, other)
            )


class TestMediumGridEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_grid_and_brute_media_agree_under_mobility(self, seed):
        rng = RngStream(seed, "medium-grid-equivalence")
        nodes = 25
        grid_medium = Medium(Channel(), index="grid")
        brute_medium = Medium(Channel(), index="brute")
        assert grid_medium.index_mode == "grid"
        assert brute_medium.index_mode == "brute"
        node_ids = range(nodes)
        clock = 0
        live = []
        for _epoch in range(12):
            positions = {i: rng.random_point(3000.0, 3000.0) for i in range(nodes)}
            grid_medium.update_positions(positions)
            brute_medium.update_positions(positions)
            _assert_adjacency_equal(grid_medium, brute_medium, node_ids)
            # Drive a few transmissions so the carrier-sense queries are
            # answered from each index's own sensed sets.
            for _ in range(4):
                clock += 1
                sender = rng.integers(0, nodes)
                tx = Transmission(
                    sender=sender,
                    receiver=(sender + 1) % nodes,
                    start_slot=clock,
                    end_slot=clock + 5 + rng.integers(0, 20),
                )
                live.append(
                    (grid_medium.start_transmission(tx),
                     brute_medium.start_transmission(
                         Transmission(**tx.__dict__)))
                )
            for node in node_ids:
                assert grid_medium.senses_busy(node) == (
                    brute_medium.senses_busy(node)
                )
                assert grid_medium.interferers_at(node, exclude_sender=None) == (
                    brute_medium.interferers_at(node, exclude_sender=None)
                )
            while len(live) > 3:
                g_id, b_id = live.pop(0)
                grid_medium.end_transmission(g_id)
                brute_medium.end_transmission(b_id)

    def test_auto_resolves_by_propagation_bound(self):
        assert Medium(Channel()).index_mode == "grid"
        shadowed = Channel(
            propagation=LogNormalShadowing(4.0, rng=RngStream(1, "shadow"))
        )
        assert Medium(shadowed).index_mode == "brute"

    def test_grid_mode_rejects_unbounded_propagation(self):
        shadowed = Channel(
            propagation=LogNormalShadowing(4.0, rng=RngStream(1, "shadow"))
        )
        with pytest.raises(ValueError, match="range_scale_bound"):
            Medium(shadowed, index="grid")

    def test_unknown_index_mode_rejected(self):
        with pytest.raises(ValueError, match="index"):
            Medium(Channel(), index="quadtree")
