"""Uniform-grid spatial hash for sensing-range neighbor queries.

The simulator's PHY layer needs, for every node, the set of nodes
within sensing range.  An all-pairs scan is O(n²) per mobility epoch
and caps topology size near the paper's ~100 nodes; this module
provides the standard cell-list alternative: hash every node into a
square grid cell of side >= the maximum interaction radius, and answer
"who could be within radius r of p?" from the 3×3 block of cells
around p's cell.

Correctness argument: with ``cell_size >= r``, any point within
distance ``r`` of ``p`` lies in a cell whose index differs from
``p``'s by at most 1 on each axis — so the 3×3 neighborhood is a
*superset* of the true in-range set.  The grid only ever prunes
candidates; callers re-check the exact link predicate (including
per-pair shadowing margins) on every candidate, so query results are
set-identical to the brute-force scan (``tests/test_spatial.py`` pins
this under random placements and mobility, via hypothesis and fixed
seeds).

Updates are incremental: :meth:`SpatialGrid.update` moves only the
nodes whose cell index actually changed, so a mobility epoch where
most nodes stay within their 0.5–14 m/s leg costs O(moved), not O(n).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.geometry.vectors import Point
from repro.util.units import Meters
from repro.util.validation import check_positive

#: Integer cell index (column, row) of one grid square.
Cell = Tuple[int, int]

#: Neighborhood offsets: a cell plus its 8 surrounding cells.
_NEIGHBOR_OFFSETS: Tuple[Cell, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


class SpatialGrid:
    """Uniform spatial hash over node positions.

    Parameters
    ----------
    cell_size:
        Side length of one grid cell, in meters.  Must be at least the
        largest radius the grid will be queried with; choose the
        maximum effective sensing range times a small safety factor so
        float rounding in the division can never shrink the
        neighborhood below the query disk (see
        :func:`cell_size_for_radius`).
    """

    def __init__(self, cell_size: Meters) -> None:
        self.cell_size: Meters = check_positive(cell_size, "cell_size")
        self._cells: Dict[Cell, List[int]] = {}
        self._cell_of: Dict[int, Cell] = {}

    # -- indexing ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cell_of)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._cell_of

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def key(self, position: Point) -> Cell:
        """The cell index containing ``position``."""
        size = self.cell_size
        return (
            int(math.floor(position[0] / size)),
            int(math.floor(position[1] / size)),
        )

    def cell_of(self, node_id: int) -> Optional[Cell]:
        """The indexed cell of ``node_id`` (None if not indexed)."""
        return self._cell_of.get(node_id)

    def rebuild(self, positions: Mapping[int, Point]) -> None:
        """Re-index every node from scratch."""
        self._cells.clear()
        self._cell_of.clear()
        cell_of = self._cell_of
        cells = self._cells
        for node_id, position in positions.items():
            cell = self.key(position)
            cell_of[node_id] = cell
            bucket = cells.get(cell)
            if bucket is None:
                cells[cell] = [node_id]
            else:
                bucket.append(node_id)

    def update(self, positions: Mapping[int, Point]) -> List[int]:
        """Incrementally re-index; returns node ids that changed cell.

        Nodes new to the index count as moved; nodes absent from
        ``positions`` are dropped from the index (and do not appear in
        the returned list).  The cost is O(n) dictionary lookups but
        only O(moved) bucket mutations — the common mobility epoch
        where nodes drift within their current cell touches no
        buckets at all.
        """
        cell_of = self._cell_of
        cells = self._cells
        moved: List[int] = []
        if len(cell_of) > len(positions):
            for node_id in [n for n in cell_of if n not in positions]:
                self._discard(node_id)
        for node_id, position in positions.items():
            cell = self.key(position)
            old = cell_of.get(node_id)
            if old == cell:
                continue
            if old is not None:
                bucket = cells[old]
                bucket.remove(node_id)
                if not bucket:
                    del cells[old]
            cell_of[node_id] = cell
            new_bucket = cells.get(cell)
            if new_bucket is None:
                cells[cell] = [node_id]
            else:
                new_bucket.append(node_id)
            moved.append(node_id)
        return moved

    def _discard(self, node_id: int) -> None:
        cell = self._cell_of.pop(node_id, None)
        if cell is None:
            return
        bucket = self._cells[cell]
        bucket.remove(node_id)
        if not bucket:
            del self._cells[cell]

    # -- queries -----------------------------------------------------------

    def candidates_of(self, node_id: int) -> Iterator[int]:
        """Neighborhood of an indexed node, excluding the node itself."""
        cell = self._cell_of.get(node_id)
        if cell is None:
            return
        cx, cy = cell
        cells = self._cells
        for dx, dy in _NEIGHBOR_OFFSETS:
            bucket = cells.get((cx + dx, cy + dy))
            if bucket is not None:
                for other in bucket:
                    if other != node_id:
                        yield other

    def occupied_cells(self) -> List[Cell]:
        """Sorted list of non-empty cell indices."""
        return sorted(self._cells)

    def nodes_in(self, cell: Cell) -> Tuple[int, ...]:
        """Node ids currently indexed in ``cell`` (insertion order)."""
        bucket = self._cells.get(cell)
        return tuple(bucket) if bucket is not None else ()


def cell_size_for_radius(radius: Meters) -> Meters:
    """Grid cell side guaranteeing 3×3 coverage of a ``radius`` disk.

    The 1e-9 relative pad absorbs the worst-case float rounding of the
    ``position / cell_size`` division, so a point exactly ``radius``
    away can never land outside the 3×3 block.
    """
    check_positive(radius, "radius")
    return radius * (1.0 + 1e-9)


def brute_force_in_range(
    positions: Mapping[int, Point],
    node_id: int,
    radius: Meters,
) -> Set[int]:
    """Reference all-pairs range query (test oracle; O(n) per call)."""
    origin = positions[node_id]
    limit = float(radius)
    result: Set[int] = set()
    for other, position in positions.items():
        if other == node_id:
            continue
        if math.hypot(position[0] - origin[0], position[1] - origin[1]) <= limit:
            result.add(other)
    return result
