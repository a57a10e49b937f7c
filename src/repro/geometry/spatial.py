"""Uniform-grid spatial index for range queries over planar point sets.

Every hot path of the reproduction — the CBTC growing phase, the witness
loops of the proximity-graph baselines, reachability graphs — asks the same
question: *which nodes lie within distance r of this point?*  Answered by a
linear scan that question makes topology construction quadratic (and the
Gabriel/RNG witness tests cubic) in the node count.  This module provides a
uniform grid that answers it in output-sensitive time.

The grid hashes each point into a square cell of side ``cell_size``; a query
of radius ``r`` only inspects the cells overlapping the query disk, so with
``cell_size`` equal to the maximum transmission range (how
:meth:`repro.net.network.Network.spatial_index` builds it) a
``neighbors_within(p, max_range)`` query touches at most a 3x3 block of
cells regardless of the network size.  Larger radii are still answered
correctly — the query simply visits more cells.

Exactness contract
------------------

The index is an *accelerator, not an approximation*: queries return exactly
the keys a brute-force scan with the repo-wide distance tolerance would
return (``d <= r + 1e-12``, see :data:`DISTANCE_TOLERANCE`), computed with
the same ``math.hypot`` call that :meth:`Point.distance_to` uses, and sorted
by key so iteration order matches a scan over ID-sorted nodes.  That scan is
:class:`BruteForceIndex`, the test oracle with the same interface.  The
property tests in ``tests/geometry/test_spatial.py`` enforce this contract,
including for points at distance exactly ``r``.

Bulk distance computations (used by analyses rather than the
identity-critical construction paths) are served by the vectorized helpers
:func:`pairwise_distances` and :func:`distances_from`, which use numpy when
it is available and fall back to pure Python otherwise.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

try:  # numpy is an optional accelerator for the bulk helpers only.
    import numpy as _np
except ImportError:  # pragma: no cover - the test image always has numpy
    _np = None

#: Absolute slack added to every distance comparison, matching the
#: ``d <= radius + 1e-12`` convention used throughout the reproduction
#: (both index classes below, ``PowerModel.can_reach``, the baselines).
DISTANCE_TOLERANCE = 1e-12

Coordinate = Tuple[float, float]


def _as_xy(point) -> Coordinate:
    """Accept ``Point``-likes, ``(x, y)`` tuples, or anything with x/y."""
    x = getattr(point, "x", None)
    if x is not None:
        return (float(x), float(point.y))
    x, y = point
    return (float(x), float(y))


class UniformGridIndex:
    """A uniform grid over keyed planar points supporting disk queries.

    Parameters
    ----------
    cell_size:
        Side length of the square grid cells.  Choose it close to the most
        common query radius; queries of radius ``r`` inspect
        ``O((r / cell_size + 2)^2)`` cells.
    items:
        Iterable of ``(key, point)`` pairs.  Keys must be hashable and
        mutually sortable (node IDs in this codebase); points may be
        :class:`repro.geometry.Point` instances or ``(x, y)`` tuples.

    The index supports *delta updates* — :meth:`insert`, :meth:`delete` and
    :meth:`move` patch the affected cell buckets in O(bucket) time — so the
    network layer keeps one index alive across mobility/churn epochs instead
    of rebuilding it from scratch after every node event (see
    ``Network.spatial_index`` for the ownership rules).  Query results are
    key-sorted, so bucket ordering never leaks into outputs: a patched index
    answers every query exactly as a freshly built one would (enforced by the
    property tests in ``tests/geometry/test_spatial.py``).  Any mutation
    drops the memoized :meth:`pairs_within` results.
    """

    __slots__ = (
        "cell_size",
        "_points",
        "_cells",
        "_pair_cache",
        "neighbor_queries",
        "pair_queries",
    )

    def __init__(self, cell_size: float, items: Iterable[Tuple[Hashable, object]] = ()) -> None:
        if not (cell_size > 0.0) or math.isinf(cell_size) or math.isnan(cell_size):
            raise ValueError("cell_size must be a positive finite number")
        self.cell_size = float(cell_size)
        # Telemetry-only query counters surfaced through the metrics op.
        self.neighbor_queries = 0
        self.pair_queries = 0
        self._pair_cache: Dict[float, List[Tuple[Hashable, Hashable, float]]] = {}
        self._points: Dict[Hashable, Coordinate] = {}
        # Buckets carry coordinates inline ((key, x, y) tuples) so the query
        # hot loops never touch the _points dict.
        self._cells: Dict[Tuple[int, int], List[Tuple[Hashable, float, float]]] = {}
        for key, point in items:
            if key in self._points:
                raise ValueError(f"duplicate key {key!r} in spatial index")
            x, y = _as_xy(point)
            self._points[key] = (x, y)
            self._cells.setdefault(self._cell_of((x, y)), []).append((key, x, y))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._points

    def keys(self) -> List[Hashable]:
        """All indexed keys, sorted."""
        return sorted(self._points)

    def position_of(self, key: Hashable) -> Coordinate:
        """The ``(x, y)`` coordinate stored for ``key``."""
        return self._points[key]

    def cell_count(self) -> int:
        """Number of non-empty grid cells (diagnostic)."""
        return len(self._cells)

    def _cell_of(self, xy: Coordinate) -> Tuple[int, int]:
        return (math.floor(xy[0] / self.cell_size), math.floor(xy[1] / self.cell_size))

    # ------------------------------------------------------------------ #
    # Delta updates
    # ------------------------------------------------------------------ #
    def insert(self, key: Hashable, point) -> None:
        """Add a new keyed point (O(1); raises on duplicate keys)."""
        if key in self._points:
            raise ValueError(f"duplicate key {key!r} in spatial index")
        xy = _as_xy(point)
        self._points[key] = xy
        self._cells.setdefault(self._cell_of(xy), []).append((key, xy[0], xy[1]))
        self._pair_cache.clear()

    def delete(self, key: Hashable) -> None:
        """Remove a keyed point (O(bucket); raises ``KeyError`` when absent)."""
        xy = self._points.pop(key)
        cell = self._cell_of(xy)
        bucket = self._cells[cell]
        for i, entry in enumerate(bucket):
            if entry[0] == key:
                del bucket[i]
                break
        if not bucket:
            del self._cells[cell]
        self._pair_cache.clear()

    def move(self, key: Hashable, point) -> None:
        """Relocate a keyed point; a move to the identical coordinate is a
        no-op that keeps the memoized pair sets alive."""
        xy = _as_xy(point)
        if self._points[key] == xy:
            return
        self.delete(key)
        self._points[key] = xy
        self._cells.setdefault(self._cell_of(xy), []).append((key, xy[0], xy[1]))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _candidate_cells(self, xy: Coordinate, radius: float) -> Iterator[List[Tuple[Hashable, float, float]]]:
        padded = radius + DISTANCE_TOLERANCE
        # A few ulps more: ``xy - padded`` is rounded, so a point whose
        # distance rounds down to the limit can sit just across a cell edge.
        padded += 4 * math.ulp(max(abs(xy[0]), abs(xy[1]), padded))
        cx_min = math.floor((xy[0] - padded) / self.cell_size)
        cx_max = math.floor((xy[0] + padded) / self.cell_size)
        cy_min = math.floor((xy[1] - padded) / self.cell_size)
        cy_max = math.floor((xy[1] + padded) / self.cell_size)
        cells = self._cells
        # When the query disk spans more cells than exist, walking the
        # populated cells directly is cheaper than the empty rectangle.
        span = (cx_max - cx_min + 1) * (cy_max - cy_min + 1)
        if span >= len(cells):
            for (cx, cy), bucket in cells.items():
                if cx_min <= cx <= cx_max and cy_min <= cy <= cy_max:
                    yield bucket
            return
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                bucket = cells.get((cx, cy))
                if bucket is not None:
                    yield bucket

    def neighbors_within(self, point, radius: float, *, exclude: Optional[Hashable] = None) -> List[Hashable]:
        """Keys within ``radius`` of ``point`` (inclusive, with tolerance), sorted.

        Matches a brute-force scan exactly: a key is returned iff
        ``hypot(dx, dy) <= radius + DISTANCE_TOLERANCE``.  ``exclude`` drops
        one key (typically the querying node itself) without a distance test.
        """
        self.neighbor_queries += 1
        if radius < 0:
            return []
        qx, qy = _as_xy(point)
        limit = radius + DISTANCE_TOLERANCE
        hypot = math.hypot
        found: List[Hashable] = []
        for bucket in self._candidate_cells((qx, qy), radius):
            for key, px, py in bucket:
                if key != exclude and hypot(px - qx, py - qy) <= limit:
                    found.append(key)
        found.sort()
        return found

    def neighbors_with_distances(
        self, point, radius: float, *, exclude: Optional[Hashable] = None
    ) -> List[Tuple[Hashable, float]]:
        """Like :meth:`neighbors_within` but returns sorted ``(key, distance)`` pairs."""
        self.neighbor_queries += 1
        if radius < 0:
            return []
        qx, qy = _as_xy(point)
        limit = radius + DISTANCE_TOLERANCE
        hypot = math.hypot
        found: List[Tuple[Hashable, float]] = []
        for bucket in self._candidate_cells((qx, qy), radius):
            for key, px, py in bucket:
                if key == exclude:
                    continue
                d = hypot(px - qx, py - qy)
                if d <= limit:
                    found.append((key, d))
        found.sort()
        return found

    def pairs_within(self, radius: float) -> List[Tuple[Hashable, Hashable, float]]:
        """All unordered pairs at distance ``<= radius`` (with tolerance).

        Returns ``(u, v, distance)`` triples with ``u < v``, ascending in
        ``u`` then ``v`` — the same order as the classical nested loop over
        ID-sorted nodes, so graph construction code can switch to the index
        without perturbing edge insertion order.  (A list, not a generator:
        the hot construction paths iterate it pair-by-pair, where generator
        resumption overhead is measurable.)

        The index is immutable, so results are memoized per radius — several
        constructions over one network (all baselines, repeated CBTC runs)
        enumerate the ``max_range`` pair set once.  Callers must treat the
        returned list as read-only.
        """
        self.pair_queries += 1
        cached = self._pair_cache.get(radius)
        if cached is not None:
            return cached
        pairs: List[Tuple[Hashable, Hashable, float]] = []
        if radius < 0:
            return pairs
        points = self._points
        limit = radius + DISTANCE_TOLERANCE
        hypot = math.hypot
        for u in sorted(points):
            ux, uy = points[u]
            partners: List[Tuple[Hashable, float]] = []
            for bucket in self._candidate_cells((ux, uy), radius):
                for v, px, py in bucket:
                    if u < v:
                        d = hypot(px - ux, py - uy)
                        if d <= limit:
                            partners.append((v, d))
            partners.sort()
            for v, d in partners:
                pairs.append((u, v, d))
        self._pair_cache[radius] = pairs
        return pairs


class BruteForceIndex:
    """Linear-scan reference for the :class:`UniformGridIndex` interface.

    Every query scans all stored points with the same ``math.hypot``
    distances, the same tolerance and the same key-sorted result order as
    the grid, so the two must answer identically.  No production code builds
    it: the equivalence tests swap it in for the grid that
    :meth:`repro.net.network.Network.spatial_index` constructs, which makes
    every construction on that network run against this oracle.
    ``cell_size`` is accepted for constructor parity and ignored.
    """

    __slots__ = ("_points", "neighbor_queries", "pair_queries")

    def __init__(self, cell_size: float, items: Iterable[Tuple[Hashable, object]] = ()) -> None:
        self.neighbor_queries = 0
        self.pair_queries = 0
        self._points: Dict[Hashable, Coordinate] = {}
        for key, point in items:
            self.insert(key, point)

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._points

    def insert(self, key: Hashable, point) -> None:
        """Add a new keyed point (raises on duplicate keys)."""
        if key in self._points:
            raise ValueError(f"duplicate key {key!r} in spatial index")
        self._points[key] = _as_xy(point)

    def delete(self, key: Hashable) -> None:
        """Remove a keyed point (raises ``KeyError`` when absent)."""
        del self._points[key]

    def move(self, key: Hashable, point) -> None:
        """Relocate a keyed point (raises ``KeyError`` when absent)."""
        if key not in self._points:
            raise KeyError(key)
        self._points[key] = _as_xy(point)

    def _scan(self, point, radius: float, exclude: Optional[Hashable]) -> List[Tuple[Hashable, float]]:
        if radius < 0:
            return []
        qx, qy = _as_xy(point)
        limit = radius + DISTANCE_TOLERANCE
        found = []
        for key, (px, py) in sorted(self._points.items()):
            d = math.hypot(px - qx, py - qy)
            if key != exclude and d <= limit:
                found.append((key, d))
        return found

    def neighbors_within(self, point, radius: float, *, exclude: Optional[Hashable] = None) -> List[Hashable]:
        """Keys within ``radius`` of ``point`` (inclusive, with tolerance), sorted."""
        self.neighbor_queries += 1
        return [key for key, _ in self._scan(point, radius, exclude)]

    def neighbors_with_distances(
        self, point, radius: float, *, exclude: Optional[Hashable] = None
    ) -> List[Tuple[Hashable, float]]:
        """Sorted ``(key, distance)`` pairs within ``radius`` of ``point``."""
        self.neighbor_queries += 1
        return self._scan(point, radius, exclude)

    def pairs_within(self, radius: float) -> List[Tuple[Hashable, Hashable, float]]:
        """``(u, v, distance)`` triples with ``u < v``, ascending in ``u`` then ``v``."""
        self.pair_queries += 1
        if radius < 0:
            return []
        limit = radius + DISTANCE_TOLERANCE
        ordered = sorted(self._points.items())
        pairs = []
        for i, (u, (ux, uy)) in enumerate(ordered):
            for v, (vx, vy) in ordered[i + 1 :]:
                d = math.hypot(vx - ux, vy - uy)
                if d <= limit:
                    pairs.append((u, v, d))
        return pairs


# --------------------------------------------------------------------------- #
# Vectorized bulk-distance helpers
# --------------------------------------------------------------------------- #
def _coords(points: Sequence[object]) -> List[Coordinate]:
    return [_as_xy(p) for p in points]


def pairwise_distances(points: Sequence[object]):
    """Full ``n x n`` Euclidean distance matrix for a sequence of points.

    Returns a numpy array when numpy is available, otherwise a nested list.
    Intended for bulk analyses (degree histograms, stretch tables); the
    construction paths use :class:`UniformGridIndex` so their float results
    stay bit-identical to the scalar ``math.hypot`` computations.
    """
    coords = _coords(points)
    if _np is not None:
        arr = _np.asarray(coords, dtype=float).reshape(-1, 2)
        deltas = arr[:, None, :] - arr[None, :, :]
        return _np.hypot(deltas[..., 0], deltas[..., 1])
    return [
        [math.hypot(ax - bx, ay - by) for (bx, by) in coords]
        for (ax, ay) in coords
    ]


def distances_from(origin, points: Sequence[object]):
    """Distances from ``origin`` to each point in ``points`` (vectorized)."""
    ox, oy = _as_xy(origin)
    coords = _coords(points)
    if _np is not None:
        arr = _np.asarray(coords, dtype=float).reshape(-1, 2)
        return _np.hypot(arr[:, 0] - ox, arr[:, 1] - oy)
    return [math.hypot(px - ox, py - oy) for (px, py) in coords]
