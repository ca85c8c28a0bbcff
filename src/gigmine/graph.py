"""Immutable bipartite artist-venue graph stored as interned index arrays.

Nodes on one side are artists, on the other venues; an edge exists when at
least one event links the pair. Each edge records the number of events behind
it and the calendar year of the earliest one.

Ids are interned once: ``artist_order`` and ``venue_order`` are the sorted id
tuples, and a node's index is its position in its side's tuple. The edges are
stored once, as int arrays in CSR order (by artist index, then venue index):
``row``, ``col``, ``count`` and ``first_year``, with ``indptr`` delimiting each
artist's run and ``csc_indptr``/``csc_indices`` listing each venue's artists.
Neighbor sets, distinct-neighbor degrees, event counts and the sparse
biadjacency matrix are views over these arrays, and the tasks read the arrays
directly instead of keeping id maps of their own.

The graph is immutable after construction (its arrays are read-only) and safe
for concurrent reads. Artist and venue id sets must be disjoint so that an id
passed to a node view names one node; construction rejects overlapping ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy

from gigmine.errors import GigmineError, UnknownNodeError

ArtistId = str
VenueId = str


@dataclass(frozen=True)
class EdgeInfo:
    """Per-edge payload: event multiplicity and first event year."""

    count: int
    first_year: int


def _frozen(values, dtype=np.int64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class BipartiteGraph:
    """Bipartite graph over disjoint artist and venue node sets.

    Parameters
    ----------
    artists, venues : iterables of node ids
        May include isolated nodes (nodes with no edges).
    edges : mapping (artist_id, venue_id) -> EdgeInfo
        Every endpoint must appear in the corresponding node set.
    """

    def __init__(
        self,
        artists: Iterable[ArtistId],
        venues: Iterable[VenueId],
        edges: Mapping[tuple[ArtistId, VenueId], EdgeInfo],
    ):
        self._set_nodes(tuple(sorted(set(artists), key=str)), tuple(sorted(set(venues), key=str)))
        fields = []
        for (a, v), info in edges.items():
            if a not in self._artist_index:
                raise GigmineError(f"edge ({a!r}, {v!r}): artist endpoint not in node set")
            if v not in self._venue_index:
                raise GigmineError(f"edge ({a!r}, {v!r}): venue endpoint not in node set")
            if info.count < 1:
                raise GigmineError(f"edge ({a!r}, {v!r}): count must be >= 1, got {info.count}")
            fields.append((self._artist_index[a], self._venue_index[v], info.count, info.first_year))
        self._set_edges(*np.array(sorted(fields), dtype=np.int64).reshape(-1, 4).T)

    @classmethod
    def _from_arrays(cls, artist_order, venue_order, row, col, count, first_year):
        """Graph over sorted id tuples and edge arrays already in CSR order."""
        g = cls.__new__(cls)
        g._set_nodes(artist_order, venue_order)
        g._set_edges(row, col, count, first_year)
        return g

    def _set_nodes(self, artist_order: tuple, venue_order: tuple):
        self._artists, self._venues = frozenset(artist_order), frozenset(venue_order)
        overlap = self._artists & self._venues
        if overlap:
            raise GigmineError(
                f"artist and venue id sets overlap: {sorted(map(str, overlap))[:5]}"
            )
        self._artist_order, self._venue_order = artist_order, venue_order
        self._artist_index = {a: i for i, a in enumerate(artist_order)}
        self._venue_index = {v: j for j, v in enumerate(venue_order)}

    def _set_edges(self, row, col, count, first_year):
        self.row, self.col = _frozen(row), _frozen(col)
        self.count, self.first_year = _frozen(count), _frozen(first_year)
        self.indptr = _frozen(np.searchsorted(self.row, np.arange(len(self._artist_order) + 1)))
        # CSC edge order; numpy runs a stable sort of ints this small as a radix sort
        small = self.col.astype(np.min_scalar_type(len(self._venue_order)))
        self._by_venue = _frozen(np.argsort(small, kind="stable"))
        self.csc_indices = _frozen(self.row[self._by_venue])
        self.csc_indptr = _frozen(
            np.searchsorted(self.col[self._by_venue], np.arange(len(self._venue_order) + 1))
        )

    # -- node and edge views ------------------------------------------------

    @property
    def artists(self) -> frozenset:
        return self._artists

    @property
    def venues(self) -> frozenset:
        return self._venues

    @property
    def edges(self) -> Mapping[tuple[ArtistId, VenueId], EdgeInfo]:
        """A new (artist, venue) -> EdgeInfo dict in CSR order, for reading."""
        infos = map(EdgeInfo, self.count.tolist(), self.first_year.tolist())
        return dict(zip(self.id_pairs(self.row, self.col), infos))

    @property
    def artist_order(self) -> tuple:
        return self._artist_order

    @property
    def venue_order(self) -> tuple:
        return self._venue_order

    @property
    def n_edges(self) -> int:
        return len(self.row)

    @property
    def total_events(self) -> int:
        return int(self.count.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self._artist_order == other._artist_order
            and self._venue_order == other._venue_order
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("row", "col", "count", "first_year")
            )
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph({len(self._artists)} artists, "
            f"{len(self._venues)} venues, {self.n_edges} edges)"
        )

    # -- index arrays ---------------------------------------------------------

    def id_pairs(self, rows, cols) -> list[tuple]:
        """(artist, venue) id pairs of artist and venue index arrays."""
        a, v = self._artist_order, self._venue_order
        return [(a[i], v[j]) for i, j in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist())]

    def subgraph(self, keep_edges, keep_artists=None, keep_venues=None) -> "BipartiteGraph":
        """Graph on the kept nodes (all by default) and the kept edges between them.

        The masks are boolean arrays over the edge arrays and the two orders.
        """
        if keep_artists is None:
            keep_artists = np.ones(len(self._artist_order), dtype=bool)
        if keep_venues is None:
            keep_venues = np.ones(len(self._venue_order), dtype=bool)
        keep = keep_edges & keep_artists[self.row] & keep_venues[self.col]
        return BipartiteGraph._from_arrays(
            tuple(np.array(self._artist_order, dtype=object)[keep_artists]),
            tuple(np.array(self._venue_order, dtype=object)[keep_venues]),
            (np.cumsum(keep_artists) - 1)[self.row[keep]],
            (np.cumsum(keep_venues) - 1)[self.col[keep]],
            self.count[keep],
            self.first_year[keep],
        )

    # -- neighborhood queries -----------------------------------------------

    def _hood(self, node):
        """Where ``node``'s edges sit in the edge arrays, their far ends and that side's order."""
        i = self._artist_index.get(node)
        if i is not None:
            at = slice(self.indptr[i], self.indptr[i + 1])
            return at, self.col[at], self._venue_order
        j = self._venue_index.get(node)
        if j is not None:
            at = slice(self.csc_indptr[j], self.csc_indptr[j + 1])
            return self._by_venue[at], self.csc_indices[at], self._artist_order
        raise UnknownNodeError(node)

    def neighbors(self, node) -> frozenset:
        """Opposite-side nodes sharing an edge with ``node``."""
        _, far, order = self._hood(node)
        return frozenset(map(order.__getitem__, far.tolist()))

    def degree(self, node) -> int:
        """Number of distinct opposite-side neighbors (not summed event counts)."""
        return len(self._hood(node)[1])

    def event_count(self, node) -> int:
        """Total events touching ``node``, i.e. incident edge multiplicities summed."""
        return int(self.count[self._hood(node)[0]].sum())

    # -- matrix view ----------------------------------------------------------

    def biadjacency(self, values="binary") -> scipy.sparse.csr_matrix:
        """Sparse artist x venue matrix in (artist_order, venue_order) layout.

        ``values`` selects the entries: "binary" (0/1 incidence), "count"
        (event multiplicities) or an array of one value per edge in CSR order.
        """
        if isinstance(values, str):
            if values not in ("binary", "count"):
                raise ValueError(f"values must be binary|count or an array, got {values!r}")
            values = np.ones(self.n_edges) if values == "binary" else self.count
        shape = (len(self._artist_order), len(self._venue_order))
        return scipy.sparse.csr_matrix(
            (np.array(values, dtype=float), self.col.copy(), self.indptr.copy()), shape=shape
        )


def intern_ids(ids: Sequence, key=str) -> tuple[tuple, np.ndarray]:
    """Distinct ids sorted by ``key`` (None for their natural order), and each id's index.

    Graphs built from triples intern their ids here; ``gigmine.ingest``
    keys the columns of ``events.csv`` itself. A dict rather than
    ``np.unique``: a numpy string array drops trailing NUL characters and
    would merge "a" with "a\\0".
    """
    index = dict.fromkeys(ids)
    order = tuple(sorted(index, key=key))
    index.update(zip(order, range(len(order))))
    return order, np.array([index[x] for x in ids], dtype=np.int64)


_KEY_SPAN = 1 << 63  # packed keys are int64, so each stays below this


def rank_rows(columns, stable=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense lexicographic rank of the rows of int columns, their sort order and run starts.

    ``columns`` is as ``pack_rows`` takes it, and the packed key gets one
    ``np.argsort``. Returns ``(rank, order, first)``: each row's rank among
    the distinct rows (int32 when the rows fit), an order that sorts the
    rows, and the mask of the sorted positions that start a run of equal
    rows, so ``order[first]`` holds one row of each rank. Rows equal on
    every column keep their input order when ``stable``, and come in any
    order otherwise.
    """
    return _dense_rank(pack_rows(columns), stable)


def pack_rows(columns) -> np.ndarray:
    """One int key per row of int columns, ordered as the rows are.

    ``columns`` yields ``(values, bound)`` pairs, first column first, each
    an array of ints in ``[0, bound)``; it is read one column at a time.
    The columns are packed into one int64 key, mixed-radix by their bounds
    (a single column is its own key). A column bound of 2**63 or more
    (uint64 words) is ranked before it is packed, and when the next factor
    would take the key to 2**63 the partial key is re-ranked first, then
    the column if that is not enough.
    """
    key, owned = None, False  # owned: key is an int64 array of this call's own
    for values, bound in columns:
        if key is None:
            key, size = values, bound
            continue
        if bound >= _KEY_SPAN:
            values, bound = _reranked(values)
        if size * bound >= _KEY_SPAN:
            (key, size), owned = _reranked(key), False
            if size * bound >= _KEY_SPAN:
                values, bound = _reranked(values)
        if owned:
            key *= bound
        else:
            key, owned = np.multiply(key, bound, dtype=np.int64), True
        key += values
        size *= bound
    return key


def _dense_rank(key, stable=False):
    """``rank_rows`` of a single column of keys, in any int dtype."""
    order = np.argsort(key)
    ordered = key[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    if stable and not first.all():  # only tied keys can come out of input order
        order = np.argsort(key, kind="stable")
    dtype = np.int32 if key.size <= np.iinfo(np.int32).max else np.int64
    rank = np.empty(key.size, dtype=dtype)
    rank[order] = np.cumsum(first, dtype=dtype) - 1
    return rank, order, first


def _reranked(key):
    """The dense rank of each key, and the number of distinct keys."""
    rank, _, first = _dense_rank(key)
    return rank, int(np.count_nonzero(first))


def build_graph(events) -> BipartiteGraph:
    """Build the bipartite graph from a corpus or from ``(artist, venue, year)`` triples.

    A corpus (``gigmine.ingest.Corpus``) is aggregated from its code columns.
    An edge (a, v) exists iff at least one event links a and v; its count is
    the number of such events and its first_year their minimum year. A
    triple with a missing artist or venue id is rejected with an error
    naming its position.
    """
    if hasattr(events, "artist_order"):
        artist_order, venue_order = events.artist_order, events.venue_order
        a_code, v_code, years = events.artist, events.venue, events.year
    else:
        artists, venues, years = [], [], []
        for pos, event in enumerate(events):
            if not isinstance(event, tuple) or len(event) != 3:
                raise GigmineError(f"event #{pos}: expected (artist, venue, year) triple")
            a, v, year = event
            if a is None or a == "":
                raise GigmineError(f"event #{pos}: missing artist id")
            if v is None or v == "":
                raise GigmineError(f"event #{pos}: missing venue id")
            artists.append(a)
            venues.append(v)
            years.append(int(year))
        artist_order, a_code = intern_ids(artists)
        venue_order, v_code = intern_ids(venues)
        years = np.array(years, dtype=np.int64)
    # one sort of the packed key pair code x year span + (year - min year)
    # groups each edge's events, earliest first
    codes = a_code * len(venue_order) + v_code
    y0, y1 = (int(years.min()), int(years.max())) if years.size else (0, 0)
    order = rank_rows([(codes, len(artist_order) * len(venue_order)), (years - y0, y1 - y0 + 1)])[1]
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    row, col = np.divmod(codes[starts], len(venue_order))
    count = np.diff(np.append(starts, len(codes)))
    return BipartiteGraph._from_arrays(
        artist_order, venue_order, row, col, count, years[order][starts]
    )
