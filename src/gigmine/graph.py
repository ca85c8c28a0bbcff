"""Immutable bipartite artist-venue graph stored as interned index arrays.

Nodes on one side are artists, on the other venues; an edge exists when at
least one event links the pair. Each edge records the number of events behind
it and the calendar year of the earliest one.

Ids are interned once: ``artist_order`` and ``venue_order`` are the sorted id
tuples, and a node's index is its position in its side's tuple. The edges are
stored once, as int arrays in CSR order (by artist index, then venue index):
``row``, ``col``, ``count`` and ``first_year``, with ``indptr`` delimiting each
artist's run and ``csc_indptr``/``csc_indices`` listing each venue's artists.
``csc_edges`` is the CSC edge order as positions in the CSR arrays, so
``csc_indices`` is ``row[csc_edges]``.
A node's neighbours, degree and event count are read from these arrays:
artist ``i`` has the venues ``col[indptr[i]:indptr[i + 1]]`` and venue ``j``
the artists ``csc_indices[csc_indptr[j]:csc_indptr[j + 1]]``, the degrees are
``np.diff(indptr)`` and ``np.diff(csc_indptr)``, and the event counts are
``np.bincount(row, weights=count)`` and ``np.bincount(col, weights=count)``.
The tasks read the arrays directly and keep no id maps of their own.

The graph is immutable after construction (its arrays are read-only) and safe
for concurrent reads. ``build_graph`` makes one from a corpus
(``gigmine.ingest.Corpus``), whose ids ``gigmine.ingest.parse_corpus`` has
interned and checked: artist and venue ids are disjoint and none is missing.
"""

from __future__ import annotations

import numpy as np
import scipy

from gigmine.errors import GigmineError


def _frozen(values, dtype=np.int64, copy=True) -> np.ndarray:
    """``values`` as a read-only array; ``copy=False`` freezes an array of ``dtype`` in place."""
    out = (np.array if copy else np.asarray)(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _mask(name, mask, n) -> np.ndarray:
    """``mask`` as a bool array of length ``n``; raises for anything else."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (n,):
        raise GigmineError(
            f"{name} must be a bool array of length {n}, "
            f"got {mask.dtype} array of shape {mask.shape}"
        )
    return mask


class BipartiteGraph:
    """Bipartite graph over sorted artist and venue id tuples and CSR edge arrays.

    Parameters
    ----------
    artist_order, venue_order : sequences of node ids
        A node's index is its position; nodes with no edges are allowed.
    row, col, count, first_year : int arrays, one entry per edge
        Artist index, venue index, events behind the edge (at least 1) and
        first event year, strictly ascending by (row, col).
    """

    def __init__(self, artist_order, venue_order, row, col, count, first_year):
        self.artist_order, self.venue_order = tuple(artist_order), tuple(venue_order)
        n_a, n_v = len(self.artist_order), len(self.venue_order)
        self.row, self.col = _frozen(row), _frozen(col)
        self.count, self.first_year = _frozen(count), _frozen(first_year)
        edges = (self.row, self.col, self.count, self.first_year)
        if any(a.shape != (self.row.size,) for a in edges):
            raise GigmineError("row, col, count and first_year must be 1-d arrays of one length")
        for name, index, n in (("artist", self.row, n_a), ("venue", self.col, n_v)):
            if index.size and not 0 <= index.min() <= index.max() < n:
                raise GigmineError(f"{name} index outside 0..{n - 1} in the edge arrays")
        if self.count.size and self.count.min() < 1:
            raise GigmineError(f"edge counts must be >= 1, got {self.count.min()}")
        rises = np.diff(self.row)
        if (rises < 0).any() or ((rises == 0) & (np.diff(self.col) <= 0)).any():
            raise GigmineError("edges must be strictly ascending by (row, col)")
        self.indptr = _frozen(np.searchsorted(self.row, np.arange(n_a + 1)))
        # CSC edge order; numpy runs a stable sort of ints this small as a radix sort
        small = self.col.astype(np.min_scalar_type(n_v))
        self.csc_edges = _frozen(np.argsort(small, kind="stable"))
        self.csc_indices = _frozen(self.row[self.csc_edges])
        self.csc_indptr = _frozen(np.searchsorted(self.col[self.csc_edges], np.arange(n_v + 1)))

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
            self.artist_order == other.artist_order
            and self.venue_order == other.venue_order
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("row", "col", "count", "first_year")
            )
        )

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph({len(self.artist_order)} artists, "
            f"{len(self.venue_order)} venues, {self.n_edges} edges)"
        )

    # -- index arrays ---------------------------------------------------------

    def id_pairs(self, rows, cols) -> list[tuple]:
        """(artist, venue) id pairs of artist and venue index arrays."""
        a, v = self.artist_order, self.venue_order
        return [(a[i], v[j]) for i, j in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist())]

    def subgraph(self, keep_edges) -> "BipartiteGraph":
        """Graph on every node and the edges where the bool mask ``keep_edges`` holds."""
        keep = _mask("keep_edges", keep_edges, self.n_edges)
        return BipartiteGraph(
            self.artist_order, self.venue_order, self.row[keep], self.col[keep],
            self.count[keep], self.first_year[keep],
        )

    # -- matrix view ----------------------------------------------------------

    def biadjacency(self) -> scipy.sparse.csr_matrix:
        """Sparse 0/1 artist x venue incidence matrix in (artist_order, venue_order) layout."""
        shape = (len(self.artist_order), len(self.venue_order))
        return scipy.sparse.csr_matrix(
            (np.ones(self.n_edges), self.col.copy(), self.indptr.copy()), shape=shape
        )


_KEY_SPAN = 1 << 63  # packed keys are int64, so each stays below this


def rank_rows(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense lexicographic rank of the rows of int columns, their sort order and run starts.

    ``columns`` is as ``pack_rows`` takes it, and the packed key gets one
    ``np.argsort``. Returns ``(rank, order, first)``: each row's rank among
    the distinct rows (int32 when the rows fit), an order that sorts the
    rows, and the mask of the sorted positions that start a run of equal
    rows, so ``order[first]`` holds one row of each rank. Rows equal on
    every column come in any order.
    """
    return _dense_rank(pack_rows(columns))


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


def _dense_rank(key):
    """``rank_rows`` of a single column of keys, in any int dtype."""
    order = np.argsort(key)
    ordered = key[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    dtype = np.int32 if key.size <= np.iinfo(np.int32).max else np.int64
    rank = np.empty(key.size, dtype=dtype)
    rank[order] = np.cumsum(first, dtype=dtype) - 1
    return rank, order, first


def _reranked(key):
    """The dense rank of each key, and the number of distinct keys."""
    rank, _, first = _dense_rank(key)
    return rank, int(np.count_nonzero(first))


def build_graph(corpus) -> BipartiteGraph:
    """The bipartite graph of a corpus (``gigmine.ingest.Corpus``), from its code columns.

    The graph has the corpus's artist and venue orders. An edge (a, v)
    exists iff at least one event links a and v; its count is the number
    of such events and its first_year their minimum year.
    """
    n_a, n_v, years = len(corpus.artist_order), len(corpus.venue_order), corpus.year
    # one sort of the packed key pair code x year span + (year - min year)
    # groups each edge's events, earliest first
    codes = corpus.artist * n_v + corpus.venue
    y0, y1 = (int(years.min()), int(years.max())) if years.size else (0, 0)
    order = np.argsort(pack_rows([(codes, n_a * n_v), (years - y0, y1 - y0 + 1)]))
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    row, col = np.divmod(codes[starts], n_v)
    count = np.diff(np.append(starts, len(codes)))
    first_year = years[order[starts]]
    del codes, order, starts  # one entry per event: freed before the graph builds its arrays
    return BipartiteGraph(corpus.artist_order, corpus.venue_order, row, col, count, first_year)
