"""Frequent touring routes mined from artists' city sequences.

Each artist's events, ordered by date (ties by event id), yield a sequence of
cities with consecutive repeats collapsed; contiguous n-grams of those
sequences are counted. A route and its reverse are merged under the
lexicographically smaller orientation, since tours run both ways.

A city is the (city, state, country) triple, so namesakes in different
regions stay distinct. Sequences hold codes into a city table in tuple
order (the corpus's ``cities``), so an n-gram's codes packed into one int64
key (``graph.pack_rows``) compare as the route they stand for: n-grams are
counted by their keys, and only the routes returned are decoded to cities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from gigmine.errors import GigmineError
from gigmine.graph import pack_rows, rank_rows

N_VALUES = (4, 5)


@dataclass(frozen=True, eq=False)
class CitySequence:
    """One artist's chronological city codes into ``table``, a tuple of cities in order."""

    artist_id: str
    codes: np.ndarray
    table: tuple

    @property
    def cities(self) -> tuple:
        return tuple(map(self.table.__getitem__, self.codes.tolist()))


@dataclass(frozen=True)
class RouteCount:
    """A canonical route with its merged count.

    ``route`` is the lexicographically smaller of the two orientations;
    ``bidirectional`` records whether both orientations were observed.
    A palindromic route reads the same both ways, so it is counted once
    and never marked bidirectional.
    """

    route: tuple
    count: int
    bidirectional: bool


def city_sequences(corpus) -> list[CitySequence]:
    """Chronological per-artist city sequences, consecutive repeats collapsed.

    The corpus keeps each artist's events in (date, event id) order, so the
    sequence is deterministic; artists come in ``artist_order``.
    """
    keep = (np.diff(corpus.city, prepend=-1) != 0) | (np.diff(corpus.artist, prepend=-1) != 0)
    bounds = np.cumsum(keep)[corpus.artist_indptr[1:-1] - 1]
    runs = np.split(corpus.city[keep], bounds)
    return [
        CitySequence(artist_id=a, codes=codes, table=corpus.cities)
        for a, codes in zip(corpus.artist_order, runs)
    ]


def mine_routes(
    sequences: Iterable[CitySequence],
    n_values: Sequence[int] = N_VALUES,
    top_k: Optional[int] = None,
) -> dict[int, list[RouteCount]]:
    """Count contiguous city n-grams and merge opposite orientations.

    Returns, per n, RouteCounts ranked by merged count descending (ties by
    route for determinism), cut to ``top_k`` when given. The merged count is
    the sum of the forward and reverse raw counts. All sequences must share
    one city table, every n must be positive and ``top_k``, when given, at
    least 1.
    """
    if any(n < 1 for n in n_values):
        raise GigmineError(f"route lengths must be positive, got {list(n_values)}")
    if top_k is not None and top_k < 1:
        raise GigmineError(f"top_k must be at least 1, got {top_k}")
    sequences = list(sequences)
    table = sequences[0].table if sequences else ()
    if not all(s.table is table or s.table == table for s in sequences):
        raise GigmineError("city sequences come from different city tables")
    codes = np.concatenate([s.codes for s in sequences] + [np.zeros(0, dtype=np.int64)])
    # one past each code's own sequence, so no n-gram spans two sequences
    lengths = [len(s.codes) for s in sequences]
    ends = np.repeat(np.cumsum(lengths), lengths)
    return {
        n: _ranked_routes(codes, np.flatnonzero(np.arange(codes.size) + n <= ends), n, table, top_k)
        for n in n_values
    }


def _ranked_routes(codes, starts, n, table, top_k) -> list[RouteCount]:
    """``mine_routes`` for the n-grams ``codes[s:s + n]`` of each ``s`` in ``starts``."""
    m = starts.size
    # forward rows over reverse rows, packed column by column into keys that
    # compare as the n-grams do, so no (n-grams x n) array is formed
    key = pack_rows(
        (np.concatenate([codes[starts + i], codes[starts + (n - 1 - i)]]), len(table))
        for i in range(n)
    )
    forward = key[:m] <= key[m:]  # palindromes count as forward only
    rank, order, first = rank_rows([(np.minimum(key[:m], key[m:]), 1 << 63)])
    del key
    count = np.bincount(rank)
    n_forward = np.bincount(rank[forward], minlength=count.size)
    bidirectional = (n_forward > 0) & (n_forward < count)
    # ranks ascend with the routes, so a stable sort by count keeps ties in route order
    ranked = np.argsort(-count, kind="stable")[:top_k]
    # decode only the returned routes, each from one of its n-grams
    at = order[first][ranked]
    grams = codes[starts[at][:, None] + np.arange(n)]
    reverse = ~forward[at]
    grams[reverse] = grams[reverse, ::-1]
    return [
        RouteCount(
            route=tuple(map(table.__getitem__, gram)),
            count=int(count[r]),
            bidirectional=bool(bidirectional[r]),
        )
        for gram, r in zip(grams.tolist(), ranked.tolist())
    ]
