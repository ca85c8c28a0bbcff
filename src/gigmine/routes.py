"""Frequent touring routes mined from artists' city sequences.

Each artist's events, ordered by date (ties by event id), yield a sequence of
cities with consecutive repeats collapsed; contiguous n-grams of those
sequences are counted. A route and its reverse are merged under the
lexicographically smaller orientation, since tours run both ways.

A city is the (city, state, country) triple, so namesakes in different
regions stay distinct. Sequences hold codes into a city table in tuple
order (the corpus's ``cities``), so n-grams are counted as rows of codes
and comparing two code rows compares the routes they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from gigmine.errors import GigmineError

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
    result: dict[int, list[RouteCount]] = {}
    for n in n_values:
        starts = np.flatnonzero(np.arange(codes.size) + n <= ends)
        grams = codes[starts[:, None] + np.arange(n)]
        rev = grams[:, ::-1]
        # the first column where a gram and its reverse differ picks the smaller
        at = np.arange(len(grams)), (grams != rev).argmax(axis=1)
        forward = grams[at] <= rev[at]  # palindromes count as forward only
        canon = np.where(forward[:, None], grams, rev)
        order = np.lexsort(canon.T[::-1])  # rows ascending, first column first
        canon, forward = canon[order], forward[order]
        new = np.ones(len(canon), dtype=bool)
        new[1:] = (canon[1:] != canon[:-1]).any(axis=1)
        group = np.cumsum(new) - 1
        routes, count = canon[new], np.bincount(group)
        n_forward = np.bincount(group, weights=forward, minlength=count.size)
        bidirectional = (n_forward > 0) & (n_forward < count)
        # the routes ascend, so a stable sort by count keeps ties in route order
        ranked = np.argsort(-count, kind="stable")[:top_k]
        result[n] = [
            RouteCount(
                route=tuple(map(table.__getitem__, routes[r].tolist())),
                count=int(count[r]),
                bidirectional=bool(bidirectional[r]),
            )
            for r in ranked.tolist()
        ]
    return result
