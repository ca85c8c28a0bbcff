import csv

import numpy as np
import pytest

from gigmine.graph import BipartiteGraph, intern_ids
from gigmine.ingest import Corpus
from gigmine.labeling import LabelTable
from gigmine.routes import CitySequence


def make_graph(edges=(), artists=(), venues=()):
    """Graph from (artist, venue, count, first_year) rows plus extra isolated ids.

    The orders are the ids of both sorted by ``str``, as ``build_graph``
    orders them; a pair given twice is rejected by the constructor.
    """
    edges = list(edges)
    artist_order = tuple(sorted({a for a, *_ in edges}.union(artists), key=str))
    venue_order = tuple(sorted({v for _, v, *_ in edges}.union(venues), key=str))
    a_index = {a: i for i, a in enumerate(artist_order)}
    v_index = {v: j for j, v in enumerate(venue_order)}
    fields = sorted((a_index[a], v_index[v], count, year) for a, v, count, year in edges)
    columns = np.array(fields, dtype=np.int64).reshape(-1, 4).T
    return BipartiteGraph(artist_order, venue_order, *columns)


def edges_of(g):
    """{(artist, venue): (count, first_year)} of ``g``'s edges, in CSR order."""
    return dict(zip(g.id_pairs(g.row, g.col), zip(g.count.tolist(), g.first_year.tolist())))


@pytest.fixture
def toy_graph():
    """Three-edge graph: a1-v1, a1-v2, a2-v1."""
    return make_graph([("a1", "v1", 1, 2010), ("a1", "v2", 1, 2011), ("a2", "v1", 1, 2012)])


def pair_codes(g, pairs):
    """Pair codes ``i * n_v + j`` over ``g``'s orders of (artist, venue) id pairs."""
    n_v = len(g.venue_order)
    return np.array(
        [g.artist_order.index(a) * n_v + g.venue_order.index(v) for a, v in pairs],
        dtype=np.int64,
    )


def id_pairs(g, codes):
    """(artist, venue) id pairs of pair codes over ``g``'s orders."""
    return g.id_pairs(*np.divmod(np.asarray(codes, dtype=np.int64), len(g.venue_order)))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country", "lat", "lon", "popularity"]
RELEASE_HEADER = ["artist_id", "label_id", "release_date"]
LABEL_HEADER = ["label_id", "name", "parent_label_id", "is_major_root"]


def event_row(eid, artist, venue, date, city="NYC", state="NY", country="US",
              lat="40.7", lon="-74.0", pop=""):
    return [eid, artist, venue, date, city, state, country, lat, lon, pop]


@pytest.fixture
def corpus_files(tmp_path):
    """Write a small, valid corpus and return the three paths."""

    def _write(events, releases=(), labels=()):
        e, r, l = tmp_path / "events.csv", tmp_path / "releases.csv", tmp_path / "labels.csv"
        write_csv(e, EVENT_HEADER, events)
        write_csv(r, RELEASE_HEADER, releases)
        write_csv(l, LABEL_HEADER, labels)
        return e, r, l

    return _write


# the Corpus.from_codes arguments of a corpus with no releases and an empty label table
NO_RELEASES = dict(
    release_artist=(), release_label=(), release_day=(),
    labels=LabelTable((), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)),
)


def make_corpus(events):
    """Corpus from (event_id, artist, venue, date[, city]) tuples.

    The ids are interned and passed to ``Corpus.from_codes``, which orders
    events as ``parse_corpus`` does; the city defaults to ("NYC", "NY",
    "US"), popularity is blank and there are no releases or labels.
    """
    cols = {k: [] for k in ("event_id", "artist_id", "venue_id", "day", "city")}
    for event_id, artist, venue, date, *city in events:
        cols["event_id"].append(event_id)
        cols["artist_id"].append(artist)
        cols["venue_id"].append(venue)
        cols["day"].append(date.toordinal())
        cols["city"].append(city[0] if city else ("NYC", "NY", "US"))
    artist_order, artist = intern_ids(cols["artist_id"])
    venue_order, venue = intern_ids(cols["venue_id"])
    cities, city = intern_ids(cols["city"], key=None)
    event_ids, event = intern_ids(cols["event_id"])
    return Corpus.from_codes(
        artist_order, artist, venue_order, venue, cities, city,
        np.array(cols["day"], dtype=np.int64), np.array(event_ids, dtype=object), event,
        np.full(len(events), np.nan), **NO_RELEASES,
    )


def sequences_of(city_lists):
    """CitySequences a0, a1, ... over one city table in tuple order."""
    table = tuple(sorted({c for cities in city_lists for c in cities}))
    code = {c: i for i, c in enumerate(table)}
    return [
        CitySequence(f"a{i}", np.array([code[c] for c in cities], dtype=np.int64), table)
        for i, cities in enumerate(city_lists)
    ]
