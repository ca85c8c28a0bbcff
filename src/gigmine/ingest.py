"""Corpus file parsing, validation, the columnar event store and preprocessing filters.

The corpus lives in three CSV files (UTF-8, RFC 4180 quoting):

* ``events.csv``    header ``event_id,artist_id,venue_id,date,city,state,country,lat,lon,popularity``
* ``releases.csv``  header ``artist_id,label_id,release_date``
* ``labels.csv``    header ``label_id,name,parent_label_id,is_major_root``

Dates are ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` in ASCII digits. Malformed
rows are rejected with line-numbered diagnostics; a file whose malformed
fraction exceeds 10% fails hard, as does a missing or wrong header.

A corpus stores its events once, as interned columns. ``parse_corpus``
interns the ids: ``artist_order`` and ``venue_order`` are the sorted (by
``str``) tuples of exactly the artists and venues with at least one event,
and ``cities`` holds the distinct (city, state, country) triples in tuple
order. Event k is position k of the columns ``artist``, ``venue`` and
``city`` (indices into those tuples), ``day`` (date ordinal), ``event_id``
and ``popularity`` (NaN when blank); ``year`` derives from ``day``. Events
are kept in (artist, day, event_id) order. Coordinates are validated but not
stored. Filters are masks over the columns, and ``Corpus.select`` keeps the
masked events and drops the ids left without one.

Preprocessing follows the order: keep artists whose first recorded event is
2007 or later, compute change points, then drop low-activity artists and
venues. A separate recursive 5-event core filter is applied to link-prediction
training graphs.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Optional

import numpy as np

from gigmine.errors import CorpusFormatError, GigmineError
from gigmine.graph import BipartiteGraph, _frozen, intern_ids
from gigmine.labeling import LabelNode, LabelTree

EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country", "lat", "lon", "popularity"]
RELEASE_HEADER = ["artist_id", "label_id", "release_date"]
LABEL_HEADER = ["label_id", "name", "parent_label_id", "is_major_root"]

MALFORMED_TOLERANCE = 0.10
POST_PLATFORM_CUTOFF = dt.date(2007, 1, 1)

_DATE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")
_EPOCH = dt.date(1970, 1, 1).toordinal()
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True, slots=True)
class Release:
    """One recording release by an artist on a label."""

    artist_id: str
    label_id: str
    release_date: dt.date


@dataclass(slots=True)
class LoadReport:
    """Row counts and rejection diagnostics accumulated while parsing."""

    events_total: int = 0
    events_rejected: int = 0
    releases_total: int = 0
    releases_rejected: int = 0
    releases_undated: int = 0
    labels_total: int = 0
    labels_rejected: int = 0
    labels_dangling_parent: int = 0
    diagnostics: list = field(default_factory=list)

    def reject(self, table, path, line_no, reason):
        """Count a rejected row of ``table`` (events, releases or labels) and say why."""
        setattr(self, f"{table}_rejected", getattr(self, f"{table}_rejected") + 1)
        self.diagnostics.append({"file": str(path), "line": line_no, "reason": reason})

    def to_dict(self) -> dict:
        return {
            "events": {"total": self.events_total, "rejected": self.events_rejected},
            "releases": {
                "total": self.releases_total,
                "rejected": self.releases_rejected,
                "undated_dropped": self.releases_undated,
            },
            "labels": {
                "total": self.labels_total,
                "rejected": self.labels_rejected,
                "dangling_parent": self.labels_dangling_parent,
            },
            "diagnostics": list(self.diagnostics),
        }


class Corpus:
    """Validated events as interned columns, plus releases and the label tree.

    Build one with ``from_events`` (what ``parse_corpus`` calls) or cut one
    down with ``select``; see the module docstring for the columns. The
    column arrays are read-only.
    """

    def __init__(self, artist_order, venue_order, cities, artist, venue, day, city, event_id,
                 popularity, releases, labels, undated_releases=(), load_report=None):
        self.artist_order, self.venue_order, self.cities = artist_order, venue_order, cities
        self.artist, self.venue, self.day, self.city = map(_frozen, (artist, venue, day, city))
        self.event_id = _frozen(event_id, dtype=object)
        self.popularity = _frozen(popularity, dtype=float)
        self.releases = tuple(releases)
        self.undated_releases = tuple(undated_releases)
        self.labels = labels
        self.load_report = load_report
        artist_releases: dict[str, list[Release]] = {}
        for rel in self.releases:
            artist_releases.setdefault(rel.artist_id, []).append(rel)
        self.artist_releases = {a: tuple(rs) for a, rs in artist_releases.items()}

    @classmethod
    def from_events(cls, event_id, artist_id, venue_id, day, city, popularity, **rest) -> "Corpus":
        """Intern and order events given as parallel per-event sequences.

        ``day`` holds date ordinals, ``city`` (city, state, country) triples
        and ``popularity`` floats (NaN when blank). ``rest`` passes releases,
        labels, undated_releases and load_report.
        """
        artist_order, artist = intern_ids(artist_id)
        venue_order, venue = intern_ids(venue_id)
        cities, city = intern_ids(city, key=None)
        _, id_rank = intern_ids(event_id)
        day = np.asarray(day, dtype=np.int64)
        order = np.lexsort((id_rank, day, artist))
        return cls(
            artist_order, venue_order, cities, artist[order], venue[order], day[order],
            city[order], np.array(event_id, dtype=object)[order],
            np.asarray(popularity, dtype=float)[order], **rest,
        )

    def select(self, keep) -> "Corpus":
        """The corpus of the events where the boolean mask ``keep`` holds.

        Artists, venues and cities left without events drop out of their
        tuples (the rest keep their order and are renumbered), and the
        releases of dropped artists go with them.
        """
        keep = np.asarray(keep, dtype=bool)
        cut = []
        for order, code in ((self.artist_order, self.artist), (self.venue_order, self.venue),
                            (self.cities, self.city)):
            code = code[keep]
            used = np.bincount(code, minlength=len(order)) > 0
            cut += [tuple(itertools.compress(order, used.tolist())), (np.cumsum(used) - 1)[code]]
        artist_order, artist, venue_order, venue, cities, city = cut
        kept = frozenset(artist_order)
        return Corpus(
            artist_order, venue_order, cities, artist, venue, self.day[keep], city,
            self.event_id[keep], self.popularity[keep],
            releases=[r for r in self.releases if r.artist_id in kept],
            undated_releases=[(a, l) for a, l in self.undated_releases if a in kept],
            labels=self.labels, load_report=self.load_report,
        )

    @cached_property
    def year(self) -> np.ndarray:
        """Calendar year of each event."""
        days = (self.day - _EPOCH).astype("datetime64[D]")
        return _frozen(days.astype("datetime64[Y]").astype(np.int64) + 1970)

    @cached_property
    def artist_indptr(self) -> np.ndarray:
        """Event positions delimiting each artist's run, earliest event first."""
        return _frozen(np.searchsorted(self.artist, np.arange(len(self.artist_order) + 1)))

    def before(self, change_points: Mapping[str, Optional[dt.date]]) -> np.ndarray:
        """Mask of the events dated strictly before their artist's change point.

        An artist whose change point is None or missing keeps every event.
        """
        cps = (change_points.get(a) for a in self.artist_order)
        cut = np.array([_NEVER if cp is None else cp.toordinal() for cp in cps], dtype=np.int64)
        return self.day < cut[self.artist]

    @property
    def n_events(self) -> int:
        return len(self.artist)

    def year_span(self) -> tuple[int, int]:
        if not self.n_events:
            raise GigmineError("corpus has no events")
        return int(self.year.min()), int(self.year.max())

    def sizes(self) -> dict:
        return {
            "events": self.n_events,
            "artists": len(self.artist_order),
            "venues": len(self.venue_order),
            "releases": len(self.releases),
        }


def _read_rows(path, expected_header):
    """Yield the data rows of a CSV file after checking its header."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(f"{path}: empty file, expected header {expected_header}")
        if header != expected_header:
            raise CorpusFormatError(
                f"{path}: header mismatch, expected {expected_header}, got {header}"
            )
        yield from reader


def _parse_date(text: str) -> dt.date:
    """``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` in ASCII digits, else ValueError.

    A bare year or year-month stands for the first day of that period.
    """
    match = _DATE.fullmatch(text)
    if match is None:
        raise ValueError(f"not YYYY, YYYY-MM or YYYY-MM-DD: {text!r}")
    year, month, day = match.groups()
    return dt.date(int(year), int(month or 1), int(day or 1))


def _parse_events(path, report: LoadReport) -> dict[str, list]:
    """The accepted rows as the per-event sequences of ``Corpus.from_events``."""
    cols: dict[str, list] = {
        k: [] for k in ("event_id", "artist_id", "venue_id", "day", "city", "popularity")
    }
    reject = partial(report.reject, "events", path)
    line_of_id: dict[str, int] = {}
    # rows repeat dates and cities; one parse and one shared object per distinct
    # value save about 60 MB of peak memory on a 5000-artist corpus
    day_of: dict[str, int] = {}
    city_of: dict[tuple, tuple] = {}
    for i, row in enumerate(_read_rows(path, EVENT_HEADER)):
        line_no = i + 2  # header is line 1
        report.events_total += 1
        if len(row) != len(EVENT_HEADER):
            reject(line_no, f"expected {len(EVENT_HEADER)} fields, got {len(row)}")
            continue
        event_id, artist_id, venue_id, date_s, city, state, country, lat_s, lon_s, pop_s = row
        if not event_id or not artist_id or not venue_id:
            reject(line_no, "missing event, artist or venue id")
            continue
        day = day_of.get(date_s)
        if day is None:
            try:
                day = day_of[date_s] = _parse_date(date_s).toordinal()
            except ValueError:
                reject(line_no, f"unparseable date {date_s!r}")
                continue
        try:
            lat = float(lat_s)
            lon = float(lon_s)
        except ValueError:
            reject(line_no, f"unparseable coordinates ({lat_s!r}, {lon_s!r})")
            continue
        if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
            reject(line_no, f"coordinates out of bounds ({lat}, {lon})")
            continue
        popularity = np.nan
        if pop_s:
            try:
                popularity = float(pop_s)
            except ValueError:
                reject(line_no, f"unparseable popularity {pop_s!r}")
                continue
        if event_id in line_of_id:
            first = line_of_id[event_id]
            reject(line_no, f"duplicate event_id {event_id!r}, first on line {first}")
            continue
        line_of_id[event_id] = line_no
        city_key = (city, state, country)
        cols["event_id"].append(event_id)
        cols["artist_id"].append(artist_id)
        cols["venue_id"].append(venue_id)
        cols["day"].append(day)
        cols["city"].append(city_of.setdefault(city_key, city_key))
        cols["popularity"].append(popularity)
    return cols


def _parse_releases(path, report: LoadReport) -> tuple[list[Release], list[tuple[str, str]]]:
    releases, undated = [], []
    reject = partial(report.reject, "releases", path)
    for i, row in enumerate(_read_rows(path, RELEASE_HEADER)):
        line_no = i + 2
        report.releases_total += 1
        if len(row) != len(RELEASE_HEADER):
            reject(line_no, f"expected {len(RELEASE_HEADER)} fields, got {len(row)}")
            continue
        artist_id, label_id, date_s = row
        if not artist_id or not label_id:
            reject(line_no, "missing artist or label id")
            continue
        if not date_s:
            # kept for the success label, excluded from change-point dates
            report.releases_undated += 1
            undated.append((artist_id, label_id))
            continue
        try:
            date = _parse_date(date_s)
        except ValueError:
            reject(line_no, f"unparseable release date {date_s!r}")
            continue
        releases.append(Release(artist_id=artist_id, label_id=label_id, release_date=date))
    return releases, undated


def _parse_labels(path, report: LoadReport) -> LabelTree:
    nodes: dict[str, LabelNode] = {}
    major_roots: set[str] = set()
    reject = partial(report.reject, "labels", path)
    for i, row in enumerate(_read_rows(path, LABEL_HEADER)):
        line_no = i + 2
        report.labels_total += 1
        if len(row) != len(LABEL_HEADER):
            reject(line_no, f"expected {len(LABEL_HEADER)} fields, got {len(row)}")
            continue
        label_id, name, parent_id, major_s = row
        if not label_id:
            reject(line_no, "missing label id")
            continue
        if major_s not in ("0", "1"):
            reject(line_no, f"is_major_root must be 0 or 1, got {major_s!r}")
            continue
        nodes[label_id] = LabelNode(name=name, parent=parent_id or None)
        if major_s == "1":
            major_roots.add(label_id)
    for label_id, node in nodes.items():
        if node.parent is not None and node.parent not in nodes:
            report.labels_dangling_parent += 1
    return LabelTree(nodes=nodes, major_roots=frozenset(major_roots))


def _check_tolerance(path, rejected, total):
    if total and rejected / total > MALFORMED_TOLERANCE:
        raise CorpusFormatError(
            f"{path}: {rejected}/{total} malformed rows exceeds the "
            f"{MALFORMED_TOLERANCE:.0%} tolerance"
        )


def parse_corpus(event_file, release_file, label_file) -> Corpus:
    """Parse and validate the three corpus files into a Corpus.

    Raises CorpusFormatError for an unreadable file, a header mismatch, a
    file where more than 10% of rows are malformed, or an id used both as an
    artist and as a venue. Individual malformed rows below that threshold,
    including rows repeating an earlier event_id, are dropped and show up in
    ``corpus.load_report``.
    """
    report = LoadReport()
    events = _parse_events(event_file, report)
    _check_tolerance(event_file, report.events_rejected, report.events_total)
    both_sides = set(events["artist_id"]).intersection(events["venue_id"])
    if both_sides:
        raise CorpusFormatError(
            f"{event_file}: ids used as both artist and venue: {sorted(both_sides)[:5]}"
        )
    releases, undated = _parse_releases(release_file, report)
    _check_tolerance(release_file, report.releases_rejected, report.releases_total)
    labels = _parse_labels(label_file, report)
    _check_tolerance(label_file, report.labels_rejected, report.labels_total)
    return Corpus.from_events(
        **events, releases=releases, labels=labels, undated_releases=undated,
        load_report=report,
    )


def filter_post_2007(corpus: Corpus, cutoff: dt.date = POST_PLATFORM_CUTOFF) -> Corpus:
    """Keep only artists whose earliest recorded event is on/after the cutoff.

    All events of a retained artist are kept; removed artists take their
    events (and releases) with them, and venues left with zero events drop
    out of the corpus.
    """
    # each artist's run starts with its earliest event
    keep = corpus.day[corpus.artist_indptr[:-1]] >= cutoff.toordinal()
    return corpus.select(keep[corpus.artist])


def filter_min_activity(
    corpus: Corpus,
    threshold: int = 10,
    change_points: Optional[Mapping[str, Optional[dt.date]]] = None,
    recursive: bool = True,
) -> Corpus:
    """Drop artists and venues with too few concerts.

    An artist must have at least ``threshold`` concerts dated before its
    change point (full history when it has none); a venue must host at least
    ``threshold`` concerts. Removing a node removes its events, which can pull
    other nodes below the threshold, so the filter iterates to a fixed point
    (set ``recursive=False`` for a single pass).
    """
    before = corpus.before(change_points or {})
    alive_a = np.ones(len(corpus.artist_order), dtype=bool)
    alive_v = np.ones(len(corpus.venue_order), dtype=bool)
    while True:
        live = alive_a[corpus.artist] & alive_v[corpus.venue]
        a_count = np.bincount(corpus.artist[live & before], minlength=alive_a.size)
        v_count = np.bincount(corpus.venue[live], minlength=alive_v.size)
        drop_a, drop_v = alive_a & (a_count < threshold), alive_v & (v_count < threshold)
        if not drop_a.any() and not drop_v.any():
            break
        alive_a &= ~drop_a
        alive_v &= ~drop_v
        if not recursive:
            break
    return corpus.select(alive_a[corpus.artist] & alive_v[corpus.venue])


def recursive_core_filter(graph: BipartiteGraph, k: int = 5) -> BipartiteGraph:
    """Recursively drop nodes with fewer than ``k`` associated events.

    "Associated events" is the summed event count over a node's incident
    edges, not its distinct-neighbor degree. Removal of a node removes its
    edges, so the filter cascades until every remaining artist and venue has
    at least k events; the fixed point of this monotone removal is
    independent of removal order.
    """
    keep_a = np.ones(len(graph.artist_order), dtype=bool)
    keep_v = np.ones(len(graph.venue_order), dtype=bool)
    alive = np.ones(graph.n_edges, dtype=bool)
    while True:
        weight = np.where(alive, graph.count, 0)
        a_events = np.bincount(graph.row, weights=weight, minlength=keep_a.size)
        v_events = np.bincount(graph.col, weights=weight, minlength=keep_v.size)
        new_a, new_v = keep_a & (a_events >= k), keep_v & (v_events >= k)
        if np.array_equal(new_a, keep_a) and np.array_equal(new_v, keep_v):
            return graph.subgraph(alive, keep_a, keep_v)
        keep_a, keep_v = new_a, new_v
        alive &= keep_a[graph.row] & keep_v[graph.col]
