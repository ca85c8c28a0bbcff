"""Corpus file parsing, validation and preprocessing filters.

The corpus lives in three CSV files (UTF-8, RFC 4180 quoting):

* ``events.csv``    header ``event_id,artist_id,venue_id,date,city,state,country,lat,lon,popularity``
* ``releases.csv``  header ``artist_id,label_id,release_date``
* ``labels.csv``    header ``label_id,name,parent_label_id,is_major_root``

Malformed rows are rejected with line-numbered diagnostics; a file whose
malformed fraction exceeds 10% fails hard, as does a missing or wrong header.

Preprocessing follows the order: keep artists whose first recorded event is
2007 or later, compute change points, then drop low-activity artists and
venues. A separate recursive 5-event core filter is applied to link-prediction
training graphs.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from gigmine.errors import CorpusFormatError, GigmineError
from gigmine.graph import BipartiteGraph, build_graph
from gigmine.labeling import LabelNode, LabelTree

EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country", "lat", "lon", "popularity"]
RELEASE_HEADER = ["artist_id", "label_id", "release_date"]
LABEL_HEADER = ["label_id", "name", "parent_label_id", "is_major_root"]

MALFORMED_TOLERANCE = 0.10
POST_PLATFORM_CUTOFF = dt.date(2007, 1, 1)


@dataclass(frozen=True, slots=True)
class Event:
    """One concert: who played where, when, and at which geographic location."""

    event_id: str
    artist_id: str
    venue_id: str
    date: dt.date
    city: str
    state: Optional[str]
    country: str
    latitude: float
    longitude: float
    popularity: Optional[float] = None


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

    def reject(self, path, line_no, reason):
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
    """Validated events, releases and label hierarchy with cross-reference maps.

    The artist universe of a corpus is the set of artists with at least one
    event. Cross-reference maps are exact inverses of the event and release
    tables and are rebuilt whenever a filter produces a new corpus.
    """

    def __init__(
        self,
        events: Sequence[Event],
        releases: Sequence[Release],
        labels: LabelTree,
        undated_releases: Sequence[tuple[str, str]] = (),
        load_report: Optional[LoadReport] = None,
    ):
        self.events = tuple(events)
        self.releases = tuple(releases)
        self.undated_releases = tuple(undated_releases)
        self.labels = labels
        self.load_report = load_report
        artist_events: dict[str, list[Event]] = {}
        venue_events: dict[str, list[Event]] = {}
        for ev in self.events:
            artist_events.setdefault(ev.artist_id, []).append(ev)
            venue_events.setdefault(ev.venue_id, []).append(ev)
        artist_releases: dict[str, list[Release]] = {}
        for rel in self.releases:
            artist_releases.setdefault(rel.artist_id, []).append(rel)
        self.artist_events = {a: tuple(evs) for a, evs in artist_events.items()}
        self.venue_events = {v: tuple(evs) for v, evs in venue_events.items()}
        self.artist_releases = {a: tuple(rs) for a, rs in artist_releases.items()}

    @property
    def artist_ids(self) -> frozenset:
        return frozenset(self.artist_events)

    @property
    def venue_ids(self) -> frozenset:
        return frozenset(self.venue_events)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def year_span(self) -> tuple[int, int]:
        if not self.events:
            raise GigmineError("corpus has no events")
        years = [ev.date.year for ev in self.events]
        return min(years), max(years)

    def sizes(self) -> dict:
        return {
            "events": len(self.events),
            "artists": len(self.artist_events),
            "venues": len(self.venue_events),
            "releases": len(self.releases),
        }

    def graph(self) -> BipartiteGraph:
        return build_graph(self.events)


def _read_rows(path, expected_header):
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
        return list(reader)


def _parse_date(text: str) -> dt.date:
    """ISO 8601 date; bare years or year-months normalize to the period start."""
    if len(text) == 4 and text.isdigit():
        return dt.date(int(text), 1, 1)
    if len(text) == 7:
        return dt.date.fromisoformat(text + "-01")
    return dt.date.fromisoformat(text)


def _parse_events(path, report: LoadReport) -> list[Event]:
    events = []
    line_of_id: dict[str, int] = {}
    for i, row in enumerate(_read_rows(path, EVENT_HEADER)):
        line_no = i + 2  # header is line 1
        report.events_total += 1
        if len(row) != len(EVENT_HEADER):
            report.events_rejected += 1
            report.reject(path, line_no, f"expected {len(EVENT_HEADER)} fields, got {len(row)}")
            continue
        event_id, artist_id, venue_id, date_s, city, state, country, lat_s, lon_s, pop_s = row
        if not event_id or not artist_id or not venue_id:
            report.events_rejected += 1
            report.reject(path, line_no, "missing event, artist or venue id")
            continue
        try:
            date = _parse_date(date_s)
        except ValueError:
            report.events_rejected += 1
            report.reject(path, line_no, f"unparseable date {date_s!r}")
            continue
        try:
            lat = float(lat_s)
            lon = float(lon_s)
        except ValueError:
            report.events_rejected += 1
            report.reject(path, line_no, f"unparseable coordinates ({lat_s!r}, {lon_s!r})")
            continue
        if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
            report.events_rejected += 1
            report.reject(path, line_no, f"coordinates out of bounds ({lat}, {lon})")
            continue
        popularity = None
        if pop_s:
            try:
                popularity = float(pop_s)
            except ValueError:
                report.events_rejected += 1
                report.reject(path, line_no, f"unparseable popularity {pop_s!r}")
                continue
        if event_id in line_of_id:
            report.events_rejected += 1
            first = line_of_id[event_id]
            report.reject(path, line_no, f"duplicate event_id {event_id!r}, first on line {first}")
            continue
        line_of_id[event_id] = line_no
        events.append(
            Event(
                event_id=event_id,
                artist_id=artist_id,
                venue_id=venue_id,
                date=date,
                city=city,
                state=state or None,
                country=country,
                latitude=lat,
                longitude=lon,
                popularity=popularity,
            )
        )
    return events


def _parse_releases(path, report: LoadReport) -> tuple[list[Release], list[tuple[str, str]]]:
    releases, undated = [], []
    for i, row in enumerate(_read_rows(path, RELEASE_HEADER)):
        line_no = i + 2
        report.releases_total += 1
        if len(row) != len(RELEASE_HEADER):
            report.releases_rejected += 1
            report.reject(path, line_no, f"expected {len(RELEASE_HEADER)} fields, got {len(row)}")
            continue
        artist_id, label_id, date_s = row
        if not artist_id or not label_id:
            report.releases_rejected += 1
            report.reject(path, line_no, "missing artist or label id")
            continue
        if not date_s:
            # kept for the success label, excluded from change-point dates
            report.releases_undated += 1
            undated.append((artist_id, label_id))
            continue
        try:
            date = _parse_date(date_s)
        except ValueError:
            report.releases_rejected += 1
            report.reject(path, line_no, f"unparseable release date {date_s!r}")
            continue
        releases.append(Release(artist_id=artist_id, label_id=label_id, release_date=date))
    return releases, undated


def _parse_labels(path, report: LoadReport) -> LabelTree:
    nodes: dict[str, LabelNode] = {}
    major_roots: set[str] = set()
    for i, row in enumerate(_read_rows(path, LABEL_HEADER)):
        line_no = i + 2
        report.labels_total += 1
        if len(row) != len(LABEL_HEADER):
            report.labels_rejected += 1
            report.reject(path, line_no, f"expected {len(LABEL_HEADER)} fields, got {len(row)}")
            continue
        label_id, name, parent_id, major_s = row
        if not label_id:
            report.labels_rejected += 1
            report.reject(path, line_no, "missing label id")
            continue
        if major_s not in ("0", "1"):
            report.labels_rejected += 1
            report.reject(path, line_no, f"is_major_root must be 0 or 1, got {major_s!r}")
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
    both_sides = {ev.artist_id for ev in events} & {ev.venue_id for ev in events}
    if both_sides:
        raise CorpusFormatError(
            f"{event_file}: ids used as both artist and venue: {sorted(both_sides)[:5]}"
        )
    releases, undated = _parse_releases(release_file, report)
    _check_tolerance(release_file, report.releases_rejected, report.releases_total)
    labels = _parse_labels(label_file, report)
    _check_tolerance(label_file, report.labels_rejected, report.labels_total)
    return Corpus(events, releases, labels, undated_releases=undated, load_report=report)


def _restrict(corpus: Corpus, keep_artists, keep_venues=None) -> Corpus:
    """New corpus keeping only events (and releases) of the given artists/venues."""
    keep_artists = set(keep_artists)
    events = [
        ev
        for ev in corpus.events
        if ev.artist_id in keep_artists and (keep_venues is None or ev.venue_id in keep_venues)
    ]
    releases = [r for r in corpus.releases if r.artist_id in keep_artists]
    undated = [(a, l) for a, l in corpus.undated_releases if a in keep_artists]
    return Corpus(events, releases, corpus.labels, undated_releases=undated,
                  load_report=corpus.load_report)


def filter_post_2007(corpus: Corpus, cutoff: dt.date = POST_PLATFORM_CUTOFF) -> Corpus:
    """Keep only artists whose earliest recorded event is on/after the cutoff.

    All events of a retained artist are kept; removed artists take their
    events (and releases) with them, and venues left with zero events drop
    out of the corpus.
    """
    keep = {
        artist
        for artist, evs in corpus.artist_events.items()
        if min(ev.date for ev in evs) >= cutoff
    }
    return _restrict(corpus, keep)


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
    change_points = change_points or {}
    alive_a = set(corpus.artist_events)
    alive_v = set(corpus.venue_events)
    while True:
        a_count: dict[str, int] = {a: 0 for a in alive_a}
        v_count: dict[str, int] = {v: 0 for v in alive_v}
        for ev in corpus.events:
            if ev.artist_id not in alive_a or ev.venue_id not in alive_v:
                continue
            v_count[ev.venue_id] += 1
            cp = change_points.get(ev.artist_id)
            if cp is None or ev.date < cp:
                a_count[ev.artist_id] += 1
        drop_a = {a for a, c in a_count.items() if c < threshold}
        drop_v = {v for v, c in v_count.items() if c < threshold}
        if not drop_a and not drop_v:
            break
        alive_a -= drop_a
        alive_v -= drop_v
        if not recursive:
            break
    return _restrict(corpus, alive_a, alive_v)


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
