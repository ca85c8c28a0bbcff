"""Corpus file parsing, validation, the columnar event store and preprocessing filters.

The corpus lives in three CSV files (UTF-8, RFC 4180 quoting):

* ``events.csv``    header ``event_id,artist_id,venue_id,date,city,state,country,lat,lon,popularity``
* ``releases.csv``  header ``artist_id,label_id,release_date``
* ``labels.csv``    header ``label_id,name,parent_label_id,is_major_root``

Dates are ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` in ASCII digits. Malformed
rows are rejected with diagnostics naming the physical line where the record
starts; a file whose malformed fraction exceeds 10% fails hard, as does a
missing or wrong header or a byte that is not UTF-8.

``events.csv`` has two splitters. A file with a ``"`` or NUL byte, or a CR
that does not end a line as part of CRLF, goes through ``csv.reader``, and
each record's fields are interned as the records stream in. Any other file
(LF or CRLF line ends) is split in numpy on its line-end and comma bytes,
and each column is keyed by one sort of its fields as NUL-padded
fixed-width bytes (the padding is why NUL bytes take the csv route): the
big-endian words of each field are packed into one int64 key
(``graph.rank_rows``). Both hand each column's sorted distinct values and
per-record codes to one validator, which checks every distinct value once.

A corpus stores its events once, as interned columns. ``parse_corpus``
interns the ids: ``artist_order`` and ``venue_order`` are the sorted (by
``str``) tuples of exactly the artists and venues with at least one event,
and ``cities`` holds the distinct (city, state, country) triples in tuple
order. Event k is position k of the columns ``artist``, ``venue`` and
``city`` (indices into those tuples), ``day`` (date ordinal), ``event``
(index into the sorted distinct ``event_ids``) and ``popularity`` (NaN when
blank); ``year`` derives from ``day`` and ``event_id`` from ``event``.
Events are kept in (artist, day, event_id) order. Coordinates are validated
but not stored. Filters are masks over the columns, and ``Corpus.select``
keeps the masked events and drops the ids left without one.

Release k is position k of the columns ``release_artist`` (index into
``artist_order``, -1 for an artist without events), ``release_label`` (into
``labels.ids``, -1 for a label missing from the table) and ``release_day``
(``labeling.NEVER`` when undated). ``labels`` is a ``labeling.LabelTable``.

Preprocessing follows the order: keep artists whose first recorded event is
2007 or later, compute change days, then drop low-activity artists and
venues. A separate recursive 5-event core filter is applied to link-prediction
training graphs.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import itertools
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gigmine.errors import CorpusFormatError, GigmineError
from gigmine.graph import BipartiteGraph, _frozen, _mask, intern_ids, pack_rows, rank_rows
from gigmine.labeling import NEVER, LabelTable, check_change_day

EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country", "lat", "lon", "popularity"]
RELEASE_HEADER = ["artist_id", "label_id", "release_date"]
LABEL_HEADER = ["label_id", "name", "parent_label_id", "is_major_root"]

MALFORMED_TOLERANCE = 0.10
POST_PLATFORM_CUTOFF = dt.date(2007, 1, 1)

_DATE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")
_EPOCH = dt.date(1970, 1, 1).toordinal()
_BLOCK = 1 << 20  # bytes of events.csv searched at a time for line ends and commas


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
    """Validated events and releases as interned columns, plus the label table.

    Build one from codes with ``from_codes`` (what ``parse_corpus`` calls),
    or cut one down with ``select``; see the module docstring for the
    columns. The column arrays are read-only.
    """

    def __init__(self, artist_order, venue_order, cities, artist, venue, day, city, event_ids,
                 event, popularity, release_artist, release_label, release_day, labels,
                 load_report=None):
        self.artist_order, self.venue_order, self.cities = artist_order, venue_order, cities
        self.artist, self.venue, self.day, self.city, self.event = map(
            _frozen, (artist, venue, day, city, event))
        self.release_artist, self.release_label, self.release_day = map(
            _frozen, (release_artist, release_label, release_day))
        self.event_ids = event_ids
        self.popularity = _frozen(popularity, dtype=float)
        self.labels = labels
        self.load_report = load_report

    @classmethod
    def from_codes(cls, artist_order, artist, venue_order, venue, cities, city, day,
                   event_ids, event, popularity, **rest) -> "Corpus":
        """Order events given as per-event codes into the (artist, day, event_id) layout.

        ``artist``, ``venue`` and ``city`` index the orders, which hold
        exactly the values used; ``event`` indexes the sorted ``event_ids``,
        an array of ``str`` or of their UTF-8 bytes (see ``event_id``).
        Events tying on (artist, day, event) keep their input order.
        ``rest`` passes the release columns, labels and load_report.
        """
        d0, d1 = (int(day.min()), int(day.max())) if day.size else (0, 0)
        columns = (artist, len(artist_order)), (day - d0, d1 - d0 + 1), (event, len(event_ids))
        order = np.argsort(pack_rows(columns), kind="stable")
        return cls(
            artist_order, venue_order, cities, artist[order], venue[order], day[order],
            city[order], event_ids, event[order], popularity[order], **rest,
        )

    def select(self, keep) -> "Corpus":
        """The corpus of the events where the boolean mask ``keep`` holds.

        Artists, venues and cities left without events drop out of their
        tuples (the rest keep their order and are renumbered), and the
        releases of dropped artists go with them.
        """
        keep = _mask("keep", keep, self.n_events)
        artist_order, artist, renumber = _used(self.artist_order, self.artist[keep])
        venue_order, venue, _ = _used(self.venue_order, self.venue[keep])
        cities, city, _ = _used(self.cities, self.city[keep])
        # an artist without events (-1) reads the appended -1
        release_artist = np.append(renumber, -1)[self.release_artist]
        rows = release_artist >= 0
        return Corpus(
            artist_order, venue_order, cities, artist, venue, self.day[keep], city,
            self.event_ids, self.event[keep], self.popularity[keep],
            release_artist[rows], self.release_label[rows], self.release_day[rows],
            self.labels, self.load_report,
        )

    @cached_property
    def event_id(self) -> np.ndarray:
        """Each event's id as ``str`` (an object array), decoded on first access.

        The numpy splitter hands over ``event_ids`` as bytes: no command
        reads the ids, and one object per distinct id would cost more than
        the column of codes.
        """
        ids = self.event_ids.tolist()
        if ids and isinstance(ids[0], bytes):
            # the splitter checked each id is UTF-8 and cut none at a newline
            ids = b"\n".join(ids).decode("utf-8").split("\n")
        return _frozen(np.array(ids, dtype=object)[self.event], dtype=object)

    @cached_property
    def year(self) -> np.ndarray:
        """Calendar year of each event."""
        days = (self.day - _EPOCH).astype("datetime64[D]")
        return _frozen(days.astype("datetime64[Y]").astype(np.int64) + 1970)

    @cached_property
    def artist_indptr(self) -> np.ndarray:
        """Event positions delimiting each artist's run, earliest event first."""
        return _frozen(np.searchsorted(self.artist, np.arange(len(self.artist_order) + 1)))

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
            "releases": int(np.count_nonzero(self.release_day < NEVER)),
        }


def _read_bytes(path) -> bytes:
    """The bytes of a corpus file, without a leading UTF-8 BOM."""
    try:
        # unbuffered, so reading past a BOM costs no copy of the file
        with open(path, "rb", buffering=0) as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                fh.seek(0)
            return fh.read()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {path}: {exc}") from exc


def _decode(path, data: bytes, expected_header=None) -> str:
    """``data`` as UTF-8, else CorpusFormatError naming the line of the first bad byte.

    Given the ``expected_header`` of the CSV file ``data``, a header that
    ends before that line and is wrong fails as a header mismatch instead,
    as it does when the header is checked first.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head, reason = data[:exc.start], exc.reason
    line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    if expected_header is not None:
        reader = csv.reader(io.StringIO(head.decode("utf-8"), newline=""))
        header = next(reader, None)
        if header is not None and reader.line_num < line:
            _check_header(path, header, expected_header)
    raise CorpusFormatError(f"{path}: line {line}: not UTF-8 ({reason})")


def _check_header(path, header, expected):
    if header is None:
        raise CorpusFormatError(f"{path}: empty file, expected header {expected}")
    if header != expected:
        raise CorpusFormatError(f"{path}: header mismatch, expected {expected}, got {header}")


def _records(path, data: bytes, expected_header):
    """Yield (line, row) for each record of a CSV file after checking its header.

    ``line`` is the physical line where the record starts: a quoted field
    may hold line breaks, so one record can span several lines. The text is
    decoded as it is read, not held whole beside ``data``.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    line = 1
    try:
        _check_header(path, next(reader, None), expected_header)
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}: line {line}: {exc}") from None
    except UnicodeDecodeError:
        _decode(path, data, expected_header)
        raise


def _ordinal(text: str) -> int:
    """The ordinal of a ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` date in ASCII digits, else 0.

    A bare year or year-month stands for the first day of that period.
    """
    match = _DATE.fullmatch(text)
    if match is None:
        return 0
    year, month, day = match.groups()
    try:
        return dt.date(int(year), int(month or 1), int(day or 1)).toordinal()
    except ValueError:  # no such day, such as 2011-02-30
        return 0


def _parse_events(path, report: LoadReport) -> dict:
    """The accepted records of events.csv as ``Corpus.from_codes`` arguments."""
    # the file's bytes are freed before the checks, which take only the columns
    return _check_events(path, report, *_split_events(path))


def _split_events(path):
    """Split events.csv into what ``_check_events`` takes."""
    data = _read_bytes(path)
    # quotes and lone CRs are csv.reader's to read, and numpy's NUL-padded
    # cells would drop NUL bytes; CRLF line ends split in numpy as LF ones do
    plain = b'"' not in data and b"\0" not in data and (
        b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))
    split = _byte_columns if plain else _csv_columns
    return split(path, data)


def _csv_columns(path, data: bytes):
    """Split events.csv with csv.reader; returns what ``_check_events`` takes.

    Each field is interned as its record streams in, to a code per distinct
    value in order of first sight, so a record leaves only its line and
    eight codes behind. The codes are renumbered in sorted order at the end.
    """
    lines, ragged = array("q"), []
    # event, artist and venue ids, date, (city, state, country), lat, lon, popularity
    seen = [defaultdict(itertools.count().__next__) for _ in range(8)]
    codes = [array("q") for _ in seen]
    (e, a, v, d, c, y, x, p), (ce, ca, cv, cd, cc, cy, cx, cp) = seen, [o.append for o in codes]
    for line, row in _records(path, data, EVENT_HEADER):
        if len(row) != len(EVENT_HEADER):
            ragged.append((line, len(row)))
            continue
        lines.append(line)
        # unrolled: a loop over the eight columns measured slower
        eid, artist, venue, date, city, state, country, lat, lon, pop = row
        ce(e[eid])
        ca(a[artist])
        cv(v[venue])
        cd(d[date])
        cc(c[city, state, country])
        cy(y[lat])
        cx(x[lon])
        cp(p[pop])
    columns = []
    for index, out in zip(seen, codes):
        values = sorted(index)
        index.update(zip(values, range(len(values))))
        rank = np.fromiter(index.values(), dtype=np.int64, count=len(index))
        columns.append((values, rank[np.frombuffer(out, dtype=np.int64)]))
    return np.frombuffer(lines, dtype=np.int64), ragged, columns


def _byte_columns(path, data: bytes):
    """Split events.csv on its line-end and comma bytes; returns what ``_check_events`` takes.

    Only for a file without a quote or NUL byte whose CRs all precede an
    LF. Each column is keyed by one sort of its fields as fixed-width bytes:
    byte order is str order in UTF-8, so the codes come out in str order.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    offset = np.int32 if buf.size < np.iinfo(np.int32).max else np.int64
    ends = _offsets(buf, b"\n", offset)
    if not data.endswith(b"\n"):
        ends = np.append(ends, offset(buf.size))
    if not data:
        _check_header(path, None, EVENT_HEADER)
    # a line's last field stops before the CR of a CRLF
    stops = ends - (buf[np.maximum(ends, 1) - 1] == ord("\r"))
    header = _decode(path, data[:stops[0]])
    _check_header(path, header.split(",") if header else [], EVENT_HEADER)

    lo, hi = ends[:-1] + 1, stops[1:]
    commas = _offsets(buf, b",", offset)
    first = np.searchsorted(commas, lo).astype(offset)  # each row's first comma
    n_fields = np.searchsorted(commas, hi).astype(offset) - first + 1
    n_fields[hi <= lo] = 0  # a blank line
    line = np.arange(2, lo.size + 2, dtype=offset)
    good = n_fields == len(EVENT_HEADER)
    ragged = list(zip(line[~good].tolist(), n_fields[~good].tolist()))
    _decode_pieces(path, data, [data[a:b] for a, b in zip(lo[~good].tolist(), hi[~good].tolist())])
    if not good.all():  # copied only when a record is dropped
        lo, hi, first, line = lo[good], hi[good], first[good], line[good]
    last = len(EVENT_HEADER) - 1
    columns = []
    # city, state and country are adjacent, so one key covers the three
    for a, b in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 6), (7, 7), (8, 8), (9, 9)):
        start = lo if a == 0 else commas[first + (a - 1)] + 1
        values, codes = _unique_fields(buf, start, hi if b == last else commas[first + b])
        if a == 0:  # event ids stay bytes until read (Corpus.event_id)
            _check_utf8(path, data, values)
        else:
            values = _decode_pieces(path, data, values.tolist())
        columns.append((values, codes))
    keys, codes = columns[4]
    cities, rank = intern_ids([tuple(k.split(",")) for k in keys], key=None)
    columns[4] = (cities, rank[codes])  # in tuple order, not in the keys' byte order
    return line, ragged, columns


def _offsets(buf, byte: bytes, dtype) -> np.ndarray:
    """The positions of ``byte`` in ``buf``, in ``dtype``.

    Counted, then found, ``_BLOCK`` bytes at a time, so no file-sized mask
    or int64 offsets are formed.
    """
    blocks = range(0, buf.size, _BLOCK)
    out = np.empty(sum(np.count_nonzero(buf[lo:lo + _BLOCK] == ord(byte)) for lo in blocks),
                   dtype=dtype)
    n = 0
    for lo in blocks:
        at = np.flatnonzero(buf[lo:lo + _BLOCK] == ord(byte))
        out[n:n + at.size] = at + lo
        n += at.size
    return out


def _unique_fields(buf, start, stop):
    """Sorted distinct fields ``buf[start[i]:stop[i]]`` as an array, and each row's code.

    Each field is read as the big-endian words of a NUL-padded cell whose
    width is a multiple of 8 bytes, gathered one word per field at a time
    straight from ``buf``. The words, whose order is the bytes' order, are
    packed into one int64 key (see ``_word_columns``), which ``rank_rows``
    sorts once; cells are formed only for the distinct fields, and the
    codes keep the offsets' dtype. When one field is so much wider than the
    others that the cells would outgrow ``buf``, the column's fields are
    sorted as ``bytes`` objects instead (an object array).
    """
    width = stop - start
    w = -(-max(int(width.max(initial=0)), 1) // 8) * 8
    if width.size * w > buf.size:
        pieces = [buf[a:b].tobytes() for a, b in zip(start.tolist(), stop.tolist())]
        values, codes = np.unique(np.array(pieces, dtype=object), return_inverse=True)
        return values, codes.astype(start.dtype)
    rank, order, first = rank_rows(_word_columns(buf, start, width, w // 8))
    rows = order[first]
    cells = np.empty((rows.size, w // 8), dtype=">u8")
    for j in range(w // 8):
        cells[:, j] = _field_word(buf, start[rows], width[rows], j)
    return cells.view(f"S{w}").ravel(), rank.astype(start.dtype, copy=False)


# the mask of the first k bytes of a big-endian word, for k = 0..8
_WORD_HEAD = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _field_word(buf, start, width, j):
    """Bytes ``8 * j`` to ``8 * j + 8`` of each field ``buf[start:start + width]``.

    One big-endian uint64 per field, its bytes past the field's end zeroed.
    """
    room = buf.size - 8  # a word starting later would pass the end
    at = np.minimum(start, room - 8 * j) + 8 * j
    words = sliding_window_view(buf, 8).view(">u8")[:, 0][at].astype(np.uint64)
    for i in np.flatnonzero((start > room - 8 * j) & (width > 8 * j)).tolist():
        lo = int(start[i]) + 8 * j
        words[i] = int.from_bytes(buf[lo:lo + 8].tobytes().ljust(8, b"\0"), "big")
    words &= _WORD_HEAD[np.clip(width - 8 * j, 0, 8)]
    return words


def _word_columns(buf, start, width, n_words):
    """The first ``n_words`` words of each field (``_field_word``), as ``pack_rows`` takes them.

    The trailing zero bits that a column's words all share are shifted
    out, so a column that then fits int64 is packed under its own bound
    rather than ranked first.
    """
    for j in range(n_words):
        col = _field_word(buf, start, width, j)
        low = int(np.bitwise_or.reduce(col))
        col >>= max((low & -low).bit_length() - 1, 0)
        top = int(col.max(initial=0))
        yield (col.view(np.int64), top + 1) if top < 1 << 63 else (col, 1 << 64)


def _check_utf8(path, data: bytes, values) -> None:
    """CorpusFormatError unless every value ``_unique_fields`` returned is UTF-8.

    Each NUL-padded cell is checked with a newline after it, so a field
    that fills its cell cannot end in the middle of a character that the
    next cell completes; no ``str`` is kept.
    """
    if values.dtype == object:  # the bytes objects of a wide column
        _decode_pieces(path, data, values.tolist())
        return
    cells = values.view(np.uint8).reshape(values.size, values.itemsize)
    lines = np.hstack([cells, np.full((values.size, 1), ord("\n"), dtype=np.uint8)])
    try:
        str(lines, "utf-8")
    except UnicodeDecodeError:
        _decode(path, data)
        raise


def _decode_pieces(path, data: bytes, pieces: list) -> list[str]:
    """Byte strings cut from ``data`` at commas and line ends, decoded as UTF-8.

    The cuts fall on ASCII bytes, so a bad piece holds a bad byte of the
    file, and the error names the line of the file's first bad byte.
    """
    try:
        text = b"\n".join(pieces).decode("utf-8")
    except UnicodeDecodeError:
        _decode(path, data)
        raise
    return text.split("\n") if pieces else []


def _check_events(path, report: LoadReport, line, ragged, columns) -> dict:
    """Validate split events.csv records; the accepted ones as ``Corpus.from_codes`` arguments.

    ``line`` is the physical line of each record with the full field count,
    ``ragged`` the (line, field count) pairs of the other records, and
    ``columns`` one (sorted distinct values, codes) pair per column of the
    full records: event, artist and venue ids, date, (city, state, country)
    triples, lat, lon and popularity. Each check runs once per distinct
    value; a record gets the reason of the first check it fails, rejections
    are reported in line order, and of the accepted records sharing an
    event_id the first one wins.
    """
    (eid_v, eid), (art_v, art), (ven_v, ven), (date_v, date), (city_v, city), \
        (lat_v, lat), (lon_v, lon), (pop_v, pop) = columns
    day = np.array([_ordinal(s) for s in date_v], dtype=np.int64)[date]
    lat_f, lat_ok = _floats(lat_v)
    lon_f, lon_ok = _floats(lon_v)
    pop_f, pop_ok = _floats(pop_v, blank_ok=True)
    y, x = lat_f[lat], lon_f[lon]
    checks = (
        (_blank(eid_v, eid) | _blank(art_v, art) | _blank(ven_v, ven),
         lambda i: "missing event, artist or venue id"),
        (day == 0, lambda i: f"unparseable date {date_v[date[i]]!r}"),
        (~(lat_ok[lat] & lon_ok[lon]),
         lambda i: f"unparseable coordinates ({lat_v[lat[i]]!r}, {lon_v[lon[i]]!r})"),
        (~((-90.0 <= y) & (y <= 90.0) & (-180.0 <= x) & (x <= 180.0)),
         lambda i: f"coordinates out of bounds ({float(y[i])}, {float(x[i])})"),
        (~pop_ok[pop], lambda i: f"unparseable popularity {pop_v[pop[i]]!r}"),
    )
    rejects = [(n, f"expected {len(EVENT_HEADER)} fields, got {k}") for n, k in ragged]
    failed = np.zeros(line.size, dtype=bool)
    for mask, reason in checks:
        rejects += [(int(line[i]), reason(i)) for i in np.flatnonzero(mask & ~failed).tolist()]
        failed |= mask
    passed = np.flatnonzero(~failed)
    _, first = np.unique(eid[passed], return_index=True)
    repeat = np.ones(passed.size, dtype=bool)
    repeat[first] = False
    first_line = np.zeros(len(eid_v), dtype=np.int64)
    first_line[eid[passed[first]]] = line[passed[first]]
    for i in passed[repeat].tolist():
        event_id, first_on = eid_v[eid[i]], first_line[eid[i]]
        if isinstance(event_id, bytes):
            event_id = event_id.decode("utf-8")
        rejects.append((int(line[i]), f"duplicate event_id {event_id!r}, first on line {first_on}"))
    report.events_total += line.size + len(ragged)
    for line_no, reason in sorted(rejects):
        report.reject("events", path, line_no, reason)

    keep = passed[~repeat]
    artist_order, artist, _ = _used(art_v, art[keep])
    venue_order, venue, _ = _used(ven_v, ven[keep])
    cities, city, _ = _used(city_v, city[keep])
    return dict(
        artist_order=artist_order, artist=artist, venue_order=venue_order, venue=venue,
        cities=cities, city=city, day=day[keep],
        # the numpy splitter's ids are an array of bytes, csv.reader's a list
        event_ids=eid_v if isinstance(eid_v, np.ndarray) else np.array(eid_v, dtype=object),
        event=eid[keep], popularity=pop_f[pop[keep]],
    )


def _floats(values, blank_ok=False):
    """``float`` of each value (NaN for an empty one if ``blank_ok``), and which parsed."""
    out = np.full(len(values), np.nan)
    ok = np.ones(len(values), dtype=bool)
    for k, text in enumerate(values):
        if text or not blank_ok:
            try:
                out[k] = float(text)
            except ValueError:
                ok[k] = False
    return out, ok


def _blank(values, codes) -> np.ndarray:
    """Mask of the codes of the empty value, given values in sorted order."""
    return (codes == 0) & (len(values) > 0 and not values[0])


def _used(values, codes):
    """The values that ``codes`` use, in their order, the codes renumbered to them,
    and the map of every old code to its new one (-1 for a value left unused)."""
    used = np.bincount(codes, minlength=len(values)) > 0
    renumber = np.where(used, np.cumsum(used) - 1, -1)
    return tuple(itertools.compress(values, used.tolist())), renumber[codes], renumber


def _parse_releases(path, report: LoadReport):
    """The accepted rows of releases.csv: artist ids, label ids and day ordinals,
    ``NEVER`` for an undated release (kept for the success label, never a change point)."""
    artists, labels, days = [], [], array("q")
    reject = partial(report.reject, "releases", path)
    for line_no, row in _records(path, _read_bytes(path), RELEASE_HEADER):
        report.releases_total += 1
        if len(row) != len(RELEASE_HEADER):
            reject(line_no, f"expected {len(RELEASE_HEADER)} fields, got {len(row)}")
            continue
        artist_id, label_id, date_s = row
        if not artist_id or not label_id:
            reject(line_no, "missing artist or label id")
            continue
        day = _ordinal(date_s) if date_s else NEVER
        if not day:
            reject(line_no, f"unparseable release date {date_s!r}")
            continue
        if day == NEVER:
            report.releases_undated += 1
        artists.append(artist_id)
        labels.append(label_id)
        days.append(day)
    return artists, labels, np.frombuffer(days, dtype=np.int64)


def _parse_labels(path, report: LoadReport) -> LabelTable:
    """The accepted rows of labels.csv as a table; of rows repeating a label_id the first wins."""
    first_line, parents, major = {}, [], []
    reject = partial(report.reject, "labels", path)
    for line_no, row in _records(path, _read_bytes(path), LABEL_HEADER):
        report.labels_total += 1
        if len(row) != len(LABEL_HEADER):
            reject(line_no, f"expected {len(LABEL_HEADER)} fields, got {len(row)}")
            continue
        label_id, _name, parent_id, major_s = row
        if not label_id:
            reject(line_no, "missing label id")
            continue
        if major_s not in ("0", "1"):
            reject(line_no, f"is_major_root must be 0 or 1, got {major_s!r}")
            continue
        if label_id in first_line:
            reject(line_no, f"duplicate label_id {label_id!r}, first on line {first_line[label_id]}")
            continue
        first_line[label_id] = line_no
        parents.append(parent_id)
        major.append(major_s == "1")
    ids = tuple(first_line)
    parent = _index_of(ids, parents)
    # a blank parent id is no parent; label ids are never blank
    report.labels_dangling_parent += sum(1 for p, i in zip(parents, parent.tolist()) if p and i < 0)
    return LabelTable(ids, _frozen(parent), _frozen(major, dtype=bool))


def _index_of(order, ids) -> np.ndarray:
    """Each id's position in the tuple ``order``, -1 for one not in it."""
    index = dict(zip(order, range(len(order))))
    return np.array([index.get(i, -1) for i in ids], dtype=np.int64)


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
    including rows repeating an earlier event_id or label_id, are dropped
    and show up in ``corpus.load_report``.
    """
    report = LoadReport()
    events = _parse_events(event_file, report)
    _check_tolerance(event_file, report.events_rejected, report.events_total)
    both_sides = set(events["artist_order"]).intersection(events["venue_order"])
    if both_sides:
        raise CorpusFormatError(
            f"{event_file}: ids used as both artist and venue: {sorted(both_sides)[:5]}"
        )
    release_artists, release_labels, release_day = _parse_releases(release_file, report)
    _check_tolerance(release_file, report.releases_rejected, report.releases_total)
    labels = _parse_labels(label_file, report)
    _check_tolerance(label_file, report.labels_rejected, report.labels_total)
    return Corpus.from_codes(
        **events, release_artist=_index_of(events["artist_order"], release_artists),
        release_label=_index_of(labels.ids, release_labels), release_day=release_day,
        labels=labels, load_report=report,
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
    change_day: Optional[np.ndarray] = None,
    recursive: bool = True,
) -> Corpus:
    """Drop artists and venues with too few concerts.

    An artist must have at least ``threshold`` concerts dated before its
    change day (``labeling.label_corpus``, one per ``corpus.artist_order``;
    full history when None); a venue must host at least ``threshold``
    concerts. Removing a node removes its events, which can pull other nodes
    below the threshold, so the filter iterates to a fixed point (set
    ``recursive=False`` for a single pass).
    """
    before = True
    if change_day is not None:
        check_change_day(corpus, change_day)
        before = corpus.day < change_day[corpus.artist]
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
