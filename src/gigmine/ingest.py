"""Corpus file parsing, validation, the columnar event store and preprocessing filters.

The corpus lives in three CSV files (UTF-8, RFC 4180 quoting):

* ``events.csv``    header ``event_id,artist_id,venue_id,date,city,state,country,lat,lon,popularity``
* ``releases.csv``  header ``artist_id,label_id,release_date``
* ``labels.csv``    header ``label_id,name,parent_label_id,is_major_root``

Dates are ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` in ASCII digits. Malformed
rows are rejected with diagnostics naming the physical line where the record
starts; a file whose malformed fraction exceeds 10% fails hard, as does a
missing or wrong header or a byte that is not UTF-8. Each file's UTF-8 is
checked once, whole (``_check_utf8``): the bytes that split a CSV (comma,
quote, CR, LF) never occur inside a multi-byte character, so every field cut
from a valid file is valid.

One numpy splitter reads all three files as ``csv.reader`` does. A quote
opens a quoted field only at a field's start; inside one, ``""`` is a quote
and commas and line ends are text. Other quotes are taken as they stand: in
an unquoted field (``a,b"c``), after a closing quote (``"b"c`` reads ``bc``),
after a space (`` "b"``), and one still open at the end, which runs to it. A
record ends at an LF, a CRLF or a lone CR outside quotes. Each column is
keyed by one sort of its fields' bytes, packed as big-endian words
(``_unique_fields``). No field has a length limit, and NUL bytes are kept.
One validator per file checks each distinct value once.

A corpus stores its events once, as interned columns. ``parse_corpus``
interns the ids: ``artist_order`` and ``venue_order`` are the sorted (by
``str``) tuples of exactly the artists and venues with at least one event,
and ``cities`` holds the distinct (city, state, country) triples in tuple
order. Event k is position k of the columns ``artist``, ``venue`` and
``city`` (indices into those tuples), ``day`` (date ordinal) and ``event``
(index into the sorted distinct ``event_ids``); ``year`` derives from
``day`` and ``event_id`` from ``event``. Events are kept in (artist, day,
event_id) order. Coordinates and popularity are validated but not stored.
Filters are masks over the columns, and ``Corpus.select`` keeps the masked
events and drops the ids left without one.

Release k is position k of the columns ``release_artist`` (index into
``artist_order``, -1 for an artist without events), ``release_label`` (into
``labels.ids``, -1 for a label missing from the table) and ``release_day``
(``labeling.NEVER`` when undated). ``labels`` is a ``labeling.LabelTable``.

Preprocessing (``preprocess``) follows the order: keep artists whose first
recorded event is 2007 or later, then drop low-activity artists and venues,
counting the events before each artist's change day (a filter keeps it with
the artist's releases). ``recursive_core_filter`` picks the nodes of task2's
training graph with the same fixed-point loop (``_active``), run on the
training events.
"""

from __future__ import annotations

import codecs
import datetime as dt
import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gigmine.errors import CorpusFormatError, GigmineError
from gigmine.graph import _frozen, _mask, pack_rows, rank_rows
from gigmine.labeling import NEVER, LabelTable, label_corpus, major_releases

EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country", "lat", "lon", "popularity"]
RELEASE_HEADER = ["artist_id", "label_id", "release_date"]
LABEL_HEADER = ["label_id", "name", "parent_label_id", "is_major_root"]

MALFORMED_TOLERANCE = 0.10
POST_PLATFORM_CUTOFF = dt.date(2007, 1, 1)
MIN_ACTIVITY = 10

_DATE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")
_EPOCH = dt.date(1970, 1, 1).toordinal()
_BLOCK = 1 << 20  # bytes of a corpus file searched at a time for quotes, line ends and commas


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
    columns. The column arrays are read-only: an int64 array given for a
    column is made so in place, not copied, so the caller passes arrays it
    no longer writes.
    """

    def __init__(self, artist_order, venue_order, cities, artist, venue, day, city, event_ids,
                 event, release_artist, release_label, release_day, labels, load_report=None):
        freeze = partial(_frozen, copy=False)
        self.artist_order, self.venue_order, self.cities = artist_order, venue_order, cities
        self.artist, self.venue, self.day, self.city, self.event = map(
            freeze, (artist, venue, day, city, event))
        self.release_artist, self.release_label, self.release_day = map(
            freeze, (release_artist, release_label, release_day))
        self.event_ids = event_ids
        self.labels = labels
        self.load_report = load_report

    @classmethod
    def from_codes(cls, artist_order, artist, venue_order, venue, cities, city, day,
                   event_ids, event, **rest) -> "Corpus":
        """Order events given as per-event codes into the (artist, day, event_id) layout.

        ``artist``, ``venue`` and ``city`` index the orders, which hold
        exactly the values used; ``event`` indexes the sorted ``event_ids``,
        an array of their UTF-8 bytes (see ``event_id``).
        Events tying on (artist, day, event) keep their input order.
        ``rest`` passes the release columns (taken as ``Corpus`` takes
        them), labels and load_report.
        """
        d0, d1 = (int(day.min()), int(day.max())) if day.size else (0, 0)
        columns = (artist, len(artist_order)), (day - d0, d1 - d0 + 1), (event, len(event_ids))
        order = np.argsort(pack_rows(columns), kind="stable")
        return cls(
            artist_order, venue_order, cities, artist[order], venue[order], day[order],
            city[order], event_ids, event[order], **rest,
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
            self.event_ids, self.event[keep],
            release_artist[rows], self.release_label[rows], self.release_day[rows],
            self.labels, self.load_report,
        )

    @cached_property
    def event_id(self) -> np.ndarray:
        """Each event's id as ``str`` (an object array), decoded on first access.

        ``event_ids`` are held as bytes: no command reads the ids, and one
        ``str`` per distinct id would cost more than the column of codes.
        """
        ids = np.array(_decode_pieces(self.event_ids.tolist()), dtype=object)
        return _frozen(ids[self.event], dtype=object, copy=False)

    @cached_property
    def year(self) -> np.ndarray:
        """Calendar year of each event."""
        days = (self.day - _EPOCH).astype("datetime64[D]")
        return _frozen(days.astype("datetime64[Y]").astype(np.int64) + 1970, copy=False)

    @cached_property
    def artist_indptr(self) -> np.ndarray:
        """Event positions delimiting each artist's run, earliest event first."""
        return _frozen(np.searchsorted(self.artist, np.arange(len(self.artist_order) + 1)))

    @cached_property
    def change_day(self) -> np.ndarray:
        """Each artist's change day: its earliest dated major-label release, else ``NEVER``."""
        signs = major_releases(self)
        day = np.full(len(self.artist_order), NEVER, dtype=np.int64)
        np.minimum.at(day, self.release_artist[signs], self.release_day[signs])
        return _frozen(day, copy=False)

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


def _check_utf8(path, data: bytes):
    """Raise CorpusFormatError naming the line of the first byte of ``data`` that is not UTF-8.

    A non-ASCII file is decoded ``_BLOCK`` bytes at a time, the text dropped,
    and a character cut at a block's end held back for the next block.
    """
    if data.isascii():
        return
    decoder, view = codecs.getincrementaldecoder("utf-8")(), memoryview(data)
    for lo in range(0, len(data), _BLOCK):
        held = len(decoder.getstate()[0])
        try:
            decoder.decode(view[lo:lo + _BLOCK], final=lo + _BLOCK >= len(data))
        except UnicodeDecodeError as exc:
            head = data[:lo - held + exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise CorpusFormatError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def _check_header(path, header, expected):
    if header is None:
        raise CorpusFormatError(f"{path}: empty file, expected header {expected}")
    if header != expected:
        raise CorpusFormatError(f"{path}: header mismatch, expected {expected}, got {header}")


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


def intern_ids(ids: Sequence) -> tuple[tuple, np.ndarray]:
    """Distinct ids in sorted order, and each id's index.

    ``_read_csv`` keys most columns by one sort of their bytes and interns
    here only the joined city columns and the values it unquotes. A dict
    rather than ``np.unique``: a numpy string array drops trailing NUL
    characters and would merge "a" with "a\\0".
    """
    index = dict.fromkeys(ids)
    order = tuple(sorted(index))
    index.update(zip(order, range(len(order))))
    return order, np.array([index[x] for x in ids], dtype=np.int64)


def index_of(order: Sequence, ids: Sequence) -> np.ndarray:
    """Each of ``ids``' position in ``order``, -1 for an id not in it."""
    index = dict(zip(order, range(len(order))))
    return np.array([index.get(x, -1) for x in ids], dtype=np.int64)


def _read_csv(path, header, joined=None):
    """Split a corpus file into records and intern its columns, after checking its header.

    Returns ``line``, the physical line of each record with as many fields
    as ``header``, ``ragged``, the (line, field count) pairs of the others,
    and per column of the full records its sorted distinct values (unquoted
    UTF-8 bytes) and each record's code. ``joined``, a (first, last) pair,
    keys those columns as one column of ``str`` tuples, cut at the commas of
    a record of each distinct key: one sort of their bytes costs less.
    """
    data = _read_bytes(path)
    if not data:
        _check_header(path, None, header)
    lo, hi, line, commas, (bounds, whole) = _split(data)
    cuts = commas[:np.searchsorted(commas, hi[0])].tolist()  # hi[0] has the commas' dtype
    try:
        _check_header(path, [_unquote(data[x:y]).decode("utf-8") for x, y in zip(
            [0, *(c + 1 for c in cuts)], [*cuts, hi[0]])] if hi[0] else [], header)
    except UnicodeDecodeError:  # the header holds the first bad byte, which _check_utf8 names
        pass
    _check_utf8(path, data)
    lo, hi, line = lo[1:], hi[1:], line[1:]
    first = np.searchsorted(commas, lo).astype(commas.dtype)  # each record's first comma
    n_fields = np.searchsorted(commas, hi).astype(commas.dtype) - first + 1
    n_fields[hi <= lo] = 0  # a blank line
    good = n_fields == len(header)
    ragged = list(zip(line[~good].tolist(), n_fields[~good].tolist()))
    if not good.all():  # copied only when a record is dropped
        lo, hi, first, line = lo[good], hi[good], first[good], line[good]
    buf = np.frombuffer(data, dtype=np.uint8)
    nul = b"\0" in data

    def field(a, rows=slice(None)):  # where column a starts and stops in the records rows
        start = lo[rows] if a == 0 else commas[first[rows] + (a - 1)] + 1
        return start, hi[rows] if a == len(header) - 1 else commas[first[rows] + a]

    keys = [(a, a) for a in range(len(header))]
    if joined:
        keys[joined[0]:joined[1] + 1] = [joined]
    columns = []
    for a, b in keys:
        if a < b:
            _, codes, rows = _unique_fields(buf, field(a)[0], field(b)[1], nul)
            parts = ([_unquote(data[x:y]).decode("utf-8") for x, y in zip(*field(j, rows))]
                     for j in range(a, b + 1))
            values, renumber = intern_ids(list(zip(*parts)))
            columns.append((values, renumber.astype(codes.dtype)[codes]))
            continue
        start, stop = field(a)
        if bounds.size:  # a field that is a whole span is cut inside its quotes
            quoted = buf[np.minimum(start, buf.size - 1)] == _QUOTE
            cut = np.zeros(start.size, dtype=bool)
            cut[quoted] = whole[np.searchsorted(bounds, start[quoted]) // 2]
            start, stop = start + cut, stop - cut
        values, codes, _ = _unique_fields(buf, start, stop, nul)
        if bounds.size and (quoted & ~cut).any():  # the rest are unquoted in Python
            values, renumber = intern_ids([_unquote(v) for v in values.tolist()])
            values, codes = np.array(values, dtype=object), renumber.astype(codes.dtype)[codes]
        columns.append((values, codes))
    return line, ragged, columns


def _split(data: bytes):
    """Where the records and fields of CSV bytes start and stop, as ``csv.reader`` splits them.

    Returns ``(lo, hi, line, commas, spans)``: each record's first byte, the
    end of its last field and the physical line it starts on, the commas
    that separate fields, and the quoted spans (``_quoted_spans``).
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    offset = np.int32 if buf.size < np.iinfo(np.int32).max else np.int64
    spans = _quoted_spans(buf, _offsets(buf, b'"', offset))
    ends = _offsets(buf, b"\n", offset)
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):  # lone CRs end lines too
        cr = _offsets(buf, b"\r", offset)
        ends = np.sort(np.concatenate((ends, cr[buf[np.minimum(cr + 1, buf.size - 1)] != _LF])))
    line = np.arange(2, ends.size + 2, dtype=offset)  # the line after each line end
    commas = _offsets(buf, b",", offset)
    if spans[0].size:  # line ends and commas inside quotes separate nothing
        outside = np.searchsorted(spans[0], ends) % 2 == 0
        ends, line = ends[outside], line[outside]
        commas = commas[np.searchsorted(spans[0], commas) % 2 == 0]
    hi = ends - ((buf[ends] == _LF) & (buf[np.maximum(ends, 1) - 1] == _CR))
    if not ends.size or ends[-1] != buf.size - 1:
        ends, hi = np.append(ends, offset(buf.size)), np.append(hi, offset(buf.size))
    lo = np.concatenate(([0], ends[:-1] + 1)).astype(offset, copy=False)
    line = np.concatenate(([1], line[:ends.size - 1])).astype(offset, copy=False)
    return lo, hi, line, commas, spans


_QUOTE, _LF, _CR = b'"'[0], b"\n"[0], b"\r"[0]
_SEPARATES = np.isin(np.arange(256), list(b",\n\r"))  # by byte value: comma, LF, CR


def _quoted_spans(buf, quotes):
    """The quoted spans of CSV bytes, as ``csv.reader`` reads them, given the quotes' offsets.

    Returns ``bounds``, each span's opening and closing quote in turn
    (``buf.size`` for one still open at the end), and ``whole``, which spans
    are a field: no quote inside, and a separator or the end right after.
    The closing quote is the first odd one after the opening (1st, 3rd, ...)
    that no quote follows. Each quote that starts a field, taken as opening,
    gives the next after its close; the spans chain these from the first.
    """
    if not quotes.size:
        return quotes, np.zeros(0, dtype=bool)
    alone = np.append(np.diff(quotes) != 1, True)  # no quote right after this one
    # a quote at 0 reads the last byte before it, and opens anyway
    opens = np.flatnonzero((quotes == 0) | _SEPARATES[buf[quotes - 1]]).astype(quotes.dtype)
    close = opens + 1  # index into quotes; quotes.size for a quote open at the end
    later = np.flatnonzero(~np.append(alone, True)[close])
    for parity in (0, 1) if later.size else ():
        ends = np.flatnonzero(alone[parity::2]) * 2 + parity
        these = later[opens[later] % 2 != parity]
        close[these] = np.append(ends, quotes.size)[np.searchsorted(ends, opens[these])]
    skips = np.flatnonzero(opens[1:] <= close[:-1])  # the next opens inside this span
    after = np.searchsorted(opens, close[skips], side="right")
    chain = np.zeros(opens.size, dtype=bool)
    i = 0
    while i < opens.size:
        k = np.searchsorted(skips, i)
        j = int(skips[k]) if k < skips.size else opens.size - 1
        chain[i:j + 1] = True
        i = int(after[k]) if k < skips.size else opens.size
    del alone
    opens, close = opens[chain], close[chain]
    whole = close == opens + 1  # no quote inside
    shut = quotes.take(close, mode="clip")
    shut[close == quotes.size] = buf.size  # still open at the end
    del close  # freed before the bounds, which are as large as it and two more
    whole &= (shut < buf.size) & (
        (shut == buf.size - 1) | _SEPARATES[buf[np.minimum(shut + 1, buf.size - 1)]])
    return np.column_stack((quotes[opens], shut)).ravel(), whole


_QUOTED = re.compile(rb'"((?:[^"]|"")*)"?(.*)', re.DOTALL)


def _unquote(field: bytes) -> bytes:
    """A field's bytes between separators as ``csv.reader`` reads them: a leading quote,
    its closing quote and the doubled quotes between go; the bytes after stay."""
    if field[:1] != b'"':
        return field
    inside, rest = _QUOTED.fullmatch(field).groups()
    return inside.replace(b'""', b'"') + rest


def _offsets(buf, byte: bytes, dtype) -> np.ndarray:
    """The positions of ``byte`` in ``buf``, in ``dtype``.

    Counted, then found, ``_BLOCK`` bytes at a time, so no file-sized mask
    or int64 offsets are formed; a block without one is searched once.
    """
    blocks = range(0, buf.size, _BLOCK)
    counts = [np.count_nonzero(buf[lo:lo + _BLOCK] == ord(byte)) for lo in blocks]
    out = np.empty(sum(counts), dtype=dtype)
    n = 0
    for lo, k in zip(blocks, counts):
        if k:
            out[n:n + k] = np.flatnonzero(buf[lo:lo + _BLOCK] == ord(byte)) + lo
            n += k
    return out


def _unique_fields(buf, start, stop, nul=False):
    """Sorted distinct fields ``buf[start[i]:stop[i]]``, each one's code, and a row of each.

    Each field is read as the big-endian words of a NUL-padded cell whose
    width is a multiple of 8 bytes, gathered one word per field at a time
    straight from ``buf``. The words, whose order is the bytes' order, are
    packed into one int64 key (see ``_word_columns``), which ``rank_rows``
    sorts once; cells are formed only for the distinct fields, and the
    codes keep the offsets' dtype. In a file with ``nul`` bytes the width
    ends the key, so "a" sorts before "a\\0", and the values are ``bytes``
    objects, which keep trailing NULs. When one field is so much wider than
    the others that the cells would outgrow ``buf``, the fields are sorted
    as ``bytes`` objects instead.
    """
    width = stop - start
    w = -(-max(int(width.max(initial=0)), 1) // 8) * 8
    if width.size * w > buf.size:
        pieces = [buf[a:b].tobytes() for a, b in zip(start.tolist(), stop.tolist())]
        values, rows, codes = np.unique(np.array(pieces, dtype=object), return_index=True,
                                        return_inverse=True)
        return values, codes.astype(start.dtype), rows
    words = _word_columns(buf, start, width, w // 8)
    rank, order, first = rank_rows(itertools.chain(words, [(width, w + 1)] if nul else []))
    rows = order[first]
    if nul:
        values = [buf[a:b].tobytes() for a, b in zip(start[rows].tolist(), stop[rows].tolist())]
        return np.array(values, dtype=object), rank.astype(start.dtype, copy=False), rows
    cells = np.empty((rows.size, w // 8), dtype=">u8")
    for j in range(w // 8):
        cells[:, j] = _field_word(buf, start[rows], width[rows], j)
    return cells.view(f"S{w}").ravel(), rank.astype(start.dtype, copy=False), rows


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


def _decode_pieces(pieces: list) -> list[str]:
    """Fields of a UTF-8 file as ``str``; in one decode unless a field holds a line break."""
    text = b"\n".join(pieces).decode("utf-8").split("\n")
    return text if len(text) == len(pieces) else [p.decode("utf-8") for p in pieces]


def _parse_events(path, report: LoadReport) -> dict:
    """The accepted records of events.csv as ``Corpus.from_codes`` arguments.

    Each check runs once per distinct value. Event ids stay bytes, and city,
    state and country are keyed as one column of tuples.
    """
    line, ragged, columns = _read_csv(path, EVENT_HEADER, joined=(4, 6))
    (eid_v, eid), (art_v, art), (ven_v, ven), (date_v, date), (city_v, city), \
        (lat_v, lat), (lon_v, lon), (pop_v, pop) = (
            (values if k in (0, 4) else _decode_pieces(values.tolist()), codes)
            for k, (values, codes) in enumerate(columns))
    day = np.array([_ordinal(s) for s in date_v], dtype=np.int64)[date]
    lat_f, lat_ok = _floats(lat_v)
    lon_f, lon_ok = _floats(lon_v)
    _, pop_ok = _floats(pop_v, blank_ok=True)
    y, x = lat_f[lat], lon_f[lon]
    keep = _accept(report, "events", path, EVENT_HEADER, line, ragged, (
        (_blank(eid_v, eid) | _blank(art_v, art) | _blank(ven_v, ven),
         lambda i: "missing event, artist or venue id"),
        (day == 0, lambda i: f"unparseable date {date_v[date[i]]!r}"),
        (~(lat_ok[lat] & lon_ok[lon]),
         lambda i: f"unparseable coordinates ({lat_v[lat[i]]!r}, {lon_v[lon[i]]!r})"),
        (~((-90.0 <= y) & (y <= 90.0) & (-180.0 <= x) & (x <= 180.0)),
         lambda i: f"coordinates out of bounds ({float(y[i])}, {float(x[i])})"),
        (~pop_ok[pop], lambda i: f"unparseable popularity {pop_v[pop[i]]!r}"),
    ), ("event_id", lambda c: eid_v[c].decode("utf-8"), eid))
    artist_order, artist, _ = _used(art_v, art[keep])
    venue_order, venue, _ = _used(ven_v, ven[keep])
    cities, city, _ = _used(city_v, city[keep])
    return dict(
        artist_order=artist_order, artist=artist, venue_order=venue_order, venue=venue,
        cities=cities, city=city, day=day[keep], event_ids=eid_v, event=eid[keep],
    )


def _accept(report: LoadReport, table, path, header, line, ragged, checks, ids=None):
    """Report the records of ``table`` that fail a check, in line order; the indices of the rest.

    A ragged record fails on its field count, a full one on the first of
    ``checks``, (mask, reason of record i) pairs, that it fails. With
    ``ids``, a (column name, value of a code, codes) triple, a passing
    record that repeats an id fails naming the line of the first. More than
    ``MALFORMED_TOLERANCE`` of the records failing fails the file.
    """
    rejects = [(n, f"expected {len(header)} fields, got {k}") for n, k in ragged]
    failed = np.zeros(line.size, dtype=bool)
    for mask, reason in checks:
        rejects += [(int(line[i]), reason(i)) for i in np.flatnonzero(mask & ~failed).tolist()]
        failed |= mask
    keep = np.flatnonzero(~failed)
    if ids:
        name, value, codes = ids
        _, first, group = np.unique(codes[keep], return_index=True, return_inverse=True)
        repeat = np.ones(keep.size, dtype=bool)
        repeat[first] = False
        again, first_on = keep[repeat], line[keep[first[group[repeat]]]]
        rejects += [(n, f"duplicate {name} {value(c)!r}, first on line {f}") for n, c, f in zip(
            line[again].tolist(), codes[again].tolist(), first_on.tolist())]
        keep = keep[~repeat]
    total = line.size + len(ragged)
    setattr(report, f"{table}_total", getattr(report, f"{table}_total") + total)
    for line_no, reason in sorted(rejects):
        report.reject(table, path, line_no, reason)
    if total and len(rejects) / total > MALFORMED_TOLERANCE:
        raise CorpusFormatError(f"{path}: {len(rejects)}/{total} malformed rows exceeds the "
                                f"{MALFORMED_TOLERANCE:.0%} tolerance")
    return keep


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
    """The accepted rows of releases.csv: artist ids and label ids, each as (sorted distinct
    values, codes), and day ordinals, ``NEVER`` for an undated release (kept for the success
    label, never a change point)."""
    line, ragged, columns = _read_csv(path, RELEASE_HEADER)
    (art_v, art), (lab_v, lab), (date_v, date) = (
        (_decode_pieces(values.tolist()), codes) for values, codes in columns)
    day = np.array([_ordinal(s) if s else NEVER for s in date_v], dtype=np.int64)[date]
    keep = _accept(report, "releases", path, RELEASE_HEADER, line, ragged, (
        (_blank(art_v, art) | _blank(lab_v, lab), lambda i: "missing artist or label id"),
        (day == 0, lambda i: f"unparseable release date {date_v[date[i]]!r}"),
    ))
    report.releases_undated += int(np.count_nonzero(day[keep] == NEVER))
    return (art_v, art[keep]), (lab_v, lab[keep]), day[keep]


def _parse_labels(path, report: LoadReport) -> LabelTable:
    """The accepted rows of labels.csv as a table; of rows repeating a label_id the first wins."""
    line, ragged, columns = _read_csv(path, LABEL_HEADER)
    (lid_v, lid), _, (par_v, par), (major_v, major) = (
        (_decode_pieces(values.tolist()), codes) for values, codes in columns)
    not_01 = np.array([m not in ("0", "1") for m in major_v], dtype=bool)
    keep = _accept(report, "labels", path, LABEL_HEADER, line, ragged, (
        (_blank(lid_v, lid), lambda i: "missing label id"),
        (not_01[major], lambda i: f"is_major_root must be 0 or 1, got {major_v[major[i]]!r}"),
    ), ("label_id", lid_v.__getitem__, lid))
    ids = tuple(lid_v[c] for c in lid[keep].tolist())
    parents = [par_v[c] for c in par[keep].tolist()]
    parent = index_of(ids, parents)
    # a blank parent id is no parent; label ids are never blank
    report.labels_dangling_parent += sum(1 for p, i in zip(parents, parent.tolist()) if p and i < 0)
    is_major = [major_v[c] == "1" for c in major[keep].tolist()]
    return LabelTable(ids, _frozen(parent), _frozen(is_major, dtype=bool))


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
    both_sides = set(events["artist_order"]).intersection(events["venue_order"])
    if both_sides:
        raise CorpusFormatError(
            f"{event_file}: ids used as both artist and venue: {sorted(both_sides)[:5]}"
        )
    (art_v, art), (lab_v, lab), release_day = _parse_releases(release_file, report)
    labels = _parse_labels(label_file, report)
    return Corpus.from_codes(
        **events, release_artist=index_of(events["artist_order"], art_v)[art],
        release_label=index_of(labels.ids, lab_v)[lab], release_day=release_day,
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


def _active(corpus: Corpus, threshold, a_counted, v_counted, recursive=True):
    """Masks over the corpus orders of the artists and venues with ``threshold`` events.

    An event is live while its artist and venue are kept; an artist counts
    its live events where ``a_counted`` holds, a venue its live events where
    ``v_counted`` holds (bool masks over the events, or True for all).
    Removing a node removes its events, which can pull other nodes below
    the threshold, so the loop runs to a fixed point, the same in any
    removal order (one pass when ``recursive`` is False).
    """
    alive_a = np.ones(len(corpus.artist_order), dtype=bool)
    alive_v = np.ones(len(corpus.venue_order), dtype=bool)
    while True:
        live = alive_a[corpus.artist] & alive_v[corpus.venue]
        a_count = np.bincount(corpus.artist[live & a_counted], minlength=alive_a.size)
        v_count = np.bincount(corpus.venue[live & v_counted], minlength=alive_v.size)
        drop_a, drop_v = alive_a & (a_count < threshold), alive_v & (v_count < threshold)
        if not drop_a.any() and not drop_v.any():
            return alive_a, alive_v
        alive_a &= ~drop_a
        alive_v &= ~drop_v
        if not recursive:
            return alive_a, alive_v


def filter_min_activity(corpus: Corpus, threshold: int = MIN_ACTIVITY,
                        recursive: bool = True) -> Corpus:
    """Drop artists and venues with too few concerts.

    An artist must have at least ``threshold`` concerts dated before its
    ``corpus.change_day`` (all of them when it never signs); a venue must
    host at least ``threshold`` concerts. Removing a node removes its
    events, which can pull other nodes below the threshold, so the filter
    iterates to a fixed point (set ``recursive=False`` for a single pass).
    """
    before = corpus.day < corpus.change_day[corpus.artist]
    alive_a, alive_v = _active(corpus, threshold, before, True, recursive)
    return corpus.select(alive_a[corpus.artist] & alive_v[corpus.venue])


def preprocess(corpus: Corpus, post_platform_filter: bool = True,
               cutoff: dt.date | str = POST_PLATFORM_CUTOFF, min_activity_filter: bool = True,
               activity_threshold: int = MIN_ACTIVITY,
               recursive: bool = True) -> tuple[Corpus, dict]:
    """The corpus every study runs on, and the report blocks of how it was made.

    Each filter runs when its flag holds: ``filter_post_2007`` at ``cutoff``
    (a date or its ISO string), then ``filter_min_activity``. The blocks are
    ``stages``, the corpus sizes as given (``parsed``) and after each filter
    that ran, and ``labeling``, the ``label_corpus`` stats of the result.
    """
    if isinstance(cutoff, str):
        cutoff = dt.date.fromisoformat(cutoff)
    stages = {"parsed": corpus.sizes()}
    if post_platform_filter:
        corpus = filter_post_2007(corpus, cutoff=cutoff)
        stages["post_platform_filter"] = corpus.sizes()
    if min_activity_filter:
        corpus = filter_min_activity(corpus, threshold=activity_threshold, recursive=recursive)
        stages["min_activity_filter"] = corpus.sizes()
    return corpus, {"stages": stages, "labeling": label_corpus(corpus)[1]}


def recursive_core_filter(corpus: Corpus, events, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Artist and venue masks over the corpus orders: the k-core of the masked events.

    ``events`` is a bool mask over the corpus's events. A node stays while
    at least ``k`` of its masked events (not its distinct neighbours) have
    kept nodes at both ends; removals cascade to a fixed point, the same in
    any removal order. For k >= 1 every kept node has such an event, so the
    graph of those events holds exactly the kept nodes.
    """
    return _active(corpus, k, events, events)
