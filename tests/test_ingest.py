import csv
import datetime as dt
import io
import tracemalloc

import numpy as np
import pytest

from conftest import (
    EVENT_HEADER, LABEL_HEADER, NO_RELEASES, RELEASE_HEADER, edges_of, event_row, kept_ids,
    make_corpus, triples_corpus, write_csv,
)

from gigmine import ingest
from gigmine.errors import CorpusFormatError, GigmineError
from gigmine.graph import build_graph
from gigmine.ingest import (
    Corpus,
    filter_min_activity,
    filter_post_2007,
    parse_corpus,
    recursive_core_filter,
)
from gigmine.labeling import NEVER
from gigmine.synth import GenSpec, generate

LABELS = [["maj", "Major", "", "1"], ["ind", "Indie", "", "0"]]


class TestParsing:
    def test_happy_path_and_cross_references(self, corpus_files):
        paths = corpus_files(
            [
                event_row("e1", "a1", "v1", "2010-05-01"),
                event_row("e2", "a1", "v2", "2011-06-02"),
                event_row("e3", "a2", "v1", "2012-07-03"),
            ],
            [["a1", "maj", "2011-01-01"]],
            LABELS,
        )
        c = parse_corpus(*paths)
        assert c.sizes() == {"events": 3, "artists": 2, "venues": 2, "releases": 1}
        # the code columns index the orders, which hold exactly the ids with events
        assert c.artist_order == ("a1", "a2") and c.venue_order == ("v1", "v2")
        assert sorted(c.event_id[c.artist == c.artist_order.index("a1")]) == ["e1", "e2"]
        assert sorted(c.event_id[c.venue == c.venue_order.index("v1")]) == ["e1", "e3"]
        # the release columns index artist_order and the label table's ids
        assert c.labels.ids == ("maj", "ind")
        assert c.release_artist.tolist() == [0] and c.release_label.tolist() == [0]
        assert c.release_day.tolist() == [dt.date(2011, 1, 1).toordinal()]
        by_artist = np.bincount(c.artist, minlength=len(c.artist_order))
        by_venue = np.bincount(c.venue, minlength=len(c.venue_order))
        assert by_artist.min() >= 1 and by_venue.min() >= 1
        assert by_artist.sum() == by_venue.sum() == c.n_events == len(c.event_id)

    def test_header_mismatch_fails_hard(self, tmp_path, corpus_files):
        paths = corpus_files([event_row("e1", "a1", "v1", "2010-05-01")], [], LABELS)
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["event_id", "artist"], [])
        with pytest.raises(CorpusFormatError, match="header"):
            parse_corpus(bad, paths[1], paths[2])

    def test_utf8_bom_before_header_accepted(self, corpus_files):
        paths = corpus_files([event_row("e1", "a1", "v1", "2010-05-01")], [], LABELS)
        paths[0].write_bytes(b"\xef\xbb\xbf" + paths[0].read_bytes())
        c = parse_corpus(*paths)
        assert c.event_id.tolist() == ["e1"]

    def test_missing_file_fails_hard(self, corpus_files, tmp_path):
        paths = corpus_files([event_row("e1", "a1", "v1", "2010-05-01")], [], LABELS)
        with pytest.raises(CorpusFormatError, match="cannot read"):
            parse_corpus(tmp_path / "nope.csv", paths[1], paths[2])

    def test_malformed_rows_dropped_with_line_numbers(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(20)]
        rows[4] = event_row("ebad", "a1", "v1", "not-a-date")
        rows[9] = event_row("ebad2", "a1", "v1", "2010-05-01", lat="95.0")
        paths = corpus_files(rows, [], LABELS)
        c = parse_corpus(*paths)
        assert c.n_events == 18
        report = c.load_report
        assert report.events_rejected == 2
        lines = [d["line"] for d in report.diagnostics]
        # header is line 1, so row index 4 sits on line 6
        assert 6 in lines and 11 in lines

    def test_more_than_ten_percent_malformed_fails(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(8)]
        rows += [event_row(f"x{i}", "a1", "v1", "bad-date") for i in range(2)]
        paths = corpus_files(rows, [], LABELS)
        with pytest.raises(CorpusFormatError, match="tolerance"):
            parse_corpus(*paths)

    def test_exactly_ten_percent_is_tolerated(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(9)]
        rows += [event_row("x", "a1", "v1", "bad-date")]
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.n_events == 9

    def test_duplicate_event_id_rejected_naming_first_line(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(10)]
        rows.append(event_row("e1", "a1", "v1", "2010-05-02"))
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.n_events == 10
        assert edges_of(build_graph(c))[("a1", "v1")][0] == 10
        assert c.load_report.events_rejected == 1
        (diag,) = c.load_report.diagnostics
        # e1 is row index 1 (line 3); its repeat is the last row (line 12)
        assert diag["line"] == 12 and "line 3" in diag["reason"]

    def test_duplicate_event_ids_count_toward_tolerance(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(8)]
        rows += [event_row("e0", "a1", "v1", "2010-05-01")] * 2
        with pytest.raises(CorpusFormatError, match="tolerance"):
            parse_corpus(*corpus_files(rows, [], LABELS))

    def test_duplicate_label_id_rejected_naming_first_line(self, corpus_files):
        fillers = [[f"f{i}", f"F{i}", "", "0"] for i in range(7)]
        labels = [["lab", "Lab", "", "1"], ["lab", "Lab again", "other", "0"],
                  ["other", "O", "", "0"], *fillers]
        events = [event_row("e1", "a1", "v1", "2010-05-01")]
        c = parse_corpus(*corpus_files(events, [["a1", "lab", "2012-01-01"]], labels))
        assert c.load_report.labels_total == 10 and c.load_report.labels_rejected == 1
        (diag,) = c.load_report.diagnostics
        assert diag["line"] == 3 and diag["reason"] == "duplicate label_id 'lab', first on line 2"
        # the first row wins: no parent, and a major root, so a1 signs
        assert c.labels.ids == ("lab", "other", *(f"f{i}" for i in range(7)))
        assert c.labels.parent.tolist()[:2] == [-1, -1]
        assert c.labels.major_root.tolist()[:2] == [True, False]
        assert c.change_day.tolist() == [dt.date(2012, 1, 1).toordinal()]
        # a repeat cannot flag a label as a major root either
        labels[0][3], labels[1][3] = "0", "1"
        c = parse_corpus(*corpus_files(events, [["a1", "lab", "2012-01-01"]], labels))
        assert not c.labels.major_root.any()
        assert c.change_day.tolist() == [NEVER]

    def test_duplicate_label_ids_count_toward_tolerance(self, corpus_files):
        labels = [["lab", "Lab", "", "1"], ["lab", "Lab again", "other", "0"],
                  ["other", "O", "", "0"]]
        with pytest.raises(CorpusFormatError, match="labels.csv: 1/3 malformed rows"):
            parse_corpus(*corpus_files([event_row("e1", "a1", "v1", "2010-05-01")], [], labels))

    def test_id_used_as_artist_and_venue_rejected(self, corpus_files):
        rows = [
            event_row("e1", "a1", "v1", "2010-05-01"),
            event_row("e2", "v1", "v2", "2010-05-02"),
        ]
        with pytest.raises(CorpusFormatError, match="both artist and venue.*'v1'"):
            parse_corpus(*corpus_files(rows, [], LABELS))

    def test_coordinate_bounds_enforced(self, corpus_files):
        rows = [
            event_row(f"e{i}", "a1", "v1", f"2010-05-{i:02d}") for i in range(1, 10)
        ]
        rows.append(event_row("e10", "a1", "v1", "2010-05-10", lon="181.0"))
        rows.append(event_row("e11", "a1", "v1", "2010-05-11", lat="-90.0", lon="180.0"))
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.n_events == 10

    def test_year_and_month_precision_dates(self, corpus_files):
        paths = corpus_files(
            [event_row("e1", "a1", "v1", "2010-05-01")],
            [["a1", "maj", "2013"], ["a2", "maj", "2013-07"]],
            LABELS,
        )
        c = parse_corpus(*paths)
        assert c.release_day.tolist() == [dt.date(2013, 1, 1).toordinal(),
                                          dt.date(2013, 7, 1).toordinal()]
        # a2 has no events
        assert c.release_artist.tolist() == [0, -1]

    def test_undated_releases_kept_separately(self, corpus_files):
        paths = corpus_files(
            [event_row("e1", "a1", "v1", "2010-05-01")],
            [["a1", "maj", ""], ["a1", "ind", "2012-01-01"]],
            LABELS,
        )
        c = parse_corpus(*paths)
        # an undated release stays a row, with the day NEVER, and is not counted as dated
        assert c.sizes()["releases"] == 1
        assert c.release_day.tolist() == [NEVER, dt.date(2012, 1, 1).toordinal()]
        assert c.release_label.tolist() == [0, 1]
        assert c.load_report.releases_undated == 1
        assert c.load_report.releases_rejected == 0

    def test_empty_popularity_is_none_and_bad_popularity_rejected(self, corpus_files):
        # popularity is validated but not stored: a blank or a number loads,
        # anything else rejects its row
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01", pop="") for i in range(10)]
        rows.append(event_row("e10", "a1", "v1", "2010-05-02", pop="55.5"))
        rows.append(event_row("e11", "a1", "v1", "2010-05-03", pop="loud"))
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert (c.load_report.events_total, c.load_report.events_rejected) == (12, 1)
        assert [(d["line"], d["reason"]) for d in c.load_report.diagnostics] == [
            (13, "unparseable popularity 'loud'")]
        assert c.n_events == 11

    def test_only_the_three_documented_date_shapes_parse(self, corpus_files):
        bad = ["20100101", "2010-W01-1", "2010W011", "\uff12\uff10\uff11\uff10"]
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(36)]
        rows += [event_row(f"x{i}", "a1", "v1", d) for i, d in enumerate(bad)]
        releases = [["a1", "maj", "2011"]] * 36 + [["a1", "maj", d] for d in bad]
        c = parse_corpus(*corpus_files(rows, releases, LABELS))
        assert c.n_events == 36 and c.sizes()["releases"] == len(c.release_day) == 36
        report = c.load_report
        assert report.events_rejected == report.releases_rejected == 4
        for file_name in ("events.csv", "releases.csv"):
            diags = [d for d in report.diagnostics if d["file"].endswith(file_name)]
            assert [d["line"] for d in diags] == [38, 39, 40, 41]
            assert all(repr(d) in diag["reason"] for d, diag in zip(bad, diags))

    def test_bad_date_shapes_count_toward_tolerance(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(8)]
        rows += [event_row("x1", "a1", "v1", "20100501"), event_row("x2", "a1", "v1", "2010")]
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.n_events == 9
        rows[-1] = event_row("x2", "a1", "v1", "2010-5-1")
        with pytest.raises(CorpusFormatError, match="tolerance"):
            parse_corpus(*corpus_files(rows, [], LABELS))

    def test_events_ordered_by_artist_day_and_event_id(self, corpus_files):
        rows = [
            event_row("e9", "b", "v1", "2010-01-02"),
            event_row("e3", "a", "v2", "2010-01-02"),
            event_row("e10", "a", "v1", "2010-01-02"),
            event_row("e5", "b", "v2", "2009-12-31"),
            event_row("e7", "a", "v1", "2010-01-01"),
        ]
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.event_id.tolist() == ["e7", "e10", "e3", "e5", "e9"]
        assert [c.artist_order[i] for i in c.artist] == ["a", "a", "a", "b", "b"]
        assert c.artist_indptr.tolist() == [0, 3, 5]
        assert c.year.tolist() == [2010, 2010, 2010, 2009, 2010]

    def test_lines_are_physical_after_a_multiline_record(self, corpus_files):
        # a quoted field holding a line break makes record 1 span lines 2-3
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(10)]
        rows[0] = event_row("e0", "a1", "v1", "2010-05-01", city="New\nYork")
        rows[4] = event_row("ebad", "a1", "v1", "not-a-date")
        releases = [["a1", "maj", "2011"]] * 10
        releases[0] = ["a1\nb", "maj", "2011"]
        releases[4] = ["a1", "maj", "bad"]
        labels = [["maj", "Big\nFish", "", "1"], ["ind", "Indie", "", "0"], ["x", "X", "", "2"]]
        labels += [[f"l{i}", "L", "", "0"] for i in range(8)]
        c = parse_corpus(*corpus_files(rows, releases, labels))
        lines = {d["file"].rsplit("/", 1)[-1]: d["line"] for d in c.load_report.diagnostics}
        assert lines == {"events.csv": 7, "releases.csv": 7, "labels.csv": 5}

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("row", [3, 8])
    def test_non_utf8_events_name_the_line_of_the_first_bad_byte(self, corpus_files, quoted, row):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(10)]
        rows[8] = ["e8", "a1", "v1"]  # ragged records are checked too
        rows[row][1] = "a\udcff"  # written as the lone byte 0xff
        if row < 8:
            rows[9][1] = "a\udcfe"  # a later bad byte is not the one named
        paths = corpus_files([], [], LABELS)
        with open(paths[0], "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n",
                                quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
            writer.writerows([EVENT_HEADER, *rows])
        with pytest.raises(CorpusFormatError, match=f"events.csv: line {row + 2}: not UTF-8"):
            parse_corpus(*paths)

    @pytest.mark.parametrize("table, line", [("releases", 4), ("labels", 2)])
    def test_non_utf8_releases_and_labels_fail_naming_the_line(self, corpus_files, table, line):
        paths = corpus_files([event_row("e1", "a1", "v1", "2010-05-01")],
                             [["a1", "maj", "2011"]] * 3, LABELS)
        path = paths[1] if table == "releases" else paths[2]
        text = path.read_bytes().splitlines(keepends=True)
        text[line - 1] = text[line - 1].replace(b"a", b"\xe9", 1).replace(b"m", b"\xe9", 1)
        path.write_bytes(b"".join(text))
        with pytest.raises(CorpusFormatError, match=f"{table}.csv: line {line}: not UTF-8"):
            parse_corpus(*paths)

    def test_crlf_and_quoted_rewrites_load_as_the_plain_corpus(self, tmp_path):
        generate(GenSpec(n_artists=60, n_venues=30, seed=3), tmp_path / "plain")
        styles = {"plain": ("\n", csv.QUOTE_MINIMAL), "crlf": ("\r\n", csv.QUOTE_MINIMAL),
                  "quoted": ("\n", csv.QUOTE_ALL)}
        for d in ("crlf", "quoted"):
            (tmp_path / d).mkdir()
        for name in ("events.csv", "releases.csv", "labels.csv"):
            with open(tmp_path / "plain" / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            # a ragged record, a bad date and a blank line, to be rejected alike
            if name == "events.csv":
                rows[5] = rows[5][:4]
                rows[9][3] = "2010-13-01"
                rows[12] = []
            for d, (end, quoting) in styles.items():
                with open(tmp_path / d / name, "w", encoding="utf-8", newline="") as fh:
                    csv.writer(fh, lineterminator=end, quoting=quoting).writerows(rows)
        files = ("events.csv", "releases.csv", "labels.csv")
        parsed = {d: parse_corpus(*(tmp_path / d / f for f in files)) for d in styles}
        plain = parsed["plain"]
        assert plain.load_report.events_rejected == 3
        assert [d["line"] for d in plain.load_report.diagnostics] == [6, 10, 13]
        for other in (parsed["crlf"], parsed["quoted"]):
            for key in ("events", "releases", "labels"):
                assert plain.load_report.to_dict()[key] == other.load_report.to_dict()[key]
            assert (plain.artist_order, plain.venue_order, plain.cities) == (
                other.artist_order, other.venue_order, other.cities)
            for col in ("artist", "venue", "day", "city", "event_id"):
                assert np.array_equal(getattr(plain, col), getattr(other, col))

    def test_lone_cr_line_ends_split_records(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(3)]
        paths = corpus_files(rows, [], LABELS)
        # a CRLF after the header, old-Mac CR line ends after that
        header, body = paths[0].read_bytes().split(b"\n", 1)
        paths[0].write_bytes(header + b"\r\n" + body.replace(b"\n", b"\r"))
        c = parse_corpus(*paths)
        assert c.event_id.tolist() == ["e0", "e1", "e2"]

    def test_stray_quotes_read_as_csv_reader_reads_them(self, corpus_files):
        # lines csv.writer never writes, between lone CRs; the last record
        # ends inside a quote still open, which runs to the end of the file
        lines = [
            ",".join(EVENT_HEADER),
            'e1,a1,v1,2010-05-01,N"Y,NY,US,40.7,-74.0,',  # a quote inside an unquoted field
            'e2,a1,v1,2010-05-01,"N"Y,NY,US,40.7,-74.0,',  # text after the closing quote
            'e3,a1,v1,2010-05-01, "NY",NY,US,40.7,-74.0,',  # a space before the quote
            'e4,a1,v1,2010-05-01,"New York, NY",NY,US,40.7,-74.0,',
            'e5,a1,v1,2010-05-01,"a ""b""",NY,US,40.7,-74.0,',
            'e6,a1,v1,2010-05-01,"two\r\nlines",NY,US,40.7,-74.0,',  # lines 7 and 8
            "e7,a\0,v1,2010-05-01,NYC,NY,US,40.7,-74.0,",
            "e9,a1,v1,2010-13-01,NYC,NY,US,40.7,-74.0,",
            "e10,a1,v1,2010-05-02,NYC,NY,US,40.7,-74.0,",
            'e8,a,v1,2010-05-01,NYC,NY,US,40.7,-74.0,"5',
        ]
        paths = corpus_files([], [], LABELS)
        paths[0].write_bytes("\r".join(lines).encode("utf-8") + b"\n")
        c = parse_corpus(*paths)
        assert [(d["line"], d["reason"]) for d in c.load_report.diagnostics] == [
            (10, "unparseable date '2010-13-01'")]
        assert dict(zip(c.event_id.tolist(), (c.cities[i][0] for i in c.city.tolist()))) == {
            "e1": 'N"Y', "e2": "NY", "e3": ' "NY"', "e4": "New York, NY", "e5": 'a "b"',
            "e6": "two\r\nlines", "e7": "NYC", "e10": "NYC", "e8": "NYC"}
        assert c.artist_order == ("a", "a\0", "a1")

    def test_a_field_wider_than_the_file_allows_is_sorted_as_bytes(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(12)]
        rows[1] = event_row("e1", "a" * 500, "v1", "2010-05-01")
        rows.append(event_row("e12", "a0", "v1", "2010-13-01"))
        c = parse_corpus(*corpus_files(rows, [], LABELS))
        assert c.artist_order == ("a1", "a" * 500)
        assert c.artist.tolist() == [0] * 11 + [1]
        assert [(d["line"], d["reason"]) for d in c.load_report.diagnostics] == [
            (14, "unparseable date '2010-13-01'")]

    def test_ids_differing_by_a_trailing_nul_stay_distinct(self):
        day = dt.date(2010, 1, 1)
        c = make_corpus([("e1", "a", "v1", day), ("e2", "a\0", "v1", day)])
        assert c.artist_order == ("a", "a\0")
        assert c.artist.tolist() == [0, 1]

    @pytest.mark.parametrize("data, error", [
        (b"event_id,artist\ne1,\xff", "header mismatch"),
        (b'event_id,"artist"\ne1,\xff', "header mismatch"),
        (b"event_id,art\xffist\ne1,x", "line 1: not UTF-8"),
        (b'event_id,"art\xffist"\ne1,x', "line 1: not UTF-8"),
        (b'\xffevent_id,"artist"\ne1,x', "line 1: not UTF-8"),
    ])
    def test_both_splitters_check_a_whole_header_before_a_bad_byte(self, corpus_files, data,
                                                                   error):
        # quoted or not, a header that ends before the bad byte is checked first
        paths = corpus_files([], [], LABELS)
        paths[0].write_bytes(data)
        with pytest.raises(CorpusFormatError, match=f"events.csv: {error}"):
            parse_corpus(*paths)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_event_ids_read_back_as_str_from_either_splitter(self, corpus_files, quoted):
        rows = [event_row(f"\u00e9{i}", "a1", "v1", "2010-05-01") for i in range(10)]
        rows.append(event_row("\u00e91", "a1", "v1", "2010-05-02"))
        paths = corpus_files([], [], LABELS)
        paths[0].write_bytes(b"\xef\xbb\xbf")  # a BOM, read past quoted or not
        with open(paths[0], "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n",
                                quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
            writer.writerows([EVENT_HEADER, *rows])
        c = parse_corpus(*paths)
        assert c.event_id.tolist() == [f"\u00e9{i}" for i in range(10)]
        assert c.select(c.event >= 5).event_id.tolist() == [f"\u00e9{i}" for i in range(5, 10)]
        assert [d["reason"] for d in c.load_report.diagnostics] == [
            "duplicate event_id '\u00e91', first on line 3"]

    def test_an_id_cut_inside_a_character_is_not_utf8_when_the_next_id_ends_it(self,
                                                                               corpus_files):
        # 8 bytes ending in a lead byte fill their NUL-padded cell, and the
        # lone continuation byte sorts right after them
        rows = [event_row(f"A{i}", "a1", "v1", "2010-05-01") for i in range(10)]
        rows[4][0] = "abcdefg\udcc3"
        rows[6][0] = "\udca9"
        paths = corpus_files([], [], LABELS)
        with open(paths[0], "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([EVENT_HEADER, *rows])
        with pytest.raises(CorpusFormatError, match="events.csv: line 6: not UTF-8"):
            parse_corpus(*paths)

    def test_parse_peak_stays_near_the_file_size(self, tmp_path, monkeypatch):
        # the peak is the file's bytes, the int32 offsets of its commas and
        # a few arrays per record; a file-sized mask with an int64 copy of
        # the comma offsets would add about the file's size before the
        # first column is cut, and str objects per event id or int64 codes
        # per column would raise the peak after it
        generate(GenSpec(n_artists=500, n_venues=300, seed=1), tmp_path)
        path = tmp_path / "events.csv"
        size = path.stat().st_size
        # blocks far smaller than the file, as on a corpus of paper scale
        monkeypatch.setattr(ingest, "_BLOCK", 1 << 16)
        at_first_cut = []
        real = ingest._unique_fields

        def spy(*args):
            at_first_cut.append(tracemalloc.get_traced_memory()[1])
            return real(*args)

        monkeypatch.setattr(ingest, "_unique_fields", spy)
        tracemalloc.start()
        try:
            ingest._parse_events(path, ingest.LoadReport())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert at_first_cut[0] < 2.5 * size
        assert peak < 4.0 * size

    def test_non_ascii_parse_peak_stays_near_the_file_size(self, tmp_path, monkeypatch):
        # a character past U+00FF makes each str two bytes a character: a
        # whole-file decode would hold twice the file beside its bytes,
        # where the UTF-8 check decodes a block at a time
        generate(GenSpec(n_artists=500, n_venues=300, seed=1), tmp_path)
        path = tmp_path / "events.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[4] += "\u20ac"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        size = path.stat().st_size
        monkeypatch.setattr(ingest, "_BLOCK", 1 << 16)
        at_first_cut = []
        real = ingest._unique_fields

        def spy(*args):
            at_first_cut.append(tracemalloc.get_traced_memory()[1])
            return real(*args)

        monkeypatch.setattr(ingest, "_unique_fields", spy)
        tracemalloc.start()
        try:
            cities = ingest._parse_events(path, ingest.LoadReport())["cities"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(city.endswith("\u20ac") for city, _, _ in cities)
        assert at_first_cut[0] < 2.5 * size
        assert peak < 4.0 * size

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_a_character_cut_at_a_block_end_is_held_for_the_next(self, tmp_path, monkeypatch,
                                                                 block):
        # 2-, 3- and 4-byte characters in ids and cities, at every offset
        # from a block's end, in plain and all-quoted files
        chars = ["\u00e9", "\u20ac", "\U0001f600"]
        rows = [event_row(f"e{'x' * i}{c}", f"a{c * i}", f"v{i % 2}", "2010-05-01",
                          city=f"{c}{'y' * i}", country="\u00c5land")
                for i in range(8) for c in chars]
        releases = [[row[1], "maj", "2011"] for row in rows[3:6]]
        labels = [["maj", "Maj\u00f6r \u20ac", "", "1"]]
        for quoting, name in ((csv.QUOTE_MINIMAL, "plain"), (csv.QUOTE_ALL, "quoted")):
            d = tmp_path / name
            d.mkdir()
            with open(d / "events.csv", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(
                    [EVENT_HEADER, *rows])
            write_csv(d / "releases.csv", RELEASE_HEADER, releases)
            write_csv(d / "labels.csv", LABEL_HEADER, labels)
            paths = [d / "events.csv", d / "releases.csv", d / "labels.csv"]
            want = parse_corpus(*paths)
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_BLOCK", block)
                got = parse_corpus(*paths)
            assert got.load_report.to_dict() == want.load_report.to_dict()
            assert (got.artist_order, got.venue_order, got.cities, got.labels.ids) == (
                want.artist_order, want.venue_order, want.cities, want.labels.ids)
            assert got.event_id.tolist() == want.event_id.tolist()
            for col in ("artist", "venue", "day", "city", "release_artist", "release_label"):
                assert np.array_equal(getattr(got, col), getattr(want, col))
            assert sorted(got.event_id.tolist()) == sorted(row[0] for row in rows)
            assert [got.artist_order[i] for i in got.release_artist.tolist()] == [
                "a\u00e9", "a\u20ac", "a\U0001f600"]

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 1 << 20])
    @pytest.mark.parametrize("after", [b"", b"\ne6,a1,v1,2010-05-01,NYC,NY,US,40.7,-74.0,\n"],
                             ids=["at_the_end", "before_a_line_end"])
    def test_a_lone_lead_byte_names_its_line(self, corpus_files, monkeypatch, quoted, block,
                                             after):
        # the lead byte ends the file (no final newline), or a line end cuts
        # its character; with one-byte blocks the decoder holds it back when
        # the next block brings the error
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(5)]
        paths = corpus_files([], [], LABELS)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n",
                   quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL).writerows(
            [EVENT_HEADER, *rows])
        paths[0].write_bytes(out.getvalue().encode("utf-8") + b"e5,a1,v1,2010-05-01,NYC,NY,US,"
                             b"40.7,-74.0,\xc3" + after)
        monkeypatch.setattr(ingest, "_BLOCK", block)
        with pytest.raises(CorpusFormatError, match="events.csv: line 7: not UTF-8"):
            parse_corpus(*paths)

    def test_a_header_field_past_the_csv_field_limit_before_a_bad_byte(self, corpus_files):
        # no field has a length limit, so the header is read whole; it ends
        # before the bad byte's line, so the file fails on the header
        paths = corpus_files([], [], LABELS)
        paths[0].write_bytes(b"event_id," + b"a" * (csv.field_size_limit() + 1) + b"\ne1,\xff\n")
        with pytest.raises(CorpusFormatError, match="events.csv: header mismatch"):
            parse_corpus(*paths)

    def test_a_quoted_field_past_the_csv_field_limit_loads(self, corpus_files):
        # csv.reader stops at 131,072 characters a field; no file here has a limit
        long = "N" * (csv.field_size_limit() + 1)
        rows = [event_row(f"e{i}", "a1", "v1", "2010-05-01") for i in range(3)]
        rows[1][4] = long
        paths = corpus_files([], [], LABELS)
        with open(paths[0], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
                [EVENT_HEADER, *rows])
        c = parse_corpus(*paths)
        assert c.load_report.diagnostics == []
        assert c.cities == ((long, "NY", "US"), ("NYC", "NY", "US"))
        assert c.city.tolist() == [1, 0, 1]


def test_from_codes_keeps_tied_events_in_input_order():
    # events tying on (artist, day, event) keep their input order, which
    # an unstable sort of 3,000 rows in 12 runs would scramble; the venue
    # code is each event's input position
    rng = np.random.default_rng(0)
    n = 3000
    artist, event = rng.integers(0, 2, n), rng.integers(0, 2, n)
    day = 730_000 + rng.integers(0, 3, n)
    corpus = Corpus.from_codes(
        ("a0", "a1"), artist, tuple(f"v{i}" for i in range(n)), np.arange(n),
        (("NYC", "NY", "US"),), np.zeros(n, dtype=np.int64), day,
        np.array([b"e0", b"e1"], dtype=object), event, **NO_RELEASES,
    )
    want = sorted(range(n), key=lambda i: (artist[i], day[i], event[i]))
    assert corpus.venue.tolist() == want
    assert corpus.day.tolist() == day[want].tolist()


def test_select_takes_only_a_bool_mask_over_the_events():
    c = make_corpus([("e1", "a1", "v1", dt.date(2010, 1, 1)),
                     ("e2", "a2", "v1", dt.date(2010, 1, 2))])
    for keep, got in (([0, 1], "int64 array of shape (2,)"),
                      ([1], "int64 array of shape (1,)"),
                      ([True], "bool array of shape (1,)")):
        with pytest.raises(GigmineError) as exc:
            c.select(np.array(keep))
        assert str(exc.value) == f"keep must be a bool array of length 2, got {got}"
    assert c.select(np.array([False, True])).artist_order == ("a2",)


def test_a_select_peaks_near_what_it_keeps():
    # the columns a select cuts by mask are fresh arrays, frozen in place:
    # a copy of each would double the peak
    rng = np.random.default_rng(0)
    n, n_artists, n_venues = 50_000, 500, 300
    corpus = Corpus.from_codes(
        tuple(f"a{i}" for i in range(n_artists)), rng.integers(0, n_artists, n),
        tuple(f"v{i}" for i in range(n_venues)), rng.integers(0, n_venues, n),
        (("NYC", "NY", "US"),), np.zeros(n, dtype=np.int64), 730_000 + rng.integers(0, 3000, n),
        np.array([f"e{i}".encode() for i in range(n)], dtype=object), np.arange(n),
        **NO_RELEASES,
    )
    keep = rng.random(n) < 0.9
    tracemalloc.start()
    try:
        kept = corpus.select(keep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept.n_events == np.count_nonzero(keep)
    assert held > 5 * 8 * kept.n_events  # five columns of 8 bytes an event
    assert peak < 1.25 * held


def test_select_renumbers_the_releases_of_kept_artists(corpus_files):
    rows = [event_row(f"e{a}", a, "v1", "2010-01-01") for a in ("a1", "a2", "a3")]
    releases = [["a3", "maj", "2012-01-01"], ["zz", "maj", "2011-01-01"],
                ["a1", "ind", ""], ["a2", "nolabel", "2013-01-01"], ["a3", "ind", ""]]
    c = parse_corpus(*corpus_files(rows, releases, LABELS))
    assert c.release_artist.tolist() == [2, -1, 0, 1, 2]
    assert c.release_label.tolist() == [0, 0, 1, -1, 1]
    # a release of an artist without events counts until the first select
    assert c.sizes()["releases"] == 3
    kept = c.select(c.artist != 0)
    assert kept.artist_order == ("a2", "a3")
    assert kept.release_artist.tolist() == [1, 0, 1]
    assert kept.release_label.tolist() == [0, -1, 1]
    assert kept.release_day.tolist() == [dt.date(2012, 1, 1).toordinal(),
                                         dt.date(2013, 1, 1).toordinal(), NEVER]
    assert kept.sizes()["releases"] == 2
    for column in (kept.release_artist, kept.release_label, kept.release_day):
        assert not column.flags.writeable


class TestPostPlatformFilter:
    def test_artist_kept_only_if_earliest_event_after_cutoff(self, corpus_files):
        rows = [
            event_row("e1", "old", "v1", "2006-12-31"),
            event_row("e2", "old", "v1", "2010-01-01"),
            event_row("e3", "new", "v2", "2007-01-01"),
        ]
        c = filter_post_2007(parse_corpus(*corpus_files(rows, [], LABELS)))
        assert c.artist_order == ("new",)
        # venue v1 lost all events and dropped out
        assert c.venue_order == ("v2",)

    def test_releases_follow_their_artists(self, corpus_files):
        rows = [
            event_row("e1", "old", "v1", "2005-01-01"),
            event_row("e2", "new", "v1", "2009-01-01"),
        ]
        paths = corpus_files(
            rows, [["old", "maj", "2010-01-01"], ["new", "maj", "2010-01-01"]], LABELS
        )
        parsed = parse_corpus(*paths)
        assert parsed.artist_order == ("new", "old")
        assert parsed.release_artist.tolist() == [1, 0]
        c = filter_post_2007(parsed)
        # new keeps its release, renumbered to its index in the smaller order
        assert c.artist_order == ("new",)
        assert c.release_artist.tolist() == [0] and c.release_label.tolist() == [0]


class TestMinActivityFilter:
    def _corpus(self, corpus_files, rows):
        return parse_corpus(*corpus_files(rows, [], LABELS))

    def test_counts_only_pre_change_point_concerts_for_artists(self):
        events = [(f"e{i}", "a1", "v1", dt.date(2010, 1, i + 1)) for i in range(3)]
        events += [(f"p{i}", "a1", "v1", dt.date(2012, 1, i + 1)) for i in range(9)]
        # full history (12 events) passes with no change point
        kept = filter_min_activity(make_corpus(events), threshold=10)
        assert "a1" in kept.artist_order
        # 3 pre-change-point events fail the threshold
        signed = make_corpus(events, signings=[("a1", dt.date(2011, 1, 1))])
        assert filter_min_activity(signed, threshold=10).n_events == 0

    def test_venue_threshold_and_cascade(self, corpus_files):
        # v1 hosts 10 concerts by a1; v2 hosts 1 by a1 and 10 by a2;
        # a2's only other support comes from v2
        rows = [event_row(f"e{i}", "a1", "v1", f"2010-01-{i + 1:02d}") for i in range(10)]
        rows += [event_row("x", "a1", "v2", "2010-02-01")]
        rows += [event_row(f"y{i}", "a2", "v2", f"2010-03-{i + 1:02d}") for i in range(9)]
        c = self._corpus(corpus_files, rows)
        kept = filter_min_activity(c, threshold=10)
        # a2 has 9 concerts -> dropped; v2 then has 1 -> dropped; a1 keeps v1
        assert kept.artist_order == ("a1",)
        assert kept.venue_order == ("v1",)

    def test_single_pass_mode_stops_after_one_round(self, corpus_files):
        rows = [event_row(f"e{i}", "a1", "v1", f"2010-01-{i + 1:02d}") for i in range(10)]
        rows += [event_row(f"y{i}", "a2", "v1", f"2010-03-{i + 1:02d}") for i in range(5)]
        rows += [event_row(f"z{i}", "a2", "v2", f"2010-04-{i + 1:02d}") for i in range(5)]
        # a3 has 10 events, all at venues that die in round 1
        rows += [
            event_row(f"w{i}", "a3", f"v{3 + i % 2}", f"2010-05-{i + 1:02d}") for i in range(10)
        ]
        releases = [[a, "ind", "2011-01-01"] for a in ("a1", "a2", "a3")]
        c = parse_corpus(*corpus_files(rows, releases, LABELS))
        one_pass = filter_min_activity(c, threshold=10, recursive=False)
        # a2 (10 events but 5 per venue...) survives round 1; v2 (5) dies in round 1.
        assert "v2" not in one_pass.venue_order
        assert "a2" in one_pass.artist_order
        # a3 survives the round but keeps no event, so it leaves the corpus
        # and its release goes with it
        assert one_pass.artist_order == ("a1", "a2")
        assert one_pass.release_artist.tolist() == [0, 1]
        assert one_pass.sizes() == {"events": 15, "artists": 2, "venues": 1, "releases": 2}
        fixed = filter_min_activity(c, threshold=10, recursive=True)
        # recursively, losing v2 pulls a2 to 5 events -> dropped
        assert fixed.artist_order == ("a1",)


class TestRecursiveCoreFilter:
    def _brute_force(self, graph, k):
        """Remove-until-stable reference on (artists, venues, edges)."""
        edges = edges_of(graph)
        while True:
            count: dict = {}
            for (a, v), (events, _) in edges.items():
                count[a] = count.get(a, 0) + events
                count[v] = count.get(v, 0) + events
            dead = {n for n, c in count.items() if c < k}
            if not dead:
                break
            edges = {
                (a, v): i for (a, v), i in edges.items()
                if a not in dead and v not in dead
            }
        nodes = {n for pair in edges for n in pair}
        return {
            "artists": {a for a in graph.artist_order if a in nodes},
            "venues": {v for v in graph.venue_order if v in nodes},
            "edges": set(edges),
        }

    def _kept(self, corpus, k, events=None):
        """The kept artist and venue ids, and the graph of the kept nodes' masked events."""
        if events is None:
            events = np.ones(corpus.n_events, dtype=bool)
        artists, venues = recursive_core_filter(corpus, events, k=k)
        graph = build_graph(corpus.select(events & artists[corpus.artist] & venues[corpus.venue]))
        return kept_ids(corpus.artist_order, artists), kept_ids(corpus.venue_order, venues), graph

    def test_filters_on_event_counts_not_degree(self):
        # single edge with count 5 must survive k=5 despite degree 1
        _, _, kept = self._kept(triples_corpus([("a", "v", 2010)] * 5), k=5)
        assert ("a", "v") in edges_of(kept)

    def test_cascade_removal(self):
        # a2 depends on v2 which depends on a2: both fall once a2 drops
        events = [("a1", "v1", 2010)] * 5 + [("a2", "v1", 2010)] * 1
        events += [("a2", "v2", 2010)] * 3
        artists, venues, _ = self._kept(triples_corpus(events), k=5)
        assert artists == {"a1"}
        assert venues == {"v1"}

    def test_counts_only_the_masked_events(self):
        # a's 2016 events lie outside the mask, so a falls and v with it
        events = [("a", "v", 2010)] * 4 + [("a", "v", 2016)] * 5 + [("b", "w", 2010)] * 5
        corpus = triples_corpus(events)
        artists, venues, kept = self._kept(corpus, 5, corpus.year <= 2015)
        assert (artists, venues) == ({"b"}, {"w"})
        assert edges_of(kept) == {("b", "w"): (5, 2010)}

    def test_matches_brute_force_on_random_graphs(self):
        from oracles import random_bipartite

        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_bipartite(
                rng,
                int(rng.integers(3, 20)),
                int(rng.integers(3, 20)),
                float(rng.uniform(0.05, 0.35)),
            )
            k = int(rng.integers(2, 8))
            corpus = triples_corpus([(a, v, year) for (a, v), (count, year) in edges_of(g).items()
                                     for _ in range(count)])
            artists, venues, kept = self._kept(corpus, k)
            want = self._brute_force(g, k)
            assert artists == want["artists"]
            assert venues == want["venues"]
            assert set(edges_of(kept)) == want["edges"]

    def test_everything_survives_when_threshold_met(self):
        corpus = triples_corpus([("a", "v", 2010)] * 7)
        assert self._kept(corpus, k=5)[2] == build_graph(corpus)
