import datetime as dt

import numpy as np
import pytest

from conftest import event_row

from gigmine.errors import CycleError
from gigmine.ingest import parse_corpus
from gigmine.labeling import NEVER, LabelTable, label_corpus, major_closure


def table(nodes, majors=()):
    """LabelTable of {label id: parent id or None} in dict order; a parent not in ``nodes`` dangles."""
    ids = tuple(nodes)
    parent = [ids.index(p) if p in nodes else -1 for p in nodes.values()]
    return LabelTable(ids, np.array(parent, dtype=np.int64),
                      np.array([k in majors for k in ids], dtype=bool))


def closure(t) -> set:
    return {label_id for label_id, major in zip(t.ids, major_closure(t).tolist()) if major}


class TestAncestorChain:
    def test_walks_to_root(self, corpus_files):
        labels = [["leaf", "Leaf", "mid", "0"], ["mid", "Mid", "root", "0"],
                  ["root", "Root", "", "1"]]
        t = parse_corpus(*corpus_files([event_row("e1", "a1", "v1", "2010-01-01")], [],
                                       labels)).labels
        assert t.ids == ("leaf", "mid", "root")
        assert t.parent.tolist() == [1, 2, -1]
        assert t.major_root.tolist() == [False, False, True]
        assert major_closure(t).tolist() == [True, True, True]

    def test_stops_at_missing_parent(self, corpus_files):
        labels = [["leaf", "Leaf", "ghost", "0"], ["ghost2", "G", "", "1"]]
        c = parse_corpus(*corpus_files([event_row("e1", "a1", "v1", "2010-01-01")], [], labels))
        assert c.labels.parent.tolist() == [-1, -1]
        assert c.load_report.labels_dangling_parent == 1
        assert major_closure(c.labels).tolist() == [False, True]

    def test_cycle_raises_and_names_the_loop(self):
        t = table({"x": "b", "a": "b", "b": "c", "c": "a"})
        with pytest.raises(CycleError) as exc:
            major_closure(t)
        # the loop as the first label's chain enters it
        assert exc.value.cycle == ["b", "c", "a", "b"]

    def test_a_loop_through_every_label_is_found(self):
        # pointer doubling must not stop before the rounds cover the table
        for n in (1, 2, 3, 64, 65):
            t = table({f"l{i}": f"l{(i + 1) % n}" for i in range(n)}, majors={"l0"})
            with pytest.raises(CycleError) as exc:
                major_closure(t)
            assert exc.value.cycle == [f"l{i}" for i in range(n)] + ["l0"]


class TestMajorClosure:
    def test_subsidiaries_inherit_major_status(self):
        t = table(
            {"big": None, "sub": "big", "subsub": "sub", "indie": None, "ind2": "indie"},
            majors={"big"},
        )
        assert major_closure(t).dtype == bool
        assert closure(t) == {"big", "sub", "subsub"}

    def test_major_root_parent_is_not_dragged_in(self):
        # the root's own parent must be judged on its own chain, not
        # blanket-marked when the root is found
        t = table({"holding": None, "big": "holding", "sub": "big"}, majors={"big"})
        assert closure(t) == {"big", "sub"}

    def test_deep_chain_and_memoization_agree(self):
        n = 200
        nodes = {f"l{i}": f"l{i + 1}" for i in range(n)}
        nodes[f"l{n}"] = None
        t = table(nodes, majors={f"l{n}"})
        assert closure(t) == {f"l{i}" for i in range(n + 1)}
        # a root midway marks only the chain below it
        t = table(nodes, majors={"l100"})
        assert closure(t) == {f"l{i}" for i in range(101)}

    def test_dangling_parent_breaks_the_chain(self):
        t = table({"sub": "ghost", "big": None}, majors={"big"})
        assert closure(t) == {"big"}

    def test_cycle_raises(self):
        t = table({"m": None, "a": "b", "b": "a"}, majors={"m"})
        with pytest.raises(CycleError):
            major_closure(t)

    def test_empty_table(self):
        assert major_closure(table({})).tolist() == []


class TestChangePoint:
    LABELS = [["maj", "Maj", "", "1"], ["ind", "Ind", "", "0"]]

    def _change_day(self, corpus_files, releases):
        events = [event_row(f"e{a}", a, "v1", "2010-01-01") for a in ("a", "b")]
        corpus = parse_corpus(*corpus_files(events, releases, self.LABELS))
        assert corpus.artist_order == ("a", "b")
        return label_corpus(corpus)[0].tolist()

    def test_earliest_major_release_wins(self, corpus_files):
        releases = [
            ["a", "ind", "2009-01-01"],
            ["a", "maj", "2012-05-01"],
            ["b", "maj", "2010-07-01"],
            ["a", "maj", "2011-03-02"],
        ]
        days = self._change_day(corpus_files, releases)
        assert days == [dt.date(2011, 3, 2).toordinal(), dt.date(2010, 7, 1).toordinal()]

    def test_no_major_release_means_none(self, corpus_files):
        # "none" is the NEVER change day
        days = self._change_day(corpus_files, [["a", "ind", "2009-01-01"]])
        assert days == [NEVER, NEVER]


class TestLabelCorpus:
    LABELS = [
        ["big", "Big", "", "1"],
        ["sub", "Sub", "big", "0"],
        ["ind", "Ind", "", "0"],
    ]

    def _corpus(self, corpus_files, releases):
        events = [
            event_row("e1", "a1", "v1", "2010-01-01"),
            event_row("e2", "a2", "v1", "2010-02-01"),
            event_row("e3", "a3", "v1", "2010-03-01"),
        ]
        return parse_corpus(*corpus_files(events, releases, self.LABELS))

    def test_successful_iff_change_point(self, corpus_files):
        c = self._corpus(
            corpus_files,
            [
                ["a1", "sub", "2012-06-01"],
                ["a2", "ind", "2012-06-01"],
            ],
        )
        change_day, stats = label_corpus(c)
        assert c.artist_order == ("a1", "a2", "a3")
        assert change_day.tolist() == [dt.date(2012, 6, 1).toordinal(), NEVER, NEVER]
        assert stats["successful"] == 1 == int((change_day < NEVER).sum())
        assert stats["artists"] == 3
        assert stats["positive_rate"] == pytest.approx(1 / 3)

    def test_no_major_roots_means_all_negative(self, corpus_files):
        labels_file = [["ind", "Ind", "", "0"]]
        events = [event_row("e1", "a1", "v1", "2010-01-01")]
        c = parse_corpus(*corpus_files(events, [["a1", "ind", "2012-01-01"]], labels_file))
        change_day, stats = label_corpus(c)
        assert stats["successful"] == 0
        assert change_day.tolist() == [NEVER]

    def test_undated_major_only_artist_is_negative_and_counted(self, corpus_files):
        c = self._corpus(
            corpus_files,
            [
                ["a1", "big", ""],  # undated major: no anchor for a change point
                ["a2", "big", ""],
                ["a2", "big", "2013-01-01"],  # a2 also has a dated one
            ],
        )
        change_day, stats = label_corpus(c)
        assert change_day[0] == NEVER  # a1
        assert change_day[1] == dt.date(2013, 1, 1).toordinal()  # a2
        assert stats["undated_major_only_artists"] == 1

    def test_change_days_follow_artist_order(self, corpus_files):
        # a release of an artist without events labels no one
        c = self._corpus(corpus_files, [["a2", "big", "2012-06-01"], ["zz", "big", "2011-01-01"]])
        change_day, stats = label_corpus(c)
        assert change_day.dtype == np.int64
        assert dict(zip(c.artist_order, change_day.tolist())) == {
            "a1": NEVER, "a2": dt.date(2012, 6, 1).toordinal(), "a3": NEVER,
        }
        assert stats["successful"] == 1

    def test_releases_on_labels_missing_from_the_table_sign_no_one(self, corpus_files):
        c = self._corpus(corpus_files, [["a1", "gone", "2012-06-01"], ["a3", "gone", ""]])
        assert c.release_label.tolist() == [-1, -1]
        change_day, stats = label_corpus(c)
        assert change_day.tolist() == [NEVER] * 3
        assert stats["successful"] == stats["undated_major_only_artists"] == 0
        assert stats["major_labels"] == 2
