import datetime as dt

import numpy as np
import pytest

from conftest import event_row

from gigmine.errors import CycleError
from gigmine.ingest import parse_corpus
from gigmine.labeling import NEVER, LabelNode, LabelTree, label_corpus, major_closure


def tree(nodes, majors=()):
    return LabelTree(
        nodes={k: LabelNode(name=k, parent=p) for k, p in nodes.items()},
        major_roots=frozenset(majors),
    )


class TestAncestorChain:
    def test_walks_to_root(self):
        t = tree({"leaf": "mid", "mid": "root", "root": None})
        assert t.ancestor_chain("leaf") == ["leaf", "mid", "root"]

    def test_stops_at_missing_parent(self):
        t = tree({"leaf": "ghost"})
        assert t.ancestor_chain("leaf") == ["leaf"]

    def test_unknown_start_is_empty(self):
        t = tree({"a": None})
        assert t.ancestor_chain("nope") == []

    def test_cycle_raises_and_names_the_loop(self):
        t = tree({"a": "b", "b": "c", "c": "a"})
        with pytest.raises(CycleError) as exc:
            t.ancestor_chain("a")
        assert set(exc.value.cycle) == {"a", "b", "c"}


class TestMajorClosure:
    def test_subsidiaries_inherit_major_status(self):
        t = tree(
            {"big": None, "sub": "big", "subsub": "sub", "indie": None, "ind2": "indie"},
            majors={"big"},
        )
        assert major_closure(t) == {"big", "sub", "subsub"}

    def test_major_root_parent_is_not_dragged_in(self):
        # the root's own parent must be judged on its own chain, not
        # blanket-marked when the root is found
        t = tree({"holding": None, "big": "holding", "sub": "big"}, majors={"big"})
        closure = major_closure(t)
        assert "holding" not in closure
        assert closure == {"big", "sub"}

    def test_deep_chain_and_memoization_agree(self):
        n = 200
        nodes = {f"l{i}": f"l{i + 1}" for i in range(n)}
        nodes[f"l{n}"] = None
        t = tree(nodes, majors={f"l{n}"})
        closure = major_closure(t)
        assert closure == {f"l{i}" for i in range(n + 1)}

    def test_flagged_roots_missing_from_table_still_count(self):
        t = tree({"a": None}, majors={"phantom"})
        assert "phantom" in major_closure(t)

    def test_dangling_parent_breaks_the_chain(self):
        t = tree({"sub": "ghost"}, majors={"big"})
        assert major_closure(t) == {"big"}

    def test_cycle_raises(self):
        t = tree({"a": "b", "b": "a"}, majors={"m"})
        with pytest.raises(CycleError):
            major_closure(t)


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
