import datetime as dt
import tracemalloc

import numpy as np
import pytest

from conftest import event_row, make_corpus, sequences_of
from oracles import raw_ngram_counts

from gigmine.errors import GigmineError
from gigmine.ingest import parse_corpus
from gigmine.routes import (
    CitySequence,
    city_sequences,
    mine_routes,
)
from gigmine.synth import GenSpec, generate

A, B, C, D, E = (
    ("Albany", "NY", "US"),
    ("Boston", "MA", "US"),
    ("Chicago", "IL", "US"),
    ("Denver", "CO", "US"),
    ("Erie", "PA", "US"),
)


def seqs(*city_lists):
    return sequences_of(city_lists)


def corpus_of(*events):
    """Corpus of (event_id, artist, city, date) events, one venue per city."""
    return make_corpus([(e, a, f"v-{city}", date, city) for e, a, city, date in events])


def cities_of(sequences):
    return [(s.artist_id, s.cities) for s in sequences]


def collapsed(cities):
    """One artist's city sequence from events in the given city order."""
    day = dt.date(2010, 1, 1)
    events = [(f"e{i:03d}", "x", c, day + dt.timedelta(i)) for i, c in enumerate(cities)]
    return city_sequences(corpus_of(*events))[0].cities


class TestCollapse:
    def test_consecutive_repeats_drop(self):
        assert collapsed([A, A, B]) == (A, B)

    def test_nonconsecutive_repeats_stay(self):
        assert collapsed([A, B, A]) == (A, B, A)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        cities = [(f"c{i}", "", "US") for i in range(4)]
        for _ in range(20):
            raw = [cities[i] for i in rng.integers(0, 4, size=12)]
            once = collapsed(raw)
            assert collapsed(once) == once
            assert all(a != b for a, b in zip(once, once[1:]))

    def test_empty(self):
        assert city_sequences(corpus_of()) == []


class TestCitySequences:
    def test_ordered_by_date_then_event_id(self):
        out = city_sequences(corpus_of(
            ("e2", "x", B, dt.date(2010, 1, 5)),
            ("e3", "x", C, dt.date(2010, 1, 5)),
            ("e1", "x", A, dt.date(2010, 1, 1)),
        ))
        assert cities_of(out) == [("x", (A, B, C))]

    def test_same_city_different_state_is_distinct(self):
        springfield_il = ("Springfield", "IL", "US")
        springfield_ma = ("Springfield", "MA", "US")
        out = city_sequences(corpus_of(
            ("e1", "x", springfield_il, dt.date(2010, 1, 1)),
            ("e2", "x", springfield_ma, dt.date(2010, 1, 2)),
        ))
        assert len(out[0].cities) == 2

    def test_missing_state_normalizes_to_empty(self, corpus_files):
        rows = [event_row("e1", "x", "v1", "2010-01-01", city="Paris", state="", country="FR")]
        out = city_sequences(parse_corpus(*corpus_files(rows)))
        assert out[0].cities == (("Paris", "", "FR"),)

    def test_single_event_sequence(self):
        out = city_sequences(corpus_of(("e1", "x", A, dt.date(2010, 1, 1))))
        assert out[0].cities == (A,)

    def test_artists_sorted(self):
        out = city_sequences(corpus_of(
            ("e1", "zeta", A, dt.date(2010, 1, 1)),
            ("e2", "alpha", B, dt.date(2010, 1, 1)),
        ))
        assert [s.artist_id for s in out] == ["alpha", "zeta"]

    def test_repeats_collapse_within_an_artist_not_across(self):
        out = city_sequences(corpus_of(
            ("e1", "x", A, dt.date(2010, 1, 1)),
            ("e2", "x", A, dt.date(2010, 1, 2)),
            ("e3", "x", B, dt.date(2010, 1, 3)),
            ("e4", "y", B, dt.date(2010, 1, 1)),
            ("e5", "y", B, dt.date(2010, 1, 2)),
        ))
        assert cities_of(out) == [("x", (A, B)), ("y", (B,))]


class TestMineRoutes:
    def test_single_pass_counts_once(self):
        routes = mine_routes(seqs([A, B, C, D]), n_values=(4,))
        assert len(routes[4]) == 1
        rc = routes[4][0]
        assert rc.route == (A, B, C, D)
        assert rc.count == 1
        assert not rc.bidirectional

    def test_forward_and_reverse_merge(self):
        routes = mine_routes(seqs([A, B, C, D], [D, C, B, A]), n_values=(4,))
        assert len(routes[4]) == 1
        rc = routes[4][0]
        assert rc.route == (A, B, C, D)  # lexicographically smaller orientation
        assert rc.count == 2
        assert rc.bidirectional

    def test_palindrome_counted_once_not_bidirectional(self):
        routes = mine_routes(seqs([A, B, B, A]) + seqs([A, B, A, B]), n_values=(4,))
        pal = [rc for rc in routes[4] if rc.route == (A, B, B, A)]
        assert len(pal) == 1
        assert pal[0].count == 1
        assert not pal[0].bidirectional

    def test_overlapping_ngrams_within_one_sequence(self):
        routes = mine_routes(seqs([A, B, C, D, E]), n_values=(4,))
        assert {rc.route for rc in routes[4]} == {(A, B, C, D), (B, C, D, E)}
        routes5 = mine_routes(seqs([A, B, C, D, E]), n_values=(5,))
        assert routes5[5][0].route == (A, B, C, D, E)

    def test_short_sequences_contribute_nothing(self):
        routes = mine_routes(seqs([A, B, C]), n_values=(4, 5))
        assert routes[4] == []
        assert routes[5] == []

    def test_ranking_by_count_then_route(self):
        data = seqs([A, B, C, D], [A, B, C, D], [B, C, D, E])
        routes = mine_routes(data, n_values=(4,))
        assert [rc.route for rc in routes[4]] == [(A, B, C, D), (B, C, D, E)]
        tied = mine_routes(seqs([A, B, C, D], [B, C, D, E]), n_values=(4,))
        assert [rc.route for rc in tied[4]] == [(A, B, C, D), (B, C, D, E)]

    def test_top_k_cuts_after_ranking(self):
        data = seqs([A, B, C, D], [A, B, C, D], [B, C, D, E])
        routes = mine_routes(data, n_values=(4,), top_k=1)
        assert len(routes[4]) == 1
        assert routes[4][0].route == (A, B, C, D)

    def test_counts_match_raw_ngram_oracle(self):
        rng = np.random.default_rng(5)
        cities = [(f"c{i}", "", "US") for i in range(6)]
        sequences = []
        for _ in range(30):
            length = int(rng.integers(4, 12))
            walk = [cities[i] for i in rng.integers(0, 6, size=length)]
            sequences.append(walk)
        sequences = sequences_of(sequences)
        for n in (4, 5):
            raw = raw_ngram_counts([s.cities for s in sequences], n)
            mined = {rc.route: rc for rc in mine_routes(sequences, n_values=(n,))[n]}
            for route, rc in mined.items():
                rev = route[::-1]
                want = raw.get(route, 0) + (raw.get(rev, 0) if rev != route else 0)
                assert rc.count == want
                assert route <= rev
                if rev != route:
                    assert rc.bidirectional == (
                        raw.get(route, 0) > 0 and raw.get(rev, 0) > 0
                    )
            # every raw gram is represented by its canonical orientation
            for gram in raw:
                assert min(gram, gram[::-1]) in mined

    def test_reversing_every_sequence_changes_nothing(self):
        rng = np.random.default_rng(6)
        cities = [(f"c{i}", "", "US") for i in range(5)]
        sequences = []
        for _ in range(20):
            walk = [cities[i] for i in rng.integers(0, 5, size=10)]
            sequences.append(walk)
        sequences = sequences_of(sequences)
        flipped = [CitySequence(s.artist_id, s.codes[::-1], s.table) for s in sequences]
        assert mine_routes(sequences) == mine_routes(flipped)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GigmineError, match="positive"):
            mine_routes(seqs([A, B, A]), n_values=(4, 0))

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(GigmineError, match=f"top_k must be at least 1, got {top_k}"):
            mine_routes(seqs([A, B, C, A]), n_values=(2,), top_k=top_k)

    def test_sequences_over_different_tables_rejected(self):
        with pytest.raises(GigmineError, match="city tables"):
            mine_routes(seqs([A, B, C, D]) + seqs([B, C, D, E]))


def test_mine_routes_peak_stays_near_the_codes_size(tmp_path):
    # the n-grams are keyed one column at a time, so the peak is a few
    # arrays per n-gram (about 10x the codes' bytes); four (n-grams x n)
    # int64 arrays alive at once would take it to about 30x
    generate(GenSpec(n_artists=500, n_venues=300, seed=1), tmp_path)
    corpus = parse_corpus(*(tmp_path / f for f in ("events.csv", "releases.csv", "labels.csv")))
    sequences = city_sequences(corpus)
    codes_bytes = sum(s.codes.nbytes for s in sequences)
    tracemalloc.start()
    try:
        mine_routes(sequences, top_k=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * codes_bytes
