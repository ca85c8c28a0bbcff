import csv
import datetime as dt
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from oracles import mle_tail_exponent

from gigmine.errors import GigmineError
from gigmine.ingest import parse_corpus
from gigmine.labeling import NEVER, label_corpus
from gigmine.synth import GenSpec, generate


def read_corpus(out):
    return parse_corpus(out / "events.csv", out / "releases.csv", out / "labels.csv")


def events_of(corpus, artist, *columns):
    """The named columns of one artist's events, as lists in corpus order."""
    mine = corpus.artist == corpus.artist_order.index(artist)
    return [getattr(corpus, name)[mine].tolist() for name in columns]


class TestGenSpecValidation:
    def test_bad_sizes(self):
        with pytest.raises(GigmineError):
            GenSpec(n_artists=0)
        with pytest.raises(GigmineError):
            GenSpec(n_venues=0)

    def test_bad_fractions(self):
        with pytest.raises(GigmineError, match="positive_fraction"):
            GenSpec(positive_fraction=0.0)
        with pytest.raises(GigmineError, match="hub_fraction"):
            GenSpec(hub_fraction=1.0)

    def test_bad_tail_and_bias(self):
        with pytest.raises(GigmineError, match="exceed 1"):
            GenSpec(heavy_tail_exponent=1.0)
        with pytest.raises(GigmineError, match="bias"):
            GenSpec(success_venue_bias=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name", ["heavy_tail_exponent", "positive_fraction", "success_venue_bias", "hub_fraction"]
    )
    def test_non_finite_floats(self, name, value):
        # an infinite bias would write NaN into the manifest, and a NaN
        # exponent fail deep in numpy
        with pytest.raises(GigmineError, match=f"{name} must be finite, got {value}"):
            GenSpec(**{name: value})

    @pytest.mark.parametrize("name", ["n_artists", "n_venues", "seed", "min_events",
                                      "future_edge_count", "trajectory_artists",
                                      "route_artists"])
    def test_int_fields_take_only_ints(self, name):
        # a float passes the range checks and fails inside generate; a bool is no count
        for value in (1.5, 20.5, True, "3"):
            with pytest.raises(GigmineError, match=f"{name} must be an integer, got {value!r}"):
                GenSpec(**{name: value})

    def test_negative_seed(self):
        # numpy's generators take no negative seed
        with pytest.raises(GigmineError, match="seed must be at least 0, got -1"):
            GenSpec(seed=-1)

    def test_bad_years_and_counts(self):
        with pytest.raises(GigmineError, match="years"):
            GenSpec(years=(2017, 2008))
        for years in ((2008,), (2008, 2012, 2017), (2008.0, 2017), (True, 2017), 2008):
            with pytest.raises(GigmineError, match="years must be two integers"):
                GenSpec(years=years)
        with pytest.raises(GigmineError, match="negative"):
            GenSpec(future_edge_count=-1)
        with pytest.raises(GigmineError, match="min_events"):
            GenSpec(min_events=0)

    def test_too_many_special_artists(self, tmp_path):
        with pytest.raises(GigmineError, match="exceed"):
            generate(
                GenSpec(n_artists=10, trajectory_artists=6, route_artists=5), tmp_path
            )

    def test_route_needs_enough_venues(self, tmp_path):
        with pytest.raises(GigmineError, match="venues"):
            generate(GenSpec(n_artists=20, n_venues=5, route_artists=1), tmp_path)

    def test_future_edges_need_long_span(self, tmp_path):
        with pytest.raises(GigmineError, match="span"):
            generate(
                GenSpec(n_artists=50, years=(2013, 2017), future_edge_count=5), tmp_path
            )

    def test_positives_need_training_years(self, tmp_path):
        with pytest.raises(GigmineError, match="training years"):
            generate(GenSpec(n_artists=50, years=(2015, 2017)), tmp_path)

    def test_infeasible_future_edge_count(self, tmp_path):
        # 3 artists cannot supply 500 brand-new strong pairs
        with pytest.raises(GigmineError, match="future edges"):
            generate(
                GenSpec(
                    n_artists=3,
                    n_venues=5,
                    years=(2008, 2017),
                    positive_fraction=0.3,
                    future_edge_count=500,
                ),
                tmp_path,
            )


LABELS_SHA256 = "53955a7a8b2e890b20c5a32bb0c05e6e997595257ce36d7c6b502b9b2bc4489a"
# the benchmark's smaller corpus (perfbench/workloads.py CORPUS_S) at seed 1
CORPUS_S1 = dict(n_artists=2000, n_venues=800, future_edge_count=300, trajectory_artists=2,
                 route_artists=5, heavy_tail_exponent=3.0, seed=1)
PLANTED = dict(n_artists=300, n_venues=60, future_edge_count=20, trajectory_artists=2,
               route_artists=2, seed=3)


class TestDeterminismAndFormat:
    def test_identical_specs_byte_identical_files(self, tmp_path):
        spec = GenSpec(n_artists=40, n_venues=15, seed=9, min_events=5)
        a, b = tmp_path / "a", tmp_path / "b"
        generate(spec, a)
        generate(spec, b)
        for name in ("events.csv", "releases.csv", "labels.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "spec, events, releases, manifest",
        [
            (
                {},
                "58ecbf9911983fff0369270343a5634a1acc67b0c9c74eab008427c6946c7038",
                "c957cfefb3e00c23ff2e314892ca0924f27b3f163d01b863530df98b85b76373",
                "47eb022918aee79d28773b5444354c4c718b78474e81fb4d56c7fc04815c8da9",
            ),
            (
                CORPUS_S1,
                "aacc4504cf0053db6848b8bda89d2bf280f759315a61eeb8ac2012dd2c716ea5",
                "b6bce78700a76aca80995a53c2bd422da105543f7532c799ed65a292507488a0",
                "84a1ca51dd5f240ea7a3481abefd2e17a2864be1e9f9c9943d64254af93cac5a",
            ),
            (
                PLANTED,
                "fb73dfe07ae9aaf730c4f3fffbeec07178a1d3a5a674ad4c1e16fd9556b311d0",
                "69cb218626534c502ffd3973fb5179390bbadb30619bb3febf6ee3bf3c1503a0",
                "1431bdeb335099115e47b5801135f595c9fed26d7251c050bb0b0f32028d00ae",
            ),
        ],
        ids=["default", "corpus_s_seed1", "planted_seed3"],
    )
    def test_files_keep_their_pinned_bytes(self, tmp_path, spec, events, releases, manifest):
        # the seeded stream is the contract: every draw in the same order,
        # every file byte for byte
        returned = generate(GenSpec(**spec), tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("events.csv", "releases.csv", "labels.csv", "manifest.json")
        }
        assert digests == {
            "events.csv": events,
            "releases.csv": releases,
            "labels.csv": LABELS_SHA256,
            "manifest.json": manifest,
        }
        assert json.loads((tmp_path / "manifest.json").read_text()) == returned

    def test_events_are_csv_writer_bytes(self, tmp_path):
        # no field holds a comma, a quote or a line end, so csv.writer
        # quotes nothing and the file is its LF-terminated, unquoted output
        generate(GenSpec(**PLANTED), tmp_path)
        data = (tmp_path / "events.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        assert {len(row) for row in rows} == {10}
        again = io.StringIO(newline="")
        csv.writer(again, lineterminator="\n").writerows(rows)
        assert again.getvalue().encode("utf-8") == data
        assert b'"' not in data and b"\r" not in data

    def test_peak_memory_is_a_small_multiple_of_the_events_file(self, tmp_path):
        # events go to the file in blocks of lines and never exist as one
        # tuple or one str per field; a row-tuple build peaks near 8x
        tracemalloc.start()
        try:
            generate(GenSpec(n_artists=600, n_venues=200, future_edge_count=20,
                             trajectory_artists=2, route_artists=2, seed=1), tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * (tmp_path / "events.csv").stat().st_size

    def test_different_seed_different_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(GenSpec(n_artists=40, n_venues=15, seed=1, min_events=5), a)
        generate(GenSpec(n_artists=40, n_venues=15, seed=2, min_events=5), b)
        assert (a / "events.csv").read_bytes() != (b / "events.csv").read_bytes()

    def test_ingest_accepts_every_row(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=80,
                n_venues=25,
                seed=4,
                min_events=5,
                trajectory_artists=2,
                route_artists=1,
                future_edge_count=10,
            ),
            tmp_path,
        )
        corpus = read_corpus(tmp_path)
        report = corpus.load_report
        assert report.events_rejected == 0
        assert report.releases_rejected == 0
        assert report.labels_rejected == 0
        assert corpus.n_events == manifest["counts"]["events"]
        assert corpus.sizes()["artists"] == 80

    def test_manifest_matches_file(self, tmp_path):
        manifest = generate(GenSpec(n_artists=30, n_venues=12, seed=2, min_events=5), tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest


class TestPlantedLabels:
    def test_positive_count_and_change_points(self, tmp_path):
        manifest = generate(
            GenSpec(n_artists=60, n_venues=20, seed=5, positive_fraction=0.25, min_events=5),
            tmp_path,
        )
        assert len(manifest["planted_positives"]) == 15
        corpus = read_corpus(tmp_path)
        assert label_corpus(corpus)[1]["successful"] == 15
        days = dict(zip(corpus.artist_order, corpus.change_day.tolist()))
        positives = {a for a, day in days.items() if day != NEVER}
        assert positives == set(manifest["planted_positives"])
        for artist, cp in manifest["change_points"].items():
            assert days[artist] == dt.date.fromisoformat(cp).toordinal()

    def test_change_points_inside_training_years(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=60,
                n_venues=20,
                seed=6,
                years=(2008, 2017),
                future_edge_count=4,
                min_events=5,
            ),
            tmp_path,
        )
        for cp in manifest["change_points"].values():
            year = dt.date.fromisoformat(cp).year
            assert 2010 <= year <= manifest["train_end_year"] - 1


class TestPlantedStructure:
    def test_hub_rate_of_positives_pre_change_point(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=400,
                n_venues=50,
                seed=7,
                positive_fraction=0.2,
                success_venue_bias=3.0,
            ),
            tmp_path,
        )
        corpus = read_corpus(tmp_path)
        hubs = set(manifest["hub_venues"])
        cps = {
            a: dt.date.fromisoformat(s) for a, s in manifest["change_points"].items()
        }
        pre_venues = [
            corpus.venue_order[v]
            for a, cp in cps.items()
            for v, day in zip(*events_of(corpus, a, "venue", "day"))
            if day < cp.toordinal()
        ]
        n = len(pre_venues)
        in_hub = sum(v in hubs for v in pre_venues)
        p = manifest["expected_hub_rate_biased"]
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(in_hub - n * p) <= 3 * sigma
        assert manifest["expected_hub_rate_biased"] > manifest["expected_hub_rate_base"]

    def test_tail_exponent_recovered(self, tmp_path):
        import csv

        spec = GenSpec(
            n_artists=10_000,
            n_venues=50,
            seed=8,
            positive_fraction=0.001,
            heavy_tail_exponent=2.2,
            min_events=3,
        )
        manifest = generate(spec, tmp_path)
        positives = set(manifest["planted_positives"])
        per_artist: dict[str, int] = {}
        with open(tmp_path / "events.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                a = row["artist_id"]
                per_artist[a] = per_artist.get(a, 0) + 1
        counts = [
            c for a, c in per_artist.items()
            if a not in positives  # positives' counts are deliberately inflated
        ]
        gamma = mle_tail_exponent(np.asarray(counts, dtype=float), k_min=3)
        assert abs(gamma - 2.2) <= 0.3

    def test_trajectory_plan_matches_emitted_events(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=50,
                n_venues=20,
                seed=9,
                trajectory_artists=3,
                min_events=5,
            ),
            tmp_path,
        )
        corpus = read_corpus(tmp_path)
        assert len(manifest["trajectory_artists"]) == 3
        for artist, plan in manifest["trajectory_artists"].items():
            per_year: dict[int, int] = {}
            for year in events_of(corpus, artist, "year")[0]:
                per_year[year] = per_year.get(year, 0) + 1
            assert per_year == {int(y): c for y, c in plan.items()}
            ramp = [c for _, c in sorted(plan.items())]
            assert all(b > a for a, b in zip(ramp, ramp[1:]))

    def test_route_artists_walk_the_planted_route(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=40,
                n_venues=20,
                seed=10,
                route_artists=2,
                min_events=5,
            ),
            tmp_path,
        )
        corpus = read_corpus(tmp_path)
        route = manifest["planted_route"]
        assert len(route) == 5
        for artist in manifest["route_artists"]:
            # the corpus keeps each artist's events in (date, event_id) order
            cities = [corpus.cities[c][0] for c in events_of(corpus, artist, "city")[0]]
            assert len(cities) >= 100
            want = [route[t % 5] for t in range(len(cities))]
            assert cities == want

    def test_future_edges_are_new_pairs_past_cutoff(self, tmp_path):
        manifest = generate(
            GenSpec(
                n_artists=150,
                n_venues=40,
                seed=11,
                years=(2008, 2017),
                future_edge_count=15,
                min_events=8,
            ),
            tmp_path,
        )
        corpus = read_corpus(tmp_path)
        cutoff = manifest["train_end_year"]
        planted = {tuple(p) for p in manifest["planted_future_edges"]}
        assert len(planted) == 15
        pairs = [
            (corpus.artist_order[a], corpus.venue_order[v], year)
            for a, v, year in zip(corpus.artist.tolist(), corpus.venue.tolist(),
                                  corpus.year.tolist())
        ]
        train_pairs = {(a, v) for a, v, year in pairs if year <= cutoff}
        test_pairs = {(a, v) for a, v, year in pairs if year > cutoff}
        assert planted <= test_pairs
        assert not planted & train_pairs
        # every non-planted test pair already exists in training
        assert test_pairs - planted <= train_pairs
        assert manifest["test_years"] == [cutoff + 1, 2017]
