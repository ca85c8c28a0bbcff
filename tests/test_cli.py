import csv
import io
import json
from unittest import mock

import numpy as np
import pytest

from gigmine.birank import ScoreView, WindowRanking, dense_rank
from gigmine import cli
from gigmine.cli import _write_trajectories, main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """One shared synthetic corpus generated through the CLI itself."""
    out = tmp_path_factory.mktemp("clicorpus")
    cfg = {
        "synth": {
            "n_artists": 100,
            "n_venues": 40,
            "years": [2008, 2017],
            "min_events": 8,
            "future_edge_count": 10,
            "trajectory_artists": 1,
            "route_artists": 1,
        }
    }
    cfg_file = out / "genspec.json"
    cfg_file.write_text(json.dumps(cfg))
    code = main(["synth", "--config", str(cfg_file), "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


def base_config(corpus_dir, **extra):
    cfg = {
        "corpus": {"dir": str(corpus_dir)},
        "preprocess": {"activity_threshold": 5},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestSynthHandoff:
    def test_stdout_config_pipes_into_task1(self, tmp_path, capsys, monkeypatch):
        capsys.readouterr()  # drain output from fixtures
        code = main(["synth", "--config", write_config(
            tmp_path,
            {"synth": {"n_artists": 50, "n_venues": 20, "min_events": 6,
                       "positive_fraction": 0.2}},
        ), "--seed", "2", "--out", str(tmp_path / "corpus")])
        assert code == 0
        handoff = json.loads(capsys.readouterr().out)
        assert handoff["corpus"]["dir"] == str(tmp_path / "corpus")
        assert "task2" not in handoff  # no future edges planted

        handoff["preprocess"] = {"activity_threshold": 5}
        handoff["task1"] = {"n_splits": 2, "cv_folds": 2, "c_grid": [1.0], "k_grid": [4]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(handoff)))
        code = main(["task1", "--config", "-", "--out", str(tmp_path / "t1")])
        assert code == 0
        report = json.loads((tmp_path / "t1" / "task1-report.json").read_text())
        assert report["task"] == "forecasting"
        assert set(report["models"]) == {"baseline", "logreg", "logreg_svd"}

    def test_future_edges_advertise_task2_block(self, tmp_path, capsys):
        capsys.readouterr()
        code = main(["synth", "--config", write_config(
            tmp_path,
            {"synth": {"n_artists": 100, "n_venues": 40, "min_events": 8,
                       "future_edge_count": 10}},
        ), "--seed", "5", "--out", str(tmp_path / "c2")])
        assert code == 0
        handoff = json.loads(capsys.readouterr().out)
        assert handoff["task2"] == {
            "train_end_year": 2015,
            "test_years": [2016, 2017],
        }


class TestTask1:
    def test_rank_grid_above_every_fold_cap(self, corpus_dir, tmp_path):
        # half of the artists train; the smallest fold fits on 33 of them, below
        # the 40 venues, so rank 1000 falls back to 33 on every fold
        t1 = {"n_splits": 1, "test_fraction": 0.5, "cv_folds": 3, "c_grid": [1.0], "k_grid": [1000]}
        cfg = write_config(tmp_path, base_config(corpus_dir, task1=t1))
        code = main(["task1", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "task1-report.json").read_text())
        assert report["n_venues"] == 40
        assert [(s["svd_k"], s["svd_solver"]) for s in report["selected"]] == [(33, "lapack")]


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"corpux": {}})
        code = main(["stats", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config key: corpux" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task1": {"modee": "count"}})
        code = main(["stats", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config key: task1.modee" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"corpus": {"dir": str(tmp_path / "nowhere")}})
        code = main(["stats", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus file not found" in err
        assert "nowhere" in err

    def test_non_utf8_corpus_is_reported_not_raised(self, corpus_dir, tmp_path, capsys):
        for name in ("events.csv", "releases.csv", "labels.csv"):
            (tmp_path / name).write_bytes((corpus_dir / name).read_bytes())
        lines = (tmp_path / "events.csv").read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        (tmp_path / "events.csv").write_bytes(b"\n".join(lines))
        cfg = write_config(tmp_path, {"corpus": {"dir": str(tmp_path)}})
        code = main(["stats", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "events.csv: line 3: not UTF-8" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["stats", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["stats", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, code, message", [
        ("config is a directory", 2, "cannot read config file {target}: Is a directory"),
        ("config is not UTF-8", 2, "config file {target} is not UTF-8"),
        ("out is a file", 1, "File exists: '{target}'"),
    ], ids=["config-dir", "config-not-utf8", "out-file"])
    def test_unreadable_config_or_unwritable_out_is_reported_not_raised(
        self, corpus_dir, tmp_path, capsys, bad, code, message
    ):
        target = tmp_path / "target"
        cfg, out = str(target), tmp_path / "out"
        if bad == "config is a directory":
            target.mkdir()
        elif bad == "config is not UTF-8":
            target.write_bytes(b'{"seed": "\xff"}')
        else:
            target.write_text("a file, not a directory")
            cfg, out = write_config(tmp_path, base_config(corpus_dir)), target
        assert main(["stats", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("gigmine: ")
        assert message.format(target=target) in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_finite_constant_is_not_json(self, corpus_dir, tmp_path, capsys, monkeypatch,
                                            constant, source):
        # Python's json reads these; a NaN threshold would otherwise run task1
        # to all-zero metrics and write NaN into the report
        text = json.dumps(base_config(corpus_dir))[:-1] + f', "task1": {{"threshold": {constant}}}}}'
        if source == "file":
            cfg = tmp_path / "config.json"
            cfg.write_text(text)
            where = f"config file {cfg}"
        else:
            cfg = "-"
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            where = "config on stdin"
        code = main(["task1", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{where} is not valid JSON: {constant} is not a JSON number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code = main(["stats", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_runtime_failure_maps_to_one(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            base_config(corpus_dir, task2={"test_years": [2030], "predictors": ["jaccard"]}),
        )
        code = main(["task2", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "no new" in capsys.readouterr().err

    def test_degenerate_embedding_setting_maps_to_one(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            base_config(corpus_dir, task2={"predictors": ["embedding"], "embed_epochs": 0}),
        )
        code = main(["task2", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "epochs must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value, minimum",
        [
            ("task3", "top_k", -3, 1),
            ("task3", "window_years", 0, 1),
            ("task3", "bins", 0, 1),
            ("routes", "top_k", -1, 1),
            ("task1", "cv_folds", 1, 2),
            ("task2", "core_k", 0, 1),
            ("task2", "core_k", -3, 1),
        ],
    )
    def test_degenerate_task_setting_maps_to_one(
        self, corpus_dir, tmp_path, capsys, command, key, value, minimum
    ):
        cfg = write_config(tmp_path, base_config(corpus_dir, **{command: {key: value}}))
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert f"{key} must be at least {minimum}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, grid, value", [("c_grid", [1.0, 10.0, 1.0], "1.0"),
                                                  ("k_grid", [500, 500], "500")])
    def test_repeated_grid_value_maps_to_one(self, corpus_dir, tmp_path, capsys, key, grid, value):
        cfg = write_config(tmp_path, base_config(corpus_dir, task1={key: grid}))
        code = main(["task1", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert f"{key} lists {value} more than once" in capsys.readouterr().err
        assert not (tmp_path / "task1-report.json").exists()

    @pytest.mark.parametrize(
        "command, section, message",
        [
            ("task3", {"bins": None}, "task3.bins must be an integer, got null"),
            ("task3", {"top_k": 2.5}, "task3.top_k must be an integer, got 2.5"),
            ("routes", {"n_values": [2.5]}, "routes.n_values[] must be an integer, got 2.5"),
            ("task1", {"cv_folds": "3"}, 'task1.cv_folds must be an integer, got "3"'),
            ("task3", {"count_scaled": 1}, "task3.count_scaled must be true or false, got 1"),
            ("task2", {"svd_k": True}, "task2.svd_k must be an integer, got true"),
            ("task3", {"alpha": "0.5"}, 'task3.alpha must be a number, got "0.5"'),
            ("routes", {"n_values": 4}, "routes.n_values must be a list, got 4"),
            ("task2", {"predictors": ["svd", 3]}, "task2.predictors[] must be a string, got 3"),
        ],
    )
    def test_wrongly_typed_config_value_is_usage_error(
        self, corpus_dir, tmp_path, capsys, command, section, message
    ):
        cfg = write_config(tmp_path, base_config(corpus_dir, **{command: section}))
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert f"gigmine: config key {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, flags, message",
        [
            ("task1", {"preprocess": {"cutoff": "2007-13-01"}}, [],
             "preprocess.cutoff must be an ISO date such as 2007-01-01, got '2007-13-01'"),
            ("ingest", {"preprocess": {"cutoff": "2007"}}, [],
             "preprocess.cutoff must be an ISO date such as 2007-01-01, got '2007'"),
            ("task2", {"preprocess": {"cutoff": "garbage"}}, [],
             "preprocess.cutoff must be an ISO date such as 2007-01-01, got 'garbage'"),
            ("synth", {"seed": -1}, [], "seed must be at least 0, got -1"),
            ("task1", {"seed": -1}, [], "seed must be at least 0, got -1"),
            ("synth", {}, ["--seed", "-1"], "seed must be at least 0, got -1"),
            ("task1", {"seed": 3}, ["--seed", "-1"], "seed must be at least 0, got -1"),
        ],
    )
    def test_bad_cutoff_or_negative_seed_is_usage_error(
        self, corpus_dir, tmp_path, capsys, monkeypatch, command, config, flags, message
    ):
        # rejected with the config, before any corpus is read or written
        monkeypatch.setattr(cli, "parse_corpus", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(cli, "generate", mock.Mock(side_effect=AssertionError))
        cfg = write_config(tmp_path, base_config(corpus_dir, **config))
        code = main([command, "--config", cfg, *flags, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"gigmine: config key {message}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("predictors", [], "predictors must name at least one predictor"),
        ("n_random_splits", 0, "n_random_splits must be at least 1, got 0"),
        ("core_k", -3, "core_k must be at least 1, got -3"),
        ("svd_k", 0, "svd_k must be at least 1, got 0"),
        ("walks_per_node", 0, "walks_per_node must be at least 1, got 0"),
        ("walk_length", -1, "walk_length must be at least 1, got -1"),
        ("embed_dim", 0, "embed_dim must be at least 1, got 0"),
        ("embed_window", 0, "embed_window must be at least 1, got 0"),
        ("embed_epochs", 0, "embed_epochs must be at least 1, got 0"),
        ("train_end_year", 2016, "train_end_year 2016 must precede test years [2016, 2017]"),
        ("hidden_fraction", 1.5, "hidden_fraction must lie in (0, 1), got 1.5"),
        ("neg_multiple", -1, "neg_multiple and neg_floor must be at least 0 and not both 0, "
                             "got -1 and 100000"),
        ("neg_floor", -5, "neg_multiple and neg_floor must be at least 0 and not both 0, "
                          "got 10 and -5"),
    ])
    def test_bad_task2_setting_fails_before_the_corpus_loads(
        self, corpus_dir, tmp_path, capsys, monkeypatch, key, value, message
    ):
        monkeypatch.setattr(cli, "parse_corpus", mock.Mock(side_effect=AssertionError))
        cfg = write_config(tmp_path, base_config(corpus_dir, task2={key: value}))
        code = main(["task2", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"gigmine: {message}\n"

    @pytest.mark.parametrize("years", [[2008], [2008, 2012, 2017]])
    def test_synth_years_of_the_wrong_length_maps_to_one(self, tmp_path, capsys, years):
        cfg = write_config(tmp_path, {"synth": {"years": years}})
        code = main(["synth", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"gigmine: years must be two integers (first, last), got {tuple(years)!r}"
        )

    @pytest.mark.parametrize("command", ["task3", "routes"])
    def test_null_top_k_keeps_everything(self, corpus_dir, tmp_path, command):
        cfg = write_config(tmp_path, base_config(corpus_dir, **{command: {"top_k": None}}))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_integer_for_a_float_key_is_accepted(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, base_config(corpus_dir, task3={"alpha": 1, "bins": 5}))
        assert main(["task3", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gigmine" in capsys.readouterr().out


class TestReports:
    def test_ingest_report_stages(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, base_config(corpus_dir))
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "ingest-report.json").read_text())
        assert report["version"].startswith("gigmine 0.1.0")
        assert "generated_at" in report
        assert report["config"]["preprocess"]["activity_threshold"] == 5
        stages = report["stages"]
        assert set(stages) == {"parsed", "post_platform_filter", "min_activity_filter"}
        assert report["load"]["events"]["rejected"] == 0
        assert report["final"]["artists"] <= stages["parsed"]["artists"]

    def test_stats_report_counts(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        cfg = write_config(tmp_path, {"corpus": {"dir": str(corpus_dir)}})
        assert main(["stats", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "stats-report.json").read_text())
        assert report["concerts"] == manifest["counts"]["events"]
        assert report["artists"] == 100
        assert report["year_span"] == [2008, 2017]
        assert report["major_roots"] == 1

    def test_task2_report_and_planted_recovery(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        cfg = write_config(
            tmp_path,
            base_config(
                corpus_dir,
                task2={
                    "predictors": ["common_neighbors", "jaccard",
                                   "preferential_attachment", "svd", "embedding"],
                    "n_random_splits": 2,
                    "svd_k": 10,
                    "neg_floor": 300,
                    "walks_per_node": 5,
                    "walk_length": 5,
                    "embed_dim": 8,
                    "embed_epochs": 1,
                },
            ),
        )
        assert main(["task2", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "task2-report.json").read_text())
        assert report["split"]["test_positives"] == len(manifest["planted_future_edges"])
        assert set(report["forecasting"]) == {
            "common_neighbors", "jaccard", "preferential_attachment", "svd", "embedding",
        }
        for block in report["prediction"].values():
            assert len(block["per_split"]) == 2
        fits = report["fits"]
        assert len(fits["prediction"]) == 2
        for fit in [fits["forecasting"], *fits["prediction"]]:
            assert fit["svd_solver"] in ("arpack", "lapack")
            assert len(fit["embedding_loss"]) == 1  # embed_epochs

    def test_task3_reports_and_trajectory_csv(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, base_config(corpus_dir))
        assert main(["task3", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "task3-report.json").read_text())
        assert report["converged"]
        assert report["ref_year"] == 2017
        assert len(report["top_artists"]) <= 20
        hist = report["histogram"]
        assert sum(hist["signed"]) == pytest.approx(1.0)
        with open(tmp_path / "task3-trajectories.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["artist_id", "year", "rank", "score"]
        assert len(rows) > 1
        years = {int(r[1]) for r in rows[1:]}
        assert years == set(report["trajectory_years"])
        assert all(int(r[2]) >= 1 for r in rows[1:])
        windows = report["trajectory_convergence"]
        assert [w["year"] for w in windows] == report["trajectory_years"]
        assert all(w["converged"] and w["iterations"] >= 1 for w in windows)

    @pytest.mark.parametrize("signs", ["no artist", "every artist"])
    def test_task3_without_both_classes_writes_no_histogram(
        self, corpus_dir, tmp_path, caplog, signs
    ):
        # the corpus again with no major root, or with a 2030 major-label
        # release for every artist: the filters keep the same artists and
        # events, and only the histogram needs both classes
        tables = {}
        for name in ("events", "releases", "labels"):
            with open(corpus_dir / f"{name}.csv", encoding="utf-8", newline="") as fh:
                tables[name] = list(csv.reader(fh))
        header, *labels = tables["labels"]
        if signs == "no artist":
            tables["labels"] = [header, *([*row[:3], "0"] for row in labels)]
        else:
            major = next(row[0] for row in labels if row[3] == "1")
            artists = dict.fromkeys(row[1] for row in tables["events"][1:])
            tables["releases"] += [[a, major, "2030-01-01"] for a in artists]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, rows in tables.items():
            with open(corpus / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        both, one = tmp_path / "both", tmp_path / "one"
        for data, out in ((corpus_dir, both), (corpus, one)):
            cfg = write_config(tmp_path, base_config(data))
            assert main(["task3", "--config", cfg, "--out", str(out)]) == 0
        reports = [json.loads((out / "task3-report.json").read_text()) for out in (both, one)]
        n = reports[1]["labeling"]["artists"]
        signed = 0 if signs == "no artist" else n
        assert reports[1]["histogram"] is None and reports[1]["labeling"]["successful"] == signed
        assert f"no score histogram: {signed} of {n} artists sign" in caplog.text
        for key in ("top_artists", "top_venues", "trajectory_years", "trajectory_convergence"):
            assert reports[1][key] == reports[0][key]
        assert (one / "task3-trajectories.csv").read_bytes() == \
            (both / "task3-trajectories.csv").read_bytes()

    def test_trajectory_csv_equals_csv_writer_over_ranked(self, tmp_path):
        # ids csv.writer must quote, tied scores and one-window-only artists
        ids = ("a,1", 'b"2', "c\r\n3", "d\r4", "plain", "\u00fcber")

        def window(order, scores, iterations, converged):
            view = ScoreView(order, np.array(scores))
            return WindowRanking(view, dense_rank(view.array), iterations, converged)

        windows = {
            2012: window(ids, [0.5, 0.25, 0.5, 1 / 3, 0.125, 0.25], 3, True),
            2011: window(("plain", "x"), [2e-12, 7.0], 1, False),
        }
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["artist_id", "year", "rank", "score"])
        for year in sorted(windows):
            w = windows[year]
            ranks, scores = w.ranks.tolist(), w.scores.array.tolist()
            # by rank, ties in the window's order
            for i in sorted(range(len(ranks)), key=lambda i: (ranks[i], i)):
                writer.writerow([w.scores.order[i], year, ranks[i], f"{scores[i]:.10g}"])
        _write_trajectories(tmp_path / "t.csv", windows)
        assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode("utf-8")

    def test_routes_csv_and_planted_route(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        cfg = write_config(tmp_path, base_config(corpus_dir))
        assert main(["routes", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "routes-report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "rank", "route", "count", "bidirectional"]
        top4 = next(r for r in rows[1:] if r[0] == "4" and r[1] == "1")
        planted = manifest["planted_route"]
        stops = top4[2].split("|")
        assert all(stop.endswith(", RR") for stop in stops)
        assert [s.split(",")[0] for s in stops] == planted[:4] or [
            s.split(",")[0] for s in stops
        ] == planted[:4][::-1]
        report = json.loads((tmp_path / "routes-report.json").read_text())
        assert set(report["routes"]) == {"4", "5"}

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"synth": {"n_artists": 30, "n_venues": 12, "min_events": 5}}
        )
        assert main(["synth", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "s7")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "s7" / "manifest.json").read_text())
        assert manifest["spec"]["seed"] == 7

    def test_reruns_identical_up_to_timestamp(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, base_config(corpus_dir))
        assert main(["routes", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["routes", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        a = json.loads((tmp_path / "r1" / "routes-report.json").read_text())
        b = json.loads((tmp_path / "r2" / "routes-report.json").read_text())
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b
        csv_a = (tmp_path / "r1" / "routes-report.csv").read_bytes()
        csv_b = (tmp_path / "r2" / "routes-report.csv").read_bytes()
        assert csv_a == csv_b
