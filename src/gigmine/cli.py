"""Command-line entry point.

Subcommands: ingest, stats, task1, task2, task3, routes, synth. All tunables
live in one declarative JSON config (``--config``, ``-`` for stdin) with a
few flag overrides; unknown keys are rejected up front. Every report embeds
the fully resolved config and a version string so a report is reproducible
from its own contents; timestamps sit in a separate field so reruns are
otherwise bit-identical.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime as dt
import functools
import inspect
import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np

from gigmine import __version__
from gigmine.birank import birank, score_histogram, yearly_trajectories
from gigmine.errors import GigmineError
from gigmine.graph import build_graph
from gigmine.ingest import filter_min_activity, filter_post_2007, parse_corpus
from gigmine.labeling import NEVER, label_corpus
from gigmine.linkpred import _check_task2, run_task2
from gigmine.routes import city_sequences, mine_routes
from gigmine.success import run_task1
from gigmine.synth import GenSpec, generate

log = logging.getLogger("gigmine")


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 2."""


def _plain(value):
    """``value`` as the JSON config holds it: tuples as lists, dates in ISO form."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def _default(fn, name: str):
    """The default of parameter ``name`` of a function or dataclass, as the config holds it."""
    return _plain(inspect.signature(fn).parameters[name].default)


def _defaults(fn, *names: str) -> dict:
    return {name: _default(fn, name) for name in names}


# a key that repeats a library default reads it from the signature it feeds;
# the rest are the CLI's own
DEFAULTS: dict = {
    "seed": 0,
    "corpus": {
        "dir": "",
        "events": "events.csv",
        "releases": "releases.csv",
        "labels": "labels.csv",
    },
    "preprocess": {
        "post_platform_filter": True,
        "cutoff": _default(filter_post_2007, "cutoff"),
        "min_activity_filter": True,
        "activity_threshold": _default(filter_min_activity, "threshold"),
        "recursive": _default(filter_min_activity, "recursive"),
    },
    "task1": _defaults(
        run_task1, "mode", "n_splits", "test_fraction", "cv_folds", "threshold", "c_grid", "k_grid"
    ),
    "task2": _defaults(
        run_task2, "predictors", "train_end_year", "test_years", "hidden_fraction",
        "n_random_splits", "core_k", "svd_k", "neg_multiple", "neg_floor", "walks_per_node",
        "walk_length", "embed_dim", "embed_window", "embed_epochs",
    ),
    "task3": {
        **_defaults(yearly_trajectories, "delta", "alpha", "beta", "window_years", "count_scaled"),
        "bins": _default(score_histogram, "bins"),
        "ref_year": 0,  # 0 = most recent year in the corpus
        "top_k": 20,
    },
    "routes": {"n_values": _default(mine_routes, "n_values"), "top_k": 20},
    "synth": {
        key: _plain(value) for key, value in dataclasses.asdict(GenSpec()).items() if key != "seed"
    },
}


# keys whose null means "no limit"; every other value takes its default's type
NULLABLE = frozenset({"task3.top_k", "routes.top_k"})
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list"}


def _check_type(here: str, value, default) -> None:
    """Raise UsageError unless ``value`` has the JSON type of ``default``.

    A float key takes any number, an int key only integers (true and false
    are not numbers here), and a list takes items of its default's item type.
    """
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        got = json.dumps(value, default=str)
        raise UsageError(f"config key {here} must be {_TYPE_NAMES[kind]}, got {got}")
    if kind is list:
        for item in value:
            _check_type(f"{here}[]", item, default[0])


def _merge_config(user: dict, defaults: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise UsageError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {here} must be an object")
            out[key] = _merge_config(value, defaults[key], here)
        else:
            if value is not None or here not in NULLABLE:
                _check_type(here, value, defaults[key])
            out[key] = value
    return out


def _no_constant(name: str):
    """``json``'s hook for NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError(f"{name} is not a JSON number")


def load_config(arg: str | None, seed: int | None) -> dict:
    if arg is None:
        user = {}
    elif arg == "-":
        try:
            user = json.load(sys.stdin, parse_constant=_no_constant)
        except ValueError as exc:  # JSONDecodeError is one
            raise UsageError(f"config on stdin is not valid JSON: {exc}")
    else:
        path = Path(arg)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            user = json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
        except UnicodeDecodeError as exc:  # a ValueError too
            raise UsageError(f"config file {path} is not UTF-8: {exc}")
        except ValueError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}")
        except OSError as exc:
            raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    if not isinstance(user, dict):
        raise UsageError("config must be a JSON object")
    config = _merge_config(user, DEFAULTS)
    if seed is not None:
        config["seed"] = seed
    if config["seed"] < 0:  # numpy's generators take no negative seed
        raise UsageError(f"config key seed must be at least 0, got {config['seed']}")
    cutoff = config["preprocess"]["cutoff"]
    try:
        dt.date.fromisoformat(cutoff)
    except ValueError:
        raise UsageError(
            f"config key preprocess.cutoff must be an ISO date such as 2007-01-01, got {cutoff!r}"
        )
    return config


@functools.cache
def _version() -> str:
    """``gigmine <version>``, with ``git describe`` when run from a checkout; once per process."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"gigmine {__version__} ({described.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"gigmine {__version__}"


def _corpus_paths(config: dict) -> tuple[Path, Path, Path]:
    c = config["corpus"]
    base = Path(c["dir"]) if c["dir"] else Path(".")
    paths = tuple(base / c[k] if not Path(c[k]).is_absolute() else Path(c[k])
                  for k in ("events", "releases", "labels"))
    for p in paths:
        if not p.exists():
            raise UsageError(f"corpus file not found: {p}")
    return paths


def _load_preprocessed(config: dict):
    """The corpus parsed and filtered per the preprocess config, and its report blocks."""
    events_f, releases_f, labels_f = _corpus_paths(config)
    log.info("parsing corpus from %s", events_f.parent)
    corpus = parse_corpus(events_f, releases_f, labels_f)
    stages = {"parsed": corpus.sizes()}
    pp = config["preprocess"]
    if pp["post_platform_filter"]:
        corpus = filter_post_2007(corpus, cutoff=dt.date.fromisoformat(pp["cutoff"]))
        stages["post_platform_filter"] = corpus.sizes()
    if pp["min_activity_filter"]:
        corpus = filter_min_activity(
            corpus, threshold=pp["activity_threshold"], recursive=pp["recursive"]
        )
        stages["min_activity_filter"] = corpus.sizes()
    _, label_stats = label_corpus(corpus)
    log.info("corpus ready: %s", corpus.sizes())
    return corpus, {"stages": stages, "labeling": label_stats}


def _report(config: dict, payload: dict) -> dict:
    return {
        "version": _version(),
        "config": config,
        "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        **payload,
    }


def _write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    log.info("wrote %s", path)


def cmd_ingest(config: dict, out: Path) -> dict:
    corpus, info = _load_preprocessed(config)
    payload = {
        "report": "ingest",
        "load": corpus.load_report.to_dict(),
        **info,
        "final": corpus.sizes(),
    }
    _write_json(out / "ingest-report.json", _report(config, payload))
    return payload


def cmd_stats(config: dict, out: Path) -> dict:
    events_f, releases_f, labels_f = _corpus_paths(config)
    corpus = parse_corpus(events_f, releases_f, labels_f)
    g = build_graph(corpus)
    lo, hi = corpus.year_span()
    payload = {
        "report": "stats",
        "concerts": corpus.n_events,
        "artists": len(corpus.artist_order),
        "venues": len(corpus.venue_order),
        "releases": corpus.sizes()["releases"],
        "labels": len(corpus.labels.ids),
        "major_roots": int(np.count_nonzero(corpus.labels.major_root)),
        "edges": g.n_edges,
        "year_span": [lo, hi],
        "load": corpus.load_report.to_dict(),
    }
    _write_json(out / "stats-report.json", _report(config, payload))
    return payload


def cmd_task1(config: dict, out: Path) -> dict:
    corpus, info = _load_preprocessed(config)
    result = run_task1(corpus, seed=config["seed"], **config["task1"])
    payload = {"report": "task1", **info, **result}
    _write_json(out / "task1-report.json", _report(config, payload))
    return payload


def cmd_task2(config: dict, out: Path) -> dict:
    # every task2 key is a run_task2 parameter of that name
    _check_task2(**config["task2"])  # before the corpus loads
    corpus, info = _load_preprocessed(config)
    result = run_task2(corpus, seed=config["seed"], **config["task2"])
    payload = {"report": "task2", **info, **result}
    _write_json(out / "task2-report.json", _report(config, payload))
    return payload


def _csv_fields(ids: tuple) -> tuple:
    """``ids`` as ``csv.writer`` writes each within a row.

    It quotes a field only when the field holds a comma, a quote or a line
    break, so only such ids go through a writer.
    """
    def special(text: str) -> bool:
        return any(ch in text for ch in ',"\r\n')

    def field(text: str) -> str:
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([text])
        return line.getvalue()[:-1]

    if not special("".join(ids)):
        return ids
    return tuple(field(a) if special(a) else a for a in ids)


def _write_trajectories(path: Path, trajectories: dict) -> None:
    """task3-trajectories.csv: each window's artists by rank (ties in order), by year.

    The bytes are those of ``csv.writer``; each window's lines are made from
    its rank and score arrays and written as one block.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("artist_id,year,rank,score\n")
        for year in sorted(trajectories):
            window = trajectories[year]
            at = np.argsort(window.ranks, kind="stable")
            ids = _csv_fields(window.scores.order)
            ranks, scores = window.ranks[at].tolist(), window.scores.array[at].tolist()
            fh.write("".join([
                f"{ids[i]},{year},{rank},{score:.10g}\n"
                for i, rank, score in zip(at.tolist(), ranks, scores)
            ]))
    log.info("wrote %s", path)


def cmd_task3(config: dict, out: Path) -> dict:
    t3 = config["task3"]
    top = t3["top_k"]
    if top is not None and top < 1:
        raise GigmineError(f"top_k must be at least 1, got {top}")
    corpus, info = _load_preprocessed(config)
    g = build_graph(corpus)  # in the corpus's artist order
    ref_year = t3["ref_year"] or corpus.year_span()[1]
    result = birank(g, delta=t3["delta"], ref_year=ref_year, alpha=t3["alpha"],
                    beta=t3["beta"], count_scaled=t3["count_scaled"])
    signed, hist = corpus.change_day < NEVER, None
    if 0 < signed.sum() < signed.size:  # a histogram needs both classes
        hist = score_histogram(result, signed, bins=t3["bins"])
    else:
        log.warning("no score histogram: %d of %d artists sign", signed.sum(), signed.size)
    trajectories = yearly_trajectories(
        corpus,
        window_years=t3["window_years"],
        delta=t3["delta"],
        alpha=t3["alpha"],
        beta=t3["beta"],
        count_scaled=t3["count_scaled"],
    )
    _write_trajectories(out / "task3-trajectories.csv", trajectories)
    payload = {
        "report": "task3",
        **info,
        "ref_year": ref_year,
        "iterations": result.iterations,
        "converged": result.converged,
        "top_artists": result.artist_scores.top(top),
        "top_venues": result.venue_scores.top(top),
        "histogram": hist,
        "trajectory_years": sorted(trajectories),
        "trajectory_convergence": [
            {"year": y, "iterations": w.iterations, "converged": w.converged}
            for y, w in sorted(trajectories.items())
        ],
    }
    _write_json(out / "task3-report.json", _report(config, payload))
    return payload


def _city_display(city: tuple) -> str:
    return ", ".join(part for part in city if part)


def cmd_routes(config: dict, out: Path) -> dict:
    corpus, info = _load_preprocessed(config)
    r = config["routes"]
    ranked = mine_routes(
        city_sequences(corpus), n_values=tuple(r["n_values"]), top_k=r["top_k"]
    )
    csv_path = out / "routes-report.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "rank", "route", "count", "bidirectional"])
        for n in sorted(ranked):
            for rank, rc in enumerate(ranked[n], start=1):
                writer.writerow(
                    [
                        n,
                        rank,
                        "|".join(_city_display(c) for c in rc.route),
                        rc.count,
                        int(rc.bidirectional),
                    ]
                )
    log.info("wrote %s", csv_path)
    payload = {
        "report": "routes",
        **info,
        "routes": {
            str(n): [
                {
                    "route": [_city_display(c) for c in rc.route],
                    "count": rc.count,
                    "bidirectional": rc.bidirectional,
                }
                for rc in ranked[n]
            ]
            for n in sorted(ranked)
        },
    }
    _write_json(out / "routes-report.json", _report(config, payload))
    return payload


def cmd_synth(config: dict, out: Path) -> dict:
    s = config["synth"]
    spec = GenSpec(seed=config["seed"], **{**s, "years": tuple(s["years"])})
    manifest = generate(spec, out)
    # stdout carries a ready-to-pipe config pointing at the generated corpus
    handoff: dict = {
        "corpus": {
            "dir": str(out),
            "events": "events.csv",
            "releases": "releases.csv",
            "labels": "labels.csv",
        }
    }
    if manifest["test_years"]:
        handoff["task2"] = {
            "train_end_year": manifest["train_end_year"],
            "test_years": manifest["test_years"],
        }
    print(json.dumps(handoff, indent=2, sort_keys=True))
    return manifest


COMMANDS = {
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "task1": cmd_task1,
    "task2": cmd_task2,
    "task3": cmd_task3,
    "routes": cmd_routes,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gigmine",
        description="Concert-graph analytics: success forecasting, venue link "
        "prediction, temporal influence ranking, tour-route mining.",
    )
    parser.add_argument("--version", action="version", version=_version())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("ingest", "parse and filter a corpus, write ingest-report.json"),
        ("stats", "raw corpus statistics without filtering"),
        ("task1", "artist success forecasting experiment"),
        ("task2", "artist-venue link prediction experiment"),
        ("task3", "temporally weighted two-sided ranking"),
        ("routes", "frequent touring route mining"),
        ("synth", "generate a synthetic corpus with planted ground truth"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file, or - for stdin")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument(
            "--out", default=".", help="output directory for reports (default .)"
        )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.seed)
        out = Path(args.out)
        COMMANDS[args.command](config, out)
    except UsageError as exc:
        print(f"gigmine: {exc}", file=sys.stderr)
        return 2
    except (GigmineError, OSError) as exc:
        print(f"gigmine: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
