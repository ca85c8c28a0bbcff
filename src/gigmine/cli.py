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
from gigmine.birank import _check_task3, run_task3
from gigmine.errors import GigmineError
from gigmine.graph import build_graph
from gigmine.ingest import parse_corpus, preprocess
from gigmine.linkpred import _check_task2, run_task2
from gigmine.routes import _check_routes, city_display, run_routes
from gigmine.success import _check_task1, run_task1
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


def _keywords(fn) -> dict:
    """``fn``'s keyword parameters but ``seed``, with defaults as the config holds them."""
    return {
        name: _plain(p.default) for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty and name != "seed"
    }


# a study's block holds the keywords of its library call, and preprocess's
# those of ``preprocess``; the rest are the CLI's own
DEFAULTS: dict = {
    "seed": 0,
    "corpus": {
        "dir": "",
        "events": "events.csv",
        "releases": "releases.csv",
        "labels": "labels.csv",
    },
    "preprocess": _keywords(preprocess),
    "task1": _keywords(run_task1),
    "task2": _keywords(run_task2),
    "task3": _keywords(run_task3),
    "routes": _keywords(run_routes),
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
    """``gigmine <version>``, with ``git describe`` when run from a checkout; once per process.

    Only a repository that tracks this file is described: a copy installed
    inside another project's checkout reports the bare version.
    """
    here = Path(__file__)

    def git(*args):
        return subprocess.run(["git", *args], cwd=here.parent, capture_output=True, text=True,
                              timeout=5)

    try:
        if git("ls-files", "--error-unmatch", here.name).returncode == 0:
            described = git("describe", "--always", "--dirty", "--tags")
            if described.returncode == 0 and described.stdout.strip():
                return f"gigmine {__version__} ({described.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"gigmine {__version__}"


def _parse(config: dict):
    """The corpus that the config's ``corpus`` block names, as parsed."""
    c = config["corpus"]
    base = Path(c["dir"]) if c["dir"] else Path(".")
    paths = tuple(base / c[k] if not Path(c[k]).is_absolute() else Path(c[k])
                  for k in ("events", "releases", "labels"))
    for p in paths:
        if not p.exists():
            raise UsageError(f"corpus file not found: {p}")
    log.info("parsing corpus from %s", paths[0].parent)
    return parse_corpus(*paths)


def _write_report(out: Path, config: dict, payload: dict) -> None:
    """``<payload's report>-report.json`` in ``out``: the payload, version, config and time."""
    report = {"version": _version(), "config": config,
              "generated_at": dt.datetime.now(dt.timezone.utc).isoformat(), **payload}
    path = out / f"{payload['report']}-report.json"
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
    log.info("wrote %s", path)


def cmd_ingest(config: dict, out: Path) -> dict:
    corpus, info = preprocess(_parse(config), **config["preprocess"])
    payload = {
        "report": "ingest",
        "load": corpus.load_report.to_dict(),
        **info,
        "final": corpus.sizes(),
    }
    _write_report(out, config, payload)
    return payload


def cmd_stats(config: dict, out: Path) -> dict:
    corpus = _parse(config)
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
    _write_report(out, config, payload)
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


def _write_routes(path: Path, ranked: dict) -> None:
    """routes-report.csv: each n's routes by rank, n ascending."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "rank", "route", "count", "bidirectional"])
        for n in sorted(ranked):
            for rank, rc in enumerate(ranked[n], start=1):
                route = "|".join(city_display(c) for c in rc.route)
                writer.writerow([n, rank, route, rc.count, int(rc.bidirectional)])


# study: its corpus-free check, its library call, whether that call takes the
# seed, and its CSV table (file name and writer) or None. Each check and call
# takes the study's config block as keywords; a call with a table returns
# (report block, the table's rows), one without it the report block alone.
STUDIES = {
    "task1": (_check_task1, run_task1, True, None),
    "task2": (_check_task2, run_task2, True, None),
    "task3": (_check_task3, run_task3, False, ("task3-trajectories.csv", _write_trajectories)),
    "routes": (_check_routes, run_routes, False, ("routes-report.csv", _write_routes)),
}


def cmd_study(name: str, config: dict, out: Path) -> dict:
    """Run one study on the preprocessed corpus and write its report and CSV table."""
    check, run, seeded, table = STUDIES[name]
    check(**config[name])  # before the corpus loads
    corpus, info = preprocess(_parse(config), **config["preprocess"])
    result = run(corpus, **config[name], **({"seed": config["seed"]} if seeded else {}))
    block, rows = result if table else (result, None)
    payload = {"report": name, **info, **block}
    _write_report(out, config, payload)
    if table:
        filename, write = table
        write(out / filename, rows)
        log.info("wrote %s", out / filename)
    return payload


def cmd_synth(config: dict, out: Path) -> dict:
    s = config["synth"]
    spec = GenSpec(seed=config["seed"], **{**s, "years": tuple(s["years"])})
    manifest = generate(spec, out)
    # stdout carries a ready-to-pipe config pointing at the generated corpus
    handoff: dict = {"corpus": {**DEFAULTS["corpus"], "dir": str(out)}}
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
    **{name: functools.partial(cmd_study, name) for name in STUDIES},
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
        COMMANDS[args.command](load_config(args.config, args.seed), Path(args.out))
    except UsageError as exc:
        print(f"gigmine: {exc}", file=sys.stderr)
        return 2
    except (GigmineError, OSError) as exc:
        print(f"gigmine: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
