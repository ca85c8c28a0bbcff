"""Workload definitions, report checks and quality figures.

A workload is a synthetic corpus spec plus a list of gigmine commands with
config overrides. Each command's reports are checked against the planted
ground truth in the corpus's ``manifest.json``; the checks hold for any seed.
Quality figures (AUC, F1) are read from the same reports.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

CORPUS_M = {"n_artists": 5000, "n_venues": 3000, "future_edge_count": 500,
            "trajectory_artists": 2, "route_artists": 5, "heavy_tail_exponent": 3.0,
            "min_events": 20}
CORPUS_S = {"n_artists": 2000, "n_venues": 800, "future_edge_count": 300,
            "trajectory_artists": 2, "route_artists": 5, "heavy_tail_exponent": 3.0}

PREDICTORS = ("common_neighbors", "jaccard", "preferential_attachment", "svd", "embedding")

# task2 negative sampling: the workload's neg_floor override and the CLI's
# default neg_multiple. The check holds the report to these, not to the
# values the report states.
NEG_FLOOR = 20_000
NEG_MULTIPLE = 10


@dataclass(frozen=True)
class Workload:
    synth: dict
    commands: tuple  # (command, config overrides)


WORKLOADS = {
    "ingest_rank": Workload(
        synth=CORPUS_M,
        commands=(("task3", {}), ("routes", {})),
    ),
    "linkpred": Workload(
        synth=CORPUS_S,
        commands=(("task2", {"task2": {"n_random_splits": 1, "walks_per_node": 2,
                                       "embed_epochs": 1, "neg_floor": NEG_FLOOR}}),),
    ),
    "forecast": Workload(
        synth=CORPUS_S,
        commands=(("task1", {"task1": {"n_splits": 2, "test_fraction": 0.5,
                                       "k_grid": [500]}}),),
    ),
}


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def auc(scores, positive) -> float:
    """Mann-Whitney ROC AUC with tied scores counted as half."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    rank_sum = sum(r for r, p in zip(ranks, positive) if p)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


# -- per-command checks: return a list of failure messages -------------------


def _trajectories(out: Path) -> dict:
    """artist -> {year: (rank, score)} from task3-trajectories.csv."""
    traj: dict = {}
    with open(out / "task3-trajectories.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            traj.setdefault(row["artist_id"], {})[int(row["year"])] = (
                int(row["rank"]), float(row["score"]))
    return traj


def check_task3(out: Path, manifest: dict) -> list:
    errors = []
    report = _json(out / "task3-report.json")
    if report["converged"] is not True:
        errors.append(f"task3 BiRank did not converge in {report['iterations']} iterations")
    traj = _trajectories(out)
    for artist in manifest["trajectory_artists"]:
        years = sorted(traj.get(artist, {}))[-6:]
        ranks = [traj[artist][y][0] for y in years]
        improving = sum(b < a for a, b in zip(ranks, ranks[1:]))
        if len(ranks) != 6 or improving < 4:
            errors.append(f"trajectory artist {artist}: ranks {ranks} improve in "
                          f"{improving} of the last 5 steps, need 4")
    return errors


def check_routes(out: Path, manifest: dict) -> list:
    report = _json(out / "routes-report.json")
    top = report["routes"]["5"][0]["route"]
    cities = [stop.split(",")[0] for stop in top]
    planted = manifest["planted_route"]
    if cities not in (planted, planted[::-1]):
        return [f"top 5-city route {cities} is not the planted route {planted}"]
    return []


def check_task2(out: Path, manifest: dict) -> list:
    errors = []
    report = _json(out / "task2-report.json")
    positives = report["split"]["test_positives"]
    if positives != manifest["spec"]["future_edge_count"]:
        errors.append(f"task2 found {positives} test positives, planted "
                      f"{manifest['spec']['future_edge_count']}")
    sampling = report["negative_sampling"]
    if (sampling["multiple"], sampling["floor"]) != (NEG_MULTIPLE, NEG_FLOOR):
        errors.append(f"task2 sampled with multiple {sampling['multiple']} and floor "
                      f"{sampling['floor']}, expected {NEG_MULTIPLE} and {NEG_FLOOR}")
    negatives = sampling["forecasting_negatives"]
    want = max(NEG_MULTIPLE * positives, NEG_FLOOR)
    if negatives != want:
        errors.append(f"task2 sampled {negatives} negatives, expected {want}")
    for name, value in report["forecasting"].items():
        if not value > 0.5:
            errors.append(f"forecasting AUC of {name} is {value}, not above 0.5")
    return errors


def check_task1(out: Path, manifest: dict) -> list:
    errors = []
    report = _json(out / "task1-report.json")
    if not 0 < report["n_positives"] < report["n_artists"]:
        errors.append(f"task1 has {report['n_positives']} positives of "
                      f"{report['n_artists']} artists; both classes are needed")
    models = report["models"]
    lr, base = models["logreg"]["mean"]["auc"], models["baseline"]["mean"]["auc"]
    if not lr >= base + 0.10:
        errors.append(f"logreg AUC {lr:.3f} is not baseline {base:.3f} + 0.10")
    return errors


CHECKS = {"task3": check_task3, "routes": check_routes,
          "task2": check_task2, "task1": check_task1}


# -- quality: per-layer names -> value ----------------------------------------


def quality_task3(out: Path, manifest: dict) -> dict:
    """AUC of the last window's BiRank scores for planted successful artists."""
    traj = _trajectories(out)
    last = max(y for years in traj.values() for y in years)
    planted = set(manifest["planted_positives"])
    artists = sorted(a for a, years in traj.items() if last in years)
    return {"birank.auc.final_window": auc(
        [traj[a][last][1] for a in artists], [a in planted for a in artists])}


def quality_task2(out: Path, manifest: dict) -> dict:
    report = _json(out / "task2-report.json")
    q = {f"linkpred.auc.forecast.{p}": report["forecasting"][p] for p in PREDICTORS}
    for p in ("svd", "embedding"):
        q[f"linkpred.auc.prediction.{p}"] = report["prediction"][p]["mean"]
    return q


def quality_task1(out: Path, manifest: dict) -> dict:
    models = _json(out / "task1-report.json")["models"]
    return {
        "success.auc.logreg": models["logreg"]["mean"]["auc"],
        "success.auc.logreg_svd": models["logreg_svd"]["mean"]["auc"],
        "success.f1.logreg_svd": models["logreg_svd"]["mean"]["f1"],
    }


QUALITY = {"task3": quality_task3, "task2": quality_task2, "task1": quality_task1}

# the quality figures that enter the end-to-end quality.auc_* metrics
AUC_FIGURES = {
    "birank.auc.final_window",
    *(f"linkpred.auc.forecast.{p}" for p in PREDICTORS),
    "linkpred.auc.prediction.svd",
    "linkpred.auc.prediction.embedding",
    "success.auc.logreg",
    "success.auc.logreg_svd",
}
