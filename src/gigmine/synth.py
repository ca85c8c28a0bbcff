"""Seeded synthetic corpus generator with planted ground truth.

Emits the exact CSV formats the ingest module validates, plus a
``manifest.json`` recording everything that was planted: which artists are
destined to sign, their change points, the hub venues that successful artists
favor beforehand, future links held out past a cutoff year, artists with a
rising event rate, and a repeated tour route. Desk-scale experiments verify
the pipeline against this manifest instead of real data.

Per-artist concert counts follow a floored Pareto distribution, giving the
heavy tail real gigographies show. Everything is a pure function of the seed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gigmine.errors import GigmineError
from gigmine.ingest import EVENT_HEADER, LABEL_HEADER, RELEASE_HEADER

ROUTE_CITIES = 5
_ROWS = 1 << 13  # events.csv lines formatted and written at a time


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one synthetic corpus."""

    n_artists: int = 1000
    n_venues: int = 200
    years: tuple = (2008, 2017)
    seed: int = 0
    heavy_tail_exponent: float = 2.2
    min_events: int = 10
    positive_fraction: float = 0.1
    success_venue_bias: float = 3.0
    hub_fraction: float = 0.05
    future_edge_count: int = 0
    trajectory_artists: int = 0
    route_artists: int = 0

    def __post_init__(self):
        # a float count or seed passes the comparisons below and fails in numpy
        for name in ("n_artists", "n_venues", "seed", "min_events", "future_edge_count",
                     "trajectory_artists", "route_artists"):
            if type(getattr(self, name)) is not int:  # bool is no count either
                raise GigmineError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # NaN and an infinite exponent or bias pass the one-sided checks below
        for name in ("heavy_tail_exponent", "positive_fraction", "success_venue_bias",
                     "hub_fraction"):
            if not np.isfinite(getattr(self, name)):
                raise GigmineError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_artists < 1 or self.n_venues < 1:
            raise GigmineError("n_artists and n_venues must be positive")
        if self.seed < 0:
            raise GigmineError(f"seed must be at least 0, got {self.seed}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise GigmineError(
                f"positive_fraction must lie in (0, 1), got {self.positive_fraction}"
            )
        if self.heavy_tail_exponent <= 1.0:
            raise GigmineError("heavy_tail_exponent must exceed 1")
        if self.success_venue_bias < 1.0:
            raise GigmineError("success_venue_bias must be >= 1")
        if not 0.0 < self.hub_fraction < 1.0:
            raise GigmineError("hub_fraction must lie in (0, 1)")
        if self.min_events < 1:
            raise GigmineError("min_events must be positive")
        if (
            not isinstance(self.years, (tuple, list))
            or len(self.years) != 2
            or not all(isinstance(y, int) and not isinstance(y, bool) for y in self.years)
        ):
            raise GigmineError(f"years must be two integers (first, last), got {self.years!r}")
        y0, y1 = self.years
        if y0 > y1:
            raise GigmineError(f"years range {self.years} is empty")
        if min(self.future_edge_count, self.trajectory_artists, self.route_artists) < 0:
            raise GigmineError("planted counts cannot be negative")


def _pareto_counts(rng, n, exponent, floor):
    """Floored Pareto draw: heavy tail with index ~ exponent above the floor."""
    u = rng.random(n)
    x = floor * (1.0 - u) ** (-1.0 / (exponent - 1.0))
    return np.minimum(np.floor(x), 1_000_000).astype(np.int64)


def _uniform_ordinals(rng, n, start: dt.date, end: dt.date) -> np.ndarray:
    """Uniform event days, distinct while the range allows.

    Same-day events of one artist have no meaningful order, which would
    distort mined city sequences; sampling without replacement keeps each
    artist's schedule unambiguous except for very busy artists.
    """
    lo, hi = start.toordinal(), end.toordinal()
    span = hi - lo + 1
    if n <= span:
        return rng.choice(span, size=n, replace=False) + lo
    return rng.integers(lo, hi + 1, size=n)


def _weighted_venue_draw(rng, cdf: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(n))


def generate(spec: GenSpec, out_dir) -> dict:
    """Write events.csv, releases.csv, labels.csv and manifest.json.

    Returns the manifest. Identical specs produce byte-identical files.
    Raises when the planted structure cannot fit the requested sizes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    y0, y1 = spec.years

    n_special = spec.trajectory_artists + spec.route_artists
    n_pos = int(round(spec.positive_fraction * spec.n_artists))
    if n_pos + n_special > spec.n_artists:
        raise GigmineError(
            f"{n_pos} positives + {n_special} special artists exceed "
            f"{spec.n_artists} artists"
        )
    if spec.route_artists and spec.n_venues < ROUTE_CITIES + 1:
        raise GigmineError("route planting needs at least 6 venues")

    train_end = y1 - 2 if spec.future_edge_count > 0 else y1
    if spec.future_edge_count > 0 and train_end < y0 + 3:
        raise GigmineError("future-edge planting needs a span of at least 6 years")
    if n_pos > 0 and train_end < y0 + 3:
        raise GigmineError("positives need at least 4 training years for change points")
    span_start = dt.date(y0, 1, 1)
    span_end = dt.date(train_end, 12, 31)

    artists = [f"a{i:05d}" for i in range(spec.n_artists)]
    venues = [f"v{i:05d}" for i in range(spec.n_venues)]

    # venue popularity: mild power law; hubs are the most popular slice
    w = (np.arange(spec.n_venues) + 1.0) ** -0.8
    n_hubs = max(1, int(np.ceil(spec.hub_fraction * spec.n_venues)))
    base_p = w / w.sum()
    biased = w.copy()
    biased[:n_hubs] *= spec.success_venue_bias
    biased_p = biased / biased.sum()
    base_cdf, biased_cdf = np.cumsum(base_p), np.cumsum(biased_p)
    hub_rate_base = float(base_p[:n_hubs].sum())
    hub_rate_biased = float(biased_p[:n_hubs].sum())

    # roles: a seeded permutation deals out positives, then special artists
    perm = rng.permutation(spec.n_artists)
    positive_idx = set(perm[:n_pos].tolist())
    traj_idx = perm[n_pos : n_pos + spec.trajectory_artists].tolist()
    route_idx = perm[
        n_pos + spec.trajectory_artists : n_pos + n_special
    ].tolist()
    special = set(traj_idx) | set(route_idx)

    counts = _pareto_counts(
        rng, spec.n_artists, spec.heavy_tail_exponent, spec.min_events
    )

    route_venue_idx = list(range(spec.n_venues - ROUTE_CITIES, spec.n_venues))
    # the events as column pieces, one int64 array each per draw
    day_parts: list[np.ndarray] = []  # date ordinals
    artist_parts: list[np.ndarray] = []
    venue_parts: list[np.ndarray] = []
    change_points: dict[str, str] = {}
    releases: list[tuple[str, str, str]] = []
    traj_plan: dict[str, dict[str, int]] = {}

    def emit(days, artist, venue_idx):
        day_parts.append(np.asarray(days, dtype=np.int64))
        artist_parts.append(np.full(len(days), artist, dtype=np.int64))
        venue_parts.append(np.asarray(venue_idx, dtype=np.int64))

    for i in range(spec.n_artists):
        k = int(counts[i])
        if i in positive_idx:
            # soon-to-sign artists gig a bit more overall, so that raw
            # activity alone stays weakly informative even after their
            # history is cut at the change point
            k = int(round(k * 2.2))
            cp_year = int(rng.integers(y0 + 2, train_end))
            cp = dt.date(cp_year, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
            change_points[artists[i]] = cp.isoformat()
            releases.append((artists[i], "maj1_s2", cp.isoformat()))
            n_pre = max(min(k, spec.min_events), k // 2)
            pre_dates = _uniform_ordinals(
                rng, n_pre, span_start, cp - dt.timedelta(days=1)
            )
            post_dates = _uniform_ordinals(rng, k - n_pre, cp, span_end)
            pre_venues = _weighted_venue_draw(rng, biased_cdf, n_pre)
            post_venues = _weighted_venue_draw(rng, base_cdf, k - n_pre)
            emit(pre_dates, i, pre_venues)
            emit(post_dates, i, post_venues)
        elif i in special:
            pass  # planted below with bespoke schedules
        else:
            dates = _uniform_ordinals(rng, k, span_start, span_end)
            emit(dates, i, _weighted_venue_draw(rng, base_cdf, k))
        if i not in special:
            r = rng.random()
            if r < 0.25:
                d = _uniform_ordinals(rng, 1, span_start, span_end)[0]
                releases.append(
                    (
                        artists[i],
                        f"indie{int(rng.integers(5))}",
                        dt.date.fromordinal(int(d)).isoformat(),
                    )
                )
            elif r < 0.30:
                releases.append((artists[i], f"indie{int(rng.integers(5))}", ""))

    # rising-trajectory artists: event count and venue variety ramp up yearly
    ramp_len = min(6, train_end - y0 + 1)
    for i in traj_idx:
        plan = {}
        for t in range(ramp_len):
            year = train_end - ramp_len + 1 + t
            c = int(round(3 * 2.2**t))
            plan[str(year)] = c
            year_venues = rng.choice(
                spec.n_venues, size=min(spec.n_venues, max(2, c // 2)), replace=False
            )
            dates = _uniform_ordinals(
                rng, c, dt.date(year, 1, 1), dt.date(year, 12, 31)
            )
            picks = year_venues[rng.integers(len(year_venues), size=c)]
            emit(dates, i, picks)
        traj_plan[artists[i]] = plan

    # route artists walk the same five cities in order, over and over;
    # they tour heavily so the planted route outweighs coincidental n-grams
    span_days = span_end.toordinal() - span_start.toordinal()
    for i in route_idx:
        k = min(max(int(counts[i]), 100), span_days)
        ords = [
            span_start.toordinal() + round(t * span_days / max(1, k - 1))
            for t in range(k)
        ]
        emit(ords, i, np.array(route_venue_idx)[np.arange(k) % ROUTE_CITIES])

    # future links: brand-new (artist, venue) pairs appearing only past the
    # cutoff, as pair codes a * n_venues + v
    nv = spec.n_venues
    future_pairs = np.empty(0, dtype=np.int64)
    if spec.future_edge_count > 0:
        # sorted distinct codes; np.unique hashes, which is slower on codes this sparse
        codes = np.sort(np.concatenate(artist_parts) * nv + np.concatenate(venue_parts))
        existing = codes[np.r_[True, codes[1:] != codes[:-1]]]
        strong_artists = np.array(
            [
                i
                for i in np.argsort(-counts).tolist()
                if i not in special and counts[i] >= 3 * spec.min_events
            ][:400],
            dtype=np.int64,
        )
        candidates = (strong_artists[:, None] * nv + np.arange(max(1, nv // 5))).ravel()
        candidates = candidates[~np.isin(candidates, existing, assume_unique=True)]
        if len(candidates) < spec.future_edge_count:
            raise GigmineError(
                f"cannot plant {spec.future_edge_count} future edges, "
                f"only {len(candidates)} unused strong pairs exist"
            )
        pick = rng.choice(len(candidates), size=spec.future_edge_count, replace=False)
        future_pairs = candidates[np.sort(pick)]
        test_start = dt.date(train_end + 1, 1, 1)
        test_end = dt.date(y1, 12, 31)

        def emit_future(codes):
            days = [_uniform_ordinals(rng, 1, test_start, test_end)[0] for _ in codes.tolist()]
            emit(days, codes // nv, codes % nv)

        emit_future(future_pairs)
        # background future activity re-uses known pairs so that the only new
        # pairs past the cutoff are the planted ones: the first two known
        # venues of each of the 100 strongest artists
        top = strong_artists[:100, None]
        at = np.searchsorted(existing, top * nv) + np.arange(2)
        known = existing[np.minimum(at, existing.size - 1)]
        emit_future(known[(at < existing.size) & (known // nv == top)])

    # venue geography: a fixed city per venue, route venues get their own towns
    city_of: list[tuple[str, str, str]] = []
    for j in range(spec.n_venues):
        if j in route_venue_idx:
            city_of.append((f"Routeville{j - route_venue_idx[0] + 1}", "", "RR"))
        else:
            city_of.append((f"city{j % 47:02d}", f"s{j % 11}", "XX"))
    lat = np.round(-80.0 + 160.0 * (np.arange(spec.n_venues) % 97) / 96.0, 4)
    lon = np.round(-170.0 + 340.0 * (np.arange(spec.n_venues) % 89) / 88.0, 4)

    day, artist, venue = (np.concatenate(parts) for parts in (day_parts, artist_parts, venue_parts))
    order = np.lexsort((venue, artist, day))
    day, artist, venue = day[order], artist[order], venue[order]
    del day_parts[:], artist_parts[:], venue_parts[:]  # copied into the columns
    # formatted by lookup: one text per distinct day and per venue's place
    # columns. No field holds a comma, a quote or a line end, so the lines
    # are the bytes csv.writer would write.
    days, day_of = np.unique(day, return_inverse=True)
    dates = [dt.date.fromordinal(o).isoformat() for o in days.tolist()]
    places = [
        f"{city},{state},{country},{lat[j]:.4f},{lon[j]:.4f}"
        for j, (city, state, country) in enumerate(city_of)
    ]
    pop = rng.random(day.size)
    with open(out_dir / "events.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        for lo in range(0, day.size, _ROWS):
            rows = slice(lo, lo + _ROWS)
            fh.write("".join([
                f"e{n:07d},{artists[a]},{venues[v]},{dates[d]},{places[v]},"
                f"{f'{p * 100:.2f}' if p > 0.2 else ''}\n"
                for n, a, v, d, p in zip(
                    range(lo, lo + _ROWS), artist[rows].tolist(), venue[rows].tolist(),
                    day_of[rows].tolist(), pop[rows].tolist(),
                )
            ]))

    label_rows = [
        ("maj1", "Big Fish Records", "", "1"),
        ("maj1_s1", "Big Fish Imprint", "maj1", "0"),
        ("maj1_s2", "Pond Recordings", "maj1_s1", "0"),
    ] + [(f"indie{j}", f"Indie {j}", "", "0") for j in range(5)]

    releases.sort()
    _write_csv(out_dir / "releases.csv", RELEASE_HEADER, releases)
    _write_csv(out_dir / "labels.csv", LABEL_HEADER, label_rows)

    manifest = {
        "spec": {**asdict(spec), "years": list(spec.years)},
        "planted_positives": sorted(artists[i] for i in positive_idx),
        "change_points": change_points,
        "hub_venues": venues[:n_hubs],
        "expected_hub_rate_base": hub_rate_base,
        "expected_hub_rate_biased": hub_rate_biased,
        "train_end_year": train_end,
        "test_years": list(range(train_end + 1, y1 + 1)) if future_pairs.size else [],
        "planted_future_edges": sorted(
            [artists[a], venues[v]] for a, v in (divmod(c, nv) for c in future_pairs.tolist())
        ),
        "trajectory_artists": traj_plan,
        "route_artists": sorted(artists[i] for i in route_idx),
        "planted_route": [city_of[j][0] for j in route_venue_idx]
        if spec.route_artists
        else [],
        "counts": {
            "events": day.size,
            "releases": len(releases),
            "labels": len(label_rows),
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
