"""Brute-force reference implementations used to check the real code.

Everything here is written from first principles against the definitions,
favoring obviousness over speed: direct set arithmetic, O(P*N) pair counting,
dense linear solves. Unit and acceptance tests compare the package against
these, so nothing in this file may import the functions it is checking.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re

import numpy as np

from conftest import make_graph

from gigmine.errors import CycleError
from gigmine.graph import BipartiteGraph


# -- random graphs -------------------------------------------------------------


def random_bipartite(rng, n_a: int, n_v: int, density: float) -> BipartiteGraph:
    """Seeded random bipartite graph with roughly the given edge density."""
    artists = [f"a{i}" for i in range(n_a)]
    venues = [f"v{j}" for j in range(n_v)]
    edges = []
    for i in range(n_a):
        for j in range(n_v):
            if rng.random() < density:
                count, first_year = int(rng.integers(1, 6)), int(rng.integers(2008, 2018))
                edges.append((artists[i], venues[j], count, first_year))
    return make_graph(edges, artists, venues)


# -- neighborhood / heuristic oracles -------------------------------------------


def neighbors_of(edge_pairs, node) -> set:
    out = set()
    for a, v in edge_pairs:
        if a == node:
            out.add(v)
        elif v == node:
            out.add(a)
    return out


def assert_neighborhoods_match(g: BipartiteGraph) -> None:
    """``g``'s CSR rows and CSC columns, degrees and event sums against ``neighbors_of``.

    Each artist's row must list exactly its neighbours in venue order, and
    each venue's column its neighbours in artist order; ``np.diff`` of the
    index pointers must be the neighbour counts and ``np.bincount`` of the
    edge counts the summed events of each node's edges.
    """
    edges = dict(zip(g.id_pairs(g.row, g.col), g.count.tolist()))
    sides = (
        (g.artist_order, g.venue_order, g.indptr, g.col, g.row),
        (g.venue_order, g.artist_order, g.csc_indptr, g.csc_indices, g.col),
    )
    for order, far_order, ptr, far, near in sides:
        degrees = np.diff(ptr)
        events = np.bincount(near, weights=g.count, minlength=len(order))
        for k, node in enumerate(order):
            want = neighbors_of(edges, node)
            got = [far_order[x] for x in far[ptr[k]:ptr[k + 1]].tolist()]
            assert got == sorted(want, key=far_order.index), node
            assert degrees[k] == len(want), node
            assert events[k] == sum(c for pair, c in edges.items() if node in pair), node


def two_hop_of(edge_pairs, node) -> set:
    out = set()
    for nbr in neighbors_of(edge_pairs, node):
        out |= neighbors_of(edge_pairs, nbr)
    return out


def cn_oracle(edge_pairs, u, v) -> int:
    left = two_hop_of(edge_pairs, u) & neighbors_of(edge_pairs, v)
    right = two_hop_of(edge_pairs, v) & neighbors_of(edge_pairs, u)
    return len(left | right)


def jaccard_oracle(edge_pairs, u, v) -> float:
    union = (
        two_hop_of(edge_pairs, u)
        | neighbors_of(edge_pairs, v)
        | two_hop_of(edge_pairs, v)
        | neighbors_of(edge_pairs, u)
    )
    if not union:
        return 0.0
    return cn_oracle(edge_pairs, u, v) / len(union)


def pa_oracle(edge_pairs, u, v) -> int:
    return len(neighbors_of(edge_pairs, u)) * len(neighbors_of(edge_pairs, v))


# -- metric oracles --------------------------------------------------------------


def pairwise_auc(scores, labels) -> float:
    """AUC as the literal probability a positive outranks a negative."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def confusion_prf(scores, labels, threshold=0.5):
    """Precision/recall/F1 by explicit confusion-matrix counting."""
    tp = fp = fn = 0
    for s, y in zip(scores, labels):
        pred = s >= threshold
        if pred and y:
            tp += 1
        elif pred and not y:
            fp += 1
        elif not pred and y:
            fn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


# -- truncated SVD oracle ------------------------------------------------------------


def dense_svd_oracle(A):
    """All singular values and right singular vectors of A by a dense numpy SVD.

    Returns ``(s, vt)``: ``s`` descending, padded with zeros to one value per
    column, and ``vt`` (columns x columns) whose first rows are the right
    singular vectors of those values, completed to an orthonormal basis.
    """
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A, dtype=float)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    return np.concatenate([s, np.zeros(vt.shape[0] - s.size)]), vt


# -- birank oracle -----------------------------------------------------------------


def dense_birank_oracle(g: BipartiteGraph, weights, u0, p0, alpha, beta):
    """Fixed point by dense linear solve, no iteration.

    Substituting one update into the other gives
    (I - alpha*beta*S*S^T) u = alpha*(1-beta)*S*p0 + (1-alpha)*u0,
    which is uniquely solvable because ||S||_2 <= 1 and alpha*beta < 1.
    """
    na, nv = len(g.artist_order), len(g.venue_order)
    W = np.zeros((na, nv))
    ai = {a: i for i, a in enumerate(g.artist_order)}
    vj = {v: j for j, v in enumerate(g.venue_order)}
    for (a, v), w in weights.items():
        W[ai[a], vj[v]] = w
    du = W.sum(axis=1)
    dp = W.sum(axis=0)
    su = np.where(du > 0, du, 1.0) ** -0.5 * (du > 0)
    sp = np.where(dp > 0, dp, 1.0) ** -0.5 * (dp > 0)
    S = np.diag(su) @ W @ np.diag(sp)
    u0 = np.asarray(u0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    A = np.eye(na) - alpha * beta * (S @ S.T)
    u = np.linalg.solve(A, alpha * (1 - beta) * (S @ p0) + (1 - alpha) * u0)
    p = beta * (S.T @ u) + (1 - beta) * p0
    return u, p


# -- power-law tail fit --------------------------------------------------------------


def mle_tail_exponent(counts, k_min) -> float:
    """Continuous-approximation maximum-likelihood exponent for discrete data."""
    k = np.asarray([c for c in counts if c >= k_min], dtype=float)
    return 1.0 + len(k) / np.sum(np.log(k / (k_min - 0.5)))


# -- route counting -------------------------------------------------------------------


def raw_ngram_counts(sequences, n) -> dict:
    """Plain directional n-gram counts, no merging."""
    out: dict = {}
    for seq in sequences:
        for i in range(len(seq) - n + 1):
            gram = tuple(seq[i : i + n])
            out[gram] = out.get(gram, 0) + 1
    return out


# -- events.csv parse -------------------------------------------------------------------

_EVENT_HEADER = ["event_id", "artist_id", "venue_id", "date", "city", "state", "country",
                 "lat", "lon", "popularity"]
_DATE_SHAPE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")


def _event_reason(row, first_line_of):
    """Why a row of events.csv is rejected, checked in the documented order; None if accepted."""
    if len(row) != len(_EVENT_HEADER):
        return f"expected {len(_EVENT_HEADER)} fields, got {len(row)}"
    event_id, artist_id, venue_id, date_s, _, _, _, lat_s, lon_s, pop_s = row
    if not event_id or not artist_id or not venue_id:
        return "missing event, artist or venue id"
    match = _DATE_SHAPE.fullmatch(date_s)
    try:
        if match is None:
            raise ValueError(date_s)
        year, month, day = match.groups()
        dt.date(int(year), int(month or 1), int(day or 1))
    except ValueError:
        return f"unparseable date {date_s!r}"
    try:
        lat, lon = float(lat_s), float(lon_s)
    except ValueError:
        return f"unparseable coordinates ({lat_s!r}, {lon_s!r})"
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return f"coordinates out of bounds ({lat}, {lon})"
    if pop_s:
        try:
            float(pop_s)
        except ValueError:
            return f"unparseable popularity {pop_s!r}"
    if event_id in first_line_of:
        return f"duplicate event_id {event_id!r}, first on line {first_line_of[event_id]}"
    return None


def parse_events_reference(path):
    """Row-by-row parse of an events.csv with a valid header.

    Returns (events, total, diagnostics). ``events`` holds the accepted rows
    as (artist_id, day ordinal, event_id, venue_id, (city, state, country),
    popularity) tuples sorted by (artist, day, event_id), popularity NaN
    when blank. ``diagnostics`` are {"file", "line", "reason"} dicts in line
    order, where the line is the physical line on which the record starts.
    """
    events, diagnostics, first_line_of = [], [], {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == _EVENT_HEADER
        line = reader.line_num + 1
        total = 0
        for row in reader:
            total += 1
            reason = _event_reason(row, first_line_of)
            if reason is not None:
                diagnostics.append({"file": str(path), "line": line, "reason": reason})
            else:
                event_id, artist_id, venue_id, date_s, city, state, country, _, _, pop_s = row
                first_line_of[event_id] = line
                year, month, day = _DATE_SHAPE.fullmatch(date_s).groups()
                ordinal = dt.date(int(year), int(month or 1), int(day or 1)).toordinal()
                events.append((artist_id, ordinal, event_id, venue_id, (city, state, country),
                               float(pop_s) if pop_s else math.nan))
            line = reader.line_num + 1
    return sorted(events, key=lambda e: e[:3]), total, diagnostics


# -- label hierarchy and success labels --------------------------------------------------


def ancestor_chain(parents: dict, label_id) -> list:
    """The chain label, parent, grandparent, ... up to a root.

    ``parents`` maps each label id to its parent id (None for a root).
    Raises CycleError when the parent pointers loop; the walk simply stops
    at a parent id missing from the table.
    """
    chain = []
    seen = set()
    cur = label_id
    while cur is not None and cur in parents:
        if cur in seen:
            cycle = chain[chain.index(cur):] + [cur]
            raise CycleError(cycle)
        seen.add(cur)
        chain.append(cur)
        cur = parents[cur]
    return chain


def major_closure(parents: dict, major_roots) -> frozenset:
    """All label ids that are a major root or a (transitive) subsidiary of one.

    Labels are visited in the order of ``parents``; raises CycleError, for
    the first label whose parent chain loops, if any does.
    """
    major: dict = {}
    for label_id in parents:
        if label_id in major:
            continue
        chain = ancestor_chain(parents, label_id)
        # walk up to the first node with a cached verdict or a major root;
        # everything strictly below shares that verdict, nodes above it do
        # not (a major root's own parent is settled on its own turn)
        stop, verdict = len(chain), False
        for depth, node in enumerate(chain):
            known = major.get(node)
            if known is not None:
                stop, verdict = depth, known
                break
            if node in major_roots:
                stop, verdict = depth + 1, True
                break
        for node in chain[:stop]:
            major[node] = verdict
    return frozenset(l for l, m in major.items() if m) | frozenset(major_roots)


def label_reference(artist_order, releases, parents: dict, major_roots):
    """Change days (a list over ``artist_order``) and labeling stats, id by id.

    ``releases`` are (artist_id, label_id, date or None) triples; a release
    of an artist not in ``artist_order`` labels no one.
    """
    major = major_closure(parents, major_roots)
    change = {a: None for a in artist_order}
    for artist_id, label_id, date in releases:
        if artist_id in change and label_id in major and date is not None:
            day = date.toordinal()
            change[artist_id] = day if change[artist_id] is None else min(change[artist_id], day)
    undated_only = {a for a, label_id, date in releases
                    if a in change and label_id in major and date is None and change[a] is None}
    n, n_pos = len(artist_order), sum(d is not None for d in change.values())
    return [change[a] for a in artist_order], {
        "artists": n,
        "successful": n_pos,
        "positive_rate": n_pos / n if n else 0.0,
        "major_labels": len(major),
        "undated_major_only_artists": len(undated_only),
    }
